//! Two-tenant colocation scenario: a latency-SLO serving tenant and a
//! throughput-oriented batch tenant sharing one machine under an
//! `lg_core::Arbiter`.
//!
//! The pieces here are the *tenant-side* halves of the multi-tenancy
//! evaluation (fig 10): each wraps a full looking-glass instance and
//! publishes exactly the signals the machine-wide governor arbitrates
//! over.
//!
//! * [`ServeTenant`] — the open-loop serving pipeline from
//!   [`crate::serve`], with the **bulkhead limit as its thread knob**:
//!   one concurrency slot stands in for one worker thread, so the
//!   arbiter moving "threads" between tenants moves real admission
//!   capacity. Pressure signal: the end-to-end window p99 against the
//!   deadline budget.
//! * [`BatchTenant`] — a job stream on a simulated machine slice
//!   ([`lg_sim::MachineShares`]), stepped in lockstep with the
//!   authoritative clock via [`lg_sim::SimRuntime::run_until`]. It
//!   publishes `batch.power_w` (mean package watts over the last step)
//!   for the governor's power envelope and `batch.backlog` for its own
//!   local policies.
//! * [`BatchTenant::install_greedy`] — a deliberately selfish
//!   tenant-local policy that doubles the batch thread cap whenever
//!   backlog builds. During a memory-storm phase the extra threads add
//!   power but no throughput; the tenant's own regression watchdog
//!   ([`BatchTenant::install_watchdog`], rate = jobs per joule) rolls
//!   the grab back, and the rollback record is what the arbiter's
//!   noisy-neighbor quarantine keys on.
//! * [`DagTenant`] — a dependency graph ([`crate::dag::DagSpec`]) drained
//!   on its own machine slice in lockstep with the authoritative clock
//!   ([`lg_sim::SimRuntime::run_until_event`] releases successors at the
//!   exact completion instant instead of batching them to the round
//!   boundary). Its demand profile comes from live
//!   [`DagStats`]: useful width = the ready frontier, so the governor
//!   preempts *toward* it while the frontier is wide and takes the
//!   threads back as the critical-path tail sets in.
//!
//! Each tenant exposes a `demand_probe()` — the native
//! [`DemandProfile`] publisher its admission `TenantSpec` installs via
//! `with_demand_probe` — alongside the legacy pressure-metric path, so
//! experiments can compare pressure-only and demand-aware arbitration
//! over identical workloads.

use lg_core::dag::DagStats;
use lg_core::{
    admission::serve_demand, AdmissionGate, Brownout, BrownoutPolicy, Bulkhead, DemandProbe,
    DemandProfile, FnPolicy, Knob, LookingGlass, PolicyDecision, RegressionWatchdog, TaskId,
    VirtualClock,
};
use lg_metrics::CounterRegistry;
use lg_net::{ReliableConfig, ReliableLink, TransportCost};
use lg_sim::{MachineSpec, SimRunReport, SimRuntime, SimTask};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::serve::{ServeConfig, ServeEngine, ServeReport};

/// A latency-class tenant: the serving pipeline with its bulkhead limit
/// exposed as the arbitrated thread knob (`serve.bulkhead_limit`).
pub struct ServeTenant {
    lg: Arc<LookingGlass>,
    counters: Arc<CounterRegistry>,
    engine: ServeEngine,
    control_period_ns: u64,
    knee: usize,
}

impl ServeTenant {
    /// Builds the tenant on the shared authoritative `clock`. `knee` is
    /// both the service-stage contention knee and the bulkhead ceiling —
    /// the most threads the arbiter could ever grant. The wire is clean;
    /// in this scenario the noise comes from the sibling tenant, not the
    /// network.
    pub fn new(clock: Arc<VirtualClock>, knee: usize, seed: u64) -> Self {
        let lg = LookingGlass::builder().clock(clock).build();
        let counters = Arc::new(CounterRegistry::new());
        lg.introspection().register_counters(counters.clone());

        let bulkhead = Bulkhead::new("serve.bulkhead_limit", 1, knee as i64, knee as i64);
        let gate = AdmissionGate::new("serve.admit_rate", 100, 1_000_000, 1_000_000, 64.0, 8.0);
        let brownout = Brownout::new("serve.shed_level");
        let link = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), seed);

        lg.knobs().register(bulkhead.limit_knob().clone());
        lg.knobs().register(gate.rate_knob().clone());
        lg.knobs().register(brownout.level_knob().clone());
        lg.knobs().register(link.retry_budget_knob().clone());

        let config = ServeConfig {
            knee,
            ..ServeConfig::default()
        };
        let control_period_ns = config.control_period_ns;
        let mut engine = ServeEngine::new(link, config, bulkhead, gate, brownout);
        engine.bind_introspection(lg.introspection());
        engine.bind_metrics(&counters);
        Self {
            lg,
            counters,
            engine,
            control_period_ns,
            knee,
        }
    }

    /// The serve plane's native demand publisher
    /// ([`lg_core::admission::serve_demand`]): width from live queue
    /// depth + in-flight with burst headroom, pinned to the bulkhead
    /// ceiling while the p99 misses `p99_slo_ns` or the shed counter is
    /// still climbing.
    pub fn demand_probe(&self, p99_slo_ns: f64) -> DemandProbe {
        let max_width = self.knee as i64;
        let last_shed = Arc::new(AtomicU64::new(0));
        Arc::new(move |snap, alloc| {
            let pressure = snap
                .value_by_name("serve.p99_window_ns")
                .map(|v| v / p99_slo_ns)
                .unwrap_or(0.0);
            let queue = snap.value_by_name("serve.queue_depth").unwrap_or(0.0);
            let in_flight = snap.value_by_name("serve.in_flight").unwrap_or(0.0);
            let shed = snap.counter("serve.shed").unwrap_or(0);
            let shedding = shed > last_shed.swap(shed, Ordering::Relaxed);
            serve_demand(pressure, queue, in_flight, shedding, max_width, alloc)
        })
    }

    /// The tenant's looking-glass instance (what gets admitted to the
    /// arbiter).
    pub fn lg(&self) -> &Arc<LookingGlass> {
        &self.lg
    }

    /// The tenant's counter registry.
    pub fn counters(&self) -> &Arc<CounterRegistry> {
        &self.counters
    }

    /// The engine's control-round period, ns.
    pub fn control_period_ns(&self) -> u64 {
        self.control_period_ns
    }

    /// Installs the tenant-local brownout: sheds optional work when the
    /// end-to-end window p99 crosses `shed_above_ns`, recovers below
    /// half that. The *thread* side of adaptation belongs to the
    /// arbiter; shedding stays with the tenant because only it knows
    /// which requests are optional.
    pub fn install_brownout(&self, shed_above_ns: f64) {
        let e2e = self
            .lg
            .introspection()
            .metric_id("serve.p99_window_ns")
            .expect("serve gauges bound");
        let shed = self
            .lg
            .knobs()
            .id("serve.shed_level")
            .expect("serve.shed_level is registered");
        self.lg.policy_engine().register_periodic(
            BrownoutPolicy::new(shed, e2e, shed_above_ns, shed_above_ns / 2.0).with_max_level(4),
            self.control_period_ns,
            0,
        );
    }

    /// Runs the arrival stream to completion (see
    /// [`ServeEngine::run`]), invoking `on_round` each control round.
    pub fn run(
        &mut self,
        arrivals: &[crate::serve::Request],
        on_round: impl FnMut(u64),
    ) -> ServeReport {
        self.engine.run(arrivals, on_round)
    }

    /// The engine (for gauges and reports).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }
}

/// A batch-class tenant: a deterministic job stream on a simulated
/// machine slice, stepped in lockstep with the authoritative clock.
pub struct BatchTenant {
    rt: SimRuntime,
    jobs_per_sec: f64,
    job_ops: f64,
    horizon_ns: u64,
    storm: Option<(u64, u64)>,
    calm_bpo: f64,
    storm_bpo: f64,
    next_job: u64,
    /// f64 bits: total ops progressed (partial progress included). Ops
    /// are continuous where job completions are quantized (a storm job
    /// outlives many rounds), so the watchdog's efficiency signal diffs
    /// ops, not jobs.
    ops_done: Arc<AtomicU64>,
    good_jobs: u64,
    power_w: Arc<AtomicU64>,
    backlog: Arc<AtomicU64>,
}

impl BatchTenant {
    /// Builds the tenant on its own machine slice. `spec` should come
    /// from [`lg_sim::MachineShares::sub_spec`] of the colocated host;
    /// jobs are sized to 1 ms of one core's compute. Arrivals are
    /// deterministic (job `k` due at `k / jobs_per_sec`) and stop at
    /// `horizon_ns`.
    ///
    /// The slice runs on its **own** virtual clock, advanced to the
    /// authoritative time by each [`BatchTenant::step`] — the governor
    /// owns the cadence, the tenant only ever catches up to it.
    pub fn new(spec: MachineSpec, jobs_per_sec: f64, horizon_ns: u64) -> Self {
        assert!(jobs_per_sec > 0.0, "batch tenant needs a job rate");
        let job_ops = spec.core_flops * 1e-3;
        let rt = SimRuntime::new(spec);
        let power_w = Arc::new(AtomicU64::new(0f64.to_bits()));
        let pw = power_w.clone();
        rt.lg()
            .introspection()
            .register_gauge("batch.power_w", move || {
                f64::from_bits(pw.load(Ordering::Relaxed))
            });
        let backlog = Arc::new(AtomicU64::new(0));
        let bl = backlog.clone();
        rt.lg()
            .introspection()
            .register_gauge("batch.backlog", move || bl.load(Ordering::Relaxed) as f64);
        Self {
            rt,
            jobs_per_sec,
            job_ops,
            horizon_ns,
            storm: None,
            calm_bpo: 0.25,
            storm_bpo: 100.0,
            next_job: 0,
            ops_done: Arc::new(AtomicU64::new(0f64.to_bits())),
            good_jobs: 0,
            power_w,
            backlog,
        }
    }

    /// Declares a memory-storm window `[start_ns, end_ns)`: jobs
    /// arriving inside it are bandwidth bombs (100 bytes/op — far past
    /// any slice's roofline knee), outside it they are compute-bound
    /// (0.25 bytes/op). During the storm, extra threads add power but
    /// no throughput — the noisy-neighbor signature.
    pub fn with_storm(mut self, start_ns: u64, end_ns: u64) -> Self {
        assert!(start_ns < end_ns, "storm window must be non-empty");
        self.storm = Some((start_ns, end_ns));
        self
    }

    /// The tenant's looking-glass instance.
    pub fn lg(&self) -> &Arc<LookingGlass> {
        self.rt.lg()
    }

    /// Jobs completed while the authoritative clock was still inside the
    /// arrival horizon — the goodput contribution.
    pub fn good_jobs(&self) -> u64 {
        self.good_jobs
    }

    /// Current backlog (queued + in flight).
    pub fn backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Total ops advanced on the slice so far, including partial progress
    /// on in-flight jobs — the continuous signal the watchdog rates.
    pub fn ops_progressed(&self) -> f64 {
        f64::from_bits(self.ops_done.load(Ordering::Relaxed))
    }

    /// Advances the slice to the authoritative time `now_ns`: submits
    /// every job due by then and runs the machine up to the boundary.
    /// Refreshes `batch.power_w` (mean watts over the step) and
    /// `batch.backlog`. Returns the slice's run report.
    pub fn step(&mut self, now_ns: u64) -> SimRunReport {
        loop {
            let due = (self.next_job as f64 / self.jobs_per_sec * 1e9) as u64;
            if due > now_ns || due >= self.horizon_ns {
                break;
            }
            let in_storm = self.storm.is_some_and(|(s, e)| due >= s && due < e);
            let bpo = if in_storm {
                self.storm_bpo
            } else {
                self.calm_bpo
            };
            let name = if in_storm { "storm" } else { "batch" };
            self.rt
                .submit(SimTask::new(name, self.job_ops, self.job_ops * bpo));
            self.next_job += 1;
        }
        let r = self.rt.run_until(now_ns);
        self.ops_done
            .store(self.rt.total_ops_progressed().to_bits(), Ordering::Relaxed);
        if now_ns <= self.horizon_ns {
            self.good_jobs += r.tasks;
        }
        if r.elapsed_ns > 0 {
            let mean_w = r.energy_j / (r.elapsed_ns as f64 * 1e-9);
            self.power_w.store(mean_w.to_bits(), Ordering::Relaxed);
        }
        self.backlog
            .store(self.rt.backlog() as u64, Ordering::Relaxed);
        r
    }

    /// The batch plane's native demand publisher: useful width is the
    /// live backlog (each queued or in-flight job occupies one core)
    /// capped at the slice's core count — an idle batch tenant offers
    /// its share back, a backlogged one claims every core it has.
    pub fn demand_probe(&self) -> DemandProbe {
        let cores = self.rt.spec().cores as f64;
        Arc::new(move |snap, alloc| {
            let backlog = snap.value_by_name("batch.backlog").unwrap_or(0.0);
            DemandProfile::saturating(lg_core::DemandClass::Batch, 0.0, backlog.min(cores), alloc)
        })
    }

    /// Installs the selfish scale-up policy: whenever backlog exceeds
    /// `backlog_threshold` jobs, double the local `thread_cap` (up to
    /// the slice's core count). Healthy when work is compute-bound;
    /// pure power waste during a memory storm — which is exactly the
    /// behaviour the watchdog + arbiter quarantine are there to punish.
    pub fn install_greedy(&self, backlog_threshold: u64, period_ns: u64) {
        let backlog = self.backlog.clone();
        let cap = self.rt.cap_knob().clone();
        let cap_id = self
            .rt
            .lg()
            .knobs()
            .id("thread_cap")
            .expect("the simulator registers thread_cap");
        let max = self.rt.spec().cores as i64;
        self.rt.lg().policy_engine().register_periodic(
            FnPolicy::new("greedy-scale-up", move |_, _, _| {
                let cur = cap.get();
                if backlog.load(Ordering::Relaxed) > backlog_threshold && cur < max {
                    PolicyDecision::set(cap_id, (cur * 2).min(max))
                } else {
                    PolicyDecision::noop()
                }
            }),
            period_ns,
            0,
        );
    }

    /// Installs the tenant's own regression watchdog over **efficiency**
    /// (ops per joule ≈ ops-per-round / mean watts): any actuation
    /// followed by an efficiency collapse of more than `drop_frac` is
    /// rolled back through the journal — and the rollback record is the
    /// arbiter's quarantine signal.
    pub fn install_watchdog(&self, drop_frac: f64, period_ns: u64) {
        let ops = self.ops_done.clone();
        let power = self.power_w.clone();
        let mut last = 0f64;
        let lg = self.rt.lg();
        lg.policy_engine().register_periodic(
            RegressionWatchdog::new(
                lg.knobs().clone(),
                move || {
                    let o = f64::from_bits(ops.load(Ordering::Relaxed));
                    let dops = (o - last).max(0.0);
                    last = o;
                    dops / f64::from_bits(power.load(Ordering::Relaxed)).max(1.0)
                },
                drop_frac,
            )
            .with_ignored_actor("arbiter"),
            period_ns,
            0,
        );
    }
}

/// A DAG-draining tenant: a [`crate::dag::DagSpec`] executed on its own
/// machine slice, critical-path-first, in lockstep with the
/// authoritative clock. The arbiter governs its `thread_cap` knob; the
/// tenant publishes its demand from live [`DagStats`] — wide frontier ⇒
/// claim threads, critical-path tail ⇒ release them.
pub struct DagTenant {
    rt: SimRuntime,
    spec: crate::dag::DagSpec,
    /// The pattern's name, interned once: every node is of this type.
    task: TaskId,
    stats: Arc<DagStats>,
    /// Unmet-dependency count per node.
    remaining: Vec<u32>,
    /// Released (deps met) but not yet submitted nodes.
    ready: Vec<usize>,
    in_flight: usize,
    completed: usize,
    finish_ns: Option<u64>,
}

impl DagTenant {
    /// Builds the tenant on its own slice. The `dag.*` gauges are
    /// registered on the slice's introspection, so the tenant's own
    /// policies (and the governor's snapshot mirror) see the frontier.
    pub fn new(machine: MachineSpec, spec: crate::dag::DagSpec) -> Self {
        let rt = SimRuntime::new(machine);
        let task = rt.lg().intern(spec.config.pattern.name());
        let stats = DagStats::new();
        stats.register_on(rt.lg().introspection());
        let n = spec.nodes();
        let remaining: Vec<u32> = (0..n)
            .map(|i| spec.pred_off[i + 1] - spec.pred_off[i])
            .collect();
        let mut ready = Vec::new();
        for (i, &r) in remaining.iter().enumerate() {
            if r == 0 {
                ready.push(i);
                stats.on_release(spec.height_ns[i]);
            }
        }
        Self {
            rt,
            spec,
            task,
            stats,
            remaining,
            ready,
            in_flight: 0,
            completed: 0,
            finish_ns: None,
        }
    }

    /// The tenant's looking-glass instance (carries the `thread_cap`
    /// knob the arbiter writes and the `dag.*` gauges).
    pub fn lg(&self) -> &Arc<LookingGlass> {
        self.rt.lg()
    }

    /// The live frontier statistics.
    pub fn stats(&self) -> &Arc<DagStats> {
        &self.stats
    }

    /// Nodes whose bodies have finished.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// True once every node has completed.
    pub fn done(&self) -> bool {
        self.completed == self.spec.nodes()
    }

    /// Virtual completion time of the last node, once [`Self::done`].
    pub fn makespan_ns(&self) -> Option<u64> {
        self.finish_ns
    }

    /// The DAG plane's native demand publisher, straight from
    /// [`DagStats::demand_profile`]: threads beyond the ready frontier
    /// have zero marginal utility.
    pub fn demand_probe(&self) -> DemandProbe {
        let stats = self.stats.clone();
        Arc::new(move |_snap, alloc| stats.demand_profile(alloc))
    }

    /// Advances the slice to the authoritative time `now_ns`,
    /// interleaving submission and successor release at event
    /// resolution: ready nodes are submitted critical-path-first while
    /// the governed `thread_cap` has room, and each completion releases
    /// its successors at the exact completion instant — so a thread
    /// granted mid-round is put to work mid-round, and the frontier
    /// gauges are honest at every event.
    pub fn step(&mut self, now_ns: u64) {
        loop {
            let cap = (self.rt.cap_knob().get().max(1) as usize).min(self.rt.spec().cores);
            while self.in_flight < cap && !self.ready.is_empty() {
                let pick = self
                    .ready
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &node)| self.spec.height_ns[node])
                    .map_or(0, |(idx, _)| idx);
                let node = self.ready.swap_remove(pick);
                self.rt.submit_interned(
                    self.task,
                    self.spec.ops[node],
                    self.spec.bytes[node],
                    node as u64,
                );
                self.in_flight += 1;
            }
            let event = self.rt.run_until_event(now_ns);
            for (tag, t_ns) in self.rt.take_completions() {
                let node = tag as usize;
                self.completed += 1;
                self.in_flight -= 1;
                self.stats.on_complete(self.spec.height_ns[node]);
                for &s in self.spec.succs_of(node) {
                    self.remaining[s as usize] -= 1;
                    if self.remaining[s as usize] == 0 {
                        self.ready.push(s as usize);
                        self.stats.on_release(self.spec.height_ns[s as usize]);
                    }
                }
                if self.completed == self.spec.nodes() {
                    self.finish_ns = Some(t_ns);
                }
            }
            if !event {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_core::Clock;
    use lg_sim::MachineShares;

    fn slice(threads: usize) -> MachineSpec {
        MachineShares::new(MachineSpec::server32()).sub_spec(threads)
    }

    #[test]
    fn batch_tenant_keeps_up_with_feasible_load() {
        // 8 cores × 1k jobs/s-per-core capacity against 4k jobs/s.
        let mut t = BatchTenant::new(slice(8), 4_000.0, 100_000_000);
        for k in 1..=20u64 {
            t.step(k * 5_000_000);
        }
        // 100 ms × 4k/s = 400 jobs, minus at most a step of slack; every
        // step is inside the horizon, so each finished job is a good one.
        assert!(t.good_jobs() >= 380, "done {}", t.good_jobs());
        assert!(t.backlog() < 30, "backlog {}", t.backlog());
        assert_eq!(t.lg().clock().now_ns(), 100_000_000);
    }

    #[test]
    fn storm_jobs_stall_and_build_backlog() {
        let mut t = BatchTenant::new(slice(8), 4_000.0, 100_000_000).with_storm(0, 100_000_000);
        for k in 1..=10u64 {
            t.step(k * 10_000_000);
        }
        // Bandwidth-bound: the slice's knee for 100 B/op sits far below
        // one core, so almost nothing completes.
        assert!(t.good_jobs() < 40, "done {}", t.good_jobs());
        assert!(t.backlog() > 300, "backlog {}", t.backlog());
    }

    #[test]
    fn power_gauge_tracks_mean_watts() {
        let mut t = BatchTenant::new(slice(16), 8_000.0, 1_000_000_000);
        t.step(50_000_000);
        let w = t.lg().snapshot().value_by_name("batch.power_w").unwrap();
        // Slice idle power is 12.5 W; 16 busy cores add up to 72 W.
        assert!(w > 12.0 && w < 90.0, "mean power {w}");
    }

    #[test]
    fn greedy_grows_cap_and_watchdog_rolls_it_back_in_storm() {
        let mut t =
            BatchTenant::new(slice(16), 8_000.0, 1_000_000_000).with_storm(0, 1_000_000_000);
        let knobs = t.lg().knobs();
        knobs.set_id(knobs.id("thread_cap").unwrap(), 4);
        t.install_greedy(100, 10_000_000);
        t.install_watchdog(0.25, 10_000_000);
        let mut rolled_back = false;
        for k in 1..=40u64 {
            let now = k * 10_000_000;
            t.step(now);
            t.lg().policy_engine().step(now);
            rolled_back |= t
                .lg()
                .knobs()
                .journal()
                .records()
                .iter()
                .any(|r| r.rolled_back);
        }
        let grabbed = t
            .lg()
            .knobs()
            .journal()
            .records()
            .iter()
            .any(|r| r.policy == "greedy-scale-up");
        assert!(grabbed, "greedy policy never fired");
        assert!(rolled_back, "watchdog never rolled the grab back");
    }

    #[test]
    fn serve_tenant_exposes_arbitrable_knob_and_pressure() {
        let clock = Arc::new(VirtualClock::new());
        let t = ServeTenant::new(clock, 32, 7);
        let knobs = t.lg().knobs();
        let limit = knobs.id("serve.bulkhead_limit").unwrap();
        assert_eq!(knobs.value_id(limit), Some(32));
        assert!(t
            .lg()
            .introspection()
            .metric_id("serve.p99_window_ns")
            .is_some());
    }

    #[test]
    fn serve_probe_publishes_width_from_live_gauges() {
        let clock = Arc::new(VirtualClock::new());
        let t = ServeTenant::new(clock, 32, 7);
        let probe = t.demand_probe(25e6);
        let snap = t.lg().introspection().capture(0);
        let d = probe(&snap, 8);
        // Idle pipeline: nothing in flight, nothing queued, no shed —
        // the plane offers its threads back.
        assert_eq!(d.class, lg_core::DemandClass::Serve);
        assert_eq!(d.useful_width, Some(0.0));
        assert!(d.pressure < 1.0);
    }

    #[test]
    fn batch_probe_width_follows_backlog() {
        let mut t = BatchTenant::new(slice(8), 4_000.0, 100_000_000).with_storm(0, 100_000_000);
        let probe = t.demand_probe();
        for k in 1..=10u64 {
            t.step(k * 10_000_000);
        }
        // Storm backlog far exceeds the slice: width pins to the cores.
        let snap = t.lg().introspection().capture(100_000_000);
        let d = probe(&snap, 4);
        assert_eq!(d.useful_width, Some(8.0));
        assert_eq!(d.utility_up, 1.0);
    }

    fn sweep_dag(width: usize, depth: usize) -> crate::dag::DagSpec {
        let cfg = crate::dag::DagConfig {
            pattern: crate::dag::DagPattern::Sweep,
            width,
            depth,
            seed: 11,
            ..Default::default()
        };
        crate::dag::generate(&cfg, &crate::dag::CostModel::default())
    }

    #[test]
    fn dag_tenant_drains_in_lockstep_and_reports_makespan() {
        let mut t = DagTenant::new(slice(8), sweep_dag(8, 12));
        assert!(!t.done());
        let mut now = 0u64;
        while !t.done() {
            now += 1_000_000;
            t.step(now);
            assert!(t.lg().clock().now_ns() <= now);
        }
        let makespan = t.makespan_ns().unwrap();
        assert!(makespan > 0 && makespan <= now);
        assert_eq!(t.completed(), t.spec.nodes());
        // Frontier fully drained: the stats agree.
        assert_eq!(t.stats().ready_width(), 0.0);
        assert_eq!(t.stats().critical_path_ns(), 0.0);
    }

    #[test]
    fn dag_probe_claims_wide_then_releases_in_tail() {
        // Sweep contracts toward a single chain: wide at the top, width
        // 1 in the tail.
        let mut t = DagTenant::new(slice(8), sweep_dag(16, 16));
        let probe = t.demand_probe();
        let snap = t.lg().introspection().capture(0);
        let early = probe(&snap, 2);
        assert!(early.useful_width.unwrap() >= 8.0, "{early:?}");
        assert_eq!(early.utility_up, 1.0);
        // Drain almost everything: the tail is the critical chain.
        let mut now = 0u64;
        while !t.done() {
            now += 1_000_000;
            t.step(now);
        }
        let late = probe(&snap, 2);
        assert_eq!(late.useful_width, Some(0.0));
        assert_eq!(late.utility_up, 0.0);
    }
}
