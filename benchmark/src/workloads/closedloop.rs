//! `closedloop` — the control plane alone, on one thread, in virtual time.
//!
//! 64 full `LookingGlass` tenants are admitted under one `Arbiter`, each
//! with a `with_demand_probe` profile and one `register_threshold` policy
//! (armed `counter_delta` watch → `PolicyDecision::set(KnobId, …)`).
//! Each cycle:
//!
//! 1. 8 rotating tenants emit 2 timer pairs and a counter add, so
//!    captures are "light", never idle;
//! 2. one rotating tenant's watched counter is pushed over its threshold
//!    (**t0**);
//! 3. that tenant's `policy_engine().step()` runs;
//! 4. the journal record and the new value in that tenant's next
//!    `snapshot()` are verified (**t1**);
//! 5. `arb.control_round()` runs and its budget invariant is checked.
//!
//! Snapshot capture, watch scan, knob write, journal append and the
//! `arbitrate` kernel are the whole cost; `lg-runtime` does nothing.
//!
//! Op = one cycle. Latency sample = t1 − t0: the paper's adaptation
//! latency (signal crossing → journaled knob write → effect visible in
//! the next snapshot).

use super::{splitmix, OpOutcome, Workload};
use crate::trace::{clock_ns, Layer, Site, Tracing};
use lg_core::arbiter::replay_final_values;
use lg_core::{
    Arbiter, ArbiterConfig, AtomicKnob, Clock, DemandClass, DemandProfile, FnPolicy, KnobId,
    KnobSpec, LookingGlass, MetricId, PolicyDecision, SloClass, TaskId, TenantSpec, ThresholdWatch,
    VirtualClock,
};
use lg_metrics::{CounterHandle, CounterRegistry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub const TENANTS: usize = 64;
/// Tenants that do light work each cycle.
pub const ACTIVE: usize = 8;
/// Virtual time per cycle.
const PERIOD_NS: u64 = 10_000_000;
/// Counter advance that fires a tenant's watch.
const THRESHOLD: u64 = 1_000;
const MAX_THREADS: i64 = 8;
const WARMUP_CYCLES: usize = 2_000;

static CYCLE: Site = Site {
    name: "closedloop.cycle",
    layer: Layer::Bench,
};
static TIMERS: Site = Site {
    name: "core.timer",
    layer: Layer::Core,
};
static COUNTER_ADDS: Site = Site {
    name: "metrics.counter_add",
    layer: Layer::Metrics,
};
pub static DETECT: Site = Site {
    name: "core.adapt_detect",
    layer: Layer::Core,
};
pub static DECIDE: Site = Site {
    name: "core.adapt_decide",
    layer: Layer::Core,
};
pub static VISIBLE: Site = Site {
    name: "core.adapt_visible",
    layer: Layer::Core,
};
pub static ROUND: Site = Site {
    name: "core.arbiter_round",
    layer: Layer::Core,
};
pub static BUILD: Site = Site {
    name: "core.instance_build",
    layer: Layer::Core,
};
static ADMIT: Site = Site {
    name: "core.arbiter_admit",
    layer: Layer::Core,
};

/// Where a fleet's admits and rounds are recorded. The workload uses
/// [`FleetSites::WORKLOAD`]; the tenant-count sweep gives each fleet
/// size its own pair so the sizes stay apart in the trace.
#[derive(Clone, Copy)]
pub struct FleetSites {
    pub admit: &'static Site,
    pub round: &'static Site,
}

impl FleetSites {
    pub const WORKLOAD: FleetSites = FleetSites {
        admit: &ADMIT,
        round: &ROUND,
    };
}

struct Tenant {
    lg: Arc<LookingGlass>,
    work: CounterHandle,
    signal: CounterHandle,
    /// The knob the tenant's own policy writes, as the journal names it.
    gain_name: TaskId,
    gain_metric: MetricId,
    /// Firings so far = the value the knob must hold.
    expected_gain: i64,
    /// Journal length when the tenant's last record was checked.
    journal_seen: u64,
}

/// N tenants under one arbiter, plus what a cycle needs to drive them.
pub struct Fleet {
    clock: Arc<VirtualClock>,
    arb: Arc<Arbiter>,
    tenants: Vec<Tenant>,
    /// Seeded visiting order: which tenants are active, which one fires.
    order: Vec<usize>,
    budget: i64,
    cycle: u64,
    /// Set while a traced op runs: the policy closure stamps its entry.
    probe: Arc<AtomicBool>,
    entered_ns: Arc<AtomicU64>,
    /// Arbiter knob writes over all rounds (for `arbiter_writes_per_round`).
    pub knob_writes: u64,
    pub rounds: u64,
    sites: FleetSites,
    /// Damages the expected value the checks compare against.
    corrupt: bool,
}

impl Fleet {
    /// Builds and admits `n` tenants. Tracing spans each instance build
    /// and each `admit` so the probes can report the per-tenant cost.
    pub fn build<T: Tracing>(n: usize, seed: u64, sites: FleetSites, tr: &mut T) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let gov = LookingGlass::builder().clock(clock.clone()).build();
        // Half the fleet's aggregate ceiling: demand is always contended.
        let budget = 4 * n as i64;
        let arb = Arbiter::with_instance(ArbiterConfig::new(budget), gov);
        let probe = Arc::new(AtomicBool::new(false));
        let entered_ns = Arc::new(AtomicU64::new(0));
        let mut tenants = Vec::with_capacity(n);
        for i in 0..n {
            let span = tr.begin(&BUILD, i as u64);
            let lg = LookingGlass::builder().clock(clock.clone()).build();
            tr.end(span, 1);
            lg.knobs().register(AtomicKnob::new(
                KnobSpec::new("thread_cap", 1, MAX_THREADS).with_unit("workers"),
                MAX_THREADS,
            ));
            let gain_knob = AtomicKnob::new(KnobSpec::new("gain", 0, 1 << 40), 0);
            let gain: KnobId = lg.knobs().register(gain_knob.clone());
            let counters = Arc::new(CounterRegistry::new());
            lg.introspection().register_counters(counters.clone());
            let work = counters.counter("work");
            let signal = counters.counter("signal");
            // The knob's effect, as a snapshot shows it.
            let gain_metric = {
                use lg_core::Knob as _;
                lg.introspection()
                    .register_gauge("gain", move || gain_knob.get() as f64)
            };
            let (probe_c, entered_c) = (probe.clone(), entered_ns.clone());
            lg.policy_engine().register_threshold(
                FnPolicy::new("react", move |_, _, snap| {
                    if probe_c.load(Ordering::Relaxed) {
                        entered_c.store(clock_ns(), Ordering::Relaxed);
                    }
                    let crossings = snap.counter("signal").unwrap_or(0) / THRESHOLD;
                    PolicyDecision::set(gain, crossings as i64)
                }),
                ThresholdWatch::counter_delta_armed(&signal, THRESHOLD),
            );
            // Demand follows the adapted knob, so each adaptation reaches
            // the arbiter as a changed useful width.
            let spec = TenantSpec::new(format!("t{i}"), SloClass::Batch, MAX_THREADS)
                .with_min_threads(1)
                .with_demand_probe(move |snap, alloc| {
                    let gain = snap.value(gain_metric).unwrap_or(0.0) as i64;
                    let width = 2.0 + ((gain + i as i64) % 5) as f64;
                    DemandProfile::saturating(DemandClass::Batch, 0.0, width, alloc)
                });
            let span = tr.begin(sites.admit, i as u64);
            arb.admit(lg.clone(), spec, "thread_cap");
            tr.end(span, 1);
            let journal = lg.knobs().journal();
            tenants.push(Tenant {
                gain_name: journal.intern("gain"),
                journal_seen: journal.total_recorded(),
                lg,
                work,
                signal,
                gain_metric,
                expected_gain: 0,
            });
        }
        // Fisher–Yates with the run's seed.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (splitmix(seed ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Self {
            clock,
            arb,
            tenants,
            order,
            budget,
            cycle: 0,
            probe,
            entered_ns,
            knob_writes: 0,
            rounds: 0,
            sites,
            corrupt: false,
        }
    }

    pub fn set_observed(&self, on: bool) {
        self.arb.lg().dispatcher().set_enabled(on);
        for t in &self.tenants {
            t.lg.dispatcher().set_enabled(on);
        }
    }

    /// Step 1: `ACTIVE` rotating tenants do light work.
    fn light_activity<T: Tracing>(&self, tr: &mut T, op_id: u64) {
        let n = self.tenants.len();
        let active = ACTIVE.min(n);
        let base = self.cycle as usize * active;
        let span = tr.begin(&TIMERS, op_id);
        for k in 0..active {
            let lg = &self.tenants[self.order[(base + k) % n]].lg;
            drop(lg.timer("work_a"));
            drop(lg.timer("work_b"));
        }
        tr.end(span, 2 * active as u32);
        let span = tr.begin(&COUNTER_ADDS, op_id);
        for k in 0..active {
            self.tenants[self.order[(base + k) % n]].work.add(1);
        }
        tr.end(span, active as u32);
    }

    /// Steps 2–4: signal → step → verify. Returns `(ok, t1 − t0)`.
    fn adapt<T: Tracing>(&mut self, tr: &mut T, op_id: u64, now_ns: u64) -> (bool, u64) {
        let n = self.tenants.len();
        // A stride coprime to any fleet size used here, so the firing
        // tenant is rarely one of the active ones.
        let target = self.order[(self.cycle as usize * 7 + 3) % n];
        self.probe.store(T::ON, Ordering::Relaxed);
        let t = &mut self.tenants[target];
        t.expected_gain += 1;
        let expected = t.expected_gain + i64::from(self.corrupt);

        // One timebase for the latency sample and the spans, so tracing
        // adds two clock reads to the path (closure entry, `step`'s
        // return) and nothing at its ends.
        let t0_ns = clock_ns();
        t.signal.add(THRESHOLD);
        let evaluations = t.lg.policy_engine().step(now_ns);
        let stepped_ns = tr.now_ns();
        let journal = t.lg.knobs().journal();
        let journaled = journal
            .latest_for_id(t.gain_name)
            .is_some_and(|r| r.seq > t.journal_seen && r.from == expected - 1 && r.to == expected);
        let visible = t.lg.snapshot().value(t.gain_metric) == Some(expected as f64);
        let t1_ns = clock_ns();
        let latency_ns = t1_ns - t0_ns;

        t.journal_seen = journal.total_recorded();
        if T::ON {
            let entered = self.entered_ns.load(Ordering::Relaxed);
            tr.record(&DETECT, op_id, t0_ns, entered, 1);
            tr.record(&DECIDE, op_id, entered, stepped_ns, 1);
            tr.record(&VISIBLE, op_id, stepped_ns, t1_ns, 1);
        }
        (evaluations == 1 && journaled && visible, latency_ns)
    }

    /// One full cycle. Returns `(ok, adaptation latency ns)`.
    pub fn cycle<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> (bool, u64) {
        self.cycle += 1;
        self.clock.advance_by(PERIOD_NS);
        let now_ns = self.clock.now_ns();
        self.light_activity(tr, op_id);
        let (adapted, latency_ns) = self.adapt(tr, op_id, now_ns);
        let span = tr.begin(self.sites.round, op_id);
        let report = self.arb.control_round(now_ns);
        tr.end(span, 1);
        self.knob_writes += report.knob_writes as u64;
        self.rounds += 1;
        (adapted && report.total_allocated <= self.budget, latency_ns)
    }

    /// A round with light activity only (the arbiter tenant-count sweep).
    pub fn light_round<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> bool {
        self.cycle += 1;
        self.clock.advance_by(PERIOD_NS);
        self.light_activity(tr, op_id);
        let span = tr.begin(self.sites.round, op_id);
        let report = self.arb.control_round(self.clock.now_ns());
        tr.end(span, 1);
        report.total_allocated <= self.budget
    }

    /// End-of-run check: replaying each tenant's journal reproduces its
    /// live knob state. Returns `(tenants checked, tenants that differ)`.
    pub fn replay_check(&self) -> (u64, u64) {
        let differ = self
            .tenants
            .iter()
            .filter(|t| {
                let knobs = t.lg.knobs();
                replay_final_values(knobs.journal())
                    .iter()
                    .any(|(name, v)| knobs.id(name).and_then(|id| knobs.value_id(id)) != Some(*v))
            })
            .count();
        (self.tenants.len() as u64, differ as u64)
    }
}

pub struct ClosedLoop {
    pub fleet: Fleet,
}

impl Workload for ClosedLoop {
    const NAME: &'static str = "closedloop";

    fn setup(seed: u64, _nproc: usize, corrupt: bool) -> Self {
        let mut tr = crate::trace::NoTrace;
        let mut fleet = Fleet::build(TENANTS, seed, FleetSites::WORKLOAD, &mut tr);
        for i in 0..WARMUP_CYCLES {
            fleet.cycle(&mut tr, i as u64);
        }
        fleet.corrupt = corrupt;
        Self { fleet }
    }

    fn set_observed(&mut self, on: bool) {
        self.fleet.set_observed(on);
    }

    fn op<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> OpOutcome {
        let root = tr.begin(&CYCLE, op_id);
        let (ok, latency_ns) = self.fleet.cycle(tr, op_id);
        tr.end(root, 1);
        OpOutcome {
            ops: 1,
            failed: u64::from(!ok),
            latency_ns,
        }
    }

    fn finish(&mut self) -> (u64, u64) {
        self.fleet.replay_check()
    }
}
