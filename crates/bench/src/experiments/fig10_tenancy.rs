//! Figure 10 — multi-tenancy: static machine partitions vs the arbiter,
//! across load mixes and through a noisy-neighbor storm.
//!
//! Two full looking-glass tenants share one 32-thread machine: a
//! latency-SLO serving tenant (its bulkhead limit is the arbitrated
//! thread knob — one concurrency slot per worker) and a batch tenant on
//! a simulated machine slice ([`lg_sim::MachineShares`]), stepped in
//! lockstep with the serving clock via
//! [`lg_sim::SimRuntime::run_until`]. The comparison:
//!
//! * **static-S** — a fixed partition: S bulkhead slots for serve,
//!   `32 − S` cores for batch, no governor. Each partition wins at the
//!   mix it was sized for and loses elsewhere.
//! * **adaptive** — the [`lg_core::Arbiter`] re-splits the machine every
//!   control round: weighted fair share, latency-over-batch preemption
//!   when the serve window p99 crosses its SLO, a machine power
//!   envelope over the batch slice's `batch.power_w` gauge, and
//!   noisy-neighbor quarantine keyed on the tenant's own watchdog
//!   rollbacks.
//!
//! `LG_CHAOS=1` adds the noisy-neighbor storm: mid-run the batch
//! arrivals turn into bandwidth bombs and a selfish tenant-local policy
//! (`greedy-scale-up`) doubles the batch thread cap on backlog. The
//! grab adds power but no throughput; the batch tenant's efficiency
//! watchdog rolls it back, the rollback record lands the tenant in
//! quarantine, and the arbiter re-asserts its floor every round while
//! the envelope recovers. `adaptive-noq` runs the same storm with the
//! watchdog and quarantine disabled — the degradation the governor is
//! preventing.
//!
//! The **mixed serve+DAG matrix** ([`simulate_mixed`]) colocates the
//! serving tenant with a [`DagTenant`] draining a wide stencil DAG and
//! compares the two governor signal paths end to end:
//!
//! * **pressure-only** — both tenants publish the legacy scalar
//!   ([`TenantSpec::with_pressure`] for serve, nothing for the DAG), so
//!   the arbiter falls back to weighted fair share plus latency
//!   preemption. Off-spike, serve sits on a fair half of the machine it
//!   cannot use.
//! * **demand-aware** — each plane publishes its native
//!   [`lg_core::DemandProfile`]: serve declares a useful width from
//!   live queue depth and shed rate, the DAG declares its ready
//!   frontier. The utility-aware water-fill re-shares serve's unused
//!   width to the DAG while its frontier is wide and hands the threads
//!   back as the critical-path tail sets in.
//!
//! Deterministic: both tenants run in virtual time from seeded RNGs, so
//! a `(mix, policy, storm, seed)` tuple replays bit-for-bit.

use crate::report::{fmt_f, write_table, Table};
use lg_core::{Arbiter, ArbiterConfig, Clock, RoundReport, SloClass, TenantSpec, VirtualClock};
use lg_sim::{MachineShares, MachineSpec};
use lg_workloads::dag::{generate, CostModel, DagConfig, DagPattern};
use lg_workloads::serve::{ArrivalGen, ArrivalPattern, ServeReport};
use lg_workloads::{BatchTenant, DagTenant, ServeTenant};
use std::io::{self, Write};
use std::sync::Arc;

/// How the machine is split between the tenants.
#[derive(Clone, Copy, Debug)]
pub enum TenancyPolicy {
    /// Fixed partition: this many serve threads, the rest to batch.
    Static(i64),
    /// The arbiter governs the split every control round.
    Adaptive,
    /// Arbiter without the watchdog/quarantine chain — the
    /// noisy-neighbor baseline.
    AdaptiveNoQuarantine,
}

impl TenancyPolicy {
    fn label(&self) -> String {
        match self {
            TenancyPolicy::Static(s) => format!("static-{s}"),
            TenancyPolicy::Adaptive => "adaptive".into(),
            TenancyPolicy::AdaptiveNoQuarantine => "adaptive-noq".into(),
        }
    }
}

/// Whether the batch tenant misbehaves mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storm {
    /// Calm batch arrivals throughout.
    Nominal,
    /// Memory-storm arrivals across `[horizon/4, horizon/2)` plus the
    /// greedy scale-up policy on the batch tenant.
    Chaos,
}

/// A load mix: serve requests/s (spiking 2× mid-run) and batch jobs/s.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Base serving load, requests/s.
    pub serve_rps: f64,
    /// Batch job arrival rate, jobs/s (1 ms of one core each).
    pub batch_jps: f64,
}

/// Result of one (mix, policy, storm) run.
#[derive(Clone, Debug)]
pub struct TenancyResult {
    /// Policy label.
    pub policy: String,
    /// Aggregate goodput, 1 ms-core work units per second: in-deadline
    /// serve responses plus batch jobs completed within the horizon,
    /// over the horizon.
    pub aggregate_per_sec: f64,
    /// Serve tenant: fraction of offered requests served in deadline.
    pub serve_goodput_frac: f64,
    /// Serve tenant: end-to-end p99, ms.
    pub serve_p99_ms: f64,
    /// Batch tenant: jobs completed within the horizon.
    pub batch_good_jobs: u64,
    /// Times any tenant entered quarantine (0 without an arbiter).
    pub quarantine_entries: u64,
    /// Largest Σ allocations the arbiter ever granted in one round.
    pub max_total_allocated: i64,
    /// Arbiter control rounds run (0 for statics).
    pub rounds: u64,
    /// Full serving report (for invariants).
    pub serve: ServeReport,
}

impl PartialEq for TenancyResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.aggregate_per_sec == other.aggregate_per_sec
            && self.serve_goodput_frac == other.serve_goodput_frac
            && self.serve_p99_ms == other.serve_p99_ms
            && self.batch_good_jobs == other.batch_good_jobs
            && self.quarantine_entries == other.quarantine_entries
            && self.max_total_allocated == other.max_total_allocated
            && self.rounds == other.rounds
            && self.serve == other.serve
    }
}

const TOTAL_THREADS: i64 = 32;
/// Serve knee and ceiling: the whole machine could serve if granted.
const SERVE_KNEE: usize = 32;
/// Batch ceiling — its machine slice's core count.
const BATCH_MAX: usize = 28;
const SERVE_MIN: i64 = 2;
const BATCH_MIN: i64 = 2;
/// Serve pressure threshold: the optional-deadline budget. Window p99
/// beyond this flags the tenant as under pressure.
const PRESSURE_P99_NS: f64 = 25e6;
/// Machine power envelope, W. Calm batch work draws well under this;
/// a storm-time greedy grab (every core burning at the stall floor)
/// pushes past it and the arbiter shrinks the machine budget.
const POWER_CAP_W: f64 = 130.0;
const QUARANTINE_ROUNDS: u64 = 8;
/// Greedy fires when batch backlog exceeds ~2 control rounds of
/// arrivals at the heaviest mix.
const GREEDY_BACKLOG: u64 = 250;
/// Efficiency (ops/J) collapse that convicts an actuation.
const WATCHDOG_DROP_FRAC: f64 = 0.25;

fn arrivals(base_per_sec: f64, horizon_ns: u64, seed: u64) -> Vec<lg_workloads::serve::Request> {
    ArrivalGen {
        pattern: ArrivalPattern::Spike {
            base_per_sec,
            factor: 2.0,
            start_ns: horizon_ns / 4,
            end_ns: horizon_ns / 2,
        },
        seed,
        optional_frac: 0.3,
        service_mean_ns: 1_000_000,
        mandatory_budget_ns: 50_000_000,
        optional_budget_ns: 25_000_000,
        dests: 4,
    }
    .generate(horizon_ns)
}

/// The batch tenant's machine slice: `BATCH_MAX` cores of a 32-core
/// host whose stall floor is raised to 1.0 — its kernels spin/prefetch
/// through stalls, so a bandwidth-bound core still burns full dynamic
/// power. That is what makes a storm-time thread grab pure waste.
fn batch_slice() -> MachineSpec {
    let host = MachineSpec {
        stall_intensity: 1.0,
        ..MachineSpec::server32()
    };
    MachineShares::new(host).sub_spec(BATCH_MAX)
}

/// Simulates one (mix, policy, storm) run over `horizon_ns`.
pub fn simulate(
    mix: Mix,
    horizon_ns: u64,
    policy: TenancyPolicy,
    storm: Storm,
    seed: u64,
) -> TenancyResult {
    let requests = arrivals(mix.serve_rps, horizon_ns, seed);
    let clock = Arc::new(VirtualClock::new());
    let mut serve = ServeTenant::new(clock.clone(), SERVE_KNEE, seed);
    let mut batch = BatchTenant::new(batch_slice(), mix.batch_jps, horizon_ns);
    if storm == Storm::Chaos {
        batch = batch.with_storm(horizon_ns / 4, horizon_ns / 2);
    }
    let control_period = serve.control_period_ns();

    let arbiter = match policy {
        TenancyPolicy::Static(serve_threads) => {
            // Fixed partition, no governor: pin both knobs and go.
            for (lg, knob, value) in [
                (serve.lg(), "serve.bulkhead_limit", serve_threads),
                (batch.lg(), "thread_cap", TOTAL_THREADS - serve_threads),
            ] {
                let id = lg
                    .knobs()
                    .id(knob)
                    .unwrap_or_else(|| panic!("{knob} is registered"));
                lg.knobs().set_id(id, value);
            }
            None
        }
        TenancyPolicy::Adaptive | TenancyPolicy::AdaptiveNoQuarantine => {
            let quarantine = match policy {
                TenancyPolicy::Adaptive => QUARANTINE_ROUNDS,
                _ => 0,
            };
            serve.install_brownout(2.0 * PRESSURE_P99_NS);
            if storm == Storm::Chaos {
                batch.install_greedy(GREEDY_BACKLOG, control_period);
                if matches!(policy, TenancyPolicy::Adaptive) {
                    batch.install_watchdog(WATCHDOG_DROP_FRAC, control_period);
                }
            }
            let arb = Arbiter::with_instance(
                ArbiterConfig::new(TOTAL_THREADS)
                    .with_power_cap_w(POWER_CAP_W)
                    .with_quarantine_rounds(quarantine),
                lg_core::LookingGlass::builder()
                    .clock(clock.clone())
                    .build(),
            );
            arb.admit(
                serve.lg().clone(),
                TenantSpec::new("serve", SloClass::Latency, SERVE_KNEE as i64)
                    .with_min_threads(SERVE_MIN)
                    .with_pressure("serve.p99_window_ns", PRESSURE_P99_NS),
                "serve.bulkhead_limit",
            );
            arb.admit(
                batch.lg().clone(),
                TenantSpec::new("batch", SloClass::Batch, BATCH_MAX as i64)
                    .with_min_threads(BATCH_MIN)
                    .with_power_metric("batch.power_w"),
                "thread_cap",
            );
            Some(arb)
        }
    };

    let mut rounds: Vec<RoundReport> = Vec::new();
    let serve_report = serve.run(&requests, |t| {
        clock.advance_to(t);
        batch.step(t);
        if let Some(arb) = &arbiter {
            rounds.push(arb.control_round(t));
        }
    });

    let horizon_s = horizon_ns as f64 / 1e9;
    let aggregate_per_sec = (serve_report.goodput + batch.good_jobs()) as f64 / horizon_s;
    TenancyResult {
        policy: policy.label(),
        aggregate_per_sec,
        serve_goodput_frac: serve_report.goodput_frac(),
        serve_p99_ms: serve_report.p99_latency_ns as f64 / 1e6,
        batch_good_jobs: batch.good_jobs(),
        quarantine_entries: arbiter.as_ref().map_or(0, |a| a.quarantine_entries()),
        max_total_allocated: rounds.iter().map(|r| r.total_allocated).max().unwrap_or(0),
        rounds: rounds.len() as u64,
        serve: serve_report,
    }
}

/// Governor signal path for the mixed serve+DAG comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalMode {
    /// Legacy scalar path: serve publishes `with_pressure`, the DAG
    /// tenant publishes nothing — fair share plus latency preemption.
    PressureOnly,
    /// Native profiles: serve and DAG each install a demand probe, and
    /// the utility-aware water-fill follows the declared widths.
    DemandAware,
}

impl SignalMode {
    fn label(&self) -> &'static str {
        match self {
            SignalMode::PressureOnly => "pressure-only",
            SignalMode::DemandAware => "demand-aware",
        }
    }
}

/// DAG tenant floor and ceiling in the mixed scenario.
const DAG_MIN: i64 = 2;
const DAG_MAX: usize = 28;
/// Mixed-scenario serving load, requests/s (spikes 2× mid-run): light
/// enough that serve's useful width is well under its fair share
/// off-spike — the headroom the demand-aware governor re-shares.
const MIXED_SERVE_RPS: f64 = 4_000.0;

/// Result of one mixed serve+DAG run.
#[derive(Clone, Debug, PartialEq)]
pub struct MixedResult {
    /// Signal-path label.
    pub signal: String,
    /// DAG drain time (virtual ns of the last completion), ms.
    pub dag_makespan_ms: f64,
    /// Serve tenant: fraction of offered requests served in deadline.
    pub serve_goodput_frac: f64,
    /// Serve tenant: end-to-end p99, ms.
    pub serve_p99_ms: f64,
    /// Largest thread grant the DAG tenant ever held.
    pub peak_dag_threads: i64,
    /// DAG tenant's grant on the final control round — after the tail,
    /// a demand-aware governor has taken the frontier's threads back.
    pub tail_dag_threads: i64,
    /// Σ allocations ≤ budget at *every* round (the invariant gate).
    pub budget_ok: bool,
    /// Largest Σ allocations the arbiter ever granted in one round.
    pub max_total_allocated: i64,
    /// Arbiter control rounds run.
    pub rounds: u64,
}

/// The DAG tenant's machine slice (plain cores — the DAG story is
/// thread re-sharing, not power).
fn dag_slice() -> MachineSpec {
    MachineShares::new(MachineSpec::server32()).sub_spec(DAG_MAX)
}

/// The mixed scenario's DAG: a wide 1-D stencil with heavy-tailed
/// grains. Its frontier saturates the slice for most of the drain, then
/// collapses to the dependency tail — wide while serve is idle-ish,
/// narrow when the extra threads stop helping.
fn mixed_dag_spec(seed: u64) -> lg_workloads::DagSpec {
    generate(
        &DagConfig {
            pattern: DagPattern::Stencil1d,
            width: DAG_MAX,
            depth: 16,
            grain_ops: 3e6,
            grain_spread: 0.5,
            comm_bytes: 0.0,
            seed,
        },
        &CostModel::default(),
    )
}

/// Simulates one mixed serve+DAG run over `horizon_ns`: the serving
/// tenant and a [`DagTenant`] under one arbiter, signal path selected
/// by `mode`. The run extends past the horizon if the DAG has not
/// drained (so makespans are comparable across modes).
pub fn simulate_mixed(horizon_ns: u64, mode: SignalMode, seed: u64) -> MixedResult {
    let requests = arrivals(MIXED_SERVE_RPS, horizon_ns, seed);
    let clock = Arc::new(VirtualClock::new());
    let mut serve = ServeTenant::new(clock.clone(), SERVE_KNEE, seed);
    let mut dag = DagTenant::new(dag_slice(), mixed_dag_spec(seed));
    let control_period = serve.control_period_ns();

    let serve_spec =
        TenantSpec::new("serve", SloClass::Latency, SERVE_KNEE as i64).with_min_threads(SERVE_MIN);
    let dag_spec =
        TenantSpec::new("dag", SloClass::Batch, DAG_MAX as i64).with_min_threads(DAG_MIN);
    let (serve_spec, dag_spec) = match mode {
        SignalMode::PressureOnly => (
            serve_spec.with_pressure("serve.p99_window_ns", PRESSURE_P99_NS),
            dag_spec,
        ),
        SignalMode::DemandAware => {
            let sp = serve.demand_probe(PRESSURE_P99_NS);
            let dp = dag.demand_probe();
            (
                serve_spec.with_demand_probe(move |snap, alloc| sp(snap, alloc)),
                dag_spec.with_demand_probe(move |snap, alloc| dp(snap, alloc)),
            )
        }
    };

    let arb = Arbiter::with_instance(
        ArbiterConfig::new(TOTAL_THREADS),
        lg_core::LookingGlass::builder()
            .clock(clock.clone())
            .build(),
    );
    arb.admit(serve.lg().clone(), serve_spec, "serve.bulkhead_limit");
    arb.admit(dag.lg().clone(), dag_spec, "thread_cap");

    let mut rounds: Vec<RoundReport> = Vec::new();
    let serve_report = serve.run(&requests, |t| {
        clock.advance_to(t);
        dag.step(t);
        rounds.push(arb.control_round(t));
    });
    // Drain the remainder of the DAG (pressure-only runs typically
    // outlive the serving horizon) so makespans are comparable.
    let mut t = clock.now_ns().max(horizon_ns);
    while !dag.done() {
        t += control_period;
        clock.advance_to(t);
        dag.step(t);
        rounds.push(arb.control_round(t));
        assert!(
            t < horizon_ns.saturating_mul(16),
            "mixed DAG failed to drain — check the grant path"
        );
    }

    let dag_alloc = |r: &RoundReport| r.allocations.get(1).map_or(0, |&(_, a)| a);
    MixedResult {
        signal: mode.label().into(),
        dag_makespan_ms: dag.makespan_ns().expect("drained") as f64 / 1e6,
        serve_goodput_frac: serve_report.goodput_frac(),
        serve_p99_ms: serve_report.p99_latency_ns as f64 / 1e6,
        peak_dag_threads: rounds.iter().map(&dag_alloc).max().unwrap_or(0),
        tail_dag_threads: rounds.last().map(&dag_alloc).unwrap_or(0),
        budget_ok: rounds.iter().all(|r| r.total_allocated <= TOTAL_THREADS),
        max_total_allocated: rounds.iter().map(|r| r.total_allocated).max().unwrap_or(0),
        rounds: rounds.len() as u64,
    }
}

/// The load mixes the experiment sweeps: serve-light, balanced (spike
/// oversubscribes the machine), and serve-heavy.
pub fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            serve_rps: 2_000.0,
            batch_jps: 12_000.0,
        },
        Mix {
            serve_rps: 12_000.0,
            batch_jps: 10_000.0,
        },
        Mix {
            serve_rps: 8_000.0,
            batch_jps: 6_000.0,
        },
    ]
}

/// The static partitions the arbiter is compared against.
pub fn static_partitions() -> Vec<i64> {
    vec![8, 16, 24]
}

/// Runs the experiment. `LG_CHAOS=1` adds the noisy-neighbor storm and
/// the no-quarantine baseline.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let horizon: u64 = if fast { 400_000_000 } else { 1_200_000_000 };
    let storm = if std::env::var("LG_CHAOS").is_ok_and(|v| v == "1") {
        Storm::Chaos
    } else {
        Storm::Nominal
    };
    let mut table = Table::new(
        "Figure 10: multi-tenancy — aggregate goodput and serve p99, static partitions vs arbiter",
        &[
            "serve_rps",
            "batch_jps",
            "policy",
            "agg_per_sec",
            "serve_goodput",
            "serve_p99_ms",
            "batch_jobs",
            "quarantines",
            "max_alloc",
        ],
    );
    for mix in mixes() {
        let mut policies: Vec<TenancyPolicy> = static_partitions()
            .into_iter()
            .map(TenancyPolicy::Static)
            .collect();
        policies.push(TenancyPolicy::Adaptive);
        if storm == Storm::Chaos {
            policies.push(TenancyPolicy::AdaptiveNoQuarantine);
        }
        for policy in policies {
            let r = simulate(mix, horizon, policy, storm, 77);
            table.row(&[
                format!("{:.0}", mix.serve_rps),
                format!("{:.0}", mix.batch_jps),
                r.policy.clone(),
                fmt_f(r.aggregate_per_sec),
                fmt_f(r.serve_goodput_frac),
                fmt_f(r.serve_p99_ms),
                r.batch_good_jobs.to_string(),
                r.quarantine_entries.to_string(),
                r.max_total_allocated.to_string(),
            ]);
        }
    }
    write_table(out, &table, "fig10_tenancy")?;
    writeln!(out)?;

    let mut mixed = Table::new(
        "Figure 10b: mixed serve+DAG tenancy — pressure-only vs demand-aware arbitration",
        &[
            "signal",
            "dag_makespan_ms",
            "serve_goodput",
            "serve_p99_ms",
            "peak_dag_thr",
            "tail_dag_thr",
            "max_alloc",
            "rounds",
        ],
    );
    for mode in [SignalMode::PressureOnly, SignalMode::DemandAware] {
        let r = simulate_mixed(horizon, mode, 77);
        assert!(r.budget_ok, "{}: thread budget violated", r.signal);
        mixed.row(&[
            r.signal.clone(),
            fmt_f(r.dag_makespan_ms),
            fmt_f(r.serve_goodput_frac),
            fmt_f(r.serve_p99_ms),
            r.peak_dag_threads.to_string(),
            r.tail_dag_threads.to_string(),
            r.max_total_allocated.to_string(),
            r.rounds.to_string(),
        ]);
    }
    write_table(out, &mixed, "fig10_mixed")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 400_000_000;

    fn best_static(mix: Mix, storm: Storm, seed: u64) -> f64 {
        static_partitions()
            .into_iter()
            .map(|s| {
                simulate(mix, HORIZON, TenancyPolicy::Static(s), storm, seed).aggregate_per_sec
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn deterministic_per_seed() {
        let mix = mixes()[1];
        let a = simulate(mix, HORIZON, TenancyPolicy::Adaptive, Storm::Chaos, 5);
        let b = simulate(mix, HORIZON, TenancyPolicy::Adaptive, Storm::Chaos, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_matches_best_static_at_every_mix() {
        for mix in mixes() {
            let adaptive = simulate(mix, HORIZON, TenancyPolicy::Adaptive, Storm::Nominal, 11);
            let best = best_static(mix, Storm::Nominal, 11);
            assert!(
                adaptive.aggregate_per_sec >= best * 0.95,
                "mix {mix:?}: adaptive {} vs best static {best}",
                adaptive.aggregate_per_sec
            );
            // The latency tenant's tail stays bounded while the machine
            // re-splits under it.
            assert!(
                adaptive.serve_p99_ms <= 100.0,
                "mix {mix:?}: serve p99 {} ms",
                adaptive.serve_p99_ms
            );
        }
    }

    #[test]
    fn no_single_static_wins_everywhere() {
        // The serve-light and serve-heavy mixes must prefer different
        // partitions — otherwise the adaptive comparison is vacuous.
        let m = mixes();
        let light_8 = simulate(m[0], HORIZON, TenancyPolicy::Static(8), Storm::Nominal, 11);
        let light_24 = simulate(m[0], HORIZON, TenancyPolicy::Static(24), Storm::Nominal, 11);
        let heavy_8 = simulate(m[2], HORIZON, TenancyPolicy::Static(8), Storm::Nominal, 11);
        let heavy_24 = simulate(m[2], HORIZON, TenancyPolicy::Static(24), Storm::Nominal, 11);
        assert!(
            light_8.aggregate_per_sec > light_24.aggregate_per_sec,
            "serve-light mix should prefer the batch-heavy split: {} vs {}",
            light_8.aggregate_per_sec,
            light_24.aggregate_per_sec
        );
        assert!(
            heavy_24.aggregate_per_sec > heavy_8.aggregate_per_sec,
            "serve-heavy mix should prefer the serve-heavy split: {} vs {}",
            heavy_24.aggregate_per_sec,
            heavy_8.aggregate_per_sec
        );
    }

    #[test]
    fn thread_budget_never_exceeded() {
        for policy in [TenancyPolicy::Adaptive, TenancyPolicy::AdaptiveNoQuarantine] {
            for storm in [Storm::Nominal, Storm::Chaos] {
                let r = simulate(mixes()[1], HORIZON, policy, storm, 3);
                assert!(r.rounds > 0, "arbiter never ran a round");
                assert!(
                    r.max_total_allocated <= TOTAL_THREADS,
                    "{} {storm:?}: granted {} of {TOTAL_THREADS}",
                    r.policy,
                    r.max_total_allocated
                );
            }
        }
    }

    #[test]
    fn chaos_quarantine_contains_the_noisy_neighbor() {
        let mix = mixes()[1];
        let adaptive = simulate(mix, HORIZON, TenancyPolicy::Adaptive, Storm::Chaos, 19);
        let unguarded = simulate(
            mix,
            HORIZON,
            TenancyPolicy::AdaptiveNoQuarantine,
            Storm::Chaos,
            19,
        );
        // The chain fired: watchdog rollback → quarantine entry.
        assert!(
            adaptive.quarantine_entries > 0,
            "storm never tripped quarantine"
        );
        assert_eq!(unguarded.quarantine_entries, 0);
        // Stated bound: the sibling's p99 stays under twice the
        // mandatory deadline budget even while the neighbor storms.
        assert!(
            adaptive.serve_p99_ms <= 100.0,
            "quarantine failed to protect serve p99: {} ms",
            adaptive.serve_p99_ms
        );
        // And the guarded run serves at least as well as the unguarded
        // one — quarantine is protection, not overhead.
        assert!(
            adaptive.serve_goodput_frac >= unguarded.serve_goodput_frac * 0.99,
            "guarded {} vs unguarded {}",
            adaptive.serve_goodput_frac,
            unguarded.serve_goodput_frac
        );
    }

    #[test]
    fn mixed_is_deterministic_per_seed() {
        let a = simulate_mixed(HORIZON, SignalMode::DemandAware, 7);
        let b = simulate_mixed(HORIZON, SignalMode::DemandAware, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn demand_aware_beats_pressure_only_on_dag_makespan() {
        let po = simulate_mixed(HORIZON, SignalMode::PressureOnly, 77);
        let da = simulate_mixed(HORIZON, SignalMode::DemandAware, 77);
        // The acceptance gate: ≥5% faster DAG drain at the contended
        // mix, serve goodput within 1%, budget invariant every round.
        assert!(
            da.dag_makespan_ms <= po.dag_makespan_ms * 0.95,
            "demand-aware makespan {} ms vs pressure-only {} ms",
            da.dag_makespan_ms,
            po.dag_makespan_ms
        );
        assert!(
            da.serve_goodput_frac >= po.serve_goodput_frac * 0.99,
            "serve goodput regressed: {} vs {}",
            da.serve_goodput_frac,
            po.serve_goodput_frac
        );
        assert!(po.budget_ok && da.budget_ok, "thread budget violated");
        assert!(da.rounds > 0 && po.rounds > 0);
    }

    #[test]
    fn demand_aware_claims_the_frontier_then_releases_it() {
        let r = simulate_mixed(HORIZON, SignalMode::DemandAware, 77);
        // Wide frontier: the DAG is granted more than its fair half of
        // the machine. Tail: once the DAG drains, the final round
        // returns it to its floor.
        assert!(
            r.peak_dag_threads > TOTAL_THREADS / 2,
            "DAG never got past fair share: peak {}",
            r.peak_dag_threads
        );
        assert_eq!(
            r.tail_dag_threads, DAG_MIN,
            "drained DAG should fall back to its floor"
        );
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("fig10");
    }
}
