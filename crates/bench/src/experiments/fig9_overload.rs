//! Figure 9 — overload: static vs adaptive admission control through a
//! capacity spike and a concurrent fault storm.
//!
//! An open-loop arrival stream (base load with a 2× spike window) is
//! pushed through the serving pipeline — brownout → admission gate →
//! queue → bulkhead → [`ReliableLink`] → contended server — while the
//! link flaps and drops packets. The bulkhead limit poses the genuine
//! overload trade-off:
//!
//! * a **small** static limit keeps the server below its contention knee
//!   but queues the spike until deadlines expire in line;
//! * a **large** static limit admits the spike straight into the knee —
//!   service times inflate quadratically and *everything* goes late;
//! * the **adaptive** stack senses the round snapshot and moves the
//!   journaled knobs: AIMD on the bulkhead limit driven by the
//!   *service-stage* window p99 (the knee signature — sensing end-to-end
//!   latency would let the governor's own backlog poison it into a
//!   limit-1 death spiral), and a hysteresis brownout on the shed level
//!   driven by the *end-to-end* window p99 — shed optional work early
//!   instead of missing mandatory work late. Both controllers are
//!   **threshold-triggered** ([`lg_core::ThresholdWatch::relative_change`]
//!   on their own sensing gauge): they evaluate only in rounds where the
//!   signal actually moved, so a quiet tail costs a cheap watch scan,
//!   not a capture — the run reports its reaction-round counts. A
//!   regression watchdog over the per-round completion rate backstops
//!   the controllers and rolls back any actuation that collapses it.
//!
//! Everything runs in virtual time from seeded RNGs, so a given
//! `(load, policy, seed)` triple replays bit-for-bit.

use crate::report::{fmt_f, write_csv, Table};
use lg_core::snapshot::IntrospectionSnapshot;
use lg_core::{
    AdmissionGate, AimdPolicy, Brownout, BrownoutPolicy, Bulkhead, LookingGlass, Policy,
    PolicyDecision, RegressionWatchdog, ThresholdWatch, VirtualClock,
};
use lg_metrics::CounterRegistry;
use lg_net::{FaultPlan, ReliableConfig, ReliableLink, ReliableReport, TransportCost};
use lg_workloads::serve::{ArrivalGen, ArrivalPattern, ServeConfig, ServeEngine, ServeReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps a policy and counts its evaluations. Registered under a
/// [`ThresholdWatch`], the count is exactly the number of *reaction
/// rounds* — rounds where the watched signal moved enough to wake the
/// controller — which the experiment gates against the total round
/// count to prove the trigger path is actually sparse.
struct Counted {
    inner: Box<dyn Policy>,
    reactions: Arc<AtomicU64>,
}

impl Policy for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn evaluate(
        &mut self,
        now_ns: u64,
        trigger: lg_core::policy::Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        self.reactions.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(now_ns, trigger, snapshot)
    }
}

/// How the serving knobs are governed during the run.
#[derive(Clone, Copy, Debug)]
pub enum ServePolicy {
    /// Fixed bulkhead limit, gate wide open, nothing shed.
    Static(i64),
    /// AIMD bulkhead + brownout shedding + watchdog, all via the
    /// journaled knob registry.
    Adaptive,
}

impl ServePolicy {
    fn label(&self) -> String {
        match self {
            ServePolicy::Static(l) => format!("static-{l}"),
            ServePolicy::Adaptive => "adaptive".into(),
        }
    }
}

/// Storm severity on the link while the spike is in progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storm {
    /// Fig 9 default: 5% drop, 20 ms up / 2 ms down flaps.
    Nominal,
    /// Chaos job: 15% drop, 8 ms up / 2 ms down flaps.
    Chaos,
}

/// Result of one (load, policy) run.
#[derive(Clone, Debug)]
pub struct OverloadResult {
    /// Policy label.
    pub policy: String,
    /// Fraction of offered requests served within deadline.
    pub goodput_frac: f64,
    /// Fraction shed (brownout + gate).
    pub shed_frac: f64,
    /// Fraction that missed their deadline.
    pub miss_frac: f64,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile end-to-end latency, ms.
    pub p999_ms: f64,
    /// Knob writes by the adaptive controllers (from the journal).
    pub knob_writes: u64,
    /// Watchdog rollbacks (journal records marked rolled back).
    pub watchdog_rollbacks: u64,
    /// Control rounds driven through the policy engine.
    pub control_rounds: u64,
    /// Rounds where the AIMD bulkhead's threshold watch woke it.
    pub aimd_reactions: u64,
    /// Rounds where the brownout's threshold watch woke it.
    pub brownout_reactions: u64,
    /// Mean adaptation latency (trigger sensed → knob write journaled),
    /// µs. Wall-clock, so it varies run to run; `NaN` when the run never
    /// actuated (static policies).
    pub adapt_latency_mean_us: f64,
    /// Full serving report (for invariants).
    pub serve: ServeReport,
    /// Full wire-level report (for invariants).
    pub link: ReliableReport,
}

/// Everything except `adapt_latency_mean_us`, which is wall-clock (host
/// scheduling noise) and must not break bit-exact replay comparisons.
impl PartialEq for OverloadResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.goodput_frac == other.goodput_frac
            && self.shed_frac == other.shed_frac
            && self.miss_frac == other.miss_frac
            && self.p50_ms == other.p50_ms
            && self.p99_ms == other.p99_ms
            && self.p999_ms == other.p999_ms
            && self.knob_writes == other.knob_writes
            && self.watchdog_rollbacks == other.watchdog_rollbacks
            && self.control_rounds == other.control_rounds
            && self.aimd_reactions == other.aimd_reactions
            && self.brownout_reactions == other.brownout_reactions
            && self.serve == other.serve
            && self.link == other.link
    }
}

const DESTS: u32 = 4;
const SERVICE_MEAN_NS: u64 = 1_000_000;
const MANDATORY_BUDGET_NS: u64 = 50_000_000;
const OPTIONAL_BUDGET_NS: u64 = 25_000_000;
const BULKHEAD_MIN: i64 = 1;
const BULKHEAD_MAX: i64 = 256;
const ADAPTIVE_INITIAL_LIMIT: i64 = 16;
/// The AIMD governor probes no higher than this: far enough past the
/// knee to find it, close enough that a probe cannot wreck the tail.
const AIMD_MAX_LIMIT: i64 = 64;
/// Relative move of a controller's sensing window-p99 that wakes it.
/// Under traffic the windows jitter well past this every few rounds, so
/// the controllers stay live through the spike; once the stream drains
/// the gauges freeze and the engine's step is a watch scan, no capture.
const REACT_FRAC: f64 = 0.10;

fn storm_plan(seed: u64, storm: Storm) -> FaultPlan {
    match storm {
        Storm::Nominal => FaultPlan::new(seed)
            .drop_prob(0.05)
            .flap(20_000_000, 2_000_000)
            .jitter_ns(5_000),
        Storm::Chaos => FaultPlan::new(seed)
            .drop_prob(0.15)
            .flap(8_000_000, 2_000_000)
            .jitter_ns(10_000),
    }
}

fn serve_link_config() -> ReliableConfig {
    ReliableConfig {
        // Opt in to half-open probe jitter: replay stays exact because
        // the breaker draws from its own RNG stream.
        breaker_jitter_frac: 0.25,
        ..ReliableConfig::default()
    }
}

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
        service_mean_ns: SERVICE_MEAN_NS,
        mandatory_budget_ns: MANDATORY_BUDGET_NS,
        optional_budget_ns: OPTIONAL_BUDGET_NS,
        dests: DESTS,
    }
    .generate(horizon_ns)
}

/// Simulates one (load, policy) run: `base_per_sec` arrivals over
/// `horizon_ns` with a 2× spike across `[horizon/4, horizon/2)` and a
/// fault storm on the link throughout.
pub fn simulate(
    base_per_sec: f64,
    horizon_ns: u64,
    policy: ServePolicy,
    storm: Storm,
    seed: u64,
) -> OverloadResult {
    let requests = arrivals(base_per_sec, horizon_ns, seed);
    let clock = Arc::new(VirtualClock::new());
    let lg = LookingGlass::builder().clock(clock.clone()).build();
    let counters = Arc::new(CounterRegistry::new());
    lg.introspection().register_counters(counters.clone());

    let initial_limit = match policy {
        ServePolicy::Static(l) => l,
        ServePolicy::Adaptive => ADAPTIVE_INITIAL_LIMIT,
    };
    // Statics get a wide-open gate so they differ only in the limit; the
    // adaptive stack caps admissions just above the knee's capacity.
    let gate_rate = match policy {
        ServePolicy::Static(_) => 1_000_000,
        ServePolicy::Adaptive => 8_000,
    };
    let bulkhead = Bulkhead::new(
        "serve.bulkhead_limit",
        BULKHEAD_MIN,
        BULKHEAD_MAX,
        initial_limit,
    );
    let gate = AdmissionGate::new("serve.admit_rate", 100, 1_000_000, gate_rate, 64.0, 8.0);
    let brownout = Brownout::new("serve.shed_level");
    let link = ReliableLink::with_faults(
        TransportCost::cluster(),
        storm_plan(seed, storm),
        serve_link_config(),
        seed ^ 0x5ee_d1ab,
    );

    // Every actuator lives in the registry, so writes are clamped and
    // journaled whether or not a policy drives them this run.
    let limit = lg.knobs().register(bulkhead.limit_knob().clone());
    lg.knobs().register(gate.rate_knob().clone());
    let shed = lg.knobs().register(brownout.level_knob().clone());
    lg.knobs().register(link.retry_budget_knob().clone());

    let config = ServeConfig::default();
    let control_period = config.control_period_ns;
    let mut engine = ServeEngine::new(link, config, bulkhead, gate, brownout);
    engine.bind_introspection(lg.introspection());
    engine.bind_metrics(&counters);

    let aimd_reactions = Arc::new(AtomicU64::new(0));
    let brownout_reactions = Arc::new(AtomicU64::new(0));
    if matches!(policy, ServePolicy::Adaptive) {
        // Signal separation is what keeps the loop stable: the AIMD
        // governor senses *service-stage* latency — the knee's signature
        // — so the queue its own clamping builds upstream cannot poison
        // it into a death spiral, while the brownout senses *end-to-end*
        // latency, shedding when deadlines (queue wait included) are
        // actually threatened.
        let service_p99 = lg
            .introspection()
            .metric_id("serve.service_p99_window_ns")
            .expect("bound gauge");
        let e2e_p99 = lg
            .introspection()
            .metric_id("serve.p99_window_ns")
            .expect("bound gauge");
        // The link's breaker state is on the snapshot too
        // (`net.reliable.breakers_open`), but it is deliberately *not* an
        // AIMD trigger here: the storm opens breakers on every flap
        // cycle, and halving concurrency for a fault the bulkhead cannot
        // fix just starves the recovery.
        // Threshold-triggered, not periodic: each controller sleeps
        // behind a relative-change watch on the very gauge it senses,
        // and only rounds where that window moved become evaluation
        // (reaction) rounds. The counts are part of the result so the
        // gates can assert the trigger path both fired and stayed
        // sparse.
        let sg = engine.gauges().clone();
        lg.policy_engine().register_threshold(
            Box::new(Counted {
                inner: AimdPolicy::new(
                    limit,
                    BULKHEAD_MIN,
                    AIMD_MAX_LIMIT,
                    ADAPTIVE_INITIAL_LIMIT,
                    2,
                    0.7,
                )
                .on_latency_above(service_p99, 12e6),
                reactions: aimd_reactions.clone(),
            }),
            ThresholdWatch::relative_change(move || sg.service_p99_window_ns() as f64, REACT_FRAC),
        );
        let eg = engine.gauges().clone();
        lg.policy_engine().register_threshold(
            Box::new(Counted {
                inner: BrownoutPolicy::new(shed, e2e_p99, 40e6, 20e6).with_max_level(4),
                reactions: brownout_reactions.clone(),
            }),
            ThresholdWatch::relative_change(move || eg.p99_window_ns() as f64, REACT_FRAC),
        );
        // Backstop, not controller: only a post-actuation collapse of
        // the completion rate (>75% round-over-round) triggers a
        // rollback. The signal holds its last value while no requests
        // arrive, so the end-of-run drain is not misread as a crash.
        let completed = counters.counter("serve.completed");
        let arrived = counters.counter("serve.arrivals");
        let mut last_completed = 0u64;
        let mut last_arrived = 0u64;
        let mut held = 0.0f64;
        lg.policy_engine().register_periodic(
            RegressionWatchdog::new(
                lg.knobs().clone(),
                move || {
                    let (a, c) = (arrived.get(), completed.get());
                    let da = a - last_arrived;
                    let dc = c - last_completed;
                    last_arrived = a;
                    last_completed = c;
                    if da > 0 {
                        held = dc as f64;
                    }
                    held
                },
                0.75,
            ),
            control_period,
            0,
        );
    }

    let trace = std::env::var("LG_FIG9_TRACE").is_ok();
    let gauges = engine.gauges().clone();
    let mut control_rounds = 0u64;
    let serve = engine.run(&requests, |t| {
        clock.advance_to(t);
        control_rounds += 1;
        lg.policy_engine().step(t);
        if trace {
            println!(
                "t={:>4}ms limit={:>3} shed={} q={:>4} inflight={:>3} p99w={:>6.1}ms missed={} good={}",
                t / 1_000_000,
                lg.knobs().value_id(limit).unwrap_or(-1),
                lg.knobs().value_id(shed).unwrap_or(-1),
                gauges.queue_depth(),
                gauges.in_flight(),
                gauges.p99_window_ns() as f64 / 1e6,
                counters.counter("serve.deadline_missed").get(),
                counters.counter("serve.goodput").get(),
            );
        }
    });
    let link = engine.link_report();

    let records = lg.policy_engine().journal().records();
    let knob_writes = records
        .iter()
        .filter(|r| r.policy == "aimd-bulkhead" || r.policy == "brownout")
        .count() as u64;
    let watchdog_rollbacks = records.iter().filter(|r| r.rolled_back).count() as u64;

    let adapt_latency_mean_us = lg
        .policy_engine()
        .adaptation_latency_mean_ns()
        .map_or(f64::NAN, |ns| ns / 1e3);

    OverloadResult {
        policy: policy.label(),
        goodput_frac: serve.goodput_frac(),
        shed_frac: serve.shed_frac(),
        miss_frac: serve.miss_frac(),
        p50_ms: serve.p50_latency_ns as f64 / 1e6,
        p99_ms: serve.p99_latency_ns as f64 / 1e6,
        p999_ms: serve.p999_latency_ns as f64 / 1e6,
        knob_writes,
        watchdog_rollbacks,
        control_rounds,
        aimd_reactions: aimd_reactions.load(Ordering::Relaxed),
        brownout_reactions: brownout_reactions.load(Ordering::Relaxed),
        adapt_latency_mean_us,
        serve,
        link,
    }
}

/// The policies the experiment compares.
pub fn policies() -> Vec<ServePolicy> {
    vec![
        ServePolicy::Static(4),
        ServePolicy::Static(32),
        ServePolicy::Static(256),
        ServePolicy::Adaptive,
    ]
}

/// Upper bound on retries the per-destination token buckets can legally
/// release over `makespan_ns` (capacity + refill, summed over
/// destinations) — the "zero budget overruns" gate.
pub fn retry_budget_bound(makespan_ns: u64) -> f64 {
    let c = serve_link_config();
    DESTS as f64 * (c.retry_budget as f64 + c.retry_refill_per_sec * makespan_ns as f64 / 1e9)
}

/// Runs the experiment. `LG_CHAOS=1` in the environment intensifies the
/// fault storm to the chaos-job profile.
pub fn run(fast: bool) {
    let horizon: u64 = if fast { 400_000_000 } else { 1_200_000_000 };
    let storm = if std::env::var("LG_CHAOS").is_ok_and(|v| v == "1") {
        Storm::Chaos
    } else {
        Storm::Nominal
    };
    let loads = [2_000.0, 4_000.0, 6_000.0];
    let mut table = Table::new(
        "Figure 9: overload — goodput and latency vs offered load, static vs adaptive",
        &[
            "base_rps",
            "policy",
            "goodput_frac",
            "shed_frac",
            "miss_frac",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "knob_writes",
            "rollbacks",
            "reactions",
            "rounds",
            "adapt_lat_us",
        ],
    );
    for &load in &loads {
        for policy in policies() {
            let r = simulate(load, horizon, policy, storm, 77);
            table.row(&[
                format!("{load:.0}"),
                r.policy.clone(),
                fmt_f(r.goodput_frac),
                fmt_f(r.shed_frac),
                fmt_f(r.miss_frac),
                fmt_f(r.p50_ms),
                fmt_f(r.p99_ms),
                fmt_f(r.p999_ms),
                r.knob_writes.to_string(),
                r.watchdog_rollbacks.to_string(),
                format!("{}+{}", r.aimd_reactions, r.brownout_reactions),
                r.control_rounds.to_string(),
                if r.adapt_latency_mean_us.is_nan() {
                    "-".into()
                } else {
                    fmt_f(r.adapt_latency_mean_us)
                },
            ]);
        }
    }
    println!("{}", table.render());
    let path = write_csv(&table, "fig9_overload");
    println!("wrote {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 400_000_000;

    #[test]
    fn deterministic_per_seed() {
        let a = simulate(6_000.0, HORIZON, ServePolicy::Adaptive, Storm::Nominal, 5);
        let b = simulate(6_000.0, HORIZON, ServePolicy::Adaptive, Storm::Nominal, 5);
        assert_eq!(a, b);
        let c = simulate(6_000.0, HORIZON, ServePolicy::Adaptive, Storm::Nominal, 6);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn conservation_under_every_policy() {
        for policy in policies() {
            let r = simulate(6_000.0, HORIZON, policy, Storm::Nominal, 3);
            let s = &r.serve;
            assert_eq!(
                s.offered,
                s.shed_brownout + s.shed_gate + s.goodput + s.deadline_missed,
                "{}: requests lost from the accounting",
                r.policy
            );
            assert!(s.offered > 0);
        }
    }

    #[test]
    fn adaptive_holds_the_knee() {
        // The heaviest load: 9k base spiking to 18k against ~8k capacity,
        // storm blowing the whole time.
        let statics: Vec<OverloadResult> = [4, 32, 256]
            .iter()
            .map(|&l| simulate(6_000.0, HORIZON, ServePolicy::Static(l), Storm::Nominal, 11))
            .collect();
        let adaptive = simulate(6_000.0, HORIZON, ServePolicy::Adaptive, Storm::Nominal, 11);
        let best = statics.iter().map(|r| r.goodput_frac).fold(0.0, f64::max);
        assert!(
            adaptive.goodput_frac >= best * 0.95,
            "adaptive {} vs best static {best}",
            adaptive.goodput_frac
        );
        // Bounded tail: adaptive p99 stays within 2× the mandatory
        // deadline budget even through the spike + storm.
        assert!(
            adaptive.p99_ms <= 100.0,
            "adaptive p99 {} ms unbounded",
            adaptive.p99_ms
        );
        // The controllers actually acted, through the journal.
        assert!(adaptive.knob_writes > 0, "no journaled actuations");
        // The threshold watches both woke their controllers and kept
        // them asleep in quiet rounds: reaction rounds are nonzero but
        // a strict subset of control rounds.
        assert!(
            adaptive.aimd_reactions > 0 && adaptive.brownout_reactions > 0,
            "threshold watches never fired: aimd {} brownout {}",
            adaptive.aimd_reactions,
            adaptive.brownout_reactions
        );
        assert!(
            adaptive.aimd_reactions < adaptive.control_rounds
                && adaptive.brownout_reactions < adaptive.control_rounds,
            "controllers woke every round ({} / {} of {}): the trigger path is not sparse",
            adaptive.aimd_reactions,
            adaptive.brownout_reactions,
            adaptive.control_rounds
        );
        // ...and every actuating round stamped its trigger→journal
        // latency (wall-clock, so only finiteness is asserted).
        assert!(
            adaptive.adapt_latency_mean_us.is_finite() && adaptive.adapt_latency_mean_us >= 0.0,
            "actuating run recorded no adaptation latency"
        );
        assert_eq!(
            adaptive.watchdog_rollbacks, 0,
            "controllers regressed goodput"
        );
        // Zero retry-budget overruns: the wire never saw more retries
        // than the token buckets could legally release.
        let bound = retry_budget_bound(adaptive.serve.makespan_ns);
        assert!(
            (adaptive.link.retries_consumed as f64) <= bound,
            "retry budget overrun: {} > {bound}",
            adaptive.link.retries_consumed
        );
    }

    #[test]
    fn chaos_storm_holds_goodput_without_rollbacks() {
        let statics: Vec<OverloadResult> = [4, 32, 256]
            .iter()
            .map(|&l| simulate(6_000.0, HORIZON, ServePolicy::Static(l), Storm::Chaos, 19))
            .collect();
        let adaptive = simulate(6_000.0, HORIZON, ServePolicy::Adaptive, Storm::Chaos, 19);
        let best = statics.iter().map(|r| r.goodput_frac).fold(0.0, f64::max);
        assert!(
            adaptive.goodput_frac >= best * 0.90,
            "chaos: adaptive {} vs best static {best}",
            adaptive.goodput_frac
        );
        assert_eq!(adaptive.watchdog_rollbacks, 0, "chaos run rolled back");
    }

    #[test]
    fn static_extremes_lose_somewhere() {
        // At overload, the large static limit drives the server past the
        // knee and the small one queues the spike to death; both should
        // trail whichever static is best.
        let r4 = simulate(6_000.0, HORIZON, ServePolicy::Static(4), Storm::Nominal, 11);
        let r256 = simulate(
            6_000.0,
            HORIZON,
            ServePolicy::Static(256),
            Storm::Nominal,
            11,
        );
        let r32 = simulate(
            6_000.0,
            HORIZON,
            ServePolicy::Static(32),
            Storm::Nominal,
            11,
        );
        let best = r4.goodput_frac.max(r32.goodput_frac).max(r256.goodput_frac);
        let worst = r4.goodput_frac.min(r32.goodput_frac).min(r256.goodput_frac);
        assert!(
            worst < best * 0.9,
            "overload should separate static limits: worst {worst} best {best}"
        );
    }

    #[test]
    fn runs_fast() {
        run(true);
    }
}
