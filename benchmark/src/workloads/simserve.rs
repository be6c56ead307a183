//! `simserve` — virtual time, one thread, no real pool.
//!
//! Three scenario kinds are replayed round-robin with per-replay seeds:
//!
//! * **storm** — a fig9-style `ServeEngine` over a
//!   `ReliableLink::with_faults` storm (open-loop Spike arrivals at
//!   8 000 req/s base) with AIMD + brownout controllers on
//!   `relative_change` watches;
//! * **mixed** — a fig10b-style `ServeTenant` + `DagTenant` in lockstep
//!   under an `Arbiter`, both publishing demand probes;
//! * **tune** — a `TuningSession` with `HillClimb` over `SimRuntime`'s
//!   power-of-two `thread_cap` on the stencil `sim_workload`, run until
//!   it converges.
//!
//! `lg-sim`, `lg-net`, `lg-tuning` and `lg-workloads::serve` dominate
//! and `lg-runtime` is absent; this is also the inner loop of
//! `experiments all`, the largest program in the repo.
//!
//! Op = one simulated work item (request, DAG node, sim task or control
//! round). Latency sample = wall time of one replay.
//!
//! Every replay is checked against the digest a replay of the same seed
//! produced at set-up (bit-for-bit determinism — with the dispatcher on
//! or off, so observation may not perturb a simulated outcome), plus
//! request conservation.

use super::closedloop::{BUILD, ROUND};
use super::{release_instance, splitmix, OpOutcome, Workload};
use crate::trace::{Layer, Site, Tracing};
use lg_core::{
    AdmissionGate, AimdPolicy, Arbiter, ArbiterConfig, Brownout, BrownoutPolicy, Bulkhead, Clock,
    LookingGlass, SessionConfig, SessionStep, SloClass, TenantSpec, ThresholdWatch, TuningSession,
    VirtualClock,
};
use lg_metrics::CounterRegistry;
use lg_net::{FaultPlan, ReliableConfig, ReliableLink, TransportCost};
use lg_sim::{MachineShares, MachineSpec, SimRuntime};
use lg_tuning::{Dim, HillClimb, Space};
use lg_workloads::dag::{generate, CostModel, DagConfig, DagPattern};
use lg_workloads::serve::{ArrivalGen, ArrivalPattern, Request, ServeConfig, ServeEngine};
use lg_workloads::{DagTenant, ServeReport, ServeTenant, Stencil1d};
use std::sync::Arc;
use std::time::Instant;

/// Seeds per scenario kind; replays cycle through them.
const SLOTS: usize = 4;
/// Simulated horizon of the two serving scenarios. The repo's figures
/// use 1.2 s and 4.8 s; 0.6 s keeps ≥ 2 000 replays inside a run.
pub const HORIZON_NS: u64 = 600_000_000;
pub const STORM_BASE_RPS: f64 = 8_000.0;
const MIXED_SERVE_RPS: f64 = 4_000.0;
const TOTAL_THREADS: i64 = 32;
const SERVE_KNEE: usize = 32;
const DAG_MAX: usize = 28;
const PRESSURE_P99_NS: f64 = 25e6;
const REACT_FRAC: f64 = 0.10;

static REPLAY: Site = Site {
    name: "simserve.replay",
    layer: Layer::Bench,
};
pub static SERVE_RUN: Site = Site {
    name: "workloads.serve_run",
    layer: Layer::Workloads,
};
static DAG_TENANT_STEP: Site = Site {
    name: "workloads.dag_tenant_step",
    layer: Layer::Workloads,
};
static DAG_GENERATE: Site = Site {
    name: "workloads.dag_generate",
    layer: Layer::Workloads,
};
static POLICY_STEP: Site = Site {
    name: "core.policy_step",
    layer: Layer::Core,
};
static SESSION_NEXT: Site = Site {
    name: "core.session_next",
    layer: Layer::Core,
};
static SESSION_COMPLETE: Site = Site {
    name: "core.session_complete",
    layer: Layer::Core,
};
static NET_LINK_BUILD: Site = Site {
    name: "net.reliable_build",
    layer: Layer::Net,
};
static SIM_BUILD: Site = Site {
    name: "sim.runtime_build",
    layer: Layer::Sim,
};
static SIM_SUBMIT: Site = Site {
    name: "sim.submit_all",
    layer: Layer::Sim,
};
static SIM_RUN: Site = Site {
    name: "sim.run_until_idle",
    layer: Layer::Sim,
};

/// Spike arrivals (2× across the second quarter of the horizon), the
/// shape both serving figures use.
pub fn arrivals(base_per_sec: f64, seed: u64) -> Vec<Request> {
    ArrivalGen {
        pattern: ArrivalPattern::Spike {
            base_per_sec,
            factor: 2.0,
            start_ns: HORIZON_NS / 4,
            end_ns: HORIZON_NS / 2,
        },
        seed,
        optional_frac: 0.3,
        service_mean_ns: 1_000_000,
        mandatory_budget_ns: 50_000_000,
        optional_budget_ns: 25_000_000,
        dests: 4,
    }
    .generate(HORIZON_NS)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one replay produced: a digest of everything it reported, the
/// work items it simulated, and whether its accounting balanced.
struct Replayed {
    digest: u64,
    ops: u64,
    conserved: bool,
}

fn conserved(r: &ServeReport, offered: usize) -> bool {
    r.offered == offered as u64
        && r.offered == r.shed_brownout + r.shed_gate + r.goodput + r.deadline_missed
}

/// The fig9 storm: 5% drop, 20 ms up / 2 ms down flaps, jitter.
pub fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_prob(0.05)
        .flap(20_000_000, 2_000_000)
        .jitter_ns(5_000)
}

fn storm<T: Tracing>(
    seed: u64,
    requests: &[Request],
    observed: bool,
    tr: &mut T,
    op: u64,
) -> Replayed {
    let clock = Arc::new(VirtualClock::new());
    let span = tr.begin(&BUILD, op);
    let lg = LookingGlass::builder().clock(clock.clone()).build();
    tr.end(span, 1);
    lg.dispatcher().set_enabled(observed);
    let counters = Arc::new(CounterRegistry::new());
    lg.introspection().register_counters(counters.clone());

    let bulkhead = Bulkhead::new("serve.bulkhead_limit", 1, 256, 16);
    let gate = AdmissionGate::new("serve.admit_rate", 100, 1_000_000, 8_000, 64.0, 8.0);
    let brownout = Brownout::new("serve.shed_level");
    let span = tr.begin(&NET_LINK_BUILD, op);
    let link = ReliableLink::with_faults(
        TransportCost::cluster(),
        storm_plan(seed),
        ReliableConfig {
            breaker_jitter_frac: 0.25,
            ..ReliableConfig::default()
        },
        seed ^ 0x5ee_d1ab,
    );
    tr.end(span, 1);
    let limit = lg.knobs().register(bulkhead.limit_knob().clone());
    lg.knobs().register(gate.rate_knob().clone());
    let shed = lg.knobs().register(brownout.level_knob().clone());
    lg.knobs().register(link.retry_budget_knob().clone());

    let mut engine = ServeEngine::new(link, ServeConfig::default(), bulkhead, gate, brownout);
    engine.bind_introspection(lg.introspection());
    engine.bind_metrics(&counters);

    // The fig9 adaptive stack: AIMD senses the service-stage p99 (the
    // knee's signature), the brownout senses end-to-end p99, and each
    // sleeps behind a relative-change watch on the gauge it senses.
    let metric = |name| lg.introspection().metric_id(name).expect("bound gauge");
    let service_p99 = metric("serve.service_p99_window_ns");
    let e2e_p99 = metric("serve.p99_window_ns");
    let gauges = engine.gauges().clone();
    lg.policy_engine().register_threshold(
        AimdPolicy::new(limit, 1, 64, 16, 2, 0.7).on_latency_above(service_p99, 12e6),
        ThresholdWatch::relative_change(move || gauges.service_p99_window_ns() as f64, REACT_FRAC),
    );
    let gauges = engine.gauges().clone();
    lg.policy_engine().register_threshold(
        BrownoutPolicy::new(shed, e2e_p99, 40e6, 20e6).with_max_level(4),
        ThresholdWatch::relative_change(move || gauges.p99_window_ns() as f64, REACT_FRAC),
    );

    let mut rounds = 0u64;
    let span = tr.begin(&SERVE_RUN, op);
    let serve = engine.run(requests, |t| {
        clock.advance_to(t);
        rounds += 1;
        let span = tr.begin(&POLICY_STEP, op);
        lg.policy_engine().step(t);
        tr.end(span, 1);
    });
    tr.end(span, 1);
    let link = engine.link_report();
    let writes = lg.policy_engine().journal().total_recorded();
    release_instance(&lg);
    Replayed {
        digest: fnv1a(&format!("{serve:?}|{link:?}|{writes}|{rounds}")),
        ops: serve.offered + rounds,
        conserved: conserved(&serve, requests.len()),
    }
}

fn mixed<T: Tracing>(
    seed: u64,
    requests: &[Request],
    observed: bool,
    tr: &mut T,
    op: u64,
) -> Replayed {
    let clock = Arc::new(VirtualClock::new());
    let mut serve = ServeTenant::new(clock.clone(), SERVE_KNEE, seed);
    let span = tr.begin(&DAG_GENERATE, op);
    let spec = generate(
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
    );
    tr.end(span, 1);
    let nodes = spec.nodes() as u64;
    let slice = MachineShares::new(MachineSpec::server32()).sub_spec(DAG_MAX);
    let mut dag = DagTenant::new(slice, spec);
    let control_period = serve.control_period_ns();

    let (sp, dp) = (serve.demand_probe(PRESSURE_P99_NS), dag.demand_probe());
    let serve_spec = TenantSpec::new("serve", SloClass::Latency, SERVE_KNEE as i64)
        .with_min_threads(2)
        .with_demand_probe(move |snap, alloc| sp(snap, alloc));
    let dag_spec = TenantSpec::new("dag", SloClass::Batch, DAG_MAX as i64)
        .with_min_threads(2)
        .with_demand_probe(move |snap, alloc| dp(snap, alloc));
    let gov = LookingGlass::builder().clock(clock.clone()).build();
    for lg in [&gov, serve.lg(), dag.lg()] {
        lg.dispatcher().set_enabled(observed);
    }
    let arb = Arbiter::with_instance(ArbiterConfig::new(TOTAL_THREADS), gov);
    arb.admit(serve.lg().clone(), serve_spec, "serve.bulkhead_limit");
    arb.admit(dag.lg().clone(), dag_spec, "thread_cap");

    let mut rounds = 0u64;
    let mut allocated = Vec::with_capacity(128);
    let mut round = |t: u64, dag: &mut DagTenant, tr: &mut T| {
        clock.advance_to(t);
        let span = tr.begin(&DAG_TENANT_STEP, op);
        dag.step(t);
        tr.end(span, 1);
        let span = tr.begin(&ROUND, op);
        let report = arb.control_round(t);
        tr.end(span, 1);
        rounds += 1;
        allocated.push(report.total_allocated);
    };
    let span = tr.begin(&SERVE_RUN, op);
    let report = serve.run(requests, |t| round(t, &mut dag, tr));
    tr.end(span, 1);
    // Drain what is left of the DAG past the serving horizon.
    let mut t = clock.now_ns().max(HORIZON_NS);
    while !dag.done() && t < 16 * HORIZON_NS {
        t += control_period;
        round(t, &mut dag, tr);
    }
    let within_budget = allocated.iter().all(|&a| a <= TOTAL_THREADS);
    for lg in [arb.lg(), serve.lg(), dag.lg()] {
        release_instance(lg);
    }
    Replayed {
        digest: fnv1a(&format!("{report:?}|{:?}|{allocated:?}", dag.makespan_ns())),
        ops: report.offered + nodes + rounds,
        conserved: conserved(&report, requests.len()) && dag.done() && within_budget,
    }
}

fn tune<T: Tracing>(seed: u64, observed: bool, tr: &mut T, op: u64) -> Replayed {
    let spec = MachineSpec::server32();
    let span = tr.begin(&SIM_BUILD, op);
    let mut sim = SimRuntime::new(spec);
    tr.end(span, 1);
    sim.lg().dispatcher().set_enabled(observed);
    // The seed picks the problem size and where the climb starts.
    let points = 2_000_000 + (splitmix(seed) % 8) as usize * 500_000;
    let workload = Stencil1d::sim_workload(points, 64);
    let levels = spec.cores.ilog2();
    let start = 1i64 << (splitmix(seed ^ 1) % (levels as u64 + 1));
    let space = Space::new(vec![Dim::pow2("thread_cap", 0, levels)]);
    let mut session = TuningSession::new(
        SessionConfig::single("thread_cap", 0, 0),
        Box::new(HillClimb::from_start(space, &[start])),
        sim.lg().knobs().clone(),
    );
    let mut ops = 0u64;
    let best = loop {
        let span = tr.begin(&SESSION_NEXT, op);
        let step = session.next(sim.clock().now_ns());
        tr.end(span, 1);
        match step {
            SessionStep::Done { best } => break best,
            SessionStep::Measure { .. } => {
                let span = tr.begin(&SIM_SUBMIT, op);
                sim.submit_all(workload.step_batch());
                tr.end(span, 1);
                let span = tr.begin(&SIM_RUN, op);
                let r = sim.run_until_idle();
                tr.end(span, 1);
                ops += r.tasks + 1;
                let span = tr.begin(&SESSION_COMPLETE, op);
                session.complete(r.energy_j * r.elapsed_s());
                tr.end(span, 1);
            }
        }
    };
    let cap = {
        use lg_core::Knob as _;
        sim.cap_knob().get()
    };
    release_instance(sim.lg());
    Replayed {
        digest: fnv1a(&format!("{best:?}|{:?}|{cap}", session.history())),
        ops,
        // The session leaves the winner applied.
        conserved: best.is_some_and(|(p, _)| p[0] == cap),
    }
}

/// One seed slot: the generated inputs and the reference digests.
struct Slot {
    seed: u64,
    storm_requests: Vec<Request>,
    mixed_requests: Vec<Request>,
    reference: [u64; 3],
}

pub struct SimServe {
    slots: Vec<Slot>,
    observed: bool,
    replay: u64,
}

impl SimServe {
    fn replay_one<T: Tracing>(&self, kind: usize, slot: &Slot, tr: &mut T, op: u64) -> Replayed {
        match kind {
            0 => storm(slot.seed, &slot.storm_requests, self.observed, tr, op),
            1 => mixed(slot.seed, &slot.mixed_requests, self.observed, tr, op),
            _ => tune(slot.seed, self.observed, tr, op),
        }
    }
}

impl Workload for SimServe {
    const NAME: &'static str = "simserve";
    /// Three kinds × four seed slots: every block replays each once.
    const GRANULE: u64 = 3 * SLOTS as u64;

    fn setup(seed: u64, _nproc: usize, corrupt: bool) -> Self {
        let mut w = Self {
            slots: (0..SLOTS as u64)
                .map(|k| {
                    let seed = splitmix(seed.wrapping_mul(SLOTS as u64) + k);
                    Slot {
                        seed,
                        storm_requests: arrivals(STORM_BASE_RPS, seed),
                        mixed_requests: arrivals(MIXED_SERVE_RPS, seed),
                        reference: [0; 3],
                    }
                })
                .collect(),
            observed: true,
            replay: 0,
        };
        // The reference replays double as warm-up.
        let mut tr = crate::trace::NoTrace;
        for s in 0..SLOTS {
            for kind in 0..3 {
                let digest = w.replay_one(kind, &w.slots[s], &mut tr, 0).digest;
                w.slots[s].reference[kind] = digest ^ u64::from(corrupt && s == 0);
            }
        }
        w
    }

    fn set_observed(&mut self, on: bool) {
        self.observed = on;
    }

    fn op<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> OpOutcome {
        let kind = (self.replay % 3) as usize;
        let slot = &self.slots[(self.replay / 3) as usize % SLOTS];
        self.replay += 1;
        let root = tr.begin(&REPLAY, op_id);
        let t0 = Instant::now();
        let r = self.replay_one(kind, slot, tr, op_id);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        tr.end(root, 1);
        let ok = r.conserved && r.digest == slot.reference[kind];
        OpOutcome {
            ops: r.ops,
            failed: if ok { 0 } else { r.ops },
            latency_ns,
        }
    }
}
