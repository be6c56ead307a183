//! `dagdrain` — the same pool used through its other door.
//!
//! `DagScope::spawn_after_hinted` drains a fixed trio of Task Bench-style
//! DAGs from `lg_workloads::dag::generate` (Sweep 16×96, Stencil1d 16×32,
//! Tree 64) at a ~1 µs median grain, with `DagStats` registered and a
//! `CriticalPathPolicy` on a 200 µs ticker steering `dag.critical_bias`.
//! Dependency counters, the priority lane and steal order do the work
//! here instead of batch pushes, at a grain ~25× coarser than
//! `taskflood`: a deque or wake-path change that helps `taskflood` but
//! hurts dependency-driven release shows up on this workload.
//!
//! Op = one DAG node. Latency sample = one trio drain.

use super::taskflood::TICK;
use super::{splitmix, OpOutcome, Workload};
use crate::trace::{Layer, Site, Tracing};
use lg_core::policy::TickerGuard;
use lg_core::{CriticalPathPolicy, DagStats, LookingGlass, ThresholdWatch};
use lg_runtime::{DagHint, DagNodeId, PoolConfig, ThreadPool};
use lg_workloads::dag::{expected_checksum, generate, CostModel, DagConfig, DagPattern, DagSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Maps modelled ops to busywork iterations: 1e5 ops → 1 000 iterations
/// of a dependent multiply-add, about a microsecond.
const OPS_SCALE: f64 = 0.01;
const GRAIN_OPS: f64 = 1e5;
/// Ready-width move (relative) that wakes the critical-path policy.
const REACT_FRAC: f64 = 0.5;
const WARMUP_TRIOS: usize = 20;

static TRIO: Site = Site {
    name: "dagdrain.trio",
    layer: Layer::Bench,
};
static DAG_SCOPE: Site = Site {
    name: "runtime.dag_scope",
    layer: Layer::Runtime,
};
pub static DAG_WIRE: Site = Site {
    name: "runtime.dag_wire",
    layer: Layer::Runtime,
};

/// The fixed trio (shapes from the repo's fig11 matrix); only the grain
/// draws depend on `seed`.
pub fn trio_configs(seed: u64) -> [DagConfig; 3] {
    let cfg = |pattern, width, depth, grain_spread, k: u64| DagConfig {
        pattern,
        width,
        depth,
        grain_ops: GRAIN_OPS,
        grain_spread,
        comm_bytes: 1e3,
        seed: splitmix(seed ^ k),
    };
    [
        cfg(DagPattern::Sweep, 16, 96, 8.0, 1),
        cfg(DagPattern::Stencil1d, 16, 32, 3.0, 2),
        cfg(DagPattern::Tree, 64, 0, 3.0, 3),
    ]
}

/// One DAG ready to drain: the spec, each node's busywork length, and
/// the checksum a correct drain must produce.
struct Prepared {
    spec: DagSpec,
    iters: Vec<u64>,
    expected: u64,
}

impl Prepared {
    fn new(cfg: &DagConfig) -> Self {
        let spec = generate(cfg, &CostModel::default());
        let iters = spec
            .ops
            .iter()
            .map(|ops| (ops * OPS_SCALE).max(1.0) as u64)
            .collect();
        let expected = expected_checksum(&spec, OPS_SCALE);
        Self {
            spec,
            iters,
            expected,
        }
    }
}

/// The node body `lg_workloads::dag` uses (its own is private): a seeded
/// integer recurrence the checksum depends on, so it cannot be optimized
/// away. `expected_checksum` holds this copy to the original.
fn grind(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// Drains `dag` through `spawn_after_hinted`; true if its XOR checksum
/// matches. `ids` is scratch space reused across drains.
fn drain<T: Tracing>(
    pool: &ThreadPool,
    stats: &Arc<DagStats>,
    dag: &Prepared,
    ids: &mut Vec<DagNodeId>,
    tr: &mut T,
    op_id: u64,
) -> bool {
    struct Ctx<'a> {
        checksum: AtomicU64,
        iters: &'a [u64],
    }
    let ctx = Ctx {
        checksum: AtomicU64::new(0),
        iters: &dag.iters,
    };
    let spec = &dag.spec;
    let name = spec.config.pattern.name();
    let n = spec.nodes();
    let span = tr.begin(&DAG_SCOPE, op_id);
    pool.dag_scope_observed(stats.clone(), |g| {
        let wire_start = tr.now_ns();
        ids.clear();
        let mut deps: Vec<DagNodeId> = Vec::with_capacity(8);
        for node in 0..n {
            deps.clear();
            deps.extend(spec.preds_of(node).iter().map(|&p| ids[p as usize]));
            let hint = DagHint {
                critical: spec.critical[node],
                height_ns: spec.height_ns[node],
            };
            let ctx = &ctx;
            ids.push(g.spawn_after_hinted(name, &deps, hint, move || {
                let salt = splitmix(node as u64);
                let v = grind(salt, ctx.iters[node]);
                ctx.checksum.fetch_xor(v ^ salt, Ordering::Relaxed);
            }));
        }
        tr.record(&DAG_WIRE, op_id, wire_start, tr.now_ns(), n as u32);
    });
    tr.end(span, 1);
    ctx.checksum.load(Ordering::Relaxed) == dag.expected
}

pub struct DagDrain {
    _ticker: TickerGuard,
    pub pool: ThreadPool,
    stats: Arc<DagStats>,
    trio: Vec<Prepared>,
    ids: Vec<DagNodeId>,
}

impl DagDrain {
    pub fn nodes_per_trio(&self) -> u64 {
        self.trio.iter().map(|d| d.spec.nodes() as u64).sum()
    }
}

/// A pool with the DAG control loop closed around it: `DagStats` feeding
/// the `dag.*` gauges and the critical-path policy on a ticker.
fn steered_pool(nproc: usize) -> (ThreadPool, Arc<DagStats>, TickerGuard) {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(nproc));
    let stats = DagStats::new();
    stats.register_on(lg.introspection());
    let bias = lg
        .knobs()
        .id("dag.critical_bias")
        .expect("the pool registers its bias knob");
    let width = stats.clone();
    lg.policy_engine().register_threshold(
        Box::new(CriticalPathPolicy::new(bias, nproc)),
        ThresholdWatch::relative_change(move || width.ready_width(), REACT_FRAC),
    );
    let ticker = lg.policy_engine().spawn_ticker(lg.clock().clone(), TICK);
    (pool, stats, ticker)
}

impl Workload for DagDrain {
    const NAME: &'static str = "dagdrain";

    fn setup(seed: u64, nproc: usize, corrupt: bool) -> Self {
        let mut trio: Vec<Prepared> = trio_configs(seed).iter().map(Prepared::new).collect();
        if corrupt {
            trio[0].expected ^= 1;
        }
        let (pool, stats, ticker) = steered_pool(nproc);
        let mut w = Self {
            _ticker: ticker,
            pool,
            stats,
            trio,
            ids: Vec::new(),
        };
        let mut tr = crate::trace::NoTrace;
        for i in 0..WARMUP_TRIOS {
            w.op(&mut tr, i as u64);
        }
        w
    }

    fn set_observed(&mut self, on: bool) {
        self.pool.lg().dispatcher().set_enabled(on);
    }

    fn op<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> OpOutcome {
        let root = tr.begin(&TRIO, op_id);
        let t0 = Instant::now();
        let mut failed = 0;
        for dag in &self.trio {
            if !drain(&self.pool, &self.stats, dag, &mut self.ids, tr, op_id) {
                failed += dag.spec.nodes() as u64;
            }
        }
        let latency_ns = t0.elapsed().as_nanos() as u64;
        tr.end(root, 1);
        OpOutcome {
            ops: self.nodes_per_trio(),
            failed,
            latency_ns,
        }
    }
}
