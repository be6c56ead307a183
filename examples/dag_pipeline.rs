//! A task DAG under critical-path steering, end to end.
//!
//! ```sh
//! cargo run --release --example dag_pipeline
//! ```
//!
//! The workload is a triangular-solve sweep (forward substitution): each
//! elimination step's diagonal node gates the entire next level, so the
//! DAG has a long serial spine threaded through wide-but-shrinking
//! levels. Two acts:
//!
//! 1. **Offline (simulated)** — the same DAG replayed on a deterministic
//!    8-core fluid machine under FIFO and critical-path-first ordering,
//!    against the schedule-independent bound `max(cp, work/P)`. This is
//!    the headroom the online loop is chasing.
//! 2. **Online (real pool)** — the DAG drains on the work-stealing pool
//!    while release/completion accounting feeds the `dag.*` gauges, and
//!    a [`CriticalPathPolicy`] on a sidecar control thread watches the
//!    ready frontier and journals the `dag.critical_bias` knob. When the
//!    bias is on, the runtime routes critical nodes to the priority lane
//!    (front of the local deque) — an online approximation of the list
//!    schedule from act 1, with every node body on the zero-allocation
//!    inline tier.

use looking_glass::core::{CriticalPathPolicy, DagStats, LookingGlass, PolicyEngine};
use looking_glass::metrics::PowerModel;
use looking_glass::runtime::{PoolConfig, ThreadPool};
use looking_glass::sim::{MachineSpec, SimRuntime};
use looking_glass::workloads::dag::{
    expected_checksum, generate, run_on_pool_observed, run_on_sim, CostModel, DagConfig,
    DagPattern, DagSched,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WORKERS: usize = 8;

fn main() {
    let cfg = DagConfig {
        pattern: DagPattern::Sweep,
        width: 16,
        depth: 64,
        grain_ops: 1e5,
        grain_spread: 8.0,
        comm_bytes: 1e3,
        seed: 42,
    };
    let spec = generate(&cfg, &CostModel::default());
    println!(
        "sweep DAG: {} nodes, {} edges, critical path {} levels",
        spec.nodes(),
        spec.edges(),
        cfg.depth
    );

    // Act 1: what does ordering alone buy? Same DAG, same machine, only
    // the ready-queue policy differs.
    let machine = MachineSpec {
        cores: WORKERS,
        core_flops: 1e9,
        mem_bw: 1e12,
        power: PowerModel::new(10.0, 2.0),
        sched_overhead_ns: 0,
        stall_intensity: 0.5,
    };
    let fifo = run_on_sim(&mut SimRuntime::new(machine), &spec, DagSched::Fifo);
    let cp = run_on_sim(&mut SimRuntime::new(machine), &spec, DagSched::CriticalPath);
    println!(
        "simulated {WORKERS}-core makespan: fifo {:.2} ms, critical-path {:.2} ms \
         (bound {:.2} ms) -> {:.1}% gain",
        fifo.makespan_ns as f64 / 1e6,
        cp.makespan_ns as f64 / 1e6,
        cp.bound_ns as f64 / 1e6,
        (fifo.makespan_ns as f64 - cp.makespan_ns as f64) / fifo.makespan_ns as f64 * 100.0,
    );

    // Act 2: the closed loop. Stats sink -> introspection gauges ->
    // periodic policy -> journaled knob -> runtime priority lane.
    let pool = ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig::with_workers(WORKERS),
    );
    let stats = DagStats::new();
    stats.register_on(pool.lg().introspection());
    let engine = PolicyEngine::new(pool.lg().knobs().clone());
    engine.attach_introspection(pool.lg().introspection().clone());
    // Bias starts off so the policy's first decision is a real actuation.
    let bias = pool
        .lg()
        .knobs()
        .id("dag.critical_bias")
        .expect("the pool registers dag.critical_bias");
    pool.lg().knobs().set_id(bias, 0);
    engine.register_periodic(
        Box::new(CriticalPathPolicy::new(bias, WORKERS)),
        200_000,
        pool.lg().clock().now_ns(),
    );

    // The control plane runs beside the workload, not inside it: a
    // sidecar thread steps the engine and samples the gauges while the
    // pool drains the scope.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let engine = engine.clone();
        let stats = stats.clone();
        let stop = stop.clone();
        let clock = pool.lg().clock().clone();
        std::thread::spawn(move || {
            let (mut peak_width, mut peak_cp) = (0f64, 0f64);
            while !stop.load(Ordering::Acquire) {
                engine.step(clock.now_ns());
                peak_width = peak_width.max(stats.ready_width());
                peak_cp = peak_cp.max(stats.critical_path_ns());
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            (peak_width, peak_cp)
        })
    };

    let ops_scale = 0.3;
    let report = run_on_pool_observed(&pool, &spec, ops_scale, stats);
    stop.store(true, Ordering::Release);
    let (peak_width, peak_cp) = sampler.join().expect("sampler thread");

    assert_eq!(
        report.checksum,
        expected_checksum(&spec, ops_scale),
        "pool run diverged from the sequential oracle"
    );
    println!(
        "pool run: {} nodes in {:.2} ms, checksum ok",
        report.nodes,
        report.elapsed_ns as f64 / 1e6
    );
    println!(
        "observed frontier: peak dag.ready_width {:.0}, peak dag.critical_path_len {:.2} ms",
        peak_width,
        peak_cp / 1e6
    );
    println!(
        "control plane: {} journaled actuation(s); runtime took the priority lane {} times, \
         boxed {} task bodies",
        engine.actuations(),
        pool.counters().counter("rt.priority_pushes").get(),
        pool.counters().counter("rt.boxed_tasks").get(),
    );
}
