//! Figure 11 — critical-path-aware scheduling over a Task Bench-style
//! DAG matrix.
//!
//! Two sections:
//!
//! * **Scheduler matrix (simulated)** — every [`DagPattern`] at its
//!   tuned shape, executed on an 8-core fluid machine under three ready
//!   policies: `fifo` (run in release order), `random-steal` (seeded
//!   uniform pick — the what-work-stealing-averages-to baseline), and
//!   `critical-path` (highest remaining height first). The claim the
//!   figure carries: on depth-dominated patterns (tree reduction,
//!   triangular-solve sweep) height-aware ordering beats FIFO by well
//!   over 10% of makespan, while on embarrassing patterns (trivial)
//!   every policy ties within noise — the scheduler knows when it has
//!   nothing to add. All runs are virtual-time and bit-replayable from
//!   the config seed.
//!
//! * **Closed loop (real pool)** — the same sweep DAG on the real
//!   work-stealing pool with the whole looking-glass attached: each
//!   node's release and completion add one count on its worker's stripe,
//!   each policy round's snapshot derives the `dag.critical_path_len` /
//!   `dag.ready_width` / `dag.slack_p50` (live-frontier) gauges, a
//!   [`CriticalPathPolicy`] on a [`PolicyEngine`] steers the
//!   `dag.critical_bias` knob through the journaled knob plane while
//!   the DAG drains, critical nodes ride the priority lane
//!   (`rt.priority_pushes`), and every node body stays on the
//!   zero-alloc inline tier (`rt.boxed_tasks == 0`).
//!
//! `LG_CHAOS=1` appends a fault-injection smoke: the same DAG with
//! seeded panic injection replacing ~5% of node bodies. The scope must
//! still join (every node released exactly once — crashed nodes release
//! their successors on drop), which is the property that makes DAG
//! scheduling safe to compose with the fault harness.

use crate::report::{fmt_f, write_csv, Table};
use lg_core::{CriticalPathPolicy, DagStats, LookingGlass, PolicyEngine};
use lg_metrics::PowerModel;
use lg_runtime::{FaultConfig, PoolConfig, ThreadPool};
use lg_sim::{MachineSpec, SimRuntime};
use lg_workloads::dag::{
    expected_checksum, generate, run_on_pool_observed, run_on_pool_traced, run_on_sim, CostModel,
    DagConfig, DagPattern, DagSched, DagSpec, DagTrace,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Worker/core count for both sections — the matrix is a fixed-width
/// figure, not a scaling study.
pub const WORKERS: usize = 8;

/// The simulated host: 8 cores at 1 Gop/s with bandwidth high enough
/// that the matrix measures ordering, not the memory wall.
fn machine() -> MachineSpec {
    MachineSpec {
        cores: WORKERS,
        core_flops: 1e9,
        mem_bw: 1e12,
        power: PowerModel::new(10.0, 2.0),
        sched_overhead_ns: 0,
        stall_intensity: 0.5,
    }
}

/// The tuned pattern matrix. Shapes are chosen so depth-dominated
/// patterns sit near the `cp ≈ work/P` balance point (where ordering
/// decides the makespan) and embarrassing ones stay work-bound.
pub fn matrix_configs() -> Vec<DagConfig> {
    let cfg = |pattern, width, depth, grain_spread| DagConfig {
        pattern,
        width,
        depth,
        grain_ops: 1e5,
        grain_spread,
        comm_bytes: 1e3,
        seed: 42,
    };
    vec![
        cfg(DagPattern::Trivial, 64, 8, 1.0),
        cfg(DagPattern::Stencil1d, 16, 32, 3.0),
        cfg(DagPattern::Stencil2d, 16, 32, 3.0),
        cfg(DagPattern::Tree, 64, 0, 3.0),
        cfg(DagPattern::Butterfly, 16, 32, 12.0),
        cfg(DagPattern::Sweep, 16, 96, 8.0),
        cfg(DagPattern::Random, 16, 32, 3.0),
    ]
}

/// One matrix row: the three schedulers on one pattern.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Pattern name.
    pub pattern: &'static str,
    /// Node / edge counts of the generated DAG.
    pub nodes: usize,
    /// Dependency edges.
    pub edges: usize,
    /// FIFO makespan, ns.
    pub fifo_ns: u64,
    /// Random-steal makespan, ns.
    pub random_ns: u64,
    /// Critical-path makespan, ns.
    pub cp_ns: u64,
    /// Schedule-independent lower bound, ns.
    pub bound_ns: u64,
    /// Critical-path improvement over FIFO, percent.
    pub gain_pct: f64,
}

fn simulate(spec: &DagSpec, sched: DagSched) -> u64 {
    let mut sim = SimRuntime::new(machine());
    run_on_sim(&mut sim, spec, sched).makespan_ns
}

/// Runs the scheduler matrix for one config.
pub fn matrix_row(cfg: &DagConfig) -> MatrixRow {
    let spec = generate(cfg, &CostModel::default());
    let fifo_ns = simulate(&spec, DagSched::Fifo);
    let random_ns = simulate(&spec, DagSched::RandomSteal(9));
    let cp_ns = simulate(&spec, DagSched::CriticalPath);
    MatrixRow {
        pattern: cfg.pattern.name(),
        nodes: spec.nodes(),
        edges: spec.edges(),
        fifo_ns,
        random_ns,
        cp_ns,
        bound_ns: spec.makespan_bound_ns(WORKERS),
        gain_pct: (fifo_ns as f64 - cp_ns as f64) / fifo_ns as f64 * 100.0,
    }
}

/// Result of the closed-loop section.
#[derive(Clone, Debug)]
pub struct LoopResult {
    /// Wall-clock makespan of the pool run, ns.
    pub elapsed_ns: u64,
    /// Nodes executed.
    pub nodes: u64,
    /// Checksum matched the sequential oracle.
    pub checksum_ok: bool,
    /// Control rounds the engine stepped while the DAG drained.
    pub engine_steps: u64,
    /// Journaled knob actuations from the critical-path policy.
    pub actuations: u64,
    /// Tasks that took the priority lane.
    pub priority_pushes: u64,
    /// Tasks that fell off the inline tier (must stay 0).
    pub boxed_tasks: u64,
}

/// Runs the sweep DAG on the real pool with the introspection →
/// policy → knob loop closed around it.
pub fn closed_loop(fast: bool) -> LoopResult {
    let cfg = DagConfig {
        pattern: DagPattern::Sweep,
        width: 16,
        depth: if fast { 48 } else { 96 },
        grain_ops: 1e5,
        grain_spread: 8.0,
        comm_bytes: 1e3,
        seed: 42,
    };
    let spec = generate(&cfg, &CostModel::default());
    let pool = ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig::with_workers(WORKERS),
    );
    let stats = DagStats::new();
    stats.register_on(pool.lg().introspection());
    let engine = PolicyEngine::new(pool.lg().knobs().clone());
    engine.attach_introspection(pool.lg().introspection().clone());
    // Start with the bias off so the first control round has a real
    // decision to journal: the policy sees the frontier and turns the
    // priority lane on.
    let bias = pool
        .lg()
        .knobs()
        .id("dag.critical_bias")
        .expect("the pool registers dag.critical_bias");
    pool.lg().knobs().set_id(bias, 0);
    engine.register_periodic(
        Box::new(CriticalPathPolicy::new(bias, WORKERS)),
        200_000, // 200 µs control period — several rounds per drain
        pool.lg().clock().now_ns(),
    );

    // Step the engine from a sidecar thread while the DAG drains on the
    // pool — the same split a production deployment has.
    let stop = Arc::new(AtomicBool::new(false));
    let stepper = {
        let engine = engine.clone();
        let stop = stop.clone();
        let clock = pool.lg().clock().clone();
        std::thread::spawn(move || {
            let mut steps = 0u64;
            while !stop.load(Ordering::Acquire) {
                engine.step(clock.now_ns());
                steps += 1;
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            steps
        })
    };
    let ops_scale = if fast { 0.3 } else { 1.0 };
    let report = run_on_pool_observed(&pool, &spec, ops_scale, stats);
    stop.store(true, Ordering::Release);
    let engine_steps = stepper.join().expect("stepper thread");

    LoopResult {
        elapsed_ns: report.elapsed_ns,
        nodes: report.nodes,
        checksum_ok: report.checksum == expected_checksum(&spec, ops_scale),
        engine_steps,
        actuations: engine.actuations(),
        priority_pushes: pool.counters().counter("rt.priority_pushes").get(),
        boxed_tasks: pool.counters().counter("rt.boxed_tasks").get(),
    }
}

/// Chaos smoke: the sweep DAG with seeded panic injection. Returns
/// `(nodes, released_all, ran_at_most_once)` — the scope must join with
/// every node released exactly once even when bodies crash.
pub fn chaos_smoke() -> (usize, bool) {
    let cfg = DagConfig {
        pattern: DagPattern::Sweep,
        width: 12,
        depth: 48,
        grain_ops: 1e4,
        grain_spread: 2.0,
        comm_bytes: 0.0,
        seed: 7,
    };
    let spec = generate(&cfg, &CostModel::default());
    let pool = ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig {
            workers: WORKERS,
            faults: Some(FaultConfig::seeded(7).panic_prob(0.05)),
        },
    );
    let trace = DagTrace::new(spec.nodes());
    // Injected panics are the point of this run; keep the default hook
    // from spraying a backtrace per contained crash.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on_pool_traced(&pool, &spec, 1e-3, &trace)
    }));
    std::panic::set_hook(prev_hook);
    let at_most_once = (0..spec.nodes()).all(|n| trace.runs[n].load(Ordering::Relaxed) <= 1);
    (spec.nodes(), at_most_once)
}

/// Runs the experiment. `LG_CHAOS=1` appends the fault-injection smoke.
pub fn run(fast: bool) {
    let mut table = Table::new(
        "Figure 11: DAG matrix — makespan by ready policy, 8 simulated cores",
        &[
            "pattern",
            "nodes",
            "edges",
            "fifo_ms",
            "random_ms",
            "cp_ms",
            "bound_ms",
            "cp_gain_%",
        ],
    );
    for cfg in matrix_configs() {
        let r = matrix_row(&cfg);
        table.row(&[
            r.pattern.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            fmt_f(r.fifo_ns as f64 / 1e6),
            fmt_f(r.random_ns as f64 / 1e6),
            fmt_f(r.cp_ns as f64 / 1e6),
            fmt_f(r.bound_ns as f64 / 1e6),
            fmt_f(r.gain_pct),
        ]);
    }
    println!("{}", table.render());
    let path = write_csv(&table, "fig11_dag");
    println!("wrote {}", path.display());

    let lr = closed_loop(fast);
    let mut loop_table = Table::new(
        "Figure 11b: closed loop — sweep DAG on the real pool, critical-path policy steering",
        &[
            "nodes",
            "elapsed_ms",
            "checksum_ok",
            "engine_steps",
            "actuations",
            "priority_pushes",
            "boxed_tasks",
        ],
    );
    loop_table.row(&[
        lr.nodes.to_string(),
        fmt_f(lr.elapsed_ns as f64 / 1e6),
        lr.checksum_ok.to_string(),
        lr.engine_steps.to_string(),
        lr.actuations.to_string(),
        lr.priority_pushes.to_string(),
        lr.boxed_tasks.to_string(),
    ]);
    println!("{}", loop_table.render());
    let path = write_csv(&loop_table, "fig11_dag_loop");
    println!("wrote {}\n", path.display());

    if std::env::var("LG_CHAOS").is_ok_and(|v| v == "1") {
        let (nodes, at_most_once) = chaos_smoke();
        assert!(
            at_most_once,
            "a node ran twice under fault injection — exactly-once broken"
        );
        println!("chaos smoke: {nodes}-node sweep under 5% panic injection — scope joined, every node ran at most once\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<MatrixRow> {
        matrix_configs().iter().map(matrix_row).collect()
    }

    /// The headline claim: ≥10% makespan improvement over FIFO on the
    /// depth-dominated patterns at 8 workers.
    #[test]
    fn depth_dominated_patterns_gain_over_ten_percent() {
        let rows = rows();
        for pat in ["tree", "sweep"] {
            let r = rows.iter().find(|r| r.pattern == pat).unwrap();
            assert!(
                r.gain_pct >= 10.0,
                "{pat}: critical-path gain {:.1}% below the 10% gate",
                r.gain_pct
            );
        }
    }

    /// Embarrassing parallelism: nothing to schedule, so the policies
    /// tie within noise.
    #[test]
    fn trivial_pattern_ties_within_two_percent() {
        let rows = rows();
        let r = rows.iter().find(|r| r.pattern == "trivial").unwrap();
        assert!(
            r.gain_pct.abs() <= 2.0,
            "trivial: |{:.2}%| gain exceeds the ±2% tie band",
            r.gain_pct
        );
    }

    /// Every policy's makespan respects the schedule-independent lower
    /// bound, and critical-path never loses to FIFO anywhere in the
    /// matrix.
    #[test]
    fn makespans_respect_bounds() {
        for r in rows() {
            for (label, ns) in [
                ("fifo", r.fifo_ns),
                ("random", r.random_ns),
                ("cp", r.cp_ns),
            ] {
                assert!(
                    ns >= r.bound_ns,
                    "{}/{label}: makespan {} under bound {}",
                    r.pattern,
                    ns,
                    r.bound_ns
                );
            }
            assert!(
                r.cp_ns as f64 <= r.fifo_ns as f64 * 1.02,
                "{}: critical-path lost to FIFO beyond noise",
                r.pattern
            );
        }
    }

    /// The closed loop on the real pool: exact execution, at least one
    /// journaled actuation from the critical-path policy, and the whole
    /// DAG on the zero-alloc inline tier.
    #[test]
    fn closed_loop_steers_and_stays_inline() {
        let lr = closed_loop(true);
        assert!(lr.checksum_ok, "pool run diverged from sequential oracle");
        assert!(lr.engine_steps >= 1);
        assert!(
            lr.actuations >= 1,
            "critical-path policy never actuated through the journal"
        );
        assert_eq!(lr.boxed_tasks, 0, "a DAG node fell off the inline tier");
    }

    /// Fault injection: the scope joins and no node runs twice.
    #[test]
    fn chaos_smoke_releases_every_node_exactly_once() {
        let (_nodes, at_most_once) = chaos_smoke();
        assert!(at_most_once);
    }

    #[test]
    fn runs_fast() {
        run(true);
    }
}
