//! Task Bench-style DAG workload matrix.
//!
//! A seeded, parameterized generator for the dependency patterns the
//! Task Bench suite uses to compare runtime systems: trivial
//! (embarrassingly parallel), 1-D/2-D stencils, reduction trees, FFT
//! butterflies, wavefront sweeps, and seeded random DAGs — with tunable
//! width, depth, task grain (ops), and per-edge communication weight
//! (bytes). Every generated DAG is **acyclic by construction**: nodes are
//! numbered level by level and edges only point from level `l-1` to level
//! `l`, so every predecessor id is strictly smaller than its consumer's —
//! exactly the wiring order [`lg_runtime::DagScope::spawn_after`]
//! requires.
//!
//! The same [`DagSpec`] runs on both substrates:
//!
//! * [`run_on_sim`] — an *external* scheduler over
//!   [`lg_sim::SimRuntime::step_boundary`]: ready nodes are withheld
//!   until their dependencies resolve, and the submission order is the
//!   scheduling policy under test ([`DagSched`]). Virtual time makes
//!   makespan comparisons exact and reproducible.
//! * [`run_on_pool`] — real execution through
//!   [`lg_runtime::ThreadPool::dag_scope`], with per-node critical-path
//!   hints driving the runtime's two-level priority, a checksum over the
//!   computed values, and an execution trace (begin/end sequence stamps,
//!   run counts) the property tests check dependency order against.
//!
//! The generator also computes the schedule-independent lower bound every
//! critical-path experiment is judged against: per-node cost under a
//! [`CostModel`], longest path to an exit ([`DagSpec::height_ns`]), and
//! the critical-path marking (`depth + height ≥ (1-ε)·cp`) the runtime's
//! priority lane consumes.

use lg_core::Clock;
use lg_runtime::{DagHint, DagNodeId, ThreadPool};
use lg_sim::SimRuntime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Dependency pattern of a generated DAG (the Task Bench matrix rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DagPattern {
    /// No dependencies at all — `width × depth` independent tasks
    /// (embarrassingly parallel; any scheduler should tie on this).
    Trivial,
    /// 1-D stencil: node `(l, i)` depends on `(l-1, i-1..=i+1)`, clamped.
    Stencil1d,
    /// 2-D stencil flattened to a row: neighbours at `i`, `i±1`, and
    /// `i±stride` with `stride = ⌈√width⌉`.
    Stencil2d,
    /// Binary reduction tree: `width` leaves, each level halves (the
    /// depth parameter is derived: `⌈log₂ width⌉ + 1` levels).
    Tree,
    /// FFT butterfly: node `(l, i)` depends on `(l-1, i)` and
    /// `(l-1, i ^ 2^((l-1) mod log₂ w))`.
    Butterfly,
    /// Triangular-solve sweep (right-looking forward substitution).
    /// Level `l` is elimination step `l`; its index-0 node is the
    /// *diagonal* (finalises unknown `l`), the rest are trailing
    /// updates, and the active window contracts by one cell per step:
    /// level `l` has `min(width, depth - l)` nodes. Node `(l, i)`
    /// depends on the previous diagonal `(l-1, 0)` — every update needs
    /// the newly finalised unknown — and on its own cell's previous
    /// update `(l-1, i+1)` (cells shift down as the window slides).
    /// The diagonal chain gates everything downstream, so frontier
    /// nodes differ sharply in remaining height: a FIFO scheduler
    /// buries each new diagonal behind the backlog of old updates,
    /// while a critical-path scheduler runs it immediately — the shape
    /// height-aware scheduling exists for.
    Sweep,
    /// Seeded random: each node depends on 1–3 uniformly drawn nodes of
    /// the previous level.
    Random,
}

impl DagPattern {
    /// All patterns, in matrix order.
    pub const ALL: [DagPattern; 7] = [
        DagPattern::Trivial,
        DagPattern::Stencil1d,
        DagPattern::Stencil2d,
        DagPattern::Tree,
        DagPattern::Butterfly,
        DagPattern::Sweep,
        DagPattern::Random,
    ];

    /// Short stable name (table/CSV key).
    pub fn name(&self) -> &'static str {
        match self {
            DagPattern::Trivial => "trivial",
            DagPattern::Stencil1d => "stencil1d",
            DagPattern::Stencil2d => "stencil2d",
            DagPattern::Tree => "tree",
            DagPattern::Butterfly => "butterfly",
            DagPattern::Sweep => "sweep",
            DagPattern::Random => "random",
        }
    }
}

/// Parameters of a generated DAG.
#[derive(Clone, Copy, Debug)]
pub struct DagConfig {
    /// Dependency pattern.
    pub pattern: DagPattern,
    /// Maximum nodes per level (exact for most patterns; [`DagPattern::Tree`]
    /// uses it as the leaf count, [`DagPattern::Sweep`] ramps up to it).
    pub width: usize,
    /// Number of levels ([`DagPattern::Tree`] derives its own).
    pub depth: usize,
    /// Mean task grain in operations.
    pub grain_ops: f64,
    /// Per-node grain spread: ops are `grain_ops × (1 + spread × u³)`
    /// with `u` uniform in `[0, 1)`, seeded. The cubed draw makes the
    /// imbalance heavy-tailed — most tasks sit near `grain_ops`, a few
    /// run up to `(1 + spread)×` longer — which is the load shape that
    /// separates height-aware schedulers from greedy ones (a uniform
    /// spread mostly averages out across a wide frontier).
    pub grain_spread: f64,
    /// Communication weight per dependency edge, in bytes: a node's
    /// memory traffic is `indegree × comm_bytes`.
    pub comm_bytes: f64,
    /// Generator seed (grain draws and random-pattern edges).
    pub seed: u64,
}

impl Default for DagConfig {
    fn default() -> Self {
        Self {
            pattern: DagPattern::Stencil1d,
            width: 16,
            depth: 16,
            grain_ops: 1e6,
            grain_spread: 0.0,
            comm_bytes: 0.0,
            seed: 1,
        }
    }
}

/// Cost model translating a node's `(ops, bytes)` into nanoseconds, used
/// for heights, critical-path marking, and the makespan lower bound. The
/// additive form (compute time + transfer time) is the standard
/// list-scheduling abstraction; the fluid simulator will disagree under
/// bandwidth contention, which is part of what the experiments measure.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Core compute rate (ops/s).
    pub ops_per_s: f64,
    /// Memory bandwidth per task (bytes/s).
    pub bytes_per_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            ops_per_s: 1e9,
            bytes_per_s: 1e10,
        }
    }
}

impl CostModel {
    /// Modelled execution time of a node, ns.
    pub fn cost_ns(&self, ops: f64, bytes: f64) -> u64 {
        (ops / self.ops_per_s * 1e9 + bytes / self.bytes_per_s * 1e9).ceil() as u64
    }
}

/// A generated DAG: CSR adjacency in both directions plus the per-node
/// schedule metadata (level, cost, height, critical flag).
#[derive(Clone, Debug)]
pub struct DagSpec {
    /// The generating parameters.
    pub config: DagConfig,
    /// Level (distance from the entry layer) of each node.
    pub level: Vec<u32>,
    /// CSR offsets into [`DagSpec::preds`] (`len = nodes + 1`).
    pub pred_off: Vec<u32>,
    /// Concatenated predecessor lists.
    pub preds: Vec<u32>,
    /// CSR offsets into [`DagSpec::succs`] (`len = nodes + 1`).
    pub succ_off: Vec<u32>,
    /// Concatenated successor lists.
    pub succs: Vec<u32>,
    /// Operations per node.
    pub ops: Vec<f64>,
    /// Bytes per node (`indegree × comm_bytes`).
    pub bytes: Vec<f64>,
    /// Modelled cost per node, ns.
    pub cost_ns: Vec<u64>,
    /// Longest cost-weighted path from each node to an exit (inclusive).
    pub height_ns: Vec<u64>,
    /// Nodes on (or within ε of) the critical path.
    pub critical: Vec<bool>,
    /// Critical-path length under the additive [`CostModel`], ns.
    pub cp_ns: u64,
    /// Total modelled work under the additive [`CostModel`], ns.
    pub work_ns: u64,
    /// Compute-only critical-path length, ns (floored). Unlike the
    /// additive `cp_ns`, this is a true lower bound on *any* executor —
    /// including the fluid simulator, whose roofline model overlaps
    /// transfer with compute instead of adding it.
    pub cp_compute_ns: u64,
    /// Compute-only total work, ns (floored); see [`DagSpec::cp_compute_ns`].
    pub work_compute_ns: u64,
}

/// Per-level node counts for a pattern (the generator's only
/// pattern-specific shape decision besides edges).
fn level_sizes(cfg: &DagConfig) -> Vec<usize> {
    let w = cfg.width.max(1);
    let d = cfg.depth.max(1);
    match cfg.pattern {
        DagPattern::Tree => {
            let mut sizes = vec![w];
            let mut cur = w;
            while cur > 1 {
                cur = cur.div_ceil(2);
                sizes.push(cur);
            }
            sizes
        }
        DagPattern::Sweep => (0..d).map(|l| (d - l).min(w).max(1)).collect(),
        _ => vec![w; d],
    }
}

/// Predecessors (as previous-level indices) of node `i` in level `l > 0`.
fn preds_of(cfg: &DagConfig, l: usize, i: usize, prev_len: usize, rng: &mut StdRng) -> Vec<usize> {
    let clamp =
        |j: i64| -> Option<usize> { (j >= 0 && (j as usize) < prev_len).then_some(j as usize) };
    let mut ps: Vec<usize> = match cfg.pattern {
        DagPattern::Trivial => Vec::new(),
        DagPattern::Stencil1d => (-1..=1).filter_map(|d| clamp(i as i64 + d)).collect(),
        DagPattern::Stencil2d => {
            let stride = (cfg.width.max(1) as f64).sqrt().ceil() as i64;
            [0, -1, 1, -stride, stride]
                .iter()
                .filter_map(|&d| clamp(i as i64 + d))
                .collect()
        }
        DagPattern::Tree => [2 * i, 2 * i + 1]
            .iter()
            .filter_map(|&j| (j < prev_len).then_some(j))
            .collect(),
        DagPattern::Butterfly => {
            let logw = usize::BITS - (prev_len.max(2) - 1).leading_zeros();
            let partner = i ^ (1usize << ((l - 1) as u32 % logw));
            let mut v = vec![i.min(prev_len - 1)];
            if partner < prev_len && partner != v[0] {
                v.push(partner);
            }
            v
        }
        // Previous diagonal gates the step; own-cell chain shifts by one
        // as the active window slides (clamped at the width cap).
        DagPattern::Sweep => vec![0, (i + 1).min(prev_len - 1)],
        DagPattern::Random => {
            let k = rng.gen_range(1..=3usize.min(prev_len));
            let mut v: Vec<usize> = (0..k).map(|_| rng.gen_range(0..prev_len)).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
    };
    ps.sort_unstable();
    ps.dedup();
    ps
}

/// Fraction of `cp_ns` within which a node's `depth + height` counts as
/// critical. A small band (rather than exact equality) keeps the marking
/// robust to grain spread producing near-ties.
const CRITICAL_EPS: f64 = 0.02;

/// Generates the DAG described by `cfg`, with schedule metadata under
/// `model`.
pub fn generate(cfg: &DagConfig, model: &CostModel) -> DagSpec {
    let sizes = level_sizes(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n: usize = sizes.iter().sum();
    let mut level = Vec::with_capacity(n);
    let mut pred_off = Vec::with_capacity(n + 1);
    let mut preds: Vec<u32> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    pred_off.push(0u32);
    let mut level_base = Vec::with_capacity(sizes.len());
    let mut base = 0usize;
    for &s in &sizes {
        level_base.push(base);
        base += s;
    }
    for (l, &sz) in sizes.iter().enumerate() {
        for i in 0..sz {
            level.push(l as u32);
            if l > 0 {
                let prev_len = sizes[l - 1];
                for p in preds_of(cfg, l, i, prev_len, &mut rng) {
                    preds.push((level_base[l - 1] + p) as u32);
                }
            }
            pred_off.push(preds.len() as u32);
            let u: f64 = rng.gen_range(0.0..1.0);
            ops.push(cfg.grain_ops * (1.0 + cfg.grain_spread * u * u * u));
        }
    }
    // Transpose to successor CSR.
    let mut succ_counts = vec![0u32; n];
    for &p in &preds {
        succ_counts[p as usize] += 1;
    }
    let mut succ_off = Vec::with_capacity(n + 1);
    succ_off.push(0u32);
    for c in &succ_counts {
        succ_off.push(succ_off.last().unwrap() + c);
    }
    let mut succs = vec![0u32; preds.len()];
    let mut cursor: Vec<u32> = succ_off[..n].to_vec();
    for node in 0..n {
        for &pred in &preds[pred_off[node] as usize..pred_off[node + 1] as usize] {
            let p = pred as usize;
            succs[cursor[p] as usize] = node as u32;
            cursor[p] += 1;
        }
    }
    // Costs, heights (reverse topo = reverse node order), earliest
    // starts (forward), critical marking.
    let bytes: Vec<f64> = (0..n)
        .map(|i| (pred_off[i + 1] - pred_off[i]) as f64 * cfg.comm_bytes)
        .collect();
    let cost_ns: Vec<u64> = (0..n).map(|i| model.cost_ns(ops[i], bytes[i])).collect();
    let mut height_ns = vec![0u64; n];
    for node in (0..n).rev() {
        let tail = (succ_off[node] as usize..succ_off[node + 1] as usize)
            .map(|e| height_ns[succs[e] as usize])
            .max()
            .unwrap_or(0);
        height_ns[node] = cost_ns[node] + tail;
    }
    let mut est = vec![0u64; n];
    for node in 0..n {
        est[node] = (pred_off[node] as usize..pred_off[node + 1] as usize)
            .map(|e| {
                let p = preds[e] as usize;
                est[p] + cost_ns[p]
            })
            .max()
            .unwrap_or(0);
    }
    let cp_ns = height_ns.iter().copied().max().unwrap_or(0);
    let band = (cp_ns as f64 * (1.0 - CRITICAL_EPS)) as u64;
    let critical: Vec<bool> = (0..n).map(|i| est[i] + height_ns[i] >= band).collect();
    let work_ns = cost_ns.iter().sum();
    // Compute-only counterparts (no transfer term, no per-node ceil):
    // the fluid simulator can beat the additive model on transfer time
    // (roofline overlap) but never on pure compute, so these floored
    // figures lower-bound every real or simulated schedule.
    let comp_ns: Vec<f64> = ops.iter().map(|&o| o / model.ops_per_s * 1e9).collect();
    let mut comp_height = vec![0f64; n];
    for node in (0..n).rev() {
        let tail = (succ_off[node] as usize..succ_off[node + 1] as usize)
            .map(|e| comp_height[succs[e] as usize])
            .fold(0f64, f64::max);
        comp_height[node] = comp_ns[node] + tail;
    }
    let cp_compute_ns = comp_height.iter().copied().fold(0f64, f64::max).floor() as u64;
    let work_compute_ns = comp_ns.iter().sum::<f64>().floor() as u64;
    DagSpec {
        config: *cfg,
        level,
        pred_off,
        preds,
        succ_off,
        succs,
        ops,
        bytes,
        cost_ns,
        height_ns,
        critical,
        cp_ns,
        work_ns,
        cp_compute_ns,
        work_compute_ns,
    }
}

impl DagSpec {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.level.len()
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level.last().map_or(0, |&l| l as usize + 1)
    }

    /// Number of dependency edges.
    pub fn edges(&self) -> usize {
        self.preds.len()
    }

    /// Predecessors of `node`.
    pub fn preds_of(&self, node: usize) -> &[u32] {
        &self.preds[self.pred_off[node] as usize..self.pred_off[node + 1] as usize]
    }

    /// Successors of `node`.
    pub fn succs_of(&self, node: usize) -> &[u32] {
        &self.succs[self.succ_off[node] as usize..self.succ_off[node + 1] as usize]
    }

    /// The greedy P-worker makespan lower bound:
    /// `max(cp, total_work / workers)`, evaluated on the compute-only
    /// costs so it holds for the fluid simulator too (whose roofline
    /// model overlaps transfer with compute, undercutting the additive
    /// [`CostModel`]).
    pub fn makespan_bound_ns(&self, workers: usize) -> u64 {
        self.cp_compute_ns
            .max((self.work_compute_ns as f64 / workers.max(1) as f64).floor() as u64)
    }

    /// Structural validation — the property-test oracle. Checks that the
    /// DAG is acyclic by construction (every edge points to a strictly
    /// smaller id on the previous level), that level populations respect
    /// the declared width/depth, that CSR transposition is an involution,
    /// and that heights decrease along edges.
    ///
    /// # Panics
    /// Panics with a description on the first violated invariant.
    pub fn validate(&self) {
        let n = self.nodes();
        let w = self.config.width.max(1);
        assert_eq!(self.pred_off.len(), n + 1);
        assert_eq!(self.succ_off.len(), n + 1);
        let expected_levels = match self.config.pattern {
            DagPattern::Tree => {
                let mut cur = w;
                let mut lv = 1;
                while cur > 1 {
                    cur = cur.div_ceil(2);
                    lv += 1;
                }
                lv
            }
            _ => self.config.depth.max(1),
        };
        assert_eq!(self.levels(), expected_levels, "level count");
        let mut pop = vec![0usize; expected_levels];
        for &l in &self.level {
            pop[l as usize] += 1;
        }
        for (l, &p) in pop.iter().enumerate() {
            assert!(p >= 1, "level {l} empty");
            assert!(p <= w, "level {l} wider ({p}) than declared ({w})");
        }
        for node in 0..n {
            for &p in self.preds_of(node) {
                assert!((p as usize) < node, "edge {p} → {node} not forward");
                assert_eq!(
                    self.level[p as usize] + 1,
                    self.level[node],
                    "edge {p} → {node} skips levels"
                );
                assert!(
                    self.height_ns[p as usize] > self.height_ns[node],
                    "height not decreasing along {p} → {node}"
                );
                assert!(
                    self.succs_of(p as usize).contains(&(node as u32)),
                    "transpose missing {p} → {node}"
                );
            }
            if self.level[node] > 0 && self.config.pattern != DagPattern::Trivial {
                assert!(
                    !self.preds_of(node).is_empty(),
                    "non-root node {node} has no predecessors"
                );
            }
        }
        assert_eq!(
            self.succs.len(),
            self.preds.len(),
            "transpose changed edge count"
        );
        assert_eq!(
            self.cp_ns,
            self.height_ns.iter().copied().max().unwrap_or(0)
        );
        assert!(
            self.critical.iter().any(|&c| c) || n == 0,
            "no node marked critical"
        );
    }
}

/// Ready-queue policy of the external scheduler in [`run_on_sim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagSched {
    /// Submit in the order nodes became ready.
    Fifo,
    /// Submit a uniformly random ready node (seeded) — the
    /// "work-stealing picks arbitrarily" baseline.
    RandomSteal(u64),
    /// Submit the ready node with the greatest remaining height — the
    /// critical-path-first list scheduler the runtime's priority lane
    /// approximates online.
    CriticalPath,
}

impl DagSched {
    /// Short stable name (table/CSV key).
    pub fn name(&self) -> &'static str {
        match self {
            DagSched::Fifo => "fifo",
            DagSched::RandomSteal(_) => "random",
            DagSched::CriticalPath => "critical-path",
        }
    }
}

/// Result of one simulated DAG execution.
#[derive(Clone, Copy, Debug)]
pub struct DagSimReport {
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
    /// The schedule-independent lower bound for this worker count.
    pub bound_ns: u64,
    /// Nodes executed (must equal `spec.nodes()`).
    pub tasks: u64,
    /// Energy integrated over the run, J.
    pub energy_j: f64,
}

/// Executes `spec` on the simulator under `sched`, submitting a node only
/// when a core is free — the ready-queue *order* is therefore entirely the
/// policy's, not the simulator's FIFO. Returns the exact virtual makespan.
///
/// # Panics
/// Panics if the simulator deadlocks (no core frees while work remains),
/// which would indicate a generator bug — `validate()` rules it out.
pub fn run_on_sim(sim: &mut SimRuntime, spec: &DagSpec, sched: DagSched) -> DagSimReport {
    let n = spec.nodes();
    let workers = sim.spec().cores;
    let mut remaining: Vec<u32> = (0..n)
        .map(|i| spec.pred_off[i + 1] - spec.pred_off[i])
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut rng = match sched {
        DagSched::RandomSteal(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let t0 = sim.clock().now_ns();
    let e0 = sim.total_energy_j();
    let task = sim.lg().intern(spec.config.pattern.name());
    let mut in_flight = 0usize;
    let mut done = 0u64;
    while done < n as u64 {
        while in_flight < workers && !ready.is_empty() {
            let pick = match sched {
                DagSched::Fifo => 0,
                DagSched::RandomSteal(_) => rng.as_mut().map_or(0, |r| r.gen_range(0..ready.len())),
                DagSched::CriticalPath => ready
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &node)| spec.height_ns[node])
                    .map_or(0, |(idx, _)| idx),
            };
            let node = ready.swap_remove(pick);
            // Keep FIFO order stable under swap_remove: pop from the
            // front instead.
            let node = if sched == DagSched::Fifo {
                ready.insert(0, node);
                ready.remove(0)
            } else {
                node
            };
            sim.submit_interned(task, spec.ops[node], spec.bytes[node], node as u64);
            in_flight += 1;
        }
        assert!(
            sim.step_boundary(),
            "simulator idle with {} nodes unfinished",
            n as u64 - done
        );
        for (tag, _t_ns) in sim.take_completions() {
            let node = tag as usize;
            done += 1;
            in_flight -= 1;
            for &s in spec.succs_of(node) {
                remaining[s as usize] -= 1;
                if remaining[s as usize] == 0 {
                    ready.push(s as usize);
                }
            }
        }
    }
    DagSimReport {
        makespan_ns: sim.clock().now_ns() - t0,
        bound_ns: spec.makespan_bound_ns(workers),
        tasks: done,
        energy_j: sim.total_energy_j() - e0,
    }
}

/// Execution trace of a real-pool DAG run: per-node run counts and
/// global begin/end sequence stamps, enough to check exactly-once and
/// dependency order after the fact.
#[derive(Debug)]
pub struct DagTrace {
    /// Times each node's body ran.
    pub runs: Vec<AtomicU64>,
    /// Global sequence number at body entry (0 = never ran).
    pub begin_seq: Vec<AtomicU64>,
    /// Global sequence number at body exit (0 = never finished).
    pub end_seq: Vec<AtomicU64>,
    seq: AtomicU64,
}

impl DagTrace {
    /// A trace for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            runs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            begin_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            end_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            seq: AtomicU64::new(1),
        }
    }

    /// Asserts every node ran exactly once and every edge's predecessor
    /// finished before its consumer began.
    ///
    /// # Panics
    /// Panics with a description on the first violation.
    pub fn assert_valid_execution(&self, spec: &DagSpec) {
        for node in 0..spec.nodes() {
            assert_eq!(
                self.runs[node].load(Ordering::Relaxed),
                1,
                "node {node} did not run exactly once"
            );
            let b = self.begin_seq[node].load(Ordering::Relaxed);
            let e = self.end_seq[node].load(Ordering::Relaxed);
            assert!(b > 0 && e > b, "node {node} has a torn trace ({b}, {e})");
            for &p in spec.preds_of(node) {
                let pe = self.end_seq[p as usize].load(Ordering::Relaxed);
                assert!(
                    pe > 0 && pe < b,
                    "node {node} began (seq {b}) before predecessor {p} ended (seq {pe})"
                );
            }
        }
    }
}

/// Result of one real-pool DAG execution.
#[derive(Clone, Copy, Debug)]
pub struct DagPoolReport {
    /// Wall-clock elapsed, ns.
    pub elapsed_ns: u64,
    /// Order-independent checksum over every node's computed value.
    pub checksum: u64,
    /// Nodes executed.
    pub nodes: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Real busywork standing in for `ops` operations (scaled by
/// `ops_scale` so property tests can shrink the grain): a seeded integer
/// recurrence whose result feeds the checksum, so the work cannot be
/// optimized away.
fn grind(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// Executes `spec` on the real pool through [`ThreadPool::dag_scope`],
/// passing each node's critical-path marking and height as its
/// [`DagHint`] so the runtime's priority lane sees exactly what the
/// offline generator computed. `ops_scale` maps modelled ops to busywork
/// iterations (use `1e-3`..`1e-2` in tests to keep runs short). Writes
/// the execution into `trace` (which must be sized for `spec.nodes()`).
pub fn run_on_pool_traced(
    pool: &ThreadPool,
    spec: &DagSpec,
    ops_scale: f64,
    trace: &DagTrace,
) -> DagPoolReport {
    run_on_pool_inner(pool, spec, ops_scale, trace, None)
}

/// [`run_on_pool`] with release/completion accounting folded into
/// `stats` (the `dag.*` gauge source — register it on the instance's
/// introspection facade so policies can see the frontier).
pub fn run_on_pool_observed(
    pool: &ThreadPool,
    spec: &DagSpec,
    ops_scale: f64,
    stats: std::sync::Arc<lg_core::DagStats>,
) -> DagPoolReport {
    let trace = DagTrace::new(spec.nodes());
    run_on_pool_inner(pool, spec, ops_scale, &trace, Some(stats))
}

fn run_on_pool_inner(
    pool: &ThreadPool,
    spec: &DagSpec,
    ops_scale: f64,
    trace: &DagTrace,
    stats: Option<std::sync::Arc<lg_core::DagStats>>,
) -> DagPoolReport {
    assert_eq!(trace.runs.len(), spec.nodes(), "trace sized for spec");
    let n = spec.nodes();
    let started = std::time::Instant::now();
    // An unregistered stats sink costs a handful of relaxed atomics per
    // node, so the unobserved path just gets a private one.
    let stats = stats.unwrap_or_else(lg_core::DagStats::new);
    // One shared context keeps the node closure at two words (ctx ref +
    // node index) so every body rides the zero-alloc inline tier.
    struct RunCtx<'a> {
        checksum: AtomicU64,
        trace: &'a DagTrace,
        iters: Vec<u64>,
    }
    let ctx = RunCtx {
        checksum: AtomicU64::new(0),
        trace,
        iters: (0..n)
            .map(|i| (spec.ops[i] * ops_scale).max(1.0) as u64)
            .collect(),
    };
    pool.dag_scope_observed(stats, |g| {
        let mut ids: Vec<DagNodeId> = Vec::with_capacity(n);
        let mut deps: Vec<DagNodeId> = Vec::new();
        for node in 0..n {
            deps.clear();
            deps.extend(spec.preds_of(node).iter().map(|&p| ids[p as usize]));
            let hint = DagHint {
                critical: spec.critical[node],
                height_ns: spec.height_ns[node],
            };
            let ctx = &ctx;
            let id = g.spawn_after_hinted(spec.config.pattern.name(), &deps, hint, move || {
                let t = ctx.trace;
                t.runs[node].fetch_add(1, Ordering::Relaxed);
                t.begin_seq[node].store(t.seq.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                let v = grind(splitmix(node as u64), ctx.iters[node]);
                ctx.checksum
                    .fetch_xor(v ^ splitmix(node as u64), Ordering::Relaxed);
                t.end_seq[node].store(t.seq.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            });
            ids.push(id);
        }
    });
    let checksum = &ctx.checksum;
    DagPoolReport {
        elapsed_ns: started.elapsed().as_nanos() as u64,
        checksum: checksum.load(Ordering::Relaxed),
        nodes: n as u64,
    }
}

/// [`run_on_pool_traced`] without keeping the trace.
pub fn run_on_pool(pool: &ThreadPool, spec: &DagSpec, ops_scale: f64) -> DagPoolReport {
    let trace = DagTrace::new(spec.nodes());
    run_on_pool_traced(pool, spec, ops_scale, &trace)
}

/// The checksum `run_on_pool` must produce for `spec` at `ops_scale` —
/// computed sequentially, order-independent by construction (XOR).
pub fn expected_checksum(spec: &DagSpec, ops_scale: f64) -> u64 {
    let mut acc = 0u64;
    for node in 0..spec.nodes() {
        let iters = (spec.ops[node] * ops_scale).max(1.0) as u64;
        acc ^= grind(splitmix(node as u64), iters) ^ splitmix(node as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_core::LookingGlass;
    use lg_metrics::PowerModel;
    use lg_runtime::PoolConfig;
    use lg_sim::MachineSpec;

    fn machine(cores: usize) -> MachineSpec {
        MachineSpec {
            cores,
            core_flops: 1e9,
            mem_bw: 1e12,
            power: PowerModel::new(10.0, 2.0),
            sched_overhead_ns: 0,
            stall_intensity: 0.5,
        }
    }

    fn cfg(pattern: DagPattern) -> DagConfig {
        DagConfig {
            pattern,
            width: 12,
            depth: 10,
            grain_ops: 1e5,
            grain_spread: 2.0,
            comm_bytes: 64.0,
            seed: 7,
        }
    }

    #[test]
    fn all_patterns_generate_valid_dags() {
        for p in DagPattern::ALL {
            let spec = generate(&cfg(p), &CostModel::default());
            spec.validate();
            assert!(spec.nodes() > 0);
        }
    }

    #[test]
    fn trivial_has_no_edges_and_cp_is_one_task() {
        let spec = generate(&cfg(DagPattern::Trivial), &CostModel::default());
        assert_eq!(spec.edges(), 0);
        let max_cost = spec.cost_ns.iter().copied().max().unwrap();
        assert_eq!(spec.cp_ns, max_cost);
    }

    #[test]
    fn tree_reduces_to_single_exit() {
        let spec = generate(&cfg(DagPattern::Tree), &CostModel::default());
        let exits = (0..spec.nodes())
            .filter(|&i| spec.succs_of(i).is_empty())
            .count();
        assert_eq!(exits, 1, "reduction must converge to one root");
    }

    #[test]
    fn sweep_contracts_as_the_window_slides() {
        let spec = generate(&cfg(DagPattern::Sweep), &CostModel::default());
        let mut pop = vec![0usize; spec.levels()];
        for &l in &spec.level {
            pop[l as usize] += 1;
        }
        // Trapezoid: starts at min(width, depth), sheds one cell per
        // elimination step, ends at the final diagonal.
        assert!(pop.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*pop.last().unwrap(), 1);
        // Every level's diagonal gates the whole next level.
        let base: Vec<usize> = pop
            .iter()
            .scan(0usize, |b, &s| {
                let cur = *b;
                *b += s;
                Some(cur)
            })
            .collect();
        for l in 1..spec.levels() {
            for i in 0..pop[l] {
                let node = base[l] + i;
                assert!(
                    spec.preds_of(node).contains(&(base[l - 1] as u32)),
                    "node {node} not gated by previous diagonal"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&cfg(DagPattern::Random), &CostModel::default());
        let b = generate(&cfg(DagPattern::Random), &CostModel::default());
        assert_eq!(a.preds, b.preds);
        assert_eq!(a.ops, b.ops);
        let mut c2 = cfg(DagPattern::Random);
        c2.seed = 8;
        let c = generate(&c2, &CostModel::default());
        assert_ne!(a.preds, c.preds, "different seed, different random DAG");
    }

    #[test]
    fn sim_runs_complete_and_respect_bound() {
        for p in DagPattern::ALL {
            let spec = generate(&cfg(p), &CostModel::default());
            for sched in [
                DagSched::Fifo,
                DagSched::RandomSteal(3),
                DagSched::CriticalPath,
            ] {
                let mut sim = SimRuntime::new(machine(4));
                let r = run_on_sim(&mut sim, &spec, sched);
                assert_eq!(r.tasks, spec.nodes() as u64, "{p:?}/{sched:?}");
                assert!(
                    r.makespan_ns >= r.bound_ns,
                    "{p:?}/{sched:?}: makespan {} under bound {}",
                    r.makespan_ns,
                    r.bound_ns
                );
            }
        }
    }

    #[test]
    fn critical_path_beats_fifo_on_imbalanced_sweep() {
        let mut c = cfg(DagPattern::Sweep);
        c.width = 8;
        c.depth = 64;
        c.grain_spread = 4.0;
        let spec = generate(&c, &CostModel::default());
        let run = |sched| {
            let mut sim = SimRuntime::new(machine(8));
            run_on_sim(&mut sim, &spec, sched).makespan_ns
        };
        let fifo = run(DagSched::Fifo);
        let cp = run(DagSched::CriticalPath);
        assert!(
            cp <= fifo,
            "critical-path ({cp}) should not lose to FIFO ({fifo}) on a sweep"
        );
    }

    #[test]
    fn pool_run_matches_expected_checksum() {
        let spec = generate(&cfg(DagPattern::Stencil1d), &CostModel::default());
        let pool = ThreadPool::new(LookingGlass::builder().build(), PoolConfig::with_workers(4));
        let trace = DagTrace::new(spec.nodes());
        let r = run_on_pool_traced(&pool, &spec, 1e-3, &trace);
        assert_eq!(r.checksum, expected_checksum(&spec, 1e-3));
        assert_eq!(r.nodes, spec.nodes() as u64);
        trace.assert_valid_execution(&spec);
    }
}
