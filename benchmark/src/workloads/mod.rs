//! The four closed-loop workloads and the block driver they share.
//!
//! Every workload is a closed loop driven from one thread: the next op is
//! issued only after the previous one completed and was checked against
//! its reference. A run is many short (observed block, disabled block)
//! pairs; "disabled" flips `dispatcher().set_enabled(false)` on every
//! looking-glass instance the workload owns and nothing else, so the
//! ratio within a pair is the cost of observation alone.
//!
//! Why many short blocks: a shared 2-CPU host drifts between faster and
//! slower spells that last a second or more. A median over fifty 0.2 s
//! blocks sits in the prevailing spell; a pair's two blocks share a
//! spell, so the per-pair ratio cancels it.

pub mod closedloop;
pub mod dagdrain;
pub mod simserve;
pub mod taskflood;

use crate::stats;
use crate::trace::Tracing;
use std::time::{Duration, Instant};

/// Target length of one block, seconds; a run has at most `MAX_PAIRS`
/// and at least `MIN_PAIRS` observed/disabled pairs.
const BLOCK_S: f64 = 0.2;
const MAX_PAIRS: usize = 50;
const MIN_PAIRS: usize = 5;
/// Set-ups per run, about; `setup_s` is their median.
const SETUPS: usize = 10;

/// What one op (one latency sample) did.
pub struct OpOutcome {
    /// Work items attempted (tasks, DAG nodes, cycles, simulated items).
    pub ops: u64,
    /// Of those, how many failed their correctness check.
    pub failed: u64,
    /// The workload's latency sample for this op, ns.
    pub latency_ns: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Blocks end on a multiple of this many ops, so that a workload
    /// cycling through unlike ops gives every block the same mix.
    const GRANULE: u64 = 1;

    /// Builds pools/fleets, generates inputs from `seed`, warms up.
    /// `corrupt` damages the reference the checks compare against
    /// (`--selftest` proves the checks can fail).
    fn setup(seed: u64, nproc: usize, corrupt: bool) -> Self;

    /// Flips the dispatcher switch on every instance the workload owns.
    fn set_observed(&mut self, on: bool);

    /// One closed-loop op, checked.
    fn op<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> OpOutcome;

    /// End-of-run checks over accumulated state; returns
    /// `(attempted, failed)` to add to the totals.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// One timed block.
pub struct Block {
    pub wall_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub latencies_ns: Vec<u64>,
}

impl Block {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Runs ops back to back for `len`, then reports the block.
pub fn run_block<W: Workload, T: Tracing>(
    w: &mut W,
    tr: &mut T,
    observed: bool,
    len: Duration,
    next_op: &mut u64,
) -> Block {
    w.set_observed(observed);
    let mut b = Block {
        wall_ns: 0,
        ops: 0,
        failed: 0,
        latencies_ns: Vec::with_capacity(4096),
    };
    let start = Instant::now();
    loop {
        let out = w.op(tr, *next_op);
        *next_op += 1;
        b.ops += out.ops;
        b.failed += out.failed;
        b.latencies_ns.push(out.latency_ns);
        let elapsed = start.elapsed();
        if elapsed >= len && (b.latencies_ns.len() as u64).is_multiple_of(W::GRANULE) {
            b.wall_ns = elapsed.as_nanos() as u64;
            return b;
        }
    }
}

/// The end-to-end numbers of one untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_latency_us_p50: f64,
    /// Over all observed samples pooled; printed, not a bounded metric.
    pub op_latency_us_p99: f64,
    pub latency_samples: usize,
    pub observe_efficiency: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The untraced run: interleaved observed/disabled blocks, with the
/// workload torn down and set up afresh every `pairs / SETUPS` pairs.
/// Set-ups spread over the run sample the host's spells the way the
/// blocks do; back to back at the start they would all sit in one.
pub fn run_end_to_end<W: Workload>(
    seed: u64,
    nproc: usize,
    seconds: f64,
    corrupt: bool,
) -> EndToEnd {
    let pairs = ((seconds / (2.0 * BLOCK_S)).round() as usize).clamp(MIN_PAIRS, MAX_PAIRS);
    let len = Duration::from_secs_f64(seconds / (2 * pairs) as f64);
    let every = (pairs / SETUPS).max(1);
    let mut tr = crate::trace::NoTrace;
    let mut next_op = 0u64;
    let mut blocks = Vec::with_capacity(pairs);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut extra = (0, 0);
    // End-of-run checks, then the drop: two live pools would fight over
    // the same cores during the next warm-up.
    let mut retire = |mut w: W| {
        w.set_observed(true);
        let (attempted, failed) = w.finish();
        extra.0 += attempted;
        extra.1 += failed;
    };
    let mut live: Option<W> = None;
    for pair in 0..pairs {
        if pair % every == 0 {
            if let Some(old) = live.take() {
                retire(old);
            }
            let t = Instant::now();
            live = Some(W::setup(seed, nproc, corrupt));
            setup_times.push(t.elapsed().as_secs_f64());
        }
        let w = live.as_mut().expect("set up at pair 0");
        let observed = run_block(w, &mut tr, true, len, &mut next_op);
        let disabled = run_block(w, &mut tr, false, len, &mut next_op);
        blocks.push((observed, disabled));
    }
    retire(live.expect("pairs > 0"));
    let mut e = summarize(&blocks, stats::median(&setup_times));
    e.attempted += extra.0;
    e.failed += extra.1;
    e
}

/// Medians over the (observed, disabled) pairs of a run.
fn summarize(pairs: &[(Block, Block)], setup_s: f64) -> EndToEnd {
    let rates: Vec<f64> = pairs.iter().map(|(o, _)| o.ops_per_s()).collect();
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|(o, d)| o.ops_per_s() / d.ops_per_s())
        .collect();
    let p50s: Vec<f64> = pairs
        .iter()
        .map(|(o, _)| stats::latency_us(&o.latencies_ns).0)
        .collect();
    let pooled: Vec<u64> = pairs
        .iter()
        .flat_map(|(o, _)| o.latencies_ns.iter().copied())
        .collect();
    let sum = |f: fn(&Block) -> u64| pairs.iter().map(|(o, d)| f(o) + f(d)).sum::<u64>();
    EndToEnd {
        setup_s,
        ops_per_s: stats::median(&rates),
        op_latency_us_p50: stats::median(&p50s),
        op_latency_us_p99: stats::latency_us(&pooled).1,
        latency_samples: pooled.len(),
        observe_efficiency: stats::median(&ratios),
        attempted: sum(|b| b.ops),
        failed: sum(|b| b.failed),
    }
}

/// Lets a `LookingGlass` that is about to be dropped actually be freed.
///
/// Every instance is built with a reference cycle — its policy engine
/// holds its introspection facade, whose `policy.adaptation_latency_ns`
/// gauge holds the engine — so a dropped instance leaks itself and
/// everything registered on it (~170 KB bare; see `core.instance_leak_kb`
/// and the README's findings). A workload that builds instances per op
/// would otherwise measure the page-fault cost of its own leak, and its
/// `peak_rss_mb` would be a replay count. Pointing the engine at an empty
/// facade breaks the cycle through public API.
pub fn release_instance(lg: &lg_core::LookingGlass) {
    let empty = lg_core::Introspection::new(lg.profiles().clone(), lg.concurrency().clone());
    lg.policy_engine()
        .attach_introspection(std::sync::Arc::new(empty));
}

/// splitmix64: the one generator every workload derives its inputs from.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
