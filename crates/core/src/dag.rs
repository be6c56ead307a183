//! Online critical-path introspection for DAG-structured work.
//!
//! [`DagStats`] is the write side: a runtime executing a dependency graph
//! calls [`DagStats::on_release`] when a node becomes ready (all
//! dependencies done, task enqueued) and [`DagStats::on_complete`] when
//! its body finishes. The two hooks keep one thing, a live-node histogram
//! by height, in **one cache-aligned block per stripe**. A writer marks
//! its stripe in a `TouchedStripes` mask once, then makes one `Relaxed`
//! add on one cell of its own block: no lock, no allocation, no line
//! another emitter writes, no read of anyone else's cells. A block's
//! cells go negative when a node is released on one stripe and completed
//! on another; only the sum balances.
//!
//! Everything else is derived when it is read. Each gauge folds the
//! touched blocks into one histogram on the stack (48 loads per emitting
//! thread) and computes its value from that:
//!
//! * **`dag.critical_path_len`** — remaining critical-path length in
//!   nanoseconds (cost-model units). Live nodes are bucketed by the log2
//!   of their *height* (downstream cost including the node itself, the
//!   classic upward rank of list scheduling); the topmost non-empty
//!   bucket bounds the longest chain still outstanding. This is exact to
//!   bucket resolution: a node whose dependencies are unmet always has a
//!   live ancestor of strictly greater height, so the maximum over
//!   *released-but-incomplete* nodes equals the maximum over all
//!   incomplete nodes.
//! * **`dag.ready_width`** — released-but-incomplete node count: how much
//!   parallelism the DAG is currently offering the pool.
//! * **`dag.slack_p50`** — median slack of the live frontier: each live
//!   node's slack is the critical path's bucket edge minus its own, and
//!   the median is taken at bucket resolution. Low slack ⇒ most ready
//!   work *is* the critical path ⇒ priority placement pays; high slack ⇒
//!   plenty of off-path work to soak workers. It describes the DAG as it
//!   is now, not the releases since the stats were created.
//!
//! The gauges are registered unstamped through [`DagStats::register_on`]:
//! a capture (once per policy round) pays the fold, a release or
//! completion (once per node) pays nothing for it.
//!
//! [`CriticalPathPolicy`] closes the loop: it reads those gauges from the
//! round snapshot and steers the runtime's `dag.critical_bias` knob
//! through the journaled knob plane.

use crate::arbiter::{DemandClass, DemandProfile};
use crate::knob::KnobId;
use crate::policy::{Policy, PolicyDecision, Trigger};
use crate::snapshot::{Introspection, IntrospectionSnapshot};
use lg_metrics::stripe::{thread_stripe, TouchedStripes, STRIPE_COUNT};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Number of log2 height buckets. Bucket `b` covers heights in
/// `[2^(b-1), 2^b)` ns; 48 buckets span sub-ns grains to ~3 days.
const BUCKETS: usize = 48;

/// One stripe's share of a [`DagStats`]: the live-node delta per
/// log2(height) bucket of the releases and completions made on that
/// stripe (negative where it completed more nodes of a bucket than it
/// released), on lines no other stripe writes.
///
/// There is no ready counter: a release adds one to a live bucket and
/// its completion takes one away, so the live histogram's total *is* the
/// ready count.
#[repr(align(128))]
struct Cells {
    live: [AtomicI64; BUCKETS],
}

/// Striped release/completion statistics for one executing DAG (or a
/// family of DAGs sharing a scheduler — the gauges simply aggregate).
///
/// Heights are in nanoseconds of estimated cost (any monotone cost-model
/// unit works; the generator in `lg-workloads::dag` uses
/// ops/flops + bytes/bandwidth).
pub struct DagStats {
    /// One block per stripe, indexed by the writer's `thread_stripe()`.
    cells: [Cells; STRIPE_COUNT],
    /// The stripes ever written; reads fold only those.
    touched: TouchedStripes,
}

impl DagStats {
    /// Creates an empty stats block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            cells: std::array::from_fn(|_| Cells {
                live: std::array::from_fn(|_| AtomicI64::new(0)),
            }),
            touched: TouchedStripes::new(),
        })
    }

    /// Adds `delta` to the caller's own cell for `height_ns`, marking its
    /// stripe touched first.
    #[inline]
    fn add(&self, height_ns: u64, delta: i64) {
        let i = thread_stripe();
        self.touched.mark(i);
        self.cells[i].live[Self::bucket(height_ns)].fetch_add(delta, Ordering::Relaxed);
    }

    /// The live histogram: every touched block's cells, summed per bucket.
    fn fold(&self) -> [i64; BUCKETS] {
        let mut live = [0i64; BUCKETS];
        for c in self.touched.iter().map(|i| &self.cells[i]) {
            for (sum, n) in live.iter_mut().zip(&c.live) {
                *sum += n.load(Ordering::Relaxed);
            }
        }
        live
    }

    /// The highest bucket with live nodes in a folded histogram.
    fn top(live: &[i64; BUCKETS]) -> Option<usize> {
        live.iter().rposition(|&n| n > 0)
    }

    fn bucket(height_ns: u64) -> usize {
        ((u64::BITS - height_ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper edge (ns) of a bucket, used as the reported estimate.
    fn bucket_edge(b: usize) -> f64 {
        (1u64 << b) as f64
    }

    /// Records a node whose last dependency just completed (it is now
    /// queued or running). `height_ns` is the node's downstream cost
    /// including itself.
    pub fn on_release(&self, height_ns: u64) {
        self.add(height_ns, 1);
    }

    /// Records a released node whose body finished (or was abandoned —
    /// the pair must balance [`DagStats::on_release`]).
    pub fn on_complete(&self, height_ns: u64) {
        self.add(height_ns, -1);
    }

    /// Remaining critical-path estimate in ns: the upper edge of the
    /// highest non-empty live bucket, 0 when no node is live.
    pub fn critical_path_ns(&self) -> f64 {
        Self::top(&self.fold()).map_or(0.0, Self::bucket_edge)
    }

    /// Released-but-incomplete node count.
    pub fn ready_width(&self) -> f64 {
        self.fold().iter().sum::<i64>().max(0) as f64
    }

    /// Median slack (ns) of the live frontier, 0 when no node is live.
    ///
    /// A node in bucket `b` has slack `edge(top) − edge(b)`, `top` being
    /// the critical path's bucket; the median is that of the bucketed
    /// slacks, reported as its bucket's upper edge.
    pub fn slack_p50_ns(&self) -> f64 {
        let live = self.fold();
        let Some(top) = Self::top(&live) else {
            return 0.0;
        };
        let total: i64 = live.iter().filter(|&&n| n > 0).sum();
        // From the top bucket down slack only grows, and so does its
        // bucket: the first bucket that reaches half the frontier holds the
        // median (bucket 0 at the latest, where every live node is seen).
        let mut seen = 0;
        let median = (0..=top)
            .rev()
            .find(|&b| {
                seen += live[b].max(0);
                seen * 2 >= total
            })
            .unwrap_or(0);
        Self::bucket_edge(Self::bucket((1u64 << top) - (1u64 << median)))
    }

    /// The DAG plane's native [`DemandProfile`]: useful width is the
    /// ready frontier (threads beyond it have zero marginal utility —
    /// they idle until a dependency resolves), so during a wide phase
    /// the profile claims threads aggressively and as the critical-path
    /// tail sets in (`ready_width` collapsing toward the chain) it
    /// releases them without any explicit hand-back protocol.
    pub fn demand_profile(&self, alloc: i64) -> DemandProfile {
        DemandProfile::saturating(DemandClass::Dag, 0.0, self.ready_width(), alloc)
    }

    /// Registers the three `dag.*` gauges on an [`Introspection`] facade.
    /// They are unstamped: each capture folds the touched blocks, so the
    /// per-node hooks keep no shared write for the capture's sake.
    pub fn register_on(self: &Arc<Self>, intro: &Introspection) {
        let s = self.clone();
        intro.register_gauge("dag.critical_path_len", move || s.critical_path_ns());
        let s = self.clone();
        intro.register_gauge("dag.ready_width", move || s.ready_width());
        let s = self.clone();
        intro.register_gauge("dag.slack_p50", move || s.slack_p50_ns());
    }
}

/// Steers DAG scheduling from the `dag.*` gauges.
///
/// Control law, evaluated per round against the shared snapshot, on the
/// priority bias (`dag.critical_bias`, 0/1): enable while ready width is
/// scarce relative to the worker count (every placement decision matters
/// — the critical path must not wait behind off-path work), disable when
/// the DAG offers abundant width *and* the live frontier's median slack
/// is a large fraction of the remaining critical path (most ready work is
/// off the path and any order keeps the workers busy, so skip the
/// priority lane's displacement traffic).
///
/// Decisions only carry a knob write when the value *changes*, so the
/// actuation journal records transitions, not steady-state re-asserts.
pub struct CriticalPathPolicy {
    name: String,
    bias_knob: KnobId,
    workers: i64,
    last_bias: Option<i64>,
}

impl CriticalPathPolicy {
    /// A policy steering `bias_knob` for a pool of `workers` threads.
    pub fn new(bias_knob: KnobId, workers: usize) -> Self {
        Self {
            name: "critical-path".to_string(),
            bias_knob,
            workers: workers.max(1) as i64,
            last_bias: None,
        }
    }
}

impl Policy for CriticalPathPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        let (Some(ready), Some(cp)) = (
            snapshot.value_by_name("dag.ready_width"),
            snapshot.value_by_name("dag.critical_path_len"),
        ) else {
            return PolicyDecision::noop();
        };
        let slack = snapshot.value_by_name("dag.slack_p50").unwrap_or(0.0);
        let w = self.workers as f64;
        let want_bias = if ready < 4.0 * w {
            1
        } else if ready >= 8.0 * w && cp > 0.0 && slack >= 0.25 * cp {
            0
        } else {
            self.last_bias.unwrap_or(1)
        };
        if self.last_bias == Some(want_bias) {
            return PolicyDecision::noop();
        }
        self.last_bias = Some(want_bias);
        PolicyDecision::set(self.bias_knob, want_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::ConcurrencyListener;
    use crate::event::TaskNames;
    use crate::knob::{AtomicKnob, Knob, KnobRegistry, KnobSpec};
    use crate::policy::PolicyEngine;
    use crate::profile::ProfileListener;

    fn intro() -> Introspection {
        let names = TaskNames::new();
        let profiles = Arc::new(ProfileListener::new(names.clone()));
        let concurrency = Arc::new(ConcurrencyListener::new(64));
        Introspection::new(profiles, concurrency)
    }

    #[test]
    fn release_complete_pairs_balance() {
        let s = DagStats::new();
        assert_eq!(s.ready_width(), 0.0);
        assert_eq!(s.critical_path_ns(), 0.0);
        s.on_release(1_000);
        s.on_release(500);
        assert_eq!(s.ready_width(), 2.0);
        assert!(s.critical_path_ns() >= 1_000.0);
        s.on_complete(1_000);
        s.on_complete(500);
        assert_eq!(s.ready_width(), 0.0);
        assert_eq!(s.critical_path_ns(), 0.0);
    }

    #[test]
    fn critical_path_tracks_highest_live_bucket() {
        let s = DagStats::new();
        s.on_release(10);
        s.on_release(100_000);
        let high = s.critical_path_ns();
        assert!((100_000.0..400_000.0).contains(&high), "{high}");
        s.on_complete(100_000);
        let low = s.critical_path_ns();
        assert!((10.0..40.0).contains(&low), "{low}");
    }

    #[test]
    fn slack_p50_moves_with_mix() {
        let s = DagStats::new();
        // All releases at full height: slack ~ 0.
        for _ in 0..10 {
            s.on_release(1 << 20);
        }
        assert!(s.slack_p50_ns() <= 2.0, "{}", s.slack_p50_ns());
        for _ in 0..10 {
            s.on_complete(1 << 20);
        }
        // Majority far below the deepest live node: slack ~ cp.
        s.on_release(1 << 20);
        for _ in 0..40 {
            s.on_release(16);
        }
        assert!(s.slack_p50_ns() >= (1 << 19) as f64, "{}", s.slack_p50_ns());
    }

    #[test]
    fn slack_describes_the_live_frontier_not_history() {
        let s = DagStats::new();
        s.on_release(1 << 20);
        for _ in 0..40 {
            s.on_release(16);
        }
        for _ in 0..40 {
            s.on_complete(16);
        }
        // Only the deep node is live: it is the critical path, slack ~ 0.
        assert!(s.slack_p50_ns() <= 2.0, "{}", s.slack_p50_ns());
    }

    #[test]
    fn gauges_fold_through_snapshots() {
        let intro = intro();
        let s = DagStats::new();
        s.register_on(&intro);
        s.on_release(2_000);
        s.on_release(50);
        let snap = intro.capture(1);
        assert_eq!(snap.value_by_name("dag.ready_width"), Some(2.0));
        assert!(snap.value_by_name("dag.critical_path_len").unwrap() >= 2_000.0);
        assert!(snap.value_by_name("dag.slack_p50").is_some());
    }

    #[test]
    fn policy_enables_bias_when_width_scarce() {
        let intro = intro();
        let s = DagStats::new();
        s.register_on(&intro);
        for _ in 0..3 {
            s.on_release(1_000);
        }
        let snap = intro.capture(1);
        let mut p = CriticalPathPolicy::new(KnobId(0), 8);
        let d = p.evaluate(1, Trigger::Periodic, &snap);
        assert_eq!(d.sets.len(), 1);
        assert_eq!(d.sets[0].1, 1);
        // Same state again: no new write (journal records transitions).
        let d2 = p.evaluate(2, Trigger::Periodic, &snap);
        assert!(d2.sets.is_empty());
    }

    #[test]
    fn policy_disables_bias_when_wide_and_slack_rich() {
        let intro = intro();
        let s = DagStats::new();
        s.register_on(&intro);
        // One deep node, many shallow ones: width 65 >> 8 workers, slack
        // near the full critical path.
        s.on_release(1 << 20);
        for _ in 0..64 {
            s.on_release(8);
        }
        let snap = intro.capture(1);
        let mut p = CriticalPathPolicy::new(KnobId(3), 2);
        let d = p.evaluate(1, Trigger::Periodic, &snap);
        assert_eq!(d.sets, vec![(KnobId(3), 0)]);
    }

    #[test]
    fn demand_profile_claims_wide_and_releases_in_tail() {
        let s = DagStats::new();
        for _ in 0..24 {
            s.on_release(1_000);
        }
        // Wide frontier, allocation below it: full marginal utility.
        let wide = s.demand_profile(8);
        assert_eq!(wide.useful_width, Some(24.0));
        assert_eq!(wide.utility_up, 1.0);
        assert_eq!(wide.utility_down, 1.0);
        // Tail: the chain is all that remains — extra threads are dead
        // weight and the profile says so.
        for _ in 0..23 {
            s.on_complete(1_000);
        }
        let tail = s.demand_profile(8);
        assert_eq!(tail.useful_width, Some(1.0));
        assert_eq!(tail.utility_up, 0.0);
        assert_eq!(tail.utility_down, 0.0);
    }

    #[test]
    fn policy_noops_without_dag_gauges() {
        let intro = intro();
        let snap = intro.capture(1);
        let mut p = CriticalPathPolicy::new(KnobId(0), 4);
        assert_eq!(
            p.evaluate(1, Trigger::Periodic, &snap),
            PolicyDecision::noop()
        );
    }

    #[test]
    fn policy_writes_flow_through_engine_journal() {
        let knobs = Arc::new(KnobRegistry::new());
        let bias = AtomicKnob::new(KnobSpec::new("dag.critical_bias", 0, 1), 1);
        let bias_id = knobs.register(bias.clone());
        bias.set(0);
        let intro = Arc::new(intro());
        let s = DagStats::new();
        s.register_on(&intro);
        s.on_release(1_000);
        let engine = PolicyEngine::new(knobs.clone());
        engine.attach_introspection(intro);
        engine.register_periodic(Box::new(CriticalPathPolicy::new(bias_id, 8)), 1, 0);
        engine.step(5);
        assert_eq!(knobs.value_id(bias_id), Some(1));
        assert!(knobs.change_count() >= 1);
    }
}
