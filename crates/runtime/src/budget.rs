//! Live worker-count resizing: the thread-budget knob.
//!
//! [`crate::ThreadCap`] *throttles* — an excluded worker parks on a
//! condvar, but its OS thread stays resident, so the capacity it gives up
//! cannot be handed to a sibling pool. [`ThreadBudget`] *releases*: a
//! worker whose index falls outside the budget hands its LIFO slot and
//! its queue's contents back to the injector and lets its OS thread
//! exit. The queues themselves belong to the pool, one per worker index,
//! so raising the budget just spawns a new thread for each index that
//! has none. An index never has two threads: the outgoing one clears the
//! index's `live` flag as the last thing it does with the index, after
//! re-checking the budget under the flag's lock — if the budget grew
//! back first, that same thread carries on instead.
//!
//! This is what makes cross-tenant thread reallocation by the
//! [`lg_core::Arbiter`] real: shrinking one tenant's budget returns
//! actual OS threads to the machine, not just idle parked ones.
//!
//! The budget implements [`lg_core::Knob`] (name `"thread_budget"`), so
//! an external owner — an arbiter, a policy, a tuning session — resizes
//! the pool through the same journaled write path as every other
//! actuation. A budget write is asynchronous on the shrink side (workers
//! exit at their next scheduling decision; tasks are never interrupted
//! mid-body) and synchronous on the grow side: when the setter returns,
//! every index inside the budget has a thread — a new one, or the old
//! one that had not let go yet. The setter never waits.

use crate::pool::PoolShared;
use lg_core::{Knob, KnobSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Shared thread-budget state. Cloning shares the budget.
#[derive(Clone)]
pub struct ThreadBudget {
    inner: Arc<BudgetInner>,
}

struct BudgetInner {
    /// Desired resident worker count; workers with index ≥ target exit.
    target: AtomicUsize,
    max: usize,
    /// Back-reference to the pool, set once at pool construction, so a
    /// knob write can trigger release wakes and re-spawns.
    shared: Mutex<Weak<PoolShared>>,
    /// Budget changes so far (lets tests and reports observe sets).
    generation: AtomicUsize,
}

impl ThreadBudget {
    /// Creates a budget over `max` workers, initially fully resident.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn new(max: usize) -> Self {
        assert!(max > 0, "pool must have at least one worker");
        Self {
            inner: Arc::new(BudgetInner {
                target: AtomicUsize::new(max),
                max,
                shared: Mutex::new(Weak::new()),
                generation: AtomicUsize::new(0),
            }),
        }
    }

    /// Current target resident worker count.
    pub fn target(&self) -> usize {
        self.inner.target.load(Ordering::Acquire)
    }

    /// Maximum (pool size).
    pub fn max(&self) -> usize {
        self.inner.max
    }

    /// Budget changes so far.
    pub fn generation(&self) -> usize {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// True if worker `index` may stay resident under the current budget.
    #[inline]
    pub fn allows(&self, index: usize) -> bool {
        index < self.target()
    }

    /// Sets the target, clamped to `1..=max`, then wakes excess workers
    /// so they release their threads and re-spawns any missing ones.
    pub fn set_target(&self, target: usize) {
        let clamped = target.clamp(1, self.inner.max);
        self.inner.target.store(clamped, Ordering::Release);
        self.inner.generation.fetch_add(1, Ordering::Release);
        let shared = self.inner.shared.lock().upgrade();
        if let Some(shared) = shared {
            shared.apply_budget();
        }
    }

    /// Wires the back-reference; called once by the pool constructor.
    pub(crate) fn attach(&self, shared: &Arc<PoolShared>) {
        *self.inner.shared.lock() = Arc::downgrade(shared);
    }

    /// A live worker-count closure for consumers that must track budget
    /// writes between their own evaluations — e.g.
    /// `CriticalPathPolicy::with_workers_source`, whose width-vs-workers
    /// control law would otherwise compare the DAG's frontier against a
    /// pool size the arbiter shrank two rounds ago.
    pub fn workers_source(&self) -> Arc<dyn Fn() -> i64 + Send + Sync> {
        let budget = self.clone();
        Arc::new(move || budget.target() as i64)
    }
}

impl Knob for ThreadBudget {
    fn spec(&self) -> KnobSpec {
        KnobSpec::new("thread_budget", 1, self.inner.max as i64)
            .with_unit("workers")
            .with_default(self.inner.max as i64)
    }
    fn get(&self) -> i64 {
        self.target() as i64
    }
    fn set(&self, value: i64) {
        self.set_target(value.max(1) as usize);
    }
}

impl std::fmt::Debug for ThreadBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadBudget")
            .field("target", &self.target())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_resident() {
        let b = ThreadBudget::new(4);
        assert_eq!(b.target(), 4);
        assert!(b.allows(3));
    }

    #[test]
    fn set_clamps_to_bounds() {
        let b = ThreadBudget::new(4);
        b.set_target(0);
        assert_eq!(b.target(), 1, "budget must never reach zero");
        b.set_target(100);
        assert_eq!(b.target(), 4);
    }

    #[test]
    fn knob_interface() {
        let b = ThreadBudget::new(8);
        let spec = b.spec();
        assert_eq!(spec.name, "thread_budget");
        assert_eq!(spec.min, 1);
        assert_eq!(spec.max, 8);
        assert_eq!(spec.default, 8);
        b.set(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn clones_share_state_and_generation_tracks() {
        let a = ThreadBudget::new(4);
        let b = a.clone();
        assert_eq!(a.generation(), 0);
        a.set_target(2);
        assert_eq!(b.target(), 2);
        assert_eq!(b.generation(), 1);
    }

    #[test]
    fn workers_source_tracks_budget_writes() {
        let b = ThreadBudget::new(16);
        let src = b.workers_source();
        assert_eq!(src(), 16);
        b.set_target(5);
        assert_eq!(src(), 5, "source must read the live target, not a copy");
    }

    #[test]
    fn critical_path_policy_follows_the_governed_budget() {
        use lg_core::dag::DagStats;
        use lg_core::policy::Trigger;
        use lg_core::snapshot::Introspection;
        use lg_core::Policy;

        // A frontier of ~65 ready nodes with rich slack: abundant for a
        // 4-worker pool (bias off), scarce once the arbiter grows the
        // budget to 32 (bias back on). The policy must see the *live*
        // budget, not its construction-time worker count.
        let names = lg_core::TaskNames::new();
        let profiles = Arc::new(lg_core::ProfileListener::new(names.clone()));
        let concurrency = Arc::new(lg_core::ConcurrencyListener::new(64));
        let intro = Introspection::new(profiles, concurrency);
        let stats = DagStats::new();
        stats.register_on(&intro);
        stats.on_release(1 << 20);
        for _ in 0..64 {
            stats.on_release(8);
        }
        let snap = intro.capture(1);

        let budget = ThreadBudget::new(32);
        budget.set_target(4);
        let mut policy = lg_core::CriticalPathPolicy::new("dag.critical_bias", 9999)
            .with_workers_source(budget.workers_source());
        let d = policy.evaluate(1, Trigger::Periodic, &snap);
        assert_eq!(d.sets, vec![("dag.critical_bias".into(), 0)]);

        budget.set_target(32);
        let d2 = policy.evaluate(2, Trigger::Periodic, &snap);
        assert_eq!(d2.sets, vec![("dag.critical_bias".into(), 1)]);
    }
}
