//! Named atomic counters and gauges.
//!
//! The observation layer needs shared, hot-path-cheap integer metrics:
//! tasks spawned, steals, parks, parcels sent, bytes moved. A
//! [`CounterRegistry`] interns names once and hands out cloneable handles,
//! so updates are a single atomic RMW with no lock and no lookup. Counters
//! come in two storages behind the same handle type: a single atomic cell
//! (the default — cheapest when one thread owns the counter) and an
//! opt-in striped cell array ([`crate::StripedCounter`], via
//! [`CounterRegistry::striped_counter`]) for counters hammered from many
//! threads at once, where a shared cell would ping-pong its cache line.

use crate::stripe::{
    thread_stripe, CacheAligned, StripedCounter, TouchedStripes, Versioned, STRIPE_COUNT,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
enum CounterStorage {
    Single(AtomicU64),
    // Boxed: a stripe array is ~4 KiB of padded cells, and most counters
    // are single-cell — don't make every handle allocation pay for it.
    Striped(Box<StripedCounter>),
}

/// Cloneable handle to a monotonically increasing counter.
///
/// Backed either by one atomic cell or, when created through
/// [`CounterRegistry::striped_counter`], by per-thread striped cells whose
/// updates never contend across threads (reads fold the stripes).
///
/// The value only grows, so it is its own dirtiness signal: a reader that
/// kept the value it last saw learns "written since" by comparing (see
/// [`CounterRegistry::write_version`]); an update is one atomic RMW.
#[derive(Clone, Debug)]
pub struct CounterHandle {
    storage: Arc<CounterStorage>,
    arms: Arc<ArmSet>,
}

impl CounterHandle {
    /// Increments by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        match &*self.storage {
            CounterStorage::Single(a) => {
                a.fetch_add(n, Ordering::Relaxed);
            }
            CounterStorage::Striped(s) => s.add(n),
        }
        // Write-side threshold arms: one relaxed load on the (usual)
        // unarmed path.
        if self.arms.count.load(Ordering::Relaxed) != 0 {
            self.arms.record(n);
        }
    }

    /// Current value (striped counters fold their stripes).
    #[inline]
    pub fn get(&self) -> u64 {
        match &*self.storage {
            CounterStorage::Single(a) => a.load(Ordering::Relaxed),
            CounterStorage::Striped(s) => s.sum(),
        }
    }

    /// Whether this counter uses striped storage.
    pub fn is_striped(&self) -> bool {
        matches!(&*self.storage, CounterStorage::Striped(_))
    }

    /// Arms a write-side high-water mark: after `delta` more units have
    /// been added (across all clones of this handle), the arm latches
    /// [`HighWaterArm::fired`] and runs its hook — *from the writing
    /// thread, at add time*. A consumer re-arms with
    /// [`HighWaterArm::rearm`]; increments keep accumulating while the
    /// arm is latched, so a late re-arm measures from the true current
    /// total, not from the crossing.
    ///
    /// This is the push alternative to polling [`CounterHandle::get`]:
    /// an idle counter costs its watchers nothing, an unarmed counter
    /// costs each `add` one extra relaxed load, and an armed one keeps a
    /// striped counter striped — each `add` lands on the writing thread's
    /// own cell and only touches the arm's shared state once per `slack`
    /// units (see [`HighWaterArm`]).
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn arm_high_water(&self, delta: u64) -> HighWaterArm {
        assert!(delta > 0, "high-water delta must be positive");
        let inner = Arc::new(ArmInner {
            cells: std::array::from_fn(|_| OnceLock::new()),
            touched: TouchedStripes::new(),
            slack: AtomicU64::new(slack_for(delta)),
            publish: Mutex::new(()),
            running: AtomicU64::new(0),
            level: AtomicU64::new(delta),
            fired: AtomicBool::new(false),
            hook: Mutex::new(None),
        });
        self.arms.update(|list| {
            list.push(inner.clone());
        });
        HighWaterArm {
            set: self.arms.clone(),
            inner,
        }
    }
}

/// The arms attached to one counter, read on every `add` through a
/// thread-local snapshot. `count` mirrors the list length so the write hot
/// path skips even that while unarmed.
#[derive(Debug)]
struct ArmSet {
    count: AtomicUsize,
    list: Versioned<Vec<Arc<ArmInner>>>,
}

impl Default for ArmSet {
    fn default() -> Self {
        Self {
            count: AtomicUsize::new(0),
            list: Versioned::new(Vec::new()),
        }
    }
}

impl ArmSet {
    fn record(&self, n: u64) {
        self.list.read(|arms| {
            for arm in arms {
                arm.record(n);
            }
        });
    }

    /// Replaces the arm list with an edited copy; `count` moves under the
    /// same lock, so the two never disagree once writers quiesce.
    fn update(&self, edit: impl FnOnce(&mut Vec<Arc<ArmInner>>)) {
        self.list.update(|list| {
            let mut next = list.clone();
            edit(&mut next);
            self.count.store(next.len(), Ordering::Release);
            (next, ())
        });
    }
}

/// How much a stripe may hold back while `remaining` units are still
/// missing to the level: with every stripe below this, the hidden total is
/// below `remaining / 2`, so the level cannot have been crossed unseen; at
/// 1 (fewer than `2 * STRIPE_COUNT` units missing) every add publishes.
fn slack_for(remaining: u64) -> u64 {
    (remaining / (2 * STRIPE_COUNT as u64)).max(1)
}

/// One arm's accumulation state.
///
/// Adds smaller than `slack` accumulate in the writing thread's own stripe
/// cell and move to the shared `running` total only when the cell reaches
/// `slack`. A publish drains *every* cell, so right after it nothing is hidden and the new
/// `slack` (from the then-exact remaining distance) bounds what can hide
/// until the next one. The add that carries the true total over `level`
/// therefore always publishes — the latch fires on exactly the add a
/// single shared accumulator would have fired on, and never before.
struct ArmInner {
    /// Per-stripe unpublished amounts, allocated on a stripe's first add
    /// below `slack` (an arm on a single-writer counter pays for one cell
    /// at most, not 32).
    cells: [OnceLock<Box<CacheAligned<AtomicU64>>>; STRIPE_COUNT],
    /// The stripes whose cell exists; a publish visits only these.
    touched: TouchedStripes,
    /// Publish threshold for a cell; `u64::MAX` while latched (nothing to
    /// detect until the re-arm, which drains). Read by every add, written
    /// only by publishes and re-arms.
    slack: AtomicU64,
    /// Serializes publishes and re-arms (never taken by an add below
    /// `slack`).
    publish: Mutex<()>,
    /// Units published since arming (never reset; levels move instead).
    running: AtomicU64,
    /// Latch when the total reaches this. Written under `publish`.
    level: AtomicU64,
    fired: AtomicBool,
    /// Run once per latch, from the crossing writer's thread. Must be
    /// cheap and non-blocking (typical: bump a pending flag, wake an
    /// engine).
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl ArmInner {
    fn touched_cells(&self) -> impl Iterator<Item = &AtomicU64> {
        self.touched
            .iter()
            .filter_map(|i| self.cells[i].get())
            .map(|c| &c.0)
    }

    #[inline]
    fn record(&self, n: u64) {
        // An add that alone reaches the slack would publish anyway: it
        // goes straight to the shared total and never touches a cell (so
        // near the level, where slack is 1, and for adds in large units, a
        // stripe's cell is not even allocated).
        if n >= self.slack.load(Ordering::SeqCst) {
            return self.publish(n, None);
        }
        let stripe = thread_stripe();
        let cell = &self.cells[stripe].get_or_init(Box::default).0;
        self.touched.mark(stripe);
        // SeqCst mark-add-load against `settle`'s store-then-rescan:
        // either this add sees the slack a racing publish just lowered, or
        // that publish's rescan sees this add. An amount at or over the
        // current slack is never left hidden.
        let pending = cell.fetch_add(n, Ordering::SeqCst) + n;
        if pending >= self.slack.load(Ordering::SeqCst) {
            self.publish(0, None);
        }
    }

    /// Publishes `amount` plus every stripe's amount — re-arming `delta`
    /// above the resulting total if asked — and runs the hook if that
    /// latched the arm.
    #[cold]
    fn publish(&self, amount: u64, rearm_delta: Option<u64>) {
        let latched = {
            let _serialized = self.publish.lock();
            self.settle(amount, rearm_delta)
        };
        // Outside the lock: a hook may re-arm.
        if latched {
            if let Some(hook) = &*self.hook.lock() {
                hook();
            }
        }
    }

    /// Moves `amount` and every stripe's amount into `running`, latches if
    /// the level is reached, and republishes `slack` — draining again
    /// until no stripe holds `slack` or more. Returns true if this call
    /// latched the arm. Caller holds `publish`.
    fn settle(&self, mut amount: u64, mut rearm_delta: Option<u64>) -> bool {
        let mut latched = false;
        loop {
            let moved: u64 = self
                .touched_cells()
                .filter(|c| c.load(Ordering::Relaxed) != 0)
                .map(|c| c.swap(0, Ordering::AcqRel))
                .sum::<u64>()
                + std::mem::take(&mut amount);
            // `running`, `level` and `fired` only change under `publish`,
            // which the caller holds: plain load-then-store, no RMW.
            let total = self.running.load(Ordering::Relaxed) + moved;
            self.running.store(total, Ordering::Release);
            if let Some(delta) = rearm_delta.take() {
                self.level.store(total + delta, Ordering::Release);
                self.fired.store(false, Ordering::Release);
            }
            let level = self.level.load(Ordering::Relaxed);
            let slack = if total >= level {
                if !self.fired.load(Ordering::Relaxed) {
                    self.fired.store(true, Ordering::Release);
                    latched = true;
                }
                u64::MAX
            } else {
                slack_for(level - total)
            };
            self.slack.store(slack, Ordering::SeqCst);
            if !self
                .touched_cells()
                .any(|c| c.load(Ordering::SeqCst) >= slack)
            {
                return latched;
            }
        }
    }
}

impl std::fmt::Debug for ArmInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmInner")
            .field("running", &self.running)
            .field("level", &self.level)
            .field("slack", &self.slack)
            .field("fired", &self.fired)
            .finish_non_exhaustive()
    }
}

/// Consumer handle to a write-side high-water mark on a counter; created
/// by [`CounterHandle::arm_high_water`]. Cloneable (clones share the
/// latch).
#[derive(Clone, Debug)]
pub struct HighWaterArm {
    set: Arc<ArmSet>,
    inner: Arc<ArmInner>,
}

impl HighWaterArm {
    /// Installs the hook run (once per latch) from the thread whose add
    /// crossed the level. Replaces any previous hook.
    pub fn set_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.inner.hook.lock() = Some(Box::new(hook));
    }

    /// True while latched (the level was crossed and no re-arm happened).
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Units added since arming (published total plus what the stripes
    /// still hold; exact once writers quiesce).
    pub fn accumulated(&self) -> u64 {
        let pending: u64 = self
            .inner
            .touched_cells()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        self.inner.running.load(Ordering::Acquire) + pending
    }

    /// Consumes a latch: the next latch happens `delta` units after the
    /// total observed *now* — identical to a scan-style delta watch
    /// re-baselining at its firing check.
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn rearm(&self, delta: u64) {
        assert!(delta > 0, "high-water delta must be positive");
        self.inner.publish(0, Some(delta));
    }

    /// Detaches the arm from its counter: subsequent adds no longer pay
    /// for it and the hook never runs again.
    pub fn disarm(&self) {
        self.set
            .update(|list| list.retain(|a| !Arc::ptr_eq(a, &self.inner)));
    }
}

/// Cloneable handle to a gauge (a signed value that may go up and down).
#[derive(Clone, Debug)]
pub struct GaugeHandle(Arc<AtomicI64>);

impl GaugeHandle {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) and returns the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.0.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Registry of named counters and gauges.
///
/// Lookup/creation takes a write lock; handle operations are lock-free.
/// Registries are cheap to share via `Arc`.
///
/// # Examples
///
/// ```
/// use lg_metrics::CounterRegistry;
/// let reg = CounterRegistry::new();
/// let steals = reg.counter("scheduler.steals");
/// steals.inc();
/// steals.add(4);
/// assert_eq!(reg.counter("scheduler.steals").get(), 5);
/// ```
#[derive(Default)]
pub struct CounterRegistry {
    counters: RwLock<HashMap<String, CounterHandle>>,
    gauges: RwLock<HashMap<String, GaugeHandle>>,
    /// Bumped once per created counter; counters are never removed, so
    /// this alone keys every cache of the name set.
    structure: AtomicU64,
    sorted: Mutex<SortedHandles>,
}

/// The name-sorted table as of `structure`. `Default` is generation 0 —
/// no counter created yet — whose table is the empty one it holds.
#[derive(Default)]
struct SortedHandles {
    structure: u64,
    handles: Arc<Vec<(String, CounterHandle)>>,
}

impl std::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterRegistry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .finish()
    }
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_create(&self, name: &str, make: impl FnOnce() -> CounterStorage) -> CounterHandle {
        if let Some(h) = self.counters.read().get(name) {
            return h.clone();
        }
        let mut w = self.counters.write();
        if let Some(h) = w.get(name) {
            return h.clone();
        }
        let h = CounterHandle {
            storage: Arc::new(make()),
            arms: Arc::new(ArmSet::default()),
        };
        w.insert(name.to_owned(), h.clone());
        self.structure.fetch_add(1, Ordering::Release);
        h
    }

    /// Returns the counter named `name`, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> CounterHandle {
        self.get_or_create(name, || CounterStorage::Single(AtomicU64::new(0)))
    }

    /// Returns the counter named `name`, creating it with striped storage
    /// if absent. Striped updates never contend across threads; reads fold
    /// the stripes. If the counter already exists (either storage), the
    /// existing handle is returned unchanged — storage is fixed at
    /// creation, so opt in at the registration site, not at use sites.
    pub fn striped_counter(&self, name: &str) -> CounterHandle {
        self.get_or_create(name, || CounterStorage::Striped(Box::default()))
    }

    /// Returns the gauge named `name`, creating it at zero if absent.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        if let Some(h) = self.gauges.read().get(name) {
            return h.clone();
        }
        let mut w = self.gauges.write();
        w.entry(name.to_owned())
            .or_insert_with(|| GaugeHandle(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Snapshot of every counter as `(name, value)`, sorted by name.
    pub fn snapshot_counters(&self) -> Vec<(String, u64)> {
        self.sorted_handles()
            .iter()
            .map(|(k, h)| (k.clone(), h.get()))
            .collect()
    }

    /// Wrapping sum of every counter's value. Counters only grow, so this
    /// is unchanged between two reads ⇔ nothing was added to any counter in
    /// between (short of 2^64 units). A reader that keeps the values
    /// (incremental snapshot capture) compares those instead, one by one.
    pub fn write_version(&self) -> u64 {
        self.sorted_handles()
            .iter()
            .fold(0, |sum, (_, h)| sum.wrapping_add(h.get()))
    }

    /// Generation of the counter *name set*; bumped when a counter is
    /// created. Readers caching the sorted name table re-fetch it only
    /// when this moves.
    pub fn structure_version(&self) -> u64 {
        self.structure.load(Ordering::Acquire)
    }

    /// The interned, name-sorted counter handle table, shared behind an
    /// `Arc` and rebuilt only when [`structure_version`] moves — repeated
    /// snapshot rounds clone an `Arc` instead of re-collecting and
    /// re-sorting `String`s.
    ///
    /// [`structure_version`]: CounterRegistry::structure_version
    pub fn sorted_handles(&self) -> Arc<Vec<(String, CounterHandle)>> {
        // Read the structure generation *before* collecting, so a creation
        // racing the rebuild leaves a stale recorded generation and the
        // next call refreshes.
        let structure = self.structure_version();
        let mut cached = self.sorted.lock();
        if cached.structure != structure {
            let mut v: Vec<(String, CounterHandle)> = self
                .counters
                .read()
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            cached.handles = Arc::new(v);
            cached.structure = structure;
        }
        cached.handles.clone()
    }

    /// Number of distinct counters registered.
    pub fn counter_count(&self) -> usize {
        self.counters.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn same_name_same_counter() {
        let reg = CounterRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(9);
        assert_eq!(a.get(), 10);
        assert_eq!(reg.counter_count(), 1);
    }

    #[test]
    fn distinct_names_distinct_counters() {
        let reg = CounterRegistry::new();
        reg.counter("a").inc();
        reg.counter("b").add(2);
        let snap = reg.snapshot_counters();
        assert_eq!(snap, vec![("a".into(), 1), ("b".into(), 2)]);
    }

    #[test]
    fn gauge_up_and_down() {
        let reg = CounterRegistry::new();
        let g = reg.gauge("active");
        assert_eq!(g.add(5), 5);
        assert_eq!(g.add(-2), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn counters_and_gauges_namespaces_are_disjoint() {
        let reg = CounterRegistry::new();
        reg.counter("n").add(1);
        reg.gauge("n").set(100);
        assert_eq!(reg.counter("n").get(), 1);
        assert_eq!(reg.gauge("n").get(), 100);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = StdArc::new(CounterRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("shared");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), 80_000);
    }

    #[test]
    fn striped_counter_shares_namespace_and_value() {
        let reg = CounterRegistry::new();
        let s = reg.striped_counter("hot");
        assert!(s.is_striped());
        s.add(5);
        // Plain lookup returns the same (striped) counter.
        let same = reg.counter("hot");
        assert!(same.is_striped());
        same.inc();
        assert_eq!(s.get(), 6);
        assert_eq!(reg.snapshot_counters(), vec![("hot".into(), 6)]);
        assert_eq!(reg.counter_count(), 1);
    }

    #[test]
    fn striped_opt_in_does_not_rewrite_existing_counter() {
        let reg = CounterRegistry::new();
        let plain = reg.counter("c");
        plain.add(3);
        let still_plain = reg.striped_counter("c");
        assert!(!still_plain.is_striped());
        assert_eq!(still_plain.get(), 3);
    }

    #[test]
    fn striped_concurrent_increments_do_not_lose_updates() {
        let reg = StdArc::new(CounterRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.striped_counter("shared");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), 80_000);
    }

    #[test]
    fn write_version_moves_only_on_counter_writes() {
        let reg = CounterRegistry::new();
        let c = reg.counter("a");
        let v0 = reg.write_version();
        assert_eq!(reg.write_version(), v0, "idle registry is stable");
        c.add(3);
        let v1 = reg.write_version();
        assert!(v1 > v0);
        reg.gauge("g").set(9); // gauges are not snapshot state
        reg.counter("a"); // lookups don't count as writes
        assert_eq!(reg.write_version(), v1);
        reg.striped_counter("hot").inc();
        assert!(reg.write_version() > v1);
    }

    #[test]
    fn sorted_handles_cache_is_reused_until_structure_changes() {
        let reg = CounterRegistry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        let s0 = reg.structure_version();
        let t1 = reg.sorted_handles();
        let t2 = reg.sorted_handles();
        assert!(StdArc::ptr_eq(&t1, &t2), "no structural change: same table");
        assert_eq!(reg.structure_version(), s0);
        let names: Vec<&str> = t1.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        reg.counter("c");
        assert!(reg.structure_version() > s0);
        let t3 = reg.sorted_handles();
        assert!(!StdArc::ptr_eq(&t1, &t3));
        assert_eq!(t3.len(), 3);
    }

    #[test]
    fn high_water_arm_latches_on_crossing() {
        let reg = CounterRegistry::new();
        let c = reg.counter("x");
        let arm = c.arm_high_water(10);
        c.add(9);
        assert!(!arm.fired());
        c.add(1);
        assert!(arm.fired());
        // Latched, not repeating: further adds keep it latched.
        c.add(100);
        assert!(arm.fired());
        assert_eq!(arm.accumulated(), 110);
    }

    #[test]
    fn high_water_rearm_measures_from_current_total() {
        let reg = CounterRegistry::new();
        let c = reg.counter("x");
        let arm = c.arm_high_water(10);
        c.add(25); // latched at 10, accumulated 25
        assert!(arm.fired());
        arm.rearm(10); // next latch at 35
        assert!(!arm.fired());
        c.add(9);
        assert!(!arm.fired());
        c.add(1);
        assert!(arm.fired());
    }

    #[test]
    fn high_water_hook_runs_once_per_latch_from_writer() {
        let reg = CounterRegistry::new();
        let c = reg.counter("x");
        let arm = c.arm_high_water(5);
        let fires = StdArc::new(std::sync::atomic::AtomicU64::new(0));
        let f = fires.clone();
        arm.set_hook(move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..20 {
            c.inc();
        }
        assert_eq!(fires.load(Ordering::Relaxed), 1);
        arm.rearm(5);
        for _ in 0..20 {
            c.inc();
        }
        assert_eq!(fires.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn disarm_detaches_from_the_write_path() {
        let reg = CounterRegistry::new();
        let c = reg.counter("x");
        let arm = c.arm_high_water(5);
        c.add(2);
        arm.disarm();
        c.add(100);
        assert!(!arm.fired());
        assert_eq!(arm.accumulated(), 2);
    }

    #[test]
    fn arms_see_adds_from_all_handle_clones() {
        let reg = CounterRegistry::new();
        let a = reg.striped_counter("hot");
        let arm = a.arm_high_water(8);
        let b = reg.counter("hot"); // same counter, separate handle
        b.add(4);
        a.add(4);
        assert!(arm.fired());
    }

    #[test]
    fn concurrent_armed_adds_latch_exactly_once() {
        let reg = StdArc::new(CounterRegistry::new());
        let c = reg.striped_counter("shared");
        let arm = c.arm_high_water(1_000);
        let fires = StdArc::new(std::sync::atomic::AtomicU64::new(0));
        let f = fires.clone();
        arm.set_hook(move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("shared");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(arm.accumulated(), 80_000);
        assert_eq!(fires.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_random_adds_latch_iff_the_level_is_reached() {
        // Eight writers race random-sized adds. Whatever the
        // interleaving: the arm is latched at the end exactly when the
        // grand total reached the level, the hook ran at most once and
        // never before the counter itself held `level` units, and the
        // arm's total is exact.
        for (level, expect_fired) in [(300_000u64, true), (u64::MAX / 2, false)] {
            let reg = StdArc::new(CounterRegistry::new());
            let c = reg.striped_counter("shared");
            let arm = c.arm_high_water(level);
            let seen_at_latch = StdArc::new(std::sync::atomic::AtomicU64::new(0));
            let (seen, counter) = (seen_at_latch.clone(), c.clone());
            arm.set_hook(move || {
                seen.store(counter.get(), Ordering::Relaxed);
            });
            let start = std::sync::Barrier::new(8);
            let grand_total: u64 = std::thread::scope(|s| {
                let writers: Vec<_> = (0..8u64)
                    .map(|w| {
                        let (c, start) = (&c, &start);
                        s.spawn(move || {
                            let mut x = w + 1;
                            let mut sent = 0;
                            start.wait();
                            for _ in 0..5_000 {
                                x = x
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                let n = 1 + (x >> 33) % 40;
                                c.add(n);
                                sent += n;
                            }
                            sent
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert!(grand_total >= 300_000, "schedule too short: {grand_total}");
            assert_eq!(arm.accumulated(), grand_total);
            assert_eq!(arm.fired(), expect_fired);
            let seen = seen_at_latch.load(Ordering::Relaxed);
            if expect_fired {
                assert!(
                    seen >= level,
                    "latched early: counter held {seen} < {level}"
                );
            } else {
                assert_eq!(seen, 0, "hook ran without a latch");
            }
        }
    }

    #[test]
    fn an_arm_allocates_cells_only_for_stripes_that_write() {
        let reg = CounterRegistry::new();
        let c = reg.counter("single-writer");
        let arm = c.arm_high_water(1_000);
        c.add(500); // over the slack (7): published directly
        assert_eq!(arm.inner.touched_cells().count(), 0);
        c.add(1);
        assert_eq!(arm.inner.touched_cells().count(), 1);
        assert_eq!(arm.accumulated(), 501);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = CounterRegistry::new();
        for name in ["zeta", "alpha", "mid"] {
            reg.counter(name).inc();
        }
        let names: Vec<String> = reg
            .snapshot_counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
