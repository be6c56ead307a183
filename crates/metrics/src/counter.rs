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

use crate::stripe::StripedCounter;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

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
/// [`CounterRegistry::write_version`]); an update is one atomic RMW and
/// nothing else — a watcher reads the value when it checks.
#[derive(Clone, Debug)]
pub struct CounterHandle {
    storage: Arc<CounterStorage>,
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
