//! Per-task-type streaming profiles.
//!
//! The profiler listener folds every `TaskEnd` into a per-task
//! [`TaskProfile`] (count, total, mean, variance, min, max — Welford under
//! the hood) and maintains begin/end balance so structural bugs in the
//! instrumentation (unmatched begins) are observable.
//!
//! ## Sharding
//!
//! Events are folded into **per-thread stripes**: one cell table per
//! stripe index ([`lg_metrics::stripe::thread_index`], with runtime
//! workers pinned to their worker id and other threads drawing overflow
//! indexes), kept in the stripe's shared state (the private `stripe`
//! module) behind the stripe's one lock. A table is a `Vec` indexed by
//! [`TaskId`] (dense interning indexes: a bounds check, not a hash probe).
//! A profiler the instance builder made is handed the state already
//! locked: an event costs it an index and a Welford update, a batch one
//! `Release` bump of the stripe's generation. One from
//! [`ProfileListener::new`] locks its own stripes. Snapshots merge the
//! stripes with the parallel-Welford (Chan et al.) combine — one
//! accumulator's result up to FP rounding; `active` and `yields` are plain
//! sums, so begin/end pairs observed on different threads still balance.

use crate::event::{Event, TaskId, TaskNames};
use crate::listener::Listener;
use crate::stripe::{Stripe, StripeState, Stripes};
use lg_metrics::stripe::STRIPE_COUNT;
use lg_metrics::Welford;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Aggregated statistics for one task type.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskProfile {
    /// Task type name (resolved at snapshot time).
    pub name: String,
    /// Completed executions.
    pub count: u64,
    /// Currently executing (begun, not ended) instances.
    pub active: i64,
    /// Total execution time, nanoseconds.
    pub total_ns: f64,
    /// Mean execution time, nanoseconds.
    pub mean_ns: f64,
    /// Population standard deviation of execution time, nanoseconds.
    pub stddev_ns: f64,
    /// Fastest execution, nanoseconds.
    pub min_ns: f64,
    /// Slowest execution, nanoseconds.
    pub max_ns: f64,
    /// Yields observed for this task type.
    pub yields: u64,
}

/// A point-in-time copy of all task profiles.
pub type ProfileSnapshot = Vec<TaskProfile>;

#[derive(Default, Clone)]
pub(crate) struct ProfileCell {
    stats: Welford,
    active: i64,
    yields: u64,
}

impl ProfileCell {
    fn merge(&mut self, other: &ProfileCell) {
        self.stats.merge(&other.stats);
        self.active += other.active;
        self.yields += other.yields;
    }

    fn to_profile(&self, name: String) -> TaskProfile {
        TaskProfile {
            name,
            count: self.stats.count(),
            active: self.active,
            total_ns: self.stats.sum(),
            mean_ns: self.stats.mean(),
            stddev_ns: self.stats.stddev(),
            min_ns: if self.stats.is_empty() {
                0.0
            } else {
                self.stats.min()
            },
            max_ns: if self.stats.is_empty() {
                0.0
            } else {
                self.stats.max()
            },
            yields: self.yields,
        }
    }
}

/// Cells indexed by `TaskId.0`; `None` for ids this table never saw.
pub(crate) type CellTable = Vec<Option<ProfileCell>>;

/// The cell for `task`, created (and the table grown) on first sight.
fn cell_mut(cells: &mut CellTable, task: TaskId) -> &mut ProfileCell {
    let i = task.0 as usize;
    if i >= cells.len() {
        cells.resize_with(i + 1, || None);
    }
    cells[i].get_or_insert_with(ProfileCell::default)
}

/// Folds `from` into `into`, cell by cell.
fn merge_table(into: &mut CellTable, from: &CellTable) {
    for (i, cell) in from.iter().enumerate() {
        if let Some(cell) = cell {
            cell_mut(into, TaskId(i as u32)).merge(cell);
        }
    }
}

/// The `(id, cell)` pairs a table holds.
fn seen(cells: &CellTable) -> impl Iterator<Item = (TaskId, &ProfileCell)> {
    cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((TaskId(i as u32), c.as_ref()?)))
}

/// Advances a stripe's profile generation. The caller holds the stripe
/// lock, which serializes every writer of the stamp, so a plain load and a
/// `Release` store (ordering the cell mutation before it) replace the RMW.
fn bump_gen(stripe: &Stripe) {
    let gen = stripe.profile_gen.load(Ordering::Relaxed);
    stripe.profile_gen.store(gen + 1, Ordering::Release);
}

/// The persistent merged base behind [`ProfileListener::snapshot_shared`]:
/// per-stripe cell copies taken at the generation recorded in `gens`, the
/// merged+sorted profile vector they fold into, and a task-name cache so
/// rebuilds don't re-intern `String`s.
struct SnapCache {
    valid: bool,
    gens: [u64; STRIPE_COUNT],
    copies: Vec<CellTable>,
    resolved: HashMap<TaskId, String>,
    merged: Arc<ProfileSnapshot>,
    total_completed: u64,
}

impl SnapCache {
    fn new() -> Self {
        Self {
            valid: false,
            gens: [0; STRIPE_COUNT],
            copies: vec![CellTable::new(); STRIPE_COUNT],
            resolved: HashMap::new(),
            merged: Arc::new(Vec::new()),
            total_completed: 0,
        }
    }
}

/// Listener that aggregates task lifecycle events into profiles.
///
/// Sharded per emitting thread (see the module docs): per-event work is a
/// table index and a Welford update under the stripe lock; queries merge
/// the stripes on demand. Each stripe carries a generation stamp bumped
/// after every mutation, and `snapshot_shared` keeps a persistent
/// merged base: a clean call returns the previous `Arc` with zero merges,
/// a dirty call re-copies only the stripes whose stamp moved and re-folds
/// the cached copies in fixed stripe order — bitwise-identical to a
/// from-scratch merge once writers quiesce.
pub struct ProfileListener {
    names: TaskNames,
    stripes: Arc<Stripes>,
    cache: Mutex<SnapCache>,
}

impl ProfileListener {
    /// Creates a profiler resolving names through `names`, on stripes of
    /// its own.
    pub fn new(names: TaskNames) -> Self {
        Self::on(names, Stripes::new())
    }

    /// Creates a profiler that keeps its cells in `stripes`
    /// ([`crate::Dispatcher::stripes`]): registered on that dispatcher it
    /// is delivered to inside the dispatcher's one stripe lock, the path a
    /// built instance takes. At most one profiler per stripe set.
    #[doc(hidden)]
    pub fn on(names: TaskNames, stripes: Arc<Stripes>) -> Self {
        Self {
            names,
            stripes,
            cache: Mutex::new(SnapCache::new()),
        }
    }

    /// Merges every stripe's cells into one table (parallel-Welford
    /// combine).
    fn merged(&self) -> CellTable {
        let mut out = CellTable::new();
        for stripe in self.stripes.iter() {
            merge_table(&mut out, &stripe.lock().state.cells);
        }
        out
    }

    fn resolve_name(
        names: &TaskNames,
        resolved: &mut HashMap<TaskId, String>,
        id: TaskId,
    ) -> String {
        if let Some(n) = resolved.get(&id) {
            return n.clone();
        }
        match names.resolve(id) {
            // Cache only successful resolutions: a placeholder could be
            // interned later, and must not be pinned forever.
            Some(n) => {
                resolved.insert(id, n.clone());
                n
            }
            None => format!("<task {}>", id.0),
        }
    }

    /// Snapshot of every task profile, sorted by name.
    pub fn snapshot(&self) -> ProfileSnapshot {
        (*self.snapshot_shared().0).clone()
    }

    /// From-scratch snapshot that bypasses the merged-base cache: clones
    /// and folds every stripe. Kept as the verification oracle (the delta
    /// path must produce field-for-field identical output) and as the
    /// benchmark baseline.
    pub(crate) fn snapshot_uncached(&self) -> ProfileSnapshot {
        let mut out: Vec<TaskProfile> = seen(&self.merged())
            .map(|(id, c)| {
                c.to_profile(
                    self.names
                        .resolve(id)
                        .unwrap_or_else(|| format!("<task {}>", id.0)),
                )
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The shared merged view plus delta accounting:
    /// `(profiles, total_completed, dirty_stripes, clean_stripes)`.
    ///
    /// Reads each stripe's generation stamp (`Acquire`) *before* locking
    /// and copying it, so a mutation racing the copy leaves a stale
    /// recorded generation and the next call simply re-copies — staleness
    /// can only over-refresh, never miss a write. When no stamp moved, the
    /// previous `Arc` is returned untouched: zero locks on stripes, zero
    /// Welford merges, zero allocation.
    pub(crate) fn snapshot_shared(&self) -> (Arc<ProfileSnapshot>, u64, usize, usize) {
        let mut cache = self.cache.lock();
        let cache = &mut *cache;
        let mut dirty = 0usize;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let gen = stripe.profile_gen.load(Ordering::Acquire);
            if cache.valid && gen == cache.gens[i] {
                continue;
            }
            cache.gens[i] = gen;
            cache.copies[i] = stripe.lock().state.cells.clone();
            dirty += 1;
        }
        if dirty > 0 || !cache.valid {
            // Re-fold the cached copies in fixed stripe order — the same
            // per-id merge sequence as `merged()`, so the result is
            // bitwise-identical to a from-scratch recompute.
            let mut folded = CellTable::new();
            for copy in cache.copies.iter() {
                merge_table(&mut folded, copy);
            }
            cache.total_completed = seen(&folded).map(|(_, c)| c.stats.count()).sum();
            let mut out: Vec<TaskProfile> = seen(&folded)
                .map(|(id, c)| {
                    c.to_profile(Self::resolve_name(&self.names, &mut cache.resolved, id))
                })
                .collect();
            out.sort_by(|a, b| a.name.cmp(&b.name));
            cache.merged = Arc::new(out);
            cache.valid = true;
        }
        (
            cache.merged.clone(),
            cache.total_completed,
            dirty,
            STRIPE_COUNT - dirty,
        )
    }

    /// Profile for one task name, if any executions were recorded.
    pub fn get(&self, name: &str) -> Option<TaskProfile> {
        let id = self.names.lookup(name)?;
        let mut merged: Option<ProfileCell> = None;
        for stripe in self.stripes.iter() {
            if let Some(Some(cell)) = stripe.lock().state.cells.get(id.0 as usize) {
                merged.get_or_insert_with(ProfileCell::default).merge(cell);
            }
        }
        merged.map(|c| c.to_profile(name.to_owned()))
    }

    /// Total completed tasks across all types (live fold of every stripe;
    /// `snapshot_shared` carries a cached total coherent with its merge).
    pub fn total_completed(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                seen(&s.lock().state.cells)
                    .map(|(_, c)| c.stats.count())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Clears all profiles (used at measurement-epoch boundaries). Bumps
    /// every stripe's generation so cached merges notice the clear.
    pub fn reset(&self) {
        for stripe in self.stripes.iter() {
            let mut locked = stripe.lock();
            locked.state.cells.clear();
            bump_gen(stripe);
        }
    }
}

impl Listener for ProfileListener {
    fn name(&self) -> &str {
        "profile"
    }

    fn on_event(&self, event: &Event) {
        self.stripes.deliver(self, event);
    }

    fn stripes(&self) -> Option<&Arc<Stripes>> {
        Some(&self.stripes)
    }

    fn on_batch_locked(&self, events: &[Event], stripe: &Stripe, state: &mut StripeState) {
        // The batch mutates under the stripe lock, then Release-bumps the
        // stripe generation once: a reader whose recorded generation
        // matches a later Acquire-read is guaranteed its copy includes
        // every completed mutation.
        let mut mutated = false;
        for event in events {
            match *event {
                Event::TaskBegin { task, .. } => cell_mut(&mut state.cells, task).active += 1,
                Event::TaskEnd {
                    task, elapsed_ns, ..
                } => {
                    let c = cell_mut(&mut state.cells, task);
                    c.stats.update(elapsed_ns as f64);
                    c.active -= 1;
                }
                Event::TaskYield { task, .. } => cell_mut(&mut state.cells, task).yields += 1,
                _ => continue,
            }
            mutated = true;
        }
        if mutated {
            bump_gen(stripe);
        }
    }
}

impl std::fmt::Debug for ProfileListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileListener")
            .field("task_types", &seen(&self.merged()).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TaskNames, ProfileListener) {
        let names = TaskNames::new();
        let p = ProfileListener::new(names.clone());
        (names, p)
    }

    fn run_task(p: &ProfileListener, task: TaskId, t0: u64, dur: u64) {
        p.on_event(&Event::TaskBegin {
            task,
            worker: 0,
            t_ns: t0,
        });
        p.on_event(&Event::TaskEnd {
            task,
            worker: 0,
            t_ns: t0 + dur,
            elapsed_ns: dur,
        });
    }

    #[test]
    fn aggregates_basic_stats() {
        let (names, p) = setup();
        let id = names.intern("work");
        for (i, dur) in [100u64, 200, 300].iter().enumerate() {
            run_task(&p, id, i as u64 * 1000, *dur);
        }
        let prof = p.get("work").unwrap();
        assert_eq!(prof.count, 3);
        assert_eq!(prof.active, 0);
        assert_eq!(prof.total_ns, 600.0);
        assert_eq!(prof.mean_ns, 200.0);
        assert_eq!(prof.min_ns, 100.0);
        assert_eq!(prof.max_ns, 300.0);
    }

    #[test]
    fn tracks_active_balance() {
        let (names, p) = setup();
        let id = names.intern("w");
        p.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 0,
        });
        p.on_event(&Event::TaskBegin {
            task: id,
            worker: 1,
            t_ns: 1,
        });
        assert_eq!(p.get("w").unwrap().active, 2);
        p.on_event(&Event::TaskEnd {
            task: id,
            worker: 0,
            t_ns: 5,
            elapsed_ns: 5,
        });
        assert_eq!(p.get("w").unwrap().active, 1);
        assert_eq!(p.get("w").unwrap().count, 1);
    }

    #[test]
    fn distinct_tasks_do_not_mix() {
        let (names, p) = setup();
        let a = names.intern("a");
        let b = names.intern("b");
        run_task(&p, a, 0, 10);
        run_task(&p, b, 0, 1000);
        assert_eq!(p.get("a").unwrap().mean_ns, 10.0);
        assert_eq!(p.get("b").unwrap().mean_ns, 1000.0);
        assert_eq!(p.total_completed(), 2);
    }

    #[test]
    fn snapshot_sorted_and_complete() {
        let (names, p) = setup();
        for n in ["zz", "aa", "mm"] {
            run_task(&p, names.intern(n), 0, 1);
        }
        let snap = p.snapshot();
        let got: Vec<&str> = snap.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(got, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn yields_counted() {
        let (names, p) = setup();
        let id = names.intern("y");
        p.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 0,
        });
        p.on_event(&Event::TaskYield {
            task: id,
            worker: 0,
            t_ns: 1,
        });
        p.on_event(&Event::TaskResume {
            task: id,
            worker: 0,
            t_ns: 2,
        });
        p.on_event(&Event::TaskEnd {
            task: id,
            worker: 0,
            t_ns: 3,
            elapsed_ns: 2,
        });
        assert_eq!(p.get("y").unwrap().yields, 1);
    }

    #[test]
    fn get_unknown_is_none() {
        let (_names, p) = setup();
        assert!(p.get("nothing").is_none());
    }

    #[test]
    fn reset_clears() {
        let (names, p) = setup();
        run_task(&p, names.intern("x"), 0, 1);
        p.reset();
        assert_eq!(p.total_completed(), 0);
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn ignores_unrelated_events() {
        let (_names, p) = setup();
        p.on_event(&Event::PeriodicTick { t_ns: 0 });
        p.on_event(&Event::WorkerStart { worker: 0, t_ns: 0 });
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn concurrent_updates_consistent() {
        let (names, p) = setup();
        let p = std::sync::Arc::new(p);
        let id = names.intern("c");
        let mut joins = Vec::new();
        for w in 0..4 {
            let p = p.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    p.on_event(&Event::TaskBegin {
                        task: id,
                        worker: w,
                        t_ns: i,
                    });
                    p.on_event(&Event::TaskEnd {
                        task: id,
                        worker: w,
                        t_ns: i + 7,
                        elapsed_ns: 7,
                    });
                }
            }));
        }
        joins.into_iter().for_each(|j| j.join().unwrap());
        let prof = p.get("c").unwrap();
        assert_eq!(prof.count, 4000);
        assert_eq!(prof.active, 0);
        assert_eq!(prof.mean_ns, 7.0);
    }

    #[test]
    fn shared_snapshot_reuses_arc_when_idle_and_matches_uncached() {
        let (names, p) = setup();
        run_task(&p, names.intern("a"), 0, 10);
        let (s1, total1, dirty1, _) = p.snapshot_shared();
        assert!(dirty1 >= 1, "first capture copies the written stripe");
        assert_eq!(total1, 1);
        // Idle: same Arc back, zero stripes copied.
        let (s2, total2, dirty2, clean2) = p.snapshot_shared();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!((dirty2, clean2), (0, STRIPE_COUNT));
        assert_eq!(total2, 1);
        assert_eq!(*s2, p.snapshot_uncached());
        // A write dirties exactly the writer's stripe and the rebuild
        // matches a from-scratch recompute field for field.
        run_task(&p, names.intern("a"), 100, 30);
        let (s3, total3, dirty3, _) = p.snapshot_shared();
        assert!(!Arc::ptr_eq(&s2, &s3));
        assert_eq!(dirty3, 1);
        assert_eq!(total3, 2);
        assert_eq!(*s3, p.snapshot_uncached());
    }

    #[test]
    fn reset_invalidates_shared_snapshot() {
        let (names, p) = setup();
        run_task(&p, names.intern("a"), 0, 10);
        let (s1, _, _, _) = p.snapshot_shared();
        assert_eq!(s1.len(), 1);
        p.reset();
        let (s2, total, dirty, _) = p.snapshot_shared();
        assert!(s2.is_empty());
        assert_eq!(total, 0);
        assert!(dirty >= 1, "reset bumps the cleared stripes' generations");
    }

    #[test]
    fn cross_thread_begin_end_pairs_still_balance() {
        // Begin observed on one thread, end on another: the deltas land in
        // different stripes and must cancel at merge time.
        let (names, p) = setup();
        let p = std::sync::Arc::new(p);
        let id = names.intern("migrated");
        let pb = p.clone();
        std::thread::spawn(move || {
            for i in 0..100 {
                pb.on_event(&Event::TaskBegin {
                    task: id,
                    worker: 0,
                    t_ns: i,
                });
            }
        })
        .join()
        .unwrap();
        let pe = p.clone();
        std::thread::spawn(move || {
            for i in 0..100 {
                pe.on_event(&Event::TaskEnd {
                    task: id,
                    worker: 1,
                    t_ns: i + 5,
                    elapsed_ns: 5,
                });
            }
        })
        .join()
        .unwrap();
        let prof = p.get("migrated").unwrap();
        assert_eq!(prof.count, 100);
        assert_eq!(prof.active, 0);
        assert_eq!(prof.mean_ns, 5.0);
    }
}
