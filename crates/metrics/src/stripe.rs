//! Contention-free striped counters, the per-thread stripe index, and the
//! generation-stamped thread-local snapshot ([`Versioned`]).
//!
//! A shared `AtomicU64` that every thread RMWs is a scalability bug: the
//! cache line holding it ping-pongs between cores, and at high event rates
//! the counter becomes the bottleneck it was supposed to measure. The fix
//! is striping: a fixed array of cache-line-padded cells, each thread
//! updating "its" cell (chosen by a stable per-thread index), with reads
//! folding all cells. Updates stay a single `fetch_add`, but on a line no
//! other thread is writing, so they cost the same as an uncontended
//! atomic regardless of how many threads emit.
//!
//! The stripe index is assigned lazily from a process-wide counter the
//! first time a thread touches a striped structure, so every thread gets a
//! unique index — counted **down from `usize::MAX`**, so the stripes go
//! `STRIPE_COUNT - 1`, `STRIPE_COUNT - 2`, …. Runtime workers instead pin
//! their index to their worker id via [`set_thread_index`] (0, 1, 2, …) so
//! the worker → stripe mapping is deterministic; the two ranges meet only
//! once pinned plus unpinned threads exceed [`STRIPE_COUNT`], so a driver
//! thread never shares worker 0's cells. Collisions past that point (or
//! between worker 0 of two pools) are benign: colliding threads share a
//! stripe and pay some line sharing, never lose updates.

use parking_lot::RwLock;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of stripes in every striped structure (power of two).
///
/// Thread indexes are reduced `index & (STRIPE_COUNT - 1)`, so hosts with
/// more emitting threads than stripes share stripes — correct, just with
/// proportionally less isolation.
pub const STRIPE_COUNT: usize = 32;

/// Pads (and aligns) a value to its own cache line pair so neighboring
/// stripes never share a line (128 B covers adjacent-line prefetchers).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CacheAligned<T>(pub T);

static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Stable, cheap per-thread index used to pick a stripe.
///
/// Assigned on first use from a process-wide counter (unique per thread,
/// handed out from `usize::MAX` downwards so it stays clear of the small
/// indexes workers pin) unless the thread pinned one with
/// [`set_thread_index`].
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.with(|c| match c.get() {
        Some(i) => i,
        None => {
            let i = usize::MAX - NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
            c.set(Some(i));
            i
        }
    })
}

/// Pins the calling thread's stripe index (worker-id plumbing).
///
/// Runtime workers call this with their worker id at thread start so the
/// worker → stripe mapping is dense and deterministic. Pinned indexes may
/// collide with counter-assigned ones; collisions only share a stripe.
pub fn set_thread_index(index: usize) {
    THREAD_INDEX.with(|c| c.set(Some(index)));
}

/// The calling thread's stripe: [`thread_index`] reduced to
/// `0..STRIPE_COUNT`.
#[inline]
pub fn thread_stripe() -> usize {
    thread_index() & (STRIPE_COUNT - 1)
}

// `TouchedStripes` is one bit per stripe.
const _: () = assert!(STRIPE_COUNT <= 64);

/// Which stripes of a striped structure were ever written, so that reads
/// fold only those: their cost follows the number of writers, not
/// [`STRIPE_COUNT`].
///
/// The word is shared but read-mostly: a stripe writes it once, on its
/// first [`mark`], and only loads it afterwards. All accesses are
/// `SeqCst`, so a writer that marks, then writes its stripe, then reads
/// some flag is ordered against a reader that sets the flag, then
/// iterates, then reads the stripes.
///
/// [`mark`]: TouchedStripes::mark
#[derive(Debug, Default)]
pub struct TouchedStripes(AtomicU64);

impl TouchedStripes {
    /// No stripe touched yet.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Records that stripe `i` is about to be written.
    #[inline]
    pub fn mark(&self, i: usize) {
        if self.0.load(Ordering::SeqCst) >> i & 1 == 0 {
            self.0.fetch_or(1 << i, Ordering::SeqCst);
        }
    }

    /// Indexes of the marked stripes, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.0.load(Ordering::SeqCst);
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                i
            })
        })
    }
}

/// A monotonically increasing counter striped across padded cells.
///
/// `add`/`inc` touch only the calling thread's stripe; [`sum`] folds all
/// stripes with relaxed loads, so a read concurrent with writers sees some
/// valid recent value (monotone across repeated reads of a quiescent
/// counter, exact once writers stop).
///
/// [`sum`]: StripedCounter::sum
#[derive(Debug)]
pub struct StripedCounter {
    cells: [CacheAligned<AtomicU64>; STRIPE_COUNT],
}

impl Default for StripedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl StripedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| CacheAligned(AtomicU64::new(0))),
        }
    }

    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the calling thread's stripe by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Folds every stripe into the counter's total.
    pub fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Max [`Versioned`] values a thread keeps snapshots of (FIFO eviction
/// beyond; an evicted value only costs its next reader a refresh).
pub const SNAPSHOT_CACHE_MAX: usize = 16;

/// One thread's cached view of one [`Versioned`] value.
struct CachedSnapshot {
    owner: u64,
    generation: u64,
    value: Arc<dyn Any + Send + Sync>,
}

/// One thread's snapshots: at most [`SNAPSHOT_CACHE_MAX`], found by linear
/// scan (a thread reads a handful of versioned values at most).
struct SnapshotCache {
    entries: Vec<CachedSnapshot>,
    /// Once full, the oldest entry — the next one replaced.
    oldest: usize,
}

thread_local! {
    /// `RefCell` so a reader that reenters [`Versioned::read`] from inside
    /// its closure falls back to the shared value instead of aliasing the
    /// cache.
    static SNAPSHOTS: RefCell<SnapshotCache> = const {
        RefCell::new(SnapshotCache {
            entries: Vec::new(),
            oldest: 0,
        })
    };
}

static NEXT_VERSIONED_ID: AtomicU64 = AtomicU64::new(1);

/// A rarely-written value read through a **generation-stamped
/// thread-local snapshot** — the one copy of the protocol, behind the
/// dispatcher's listener list.
///
/// Writers replace the value copy-on-write under a lock and bump
/// `generation` (`Release`, still holding the lock). Each reading thread
/// caches an `Arc` of the value and revalidates it per read with one
/// `Acquire` load of `generation`; in steady state (no writes) a read
/// takes no lock and writes no shared cache line — not even a refcount.
///
/// ## Grace period
///
/// A read that *begins* after [`Versioned::update`] returns sees the new
/// value. A thread already inside [`Versioned::read`] (its generation
/// load happened before the bump) finishes on the old snapshot, so
/// staleness is bounded by **one in-flight read per thread**. Snapshots
/// also pin the old value's memory until the caching threads read again,
/// evict (past [`SNAPSHOT_CACHE_MAX`] values per thread), or exit.
pub struct Versioned<T> {
    /// Process-unique id keying the thread-local snapshot cache.
    id: u64,
    /// The current value (slow path; read under lock only on refresh).
    shared: RwLock<Arc<T>>,
    /// Bumped (under the write lock) by every update.
    generation: AtomicU64,
}

impl<T: Send + Sync + 'static> Versioned<T> {
    /// Wraps `value` at generation zero.
    pub fn new(value: T) -> Self {
        Self {
            id: NEXT_VERSIONED_ID.fetch_add(1, Ordering::Relaxed),
            shared: RwLock::new(Arc::new(value)),
            generation: AtomicU64::new(0),
        }
    }

    /// Replaces the value with `f(&current).0` and returns `f`'s second
    /// result. `f` runs under the write lock, so updates are serialized.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut guard = self.shared.write();
        let (next, out) = f(&guard);
        *guard = Arc::new(next);
        // Published while holding the write lock, so a refresh that reads
        // this generation under the read lock pairs it with this value.
        self.generation.fetch_add(1, Ordering::Release);
        out
    }

    /// The current value, read under the lock (the slow path).
    pub fn load(&self) -> Arc<T> {
        self.shared.read().clone()
    }

    /// Runs `f` against the calling thread's snapshot of the value,
    /// refreshed first if an update happened since the thread last looked.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // Acquire pairs with the Release bump in `update`, so a fresh
        // generation is never observed with a stale value.
        let generation = self.generation.load(Ordering::Acquire);
        let mut f = Some(f);
        let cached = SNAPSHOTS.try_with(|cell| {
            // A reader reentered from inside another read's closure (of
            // this or any other value) finds the cache borrowed and takes
            // the slow path; the outer snapshot stays pinned meanwhile.
            let mut cache = cell.try_borrow_mut().ok()?;
            let SnapshotCache { entries, oldest } = &mut *cache;
            let i = match entries.iter().position(|s| s.owner == self.id) {
                Some(i) => {
                    if entries[i].generation != generation {
                        entries[i] = self.load_snapshot();
                    }
                    i
                }
                None if entries.len() < SNAPSHOT_CACHE_MAX => {
                    entries.push(self.load_snapshot());
                    entries.len() - 1
                }
                None => {
                    let i = *oldest;
                    entries[i] = self.load_snapshot();
                    *oldest = (i + 1) % SNAPSHOT_CACHE_MAX;
                    i
                }
            };
            let value = entries[i]
                .value
                .downcast_ref::<T>()
                .expect("snapshot ids are unique to one Versioned<T>");
            f.take().map(|f| f(value))
        });
        match cached {
            Ok(Some(out)) => out,
            // Reentered, or called from another thread-local's destructor
            // after this thread's cache was destroyed.
            _ => f.take().expect("not yet called")(&self.load()),
        }
    }

    /// Reads a consistent (generation, value) pair under the read lock:
    /// `update` bumps the generation while holding the write lock, so the
    /// pair cannot interleave with an update.
    fn load_snapshot(&self) -> CachedSnapshot {
        let guard = self.shared.read();
        CachedSnapshot {
            owner: self.id,
            generation: self.generation.load(Ordering::Acquire),
            value: guard.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Versioned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Versioned")
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(StripedCounter::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        joins.into_iter().for_each(|j| j.join().unwrap());
        assert_eq!(c.sum(), 80_000);
    }

    #[test]
    fn touched_stripes_iterate_marked_indexes_in_order() {
        let t = TouchedStripes::new();
        assert_eq!(t.iter().count(), 0);
        for i in [9, 0, STRIPE_COUNT - 1, 9] {
            t.mark(i);
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 9, STRIPE_COUNT - 1]);
    }

    #[test]
    fn versioned_reads_follow_updates() {
        let v = Versioned::new(vec![1]);
        assert_eq!(v.read(|x| x.clone()), vec![1]);
        let len = v.update(|x| {
            let mut next = x.clone();
            next.push(2);
            let len = next.len();
            (next, len)
        });
        assert_eq!(len, 2);
        // The very next read on a thread with a warm snapshot revalidates.
        assert_eq!(v.read(|x| x.clone()), vec![1, 2]);
        assert_eq!(*v.load(), vec![1, 2]);
    }

    #[test]
    fn versioned_reentrant_read_sees_the_current_value() {
        let outer = Versioned::new(1u32);
        let inner = Versioned::new(2u32);
        // The inner read finds the thread's cache borrowed by the outer
        // one and is served from the shared value.
        assert_eq!(outer.read(|a| inner.read(|b| a + b)), 3);
        inner.update(|_| (5, ()));
        assert_eq!(outer.read(|a| inner.read(|b| a + b)), 6);
    }

    #[test]
    fn versioned_values_past_the_cache_capacity_stay_correct() {
        let values: Vec<Versioned<usize>> =
            (0..SNAPSHOT_CACHE_MAX + 4).map(Versioned::new).collect();
        for round in 0..3 {
            for (i, v) in values.iter().enumerate() {
                assert_eq!(v.read(|x| *x), i + round);
                v.update(|x| (x + 1, ()));
            }
        }
    }

    #[test]
    fn versioned_update_is_visible_to_a_spinning_reader() {
        let v = Arc::new(Versioned::new(0u64));
        let reader = {
            let v = v.clone();
            std::thread::spawn(move || {
                // Warm snapshot first, then wait for the update through it.
                while v.read(|x| *x) == 0 {
                    std::hint::spin_loop();
                }
                v.read(|x| *x)
            })
        };
        v.update(|_| (7, ()));
        assert_eq!(reader.join().unwrap(), 7);
    }

    #[test]
    fn thread_index_is_stable_within_a_thread() {
        assert_eq!(thread_index(), thread_index());
    }

    #[test]
    fn pinned_index_wins() {
        std::thread::spawn(|| {
            set_thread_index(7);
            assert_eq!(thread_index(), 7);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unpinned_threads_stay_clear_of_the_worker_stripes() {
        // Workers pin 0, 1, 2, …; auto-assigned indexes come from the top.
        // Every unpinned thread of this test binary draws from the same
        // counter, so which draw a thread gets is not ours to choose: the
        // k-th is `usize::MAX - k`, and the first `STRIPE_COUNT - 8` of
        // them land outside the stripes of workers 0..8.
        for _ in 0..8 {
            let i = std::thread::spawn(thread_index).join().unwrap();
            let k = usize::MAX - i;
            assert!(k < 1 << 32, "index {i:#x} was not counted down from MAX");
            if k < STRIPE_COUNT - 8 {
                assert!(!(0..8).contains(&(i & (STRIPE_COUNT - 1))), "draw {k}");
            }
        }
    }

    #[test]
    fn distinct_threads_get_distinct_indexes() {
        let a = std::thread::spawn(thread_index).join().unwrap();
        let b = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(a, b);
    }
}
