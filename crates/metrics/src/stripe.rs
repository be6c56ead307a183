//! Contention-free striped counters and the per-thread stripe index.
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

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
