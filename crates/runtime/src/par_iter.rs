//! `parallel_for` with a tunable chunk size — the granularity knob.
//!
//! The index range is split into chunks of `chunk` iterations; each chunk
//! is one task. Small chunks expose parallelism and balance load but pay
//! per-task scheduling overhead; large chunks amortize overhead but starve
//! workers and bunch load. The optimum depends on the body cost and the
//! worker count — which is why it is a knob ([`ThreadPool::chunk_knob`])
//! rather than a constant, and why the granularity experiment (Fig 4)
//! tunes it online.
//!
//! One `parallel_for` call issues **one** injector batch push, **one**
//! worker wake wave and **one** charge to the scope barrier, and every
//! chunk task captures `(&body, start, end)` — a pointer to the scope's
//! single copy of the body, within the inline budget — so the per-chunk
//! cost contains no allocation, no reference count and no condvar
//! round-trip, and the workers publish their completions in batches. That
//! is the per-task α the small-chunk penalty region of Fig 4 measures;
//! see [`crate::Scope::spawn_batch`] and the flush rules in
//! [`crate::scope`].
//!
//! [`ThreadPool::parallel_for_mut`] is the same loop over a `&mut [T]`:
//! each chunk task gets its own sub-slice, so a kernel writes its output
//! without `unsafe` of its own. [`ThreadPool::parallel_reduce`] uses it
//! for its per-chunk partials.

use crate::pool::ThreadPool;
use lg_core::knob::{AtomicKnob, KnobSpec};
use std::sync::Arc;

/// Statistics returned by [`ThreadPool::parallel_for`] and
/// [`ThreadPool::parallel_for_mut`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelForStats {
    /// Number of chunk tasks spawned.
    pub chunks: usize,
    /// Chunk size used (iterations per task, except possibly the last).
    pub chunk_size: usize,
    /// Total iterations executed.
    pub iterations: u64,
}

impl ThreadPool {
    /// Creates (and registers) an [`AtomicKnob`] named `name` for a chunk
    /// size: a caller reads it before each [`ThreadPool::parallel_for`].
    pub fn chunk_knob(&self, name: &str, min: i64, max: i64, initial: i64) -> Arc<AtomicKnob> {
        let mut spec = KnobSpec::new(name, min, max)
            .with_unit("iters")
            .with_default(initial);
        // Chunk sizes are naturally swept over powers of two.
        if min >= 1 && max >= min {
            spec = spec.with_scale(lg_core::knob::KnobScale::Pow2);
        }
        let knob = AtomicKnob::new(spec, initial);
        self.lg().knobs().register(knob.clone());
        knob
    }

    /// Runs `body(i)` for every `i` in `range`, in parallel, in chunks of
    /// `chunk` iterations. Blocks until every iteration has run.
    ///
    /// The chunk set is submitted through [`crate::Scope::spawn_batch`]:
    /// one batch push, one wake wave, zero per-chunk boxing.
    ///
    /// # Panics
    /// Panics if `chunk` is zero, or (after completion) if any body
    /// panicked.
    pub fn parallel_for<F>(
        &self,
        name: &str,
        range: std::ops::Range<usize>,
        chunk: usize,
        body: F,
    ) -> ParallelForStats
    where
        F: Fn(usize) + Send + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let iterations = range.end.saturating_sub(range.start) as u64;
        let chunks = self.scope(|s| {
            let body = &body;
            s.spawn_batch(name, range, chunk, move |start, end| {
                for i in start..end {
                    body(i);
                }
            })
        });
        // The barrier passed without a panic (`scope` re-throws one), so
        // every chunk ran to its end: the whole range was executed.
        ParallelForStats {
            chunks,
            chunk_size: chunk,
            iterations,
        }
    }

    /// Runs `body(start, &mut data[start..end])` for every `chunk`-sized
    /// sub-slice of `data`, in parallel, and blocks until all have run.
    /// `start` is the sub-slice's offset in `data`. Each chunk task owns
    /// its sub-slice, so a parallel loop writes its output array without
    /// `unsafe`. Chunking, task naming, the one batch push and the
    /// returned statistics are those of [`ThreadPool::parallel_for`] over
    /// `0..data.len()`.
    ///
    /// # Panics
    /// Panics if `chunk` is zero, or (after completion) if any body
    /// panicked.
    pub fn parallel_for_mut<T, F>(
        &self,
        name: &str,
        data: &mut [T],
        chunk: usize,
        body: F,
    ) -> ParallelForStats
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        let iterations = data.len() as u64;
        let chunks = self.scope(|s| s.spawn_batch_mut(name, data, chunk, body));
        ParallelForStats {
            chunks,
            chunk_size: chunk,
            iterations,
        }
    }

    /// Parallel fold: applies `body` to every index, combining per-chunk
    /// partial results with `combine`. `identity` seeds each chunk.
    ///
    /// `combine` sees partials in chunk order: `identity` first, then the
    /// partial of the chunk starting at `range.start`, then the next one.
    /// A non-commutative or floating-point `combine` therefore gives the
    /// same result on every run.
    pub fn parallel_reduce<T, F, C>(
        &self,
        name: &str,
        range: std::ops::Range<usize>,
        chunk: usize,
        identity: T,
        body: F,
        combine: C,
    ) -> T
    where
        T: Clone + Send + Sync,
        F: Fn(usize, T) -> T + Send + Sync,
        C: Fn(T, T) -> T,
    {
        assert!(chunk > 0, "chunk size must be positive");
        // One slot per chunk, written by that chunk's task alone.
        let len = range.end.saturating_sub(range.start);
        let mut partials = vec![identity.clone(); len.div_ceil(chunk)];
        self.parallel_for_mut(name, &mut partials, 1, |c, slot| {
            let start = range.start + c * chunk;
            let end = (start + chunk).min(range.end);
            slot[0] = (start..end).fold(identity.clone(), |acc, i| body(i, acc));
        });
        partials.into_iter().fold(identity, combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use lg_core::LookingGlass;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool(workers: usize) -> ThreadPool {
        let lg = LookingGlass::builder().build();
        ThreadPool::new(lg, PoolConfig::with_workers(workers))
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let p = pool(3);
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stats = p.parallel_for("cover", 0..n, 77, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.iterations, n as u64);
        assert_eq!(stats.chunks, n.div_ceil(77));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn one_batch_push_per_call_and_no_boxing() {
        let p = pool(2);
        for call in 1..=3u64 {
            p.parallel_for("batched", 0..1000, 64, |_| {});
            assert_eq!(
                p.counters().counter("rt.batch_spawns").get(),
                call,
                "each parallel_for must issue exactly one batch push"
            );
        }
        // Chunk tasks capture (&body, start, end): inline, never boxed.
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
        assert_eq!(
            p.counters().counter("rt.inline_tasks").get() as usize,
            3 * 1000usize.div_ceil(64)
        );
    }

    #[test]
    fn empty_range_is_a_noop() {
        let p = pool(2);
        let stats = p.parallel_for("empty", 5..5, 10, |_| panic!("must not run"));
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn chunk_larger_than_range() {
        let p = pool(2);
        let count = AtomicU64::new(0);
        let stats = p.parallel_for("big-chunk", 0..10, 1000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.chunks, 1);
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let p = pool(1);
        p.parallel_for("bad", 0..10, 0, |_| {});
    }

    #[test]
    fn knob_is_registered_on_instance() {
        let p = pool(1);
        let _ = p.chunk_knob("my_chunk", 1, 100, 10);
        let knobs = p.lg().knobs();
        let chunk = knobs.id("my_chunk").expect("registered");
        assert_eq!(knobs.value_id(chunk), Some(10));
        knobs.set_id(chunk, 64);
    }

    #[test]
    fn reduce_sums_correctly() {
        let p = pool(3);
        let total = p.parallel_reduce(
            "sum",
            0..1001,
            64,
            0u64,
            |i, acc| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, 1000 * 1001 / 2);
    }

    #[test]
    fn reduce_with_single_chunk() {
        let p = pool(2);
        let total = p.parallel_reduce(
            "sum1",
            0..5,
            100,
            0u64,
            |i, acc| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, 10);
    }

    #[test]
    fn reduce_empty_range_is_identity() {
        let p = pool(2);
        let total = p.parallel_reduce("sum0", 3..3, 4, 99u64, |_, acc| acc, |a, _b| a);
        assert_eq!(total, 99);
    }

    #[test]
    fn reduce_combines_partials_in_chunk_order() {
        // Concatenation is not commutative: the visited indices come back
        // as the range in order only if `combine` takes the partials in
        // chunk order, however the three workers finished them.
        let p = pool(3);
        for _ in 0..5 {
            let visited = p.parallel_reduce(
                "concat",
                0..2000,
                7,
                Vec::new(),
                |i, mut acc: Vec<usize>| {
                    acc.push(i);
                    acc
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(visited, (0..2000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn profile_counts_chunks_not_iterations() {
        let p = pool(2);
        p.parallel_for("profiled_chunks", 0..100, 10, |_| {});
        assert_eq!(p.lg().profiles().get("profiled_chunks").unwrap().count, 10);
    }
}
