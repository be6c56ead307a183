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

use crate::pool::ThreadPool;
use lg_core::knob::{AtomicKnob, KnobSpec};
use std::sync::Arc;

/// Statistics returned by [`ThreadPool::parallel_for`].
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
    /// Creates (and registers) an [`AtomicKnob`] named `name` that
    /// [`ThreadPool::parallel_for_knobbed`] reads for its chunk size.
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

    /// Like [`ThreadPool::parallel_for`], but reads the chunk size from a
    /// knob at call time — the form adaptation drives.
    pub fn parallel_for_knobbed<F>(
        &self,
        name: &str,
        range: std::ops::Range<usize>,
        chunk_knob: &AtomicKnob,
        body: F,
    ) -> ParallelForStats
    where
        F: Fn(usize) + Send + Sync,
    {
        use lg_core::Knob as _;
        let chunk = chunk_knob.get().max(1) as usize;
        self.parallel_for(name, range, chunk, body)
    }

    /// Parallel fold: applies `body` to every index, combining per-chunk
    /// partial results with `combine`. `identity` seeds each chunk.
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
        let partials: parking_lot::Mutex<Vec<T>> = parking_lot::Mutex::new(Vec::new());
        self.scope(|s| {
            let body = &body;
            let partials = &partials;
            let identity = &identity;
            s.spawn_batch(name, range, chunk, move |start, end| {
                let mut acc = identity.clone();
                for i in start..end {
                    acc = body(i, acc);
                }
                partials.lock().push(acc);
            });
        });
        partials.into_inner().into_iter().fold(identity, combine)
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
    fn knobbed_variant_reads_knob() {
        let p = pool(2);
        let knob = p.chunk_knob("chunk", 1, 4096, 128);
        let stats = p.parallel_for_knobbed("k", 0..1000, &knob, |_| {});
        assert_eq!(stats.chunk_size, 128);
        use lg_core::Knob as _;
        knob.set(500);
        let stats = p.parallel_for_knobbed("k", 0..1000, &knob, |_| {});
        assert_eq!(stats.chunk_size, 500);
        assert_eq!(stats.chunks, 2);
    }

    #[test]
    fn knob_is_registered_on_instance() {
        let p = pool(1);
        let _ = p.chunk_knob("my_chunk", 1, 100, 10);
        assert_eq!(p.lg().knobs().value("my_chunk"), Some(10));
        p.lg().knobs().set("my_chunk", 64);
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
    fn profile_counts_chunks_not_iterations() {
        let p = pool(2);
        p.parallel_for("profiled_chunks", 0..100, 10, |_| {});
        assert_eq!(p.lg().profiles().get("profiled_chunks").unwrap().count, 10);
    }
}
