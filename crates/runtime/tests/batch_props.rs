//! Property tests for batched spawning and the LIFO-slot drain rule.
//!
//! The batch invariant: for *any* `(range, chunk)` — empty ranges and
//! chunks larger than the range included — `parallel_for` via
//! `spawn_batch` executes every index exactly once and reports
//! `chunks == ceil(len / chunk)`. The slot invariant: tasks sitting in a
//! worker's (unstealable) LIFO slot are never lost when the thread cap
//! parks that worker — the drain rule moves them to the injector first.

use lg_core::LookingGlass;
use lg_runtime::{PoolConfig, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool(workers: usize) -> ThreadPool {
    ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig::with_workers(workers),
    )
}

proptest! {
    // Thread pools are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parallel_for_covers_any_range_chunk_exactly_once(
        workers in 1usize..4,
        start in 0usize..50,
        len in 0usize..400,
        // Reaches past any generated `len`, covering the oversized-chunk case.
        chunk in 1usize..500,
    ) {
        let p = pool(workers);
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        let stats = p.parallel_for("prop", start..start + len, chunk, |i| {
            hits[i - start].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert_eq!(stats.chunks, len.div_ceil(chunk));
        prop_assert_eq!(stats.iterations, len as u64);
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {}", i + start);
        }
        // One batch push per non-empty call, zero per-chunk boxing.
        let expected_batches = u64::from(len > 0);
        prop_assert_eq!(p.counters().counter("rt.batch_spawns").get(), expected_batches);
        prop_assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);

        // `parallel_for_mut` over a slice of the same length: each slot is
        // written once, by the task whose `start` is its sub-slice's offset.
        let mut slots = vec![(usize::MAX, 0u32); len];
        let stats = p.parallel_for_mut("prop_mut", &mut slots, chunk, |start, part| {
            for (i, slot) in (start..).zip(part) {
                *slot = (i, slot.1 + 1);
            }
        });
        prop_assert_eq!(stats.chunks, len.div_ceil(chunk));
        prop_assert_eq!(stats.iterations, len as u64);
        for (i, &slot) in slots.iter().enumerate() {
            prop_assert_eq!(slot, (i, 1), "slot {}", i);
        }
        prop_assert_eq!(p.counters().counter("rt.batch_spawns").get(), 2 * expected_batches);
        prop_assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    }

    #[test]
    fn spawn_batch_chunk_boundaries_partition_the_range(
        len in 1usize..300,
        chunk in 1usize..350,
    ) {
        let p = pool(2);
        // Record each chunk's (start, end) and check they tile the range.
        let bounds = parking_lot::Mutex::new(Vec::new());
        let chunks = p.scope(|s| {
            let bounds = &bounds;
            s.spawn_batch("tile", 0..len, chunk, move |start, end| {
                bounds.lock().push((start, end));
            })
        });
        let mut bounds = bounds.into_inner();
        bounds.sort_unstable();
        prop_assert_eq!(bounds.len(), chunks);
        prop_assert_eq!(bounds.len(), len.div_ceil(chunk));
        let mut expected = 0;
        for &(start, end) in &bounds {
            prop_assert_eq!(start, expected, "chunks must tile without gap/overlap");
            prop_assert!(end > start);
            prop_assert!(end - start <= chunk);
            expected = end;
        }
        prop_assert_eq!(expected, len);
    }
}

/// LIFO-slot tasks survive a ThreadCap lower→raise cycle: worker-spawned
/// children land in the spawning worker's slot, and a cap change that
/// parks the worker must drain that slot rather than strand it.
#[test]
fn lifo_slot_tasks_survive_cap_cycles() {
    let p = Arc::new(pool(3));
    let count = Arc::new(AtomicU64::new(0));
    let rounds = 40;
    let children = 8;
    for round in 0..rounds {
        // Each parent runs on a worker, so its children go through the
        // LIFO slot (first child) and local deque.
        let inner = p.clone();
        let c = count.clone();
        p.spawn_named("parent", move || {
            for _ in 0..children {
                let c = c.clone();
                inner.spawn_named("child", move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // Lower→raise while children are in flight.
        p.thread_cap().set_cap(1 + (round % 3));
    }
    p.thread_cap().set_cap(3);
    p.wait_idle();
    assert_eq!(
        count.load(Ordering::Relaxed),
        (rounds * children) as u64,
        "a LIFO-slot task was lost across a cap cycle"
    );
    assert_eq!(
        p.counters().counter("rt.spawned").get(),
        p.counters().counter("rt.executed").get(),
        "spawn/execute accounting must balance"
    );
}

/// Same cycle, but with the cap held low while slot-bound work is queued,
/// then raised — the parked workers' slots must already have been drained.
#[test]
fn slot_drain_happens_before_park() {
    let p = Arc::new(pool(2));
    let count = Arc::new(AtomicU64::new(0));
    for _ in 0..20 {
        let inner = p.clone();
        let c = count.clone();
        p.thread_cap().set_cap(2);
        p.spawn_named("parent", move || {
            let c2 = c.clone();
            inner.spawn_named("slot-child", move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            // Parent keeps its worker busy long enough for a cap change
            // to land while the child sits in the slot.
            inner.thread_cap().set_cap(1);
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        p.wait_idle();
        p.thread_cap().set_cap(2);
    }
    assert_eq!(count.load(Ordering::Relaxed), 20);
}
