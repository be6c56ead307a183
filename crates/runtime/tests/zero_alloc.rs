//! The tentpole acceptance test: steady-state spawn/execute of an
//! inline-sized task performs **zero** heap allocation, measured with a
//! counting global allocator.
//!
//! This file deliberately holds a single `#[test]` — the allocator count
//! is process-global, so concurrent sibling tests would pollute it.
//!
//! The shape: warm the pool up (interner entry, profile map entries,
//! queue capacities, time-series buffers all reach steady state), then
//! snapshot the allocation counter, run another burst of inline spawns,
//! and require the delta to be exactly zero. A second section bounds
//! `parallel_for` and `parallel_for_mut`: their per-call cost is O(1)
//! allocations (scope state, shared body `Arc`, task vector), independent
//! of the chunk count.

use lg_core::LookingGlass;
use lg_runtime::{PoolConfig, ThreadPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_spawn_is_allocation_free() {
    let p = ThreadPool::new(LookingGlass::builder().build(), PoolConfig::with_workers(1));
    let count = Arc::new(AtomicU64::new(0));

    // Warm up: intern the name, fill the profile/concurrency listener
    // maps, grow the injector and worker deque to steady capacity. Two
    // rounds so every lazily-grown structure has seen the full load. The
    // first round's burst is spawned while the single worker is held on a
    // latch task, so the whole burst sits in the injector at once: the
    // injector's capacity then covers any backlog the measured burst can
    // build, however the worker races the spawning thread.
    let burst = 4000u64;
    let held = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(false));
    let (h, g) = (held.clone(), go.clone());
    p.spawn_named("latch", move || {
        h.store(true, Ordering::Release);
        while !g.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    while !held.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    for round in 0..2 {
        for _ in 0..burst {
            let c = count.clone();
            p.spawn_named("steady", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        if round == 0 {
            go.store(true, Ordering::Release);
        }
        p.wait_idle();
    }

    // Measured burst: spawn + execute must not touch the allocator at
    // all — bodies live inline in the task record, queues are warm, and
    // observation (events, profiles, counters) is allocation-free.
    let before = allocs();
    for _ in 0..burst {
        let c = count.clone();
        p.spawn_named("steady", move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    p.wait_idle();
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state spawn/execute of {burst} inline tasks made {delta} allocator calls"
    );
    assert_eq!(count.load(Ordering::Relaxed), 3 * burst);
    assert_eq!(
        p.counters().counter("rt.boxed_tasks").get(),
        0,
        "an inline-sized body fell off the inline path"
    );
    // The latch is one more inline task.
    assert_eq!(p.counters().counter("rt.inline_tasks").get(), 3 * burst + 1);

    // parallel_for: per-call allocations are O(1) — scope state, one
    // shared-body Arc, the task vector — not O(chunks). 512 chunks must
    // stay under a small constant budget once warm.
    let sink = AtomicU64::new(0);
    p.parallel_for("pf", 0..4096, 8, |i| {
        sink.fetch_add(i as u64, Ordering::Relaxed);
    });
    let before = allocs();
    let stats = p.parallel_for("pf", 0..4096, 8, |i| {
        sink.fetch_add(i as u64, Ordering::Relaxed);
    });
    let delta = allocs() - before;
    assert_eq!(stats.chunks, 512);
    assert!(
        delta <= 16,
        "parallel_for over 512 chunks made {delta} allocator calls; expected O(1)"
    );

    // parallel_for_mut is the same batch over a borrowed slice: the same
    // O(1) budget, however many sub-slices it hands out.
    let mut out = vec![0u64; 4096];
    let fill = |start: usize, part: &mut [u64]| {
        for (i, x) in (start..).zip(part) {
            *x = i as u64;
        }
    };
    p.parallel_for_mut("pfm", &mut out, 8, fill);
    let before = allocs();
    let stats = p.parallel_for_mut("pfm", &mut out, 8, fill);
    let delta = allocs() - before;
    assert_eq!(stats.chunks, 512);
    assert!(
        delta <= 16,
        "parallel_for_mut over 512 chunks made {delta} allocator calls; expected O(1)"
    );
}
