//! Zero-allocation gate for the DAG release path.
//!
//! Building a DAG allocates (node table, successor lists) — that is the
//! *wiring* cost, paid before any dependency resolves. What must stay
//! allocation-free is the **release path**: a completing task walks its
//! successor edges, decrements remaining-dep counters, and the `1 → 0`
//! transition moves the pre-built inline task into the LIFO slot / deque
//! / injector. This test freezes a fully wired chain behind a gate node,
//! snapshots the allocator, opens the gate, and requires the entire
//! chain execution — N dep decrements, N promotions, N inline bodies, N
//! completions — to make zero allocator calls.
//!
//! Single `#[test]` per file: the allocation counter is process-global.

use lg_core::LookingGlass;
use lg_runtime::{DagHint, PoolConfig, ThreadPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
fn dag_release_path_is_allocation_free() {
    let p = ThreadPool::new(LookingGlass::builder().build(), PoolConfig::with_workers(1));
    let chain = 512u64;
    let count = AtomicU64::new(0);

    // Warm-up round: intern names, fill profile maps, reach steady queue
    // capacity — same contract as the spawn fast-path gate.
    p.dag_scope(|g| {
        let c = &count;
        let mut prev = g.spawn_after_hinted("dag_gate", &[], DagHint::critical(chain), move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for h in (0..chain).rev() {
            let c = &count;
            prev = g.spawn_after_hinted("dag_link", &[prev], DagHint::critical(h), move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), chain + 1);
    count.store(0, Ordering::Relaxed);

    // Measured round: wire the whole chain behind a gate node that spins
    // until `go` flips, snapshot the allocator, open the gate, and let
    // the chain drain. Every release in the window is a counter
    // decrement + inline-task promotion; none may allocate.
    let go = AtomicBool::new(false);
    let before_cell = AtomicU64::new(0);
    p.dag_scope(|g| {
        let go = &go;
        let c = &count;
        let gate = g.spawn_after_hinted("dag_gate", &[], DagHint::critical(chain), move || {
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            c.fetch_add(1, Ordering::Relaxed);
        });
        let mut prev = gate;
        for h in (0..chain).rev() {
            let c = &count;
            prev = g.spawn_after_hinted("dag_link", &[prev], DagHint::critical(h), move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wiring done; everything past this point is pure release.
        before_cell.store(allocs(), Ordering::Release);
        go.store(true, Ordering::Release);
    });
    let delta = allocs() - before_cell.load(Ordering::Acquire);
    assert_eq!(count.load(Ordering::Relaxed), chain + 1);
    assert_eq!(
        delta, 0,
        "draining a {chain}-node dag chain made {delta} allocator calls"
    );
    // All bodies rode the inline tier; the critical hints took the
    // priority lane.
    assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    assert!(p.counters().counter("rt.priority_pushes").get() >= chain);
}
