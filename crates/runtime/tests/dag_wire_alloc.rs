//! Allocation gate for the DAG *wiring* path.
//!
//! `dag_alloc.rs` holds the release path to zero allocator calls. This
//! one bounds what building a DAG costs: nodes go into an arena whose
//! segments double in size, and a successor list keeps its first four
//! edges inline, so wiring a 16 × 128 stencil (2 048 nodes, three edges
//! each) behind a gate node allocates a handful of segments and one
//! spilled list — the gate's own sixteen successors — not one `Vec` per
//! predecessor.
//!
//! Single `#[test]` per file: the allocation counter is process-global.

use lg_core::LookingGlass;
use lg_runtime::{DagNodeId, DagScope, PoolConfig, ThreadPool};
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

const WIDTH: usize = 16;
const DEPTH: usize = 128;
/// Six arena segments (64 + 128 + … + 2 048 ≥ 2 049 nodes), three growth
/// steps of the gate's spilled list, and slack for nothing else.
const MAX_ALLOCS: u64 = 16;

/// Wires the stencil behind a gate that spins until `go` flips; returns
/// the allocator calls the wiring made.
fn wire_stencil<'s>(
    g: &DagScope<'s, '_>,
    go: &'s AtomicBool,
    ran: &'s AtomicU64,
    ids: &mut Vec<DagNodeId>,
) -> u64 {
    ids.clear();
    let before = allocs();
    let gate = g.spawn_after("wire_gate", &[], move || {
        while !go.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        ran.fetch_add(1, Ordering::Relaxed);
    });
    for t in 0..DEPTH {
        for x in 0..WIDTH {
            let mut deps = [gate; 3];
            let n = if t == 0 {
                1
            } else {
                let row = &ids[(t - 1) * WIDTH..t * WIDTH];
                let lo = x.saturating_sub(1);
                let hi = (x + 2).min(WIDTH);
                deps[..hi - lo].copy_from_slice(&row[lo..hi]);
                hi - lo
            };
            ids.push(g.spawn_after("wire_node", &deps[..n], move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
    }
    let made = allocs() - before;
    go.store(true, Ordering::Release);
    made
}

#[test]
fn dag_wiring_allocates_per_segment_not_per_node() {
    let p = ThreadPool::new(LookingGlass::builder().build(), PoolConfig::with_workers(1));
    let ran = AtomicU64::new(0);
    let mut ids = Vec::with_capacity(WIDTH * DEPTH);

    // Warm-up round: intern the names and grow the pool's queues to the
    // width this DAG releases at, as in the release-path gate.
    let go = AtomicBool::new(false);
    p.dag_scope(|g| wire_stencil(g, &go, &ran, &mut ids));
    assert_eq!(ran.load(Ordering::Relaxed), (WIDTH * DEPTH + 1) as u64);
    ran.store(0, Ordering::Relaxed);

    let go = AtomicBool::new(false);
    let made = p.dag_scope(|g| wire_stencil(g, &go, &ran, &mut ids));
    assert_eq!(ran.load(Ordering::Relaxed), (WIDTH * DEPTH + 1) as u64);
    assert!(
        made <= MAX_ALLOCS,
        "wiring a {WIDTH}x{DEPTH} stencil made {made} allocator calls, want <= {MAX_ALLOCS}"
    );
}
