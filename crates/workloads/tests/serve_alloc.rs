//! What one serving run costs the allocator: a single
//! `ServeEngine::run` over a storm-shaped `ArrivalGen` stream (Spike
//! arrivals, 8 000 req/s base, doubled over the second quarter of a
//! 0.6 s horizon — the ledger's `simserve` storm without its faults and
//! policies), clean link, metrics bound.
//!
//! The engine's request slab is sized once per run, the link transmits
//! into a buffer it keeps, and each one-parcel `WireMessage` is built in
//! a parcel buffer the link lent back from a resolved message. What is
//! left is amortised growth of the engine's and the link's tables and
//! one fresh parcel buffer per message in flight at the peak: 63 calls
//! for 5 965 requests, 3 018 of them sent. The gate is that count.
//!
//! Before the lent buffers the same run made 3 065 calls, one per sent
//! request plus 47 of growth; before the slab and the transmit buffer it
//! made 6 093: the request `IntMap` grew by rehashing, and every
//! transmission returned a fresh delivery vector.
//!
//! This file deliberately holds a single `#[test]` — the allocator count
//! is process-global, so concurrent sibling tests would pollute it.

use lg_core::{AdmissionGate, Brownout, Bulkhead};
use lg_metrics::CounterRegistry;
use lg_net::{ReliableConfig, ReliableLink, TransportCost};
use lg_workloads::serve::{ArrivalGen, ArrivalPattern, ServeConfig, ServeEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HORIZON_NS: u64 = 600_000_000;
/// The count for this stream; the run is deterministic.
const GATE: u64 = 63;

#[test]
fn one_storm_run_allocates_only_to_grow() {
    let requests = ArrivalGen {
        pattern: ArrivalPattern::Spike {
            base_per_sec: 8_000.0,
            factor: 2.0,
            start_ns: HORIZON_NS / 4,
            end_ns: HORIZON_NS / 2,
        },
        seed: 7,
        optional_frac: 0.3,
        service_mean_ns: 1_000_000,
        mandatory_budget_ns: 50_000_000,
        optional_budget_ns: 25_000_000,
        dests: 4,
    }
    .generate(HORIZON_NS);
    let link = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), 7);
    let mut engine = ServeEngine::new(
        link,
        ServeConfig::default(),
        Bulkhead::new("serve.bulkhead_limit", 1, 256, 16),
        AdmissionGate::new("serve.admit_rate", 100, 1_000_000, 8_000, 64.0, 8.0),
        Brownout::new("serve.shed_level"),
    );
    let counters = CounterRegistry::new();
    engine.bind_metrics(&counters);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let report = engine.run(&requests, |_| {});
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    let sent = engine.link_report().offered_parcels;
    println!(
        "{} requests, {sent} sent, {calls} allocator calls",
        requests.len()
    );
    assert_eq!(report.offered, requests.len() as u64);
    assert!(sent > 0, "the storm reaches the wire");
    assert!(calls > 0, "the counting allocator saw the run (its slab)");
    assert!(
        calls <= GATE,
        "one run made {calls} allocator calls (gate {GATE}, {sent} requests sent)"
    );
}
