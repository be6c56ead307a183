//! What a message costs the allocator inside `ReliableLink`: on a clean
//! link in steady state, `send` + `pump_into` makes **no** allocator
//! call. `SimLink::transmit` appends into a buffer the link keeps, and
//! each delivery rides its own `Arrive` event by value. No per-attempt
//! message clone, no per-transmit grouping map or delivery vector, no
//! per-pump result vector. (Until the link owned that buffer, each
//! message cost one allocation: the delivery vector `transmit` returned.)
//!
//! This file deliberately holds a single `#[test]` — the allocator count
//! is process-global, so concurrent sibling tests would pollute it.
//!
//! The count is exact, which needs the amortised structures not to grow
//! inside the measured burst: the pending list doubles at 4 096 → 8 192
//! entries and the delivered-seq set rehashes at 3 584 → 7 168, both
//! inside the 5 000-message warm-up, and warm-up + burst stays under
//! both ceilings. The offer-time map, the event heap and the transmit
//! buffer hold in-flight work only and are at their steady size after a
//! few messages.

use lg_net::coalesce::WireMessage;
use lg_net::{FlushReason, Parcel, ReliableConfig, ReliableLink, TransportCost};
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

const WARM_UP: u64 = 5_000;
const BURST: u64 = 1_000;

/// One-parcel messages 10 µs apart over four destinations, with a
/// payload so a per-attempt clone would show twice.
fn messages(seqs: std::ops::Range<u64>) -> Vec<WireMessage> {
    seqs.map(|seq| WireMessage {
        dest: (seq % 4) as u32,
        parcels: vec![Parcel::new(0, (seq % 4) as u32, 0, seq, vec![0u8; 64])],
        reason: FlushReason::Window,
        t_ns: seq * 10_000,
    })
    .collect()
}

#[test]
fn clean_send_and_pump_never_allocate() {
    let mut link = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), 1);
    let mut delivered = Vec::with_capacity(64);
    let mut unique = 0u64;
    let mut run = |link: &mut ReliableLink, batch: Vec<WireMessage>| {
        for msg in batch {
            let t = msg.t_ns;
            link.send(msg, |_| t);
            link.pump_into(t, &mut delivered);
            unique += delivered.len() as u64;
            delivered.clear();
        }
    };
    run(&mut link, messages(0..WARM_UP));

    // The caller's messages are built before the count starts: they are
    // the caller's allocations, not the link's.
    let burst = messages(WARM_UP..WARM_UP + BURST);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    run(&mut link, burst);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "{BURST} clean messages made {delta} allocator calls inside the link"
    );

    link.pump_into(u64::MAX, &mut delivered);
    let report = link.report();
    assert_eq!(unique + delivered.len() as u64, WARM_UP + BURST);
    assert_eq!(report.unique_parcels, WARM_UP + BURST);
    assert_eq!(report.retransmissions, 0);
}
