//! Batched delivery is per-event delivery, for the stock listeners. The
//! profiler, the concurrency tracker and the trace ring each fold a whole
//! deferred batch in one call under one stripe lock; for any event
//! sequence that must leave them exactly where one call per event leaves
//! them.
//!
//! Two instances built alike are fed the same random sequence of task,
//! worker and sample events over a few task names: one through ordinary
//! `emit` (a batch of one per event), the other through `emit_deferred`,
//! which delivers in batches of `DEFERRED_CAPACITY` and at the random
//! flush points the sequence carries. Profile cells, concurrency levels,
//! peak and history, and the trace records must then be equal — exactly,
//! floats included, since both sides run the same arithmetic in the same
//! order.

use lg_core::{flush_deferred, Event, LookingGlass, DEFERRED_CAPACITY};
use proptest::prelude::*;
use std::sync::Arc;

const TASKS: [&str; 3] = ["alpha", "beta", "gamma"];

/// One step of a sequence: an event to emit, or a flush of the deferred
/// buffer.
#[derive(Clone, Debug)]
enum Op {
    Emit(Event),
    Flush,
}

/// A built instance with a trace ring small enough to wrap on long
/// sequences.
fn instance() -> Arc<LookingGlass> {
    LookingGlass::builder().trace(200).build()
}

/// Maps `(kind, task, dt, arg)` draws to a sequence with non-decreasing
/// timestamps (ties included) on `lg`'s name table.
fn sequence(lg: &LookingGlass, draws: &[(u8, usize, u64, u64)]) -> Vec<Op> {
    let ids: Vec<_> = TASKS.iter().map(|n| lg.intern(n)).collect();
    let metric = lg.intern("metric");
    let mut t_ns = 0;
    draws
        .iter()
        .map(|&(kind, task, dt, arg)| {
            t_ns += dt;
            let (task, worker) = (ids[task], (arg % 4) as usize);
            Op::Emit(match kind {
                0 | 1 => Event::TaskBegin { task, worker, t_ns },
                2 | 3 => Event::TaskEnd {
                    task,
                    worker,
                    t_ns,
                    elapsed_ns: arg,
                },
                4 => Event::TaskYield { task, worker, t_ns },
                5 => Event::TaskResume { task, worker, t_ns },
                6 => Event::WorkerStart { worker, t_ns },
                7 => Event::WorkerStop { worker, t_ns },
                8 => Event::SampleValue {
                    metric,
                    t_ns,
                    value: arg as f64 / 7.0,
                },
                _ => return Op::Flush,
            })
        })
        .collect()
}

/// Feeds `draws` to one instance event by event and to another deferred,
/// then compares everything the stock listeners hold.
fn check(draws: &[(u8, usize, u64, u64)]) {
    let (per_event, batched) = (instance(), instance());
    for op in sequence(&per_event, draws) {
        if let Op::Emit(e) = op {
            per_event.emit(&e);
        }
    }
    for op in sequence(&batched, draws) {
        match op {
            Op::Emit(e) => {
                batched.emit_deferred(&e);
            }
            Op::Flush => flush_deferred(),
        }
    }
    flush_deferred();

    assert_eq!(
        batched.profiles().snapshot(),
        per_event.profiles().snapshot()
    );
    let (a, b) = (per_event.concurrency(), batched.concurrency());
    assert_eq!(b.active_tasks(), a.active_tasks());
    assert_eq!(b.peak_tasks(), a.peak_tasks());
    assert_eq!(b.online_workers(), a.online_workers());
    assert_eq!(b.history(), a.history());
    let (a, b) = (per_event.trace().unwrap(), batched.trace().unwrap());
    assert_eq!(b.records(), a.records());
    assert_eq!(b.captured(), a.captured());
    let (a, b) = (per_event.dispatcher(), batched.dispatcher());
    assert_eq!(b.events_dispatched(), a.events_dispatched());
    assert_eq!(b.deliveries(), a.deliveries());
}

fn draw() -> impl Strategy<Value = (u8, usize, u64, u64)> {
    // Kind 9 is a flush: about one op in ten.
    (0u8..10, 0usize..TASKS.len(), 0u64..3, 1u64..1_000)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batched_delivery_equals_per_event(
        draws in proptest::collection::vec(draw(), 1..4 * DEFERRED_CAPACITY)
    ) {
        check(&draws);
    }
}

/// Long enough for the concurrency history (1 024 points) to decimate and
/// the trace ring to wrap many times, with no explicit flushes: every
/// batch but the last is exactly `DEFERRED_CAPACITY` events.
#[test]
fn batched_delivery_equals_per_event_through_decimation() {
    let draws: Vec<_> = (0..5_000u64)
        .map(|i| {
            let mix = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            (
                (mix % 9) as u8,
                (mix >> 8) as usize % TASKS.len(),
                mix % 3,
                1 + mix % 997,
            )
        })
        .collect();
    check(&draws);
}
