//! Bounded ring-buffer event tracing.
//!
//! Keeps recent events verbatim for post-hoc inspection (the experiment
//! harness dumps them; tests assert on ordering). When a ring fills, the
//! oldest record is overwritten and a drop counter increments — tracing
//! must never grow without bound or apply backpressure to the runtime.
//!
//! ## Per-thread rings
//!
//! Capture writes only the emitting thread's own stripe: the event lands
//! in that thread's ring, part of the stripe's shared state (the private
//! `stripe` module) behind the stripe's one lock, and the ring counts its
//! own captures. A tracer the instance builder made sits on its
//! dispatcher's stripes and pushes under the lock the dispatcher already
//! took; one from [`TraceListener::new`] locks its own. Nothing shared is
//! written — in particular there is no global sequence counter.
//! [`TraceListener::records`] establishes the order at drain time instead:
//! it merges the rings by event timestamp (each ring's own capture order
//! is never reordered; ties go to the lower stripe) and numbers the merged
//! records consecutively, ending at `captured() - 1`. For one emitting
//! thread that is exactly capture order; across threads it is timestamp
//! order, which for a monotone clock is capture order up to the clock's
//! resolution. Each stripe holds a full `capacity` ring, so a
//! single-threaded emission sequence drains exactly as an unsharded tracer
//! would; with `k` emitting threads total retention is bounded by
//! `k × capacity` and per-stripe overwrite counting is preserved (summed
//! by [`TraceListener::overwritten`]).
//!
//! A ring's buffer is reserved by the first capture on its stripe and its
//! pages are touched only as events land: a stripe no thread emits on
//! costs nothing, however large `capacity` is.

use crate::event::Event;
use crate::listener::Listener;
use crate::stripe::{Stripe, StripeState, Stripes};
use std::collections::VecDeque;
use std::sync::Arc;

/// One retained trace record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Position in the merged capture order, assigned when the records
    /// are drained: consecutive across the retained records, counting
    /// overwritten ones before them.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// One stripe's retained events.
pub(crate) struct Ring {
    /// Grows to `capacity`, then is overwritten in place from `head`.
    buf: Vec<Event>,
    capacity: usize,
    /// Once full: the oldest slot, the next one overwritten.
    head: usize,
    /// Events this ring ever captured.
    captured: u64,
    overwritten: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            captured: 0,
            overwritten: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.overwritten += 1;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.captured += 1;
    }

    /// Retained events, oldest → newest.
    fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer).copied()
    }

    /// Forgets the events and counters; the buffer stays reserved.
    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.captured = 0;
        self.overwritten = 0;
    }
}

/// Listener retaining the most recent events in per-thread ring buffers.
pub struct TraceListener {
    stripes: Arc<Stripes>,
    capacity: usize,
}

impl TraceListener {
    /// Creates a tracer retaining at most `capacity` events per emitting
    /// thread.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::on(capacity, Stripes::new())
    }

    /// Creates a tracer that keeps its rings in `stripes` (the instance
    /// builder passes its dispatcher's). At most one tracer per stripe
    /// set.
    pub(crate) fn on(capacity: usize, stripes: Arc<Stripes>) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self { stripes, capacity }
    }

    /// Folds `f` over the rings that exist, in stripe order, each under
    /// its stripe lock.
    fn rings<'a, T>(&'a self, mut f: impl FnMut(&Ring) -> T + 'a) -> impl Iterator<Item = T> + 'a {
        self.stripes
            .iter()
            .filter_map(move |s| s.lock().state.ring.as_ref().map(&mut f))
    }

    /// Copies the retained records oldest → newest: the rings merged by
    /// event timestamp without reordering any one thread's captures, and
    /// numbered consecutively (see the module docs).
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut overwritten = 0;
        let mut queues: Vec<VecDeque<Event>> = self
            .rings(|ring| {
                overwritten += ring.overwritten;
                ring.events().collect()
            })
            .collect();
        let mut out = Vec::with_capacity(queues.iter().map(VecDeque::len).sum());
        // Repeatedly take the earliest-stamped head; `min_by_key` keeps
        // the first (lowest-stripe) queue on ties.
        while let Some(queue) = queues
            .iter_mut()
            .filter(|q| !q.is_empty())
            .min_by_key(|q| q[0].t_ns())
        {
            let event = queue.pop_front().expect("filtered non-empty");
            out.push(TraceRecord {
                seq: overwritten + out.len() as u64,
                event,
            });
        }
        out
    }

    /// Number of events overwritten after a ring filled (summed across
    /// threads).
    pub fn overwritten(&self) -> u64 {
        self.rings(|ring| ring.overwritten).sum()
    }

    /// Total events ever captured (summed across threads).
    pub fn captured(&self) -> u64 {
        self.rings(|ring| ring.captured).sum()
    }

    /// Clears the buffers and counters. Not atomic with respect to
    /// concurrent capture: an event in flight may land in an
    /// already-cleared ring — quiesce emitters before clearing between
    /// measurement epochs.
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            if let Some(ring) = &mut stripe.lock().state.ring {
                ring.clear();
            }
        }
    }
}

impl Listener for TraceListener {
    fn name(&self) -> &str {
        "trace"
    }

    fn on_event(&self, event: &Event) {
        self.stripes.deliver(self, event);
    }

    fn stripes(&self) -> Option<&Arc<Stripes>> {
        Some(&self.stripes)
    }

    fn on_batch_locked(&self, events: &[Event], _stripe: &Stripe, state: &mut StripeState) {
        let ring = state.ring.get_or_insert_with(|| Ring::new(self.capacity));
        events.iter().for_each(|e| ring.push(*e));
    }
}

impl std::fmt::Debug for TraceListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceListener")
            .field("capacity", &self.capacity)
            .field("captured", &self.captured())
            .field("overwritten", &self.overwritten())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: u64) -> Event {
        Event::PeriodicTick { t_ns: t }
    }

    #[test]
    fn retains_in_order_under_capacity() {
        let tr = TraceListener::new(8);
        for t in 0..5 {
            tr.on_event(&tick(t));
        }
        let recs = tr.records();
        assert_eq!(recs.len(), 5);
        assert!(recs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(recs[0].event, tick(0));
        assert_eq!(recs[4].event, tick(4));
        assert_eq!(tr.overwritten(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let tr = TraceListener::new(4);
        for t in 0..10 {
            tr.on_event(&tick(t));
        }
        let recs = tr.records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].event, tick(6));
        assert_eq!(recs[3].event, tick(9));
        assert_eq!(tr.overwritten(), 6);
        assert_eq!(tr.captured(), 10);
    }

    #[test]
    fn sequence_numbers_are_global() {
        let tr = TraceListener::new(2);
        for t in 0..5 {
            tr.on_event(&tick(t));
        }
        let recs = tr.records();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn clear_resets_everything() {
        let tr = TraceListener::new(4);
        for t in 0..10 {
            tr.on_event(&tick(t));
        }
        tr.clear();
        assert!(tr.records().is_empty());
        assert_eq!(tr.overwritten(), 0);
        assert_eq!(tr.captured(), 0);
        tr.on_event(&tick(99));
        assert_eq!(tr.records()[0].seq, 0);
    }

    #[test]
    fn a_ring_is_reserved_by_its_first_capture_and_survives_clear() {
        const CAP: usize = 1 << 20;
        let tr = TraceListener::new(CAP);
        // Reserved slots per stripe; `None` where no buffer exists.
        let reserved = |tr: &TraceListener| -> Vec<Option<usize>> {
            tr.stripes
                .iter()
                .map(|s| s.lock().state.ring.as_ref().map(|r| r.buf.capacity()))
                .collect()
        };
        assert!(reserved(&tr).iter().all(Option::is_none));
        std::thread::scope(|s| {
            s.spawn(|| {
                lg_metrics::stripe::set_thread_index(5);
                tr.on_event(&tick(1));
            });
        });
        let after_capture = reserved(&tr);
        for (i, r) in after_capture.iter().enumerate() {
            match r {
                Some(slots) => assert!(i == 5 && *slots >= CAP),
                None => assert_ne!(i, 5, "the capturing stripe has no ring"),
            }
        }
        tr.clear();
        assert_eq!(reserved(&tr), after_capture, "clear gave the buffer back");
        assert_eq!((tr.captured(), tr.records().len()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TraceListener::new(0);
    }

    #[test]
    fn multi_thread_capture_merges_in_sequence_order() {
        let tr = std::sync::Arc::new(TraceListener::new(64));
        let mut joins = Vec::new();
        for w in 0..4u64 {
            let tr = tr.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..10 {
                    tr.on_event(&tick(w * 100 + i));
                }
            }));
        }
        joins.into_iter().for_each(|j| j.join().unwrap());
        let recs = tr.records();
        assert_eq!(recs.len(), 40);
        assert_eq!(tr.captured(), 40);
        // Drain is totally ordered by capture sequence with no gaps or
        // duplicates (nothing overwritten at this capacity).
        assert!(recs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(recs[0].seq, 0);
        assert_eq!(tr.overwritten(), 0);
    }

    #[test]
    fn concurrent_capture_past_capacity_drains_gapless_and_ordered() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 300;
        const CAP: usize = 64;
        let tr = TraceListener::new(CAP);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let (tr, start) = (&tr, &start);
                s.spawn(move || {
                    start.wait();
                    // Each thread's stamps rise, and no two threads share
                    // one: the merged order is fully determined.
                    for i in 0..PER_THREAD {
                        tr.on_event(&tick(i * THREADS + w));
                    }
                });
            }
        });
        assert_eq!(tr.captured(), THREADS * PER_THREAD);
        assert_eq!(tr.overwritten(), THREADS * (PER_THREAD - CAP as u64));
        let recs = tr.records();
        assert_eq!(recs.len(), THREADS as usize * CAP);
        // Gapless, ending at the last capture.
        assert_eq!(recs[0].seq, tr.overwritten());
        assert!(recs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(recs.last().unwrap().seq, tr.captured() - 1);
        // Totally ordered by stamp; every thread's newest CAP captures
        // are there, in its own order.
        assert!(recs
            .windows(2)
            .all(|w| w[0].event.t_ns() < w[1].event.t_ns()));
        for w in 0..THREADS {
            let own: Vec<u64> = recs
                .iter()
                .map(|r| r.event.t_ns())
                .filter(|t| t % THREADS == w)
                .collect();
            let expect: Vec<u64> = (PER_THREAD - CAP as u64..PER_THREAD)
                .map(|i| i * THREADS + w)
                .collect();
            assert_eq!(own, expect, "thread {w}");
        }
    }

    #[test]
    fn a_thread_whose_stamps_go_backwards_keeps_its_capture_order() {
        let tr = TraceListener::new(8);
        for t in [5, 3, 9, 1] {
            tr.on_event(&tick(t));
        }
        std::thread::scope(|s| {
            s.spawn(|| tr.on_event(&tick(4)));
        });
        let stamps: Vec<u64> = tr.records().iter().map(|r| r.event.t_ns()).collect();
        // 4 (the other thread) merges in before the first head it
        // undercuts; 5, 3, 9, 1 never swap among themselves.
        assert_eq!(stamps, vec![4, 5, 3, 9, 1]);
    }

    #[test]
    fn per_thread_overwrite_counts_sum() {
        let tr = std::sync::Arc::new(TraceListener::new(4));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let tr = tr.clone();
            joins.push(std::thread::spawn(move || {
                for t in 0..10 {
                    tr.on_event(&tick(t));
                }
            }));
        }
        joins.into_iter().for_each(|j| j.join().unwrap());
        // Each thread's stripe overwrote 6 of its 10 events.
        assert_eq!(tr.overwritten(), 12);
        assert_eq!(tr.captured(), 20);
        assert_eq!(tr.records().len(), 8);
    }
}
