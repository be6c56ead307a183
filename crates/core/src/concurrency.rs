//! Active-task and active-worker tracking.
//!
//! Concurrency throttling needs to know how parallel the application
//! actually is right now, and how that evolved. This listener maintains
//! instantaneous gauges (active tasks, online workers) plus a bounded
//! time series of the active-task count, updated on every lifecycle event.
//!
//! Everything a task event writes lives in the **emitting thread's own
//! stripe** (the private `stripe` module): its `(level, peak)` pair —
//! begins minus ends seen by that thread, and their maximum — as atomics
//! only the stripe-lock holder writes, once per batch, and a history of
//! that level in the locked state. A tracker the instance builder made
//! runs under the lock the dispatcher already took; one from
//! [`ConcurrencyListener::new`] locks its own. Reads rebuild the global
//! view from the stripes that were ever touched:
//!
//! * [`ConcurrencyListener::active_tasks`] is the sum of the stripe
//!   levels — exact whenever no event is in flight (a stripe's level goes
//!   negative when tasks begin on one thread and end on another; the sum
//!   still balances).
//! * [`ConcurrencyListener::peak_tasks`] is the sum of the stripe *peaks*:
//!   an upper bound on the highest instantaneous count (every count is a
//!   sum of levels, each at most its stripe's peak), never below any one
//!   emitter's own peak, and exact for a single emitter or whenever the
//!   emitters peaked together (a saturated pool); the exact one would need
//!   a shared RMW per event.
//! * [`ConcurrencyListener::history`] merges the stripe histories by
//!   timestamp and replays them as a running sum of each stripe's latest
//!   level, which for a single emitter is its own history verbatim.

use crate::event::Event;
use crate::listener::Listener;
use crate::stripe::{Stripe, StripeState, Stripes};
use lg_metrics::stripe::{thread_stripe, TouchedStripes, STRIPE_COUNT};
use lg_metrics::TimeSeries;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The history of one stripe's own level.
pub(crate) struct StripeHistory {
    /// `(t_ns, level)` after each event; a full `history_len` window, so
    /// single-threaded emission retains exactly what an unsharded series
    /// would.
    series: TimeSeries,
    /// The newest point, kept even when `series` decimates it away, so
    /// the replay always ends on the stripe's true level.
    last: Option<(u64, f64)>,
}

/// Listener tracking instantaneous and historical concurrency.
pub struct ConcurrencyListener {
    online_workers: AtomicI64,
    history_len: usize,
    stripes: Arc<Stripes>,
    /// The stripes that saw an event: reads fold only those, so their
    /// cost follows the number of emitters, not `STRIPE_COUNT`.
    touched: TouchedStripes,
}

impl ConcurrencyListener {
    /// Creates a tracker whose history retains ~`history_len` points per
    /// emitting-thread stripe.
    pub fn new(history_len: usize) -> Self {
        Self::on(history_len, Stripes::new())
    }

    /// Creates a tracker that keeps its levels and histories in `stripes`
    /// (the instance builder passes its dispatcher's). At most one tracker
    /// per stripe set.
    pub(crate) fn on(history_len: usize, stripes: Arc<Stripes>) -> Self {
        Self {
            online_workers: AtomicI64::new(0),
            history_len: history_len.max(4),
            stripes,
            touched: TouchedStripes::new(),
        }
    }

    /// The stripes that ever saw an event, with their indexes.
    fn touched(&self) -> impl Iterator<Item = (usize, &Stripe)> {
        self.touched.iter().map(|i| (i, self.stripes.get(i)))
    }

    /// Tasks currently executing (exact when no event is in flight).
    pub fn active_tasks(&self) -> i64 {
        self.touched()
            .map(|(_, s)| s.level.load(Ordering::Relaxed))
            .sum()
    }

    /// Workers currently online (started and not stopped/parked).
    pub fn online_workers(&self) -> i64 {
        self.online_workers.load(Ordering::Relaxed)
    }

    /// Upper bound on the highest active-task count observed: the sum of
    /// each emitting thread's own peak. Exact for a single emitter and
    /// whenever the emitters peaked together (see the module docs).
    pub fn peak_tasks(&self) -> i64 {
        self.touched()
            .map(|(_, s)| s.peak.load(Ordering::Relaxed))
            .sum()
    }

    /// Copies the retained `(t_ns, active_tasks)` history: the stripes'
    /// own-level histories merged in timestamp order (ties keep stripe
    /// order — stable, so a single-threaded emission sequence is returned
    /// verbatim) and replayed as the running sum of each stripe's latest
    /// level. A stripe whose series decimated contributes its retained
    /// points plus its exact newest one.
    pub fn history(&self) -> Vec<(u64, f64)> {
        let mut points: Vec<(u64, usize, f64)> = Vec::new();
        for (i, stripe) in self.touched() {
            if let Some(h) = &stripe.lock().state.history {
                points.extend(h.series.iter().map(|(t, v)| (t, i, v)));
                if h.last != h.series.last() {
                    points.extend(h.last.map(|(t, v)| (t, i, v)));
                }
            }
        }
        points.sort_by_key(|&(t, ..)| t);
        let mut latest = [0.0f64; STRIPE_COUNT];
        let mut total = 0.0;
        points
            .into_iter()
            .map(|(t, i, level)| {
                total += level - latest[i];
                latest[i] = level;
                (t, total)
            })
            .collect()
    }

    /// The stripe's level history, allocated by its first task event.
    fn history_of<'s>(&self, state: &'s mut StripeState) -> &'s mut StripeHistory {
        // A stripe is marked touched by the event that creates its
        // history: one shared-word access per stripe, not per event.
        state.history.get_or_insert_with(|| {
            self.touched.mark(thread_stripe());
            StripeHistory {
                series: TimeSeries::new(self.history_len),
                last: None,
            }
        })
    }
}

impl Listener for ConcurrencyListener {
    fn name(&self) -> &str {
        "concurrency"
    }

    fn on_event(&self, event: &Event) {
        self.stripes.deliver(self, event);
    }

    fn stripes(&self) -> Option<&Arc<Stripes>> {
        Some(&self.stripes)
    }

    fn on_batch_locked(&self, events: &[Event], stripe: &Stripe, state: &mut StripeState) {
        // The level and peak ride in locals through the batch and are
        // stored once; the history still gets a point per task event.
        let mut level = stripe.level.load(Ordering::Relaxed);
        let mut peak = stripe.peak.load(Ordering::Relaxed);
        let mut last = None;
        for event in events {
            let (t_ns, delta) = match *event {
                Event::TaskBegin { t_ns, .. } | Event::TaskResume { t_ns, .. } => (t_ns, 1),
                Event::TaskEnd { t_ns, .. } | Event::TaskYield { t_ns, .. } => (t_ns, -1),
                Event::WorkerStart { .. } => {
                    self.online_workers.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Event::WorkerStop { .. } => {
                    self.online_workers.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                _ => continue,
            };
            level += delta;
            peak = peak.max(level);
            self.history_of(state).series.push(t_ns, level as f64);
            last = Some((t_ns, level as f64));
        }
        if last.is_some() {
            self.history_of(state).last = last;
            stripe.level.store(level, Ordering::Relaxed);
            stripe.peak.store(peak, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ConcurrencyListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrencyListener")
            .field("active_tasks", &self.active_tasks())
            .field("online_workers", &self.online_workers())
            .field("peak_tasks", &self.peak_tasks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskNames;

    #[test]
    fn task_begin_end_balance() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let c = ConcurrencyListener::new(64);
        c.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 1,
        });
        c.on_event(&Event::TaskBegin {
            task: id,
            worker: 1,
            t_ns: 2,
        });
        assert_eq!(c.active_tasks(), 2);
        c.on_event(&Event::TaskEnd {
            task: id,
            worker: 0,
            t_ns: 3,
            elapsed_ns: 2,
        });
        assert_eq!(c.active_tasks(), 1);
        assert_eq!(c.peak_tasks(), 2);
    }

    #[test]
    fn yield_resume_adjusts_active() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let c = ConcurrencyListener::new(64);
        c.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 1,
        });
        c.on_event(&Event::TaskYield {
            task: id,
            worker: 0,
            t_ns: 2,
        });
        assert_eq!(c.active_tasks(), 0);
        c.on_event(&Event::TaskResume {
            task: id,
            worker: 0,
            t_ns: 3,
        });
        assert_eq!(c.active_tasks(), 1);
    }

    #[test]
    fn worker_lifecycle() {
        let c = ConcurrencyListener::new(64);
        c.on_event(&Event::WorkerStart { worker: 0, t_ns: 0 });
        c.on_event(&Event::WorkerStart { worker: 1, t_ns: 0 });
        assert_eq!(c.online_workers(), 2);
        c.on_event(&Event::WorkerStop { worker: 1, t_ns: 5 });
        assert_eq!(c.online_workers(), 1);
    }

    #[test]
    fn history_records_transitions() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let c = ConcurrencyListener::new(64);
        c.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 10,
        });
        c.on_event(&Event::TaskEnd {
            task: id,
            worker: 0,
            t_ns: 20,
            elapsed_ns: 10,
        });
        let h = c.history();
        assert_eq!(h, vec![(10, 1.0), (20, 0.0)]);
    }

    /// Runs `f` on a thread pinned to stripe `i`, joined before returning:
    /// the tests below fix their interleavings this way.
    fn on_stripe(i: usize, f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(|| {
                lg_metrics::stripe::set_thread_index(i);
                f();
            });
        });
    }

    fn begin(c: &ConcurrencyListener, t_ns: u64) {
        c.on_event(&Event::TaskBegin {
            task: crate::event::TaskId(0),
            worker: 0,
            t_ns,
        });
    }

    fn end(c: &ConcurrencyListener, t_ns: u64) {
        c.on_event(&Event::TaskEnd {
            task: crate::event::TaskId(0),
            worker: 0,
            t_ns,
            elapsed_ns: 1,
        });
    }

    #[test]
    fn begin_on_one_thread_end_on_another_balances() {
        let c = ConcurrencyListener::new(64);
        on_stripe(1, || (0..5).for_each(|t| begin(&c, t)));
        assert_eq!(c.active_tasks(), 5);
        on_stripe(2, || (5..10).for_each(|t| end(&c, t)));
        assert_eq!(c.active_tasks(), 0, "stripe levels +5 and -5 cancel");
        // The replay is what one shared counter would have recorded.
        let expect: Vec<(u64, f64)> = (0..10u64)
            .map(|t| (t, if t < 5 { t + 1 } else { 9 - t } as f64))
            .collect();
        assert_eq!(c.history(), expect);
        assert_eq!(c.peak_tasks(), 5, "the ending stripe never rose above 0");
    }

    #[test]
    fn nested_timers_on_one_emitter_have_an_exact_peak() {
        let c = ConcurrencyListener::new(64);
        on_stripe(3, || {
            begin(&c, 1);
            begin(&c, 2);
            begin(&c, 3);
            end(&c, 4);
            begin(&c, 5);
            end(&c, 6);
            end(&c, 7);
            end(&c, 8);
        });
        assert_eq!(c.peak_tasks(), 3);
        assert_eq!(c.active_tasks(), 0);
        let levels: Vec<f64> = c.history().iter().map(|&(_, v)| v).collect();
        assert_eq!(levels, vec![1.0, 2.0, 3.0, 2.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn interleaved_emitters_replay_to_the_shared_counter_model() {
        // A fixed interleaving of three emitters (two with nesting, one
        // finishing another's task), checked step by step against one
        // sequential counter.
        let script: &[(usize, i64)] = &[
            (0, 1),
            (1, 1),
            (0, 1),
            (2, 1),
            (1, -1),
            (2, -1),
            (0, -1),
            (1, 1),
            (2, -1), // ends the task stripe 1 just began
            (0, -1),
        ];
        let c = ConcurrencyListener::new(64);
        let (mut level, mut peak, mut model) = (0i64, 0i64, Vec::new());
        let mut own = [(0i64, 0i64); 3]; // (level, peak) per emitter
        for (t, &(stripe, delta)) in script.iter().enumerate() {
            let t = t as u64;
            on_stripe(stripe, || if delta > 0 { begin(&c, t) } else { end(&c, t) });
            level += delta;
            peak = peak.max(level);
            model.push((t, level as f64));
            own[stripe].0 += delta;
            own[stripe].1 = own[stripe].1.max(own[stripe].0);
            assert_eq!(c.active_tasks(), level);
        }
        assert_eq!(c.history(), model);
        assert_eq!(c.history().last(), Some(&(9, 0.0)));
        let p = c.peak_tasks();
        assert!(p >= peak, "bound {p} below the true peak {peak}");
        assert!(own.iter().all(|&(_, own_peak)| p >= own_peak));
        assert_eq!(p, own.iter().map(|o| o.1).sum::<i64>());
    }

    #[test]
    fn decimated_stripes_still_end_on_the_true_level() {
        // A 4-point history decimates almost at once; whatever each stripe
        // retained, the replay must finish where the tasks did.
        let c = ConcurrencyListener::new(4);
        for round in 0..50u64 {
            on_stripe(1, || begin(&c, 4 * round));
            on_stripe(2, || begin(&c, 4 * round + 1));
            on_stripe(2, || end(&c, 4 * round + 2));
            on_stripe(1, || end(&c, 4 * round + 3));
        }
        assert_eq!(c.active_tasks(), 0);
        let h = c.history();
        assert!(h.len() <= 2 * 5, "two stripes, 4 points + newest each");
        assert_eq!(h.last(), Some(&(199, 0.0)));
        assert!(h.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(c.peak_tasks(), 2);
    }

    #[test]
    fn reads_fold_only_stripes_that_emitted() {
        let c = ConcurrencyListener::new(64);
        assert_eq!(c.touched().count(), 0);
        on_stripe(7, || begin(&c, 1));
        on_stripe(7, || end(&c, 2));
        assert_eq!(c.touched().map(|(i, _)| i).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn ignores_samples_and_ticks() {
        let c = ConcurrencyListener::new(64);
        c.on_event(&Event::PeriodicTick { t_ns: 0 });
        assert_eq!(c.active_tasks(), 0);
        assert!(c.history().is_empty());
    }
}
