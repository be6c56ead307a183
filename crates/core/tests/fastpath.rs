//! Integration tests for the lock-free observation fast path: deregister
//! grace-period bounds, and behavioral equivalence of the sharded
//! listeners with a single-accumulator reference model.

use lg_core::listener::FnListener;
use lg_core::{ConcurrencyListener, Dispatcher, Event, ProfileListener, TaskNames, TraceListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn tick(t: u64) -> Event {
    Event::PeriodicTick { t_ns: t }
}

/// After `deregister` returns, each emitting thread may deliver at most
/// its one in-flight event to the removed listener; once every emitter
/// has started a fresh dispatch, deliveries stop entirely.
#[test]
fn post_deregister_deliveries_bounded_by_one_per_thread() {
    const EMITTERS: usize = 4;
    let d = Arc::new(Dispatcher::new());
    let hits = Arc::new(AtomicU64::new(0));
    let hc = hits.clone();
    let h = d.register(Arc::new(FnListener::new("counted", move |_| {
        hc.fetch_add(1, Ordering::Relaxed);
    })));
    let stop = Arc::new(AtomicBool::new(false));
    let emitters: Vec<_> = (0..EMITTERS)
        .map(|_| {
            let d = d.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut t = 0;
                while !stop.load(Ordering::Acquire) {
                    d.dispatch(&tick(t));
                    t += 1;
                }
            })
        })
        .collect();
    // Let the emitters get going before the listener is removed.
    while d.events_dispatched() < 10_000 {
        std::hint::spin_loop();
    }
    assert!(d.deregister(h));
    let at_deregister = hits.load(Ordering::Relaxed);
    // Wait until every emitter has provably begun (many) fresh dispatches
    // after the deregister, then check the bound.
    let mark = d.events_dispatched();
    while d.events_dispatched() < mark + 10_000 * EMITTERS as u64 {
        std::hint::spin_loop();
    }
    let late = hits.load(Ordering::Relaxed) - at_deregister;
    stop.store(true, Ordering::Release);
    emitters.into_iter().for_each(|j| j.join().unwrap());
    assert!(
        late <= EMITTERS as u64,
        "grace period leaked {late} deliveries across {EMITTERS} emitters"
    );
}

/// Reference model: plain fold of the same event sequence into scalar
/// accumulators, no sharding, no Welford.
struct Reference {
    durations: Vec<f64>,
    active: i64,
    yields: u64,
    history: Vec<(u64, f64)>,
    trace: Vec<Event>,
}

impl Reference {
    fn feed(events: &[Event], trace_cap: usize) -> Self {
        let mut r = Reference {
            durations: Vec::new(),
            active: 0,
            yields: 0,
            history: Vec::new(),
            trace: Vec::new(),
        };
        for e in events {
            match *e {
                Event::TaskBegin { t_ns, .. } | Event::TaskResume { t_ns, .. } => {
                    r.active += 1;
                    r.history.push((t_ns, r.active as f64));
                }
                Event::TaskEnd {
                    t_ns, elapsed_ns, ..
                } => {
                    r.durations.push(elapsed_ns as f64);
                    r.active -= 1;
                    r.history.push((t_ns, r.active as f64));
                }
                Event::TaskYield { t_ns, .. } => {
                    r.yields += 1;
                    r.active -= 1;
                    r.history.push((t_ns, r.active as f64));
                }
                _ => {}
            }
            r.trace.push(*e);
        }
        let keep = r.trace.len().saturating_sub(trace_cap);
        r.trace.drain(..keep);
        r
    }

    fn mean(&self) -> f64 {
        self.durations.iter().sum::<f64>() / self.durations.len() as f64
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.durations
            .iter()
            .map(|d| (d - m) * (d - m))
            .sum::<f64>()
            / self.durations.len() as f64
    }
}

/// Deterministic single-threaded replay: the sharded pipeline (profile,
/// concurrency, trace behind one dispatcher) must reproduce the reference
/// model exactly — one emitting thread touches one stripe, so sharding
/// cannot reorder or split anything.
#[test]
fn single_threaded_replay_matches_reference_model() {
    let names = TaskNames::new();
    let task = names.intern("replay");
    const TRACE_CAP: usize = 16;

    // A deterministic pseudo-random mix of lifecycle events.
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut seed = 0x9e3779b97f4a7c15u64;
    for i in 0..200u64 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let dur = 50 + (seed >> 33) % 1000;
        t += 10;
        events.push(Event::TaskBegin {
            task,
            worker: 0,
            t_ns: t,
        });
        if i % 7 == 3 {
            t += 5;
            events.push(Event::TaskYield {
                task,
                worker: 0,
                t_ns: t,
            });
            t += 5;
            events.push(Event::TaskResume {
                task,
                worker: 0,
                t_ns: t,
            });
        }
        t += dur;
        events.push(Event::TaskEnd {
            task,
            worker: 0,
            t_ns: t,
            elapsed_ns: dur,
        });
        if i % 13 == 0 {
            events.push(Event::PeriodicTick { t_ns: t });
        }
    }

    let d = Dispatcher::new();
    let profile = Arc::new(ProfileListener::new(names.clone()));
    let conc = Arc::new(ConcurrencyListener::new(4096));
    let trace = Arc::new(TraceListener::new(TRACE_CAP));
    d.register(profile.clone());
    d.register(conc.clone());
    d.register(trace.clone());
    for e in &events {
        d.dispatch(e);
    }

    let reference = Reference::feed(&events, TRACE_CAP);

    // Profile equivalence (tight FP tolerance: same fold order, the only
    // difference is Welford's incremental form vs the two-pass reference).
    let prof = profile.get("replay").unwrap();
    assert_eq!(prof.count as usize, reference.durations.len());
    assert_eq!(prof.active, reference.active);
    assert_eq!(prof.yields, reference.yields);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(rel(prof.mean_ns, reference.mean()) < 1e-9);
    assert!(rel(prof.stddev_ns, reference.variance().sqrt()) < 1e-6);
    let min = reference.durations.iter().cloned().fold(f64::MAX, f64::min);
    let max = reference.durations.iter().cloned().fold(f64::MIN, f64::max);
    assert_eq!(prof.min_ns, min);
    assert_eq!(prof.max_ns, max);

    // Concurrency history equivalence: identical point sequence.
    assert_eq!(conc.history(), reference.history);
    assert_eq!(conc.active_tasks(), reference.active);

    // Trace equivalence: the retained window is the same events in the
    // same order.
    let got: Vec<Event> = trace.records().iter().map(|r| r.event).collect();
    assert_eq!(got, reference.trace);
    assert_eq!(trace.captured(), events.len() as u64);
    assert_eq!(trace.overwritten(), (events.len() - TRACE_CAP) as u64);

    // Accounting: one event per dispatch, three deliveries per event.
    assert_eq!(d.events_dispatched(), events.len() as u64);
    assert_eq!(d.deliveries(), 3 * events.len() as u64);
}

/// Multi-threaded emission through the full dispatcher: the merged
/// profile must equal the single-accumulator fold of the union of all
/// threads' durations, independent of interleaving.
#[test]
fn sharded_profile_merge_matches_sequential_fold() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 500;
    let names = TaskNames::new();
    let task = names.intern("merged");
    let d = Arc::new(Dispatcher::new());
    let profile = Arc::new(ProfileListener::new(names.clone()));
    d.register(profile.clone());

    let joins: Vec<_> = (0..THREADS)
        .map(|w| {
            let d = d.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let dur = 10 + w * 1000 + i; // disjoint per-thread ranges
                    d.dispatch(&Event::TaskBegin {
                        task,
                        worker: w as usize,
                        t_ns: i,
                    });
                    d.dispatch(&Event::TaskEnd {
                        task,
                        worker: w as usize,
                        t_ns: i + dur,
                        elapsed_ns: dur,
                    });
                }
            })
        })
        .collect();
    joins.into_iter().for_each(|j| j.join().unwrap());

    let all: Vec<f64> = (0..THREADS)
        .flat_map(|w| (0..PER_THREAD).map(move |i| (10 + w * 1000 + i) as f64))
        .collect();
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    let var = all.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / all.len() as f64;

    let prof = profile.get("merged").unwrap();
    assert_eq!(prof.count, THREADS * PER_THREAD);
    assert_eq!(prof.active, 0);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(rel(prof.mean_ns, mean) < 1e-9, "{} vs {mean}", prof.mean_ns);
    assert!(
        rel(prof.stddev_ns, var.sqrt()) < 1e-6,
        "{} vs {}",
        prof.stddev_ns,
        var.sqrt()
    );
    assert_eq!(prof.min_ns, 10.0);
    assert_eq!(
        prof.max_ns,
        (10 + (THREADS - 1) * 1000 + PER_THREAD - 1) as f64
    );
    assert_eq!(d.events_dispatched(), 2 * THREADS * PER_THREAD);
    assert_eq!(d.deliveries(), 2 * THREADS * PER_THREAD);
}
