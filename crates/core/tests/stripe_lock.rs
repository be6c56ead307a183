//! The one-lock-per-event protocol (`lg_core::listener` module docs): the
//! stock listeners of a built instance share one per-stripe state that
//! `dispatch` locks once, and every other listener runs after that lock is
//! released.
//!
//! A broken protocol is a deadlock, so every scenario runs under
//! [`within`]. Interleavings are forced with barriers and stripe pinning;
//! timeouts only bound how long a *failure* takes. (That a stock + trace
//! instance takes exactly one stripe lock per event is counted by a unit
//! test in `listener.rs`: the counter is `#[cfg(test)]`.)
//!
//! With `LG_CHAOS=1` (the CI chaos job) the emitters yield the CPU at
//! random points between events, so the stripe they share changes hands
//! mid-stream far more often than free-running threads manage.

use lg_core::listener::FnListener;
use lg_core::{
    Dispatcher, Event, FnPolicy, Listener, LookingGlass, PolicyDecision, ProfileListener, TaskId,
    TaskNames,
};
use lg_metrics::stripe::set_thread_index;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `secs` — a deadlocked stripe must be a failure, not a stuck
/// suite.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let t = std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _sent = t.join().expect("runner thread");
            v
        }
        Err(_) => panic!("{what}: still blocked after {secs} s"),
    }
}

/// A per-thread xorshift stream under `LG_CHAOS=1`, nothing otherwise.
fn chaos_rng(seed: u64) -> Option<u64> {
    std::env::var_os("LG_CHAOS").map(|_| seed)
}

/// Under chaos: yields about one time in eight.
fn chaos_point(rng: &mut Option<u64>) {
    if let Some(state) = rng {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        if *state & 7 == 0 {
            std::thread::yield_now();
        }
    }
}

fn begin(task: TaskId, t_ns: u64) -> Event {
    Event::TaskBegin {
        task,
        worker: 0,
        t_ns,
    }
}

fn end(task: TaskId, t_ns: u64, elapsed_ns: u64) -> Event {
    Event::TaskEnd {
        task,
        worker: 0,
        t_ns,
        elapsed_ns,
    }
}

/// The events emitter `who` sends, in order: begin/end pairs of its own
/// task with varying durations, interleaved with pairs of a task both
/// emitters share (constant duration, so the shared cell's statistics do
/// not depend on the interleaving).
fn script(own: TaskId, shared: TaskId, who: u64, pairs: u64) -> Vec<Event> {
    (0..pairs)
        .flat_map(|i| {
            let t = 4 * i;
            [
                begin(own, t),
                end(own, t + 1, 10 + (i * 7 + who * 3) % 90),
                begin(shared, t + 2),
                end(shared, t + 3, 50),
            ]
        })
        .collect()
}

// (a) Two emitters on ONE stripe plus a snapshotting reader: every write
// of the shared state is covered by the one lock, so nothing is lost.
#[test]
fn two_emitters_on_one_stripe_and_a_snapshot_reader_lose_nothing() {
    const PAIRS: u64 = 20_000;
    within(60, "same-stripe emitters", || {
        let lg = LookingGlass::builder().trace(256).build();
        let shared = lg.intern("shared");
        let own = [lg.intern("own-0"), lg.intern("own-1")];
        let scripts = [
            script(own[0], shared, 0, PAIRS),
            script(own[1], shared, 1, PAIRS),
        ];
        let start = Barrier::new(3);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let emitters: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(who, script)| {
                    let (lg, start) = (&lg, &start);
                    s.spawn(move || {
                        // Both emitters share stripe 3.
                        set_thread_index(3);
                        let mut rng = chaos_rng(0x9E37_79B9_7F4A_7C15 ^ who as u64);
                        start.wait();
                        for e in script {
                            lg.emit(e);
                            chaos_point(&mut rng);
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let mut last = 0;
                while !stop.load(Ordering::Acquire) {
                    let snap = lg.snapshot();
                    assert!(snap.total_completed >= last, "completions went back");
                    last = snap.total_completed;
                }
            });
            for e in emitters {
                e.join().expect("emitter");
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader");
        });

        // Sequential oracle: the same events through a profiler of its
        // own, one emitter after the other. Each `own` cell saw its events
        // in script order either way and the shared cell only ever sees
        // the value 50, so every field must match bit for bit.
        let oracle = ProfileListener::new(lg.names().clone());
        scripts.iter().flatten().for_each(|e| oracle.on_event(e));
        assert_eq!(lg.profiles().snapshot(), oracle.snapshot());
        assert_eq!(lg.snapshot().profiles(), oracle.snapshot());

        let events = 2 * 4 * PAIRS;
        let d = lg.dispatcher();
        assert_eq!(d.events_dispatched(), events);
        assert_eq!(d.deliveries(), events * d.listener_count() as u64);
        assert_eq!(lg.concurrency().active_tasks(), 0);
        let trace = lg.trace().expect("built with a trace");
        assert_eq!(trace.captured(), events);
        assert_eq!(trace.overwritten(), events - 256, "one shared ring");
    });
}

// (b) The policy engine runs AFTER the stripe lock is released. A
// triggered policy captures a snapshot (the engine does before evaluating,
// and this one does again itself), and a capture locks every stripe: run
// inside the emitter's stripe lock it would deadlock. Mutation-checked
// once: with `dispatch` calling the `outside` listeners before dropping
// the stripe guard, this test fails by time-out.
#[test]
fn a_triggered_policy_that_snapshots_fires_from_two_stripes_at_once() {
    const ROUNDS: u64 = 200;
    let fired = within(30, "snapshotting policy on two stripes", || {
        let lg = LookingGlass::builder().build();
        let fired = Arc::new(AtomicU64::new(0));
        let (weak, count) = (Arc::downgrade(&lg), fired.clone());
        lg.policy_engine().register_triggered(
            FnPolicy::new("snapshotter", move |_, _, _| {
                let lg = weak.upgrade().expect("instance alive while emitting");
                std::hint::black_box(lg.snapshot());
                count.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
        );
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for stripe in [1, 2] {
                let (lg, start) = (&lg, &start);
                s.spawn(move || {
                    set_thread_index(stripe);
                    let mut rng = chaos_rng(0xD1B5_4A32_D192_ED03 ^ stripe as u64);
                    for _ in 0..ROUNDS {
                        // Dirty this emitter's own stripe, then fire
                        // together with the other emitter.
                        drop(lg.timer("work"));
                        start.wait();
                        lg.phase_begin("round");
                        chaos_point(&mut rng);
                    }
                });
            }
        });
        fired.load(Ordering::Relaxed)
    });
    assert_eq!(fired, 2 * ROUNDS);
}

// (c) A stock listener on stripes of its own, registered on an unrelated
// dispatcher, is one more `outside` listener; registration bookkeeping
// sees the two delivery phases as one list.
#[test]
fn a_standalone_profiler_on_a_foreign_dispatcher_records_every_event() {
    within(30, "foreign dispatcher", || {
        let names = TaskNames::new();
        let task = names.intern("t");
        let d = Dispatcher::new();
        let inside = Arc::new(ProfileListener::on(names.clone(), d.stripes().clone()));
        let standalone = Arc::new(ProfileListener::new(names.clone()));
        let seen = Arc::new(AtomicU64::new(0));
        let sc = seen.clone();
        let h_fn = d.register(Arc::new(FnListener::new("count", move |_| {
            sc.fetch_add(1, Ordering::Relaxed);
        })));
        let h_standalone = d.register(standalone.clone());
        let h_inside = d.register(inside.clone());
        assert_eq!(d.listener_count(), 3);

        let emit = |n: u64| {
            for i in 0..n {
                d.dispatch(&begin(task, i));
                d.dispatch(&end(task, i, 5));
            }
        };
        emit(100);
        for p in [&inside, &standalone] {
            let prof = p.get("t").expect("recorded");
            assert_eq!((prof.count, prof.active, prof.mean_ns), (100, 0, 5.0));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 200);
        assert_eq!((d.events_dispatched(), d.deliveries()), (200, 600));

        // Deregistration finds a listener whichever phase it is in.
        assert!(d.deregister(h_inside));
        assert!(!d.deregister(h_inside));
        assert_eq!(d.listener_count(), 2);
        emit(10);
        assert_eq!(inside.get("t").unwrap().count, 100);
        assert_eq!(standalone.get("t").unwrap().count, 110);
        assert!(d.deregister(h_standalone));
        assert!(d.deregister(h_fn));
        assert_eq!(d.listener_count(), 0);
        emit(10);
        assert_eq!(standalone.get("t").unwrap().count, 110);
        assert_eq!((d.events_dispatched(), d.deliveries()), (240, 640));
    });
}
