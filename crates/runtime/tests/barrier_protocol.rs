//! The completion-barrier protocol: batched arrivals and their flush
//! rules (a)–(f), the stack-held barrier's latch-under-lock exit, the
//! drop-guard wait when a scope closure unwinds, and the counter-derived
//! `pending()` (see `lg_runtime::scope` module docs).
//!
//! A missed flush is a hang, so every scenario that could hang runs under
//! [`within`]. Interleavings are forced with channels; sleeps and
//! timeouts only bound how long a *failure* takes.
//!
//! With `LG_CHAOS=1` (the CI chaos job) every pool here injects crash and
//! straggler faults, so the flush paths also run under crashed and delayed
//! tasks. A crashed task never runs its body, so the scenarios weaken —
//! gates may not hold, counts drop by the injected crashes — but nothing
//! may hang, run twice, or return early.

use lg_core::LookingGlass;
use lg_runtime::{FaultConfig, PoolConfig, ThreadPool};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;
use std::time::Duration;

fn chaos() -> bool {
    std::env::var_os("LG_CHAOS").is_some()
}

fn pool(workers: usize) -> ThreadPool {
    let faults = chaos().then(|| {
        FaultConfig::seeded(0xBA221E2)
            .panic_prob(0.03)
            .straggler(0.03, Duration::from_micros(300))
    });
    ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig { workers, faults },
    )
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `secs` — a hung barrier must be a failure, not a stuck suite.
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

/// A scope whose re-throw is expected under chaos (injected crashes).
fn scope_tolerating_faults<'scope>(p: &ThreadPool, f: impl FnOnce(&lg_runtime::Scope<'scope, '_>)) {
    let r = catch_unwind(AssertUnwindSafe(|| p.scope(f)));
    assert!(r.is_ok() || chaos(), "scope re-threw without any fault");
}

// ---------------------------------------------------------------- rule (b)

#[test]
fn scope_returns_while_another_scopes_long_task_runs_on_the_same_deque() {
    within(20, "interleaved scopes", || {
        let p = Arc::new(pool(1));
        // Hold the only worker so both scopes' tasks queue up behind it.
        let (gate_tx, gate_rx) = channel::<()>();
        let (gate_held_tx, gate_held_rx) = sync_channel::<()>(1);
        p.spawn_named("gate", move || {
            let _ = gate_held_tx.send(());
            let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        });
        let held = gate_held_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        assert!(held || chaos());
        let (a_spawned_tx, a_spawned_rx) = sync_channel::<()>(1);
        let (b_spawned_tx, b_spawned_rx) = sync_channel::<()>(1);
        let (b_release_tx, b_release_rx) = channel::<()>();
        let b_long_done = Arc::new(AtomicBool::new(false));

        // Injector order: a a a | b_long b b b b. The worker's batch steal
        // takes the first and moves half the rest to its deque, so A's
        // last tasks and `b_long` end up on the same local deque.
        let a = {
            let p = p.clone();
            std::thread::spawn(move || {
                scope_tolerating_faults(&p, |s| {
                    for _ in 0..3 {
                        s.spawn(|| {});
                    }
                    a_spawned_tx.send(()).unwrap();
                });
            })
        };
        a_spawned_rx.recv().unwrap();
        let b = {
            let (p, done) = (p.clone(), b_long_done.clone());
            std::thread::spawn(move || {
                scope_tolerating_faults(&p, |s| {
                    s.spawn(move || {
                        let _ = b_release_rx.recv_timeout(Duration::from_secs(10));
                        done.store(true, Ordering::SeqCst);
                    });
                    for _ in 0..4 {
                        s.spawn(|| {});
                    }
                    b_spawned_tx.send(()).unwrap();
                });
            })
        };
        b_spawned_rx.recv().unwrap();
        let _ = gate_tx.send(());

        // Scope A must return although the worker that ran its tasks is
        // now inside B's long task: its arrivals were published before
        // that task began.
        a.join().unwrap();
        assert!(
            !b_long_done.load(Ordering::SeqCst) || chaos(),
            "scope A returned only after scope B's long task"
        );
        let _ = b_release_tx.send(());
        b.join().unwrap();
    });
}

// ---------------------------------------------------------------- rule (d)

#[test]
fn helped_scope_returns_under_a_long_outer_task() {
    within(30, "helped scope", || {
        let p = Arc::new(pool(2));
        let executed = p.counters().counter("rt.executed");
        // `slow` occupies one worker until the helped task has started.
        let (slow_started_tx, slow_started_rx) = sync_channel::<()>(1);
        let (helped_started_tx, helped_started_rx) = sync_channel::<()>(1);
        let slow = p.spawn("slow", move || {
            let _ = slow_started_tx.send(());
            let _ = helped_started_rx.recv_timeout(Duration::from_secs(2));
        });
        let slow_running = slow_started_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        // `outer` takes the other worker, joins `slow` from inside its body
        // — helping with queued work while it waits — and then carries on
        // for up to 2 s: the long outer task.
        let (joining_tx, joining_rx) = sync_channel::<()>(1);
        let (release_tx, release_rx) = channel::<()>();
        let outer_done = Arc::new(AtomicBool::new(false));
        let done = outer_done.clone();
        p.spawn_named("outer", move || {
            let _ = joining_tx.send(());
            let _ = slow.join();
            let _ = release_rx.recv_timeout(Duration::from_secs(2));
            done.store(true, Ordering::SeqCst);
        });
        let outer_running = joining_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        assert!((slow_running && outer_running) || chaos());

        // Only the helping `outer` can run this scope's task. The task
        // lets `slow` finish and returns once it has, so the join ends
        // with the help — no further search for work, straight back into
        // the outer body. The arrival must have been published by then.
        let ran = AtomicU64::new(0);
        scope_tolerating_faults(&p, |s| {
            s.spawn(|| {
                let _ = helped_started_tx.send(());
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while executed.get() == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(
            !outer_done.load(Ordering::SeqCst),
            "the helped scope returned only after the long outer task"
        );
        assert!(ran.load(Ordering::Relaxed) == 1 || chaos());
        let _ = release_tx.send(());
        p.wait_idle();
    });
}

// ---------------------------------------------------------------- rule (c)

/// A drain of many fine tasks during which `shrink` takes workers away.
fn drain_while_shrinking(shrink: impl FnOnce(&ThreadPool) + Send + 'static) {
    within(30, "scope under a shrinking pool", move || {
        let p = pool(3);
        let n = 20_000;
        let loose = 500;
        let hits: Vec<AtomicU64> = (0..n + loose).map(|_| AtomicU64::new(0)).collect();
        let progress = AtomicU64::new(0);
        scope_tolerating_faults(&p, |s| {
            let (hits, progress) = (&hits, &progress);
            s.spawn_batch("fine", 0..n, 4, move |start, end| {
                for h in &hits[start..end] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
                progress.fetch_add(1, Ordering::Relaxed);
            });
            for k in 0..loose {
                s.spawn(move || {
                    hits[n + k].fetch_add(1, Ordering::Relaxed);
                });
            }
            // Mid-drain: the workers hold batched arrivals when the cap
            // excludes them.
            while progress.load(Ordering::Relaxed) < 200 && !chaos() {
                std::thread::yield_now();
            }
            shrink(&p);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        let ran: u64 = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
        if chaos() {
            assert!(ran <= (n + loose) as u64);
        } else {
            assert_eq!(ran, (n + loose) as u64);
        }
    });
}

#[test]
fn scope_returns_when_the_cap_drops_to_one_worker_mid_drain() {
    drain_while_shrinking(|p| p.thread_cap().set_cap(1));
}

// ---------------------------------------------------------------- rule (e)

#[test]
fn nested_scopes_opened_by_tasks_with_batched_arrivals() {
    within(30, "nested scopes", || {
        let p = pool(2);
        let (outer, inner) = (64usize, 8usize);
        let hits: Vec<AtomicU64> = (0..outer * inner).map(|_| AtomicU64::new(0)).collect();
        scope_tolerating_faults(&p, |s| {
            let (p, hits) = (&p, &hits);
            // One batch, so each worker runs several outer tasks back to
            // back and enters the inner barrier with arrivals in hand.
            s.spawn_batch("outer", 0..outer, 1, move |o, _| {
                scope_tolerating_faults(p, |t| {
                    for i in 0..inner {
                        t.spawn(move || {
                            hits[o * inner + i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        let ran: u64 = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
        assert!(ran == (outer * inner) as u64 || chaos());
    });
}

// ------------------------------------------------- the latch-under-lock exit

#[test]
fn ten_thousand_one_task_scopes_from_an_external_thread() {
    within(60, "back-to-back scopes", || {
        let p = pool(2);
        // Each barrier lives on a frame the next scope reuses at once: an
        // arrival that touches it after the waiter left corrupts the next
        // count (a hang or an early return).
        for i in 0..10_000u64 {
            let mut seen = u64::MAX;
            scope_tolerating_faults(&p, |s| s.spawn(|| seen = i));
            assert!(seen == i || (chaos() && seen == u64::MAX), "scope {i}");
        }
        p.wait_idle();
        let c = p.counters();
        assert_eq!(c.counter("rt.spawned").get(), 10_000);
        assert_eq!(c.counter("rt.executed").get(), 10_000);
    });
}

// ------------------------------------------------------------------ panics

#[test]
fn panicking_tasks_are_counted_once_and_rethrown_after_the_barrier() {
    if chaos() {
        return; // exact counts; the chaos pools add crashes of their own
    }
    let p = pool(2);
    let ok = AtomicU64::new(0);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.scope(|s| {
            for i in 0..40 {
                let ok = &ok;
                s.spawn(move || {
                    if i % 10 == 0 {
                        panic!("boom {i}");
                    }
                    ok.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
    }));
    let msg = *r.unwrap_err().downcast::<String>().unwrap();
    assert_eq!(msg, "4 scoped task(s) panicked");
    assert_eq!(
        ok.load(Ordering::Relaxed),
        36,
        "re-thrown before the barrier"
    );
    assert_eq!(p.panics(), 4);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.dag_scope(|g| {
            let a = g.spawn_after("boom", &[], || panic!("node"));
            g.spawn_after("after", &[a], || {});
        })
    }));
    let msg = *r.unwrap_err().downcast::<String>().unwrap();
    assert_eq!(msg, "1 dag node(s) panicked");
    assert_eq!(p.panics(), 5);
}

// ----------------------------------------------- the barrier holds on unwind

#[test]
fn unwinding_scope_closure_still_waits_for_its_tasks() {
    let p = pool(2);
    let finished = AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                finished.store(true, Ordering::SeqCst);
            });
            panic!("closure");
        })
    }));
    // Read the moment the unwind left `scope`: the task borrows `finished`
    // from this frame, so it must be over by now.
    let task_finished = finished.load(Ordering::SeqCst);
    let msg = *r.unwrap_err().downcast::<&str>().unwrap();
    assert_eq!(msg, "closure", "the closure's own panic is the one resumed");
    assert!(
        task_finished || p.injected_panics() > 0,
        "scope unwound before its task finished"
    );
}

#[test]
fn unwinding_dag_scope_closure_still_waits_for_its_nodes() {
    let p = pool(2);
    let finished = AtomicU64::new(0);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.dag_scope(|g| {
            let finished = &finished;
            let a = g.spawn_after("slow", &[], move || {
                std::thread::sleep(Duration::from_millis(50));
                finished.fetch_add(1, Ordering::SeqCst);
            });
            g.spawn_after("after", &[a], move || {
                finished.fetch_add(1, Ordering::SeqCst);
            });
            panic!("closure");
        })
    }));
    let nodes_finished = finished.load(Ordering::SeqCst);
    let msg = *r.unwrap_err().downcast::<&str>().unwrap();
    assert_eq!(msg, "closure");
    assert!(
        nodes_finished == 2 || p.injected_panics() > 0,
        "dag_scope unwound with {nodes_finished} of 2 nodes finished"
    );
}

// ------------------------------------------------------ counter-derived pending

#[test]
fn wait_idle_returns_after_and_not_before_the_last_task() {
    within(60, "wait_idle", || {
        let p = pool(2);
        let n = 100_000usize;
        let ran = Arc::new(AtomicU64::new(0));
        let spawned = p.counters().counter("rt.spawned");
        let executed = p.counters().counter("rt.executed");
        for round in 0..4 {
            for _ in 0..n / 4 {
                let ran = ran.clone();
                p.spawn_named("tick", move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert!(p.pending() <= (round + 1) * (n / 4));
            if round % 2 == 1 {
                p.wait_idle();
                assert_eq!(p.pending(), 0);
                assert_eq!(spawned.get(), executed.get());
                let submitted = (round + 1) * (n / 4);
                assert_eq!(
                    ran.load(Ordering::Relaxed),
                    // A crashed task's body is replaced and never runs.
                    (submitted - p.injected_panics()) as u64,
                    "wait_idle returned before the last task"
                );
            }
        }
        assert_eq!(spawned.get(), n as u64);
        assert_eq!(executed.get(), n as u64);
        // A pending task keeps it non-zero for as long as it runs.
        let (tx, rx) = channel::<()>();
        p.spawn_named("held", move || {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        });
        assert_eq!(p.pending(), 1);
        assert_eq!(spawned.get(), executed.get() + 1);
        tx.send(()).ok();
        p.wait_idle();
        assert_eq!(p.pending(), 0);
    });
}

// --------------------------------------------------------------- random mixes

proptest! {
    // Thread pools are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random mixes of `spawn`, `spawn_batch`, nested scopes and panics:
    /// the outer scope always returns, with every body run exactly once.
    #[test]
    fn random_scope_mixes_run_every_body_exactly_once(
        workers in 1usize..5,
        ops in proptest::collection::vec((0u8..5, 1usize..40, 1usize..9), 1..12),
    ) {
        let slots: usize = ops.iter().map(|&(kind, n, _)| if kind == 3 { 0 } else { n }).sum();
        let panics = ops.iter().filter(|&&(kind, ..)| kind == 3).count();
        let ran = within(60, "random mix", move || {
            let p = pool(workers);
            let hits: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(0)).collect();
            let r = catch_unwind(AssertUnwindSafe(|| {
                p.scope(|s| {
                    let (p, hits) = (&p, &hits);
                    let hit = move |i: usize| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    };
                    let mut base = 0;
                    for &(kind, n, chunk) in &ops {
                        let at = base;
                        match kind {
                            0 => (0..n).for_each(|k| s.spawn(move || hit(at + k))),
                            1 => {
                                s.spawn_batch("mix", at..at + n, chunk, move |a, b| (a..b).for_each(hit));
                            }
                            // A task that opens its own scope of loose spawns…
                            2 => s.spawn(move || {
                                p.scope(|t| (0..n).for_each(|k| t.spawn(move || hit(at + k))));
                            }),
                            3 => s.spawn(|| panic!("mix")),
                            // …or of one batch.
                            _ => s.spawn(move || {
                                p.scope(|t| {
                                    t.spawn_batch("mix", at..at + n, chunk, move |a, b| (a..b).for_each(hit));
                                });
                            }),
                        }
                        if kind != 3 {
                            base += n;
                        }
                    }
                })
            }));
            assert_eq!(r.is_err(), panics > 0 || p.injected_panics() > 0);
            if let Err(e) = r {
                if !chaos() {
                    let msg = *e.downcast::<String>().unwrap();
                    assert_eq!(msg, format!("{panics} scoped task(s) panicked"));
                    assert_eq!(p.panics(), panics);
                }
            }
            hits.iter().map(|h| h.load(Ordering::Relaxed)).collect::<Vec<_>>()
        });
        for (i, &h) in ran.iter().enumerate() {
            if chaos() {
                prop_assert!(h <= 1, "body {} ran {} times", i, h);
            } else {
                prop_assert_eq!(h, 1, "body {} ran {} times", i, h);
            }
        }
    }
}
