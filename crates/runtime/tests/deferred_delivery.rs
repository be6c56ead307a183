//! Deferred delivery is exact. A worker hands each task's `TaskBegin` /
//! `TaskEnd` to the looking-glass deferred and the pair reaches the
//! listeners in batches, yet no listener can tell: the same events in the
//! same per-thread order and nesting, the same profiles, trace and
//! concurrency history, and `scope()` still returns with every task it
//! waited for delivered and counted in `rt.executed`.
//!
//! The reference is the same mix on an instance that delivers every event
//! at once — what registering any event-triggered policy does.
//!
//! With `LG_CHAOS=1` every pool injects crash and straggler faults. A
//! crashed gate no longer pins a one-worker pool to one execution order,
//! so the cross-run comparison is skipped; the per-thread checks and the
//! `rt.executed` balance must still hold, and nothing may hang.

use lg_core::listener::FnListener;
use lg_core::{Event, FnPolicy, LookingGlass, PolicyDecision};
use lg_runtime::{FaultConfig, PoolConfig, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

const SEED: u64 = 0x5EED_0027;
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

fn chaos() -> bool {
    std::env::var_os("LG_CHAOS").is_some()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Every event the instance delivered, with the thread that delivered it.
type Log = Arc<Mutex<Vec<(ThreadId, Event)>>>;

struct Run {
    lg: Arc<LookingGlass>,
    pool: ThreadPool,
    log: Log,
}

fn setup(workers: usize, immediate: bool) -> Run {
    let lg = LookingGlass::builder().trace(4096).build();
    let log: Log = Arc::default();
    let sink = log.clone();
    lg.add_listener(Arc::new(FnListener::new("record", move |e| {
        sink.lock().unwrap().push((std::thread::current().id(), *e));
    })));
    if immediate {
        lg.policy_engine().register_triggered(
            FnPolicy::new("noop", |_, _, _| PolicyDecision::noop()),
            Box::new(|_| false),
        );
    }
    let faults = chaos().then(|| {
        FaultConfig::seeded(0xDEFE_22ED)
            .panic_prob(0.03)
            .straggler(0.03, Duration::from_micros(200))
    });
    let pool = ThreadPool::new(lg.clone(), PoolConfig { workers, faults });
    Run { lg, pool, log }
}

fn hold(go: &AtomicBool) {
    while !go.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

fn work(lg: &Arc<LookingGlass>, nested: bool) {
    if nested {
        drop(lg.timer("inner"));
    }
    std::hint::black_box(0u64);
}

/// Scope spawns, a `parallel_for`, a small DAG and a panicking task, with
/// `lg.timer`s nested inside some bodies. Each scope's first task holds
/// the worker until everything is spawned, so a one-worker pool runs the
/// mix in one order.
fn run_mix(run: &Run, seed: u64) {
    let (lg, pool) = (&run.lg, &run.pool);
    let mut rng = seed;
    let tolerate = |r: std::thread::Result<()>| assert!(r.is_ok() || chaos(), "a scope re-threw");

    let go = AtomicBool::new(false);
    tolerate(catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn_named("gate", || hold(&go));
            for _ in 0..40 {
                let r = splitmix(&mut rng);
                let nested = r.is_multiple_of(3);
                s.spawn_named(NAMES[(r >> 8) as usize % 3], move || work(lg, nested));
            }
            go.store(true, Ordering::Release);
        })
    })));

    let every = (seed % 7) as usize + 3;
    tolerate(catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for("chunks", 0..160, 16, |i| work(lg, i % every == 0));
    })));

    let go = AtomicBool::new(false);
    tolerate(catch_unwind(AssertUnwindSafe(|| {
        pool.dag_scope(|g| {
            let mut ids = vec![g.spawn_after("gate", &[], || hold(&go))];
            for k in 0..24 {
                let r = splitmix(&mut rng);
                let a = ids[r as usize % ids.len()];
                let b = ids[(r >> 20) as usize % ids.len()];
                let deps = if a == b { vec![a] } else { vec![a, b] };
                let nested = r.is_multiple_of(4);
                ids.push(g.spawn_after(NAMES[k % 3], &deps, move || work(lg, nested)));
            }
            go.store(true, Ordering::Release);
        })
    })));

    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn_named("boom", || {
                let _t = lg.timer("inner");
                panic!("intentional");
            });
            s.spawn_named("after", || work(lg, true));
        })
    }));
    assert!(r.is_err(), "the panicking task's scope must re-throw");
}

/// The delivered task events as `(kind, name, worker)`, in order.
fn task_events(run: &Run) -> Vec<(&'static str, String, usize)> {
    let name = |id| run.lg.names().resolve(id).unwrap();
    run.log
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(_, e)| match *e {
            Event::TaskBegin { task, worker, .. } => Some(("begin", name(task), worker)),
            Event::TaskEnd { task, worker, .. } => Some(("end", name(task), worker)),
            _ => None,
        })
        .collect()
}

/// Per thread, task events nest like a stack: every end closes the latest
/// open begin of the same task on the same worker, `inner` timers open
/// only inside a pool task, and nothing is left open.
fn assert_nested_per_thread(run: &Run) {
    let log = run.log.lock().unwrap();
    let mut threads: Vec<ThreadId> = Vec::new();
    for (t, _) in log.iter() {
        if !threads.contains(t) {
            threads.push(*t);
        }
    }
    let inner = run.lg.names().lookup("inner");
    for thread in threads {
        let mut open = Vec::new();
        for (_, e) in log.iter().filter(|(t, _)| *t == thread) {
            match *e {
                Event::TaskBegin { task, worker, .. } => {
                    assert!(
                        Some(task) != inner || !open.is_empty(),
                        "a nested timer began outside any task"
                    );
                    open.push((task, worker));
                }
                Event::TaskEnd { task, worker, .. } => {
                    assert_eq!(open.pop(), Some((task, worker)), "unbalanced end");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{} tasks left open", open.len());
    }
}

/// Checked right after the last scope returned, with no `wait_idle`:
/// every task the scopes waited for is delivered and counted.
fn assert_counted(run: &Run) {
    let inner = run.lg.profiles().get("inner").map_or(0, |p| p.count);
    let executed = run.pool.counters().counter("rt.executed").get();
    assert_eq!(run.lg.profiles().total_completed() - inner, executed);
    let events = task_events(run);
    let begins = events.iter().filter(|e| e.0 == "begin").count();
    assert_eq!(begins, events.len() - begins, "begins and ends balance");
    assert_eq!(run.lg.concurrency().active_tasks(), 0);
}

#[test]
fn one_worker_deferred_matches_immediate_event_for_event() {
    let deferred = setup(1, false);
    let immediate = setup(1, true);
    for run in [&deferred, &immediate] {
        run_mix(run, SEED);
        assert_nested_per_thread(run);
        assert_counted(run);
    }
    if chaos() {
        return;
    }
    assert_eq!(task_events(&deferred), task_events(&immediate));
    let trace = |run: &Run| -> Vec<(&'static str, Option<String>)> {
        let names = run.lg.names();
        run.lg
            .trace()
            .unwrap()
            .records()
            .iter()
            .filter_map(|r| match r.event {
                Event::TaskBegin { task, .. } => Some(("begin", names.resolve(task))),
                Event::TaskEnd { task, .. } => Some(("end", names.resolve(task))),
                _ => None,
            })
            .collect()
    };
    assert_eq!(trace(&deferred), trace(&immediate));
    let counts = |run: &Run| -> Vec<(String, u64, i64)> {
        let mut p: Vec<_> = run
            .lg
            .profiles()
            .snapshot()
            .into_iter()
            .map(|p| (p.name, p.count, p.active))
            .collect();
        p.sort();
        p
    };
    assert_eq!(counts(&deferred), counts(&immediate));
    let levels = |run: &Run| -> Vec<f64> {
        let history = run.lg.concurrency().history();
        history.into_iter().map(|(_, level)| level).collect()
    };
    assert_eq!(levels(&deferred), levels(&immediate));
    assert_eq!(
        deferred.lg.concurrency().peak_tasks(),
        immediate.lg.concurrency().peak_tasks()
    );
}

#[test]
fn three_workers_nest_per_thread_and_balance_rt_executed() {
    for seed in [SEED, SEED ^ 0xFFFF, 7] {
        let run = setup(3, false);
        run_mix(&run, seed);
        assert_nested_per_thread(&run);
        assert_counted(&run);
    }
}
