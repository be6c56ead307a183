//! Deferred delivery is exact. A worker hands each task's `TaskBegin` /
//! `TaskEnd` to the looking-glass deferred and the pair reaches the
//! listeners in batches, yet no listener can tell: the same events in the
//! same per-thread order and nesting, the same profiles, trace and
//! concurrency history, and `scope()` still returns with every task it
//! waited for delivered and counted in `rt.executed` — and, with an
//! event-triggered policy registered, evaluated by it.
//!
//! The reference is the emission order itself: the instance's clock is a
//! counter, so every event carries a unique stamp taken as it is emitted.
//! Sorted by stamp, the delivered events are the emitted sequence; each
//! thread must have delivered its own in that order, and the sequence
//! replayed through ordinary `emit` (one event per delivery) on a twin
//! instance must leave the stock listeners exactly where the batches did.
//!
//! With `LG_CHAOS=1` every pool injects crash and straggler faults; the
//! checks hold all the same, and nothing may hang.

use lg_core::listener::FnListener;
use lg_core::{Clock, Event, FnPolicy, LookingGlass, PolicyDecision, TaskId};
use lg_runtime::{FaultConfig, PoolConfig, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
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

/// A clock that counts its readings: every event stamped from it carries
/// its emission rank.
#[derive(Default)]
struct Stamps(AtomicU64);

impl Clock for Stamps {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Every event the instance delivered, with the thread that delivered it.
type Log = Arc<Mutex<Vec<(ThreadId, Event)>>>;

struct Run {
    lg: Arc<LookingGlass>,
    pool: ThreadPool,
    log: Log,
}

fn setup(workers: usize) -> Run {
    let lg = LookingGlass::builder()
        .clock(Arc::new(Stamps::default()))
        .trace(4096)
        .build();
    let log: Log = Arc::default();
    let sink = log.clone();
    lg.add_listener(Arc::new(FnListener::new("record", move |e| {
        sink.lock().unwrap().push((std::thread::current().id(), *e));
    })));
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
    let run = setup(1);
    run_mix(&run, SEED);
    assert_nested_per_thread(&run);
    assert_counted(&run);

    // The emitted sequence: every delivered event, by stamp. Each stamp is
    // one clock reading, so none repeats.
    let log = run.log.lock().unwrap().clone();
    let mut emitted: Vec<Event> = log.iter().map(|(_, e)| *e).collect();
    emitted.sort_by_key(Event::t_ns);
    assert!(
        emitted.windows(2).all(|w| w[0].t_ns() < w[1].t_ns()),
        "stamps are unique"
    );
    // Each thread delivered its events in the order it emitted them.
    let mut last: Vec<(ThreadId, u64)> = Vec::new();
    for (thread, e) in &log {
        match last.iter_mut().find(|(t, _)| t == thread) {
            Some((_, stamp)) => {
                assert!(*stamp < e.t_ns(), "delivered out of emission order");
                *stamp = e.t_ns();
            }
            None => last.push((*thread, e.t_ns())),
        }
    }

    // The twin interns the same names in the same order, so task ids
    // carry over, and takes the sequence one `emit` at a time.
    let twin = LookingGlass::builder().trace(4096).build();
    let names = run.lg.names();
    for id in 0..names.len() as u32 {
        twin.intern(&names.resolve(TaskId(id)).unwrap());
    }
    emitted.iter().for_each(|e| twin.emit(e));

    assert_eq!(run.lg.profiles().snapshot(), twin.profiles().snapshot());
    assert_eq!(
        run.lg.trace().unwrap().records(),
        twin.trace().unwrap().records()
    );
    let (batched, per_event) = (run.lg.concurrency(), twin.concurrency());
    assert_eq!(batched.history(), per_event.history());
    assert_eq!(batched.peak_tasks(), per_event.peak_tasks());
    assert_eq!(batched.active_tasks(), 0);
}

#[test]
fn three_workers_nest_per_thread_and_balance_rt_executed() {
    for seed in [SEED, SEED ^ 0xFFFF, 7] {
        let run = setup(3);
        run_mix(&run, seed);
        assert_nested_per_thread(&run);
        assert_counted(&run);
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `secs`: a deadlock must be a failure, not a stuck suite.
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

/// Registers an event policy on `lg` that fires on every `TaskEnd` of
/// `name` — calling `also` first — and returns its fire count.
fn count_task_ends(
    lg: &Arc<LookingGlass>,
    name: &str,
    also: impl Fn() + Send + 'static,
) -> Arc<AtomicU64> {
    let fired = Arc::new(AtomicU64::new(0));
    let count = fired.clone();
    let task = lg.intern(name);
    lg.policy_engine().register_triggered(
        FnPolicy::new("count-ends", move |_, _, _| {
            also();
            count.fetch_add(1, Ordering::Relaxed);
            PolicyDecision::noop()
        }),
        Box::new(move |e| matches!(*e, Event::TaskEnd { task: t, .. } if t == task)),
    );
    fired
}

// An event policy rides the batch: its rounds run at the worker's flush,
// one per matching event, and a scope's flushes come before it returns.
#[test]
fn a_task_end_policy_fires_once_per_task_before_scope_returns() {
    const TASKS: u64 = 300;
    let lg = LookingGlass::builder().build();
    let fired = count_task_ends(&lg, "leaf", || {});
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));
    for round in 1..=5 {
        pool.scope(|s| {
            for _ in 0..TASKS {
                s.spawn_named("leaf", || {
                    std::hint::black_box(0u64);
                });
            }
        });
        assert_eq!(fired.load(Ordering::Relaxed), round * TASKS);
    }
    assert_eq!(lg.policy_engine().evaluations(), 5 * TASKS);
}

// The flush-path twin of `stripe_lock.rs` (b): a policy that captures a
// snapshot (which locks every stripe) fires from two workers' flushes at
// once. Run under a worker's stripe lock it would deadlock.
#[test]
fn a_snapshotting_event_policy_at_flushes_on_two_workers_does_not_deadlock() {
    const SCOPES: u64 = 20;
    const TASKS: u64 = 200;
    let fired = within(60, "snapshotting policy at two workers' flushes", || {
        let lg = LookingGlass::builder().build();
        let weak = Arc::downgrade(&lg);
        let fired = count_task_ends(&lg, "leaf", move || {
            let lg = weak.upgrade().expect("instance alive while tasks run");
            std::hint::black_box(lg.snapshot());
        });
        let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));
        for _ in 0..SCOPES {
            pool.scope(|s| {
                for _ in 0..TASKS {
                    s.spawn_named("leaf", || {
                        std::hint::black_box(0u64);
                    });
                }
            });
        }
        fired.load(Ordering::Relaxed)
    });
    assert_eq!(fired, SCOPES * TASKS);
}
