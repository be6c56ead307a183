//! Cross-crate integration: runtime → observation → introspection.
//!
//! Verifies that the pieces compose: tasks run on the real pool produce
//! balanced lifecycle events, consistent profiles, concurrency history,
//! and traces — across throttling changes and panics.

use looking_glass::core::listener::FnListener;
use looking_glass::core::{Event, Knob, LookingGlass};
use looking_glass::runtime::{PoolConfig, ThreadPool};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

fn pool_with(workers: usize) -> (Arc<LookingGlass>, ThreadPool) {
    let lg = LookingGlass::builder().trace(1 << 14).build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(workers));
    (lg, pool)
}

#[test]
fn begin_end_events_balance_exactly() {
    let (lg, pool) = pool_with(3);
    let begins = Arc::new(AtomicU64::new(0));
    let ends = Arc::new(AtomicU64::new(0));
    let (b, e) = (begins.clone(), ends.clone());
    lg.add_listener(Arc::new(FnListener::new("balance", move |ev| match ev {
        Event::TaskBegin { .. } => {
            b.fetch_add(1, Ordering::Relaxed);
        }
        Event::TaskEnd { .. } => {
            e.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    })));
    pool.scope(|s| {
        for _ in 0..500 {
            s.spawn_named("balanced", || {});
        }
    });
    pool.wait_idle();
    assert_eq!(begins.load(Ordering::Relaxed), 500);
    assert_eq!(ends.load(Ordering::Relaxed), 500);
    let prof = lg.profiles().get("balanced").unwrap();
    assert_eq!(prof.count, 500);
    assert_eq!(prof.active, 0);
}

#[test]
fn profile_totals_match_scheduler_counters() {
    let (lg, pool) = pool_with(2);
    for i in 0..100 {
        pool.spawn_named(if i % 2 == 0 { "even" } else { "odd" }, || {});
    }
    pool.wait_idle();
    let executed = pool.counters().counter("rt.executed").get();
    assert_eq!(lg.profiles().total_completed(), executed);
    assert_eq!(lg.profiles().get("even").unwrap().count, 50);
    assert_eq!(lg.profiles().get("odd").unwrap().count, 50);
}

#[test]
fn trace_sequence_numbers_are_gapless_for_small_runs() {
    let (lg, pool) = pool_with(1);
    pool.scope(|s| {
        for _ in 0..10 {
            s.spawn_named("traced", || {});
        }
    });
    pool.wait_idle();
    let recs = lg.trace().unwrap().records();
    assert!(
        recs.windows(2).all(|w| w[0].seq < w[1].seq),
        "non-monotone seq"
    );
    assert_eq!(lg.trace().unwrap().overwritten(), 0);
    // Worker start + N begin + N end events at minimum.
    assert!(recs.len() >= 21);
}

#[test]
fn throttling_mid_run_keeps_observation_consistent() {
    let (lg, pool) = pool_with(4);
    let cap = pool.thread_cap();
    pool.scope(|s| {
        for i in 0..300 {
            if i == 100 {
                cap.set_cap(1);
            }
            if i == 200 {
                cap.set_cap(4);
            }
            s.spawn_named("throttled", || {
                std::hint::black_box((0..100).sum::<u64>());
            });
        }
    });
    pool.wait_idle();
    let prof = lg.profiles().get("throttled").unwrap();
    assert_eq!(prof.count, 300);
    assert_eq!(prof.active, 0);
    assert_eq!(lg.concurrency().active_tasks(), 0);
}

#[test]
fn concurrency_listener_never_goes_negative_under_load() {
    let (lg, pool) = pool_with(3);
    let min_seen = Arc::new(AtomicI64::new(0));
    let ms = min_seen.clone();
    let conc = lg.concurrency().clone();
    lg.add_listener(Arc::new(FnListener::new("floor", move |_| {
        ms.fetch_min(conc.active_tasks(), Ordering::Relaxed);
    })));
    pool.scope(|s| {
        for _ in 0..200 {
            s.spawn_named("c", || {});
        }
    });
    pool.wait_idle();
    assert!(
        min_seen.load(Ordering::Relaxed) >= 0,
        "active task count went negative"
    );
}

#[test]
fn panicking_tasks_do_not_corrupt_profiles() {
    let (lg, pool) = pool_with(2);
    for i in 0..50 {
        pool.spawn_named("mixed", move || {
            if i % 10 == 0 {
                panic!("intentional");
            }
        });
    }
    pool.wait_idle();
    let prof = lg.profiles().get("mixed").unwrap();
    assert_eq!(prof.count, 50, "panicking tasks still emit TaskEnd");
    assert_eq!(prof.active, 0);
    assert_eq!(pool.panics(), 5);
}

#[test]
fn two_pools_one_instance_share_observation() {
    let lg = LookingGlass::builder().build();
    let a = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));
    let b = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));
    a.scope(|s| {
        for _ in 0..10 {
            s.spawn_named("from_a", || {});
        }
    });
    b.scope(|s| {
        for _ in 0..20 {
            s.spawn_named("from_b", || {});
        }
    });
    assert_eq!(lg.profiles().get("from_a").unwrap().count, 10);
    assert_eq!(lg.profiles().get("from_b").unwrap().count, 20);
    // Knob names are per instance and the last registration wins: the
    // name now steers pool `b`; `a` keeps its own actuator.
    let knobs = lg.knobs();
    knobs.set_id(knobs.id("thread_cap").unwrap(), 1);
    assert_eq!(b.thread_cap().current(), 1);
    assert_eq!(a.thread_cap().current(), 2);
    knobs.set_id(knobs.id("dag.critical_bias").unwrap(), 0);
    assert_eq!(b.dag_bias_knob().get(), 0);
    assert_eq!(a.dag_bias_knob().get(), 1);
}
