//! Stress and schedule-randomization tests for the work-stealing pool.
//!
//! The invariant under every schedule: each spawned task runs exactly
//! once, the pool quiesces, and observation balances — regardless of cap
//! churn, nesting, or panics.

use lg_core::LookingGlass;
use lg_runtime::{PoolConfig, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool(workers: usize) -> ThreadPool {
    ThreadPool::new(
        LookingGlass::builder().build(),
        PoolConfig::with_workers(workers),
    )
}

proptest! {
    // Thread pools are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_task_exactly_once_under_cap_churn(
        workers in 1usize..4,
        batches in proptest::collection::vec((1usize..5, 1usize..40), 1..6),
    ) {
        let p = pool(workers);
        let total: usize = batches.iter().map(|(_, n)| n).sum();
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
        let mut idx = 0;
        for (cap, n) in &batches {
            p.thread_cap().set_cap(*cap);
            for _ in 0..*n {
                let hits = hits.clone();
                let i = idx;
                idx += 1;
                p.spawn_named("stress", move || {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        p.wait_idle();
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "task {} ran wrong count", i);
        }
        prop_assert_eq!(p.lg().profiles().get("stress").unwrap().count, total as u64);
    }

    #[test]
    fn parallel_for_partitions_exactly(
        workers in 1usize..4,
        n in 0usize..5000,
        chunk in 1usize..600,
    ) {
        let p = pool(workers);
        let sum = AtomicU64::new(0);
        let stats = p.parallel_for("pf", 0..n, chunk, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        prop_assert_eq!(stats.iterations, n as u64);
        let expect = (n as u64) * (n as u64 + 1) / 2;
        prop_assert_eq!(sum.load(Ordering::Relaxed), expect);
        prop_assert_eq!(stats.chunks, n.div_ceil(chunk));
    }

    #[test]
    fn reduce_matches_sequential_fold(
        workers in 1usize..3,
        n in 0usize..2000,
        chunk in 1usize..300,
    ) {
        let p = pool(workers);
        let got = p.parallel_reduce("pr", 0..n, chunk, 0u64, |i, acc| acc ^ (i as u64).wrapping_mul(31), |a, b| a ^ b);
        let want = (0..n).fold(0u64, |acc, i| acc ^ (i as u64).wrapping_mul(31));
        prop_assert_eq!(got, want);
    }
}

#[test]
fn deep_nesting_does_not_deadlock() {
    // Regression guard for the helping-join fix: single worker, four
    // levels of nested scopes.
    let p = pool(1);
    let count = AtomicU64::new(0);
    p.scope(|s0| {
        s0.spawn(|| {
            p.scope(|s1| {
                s1.spawn(|| {
                    p.scope(|s2| {
                        s2.spawn(|| {
                            p.scope(|s3| {
                                s3.spawn(|| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            });
                        });
                    });
                });
            });
        });
    });
    assert_eq!(count.load(Ordering::Relaxed), 1);
}

#[test]
fn mixed_panics_under_throttle_still_quiesce() {
    let p = pool(3);
    p.thread_cap().set_cap(1);
    let ok = Arc::new(AtomicU64::new(0));
    for i in 0..100 {
        let ok = ok.clone();
        p.spawn_named("maybe_boom", move || {
            if i % 7 == 0 {
                panic!("boom");
            }
            ok.fetch_add(1, Ordering::Relaxed);
        });
    }
    p.wait_idle();
    assert_eq!(ok.load(Ordering::Relaxed), 100 - 15);
    assert_eq!(p.panics(), 15);
    // Raise the cap and confirm the pool is still healthy.
    p.thread_cap().set_cap(3);
    assert_eq!(p.spawn("health", || 9).join().unwrap(), 9);
}

#[test]
fn scope_is_an_observation_barrier() {
    // When scope() returns, every scoped task's events must be visible —
    // the completion-hook guarantee.
    let p = pool(3);
    for round in 0..50u64 {
        p.scope(|s| {
            for _ in 0..20 {
                s.spawn_named("barrier", || {});
            }
        });
        let prof = p.lg().profiles().get("barrier").unwrap();
        assert_eq!(prof.count, (round + 1) * 20, "events lagged scope exit");
        assert_eq!(prof.active, 0);
    }
}
