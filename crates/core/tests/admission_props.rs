//! Property tests for the admission plane: the bulkhead's concurrency
//! bound, the token bucket's rate×window+burst envelope, and the AIMD
//! governor's clamp/journal/replay contract.
//!
//! These are the safety arguments the serving scenario leans on: a
//! bulkhead that can be exceeded under interleaving is not a bulkhead,
//! a gate that admits above its envelope is not a rate limiter, and an
//! AIMD governor whose journal cannot reproduce its final state breaks
//! the control plane's audit story.

use lg_core::knob::Knob;
use lg_core::{AdmissionGate, AimdPolicy, Bulkhead, LookingGlass, RequestClass};
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A successful `try_acquire` proves `in_flight <= limit` held at
    /// admission — no thread interleaving can push the live count past
    /// a fixed limit, and every permit drop is accounted.
    #[test]
    fn bulkhead_never_exceeded_under_interleaving(
        limit in 1i64..12,
        threads in 2usize..6,
        ops in 16usize..96,
    ) {
        let b = Bulkhead::new("limit", 1, 64, limit);
        let max_seen = AtomicI64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let b = b.clone();
                let max_seen = &max_seen;
                s.spawn(move || {
                    for _ in 0..ops {
                        if let Some(permit) = b.try_acquire() {
                            max_seen.fetch_max(b.in_flight(), Ordering::Relaxed);
                            std::hint::spin_loop();
                            drop(permit);
                        }
                    }
                });
            }
        });
        prop_assert!(
            max_seen.load(Ordering::Relaxed) <= limit,
            "in-flight {} exceeded limit {limit}",
            max_seen.load(Ordering::Relaxed)
        );
        prop_assert_eq!(b.in_flight(), 0, "every permit must drain");
    }

    /// With the limit knob mutated concurrently, the in-flight count
    /// never exceeds the highest limit the knob ever held, and lowering
    /// the limit never revokes live permits (the count still drains to
    /// zero through normal drops).
    #[test]
    fn bulkhead_respects_a_live_limit_knob(
        limits in proptest::collection::vec(1i64..16, 4..32),
        threads in 2usize..5,
        ops in 16usize..64,
    ) {
        let initial = limits[0];
        let max_limit = limits.iter().copied().max().unwrap_or(initial).max(initial);
        let b = Bulkhead::new("limit", 1, 64, initial);
        let max_seen = AtomicI64::new(0);
        std::thread::scope(|s| {
            {
                let b = b.clone();
                let limits = &limits;
                s.spawn(move || {
                    for &l in limits {
                        b.limit_knob().set(l);
                        std::thread::yield_now();
                    }
                });
            }
            for _ in 0..threads {
                let b = b.clone();
                let max_seen = &max_seen;
                s.spawn(move || {
                    for _ in 0..ops {
                        if let Some(permit) = b.try_acquire() {
                            max_seen.fetch_max(b.in_flight(), Ordering::Relaxed);
                            std::hint::spin_loop();
                            drop(permit);
                        }
                    }
                });
            }
        });
        prop_assert!(
            max_seen.load(Ordering::Relaxed) <= max_limit,
            "in-flight {} exceeded the highest limit ever set ({max_limit})",
            max_seen.load(Ordering::Relaxed)
        );
        prop_assert_eq!(b.in_flight(), 0);
    }

    /// Over ANY window `[t0, t1]` the gate admits at most
    /// `rate × (t1 - t0) + burst` requests — the bucket never holds more
    /// than `burst` tokens and refills at `rate`, regardless of the
    /// arrival pattern or the optional/mandatory mix.
    #[test]
    fn token_bucket_admits_at_most_rate_window_plus_burst(
        rate in 100i64..50_000,
        burst_tokens in 1u32..48,
        reserve_tokens in 0u32..16,
        steps in proptest::collection::vec((0u64..2_000_000, 0u8..2), 1..250),
    ) {
        let burst = burst_tokens as f64;
        let reserve = (reserve_tokens as f64).min(burst);
        let g = AdmissionGate::new("rate", 0, 1_000_000, rate, burst, reserve);
        let mut now = 0u64;
        let mut admitted_at = Vec::new();
        let mut attempts = 0i64;
        for (dt, class) in steps {
            now += dt;
            let class = if class == 0 {
                RequestClass::Mandatory
            } else {
                RequestClass::Optional
            };
            attempts += 1;
            if g.try_admit(now, class) {
                admitted_at.push(now);
            }
        }
        prop_assert_eq!(g.admitted() + g.rejected(), attempts);
        prop_assert_eq!(g.admitted() as usize, admitted_at.len());
        // Check the envelope over every admission-delimited window.
        for (i, &t0) in admitted_at.iter().enumerate() {
            for (j, &t1) in admitted_at.iter().enumerate().skip(i) {
                let in_window = (j - i + 1) as f64;
                let bound = rate as f64 * (t1 - t0) as f64 / 1e9 + burst;
                prop_assert!(
                    in_window <= bound + 1e-6,
                    "{in_window} admits in [{t0}, {t1}] exceeds rate×window+burst = {bound}"
                );
            }
        }
    }

    /// The AIMD governor, driven through the policy engine against an
    /// arbitrary healthy/overloaded signal sequence, (a) never lets the
    /// knob leave `[min, max]`, (b) journals every change under its
    /// policy name with an unbroken from→to chain, and (c) replaying the
    /// journal from the initial value reproduces the live final state.
    #[test]
    fn aimd_is_bounded_journaled_and_replayable(
        max in 8i64..96,
        initial_raw in 1i64..96,
        step in 1i64..5,
        overloaded in proptest::collection::vec(0u8..2, 1..64),
    ) {
        let min = 1i64;
        let initial = initial_raw.clamp(min, max);
        let lg = LookingGlass::builder().build();
        let bulkhead = Bulkhead::new("limit", min, max, initial);
        let limit = lg.knobs().register(bulkhead.limit_knob().clone());

        let latency = Arc::new(AtomicU64::new(0));
        let l = latency.clone();
        let id = lg
            .introspection()
            .register_gauge("p99", move || l.load(Ordering::Relaxed) as f64);
        let policy = AimdPolicy::new(limit, min, max, initial, step, 0.5)
            .on_latency_above(id, 1_000_000.0);
        lg.policy_engine().register_periodic(policy, 1_000, 0);

        for (i, &hot) in overloaded.iter().enumerate() {
            latency.store(if hot == 1 { 5_000_000 } else { 0 }, Ordering::Relaxed);
            lg.policy_engine().step((i as u64 + 1) * 1_000);
            let v = lg.knobs().value_id(limit).expect("registered knob");
            prop_assert!(
                (min..=max).contains(&v),
                "knob value {v} escaped [{min}, {max}] at step {i}"
            );
        }

        let records = lg.knobs().journal().records();
        let mut replayed = initial;
        for r in &records {
            prop_assert_eq!(r.policy.as_str(), "aimd-bulkhead");
            prop_assert_eq!(&r.knob, "limit");
            prop_assert_eq!(r.from, replayed, "broken from-chain at seq {}", r.seq);
            prop_assert!((min..=max).contains(&r.to), "journaled value escaped clamp");
            replayed = r.to;
        }
        prop_assert_eq!(
            lg.knobs().value_id(limit),
            Some(replayed),
            "journal replay diverged from the live knob"
        );
    }
}
