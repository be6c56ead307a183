//! Property tests for the unified control plane: the actuation journal
//! is a faithful, totally ordered record of every knob write, the
//! interned-id API is observationally identical to the name API, and a
//! counter-delta watch fires exactly when one shared accumulator would.
//!
//! The journal-replay property is the regression net for the old racy
//! `from` read: with the per-knob write lock, consecutive records for a
//! knob must chain (`from[i+1] == to[i]`) even when sets and rollbacks
//! race across threads — a torn read would break the chain.

use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::{FnPolicy, KnobId, KnobRegistry, PolicyDecision, PolicyEngine, ThresholdWatch};
use lg_metrics::stripe::set_thread_index;
use lg_metrics::CounterRegistry;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const KNOBS: u8 = 4;
const INITIAL: i64 = 0;
const MIN: i64 = -100;
const MAX: i64 = 100;

fn registry() -> (Arc<KnobRegistry>, Vec<KnobId>) {
    // Capacity far above the op count so nothing is evicted mid-test.
    let reg = Arc::new(KnobRegistry::with_journal_capacity(8192));
    let ids = (0..KNOBS)
        .map(|i| {
            reg.register(AtomicKnob::new(
                KnobSpec::new(format!("k{i}"), MIN, MAX),
                INITIAL,
            ))
        })
        .collect();
    (reg, ids)
}

/// One scripted op: `(knob index, candidate value, op kind)`. Kind 0 is
/// a rollback of the knob's last write; anything else is a set.
type Op = (u8, i64, u8);

fn op_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..KNOBS, (MIN - 50)..(MAX + 50), 0u8..6), 1..24),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn journal_replay_reproduces_final_knob_state_across_threads(script in op_strategy()) {
        let (reg, ids) = registry();
        std::thread::scope(|s| {
            for ops in &script {
                let reg = reg.clone();
                let ids = &ids;
                s.spawn(move || {
                    for &(k, v, kind) in ops {
                        if kind == 0 {
                            reg.rollback_last_of(ids[k as usize]);
                        } else {
                            reg.set_id(ids[k as usize], v);
                        }
                    }
                });
            }
        });

        let records = reg.journal().records();
        // Total order: seq strictly increases, no gaps in the retained run.
        for w in records.windows(2) {
            prop_assert_eq!(w[0].seq + 1, w[1].seq);
        }

        // Replay in seq order. Each record's `to` is the post-write state,
        // so replaying every record (rollbacks included — they are writes
        // too) must land exactly on the live values.
        let mut replay: HashMap<String, i64> =
            (0..KNOBS).map(|i| (format!("k{i}"), INITIAL)).collect();
        for r in &records {
            // The race-fix invariant: the recorded `from` is the previous
            // record's `to` for that knob (or the initial value).
            prop_assert_eq!(
                replay[&r.knob], r.from,
                "broken from-chain for {} at seq {}", r.knob, r.seq
            );
            prop_assert!((MIN..=MAX).contains(&r.to), "journaled value escaped clamp");
            *replay.get_mut(&r.knob).expect("known knob") = r.to;
        }
        for (i, id) in ids.iter().enumerate() {
            let name = format!("k{i}");
            prop_assert_eq!(
                reg.value_id(*id),
                Some(replay[&name]),
                "replay diverged from live state for {}", name
            );
        }
        prop_assert_eq!(reg.change_count(), records.len());
    }

    #[test]
    fn id_and_name_access_agree(ops in proptest::collection::vec((0u8..KNOBS, (MIN - 50)..(MAX + 50), 0u8..2), 1..48)) {
        let (reg, ids) = registry();
        for (k, v, via_id) in ops {
            let name = format!("k{k}");
            let id = ids[k as usize];
            // The two handles are the same binding…
            prop_assert_eq!(reg.id(&name), Some(id));
            prop_assert_eq!(reg.spec(id).map(|s| s.name).as_deref(), Some(name.as_str()));
            // …and writes through either are observationally identical.
            let resolved = reg.id(&name).expect("registered");
            let (via, other) = if via_id == 0 {
                (reg.set_id(id, v), reg.value_id(resolved))
            } else {
                (reg.set_id(resolved, v), reg.value_id(id))
            };
            prop_assert_eq!(via, other);
            prop_assert_eq!(via, Some(v.clamp(MIN, MAX)));
            prop_assert_eq!(reg.value_id(resolved), reg.value_id(id));
        }
    }

    #[test]
    fn counter_watch_fires_like_a_single_accumulator(
        delta in 1u64..20_000,
        steps in proptest::collection::vec((0usize..4, 1u64..1_500, 0u32..3), 1..120),
    ) {
        // Four writers, each pinned to its own stripe, take turns (each
        // add runs on a thread joined before the next), so the total the
        // watch reads is spread over several stripes. Most adds are
        // followed by a step; every step must fire exactly when one shared
        // accumulator, re-baselined at its own firings, crosses `delta`,
        // and the knob must hold that accumulator's firing count.
        let knobs = Arc::new(KnobRegistry::new());
        let fired = knobs.register(AtomicKnob::new(KnobSpec::new("fired", 0, i64::MAX), 0));
        let engine = PolicyEngine::new(knobs.clone());
        let reg = CounterRegistry::new();
        let c = reg.striped_counter("signal");
        let mut count = 0i64;
        engine.register_threshold(
            FnPolicy::new("count", move |_, _, _| {
                count += 1;
                PolicyDecision::set(fired, count)
            }),
            ThresholdWatch::counter_delta_armed(&c, delta),
        );
        let (mut total, mut last, mut expected) = (0u64, 0u64, 0i64);
        for (t, &(writer, n, step)) in steps.iter().enumerate() {
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_thread_index(writer);
                    c.add(n);
                });
            });
            total += n;
            if step == 0 {
                continue;
            }
            let crosses = total - last >= delta;
            if crosses {
                last = total;
                expected += 1;
            }
            prop_assert_eq!(engine.step(t as u64), usize::from(crosses), "total {} last {}", total, last);
            prop_assert_eq!(knobs.value_id(fired), Some(expected));
        }
        prop_assert_eq!(c.get(), total);
    }
}
