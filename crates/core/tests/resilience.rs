//! Resilience of the policy engine itself: panic containment and
//! quarantine, plus knob-write rollback (manual and watchdog-driven).

use lg_core::journal::ActuationJournal;
use lg_core::knob::AtomicKnob;
use lg_core::policy::Trigger;
use lg_core::{
    IntrospectionSnapshot, Knob, KnobId, KnobRegistry, KnobSpec, Policy, PolicyDecision,
    PolicyEngine, RegressionWatchdog,
};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Periodic policy that panics on evaluations where `fail(evals)` says so,
/// and otherwise writes `knob = evals`.
struct Flaky {
    name: &'static str,
    knob: KnobId,
    evals: u64,
    fail: fn(u64) -> bool,
}

impl Policy for Flaky {
    fn name(&self) -> &str {
        self.name
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        _snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        self.evals += 1;
        if (self.fail)(self.evals) {
            panic!("injected policy fault at evaluation {}", self.evals);
        }
        PolicyDecision::set(self.knob, self.evals as i64)
    }
}

/// The value of the decoy knob `engine_with_knob` registers first.
const DECOY: i64 = 42;

fn engine_with_knob(
    name: &'static str,
    initial: i64,
) -> (Arc<PolicyEngine>, Arc<KnobRegistry>, KnobId) {
    let knobs = Arc::new(KnobRegistry::new());
    // A decoy takes the first slot, so a write that lands on the wrong
    // knob shows.
    knobs.register(AtomicKnob::new(KnobSpec::new("decoy", 0, 1_000_000), DECOY));
    let id = knobs.register(AtomicKnob::new(KnobSpec::new(name, 0, 1_000_000), initial));
    (PolicyEngine::new(knobs.clone()), knobs, id)
}

#[test]
fn panicking_policy_is_quarantined_and_never_fires_again() {
    let (engine, knobs, k) = engine_with_knob("k", 0);
    engine.register_periodic(
        Box::new(Flaky {
            name: "bad",
            knob: k,
            evals: 0,
            fail: |_| true,
        }),
        100,
        0,
    );
    engine.register_periodic(
        Box::new(Flaky {
            name: "good",
            knob: k,
            evals: 0,
            fail: |_| false,
        }),
        100,
        0,
    );
    for i in 1..=20u64 {
        engine.step(i * 100); // must not unwind despite "bad" panicking
    }
    assert_eq!(
        engine.panics(),
        PolicyEngine::DEFAULT_QUARANTINE_THRESHOLD as u64
    );
    assert_eq!(engine.quarantined(), vec!["bad".to_string()]);
    assert_eq!(engine.quarantined_count(), 1);
    assert_eq!(
        engine.policy_count(),
        2,
        "quarantine keeps the policy registered"
    );
    // The healthy policy kept actuating right through its neighbour's
    // meltdown: 20 evaluations, each journalled.
    assert_eq!(knobs.value_id(k), Some(20));
    // Many more steps: the quarantined policy stays silent for the rest of
    // the session.
    for i in 21..=60u64 {
        engine.step(i * 100);
    }
    assert_eq!(
        engine.panics(),
        PolicyEngine::DEFAULT_QUARANTINE_THRESHOLD as u64
    );
    assert_eq!(knobs.value_id(k), Some(60));
}

#[test]
fn successful_evaluation_resets_the_panic_streak() {
    let (engine, _knobs, k) = engine_with_knob("k", 0);
    // Panics twice out of every three evaluations: never three in a row,
    // so it must never be quarantined.
    engine.register_periodic(
        Box::new(Flaky {
            name: "flappy",
            knob: k,
            evals: 0,
            fail: |n| n % 3 != 0,
        }),
        100,
        0,
    );
    for i in 1..=30u64 {
        engine.step(i * 100);
    }
    assert_eq!(engine.quarantined_count(), 0);
    assert_eq!(engine.panics(), 20);
}

#[test]
fn quarantine_threshold_is_tunable() {
    let (engine, _knobs, k) = engine_with_knob("k", 0);
    engine.set_quarantine_threshold(1);
    engine.register_periodic(
        Box::new(Flaky {
            name: "bad",
            knob: k,
            evals: 0,
            fail: |_| true,
        }),
        100,
        0,
    );
    engine.step(100);
    assert_eq!(engine.quarantined_count(), 1, "one strike and out");
    assert_eq!(engine.panics(), 1);
}

#[test]
fn rollback_restores_the_pre_actuation_value() {
    let (engine, knobs, k) = engine_with_knob("k", 7);
    engine.register_periodic(
        Box::new(Flaky {
            name: "writer",
            knob: k,
            evals: 0,
            fail: |_| false,
        }),
        100,
        0,
    );
    engine.step(100); // writes k = 1
    assert_eq!(knobs.value_id(k), Some(1));
    assert_eq!(knobs.rollback_last_of(k), Some(7));
    assert_eq!(
        knobs.value_id(k),
        Some(7),
        "rollback must restore the prior value"
    );
    // The record is consumed: a second rollback finds nothing newer.
    assert_eq!(knobs.rollback_last_of(k), None);
    assert!(knobs.deregister(k));
    assert_eq!(knobs.rollback_last_of(k), None, "no knob behind the id");
}

/// A knob whose `set` takes a while, so one rollback's restore spans the
/// moment a racing rollback chooses its target. The sleep only widens the
/// window a rollback that chooses without the knob's write lock needs; a
/// correct rollback passes under every interleaving.
struct SlowKnob(AtomicI64);

impl Knob for SlowKnob {
    fn spec(&self) -> KnobSpec {
        KnobSpec::new("slow", 0, 10)
    }
    fn get(&self) -> i64 {
        self.0.load(Ordering::Acquire)
    }
    fn set(&self, value: i64) {
        self.0.store(value, Ordering::Release);
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn concurrent_rollbacks_undo_distinct_writes() {
    // Two rollbacks racing on one knob must undo its two newest writes,
    // one each. A pair that picks the same record restores 1 twice and
    // leaves the 0 -> 1 write in force.
    const TRIALS: usize = 200;
    let mut failures = Vec::new();
    for trial in 0..TRIALS {
        let knobs = KnobRegistry::new();
        let k = knobs.register(Arc::new(SlowKnob(AtomicI64::new(0))));
        knobs.set_id(k, 1);
        knobs.set_id(k, 2);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    knobs.rollback_last_of(k);
                });
            }
        });
        let recs = knobs.journal().records();
        if knobs.value_id(k) != Some(0) || !recs[..2].iter().all(|r| r.rolled_back) {
            failures.push((trial, knobs.value_id(k), recs));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {TRIALS} trials undid one write twice; first: {:?}",
        failures.len(),
        failures[0]
    );
}

#[test]
fn watchdog_rolls_back_a_regressing_actuation_end_to_end() {
    // Full loop through the engine: a policy actuates, throughput tanks,
    // and the watchdog (itself a registered policy) writes the knob back.
    let (engine, knobs, k) = engine_with_knob("k", 10);
    let rate = Arc::new(AtomicU64::new(1_000));
    let rate_reader = rate.clone();
    engine.register_periodic(
        RegressionWatchdog::new(
            knobs.clone(),
            move || rate_reader.load(Ordering::Relaxed) as f64,
            0.2,
        ),
        100,
        0,
    );
    // One harmful actuation, made outside the watchdog's name.
    struct OneShot(KnobId);
    impl Policy for OneShot {
        fn name(&self) -> &str {
            "one-shot"
        }
        fn evaluate(
            &mut self,
            _now_ns: u64,
            _trigger: Trigger<'_>,
            _snapshot: &IntrospectionSnapshot,
        ) -> PolicyDecision {
            PolicyDecision::set(self.0, 999).and_retire()
        }
    }
    engine.register_periodic(Box::new(OneShot(k)), 100, 0);
    engine.step(100); // actuation lands (journalled after this step)
    assert_eq!(knobs.value_id(k), Some(999));
    engine.step(200); // watchdog adopts the suspect at a healthy baseline
    rate.store(100, Ordering::Relaxed); // throughput collapses
    engine.step(300); // verdict: regression → rollback decision applied
    assert_eq!(
        knobs.value_id(k),
        Some(10),
        "watchdog must restore the prior value"
    );
    let decoy = knobs.id("decoy").expect("registered");
    assert_eq!(knobs.value_id(decoy), Some(DECOY), "the decoy is untouched");
    let rolled: Vec<_> = engine
        .journal()
        .records_since(0)
        .into_iter()
        .filter(|r| r.rolled_back)
        .collect();
    assert_eq!(rolled.len(), 1);
    assert_eq!(rolled[0].policy, "one-shot");
}

#[test]
fn journal_capacity_bounds_rollback_memory() {
    // The engine's journal is bounded: old actuations fall off and can no
    // longer be rolled back, but the newest always can.
    let journal = ActuationJournal::new(4);
    for i in 0..10u64 {
        journal.record(i, "p", "k", i as i64, i as i64 + 1);
    }
    assert_eq!(journal.len(), 4);
    assert!(journal.evicted() >= 6);
    let k = journal.names().lookup("k").expect("interned");
    let latest = journal.latest_for_id(k).expect("newest record retained");
    assert_eq!(latest.from, 9);
}
