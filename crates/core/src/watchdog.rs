//! Self-healing watchdog: roll back actuations that hurt throughput.
//!
//! Adaptation is supposed to help; a mis-tuned policy (or a policy tuned
//! for a phase that just ended) can actuate a knob and make things worse.
//! The [`RegressionWatchdog`] is itself a periodic [`Policy`] that closes
//! the loop on the loop: it watches a throughput signal — by default the
//! completed-tasks rate diffed from the consecutive
//! [`IntrospectionSnapshot`]s the engine hands it, or a caller-supplied
//! closure — and when a journalled actuation is followed by a rate drop
//! beyond a threshold, it writes the knob back to its pre-actuation value.
//!
//! The rollback is an ordinary [`PolicyDecision`], so it flows through the
//! same clamping and journaling as any other actuation — and it is
//! journalled under the watchdog's own (interned) actor id, which the
//! watchdog ignores, so it never chases its own tail. Suspects are read
//! from the raw id-based records of the registry's journal, and a rollback
//! names the suspect's [`KnobId`](crate::KnobId): no string is built or
//! looked up on the way.

use crate::event::TaskId;
use crate::knob::KnobRegistry;
use crate::policy::{Policy, PolicyDecision, Trigger};
use crate::snapshot::{completed_rate, IntrospectionSnapshot};
use std::sync::Arc;

struct Pending {
    seq: u64,
    knob: TaskId,
    from: i64,
    baseline: f64,
}

/// Where the watchdog's throughput signal comes from.
enum RateSource {
    /// Caller-supplied closure (legacy / custom signals).
    Closure(Box<dyn FnMut() -> f64 + Send>),
    /// Completed-tasks/sec diffed from consecutive evaluation snapshots.
    Snapshot {
        /// `(t_ns, total_completed)` of the previous evaluation.
        prev: Option<(u64, u64)>,
    },
}

/// Periodic policy that detects post-actuation throughput regressions and
/// rolls back the offending knob write. See the module docs.
pub struct RegressionWatchdog {
    name: String,
    /// Our actor id in the journal (records with this id are our own).
    self_id: TaskId,
    /// The registry whose journal is read and whose knobs are rolled back.
    knobs: Arc<KnobRegistry>,
    rate: RateSource,
    drop_frac: f64,
    last_seen_seq: u64,
    pending: Option<Pending>,
    rollbacks: u64,
    ignored: Vec<TaskId>,
    /// Rate observed one evaluation ago — the last reading guaranteed to
    /// predate any record that has appeared since the last journal scan.
    prev_rate: Option<f64>,
}

impl RegressionWatchdog {
    fn build(knobs: Arc<KnobRegistry>, rate: RateSource, drop_frac: f64) -> Box<Self> {
        assert!(
            drop_frac > 0.0 && drop_frac < 1.0,
            "drop fraction must be in (0, 1)"
        );
        let self_id = knobs.actor("regression-watchdog");
        Box::new(Self {
            name: "regression-watchdog".into(),
            self_id,
            knobs,
            rate,
            drop_frac,
            last_seen_seq: 0,
            pending: None,
            rollbacks: 0,
            ignored: Vec::new(),
            prev_rate: None,
        })
    }

    /// Excludes `actor`'s writes from suspect adoption. Budget governors
    /// (e.g. the arbiter) rewrite the same knob every control round; without
    /// this, each rewrite would replace the current suspect and reset its
    /// baseline to the post-regression rate, masking the drop.
    #[must_use]
    pub fn with_ignored_actor(mut self: Box<Self>, actor: &str) -> Box<Self> {
        self.ignored.push(self.knobs.actor(actor));
        self
    }

    /// Creates a watchdog over the writes journaled by `knobs`, reading
    /// `rate` (higher = better) and rolling back any journalled actuation
    /// followed by a drop of more than `drop_frac` (e.g. `0.2` = 20%)
    /// relative to the rate observed when the actuation was first seen.
    /// Register it on an engine that applies decisions to the same
    /// registry.
    ///
    /// # Panics
    /// Panics unless `0 < drop_frac < 1`.
    pub fn new(
        knobs: Arc<KnobRegistry>,
        rate: impl FnMut() -> f64 + Send + 'static,
        drop_frac: f64,
    ) -> Box<Self> {
        Self::build(knobs, RateSource::Closure(Box::new(rate)), drop_frac)
    }

    /// Creates a watchdog whose rate is the completed-tasks-per-second
    /// throughput diffed between the consecutive snapshots the engine
    /// hands each evaluation — no bespoke rate plumbing needed.
    ///
    /// # Panics
    /// Panics unless `0 < drop_frac < 1`.
    pub fn throughput(knobs: Arc<KnobRegistry>, drop_frac: f64) -> Box<Self> {
        Self::build(knobs, RateSource::Snapshot { prev: None }, drop_frac)
    }

    /// Rollbacks performed so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Reads this evaluation's rate; `None` when a snapshot-diff rate is
    /// not yet defined (first evaluation, or no time elapsed).
    fn observe_rate(&mut self, snapshot: &IntrospectionSnapshot) -> Option<f64> {
        match &mut self.rate {
            RateSource::Closure(f) => Some(f()),
            RateSource::Snapshot { prev } => {
                let now = (snapshot.t_ns, snapshot.total_completed);
                prev.replace(now).and_then(|p| completed_rate(p, now))
            }
        }
    }
}

impl Policy for RegressionWatchdog {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        let Some(rate) = self.observe_rate(snapshot) else {
            // No rate yet (first snapshot-diff evaluation): no verdict is
            // possible and no baseline can be assigned; leave any pending
            // suspect armed and adopt nothing this round.
            return PolicyDecision::noop();
        };
        let mut decision = PolicyDecision::noop();
        // Verdict on the actuation observed last evaluation: one full
        // period has elapsed, so `rate` reflects the post-actuation world.
        if let Some(p) = self.pending.take() {
            if rate < p.baseline * (1.0 - self.drop_frac) {
                self.knobs.journal().mark_rolled_back(p.seq);
                self.rollbacks += 1;
                // A knob deregistered since has nothing to restore.
                if let Some(knob) = self.knobs.id_of_journaled(p.knob) {
                    decision = PolicyDecision::set(knob, p.from);
                }
            }
        }
        // Adopt the newest foreign actuation as the next suspect — skip
        // our own writes and anything that is (or undoes) a rollback. A
        // record that appeared since the last scan landed *during* the
        // interval the current rate covers (policy engines batch-apply
        // decisions after the evaluation loop), so the clean pre-actuation
        // baseline is the rate from one evaluation ago, falling back to
        // the current rate on the first reading.
        let baseline = self.prev_rate.unwrap_or(rate);
        let mut newest: Option<Pending> = None;
        for rec in self.knobs.journal().raw_records_since(self.last_seen_seq) {
            self.last_seen_seq = self.last_seen_seq.max(rec.seq);
            if rec.policy != self.self_id
                && !self.ignored.contains(&rec.policy)
                && !rec.rolled_back
                && rec.rollback_of.is_none()
            {
                newest = Some(Pending {
                    seq: rec.seq,
                    knob: rec.knob,
                    from: rec.from,
                    baseline,
                });
            }
        }
        if newest.is_some() {
            self.pending = newest;
        }
        self.prev_rate = Some(rate);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::ActuationJournal;
    use crate::knob::{AtomicKnob, KnobId, KnobSpec};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn eval(w: &mut RegressionWatchdog, t: u64) -> PolicyDecision {
        w.evaluate(t, Trigger::Periodic, &IntrospectionSnapshot::empty(t))
    }

    /// A registry holding one knob per name, and its journal.
    fn registry(names: &[&str]) -> (Arc<KnobRegistry>, Arc<ActuationJournal>, Vec<KnobId>) {
        let knobs = Arc::new(KnobRegistry::with_journal_capacity(16));
        let ids = names
            .iter()
            .map(|n| knobs.register(AtomicKnob::new(KnobSpec::new(*n, 0, 64), 0)))
            .collect();
        let journal = knobs.journal().clone();
        (knobs, journal, ids)
    }

    /// A watchdog over `knobs` reading the rate held in the returned cell.
    fn watchdog(knobs: &Arc<KnobRegistry>) -> (Box<RegressionWatchdog>, Arc<AtomicU64>) {
        let rate = Arc::new(AtomicU64::new(1_000));
        let r = rate.clone();
        let w =
            RegressionWatchdog::new(knobs.clone(), move || r.load(Ordering::Relaxed) as f64, 0.2);
        (w, rate)
    }

    #[test]
    fn rolls_back_regressing_actuation() {
        let (knobs, journal, ids) = registry(&["thread_cap"]);
        let (mut w, rate) = watchdog(&knobs);
        assert_eq!(eval(&mut w, 0), PolicyDecision::noop());
        // A policy halves the cap; throughput craters.
        let seq = journal.record(10, "tuner", "thread_cap", 16, 2);
        assert_eq!(
            eval(&mut w, 10),
            PolicyDecision::noop(),
            "adopts suspect, no verdict yet"
        );
        rate.store(400, Ordering::Relaxed);
        let d = eval(&mut w, 20);
        assert_eq!(d, PolicyDecision::set(ids[0], 16));
        assert_eq!(w.rollbacks(), 1);
        assert!(
            journal
                .records()
                .iter()
                .find(|r| r.seq == seq)
                .unwrap()
                .rolled_back
        );
    }

    #[test]
    fn tolerates_benign_actuation() {
        let (knobs, journal, _) = registry(&["window"]);
        let (mut w, rate) = watchdog(&knobs);
        eval(&mut w, 0);
        journal.record(10, "tuner", "window", 8, 32);
        eval(&mut w, 10);
        rate.store(1_100, Ordering::Relaxed); // improved
        assert_eq!(eval(&mut w, 20), PolicyDecision::noop());
        assert_eq!(w.rollbacks(), 0);
    }

    #[test]
    fn small_dip_within_tolerance_not_rolled_back() {
        let (knobs, journal, _) = registry(&["window"]);
        let (mut w, rate) = watchdog(&knobs);
        eval(&mut w, 0);
        journal.record(10, "tuner", "window", 8, 32);
        eval(&mut w, 10);
        rate.store(900, Ordering::Relaxed); // -10%, threshold is 20%
        assert_eq!(eval(&mut w, 20), PolicyDecision::noop());
    }

    #[test]
    fn ignores_its_own_rollback_writes() {
        let (knobs, journal, ids) = registry(&["cap"]);
        let (mut w, rate) = watchdog(&knobs);
        eval(&mut w, 0);
        journal.record(10, "tuner", "cap", 16, 2);
        eval(&mut w, 10);
        rate.store(100, Ordering::Relaxed);
        assert_eq!(eval(&mut w, 20), PolicyDecision::set(ids[0], 16));
        // The engine would journal that rollback under the watchdog's name:
        journal.record(20, "regression-watchdog", "cap", 2, 16);
        rate.store(90, Ordering::Relaxed);
        assert_eq!(
            eval(&mut w, 30),
            PolicyDecision::noop(),
            "must not chase its own write"
        );
        assert_eq!(eval(&mut w, 40), PolicyDecision::noop());
        assert_eq!(w.rollbacks(), 1);
    }

    #[test]
    fn only_latest_foreign_actuation_is_suspect() {
        let (knobs, journal, ids) = registry(&["k1", "k2"]);
        let (mut w, rate) = watchdog(&knobs);
        eval(&mut w, 0);
        journal.record(10, "a", "k1", 1, 2);
        journal.record(11, "b", "k2", 5, 9);
        eval(&mut w, 20);
        rate.store(1, Ordering::Relaxed);
        // Rolls back the most recent write only (k2).
        assert_eq!(eval(&mut w, 30), PolicyDecision::set(ids[1], 5));
    }

    #[test]
    fn ignores_registry_rollback_records() {
        // A rollback performed through KnobRegistry::rollback_last_of is
        // journalled with `rollback_of` set; the watchdog must not adopt
        // it as a suspect even though the actor ("rollback") is foreign.
        let (knobs, _, ids) = registry(&["cap"]);
        let (mut w, rate) = watchdog(&knobs);
        eval(&mut w, 0);
        let tuner = knobs.actor("tuner");
        knobs.set_id_as(ids[0], 2, tuner, 10);
        assert_eq!(knobs.rollback_last_of(ids[0]), Some(0));
        eval(&mut w, 20);
        rate.store(1, Ordering::Relaxed);
        assert_eq!(
            eval(&mut w, 30),
            PolicyDecision::noop(),
            "neither the rolled-back write nor its undo is a suspect"
        );
    }

    #[test]
    fn snapshot_throughput_mode_diffs_consecutive_snapshots() {
        let (knobs, journal, ids) = registry(&["cap"]);
        let mut w = RegressionWatchdog::throughput(knobs, 0.2);
        let snap = |t_s: u64, done: u64| IntrospectionSnapshot {
            total_completed: done,
            ..IntrospectionSnapshot::empty(t_s * 1_000_000_000)
        };
        // First evaluation: no rate yet, nothing adopted.
        assert_eq!(
            w.evaluate(0, Trigger::Periodic, &snap(1, 1000)),
            PolicyDecision::noop()
        );
        // Steady 1000 tasks/s baseline; a foreign actuation lands.
        journal.record(2_000_000_000, "tuner", "cap", 16, 2);
        assert_eq!(
            w.evaluate(0, Trigger::Periodic, &snap(2, 2000)),
            PolicyDecision::noop(),
            "adopts suspect at 1000/s baseline"
        );
        // Next second only 100 tasks complete: 90% drop => rollback.
        let d = w.evaluate(0, Trigger::Periodic, &snap(3, 2100));
        assert_eq!(d, PolicyDecision::set(ids[0], 16));
        assert_eq!(w.rollbacks(), 1);
    }
}
