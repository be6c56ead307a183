//! Online tuning sessions: the measure → report → move loop.
//!
//! A [`TuningSession`] binds together a set of knobs (resolved to
//! [`KnobId`]s once, at construction), a search strategy from `lg-tuning`,
//! and an epoch protocol:
//!
//! 1. **Actuate** — ask the search for the next candidate point and write
//!    it to the knobs (journaled under the session's actor).
//! 2. **Settle** — wait `settle_ns` for the runtime to reach steady state
//!    under the new configuration (in-flight tasks drain, workers park).
//! 3. **Measure** — the caller observes the objective over `measure_ns`
//!    (throughput from profiles, energy from the meter, EDP, …). With an
//!    [`Introspection`] facade attached, [`TuningSession::complete_via`]
//!    measures by diffing the epoch's begin/end snapshots instead of
//!    scraping listeners by hand.
//! 4. **Report** — feed the objective back; the search decides where to
//!    look next.
//!
//! The session is clock-agnostic: the caller supplies timestamps, so the
//! same code drives wall-clock tuning on the real runtime and virtual-time
//! tuning in the simulator.

use crate::event::TaskId;
use crate::knob::{KnobId, KnobRegistry};
use crate::snapshot::{Introspection, IntrospectionSnapshot};
use lg_tuning::{Point, Search};
use std::sync::Arc;

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Knob names, in the same order as the search space's dimensions.
    pub knob_names: Vec<String>,
    /// Settle time after actuation before measurement should begin.
    pub settle_ns: u64,
    /// Measurement window length.
    pub measure_ns: u64,
}

impl SessionConfig {
    /// Config for a single knob with the given windows.
    pub fn single(knob: impl Into<String>, settle_ns: u64, measure_ns: u64) -> Self {
        Self {
            knob_names: vec![knob.into()],
            settle_ns,
            measure_ns,
        }
    }
}

/// One completed epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochReport {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Configuration evaluated.
    pub point: Point,
    /// Objective observed (lower is better).
    pub objective: f64,
    /// Time the epoch's measurement began.
    pub measured_from_ns: u64,
}

/// What the caller should do next.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionStep {
    /// Knobs were set to `point`; measure the objective starting at
    /// `measure_from_ns` for the configured window, then call
    /// [`TuningSession::complete`].
    Measure {
        /// The configuration under test.
        point: Point,
        /// Earliest timestamp at which measurement is representative.
        measure_from_ns: u64,
    },
    /// The search has converged; `best` holds the winning configuration,
    /// which has been re-applied to the knobs.
    Done {
        /// Best `(point, objective)`, if anything was measured.
        best: Option<(Point, f64)>,
    },
}

/// An online tuning session (see module docs).
pub struct TuningSession {
    cfg: SessionConfig,
    /// Ids for `cfg.knob_names`, resolved once at construction.
    ids: Vec<KnobId>,
    /// The session's interned journal actor.
    actor: TaskId,
    search: Box<dyn Search>,
    knobs: Arc<KnobRegistry>,
    introspection: Option<Arc<Introspection>>,
    pending: Option<(Point, u64)>,
    /// Snapshot captured when the in-flight epoch was actuated (only with
    /// an attached facade).
    pending_begin: Option<IntrospectionSnapshot>,
    history: Vec<EpochReport>,
    finished: bool,
}

impl TuningSession {
    /// Creates a session. Knob names are resolved to ids here, once.
    ///
    /// # Panics
    /// Panics if `knob_names` is empty or any name is not registered.
    pub fn new(cfg: SessionConfig, search: Box<dyn Search>, knobs: Arc<KnobRegistry>) -> Self {
        assert!(
            !cfg.knob_names.is_empty(),
            "session needs at least one knob"
        );
        let ids = cfg
            .knob_names
            .iter()
            .map(|n| {
                knobs
                    .id(n)
                    .unwrap_or_else(|| panic!("tuning session: unknown knob '{n}'"))
            })
            .collect();
        let actor = knobs.actor("tuning-session");
        Self {
            cfg,
            ids,
            actor,
            search,
            knobs,
            introspection: None,
            pending: None,
            pending_begin: None,
            history: Vec::new(),
            finished: false,
        }
    }

    /// Attaches the introspection facade [`TuningSession::complete_via`]
    /// measures through.
    pub fn with_introspection(mut self, introspection: Arc<Introspection>) -> Self {
        self.introspection = Some(introspection);
        self
    }

    fn actuate(&self, point: &Point, now_ns: u64) {
        for (id, value) in self.ids.iter().zip(point) {
            self.knobs.set_id_as(*id, *value, self.actor, now_ns);
        }
    }

    /// Starts the next epoch at time `now_ns`: proposes a point, actuates
    /// the knobs, and tells the caller when to measure.
    ///
    /// # Panics
    /// Panics if an epoch is already in flight (call
    /// [`TuningSession::complete`] first) or if the proposed point's arity
    /// does not match `knob_names`.
    pub fn next(&mut self, now_ns: u64) -> SessionStep {
        assert!(self.pending.is_none(), "epoch already in flight");
        if self.finished {
            return self.finish(now_ns);
        }
        match self.search.propose() {
            None => self.finish(now_ns),
            Some(point) => {
                assert_eq!(
                    point.len(),
                    self.ids.len(),
                    "search space arity != knob count"
                );
                self.actuate(&point, now_ns);
                let measure_from_ns = now_ns + self.cfg.settle_ns;
                self.pending = Some((point.clone(), measure_from_ns));
                self.pending_begin = self.introspection.as_ref().map(|i| i.capture(now_ns));
                SessionStep::Measure {
                    point,
                    measure_from_ns,
                }
            }
        }
    }

    /// Completes the in-flight epoch with the measured objective.
    ///
    /// # Panics
    /// Panics if no epoch is in flight.
    pub fn complete(&mut self, objective: f64) {
        let (point, measured_from_ns) = self
            .pending
            .take()
            .expect("complete() without a pending epoch");
        self.pending_begin = None;
        self.search.report(&point, objective);
        self.history.push(EpochReport {
            epoch: self.history.len(),
            point,
            objective,
            measured_from_ns,
        });
    }

    /// Completes the in-flight epoch by capturing an end snapshot at
    /// `now_ns` and scoring the epoch with `objective(begin, end)` — the
    /// snapshot-diff measurement path (e.g. `ΔE · Δt` for EDP).
    ///
    /// # Panics
    /// Panics if no epoch is in flight or no facade was attached via
    /// [`TuningSession::with_introspection`].
    pub fn complete_via(
        &mut self,
        now_ns: u64,
        objective: impl FnOnce(&IntrospectionSnapshot, &IntrospectionSnapshot) -> f64,
    ) {
        assert!(
            self.pending.is_some(),
            "complete_via() without a pending epoch"
        );
        let begin = self
            .pending_begin
            .take()
            .expect("complete_via() requires with_introspection()");
        let end = self
            .introspection
            .as_ref()
            .expect("facade checked above")
            .capture(now_ns);
        let y = objective(&begin, &end);
        self.complete(y);
    }

    fn finish(&mut self, now_ns: u64) -> SessionStep {
        self.finished = true;
        let best = self.search.best();
        if let Some((point, _)) = &best {
            // Leave the system running at the winner.
            self.actuate(point, now_ns);
        }
        SessionStep::Done { best }
    }

    /// True once `next` has returned [`SessionStep::Done`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Completed epochs so far.
    pub fn history(&self) -> &[EpochReport] {
        &self.history
    }

    /// Best `(point, objective)` reported so far.
    pub fn best(&self) -> Option<(Point, f64)> {
        self.search.best()
    }

    /// Configured measurement window length.
    pub fn measure_ns(&self) -> u64 {
        self.cfg.measure_ns
    }
}

impl std::fmt::Debug for TuningSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuningSession")
            .field("epochs", &self.history.len())
            .field("finished", &self.finished)
            .field("strategy", &self.search.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::{AtomicKnob, KnobSpec};
    use lg_tuning::{Dim, HillClimb, Space};

    fn knobs_with_cap(max: i64) -> Arc<KnobRegistry> {
        let reg = Arc::new(KnobRegistry::new());
        reg.register(AtomicKnob::new(KnobSpec::new("cap", 1, max), max));
        reg
    }

    fn drive(session: &mut TuningSession, f: impl Fn(&Point) -> f64) -> Option<(Point, f64)> {
        let mut now = 0u64;
        loop {
            match session.next(now) {
                SessionStep::Done { best } => return best,
                SessionStep::Measure {
                    point,
                    measure_from_ns,
                } => {
                    now = measure_from_ns + session.measure_ns();
                    let y = f(&point);
                    session.complete(y);
                }
            }
        }
    }

    #[test]
    fn session_finds_knee_and_applies_winner() {
        let knobs = knobs_with_cap(32);
        let space = Space::new(vec![Dim::range("cap", 1, 32, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[32]));
        let cfg = SessionConfig::single("cap", 1_000, 10_000);
        let mut session = TuningSession::new(cfg, search, knobs.clone());
        // Objective: EDP-like bowl with minimum at cap = 12.
        let best = drive(&mut session, |p| ((p[0] - 12) * (p[0] - 12)) as f64 + 3.0).unwrap();
        assert_eq!(best.0, vec![12]);
        assert_eq!(
            knobs.value_id(knobs.id("cap").unwrap()),
            Some(12),
            "winner must be left applied"
        );
        assert!(session.is_finished());
    }

    #[test]
    fn knobs_follow_every_epoch() {
        let knobs = knobs_with_cap(8);
        let space = Space::new(vec![Dim::range("cap", 1, 8, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[4]));
        let cfg = SessionConfig::single("cap", 0, 0);
        let mut session = TuningSession::new(cfg, search, knobs.clone());
        let mut now = 0;
        while let SessionStep::Measure { point, .. } = session.next(now) {
            assert_eq!(
                knobs.value_id(knobs.id("cap").unwrap()),
                Some(point[0]),
                "knob must track epoch config"
            );
            session.complete(point[0] as f64); // minimum at cap = 1
            now += 1;
        }
        assert_eq!(knobs.value_id(knobs.id("cap").unwrap()), Some(1));
    }

    #[test]
    fn settle_window_is_respected() {
        let knobs = knobs_with_cap(4);
        let space = Space::new(vec![Dim::range("cap", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let cfg = SessionConfig {
            knob_names: vec!["cap".into()],
            settle_ns: 500,
            measure_ns: 100,
        };
        let mut session = TuningSession::new(cfg, search, knobs);
        match session.next(1_000) {
            SessionStep::Measure {
                measure_from_ns, ..
            } => assert_eq!(measure_from_ns, 1_500),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "epoch already in flight")]
    fn double_next_panics() {
        let knobs = knobs_with_cap(4);
        let space = Space::new(vec![Dim::range("cap", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let mut session = TuningSession::new(SessionConfig::single("cap", 0, 0), search, knobs);
        let _ = session.next(0);
        let _ = session.next(1);
    }

    #[test]
    #[should_panic(expected = "without a pending epoch")]
    fn complete_without_epoch_panics() {
        let knobs = knobs_with_cap(4);
        let space = Space::new(vec![Dim::range("cap", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let mut session = TuningSession::new(SessionConfig::single("cap", 0, 0), search, knobs);
        session.complete(1.0);
    }

    #[test]
    #[should_panic(expected = "unknown knob 'nope'")]
    fn unknown_knob_rejected_at_construction() {
        let knobs = knobs_with_cap(4);
        let space = Space::new(vec![Dim::range("nope", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let _ = TuningSession::new(SessionConfig::single("nope", 0, 0), search, knobs);
    }

    #[test]
    fn history_is_faithful() {
        let knobs = knobs_with_cap(4);
        let space = Space::new(vec![Dim::range("cap", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let mut session = TuningSession::new(SessionConfig::single("cap", 10, 0), search, knobs);
        drive(&mut session, |p| p[0] as f64);
        let h = session.history();
        assert!(!h.is_empty());
        for (i, e) in h.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!(e.objective, e.point[0] as f64);
        }
    }

    #[test]
    fn session_actuations_are_journaled_under_its_actor() {
        let knobs = knobs_with_cap(8);
        let space = Space::new(vec![Dim::range("cap", 1, 8, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[4]));
        let mut session =
            TuningSession::new(SessionConfig::single("cap", 0, 0), search, knobs.clone());
        drive(&mut session, |p| p[0] as f64);
        let recs = knobs.journal().records();
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.policy == "tuning-session"));
        assert!(recs.iter().all(|r| r.knob == "cap"));
    }

    #[test]
    fn complete_via_scores_from_snapshot_diff() {
        use crate::concurrency::ConcurrencyListener;
        use crate::event::TaskNames;
        use crate::profile::ProfileListener;
        use std::sync::atomic::{AtomicU64, Ordering};

        let knobs = knobs_with_cap(4);
        let names = TaskNames::new();
        let intro = Arc::new(Introspection::new(
            Arc::new(ProfileListener::new(names)),
            Arc::new(ConcurrencyListener::new(16)),
        ));
        let energy = Arc::new(AtomicU64::new(0));
        let e = energy.clone();
        let gauge = intro.register_gauge("energy_j", move || e.load(Ordering::Relaxed) as f64);
        let space = Space::new(vec![Dim::range("cap", 1, 4, 1)]);
        let search = Box::new(HillClimb::from_start(space, &[2]));
        let mut session = TuningSession::new(SessionConfig::single("cap", 0, 0), search, knobs)
            .with_introspection(intro);
        let mut now = 0u64;
        while let SessionStep::Measure { point, .. } = session.next(now) {
            // Each epoch "consumes" energy proportional to the cap.
            energy.fetch_add(point[0] as u64 * 10, Ordering::Relaxed);
            now += 100;
            session.complete_via(now, |begin, end| {
                end.value(gauge).unwrap() - begin.value(gauge).unwrap()
            });
        }
        let h = session.history();
        assert!(!h.is_empty());
        for e in h {
            assert_eq!(e.objective, e.point[0] as f64 * 10.0, "ΔE per epoch");
        }
        assert_eq!(session.best().unwrap().0, vec![1], "lowest ΔE wins");
    }
}
