//! The policy engine: periodic and event-triggered policies.
//!
//! A [`Policy`] inspects the [`IntrospectionSnapshot`] the engine hands it
//! and returns a [`PolicyDecision`] — typically a set of knob writes. A
//! policy is registered behind one of two trigger kinds, mirroring the
//! synchronous/asynchronous split in the observation layer:
//!
//! * **Event-triggered** policies run when a matching event is delivered
//!   (the engine is itself a [`Listener`]), a round per match in emission
//!   order: at once for an ordinary emit, at the flush for a deferred one.
//!   While none is registered a delivery costs the engine one atomic load.
//! * **Watch-triggered** policies subscribe to a [`ThresholdWatch`] — an
//!   edge-triggered predicate ("`n` more units counted", "p99 window
//!   moved more than x%"). A **periodic** policy is the degenerate watch
//!   that crosses every `period_ns` of the clock reading handed to
//!   [`PolicyEngine::step`]: under a wall clock a ticker thread steps the
//!   engine, under a virtual clock the simulator does as time advances —
//!   same policies, same semantics, no OS dependency. Each `step` starts
//!   with a cheap watch scan (a due date, a gauge read or a counter read
//!   apiece, no snapshot); only when a watch fires does the engine pay
//!   for a capture and run a round, so a driver can step at a high rate
//!   and rounds still only happen on activity. Nothing is pushed to the
//!   engine from a counter's writers: a crossing is found by the `step`
//!   that checks it.
//!
//! Both kinds share one round ([`PolicyEngine`]'s private `run_round`):
//! it captures **one** snapshot from the attached
//! [`Introspection`] facade and shares it across every policy that fires
//! (in registration order), so all decisions in a round see the same
//! coherent state. Decisions are applied through the [`KnobRegistry`]
//! after the round's evaluations, so every actuation is
//! bounds-checked and journaled in the registry's single
//! [`ActuationJournal`] — there is no second, engine-private log.
//!
//! Rounds that actuate at least one knob record their **adaptation
//! latency** — wall-clock time from trigger detection to the last
//! journaled knob write — exposed via
//! `PolicyEngine::adaptation_latency_last_ns` /
//! [`PolicyEngine::adaptation_latency_mean_ns`] and surfaced in snapshots
//! as the stamped `policy.adaptation_latency_ns` gauge (wired by the
//! instance builder).

use crate::clock::Clock;
use crate::event::{Event, TaskId};
use crate::journal::ActuationJournal;
use crate::knob::{KnobId, KnobRegistry};
use crate::listener::Listener;
use crate::snapshot::{Introspection, IntrospectionSnapshot};
use lg_metrics::{CounterHandle, Welford};
use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a policy wants done.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyDecision {
    /// Knob writes to apply, as `(knob, value)`.
    pub sets: Vec<(KnobId, i64)>,
    /// If true, the policy is finished and should be deregistered.
    pub retire: bool,
}

impl PolicyDecision {
    /// A decision that does nothing.
    pub fn noop() -> Self {
        Self::default()
    }

    /// A decision setting a single knob. Resolve the id once, when the
    /// policy is built ([`KnobRegistry::id`] or the id
    /// [`KnobRegistry::register`] returned); a write to an id with no
    /// knob behind it is dropped and not counted as an actuation.
    pub fn set(knob: KnobId, value: i64) -> Self {
        Self {
            sets: vec![(knob, value)],
            retire: false,
        }
    }

    /// Marks the policy finished after this decision.
    pub fn and_retire(mut self) -> Self {
        self.retire = true;
        self
    }
}

/// A reactive adaptation rule.
pub trait Policy: Send {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Called on each matching trigger with the current time and the
    /// round's shared introspection snapshot (empty if no facade is
    /// attached to the engine).
    fn evaluate(
        &mut self,
        now_ns: u64,
        trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision;
}

/// Why a policy is being evaluated.
#[derive(Clone, Copy, Debug)]
pub enum Trigger<'a> {
    /// Periodic timer fired.
    Periodic,
    /// A matching event was dispatched.
    Event(&'a Event),
    /// The policy's [`ThresholdWatch`] crossed.
    Threshold,
}

/// An edge-triggered crossing predicate a policy can subscribe to instead
/// of polling (see [`PolicyEngine::register_threshold`]).
///
/// Checks are cheap — a due-date compare, a gauge closure or one counter
/// read, no snapshot — so the engine scans on [`PolicyEngine::step`] and
/// only captures when a watch fires. Every kind is edge-triggered: a watch
/// fires once per crossing, not continuously while the condition holds.
pub struct ThresholdWatch {
    kind: WatchKind,
}

enum WatchKind {
    /// The periodic trigger: crosses when the clock reading reaches
    /// `next_due_ns`. A watch checked several periods late fires once and
    /// is rescheduled from the reading it was checked at (no catch-up
    /// burst).
    Every { period_ns: u64, next_due_ns: u64 },
    /// Fires when the reading moved by more than `frac` (relative) since
    /// the last firing — "p99 window moved >10%".
    RelChange {
        read: Box<dyn Fn() -> f64 + Send>,
        frac: f64,
        last: Option<f64>,
    },
    /// Fires when the counter's value moved `delta` or more past `last`,
    /// the value read at the previous firing (or when the watch was
    /// built), and re-baselines at the value it read.
    CounterDelta {
        counter: CounterHandle,
        delta: u64,
        last: u64,
    },
}

impl ThresholdWatch {
    /// The periodic trigger, first due one period after `now_ns`. Only the
    /// engine builds these ([`PolicyEngine::register_periodic`]): they
    /// need the clock reading `step` is called with.
    fn every(period_ns: u64, now_ns: u64) -> Self {
        assert!(period_ns > 0, "period must be positive");
        Self {
            kind: WatchKind::Every {
                period_ns,
                next_due_ns: now_ns + period_ns,
            },
        }
    }

    /// Fires when `counter` advanced by at least `delta` since the watch
    /// last fired. Armed **immediately**: the baseline is the counter's
    /// value now, so the first `delta` increments from *now* fire the
    /// watch. Each check reads the counter (one load, or a fold of a
    /// striped counter's cells) and a firing re-baselines at the value it
    /// read — an overshoot is consumed, not carried over, exactly as a
    /// single accumulator re-baselining (`last = cur`) at its firing check
    /// would. The counter's writers pay nothing for the watch.
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn counter_delta_armed(counter: &CounterHandle, delta: u64) -> Self {
        assert!(delta > 0, "counter delta must be positive");
        Self {
            kind: WatchKind::CounterDelta {
                counter: counter.clone(),
                delta,
                last: counter.get(),
            },
        }
    }

    /// Fires when `read()` moved by more than `frac` (relative to the
    /// value at the last firing). The first finite reading only records
    /// the baseline.
    ///
    /// # Panics
    /// Panics if `frac` is not positive.
    pub fn relative_change(read: impl Fn() -> f64 + Send + 'static, frac: f64) -> Self {
        assert!(frac > 0.0, "relative-change fraction must be positive");
        Self {
            kind: WatchKind::RelChange {
                read: Box::new(read),
                frac,
                last: None,
            },
        }
    }

    /// Edge-check outside an engine: returns true exactly once per
    /// crossing, then re-arms per the watch kind's hysteresis rule.
    /// Drivers that own their own control loop (e.g. a phase controller
    /// stepping a simulation) can poll this directly instead of
    /// registering the watch on a [`PolicyEngine`].
    pub fn poll(&mut self) -> bool {
        // No publicly constructible kind reads the clock.
        self.check(0)
    }

    /// Edge-check at clock reading `now_ns`: returns true exactly once
    /// per crossing.
    fn check(&mut self, now_ns: u64) -> bool {
        match &mut self.kind {
            WatchKind::Every {
                period_ns,
                next_due_ns,
            } => {
                let due = now_ns >= *next_due_ns;
                if due {
                    *next_due_ns = now_ns + *period_ns;
                }
                due
            }
            WatchKind::RelChange { read, frac, last } => {
                let v = read();
                if !v.is_finite() {
                    return false;
                }
                match last {
                    None => {
                        *last = Some(v);
                        false
                    }
                    Some(l) => {
                        let moved = (v - *l).abs() > *frac * l.abs().max(f64::MIN_POSITIVE);
                        if moved {
                            *last = Some(v);
                        }
                        moved
                    }
                }
            }
            WatchKind::CounterDelta {
                counter,
                delta,
                last,
            } => {
                let cur = counter.get();
                let crossed = cur.saturating_sub(*last) >= *delta;
                if crossed {
                    *last = cur;
                }
                crossed
            }
        }
    }

    /// What a policy behind this watch is told fired it.
    fn trigger(&self) -> Trigger<'static> {
        match self.kind {
            WatchKind::Every { .. } => Trigger::Periodic,
            _ => Trigger::Threshold,
        }
    }
}

impl std::fmt::Debug for ThresholdWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match &self.kind {
            WatchKind::Every { period_ns, .. } => format!("every({period_ns})"),
            WatchKind::RelChange { frac, .. } => format!("relative_change({frac})"),
            WatchKind::CounterDelta { delta, .. } => format!("counter_delta_armed({delta})"),
        };
        f.debug_tuple("ThresholdWatch").field(&name).finish()
    }
}

/// Handle identifying a registered policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyHandle(u64);

/// Event filter for event-triggered policies.
pub type EventFilter = Box<dyn Fn(&Event) -> bool + Send + Sync>;

struct Registered {
    id: u64,
    policy: Box<dyn Policy>,
    /// The policy's name interned in the journal at registration, so its
    /// actuations journal allocation-free.
    actor: TaskId,
    kind: Kind,
    /// The policy's watch crossed in the scan at the top of `step`;
    /// consumed by the round that scan starts.
    fired: bool,
    consecutive_panics: u32,
    quarantined: bool,
}

/// What fires a policy: an event passing a filter, or a watch crossing.
enum Kind {
    Event(EventFilter),
    Watch(ThresholdWatch),
}

/// The policy engine.
///
/// Owns registered policies; applies their decisions through the knob
/// registry. Use [`PolicyEngine::step`] to advance watch-triggered
/// (periodic included) policies under an explicit clock reading, or
/// [`PolicyEngine::spawn_ticker`] to drive them from a wall-clock thread.
pub struct PolicyEngine {
    policies: Mutex<Vec<Registered>>,
    knobs: Arc<KnobRegistry>,
    /// The knob registry's journal (one journal per control plane).
    journal: Arc<ActuationJournal>,
    /// The read-side facade evaluations snapshot from, once attached.
    introspection: RwLock<Option<Arc<Introspection>>>,
    next_id: AtomicU64,
    evaluations: AtomicU64,
    actuations: AtomicU64,
    panics: AtomicU64,
    quarantine_threshold: AtomicU64,
    /// Adaptation latency (trigger detection → last journaled knob write)
    /// of the most recent actuating round, nanoseconds. `u64::MAX` until
    /// a round actuates.
    last_latency_ns: AtomicU64,
    /// Streaming stats over every actuating round's latency.
    latency_stats: Mutex<Welford>,
    /// Bumped whenever a new latency is recorded — the dirtiness stamp
    /// for the `policy.adaptation_latency_ns` snapshot gauge.
    latency_stamp: Arc<AtomicU64>,
    /// Live event-triggered policies. While zero, `on_batch` — which every
    /// delivered batch flows through — returns after loading this.
    triggered: AtomicU64,
}

impl PolicyEngine {
    /// Consecutive panics before a policy is quarantined, by default.
    pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 3;

    /// Actuation records retained for rollback, by default (the knob
    /// registry's journal capacity).
    pub const DEFAULT_JOURNAL_CAPACITY: usize = crate::journal::DEFAULT_JOURNAL_CAPACITY;

    /// Creates an engine applying decisions to `knobs`. The engine shares
    /// the registry's actuation journal rather than keeping its own.
    pub fn new(knobs: Arc<KnobRegistry>) -> Arc<Self> {
        let journal = knobs.journal().clone();
        Arc::new(Self {
            policies: Mutex::new(Vec::new()),
            knobs,
            journal,
            introspection: RwLock::new(None),
            next_id: AtomicU64::new(1),
            evaluations: AtomicU64::new(0),
            actuations: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantine_threshold: AtomicU64::new(Self::DEFAULT_QUARANTINE_THRESHOLD as u64),
            last_latency_ns: AtomicU64::new(u64::MAX),
            latency_stats: Mutex::new(Welford::default()),
            latency_stamp: Arc::new(AtomicU64::new(0)),
            triggered: AtomicU64::new(0),
        })
    }

    /// Attaches the introspection facade whose snapshots evaluations
    /// receive. Until attached, policies see `IntrospectionSnapshot::empty`.
    pub fn attach_introspection(&self, introspection: Arc<Introspection>) {
        *self.introspection.write() = Some(introspection);
    }

    /// Captures the round's shared snapshot (or an empty one when no
    /// facade is attached). Called *outside* the policies lock so metric
    /// sources can never deadlock against registration.
    fn capture_or_empty(&self, now_ns: u64) -> IntrospectionSnapshot {
        match self.introspection.read().as_ref() {
            Some(i) => i.capture(now_ns),
            None => IntrospectionSnapshot::empty(now_ns),
        }
    }

    /// Recounts the live event-triggered policies. Called whenever the
    /// policy set (or a policy's quarantine state) changes; `ps` is the
    /// already-locked vector so the count is coherent with the change
    /// that prompted it.
    fn recount_triggers(&self, ps: &[Registered]) {
        let triggered = ps
            .iter()
            .filter(|r| !r.quarantined && matches!(r.kind, Kind::Event(_)))
            .count();
        self.triggered.store(triggered as u64, Ordering::Release);
    }

    /// The one registration path: interns the actor and publishes the new
    /// event-policy count.
    fn register(&self, policy: Box<dyn Policy>, kind: Kind) -> PolicyHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let actor = self.knobs.actor(policy.name());
        let mut ps = self.policies.lock();
        ps.push(Registered {
            id,
            policy,
            actor,
            kind,
            fired: false,
            consecutive_panics: 0,
            quarantined: false,
        });
        self.recount_triggers(&ps);
        PolicyHandle(id)
    }

    /// Registers a periodic policy first due at `now_ns + period_ns`; it
    /// evaluates with [`Trigger::Periodic`].
    ///
    /// # Panics
    /// Panics if `period_ns` is zero.
    pub fn register_periodic(
        &self,
        policy: Box<dyn Policy>,
        period_ns: u64,
        now_ns: u64,
    ) -> PolicyHandle {
        self.register(
            policy,
            Kind::Watch(ThresholdWatch::every(period_ns, now_ns)),
        )
    }

    /// Registers an event-triggered policy with a filter.
    pub fn register_triggered(&self, policy: Box<dyn Policy>, filter: EventFilter) -> PolicyHandle {
        self.register(policy, Kind::Event(filter))
    }

    /// Registers a threshold-triggered policy: it evaluates (with
    /// [`Trigger::Threshold`]) only in rounds where `watch` fired. The
    /// watch is checked by the cheap scan at the top of every
    /// [`PolicyEngine::step`], so drivers can step at a high rate without
    /// paying for captures or evaluations while the watched signal is
    /// quiet.
    pub fn register_threshold(
        &self,
        policy: Box<dyn Policy>,
        watch: ThresholdWatch,
    ) -> PolicyHandle {
        self.register(policy, Kind::Watch(watch))
    }

    /// Deregisters a policy; returns true if it was present.
    pub fn deregister(&self, handle: PolicyHandle) -> bool {
        let mut ps = self.policies.lock();
        let before = ps.len();
        ps.retain(|r| r.id != handle.0);
        let removed = ps.len() != before;
        if removed {
            self.recount_triggers(&ps);
        }
        removed
    }

    /// Number of registered policies.
    pub fn policy_count(&self) -> usize {
        self.policies.lock().len()
    }

    /// Total policy evaluations.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Total knob writes applied on behalf of policies.
    pub fn actuations(&self) -> u64 {
        self.actuations.load(Ordering::Relaxed)
    }

    /// Total policy evaluations that panicked (and were contained).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Adaptation latency of the most recent round that actuated a knob:
    /// wall-clock nanoseconds from trigger detection to the last journaled
    /// write. `None` until a round actuates.
    pub(crate) fn adaptation_latency_last_ns(&self) -> Option<u64> {
        match self.last_latency_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(ns),
        }
    }

    /// Mean adaptation latency over every actuating round so far.
    pub fn adaptation_latency_mean_ns(&self) -> Option<f64> {
        let stats = self.latency_stats.lock();
        (!stats.is_empty()).then(|| stats.mean())
    }

    /// The stamp bumped whenever a new adaptation latency is recorded —
    /// register it with
    /// [`crate::snapshot::Introspection::register_gauge_stamped`] so the
    /// latency gauge only re-evaluates after actuating rounds.
    pub(crate) fn latency_stamp(&self) -> Arc<AtomicU64> {
        self.latency_stamp.clone()
    }

    /// Records an actuating round's latency from its trigger-detection
    /// instant.
    fn record_latency(&self, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.last_latency_ns.store(ns, Ordering::Relaxed);
        self.latency_stats.lock().update(ns as f64);
        self.latency_stamp.fetch_add(1, Ordering::Release);
    }

    /// Sets how many consecutive panics quarantine a policy.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn set_quarantine_threshold(&self, n: u32) {
        assert!(n > 0, "quarantine threshold must be positive");
        self.quarantine_threshold.store(n as u64, Ordering::Relaxed);
    }

    /// Names of quarantined policies (still registered, never evaluated
    /// again this session).
    pub fn quarantined(&self) -> Vec<String> {
        self.policies
            .lock()
            .iter()
            .filter(|r| r.quarantined)
            .map(|r| r.policy.name().to_owned())
            .collect()
    }

    /// Number of quarantined policies.
    pub fn quarantined_count(&self) -> usize {
        self.policies
            .lock()
            .iter()
            .filter(|r| r.quarantined)
            .count()
    }

    /// The actuation journal — the knob registry's single audit trail.
    pub fn journal(&self) -> &Arc<ActuationJournal> {
        &self.journal
    }

    fn apply(&self, now_ns: u64, actor: TaskId, decision: &PolicyDecision) {
        for &(id, value) in &decision.sets {
            if self.knobs.set_id_as(id, value, actor, now_ns).is_some() {
                self.actuations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Evaluates one registered policy with panic containment. Returns
    /// `None` if the policy panicked (and possibly got quarantined).
    fn evaluate_guarded(
        r: &mut Registered,
        now_ns: u64,
        trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
        panics: &AtomicU64,
        threshold: u32,
    ) -> Option<PolicyDecision> {
        match catch_unwind(AssertUnwindSafe(|| {
            r.policy.evaluate(now_ns, trigger, snapshot)
        })) {
            Ok(d) => {
                r.consecutive_panics = 0;
                Some(d)
            }
            Err(_) => {
                panics.fetch_add(1, Ordering::Relaxed);
                r.consecutive_panics += 1;
                if r.consecutive_panics >= threshold {
                    r.quarantined = true;
                }
                None
            }
        }
    }

    /// The round `step` and `on_batch` share: one snapshot, then every
    /// live policy `select` yields a trigger for evaluates against it in
    /// registration order; decisions apply after the lock is released.
    /// `started` is when the trigger was detected, for the latency record.
    /// Returns the number of evaluations (panicked ones included).
    fn run_round<'e>(
        &self,
        now_ns: u64,
        started: Instant,
        mut select: impl FnMut(&mut Registered) -> Option<Trigger<'e>>,
    ) -> usize {
        let snapshot = self.capture_or_empty(now_ns);
        let threshold = self.quarantine_threshold.load(Ordering::Relaxed) as u32;
        let mut decisions: Vec<(TaskId, PolicyDecision)> = Vec::new();
        let mut evaluated = 0usize;
        {
            let mut ps = self.policies.lock();
            let mut left_live_set = false;
            ps.retain_mut(|r| {
                if r.quarantined {
                    return true;
                }
                let Some(trigger) = select(r) else {
                    return true;
                };
                evaluated += 1;
                let decision =
                    Self::evaluate_guarded(r, now_ns, trigger, &snapshot, &self.panics, threshold);
                let retire = decision.as_ref().is_some_and(|d| d.retire);
                left_live_set |= retire || r.quarantined;
                decisions.extend(decision.map(|d| (r.actor, d)));
                !retire
            });
            if left_live_set {
                self.recount_triggers(&ps);
            }
        }
        self.evaluations
            .fetch_add(evaluated as u64, Ordering::Relaxed);
        // Apply outside the policy lock: knob sets may be observed by
        // listeners that re-enter the engine.
        let acts_before = self.actuations.load(Ordering::Relaxed);
        for (actor, d) in &decisions {
            self.apply(now_ns, *actor, d);
        }
        if self.actuations.load(Ordering::Relaxed) > acts_before {
            self.record_latency(started);
        }
        evaluated
    }

    /// Runs one control round at `now_ns`: every watch-triggered policy
    /// whose watch fired — periodic policies that are due included.
    ///
    /// Starts with a cheap scan of the watches under the policies lock
    /// (due dates, gauge reads, counter reads) and returns without reading
    /// the clock or capturing a snapshot when nothing fired, so drivers may
    /// call `step` at a high rate and idle steps stay near-free. A periodic
    /// policy that fell multiple periods behind fires once and is
    /// rescheduled from `now_ns` (no catch-up bursts). A policy whose
    /// evaluation panics is contained (the panic does not escape), and
    /// after [`PolicyEngine::set_quarantine_threshold`] consecutive panics
    /// it is quarantined: registered but never evaluated again. Rounds that
    /// actuate a knob record their adaptation latency (see
    /// `PolicyEngine::adaptation_latency_last_ns`), timed from the scan
    /// that detected the crossing. Returns the number of evaluations
    /// (panicked evaluations included).
    pub fn step(&self, now_ns: u64) -> usize {
        // Cheap scan: edge-check every live watch. A crossing is consumed
        // by the check, so it is parked in `fired` until the round below
        // (which captures first, outside this lock) evaluates it.
        let mut any_fired = false;
        for r in self.policies.lock().iter_mut().filter(|r| !r.quarantined) {
            if let Kind::Watch(watch) = &mut r.kind {
                r.fired |= watch.check(now_ns);
                any_fired |= r.fired;
            }
        }
        if !any_fired {
            return 0;
        }
        // The scan just detected the crossing: the latency clock starts.
        self.run_round(now_ns, Instant::now(), |r| match &r.kind {
            Kind::Watch(watch) if std::mem::take(&mut r.fired) => Some(watch.trigger()),
            _ => None,
        })
    }

    /// Spawns a wall-clock ticker driving [`PolicyEngine::step`] every
    /// `period`. Returns a guard that stops the ticker when dropped.
    pub fn spawn_ticker(
        self: &Arc<Self>,
        clock: Arc<dyn Clock>,
        period: std::time::Duration,
    ) -> TickerGuard {
        assert!(!period.is_zero(), "ticker period must be positive");
        let stop = Arc::new(AtomicBool::new(false));
        let engine = self.clone();
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("lg-policy-ticker".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    std::thread::sleep(period);
                    engine.step(clock.now_ns());
                }
            })
            .expect("failed to spawn policy ticker");
        TickerGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Listener for PolicyEngine {
    fn name(&self) -> &str {
        "policy-engine"
    }

    fn on_event(&self, event: &Event) {
        self.on_batch(std::slice::from_ref(event));
    }

    fn idle(&self, _: &crate::stripe::Stripe) -> bool {
        self.triggered.load(Ordering::Acquire) == 0
    }

    fn on_batch(&self, events: &[Event]) {
        // With no live event-triggered policy (`idle`, which the dispatcher
        // asks first) it stops at this load. Acquire pairs with the
        // Release store in `recount_triggers`, made under the policies
        // lock: a registration that returned is seen by the next batch.
        if self.triggered.load(Ordering::Acquire) == 0 {
            return;
        }
        // A round per matching event, in emission order. One policies lock
        // finds the next match, the only event that costs a clock read and
        // a capture; a round may change the policy set, so the next scan
        // locks again.
        let mut rest = events;
        while let Some(i) = {
            let ps = self.policies.lock();
            rest.iter().position(|event| {
                ps.iter().any(|r| {
                    !r.quarantined && matches!(&r.kind, Kind::Event(filter) if filter(event))
                })
            })
        } {
            let event = &rest[i];
            self.run_round(event.t_ns(), Instant::now(), |r| match &r.kind {
                Kind::Event(filter) if filter(event) => Some(Trigger::Event(event)),
                _ => None,
            });
            rest = &rest[i + 1..];
        }
    }
}

impl std::fmt::Debug for PolicyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEngine")
            .field("policies", &self.policy_count())
            .field("evaluations", &self.evaluations())
            .field("actuations", &self.actuations())
            .finish()
    }
}

/// Stops the ticker thread on drop.
pub struct TickerGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for TickerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A policy built from a closure — the common case for simple rules.
pub struct FnPolicy<F>
where
    F: FnMut(u64, Trigger<'_>, &IntrospectionSnapshot) -> PolicyDecision + Send,
{
    name: String,
    f: F,
}

impl<F> FnPolicy<F>
where
    F: FnMut(u64, Trigger<'_>, &IntrospectionSnapshot) -> PolicyDecision + Send,
{
    /// Wraps `f` as a policy called `name`.
    pub fn new(name: impl Into<String>, f: F) -> Box<Self> {
        Box::new(Self {
            name: name.into(),
            f,
        })
    }
}

impl<F> Policy for FnPolicy<F>
where
    F: FnMut(u64, Trigger<'_>, &IntrospectionSnapshot) -> PolicyDecision + Send,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn evaluate(
        &mut self,
        now_ns: u64,
        trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        (self.f)(now_ns, trigger, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::{AtomicKnob, KnobSpec};

    fn registry_with(name: &str, min: i64, max: i64, init: i64) -> (Arc<KnobRegistry>, KnobId) {
        let reg = Arc::new(KnobRegistry::new());
        let id = reg.register(AtomicKnob::new(KnobSpec::new(name, min, max), init));
        (reg, id)
    }

    #[test]
    fn periodic_policy_fires_on_schedule() {
        let (knobs, _) = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs.clone());
        let fired = Arc::new(AtomicU64::new(0));
        let fc = fired.clone();
        engine.register_periodic(
            FnPolicy::new("p", move |_, _, _| {
                fc.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            100,
            0,
        );
        assert_eq!(engine.step(50), 0, "not yet due");
        assert_eq!(engine.step(100), 1);
        assert_eq!(engine.step(150), 0, "rescheduled to 200");
        assert_eq!(engine.step(500), 1, "no catch-up burst");
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn decisions_actuate_knobs() {
        let (knobs, cap) = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("throttle", move |_, _, _| PolicyDecision::set(cap, 8)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(knobs.value_id(cap), Some(8));
        assert_eq!(engine.actuations(), 1);
    }

    #[test]
    fn decisions_can_target_knob_ids() {
        let knobs = Arc::new(KnobRegistry::new());
        let id = knobs.register(AtomicKnob::new(KnobSpec::new("cap", 1, 32), 32));
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("typed", move |_, _, _| PolicyDecision::set(id, 4)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(knobs.value_id(id), Some(4));
        assert_eq!(engine.actuations(), 1);
        let recs = engine.journal().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].policy, "typed");
    }

    #[test]
    fn out_of_bounds_sets_are_clamped() {
        let (knobs, cap) = registry_with("cap", 1, 16, 16);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("wild", move |_, _, _| PolicyDecision::set(cap, 10_000)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(knobs.value_id(cap), Some(16));
    }

    #[test]
    fn unknown_knob_does_not_count_as_actuation() {
        // A decision for an id whose knob was deregistered is dropped.
        let (knobs, cap) = registry_with("cap", 1, 16, 16);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("stale", move |_, _, _| PolicyDecision::set(cap, 2)),
            10,
            0,
        );
        assert!(knobs.deregister(cap));
        engine.step(10);
        assert_eq!(engine.evaluations(), 1);
        assert_eq!(engine.actuations(), 0);
        assert!(engine.journal().is_empty(), "nothing journaled");
    }

    #[test]
    fn triggered_policy_filters_events() {
        let (knobs, window) = registry_with("window", 1, 512, 1);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_triggered(
            FnPolicy::new("on-phase", move |_, trigger, _| {
                if let Trigger::Event(Event::PhaseBegin { .. }) = trigger {
                    PolicyDecision::set(window, 64)
                } else {
                    PolicyDecision::noop()
                }
            }),
            Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
        );
        let names = crate::event::TaskNames::new();
        let phase = names.intern("ph");
        engine.on_event(&Event::PeriodicTick { t_ns: 0 });
        assert_eq!(knobs.value_id(window), Some(1), "filter must gate");
        engine.on_event(&Event::PhaseBegin { phase, t_ns: 1 });
        assert_eq!(knobs.value_id(window), Some(64));
        assert_eq!(engine.evaluations(), 1);
    }

    #[test]
    fn retire_removes_triggered_policy() {
        let (knobs, k) = registry_with("k", 0, 10, 0);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_triggered(
            FnPolicy::new("once", move |_, _, _| {
                PolicyDecision::set(k, 5).and_retire()
            }),
            Box::new(|_| true),
        );
        engine.on_event(&Event::PeriodicTick { t_ns: 0 });
        assert_eq!(engine.policy_count(), 0);
        knobs.set_id(k, 0);
        engine.on_event(&Event::PeriodicTick { t_ns: 1 });
        assert_eq!(
            knobs.value_id(k),
            Some(0),
            "retired policy must not fire again"
        );
    }

    #[test]
    fn a_batch_runs_one_round_per_matching_event_in_order_until_retired() {
        let (knobs, _) = registry_with("k", 0, 10, 0);
        let engine = PolicyEngine::new(knobs);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        engine.register_triggered(
            FnPolicy::new("twice", move |now, trigger, _| {
                let Trigger::Event(e) = trigger else {
                    unreachable!("an event policy")
                };
                let mut log = log.lock();
                log.push((now, e.t_ns()));
                PolicyDecision {
                    retire: log.len() == 2,
                    ..PolicyDecision::noop()
                }
            }),
            Box::new(|e| e.t_ns() % 2 == 1),
        );
        let batch: Vec<Event> = (0..8).map(|t| Event::PeriodicTick { t_ns: t }).collect();
        engine.on_batch(&batch);
        assert_eq!(*seen.lock(), [(1, 1), (3, 3)]);
        assert_eq!(engine.evaluations(), 2);
        assert_eq!(engine.policy_count(), 0);
    }

    #[test]
    fn late_triggered_policy_sees_the_very_next_event() {
        let (knobs, k) = registry_with("k", 0, 1_000, 0);
        let engine = PolicyEngine::new(knobs.clone());
        // A long run of events through the no-policy fast path first.
        for t in 0..1_000 {
            engine.on_event(&Event::PeriodicTick { t_ns: t });
        }
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);
        engine.register_triggered(
            FnPolicy::new("late", move |now, _, _| PolicyDecision::set(k, now as i64)),
            Box::new(|_| true),
        );
        engine.on_event(&Event::PeriodicTick { t_ns: 777 });
        assert_eq!(knobs.value_id(k), Some(777));
        assert_eq!(engine.evaluations(), 1);
    }

    #[test]
    fn last_triggered_policy_leaving_restores_the_event_fast_path() {
        let (knobs, _) = registry_with("k", 0, 1_000, 0);
        let engine = PolicyEngine::new(knobs);
        let filtered = Arc::new(AtomicU64::new(0));
        let counting_filter = |n: &Arc<AtomicU64>| -> EventFilter {
            let n = n.clone();
            Box::new(move |_| {
                n.fetch_add(1, Ordering::Relaxed);
                true
            })
        };
        let tick = Event::PeriodicTick { t_ns: 1 };

        // Deregistered: the count drops with it.
        let h = engine.register_triggered(
            FnPolicy::new("a", |_, _, _| PolicyDecision::noop()),
            counting_filter(&filtered),
        );
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 1);
        assert!(engine.deregister(h));
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);

        // Retired by its own decision.
        engine.register_triggered(
            FnPolicy::new("once", |_, _, _| PolicyDecision::noop().and_retire()),
            counting_filter(&filtered),
        );
        engine.on_event(&tick);
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);

        // Quarantined after panicking: still registered, no longer live.
        engine.set_quarantine_threshold(1);
        engine.register_triggered(
            FnPolicy::new("boom", |_, _, _| panic!("contained")),
            counting_filter(&filtered),
        );
        engine.on_event(&tick);
        assert_eq!(engine.quarantined_count(), 1);
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);

        // On the fast path no filter runs at all.
        let before = filtered.load(Ordering::Relaxed);
        engine.on_event(&tick);
        assert_eq!(filtered.load(Ordering::Relaxed), before);
    }

    #[test]
    fn deregister_by_handle() {
        let (knobs, _) = registry_with("k", 0, 10, 0);
        let engine = PolicyEngine::new(knobs);
        let h =
            engine.register_periodic(FnPolicy::new("p", |_, _, _| PolicyDecision::noop()), 10, 0);
        assert_eq!(engine.policy_count(), 1);
        assert!(engine.deregister(h));
        assert_eq!(engine.policy_count(), 0);
        assert!(!engine.deregister(h));
    }

    #[test]
    fn multiple_periodic_policies_independent_schedules() {
        let (knobs, _) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs);
        let fast = Arc::new(AtomicU64::new(0));
        let slow = Arc::new(AtomicU64::new(0));
        let (f, s) = (fast.clone(), slow.clone());
        engine.register_periodic(
            FnPolicy::new("fast", move |_, _, _| {
                f.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            10,
            0,
        );
        engine.register_periodic(
            FnPolicy::new("slow", move |_, _, _| {
                s.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            100,
            0,
        );
        for t in (10..=100).step_by(10) {
            engine.step(t);
        }
        assert_eq!(fast.load(Ordering::Relaxed), 10);
        assert_eq!(slow.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn evaluations_receive_the_attached_snapshot() {
        use crate::concurrency::ConcurrencyListener;
        use crate::event::TaskNames;
        use crate::profile::ProfileListener;

        let (knobs, _) = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs.clone());
        let names = TaskNames::new();
        let intro = Arc::new(Introspection::new(
            Arc::new(ProfileListener::new(names)),
            Arc::new(ConcurrencyListener::new(16)),
        ));
        let gauge = intro.register_gauge("load", || 0.75);
        engine.attach_introspection(intro);
        let seen = Arc::new(Mutex::new(None));
        let sc = seen.clone();
        engine.register_periodic(
            FnPolicy::new("reader", move |_, _, snap: &IntrospectionSnapshot| {
                *sc.lock() = Some((snap.t_ns, snap.value(gauge)));
                PolicyDecision::noop()
            }),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(*seen.lock(), Some((10, Some(0.75))));
    }

    #[test]
    fn unattached_engine_hands_policies_an_empty_snapshot() {
        let (knobs, _) = registry_with("k", 0, 10, 0);
        let engine = PolicyEngine::new(knobs);
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        let sc = seen.clone();
        engine.register_periodic(
            FnPolicy::new("reader", move |_, _, snap: &IntrospectionSnapshot| {
                sc.store(snap.seq, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(seen.load(Ordering::Relaxed), 0, "empty snapshot has seq 0");
    }

    #[test]
    fn counter_watch_fires_once_per_crossing_and_rebaselines_at_the_check() {
        let (knobs, k) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        c.add(1_000); // before the watch is built: not counted
        engine.register_threshold(
            FnPolicy::new("batch", move |_, _, _| PolicyDecision::set(k, 7)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        assert_eq!(engine.step(0), 0);
        c.add(9);
        assert_eq!(engine.step(1), 0, "below delta");
        reg.counter("events").add(1); // another handle, same counter
        assert_eq!(engine.step(2), 1, "the next step sees the crossing");
        assert_eq!(knobs.value_id(k), Some(7));
        assert_eq!(engine.step(3), 0, "edge-triggered: consumed");
        c.add(25);
        assert_eq!(engine.step(4), 1, "an overshoot fires once");
        c.add(9);
        assert_eq!(engine.step(5), 0, "re-baselined at the total it read");
        c.add(1);
        assert_eq!(engine.step(6), 1);
    }

    #[test]
    fn counter_watch_fires_once_per_crossing() {
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.counter("x");
        let mut watch = ThresholdWatch::counter_delta_armed(&c, 10);
        c.add(9);
        assert!(!watch.poll());
        c.add(1);
        assert!(watch.poll(), "the crossing fires");
        assert!(!watch.poll(), "consumed, not repeating");
        c.add(100);
        assert!(watch.poll(), "ten deltas at once fire once");
        assert!(!watch.poll());
        assert_eq!(c.get(), 110);
    }

    #[test]
    fn counter_watch_rebaselines_at_the_total_it_read() {
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.counter("x");
        let mut watch = ThresholdWatch::counter_delta_armed(&c, 10);
        c.add(25);
        assert!(watch.poll());
        // Next firing at 35, not at 20: the overshoot is not carried.
        c.add(9);
        assert!(!watch.poll());
        c.add(1);
        assert!(watch.poll());
    }

    #[test]
    fn counter_watch_sees_adds_from_all_handle_clones() {
        let reg = lg_metrics::CounterRegistry::new();
        let a = reg.striped_counter("hot");
        let mut watch = ThresholdWatch::counter_delta_armed(&a, 8);
        let b = reg.counter("hot"); // same counter, separate handle
        b.add(4);
        assert!(!watch.poll());
        a.add(4);
        assert!(watch.poll());
    }

    #[test]
    fn counter_watch_fires_once_for_a_racing_burst() {
        // Eight writers race unit adds while nothing checks the watch;
        // the first check afterwards fires once and re-baselines at the
        // whole burst, however many deltas it spanned.
        let reg = Arc::new(lg_metrics::CounterRegistry::new());
        let c = reg.striped_counter("shared");
        let mut watch = ThresholdWatch::counter_delta_armed(&c, 1_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = &reg;
                s.spawn(move || {
                    let c = reg.counter("shared");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert!(watch.poll());
        assert!(!watch.poll(), "one firing for the burst");
        c.add(999);
        assert!(!watch.poll(), "re-baselined at 80 000");
        c.inc();
        assert!(watch.poll());
    }

    #[test]
    fn counter_watch_polled_against_racing_writers_never_fires_early() {
        // Eight writers race random-sized adds on a striped counter while
        // this thread polls the watch. Whatever the interleaving, the k-th
        // firing happens only once the counter holds k·delta units; once
        // the writers stop, a firing re-baselines at the exact total.
        const DELTA: u64 = 10_000;
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("shared");
        let mut watch = ThresholdWatch::counter_delta_armed(&c, DELTA);
        let mut fires = 0u64;
        let grand_total: u64 = std::thread::scope(|s| {
            let writers: Vec<_> = (0..8u64)
                .map(|w| {
                    let c = &c;
                    s.spawn(move || {
                        let (mut x, mut sent) = (w + 1, 0);
                        for _ in 0..5_000 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let n = 1 + (x >> 33) % 40;
                            c.add(n);
                            sent += n;
                        }
                        sent
                    })
                })
                .collect();
            while !writers.iter().all(|w| w.is_finished()) {
                if watch.poll() {
                    fires += 1;
                    let held = c.get();
                    assert!(held >= fires * DELTA, "firing {fires} at {held} units");
                }
            }
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(c.get(), grand_total);
        fires += u64::from(watch.poll());
        assert!(!watch.poll(), "one firing per crossing");
        assert!(fires * DELTA <= grand_total, "{fires} firings");
        c.add(DELTA);
        assert!(watch.poll(), "a full delta past the last firing");
        c.add(DELTA - 1);
        assert!(!watch.poll(), "re-baselined at the exact total");
    }

    /// The reference a counter watch is held to: one plain accumulator,
    /// checked against the counter's true total, that re-baselines
    /// (`last = cur`) whenever it fires.
    struct Accumulator {
        delta: u64,
        last: u64,
    }

    impl Accumulator {
        fn check(&mut self, cur: u64) -> bool {
            let crossed = cur.saturating_sub(self.last) >= self.delta;
            if crossed {
                self.last = cur;
            }
            crossed
        }
    }

    #[test]
    fn armed_counter_watch_fires_exactly_when_a_plain_accumulator_does() {
        // Drive an add/step schedule through an engine and check every
        // step against the accumulator oracle: rounds fired, the resulting
        // knob value, and the evaluation/actuation totals. Each add runs
        // on its own short-lived thread, joined before the next, so
        // consecutive adds land on different stripes and the watch reads
        // a total spread over several of them.
        fn run(delta: u64, schedule: &[&[u64]]) {
            let (knobs, k) = registry_with("k", 0, 1000, 0);
            let engine = PolicyEngine::new(knobs.clone());
            let reg = lg_metrics::CounterRegistry::new();
            let c = reg.striped_counter("arm");
            engine.register_threshold(
                FnPolicy::new("w", move |now, _, _| PolicyDecision::set(k, now as i64)),
                ThresholdWatch::counter_delta_armed(&c, delta),
            );
            let mut oracle = Accumulator { delta, last: 0 };
            assert_eq!(engine.step(0), 0);
            let (mut fires, mut knob_value) = (0u64, 0i64);
            for (i, adds) in schedule.iter().enumerate() {
                let now = (i + 1) as u64;
                for &n in adds.iter() {
                    std::thread::scope(|s| {
                        s.spawn(|| c.add(n));
                    });
                }
                let expected = oracle.check(c.get());
                if expected {
                    fires += 1;
                    knob_value = now as i64;
                }
                assert_eq!(
                    engine.step(now),
                    usize::from(expected),
                    "step {now}: rounds diverged from the accumulator"
                );
                assert_eq!(knobs.value_id(k), Some(knob_value), "step {now}");
            }
            assert_eq!(engine.evaluations(), fires);
            assert_eq!(engine.actuations(), fires);
            assert!(fires >= 3, "schedule crossed at least 3 times");
        }
        run(
            10,
            &[
                &[],     // idle step
                &[3, 4], // accumulate 7 < 10
                &[2, 1], // cross to 10
                &[],     // quiet after consumption
                &[25],   // overshoot: one latch, not two
                &[],     // quiet
                &[9],    // 9 above the re-baselined level
                &[1],    // cross again
            ],
        );
        // A wide delta: the crossing add is whichever one completes the
        // level, with the total spread over many stripes.
        run(
            2_000,
            &[
                &[14, 14, 14, 14, 14, 14], // 84, hidden in six stripes
                &[900, 14, 14],            // 1012
                &[14; 70],                 // 1992: eight short
                &[7],                      // 1999
                &[1],                      // cross exactly
                &[],                       // quiet after consumption
                &[1_999],                  // one short of the next level
                &[1],                      // cross again
                &[14; 40],                 // 560 towards the third
                &[1_440],                  // cross exactly again
                &[],
            ],
        );
    }

    #[test]
    fn deregistered_counter_watch_never_fires() {
        let (knobs, k) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        let h = engine.register_threshold(
            FnPolicy::new("batch", move |_, _, _| PolicyDecision::set(k, 7)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        assert!(engine.deregister(h));
        c.add(100);
        assert_eq!(engine.step(1), 0, "a deregistered watch is not checked");
        assert_eq!(knobs.value_id(k), Some(0));
    }

    #[test]
    fn deregistering_a_counter_watch_leaves_its_siblings_checked() {
        let (knobs, k) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        let gone = engine.register_threshold(
            FnPolicy::new("gone", move |_, _, _| PolicyDecision::set(k, 7)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        engine.register_threshold(
            FnPolicy::new("kept", move |_, _, _| PolicyDecision::set(k, 3)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        c.add(2);
        assert!(engine.deregister(gone));
        c.add(100);
        assert_eq!(engine.step(1), 1, "the sibling on the same counter fires");
        assert_eq!(engine.evaluations(), 1, "only the sibling was evaluated");
        assert_eq!(knobs.value_id(k), Some(3));
    }

    #[test]
    fn relative_change_watch_tracks_moves() {
        let (knobs, _) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs);
        let p99 = Arc::new(Mutex::new(100.0f64));
        let reader = p99.clone();
        let fires = Arc::new(AtomicU64::new(0));
        let f = fires.clone();
        engine.register_threshold(
            FnPolicy::new("p99-moved", move |_, _, _| {
                f.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            ThresholdWatch::relative_change(move || *reader.lock(), 0.10),
        );
        engine.step(0); // baseline at 100
        *p99.lock() = 105.0;
        engine.step(1);
        assert_eq!(fires.load(Ordering::Relaxed), 0, "5% move stays quiet");
        *p99.lock() = 120.0;
        engine.step(2);
        assert_eq!(fires.load(Ordering::Relaxed), 1, "20% move fires");
        *p99.lock() = 119.0;
        engine.step(3);
        assert_eq!(fires.load(Ordering::Relaxed), 1, "small move off new base");
        *p99.lock() = 60.0;
        engine.step(4);
        assert_eq!(fires.load(Ordering::Relaxed), 2, "big drop fires too");
    }

    #[test]
    fn adaptation_latency_recorded_only_on_actuating_rounds() {
        let (knobs, cap) = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs);
        assert_eq!(engine.adaptation_latency_last_ns(), None);
        assert_eq!(engine.adaptation_latency_mean_ns(), None);
        engine.register_periodic(
            FnPolicy::new("idle", |_, _, _| PolicyDecision::noop()),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(
            engine.adaptation_latency_last_ns(),
            None,
            "no-actuation rounds record nothing"
        );
        let stamp = engine.latency_stamp();
        assert_eq!(stamp.load(Ordering::Relaxed), 0);
        engine.register_periodic(
            FnPolicy::new("act", move |_, _, _| PolicyDecision::set(cap, 8)),
            10,
            10,
        );
        engine.step(20);
        assert!(engine.adaptation_latency_last_ns().is_some());
        assert!(engine.adaptation_latency_mean_ns().is_some());
        assert_eq!(
            engine.latency_stats.lock().count(),
            1,
            "one actuating round"
        );
        assert_eq!(
            stamp.load(Ordering::Relaxed),
            1,
            "stamp moves with the record"
        );
    }

    #[test]
    fn one_round_serves_periodic_armed_and_event_policies() {
        use crate::concurrency::ConcurrencyListener;
        use crate::event::TaskNames;
        use crate::profile::ProfileListener;

        let (knobs, _) = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs);
        engine.set_quarantine_threshold(1);
        engine.attach_introspection(Arc::new(Introspection::new(
            Arc::new(ProfileListener::new(TaskNames::new())),
            Arc::new(ConcurrencyListener::new(16)),
        )));
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        // (policy, trigger kind it was handed, capture it was handed).
        let log = Arc::new(Mutex::new(Vec::<(&str, &str, u64)>::new()));
        let logging = |name: &'static str, retire_on: u64, panic_on: u64| {
            let (log, mut calls) = (log.clone(), 0u64);
            FnPolicy::new(name, move |_, trigger, snap: &IntrospectionSnapshot| {
                let kind = match trigger {
                    Trigger::Periodic => "periodic",
                    Trigger::Event(_) => "event",
                    Trigger::Threshold => "threshold",
                };
                log.lock().push((name, kind, snap.seq));
                calls += 1;
                assert!(calls != panic_on, "contained");
                let d = PolicyDecision::noop();
                if calls == retire_on {
                    d.and_retire()
                } else {
                    d
                }
            })
        };
        let drain = || std::mem::take(&mut *log.lock());
        // Registration order interleaves the kinds on purpose.
        engine.register_threshold(
            logging("armed", 2, 0),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        engine.register_triggered(logging("ev-a", 1, 0), Box::new(|_| true));
        let periodic = engine.register_periodic(logging("tick", 0, 0), 100, 0);
        engine.register_triggered(logging("ev-b", 0, 1), Box::new(|_| true));
        engine.register_threshold(
            logging("armed-boom", 0, 1),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );

        // One step, three watches crossed: registration order, one capture,
        // the trigger variant of each kind; the event policies stay out.
        c.add(10);
        assert_eq!(engine.step(100), 3);
        assert_eq!(
            drain(),
            [
                ("armed", "threshold", 1),
                ("tick", "periodic", 1),
                ("armed-boom", "threshold", 1)
            ]
        );
        assert_eq!(engine.quarantined(), ["armed-boom"]);
        // One event, both event policies: same round shape, next capture.
        engine.on_event(&Event::PeriodicTick { t_ns: 101 });
        assert_eq!(drain(), [("ev-a", "event", 2), ("ev-b", "event", 2)]);
        assert_eq!(engine.policy_count(), 4, "ev-a retired itself");
        assert_eq!(engine.quarantined_count(), 2, "ev-b quarantined");
        assert_eq!(engine.panics(), 2);
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);
        engine.on_event(&Event::PeriodicTick { t_ns: 102 });
        assert_eq!(drain(), [], "event fast path: nobody left to ask");

        // Five periods late: one firing, rescheduled from the late reading.
        assert_eq!(engine.step(650), 1);
        assert_eq!(engine.step(700), 0, "next due at 750, not 200..=700");
        assert_eq!(engine.step(750), 1);
        assert_eq!(drain().len(), 2);

        // The quarantined policy's watch is never checked again: only
        // `armed` fires on the next crossing, and retires on it.
        c.add(10);
        assert_eq!(engine.step(760), 1);
        assert_eq!(drain(), [("armed", "threshold", 5)]);
        assert_eq!(engine.policy_count(), 3);
        // With the periodic gone too, only the two quarantined policies
        // remain and nothing fires, however far the counter moves.
        assert!(engine.deregister(periodic));
        c.add(1_000);
        assert_eq!(engine.step(10_000), 0);
        assert_eq!(drain(), []);
    }

    #[test]
    fn wall_clock_ticker_drives_steps() {
        use crate::clock::WallClock;
        let (knobs, _) = registry_with("k", 0, 1000, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        engine.register_periodic(
            FnPolicy::new("tick", move |_, _, _| {
                c.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            1, // due almost immediately in ns terms
            0,
        );
        let guard = engine.spawn_ticker(
            Arc::new(WallClock::new()),
            std::time::Duration::from_millis(1),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while count.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(guard);
        assert!(
            count.load(Ordering::Relaxed) >= 3,
            "ticker did not drive policies"
        );
    }
}
