//! The policy engine: periodic and event-triggered policies.
//!
//! A [`Policy`] inspects the [`IntrospectionSnapshot`] the engine hands it
//! and returns a [`PolicyDecision`] — typically a set of knob writes. The
//! engine supports two trigger styles, mirroring the
//! synchronous/asynchronous split in the observation layer:
//!
//! * **Periodic** policies run every `period_ns`. Under a wall clock the
//!   engine owns a ticker thread; under a virtual clock the simulator
//!   calls [`PolicyEngine::step`] as time advances — same policies, same
//!   semantics, no OS dependency.
//! * **Event-triggered** policies run inline when a matching event is
//!   dispatched (the engine is itself a [`Listener`]). While none is
//!   registered, an event costs the engine one atomic load.
//! * **Threshold-triggered** policies subscribe to a [`ThresholdWatch`] —
//!   an edge-triggered predicate over striped counters or gauges ("queue
//!   depth crossed N", "p99 window moved more than x%"). Each
//!   [`PolicyEngine::step`] starts with a cheap watch scan (a handful of
//!   atomic folds, no snapshot); only when a watch fires (or a periodic
//!   policy is due) does the engine pay for a capture and run a round.
//!   This is the event-driven alternative to polling: the driver can call
//!   `step` at a high rate and rounds still only happen on activity.
//!
//! Each evaluation round captures **one** snapshot from the attached
//! [`Introspection`] facade and shares it across every policy that fires,
//! so all decisions in a round see the same coherent state. Decisions are
//! applied through the [`KnobRegistry`], so every actuation is
//! bounds-checked and journaled in the registry's single
//! [`ActuationJournal`] — there is no second, engine-private log.
//!
//! Rounds that actuate at least one knob record their **adaptation
//! latency** — wall-clock time from trigger detection to the last
//! journaled knob write — exposed via
//! [`PolicyEngine::adaptation_latency_last_ns`] /
//! [`PolicyEngine::adaptation_latency_mean_ns`] and surfaced in snapshots
//! as the stamped `policy.adaptation_latency_ns` gauge (wired by the
//! instance builder).

use crate::clock::Clock;
use crate::event::{Event, TaskId};
use crate::journal::ActuationJournal;
use crate::knob::{KnobRegistry, KnobTarget};
use crate::listener::Listener;
use crate::snapshot::{Introspection, IntrospectionSnapshot};
use lg_metrics::{CounterHandle, HighWaterArm, Welford};
use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a policy wants done.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyDecision {
    /// Knob writes to apply, as `(knob, value)`.
    pub sets: Vec<(KnobTarget, i64)>,
    /// If true, the policy is finished and should be deregistered.
    pub retire: bool,
}

impl PolicyDecision {
    /// A decision that does nothing.
    pub fn noop() -> Self {
        Self::default()
    }

    /// A decision setting a single knob (by [`crate::KnobId`] or name).
    pub fn set(knob: impl Into<KnobTarget>, value: i64) -> Self {
        Self {
            sets: vec![(knob.into(), value)],
            retire: false,
        }
    }

    /// Marks the policy finished after this decision.
    pub fn and_retire(mut self) -> Self {
        self.retire = true;
        self
    }

    /// A decision setting one knob in a tenant's namespace: governor
    /// policies write `set_scoped(t3, "thread_cap", 8)` to address the
    /// mirror knob `"t3.thread_cap"` without hand-building the name.
    pub fn set_scoped(tenant: crate::tenant::TenantId, knob: &str, value: i64) -> Self {
        Self::set(tenant.scoped(knob), value)
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
/// Checks are cheap — an atomic fold or a gauge closure, no snapshot — so
/// the engine scans every watch on every [`PolicyEngine::step`] and only
/// captures when one fires. All variants are edge-triggered: a watch fires
/// once per crossing, not continuously while the condition holds.
pub struct ThresholdWatch {
    kind: WatchKind,
}

enum WatchKind {
    /// Fires when the reading rises above `threshold`; re-arms once it
    /// falls back to or below (hysteresis by edge, not by band).
    GaugeAbove {
        read: Box<dyn Fn() -> f64 + Send>,
        threshold: f64,
        armed: bool,
    },
    /// Mirror image: fires on falling below, re-arms at or above.
    GaugeBelow {
        read: Box<dyn Fn() -> f64 + Send>,
        threshold: f64,
        armed: bool,
    },
    /// Fires when a (typically striped) counter advanced by at least
    /// `delta` since the last firing.
    CounterDelta {
        counter: CounterHandle,
        delta: u64,
        last: Option<u64>,
    },
    /// Fires when the reading moved by more than `frac` (relative) since
    /// the last firing — "p99 window moved >10%".
    RelChange {
        read: Box<dyn Fn() -> f64 + Send>,
        frac: f64,
        last: Option<f64>,
    },
    /// Write-side variant of [`WatchKind::CounterDelta`]: the counter's
    /// *writers* arm the crossing (a [`HighWaterArm`] latched from
    /// `CounterHandle::add`), so the engine's scan is a single `Acquire`
    /// load instead of a striped fold — and when every threshold policy
    /// uses this kind, idle [`PolicyEngine::step`]s skip the scan (and the
    /// policies lock) entirely.
    CounterArmed { arm: HighWaterArm, delta: u64 },
}

impl ThresholdWatch {
    /// Fires when `read()` rises above `threshold` (re-arms on falling
    /// back). Non-finite readings never fire and never re-arm.
    pub fn gauge_above(read: impl Fn() -> f64 + Send + 'static, threshold: f64) -> Self {
        Self {
            kind: WatchKind::GaugeAbove {
                read: Box::new(read),
                threshold,
                armed: true,
            },
        }
    }

    /// Fires when `read()` falls below `threshold` (re-arms on rising
    /// back).
    pub fn gauge_below(read: impl Fn() -> f64 + Send + 'static, threshold: f64) -> Self {
        Self {
            kind: WatchKind::GaugeBelow {
                read: Box::new(read),
                threshold,
                armed: true,
            },
        }
    }

    /// Fires when `counter` advanced by at least `delta` since the watch
    /// last fired (the first check only records the baseline).
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn counter_delta(counter: CounterHandle, delta: u64) -> Self {
        assert!(delta > 0, "counter delta must be positive");
        Self {
            kind: WatchKind::CounterDelta {
                counter,
                delta,
                last: None,
            },
        }
    }

    /// Write-side equivalent of [`ThresholdWatch::counter_delta`]: arms a
    /// [`HighWaterArm`] on `counter` **immediately** (so unlike the scan
    /// variant, which spends its first check recording a baseline, the
    /// first `delta` increments from *now* fire the watch — matching the
    /// scan variant checked once at registration time). Crossings are
    /// detected by the counter's writers, not by the engine's scan: an
    /// idle engine whose threshold policies all use armed watches steps
    /// without touching the counter at all. Each firing re-arms `delta`
    /// above the total accumulated at consumption time — the same
    /// re-baselining (`last = cur`) the scan variant performs.
    ///
    /// # Panics
    /// Panics if `delta` is zero.
    pub fn counter_delta_armed(counter: &CounterHandle, delta: u64) -> Self {
        assert!(delta > 0, "counter delta must be positive");
        Self {
            kind: WatchKind::CounterArmed {
                arm: counter.arm_high_water(delta),
                delta,
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
        self.check()
    }

    /// Edge-check: returns true exactly once per crossing.
    fn check(&mut self) -> bool {
        match &mut self.kind {
            WatchKind::GaugeAbove {
                read,
                threshold,
                armed,
            } => {
                let v = read();
                if !v.is_finite() {
                    return false;
                }
                let above = v > *threshold;
                let fire = above && *armed;
                *armed = !above;
                fire
            }
            WatchKind::GaugeBelow {
                read,
                threshold,
                armed,
            } => {
                let v = read();
                if !v.is_finite() {
                    return false;
                }
                let below = v < *threshold;
                let fire = below && *armed;
                *armed = !below;
                fire
            }
            WatchKind::CounterDelta {
                counter,
                delta,
                last,
            } => {
                let cur = counter.get();
                match last {
                    None => {
                        *last = Some(cur);
                        false
                    }
                    Some(l) if cur.saturating_sub(*l) >= *delta => {
                        *last = Some(cur);
                        true
                    }
                    Some(_) => false,
                }
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
            WatchKind::CounterArmed { arm, delta } => {
                if arm.fired() {
                    arm.rearm(*delta);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// True when crossings are detected by the counter's writers, so the
    /// engine need not scan this watch while no arm has latched.
    fn is_write_armed(&self) -> bool {
        matches!(self.kind, WatchKind::CounterArmed { .. })
    }

    /// Routes latch notifications to `stamp` (bumped from the writing
    /// thread, once per latch). No-op for scan-based kinds.
    fn route_latches_to(&self, stamp: Arc<AtomicU64>) {
        if let WatchKind::CounterArmed { arm, .. } = &self.kind {
            arm.set_hook(move || {
                stamp.fetch_add(1, Ordering::Release);
            });
        }
    }

    /// Detaches any write-side arm from its counter's write path. Called
    /// when the owning policy is deregistered, retired, or quarantined so
    /// abandoned watches stop taxing the counter's writers.
    fn detach(&self) {
        if let WatchKind::CounterArmed { arm, .. } = &self.kind {
            arm.disarm();
        }
    }
}

impl std::fmt::Debug for ThresholdWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match &self.kind {
            WatchKind::GaugeAbove { threshold, .. } => format!("gauge_above({threshold})"),
            WatchKind::GaugeBelow { threshold, .. } => format!("gauge_below({threshold})"),
            WatchKind::CounterDelta { delta, .. } => format!("counter_delta({delta})"),
            WatchKind::RelChange { frac, .. } => format!("relative_change({frac})"),
            WatchKind::CounterArmed { delta, .. } => format!("counter_delta_armed({delta})"),
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
    consecutive_panics: u32,
    quarantined: bool,
}

enum Kind {
    Periodic {
        period_ns: u64,
        next_due_ns: u64,
    },
    Triggered {
        filter: EventFilter,
    },
    Threshold {
        watch: ThresholdWatch,
        /// Set by the cheap scan at the top of `step`, consumed by the
        /// evaluation pass of the same round.
        fired: bool,
    },
}

/// The policy engine.
///
/// Owns registered policies; applies their decisions through the knob
/// registry. Use [`PolicyEngine::step`] to advance periodic policies under
/// an explicit clock reading, or [`PolicyEngine::spawn_ticker`] to drive
/// them from a wall-clock thread.
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
    /// Bumped (from the *writing* thread) whenever a write-side armed
    /// watch latches. `step` compares it against `armed_seen` to decide
    /// whether armed watches could possibly have anything to report.
    armed_stamp: Arc<AtomicU64>,
    /// The `armed_stamp` value the last full scan started from.
    armed_seen: AtomicU64,
    /// Live policies that *require* a per-step scan (periodic due dates,
    /// scan-based threshold watches). When zero, a step with a clean
    /// `armed_stamp` returns without taking the policies lock.
    scan_needed: AtomicU64,
    /// Steps that returned through the armed fast path (diagnostic).
    fast_steps: AtomicU64,
    /// Live event-triggered policies. While zero, `on_event` — which every
    /// dispatched event flows through — returns after loading this.
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
            armed_stamp: Arc::new(AtomicU64::new(0)),
            armed_seen: AtomicU64::new(0),
            scan_needed: AtomicU64::new(0),
            fast_steps: AtomicU64::new(0),
            triggered: AtomicU64::new(0),
        })
    }

    /// Attaches the introspection facade whose snapshots evaluations
    /// receive. Until attached, policies see [`IntrospectionSnapshot::empty`].
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

    /// Recounts the live policies whose trigger can only be detected by
    /// scanning under the lock, and the live event-triggered ones. Called
    /// whenever the policy set (or a policy's quarantine state) changes;
    /// `ps` is the already-locked vector so the counts are coherent with
    /// the change that prompted them.
    fn recount_triggers(&self, ps: &[Registered]) {
        let (mut scan, mut triggered) = (0u64, 0u64);
        for r in ps.iter().filter(|r| !r.quarantined) {
            match &r.kind {
                Kind::Periodic { .. } => scan += 1,
                Kind::Threshold { watch, .. } => scan += u64::from(!watch.is_write_armed()),
                Kind::Triggered { .. } => triggered += 1,
            }
        }
        self.scan_needed.store(scan, Ordering::Release);
        self.triggered.store(triggered, Ordering::Release);
    }

    /// Registers a periodic policy first due at `now_ns + period_ns`.
    pub fn register_periodic(
        &self,
        policy: Box<dyn Policy>,
        period_ns: u64,
        now_ns: u64,
    ) -> PolicyHandle {
        assert!(period_ns > 0, "period must be positive");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let actor = self.knobs.actor(policy.name());
        let mut ps = self.policies.lock();
        ps.push(Registered {
            id,
            policy,
            actor,
            kind: Kind::Periodic {
                period_ns,
                next_due_ns: now_ns + period_ns,
            },
            consecutive_panics: 0,
            quarantined: false,
        });
        self.recount_triggers(&ps);
        PolicyHandle(id)
    }

    /// Registers an event-triggered policy with a filter.
    pub fn register_triggered(&self, policy: Box<dyn Policy>, filter: EventFilter) -> PolicyHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let actor = self.knobs.actor(policy.name());
        let mut ps = self.policies.lock();
        ps.push(Registered {
            id,
            policy,
            actor,
            kind: Kind::Triggered { filter },
            consecutive_panics: 0,
            quarantined: false,
        });
        self.recount_triggers(&ps);
        PolicyHandle(id)
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let actor = self.knobs.actor(policy.name());
        // Write-side armed watches notify the engine through the armed
        // stamp, so idle steps need not even glance at them.
        watch.route_latches_to(self.armed_stamp.clone());
        let mut ps = self.policies.lock();
        ps.push(Registered {
            id,
            policy,
            actor,
            kind: Kind::Threshold {
                watch,
                fired: false,
            },
            consecutive_panics: 0,
            quarantined: false,
        });
        self.recount_triggers(&ps);
        PolicyHandle(id)
    }

    /// Deregisters a policy; returns true if it was present. A write-side
    /// armed watch is detached from its counter's write path.
    pub fn deregister(&self, handle: PolicyHandle) -> bool {
        let mut ps = self.policies.lock();
        let before = ps.len();
        ps.retain(|r| {
            if r.id != handle.0 {
                return true;
            }
            if let Kind::Threshold { watch, .. } = &r.kind {
                watch.detach();
            }
            false
        });
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

    /// Steps that returned through the armed fast path — no policies
    /// lock, no watch scan, no snapshot. Non-zero only when every live
    /// policy's trigger is push-based (write-side armed watches and
    /// event-triggered policies) and no arm latched since the last scan.
    pub fn fast_path_steps(&self) -> u64 {
        self.fast_steps.load(Ordering::Relaxed)
    }

    /// Adaptation latency of the most recent round that actuated a knob:
    /// wall-clock nanoseconds from trigger detection to the last journaled
    /// write. `None` until a round actuates.
    pub fn adaptation_latency_last_ns(&self) -> Option<u64> {
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

    /// Number of rounds that actuated at least one knob (and therefore
    /// recorded a latency).
    pub fn adaptation_rounds(&self) -> u64 {
        self.latency_stats.lock().count()
    }

    /// The stamp bumped whenever a new adaptation latency is recorded —
    /// register it with
    /// [`crate::snapshot::Introspection::register_gauge_stamped`] so the
    /// latency gauge only re-evaluates after actuating rounds.
    pub fn latency_stamp(&self) -> Arc<AtomicU64> {
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

    /// The actuation journal — the knob registry's single audit trail
    /// (share it with a [`crate::watchdog::RegressionWatchdog`] to enable
    /// rollback).
    pub fn journal(&self) -> &Arc<ActuationJournal> {
        &self.journal
    }

    /// Rolls back the most recent non-rolled-back journalled write to
    /// `knob`, restoring its pre-actuation value. Returns the restored
    /// value, or `None` if no such write is retained. Delegates to the
    /// registry so the undo is itself journaled and raceless.
    pub fn rollback_last_of(&self, knob: &str) -> Option<i64> {
        self.knobs.rollback_last_of(knob)
    }

    fn apply(&self, now_ns: u64, actor: TaskId, decision: &PolicyDecision) {
        for (target, value) in &decision.sets {
            let id = match target {
                KnobTarget::Id(id) => Some(*id),
                KnobTarget::Name(name) => self.knobs.id(name),
            };
            let applied = id.and_then(|id| self.knobs.set_id_as(id, *value, actor, now_ns));
            if applied.is_some() {
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

    /// True if any live periodic policy is due at `now_ns`.
    fn any_periodic_due(&self, now_ns: u64) -> bool {
        self.policies.lock().iter().any(|r| {
            !r.quarantined
                && matches!(&r.kind, Kind::Periodic { next_due_ns, .. } if now_ns >= *next_due_ns)
        })
    }

    /// Runs one control round at `now_ns`: every due periodic policy plus
    /// every threshold policy whose watch fired.
    ///
    /// Starts with a cheap scan — threshold watch checks (atomic folds /
    /// gauge reads) and periodic due dates — and returns without capturing
    /// a snapshot when nothing fired, so drivers may call `step` at a high
    /// rate and idle steps stay near-free. A periodic policy that fell
    /// multiple periods behind fires once and is rescheduled from `now_ns`
    /// (no catch-up bursts). A policy whose evaluation panics is contained
    /// (the panic does not escape), and after
    /// [`PolicyEngine::set_quarantine_threshold`] consecutive panics it is
    /// quarantined: registered but never evaluated again. Rounds that
    /// actuate a knob record their adaptation latency (see
    /// [`PolicyEngine::adaptation_latency_last_ns`]). Returns the number
    /// of evaluations (panicked evaluations included).
    pub fn step(&self, now_ns: u64) -> usize {
        let started = Instant::now();
        // Armed fast path: when every live policy's trigger is pushed to
        // the engine (write-side armed watches, event-triggered policies)
        // and no arm has latched since the last scan, the step is two
        // atomic loads — no lock, no watch scan. The stamp is sampled
        // *before* deciding, and recorded before scanning, so a latch
        // racing the scan at worst costs one redundant scan next step.
        let stamp = self.armed_stamp.load(Ordering::Acquire);
        if self.scan_needed.load(Ordering::Acquire) == 0
            && stamp == self.armed_seen.load(Ordering::Relaxed)
        {
            self.fast_steps.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        self.armed_seen.store(stamp, Ordering::Relaxed);
        // Cheap scan: edge-check every threshold watch. Watches must be
        // checked even when no periodic policy is due — crossings are the
        // whole point of not polling.
        let mut any_threshold = false;
        {
            let mut ps = self.policies.lock();
            for r in ps.iter_mut() {
                if r.quarantined {
                    continue;
                }
                if let Kind::Threshold { watch, fired } = &mut r.kind {
                    if watch.check() {
                        *fired = true;
                    }
                    any_threshold |= *fired;
                }
            }
        }
        if !any_threshold && !self.any_periodic_due(now_ns) {
            return 0;
        }
        // One snapshot per round, captured outside the policies lock.
        let snapshot = self.capture_or_empty(now_ns);
        let threshold = self.quarantine_threshold.load(Ordering::Relaxed) as u32;
        let mut decisions: Vec<(TaskId, PolicyDecision)> = Vec::new();
        let mut fired_count = 0usize;
        {
            let mut ps = self.policies.lock();
            let mut retired: Vec<u64> = Vec::new();
            for r in ps.iter_mut() {
                if r.quarantined {
                    continue;
                }
                let trigger = match &mut r.kind {
                    Kind::Periodic {
                        period_ns,
                        next_due_ns,
                    } => {
                        if now_ns < *next_due_ns {
                            continue;
                        }
                        *next_due_ns = now_ns + *period_ns;
                        Trigger::Periodic
                    }
                    Kind::Threshold { fired, .. } => {
                        if !*fired {
                            continue;
                        }
                        *fired = false;
                        Trigger::Threshold
                    }
                    Kind::Triggered { .. } => continue,
                };
                fired_count += 1;
                let d =
                    Self::evaluate_guarded(r, now_ns, trigger, &snapshot, &self.panics, threshold);
                if let Some(d) = d {
                    if d.retire {
                        retired.push(r.id);
                    }
                    decisions.push((r.actor, d));
                }
            }
            if !retired.is_empty() {
                ps.retain(|r| {
                    if !retired.contains(&r.id) {
                        return true;
                    }
                    if let Kind::Threshold { watch, .. } = &r.kind {
                        watch.detach();
                    }
                    false
                });
            }
            // Quarantined policies are skipped forever; detach their arms
            // so abandoned watches stop taxing the counter's writers
            // (disarm is idempotent — repeat detaches are no-ops).
            for r in ps.iter() {
                if r.quarantined {
                    if let Kind::Threshold { watch, .. } = &r.kind {
                        watch.detach();
                    }
                }
            }
            self.recount_triggers(&ps);
        }
        // Apply outside the policy lock: knob sets may be observed by
        // listeners that re-enter the engine.
        let acts_before = self.actuations.load(Ordering::Relaxed);
        for (actor, d) in &decisions {
            self.apply(now_ns, *actor, d);
        }
        if self.actuations.load(Ordering::Relaxed) > acts_before {
            self.record_latency(started);
        }
        self.evaluations
            .fetch_add(fired_count as u64, Ordering::Relaxed);
        fired_count
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
        // Every dispatched event flows through here; with no live
        // event-triggered policy it stops at this load. Acquire pairs with
        // the Release store in `recount_triggers`, made under the policies
        // lock: a registration that returned is seen by the next event.
        if self.triggered.load(Ordering::Acquire) == 0 {
            return;
        }
        // Evaluate matching triggered policies. Decisions are collected
        // under the lock, applied after, and retirement honored. Panics
        // are contained exactly as in [`PolicyEngine::step`]. The clock is
        // read and the snapshot captured only when at least one filter
        // matches, so the no-match path stays a filter scan.
        let matches_any = {
            let ps = self.policies.lock();
            ps.iter().any(|r| {
                !r.quarantined && matches!(&r.kind, Kind::Triggered { filter } if filter(event))
            })
        };
        if !matches_any {
            return;
        }
        let started = Instant::now();
        let snapshot = self.capture_or_empty(event.t_ns());
        let threshold = self.quarantine_threshold.load(Ordering::Relaxed) as u32;
        let mut decisions: Vec<(TaskId, PolicyDecision)> = Vec::new();
        let mut fired = 0u64;
        {
            let mut ps = self.policies.lock();
            let mut retired: Vec<u64> = Vec::new();
            for r in ps.iter_mut() {
                if r.quarantined {
                    continue;
                }
                if let Kind::Triggered { filter } = &r.kind {
                    if filter(event) {
                        fired += 1;
                        let d = Self::evaluate_guarded(
                            r,
                            event.t_ns(),
                            Trigger::Event(event),
                            &snapshot,
                            &self.panics,
                            threshold,
                        );
                        if let Some(d) = d {
                            if d.retire {
                                retired.push(r.id);
                            }
                            decisions.push((r.actor, d));
                        }
                    }
                }
            }
            if !retired.is_empty() {
                ps.retain(|r| !retired.contains(&r.id));
            }
            // Retirement and quarantine both end a policy's claim on
            // events.
            self.recount_triggers(&ps);
        }
        self.evaluations.fetch_add(fired, Ordering::Relaxed);
        let acts_before = self.actuations.load(Ordering::Relaxed);
        for (actor, d) in &decisions {
            self.apply(event.t_ns(), *actor, d);
        }
        if self.actuations.load(Ordering::Relaxed) > acts_before {
            self.record_latency(started);
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

    fn registry_with(name: &str, min: i64, max: i64, init: i64) -> Arc<KnobRegistry> {
        let reg = Arc::new(KnobRegistry::new());
        reg.register(AtomicKnob::new(KnobSpec::new(name, min, max), init));
        reg
    }

    #[test]
    fn periodic_policy_fires_on_schedule() {
        let knobs = registry_with("cap", 1, 32, 32);
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
        let knobs = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("throttle", |_, _, _| PolicyDecision::set("cap", 8)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(knobs.value("cap"), Some(8));
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
        let knobs = registry_with("cap", 1, 16, 16);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_periodic(
            FnPolicy::new("wild", |_, _, _| PolicyDecision::set("cap", 10_000)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(knobs.value("cap"), Some(16));
    }

    #[test]
    fn unknown_knob_does_not_count_as_actuation() {
        let knobs = registry_with("cap", 1, 16, 16);
        let engine = PolicyEngine::new(knobs);
        engine.register_periodic(
            FnPolicy::new("typo", |_, _, _| PolicyDecision::set("cpa", 2)),
            10,
            0,
        );
        engine.step(10);
        assert_eq!(engine.actuations(), 0);
    }

    #[test]
    fn triggered_policy_filters_events() {
        let knobs = registry_with("window", 1, 512, 1);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_triggered(
            FnPolicy::new("on-phase", |_, trigger, _| {
                if let Trigger::Event(Event::PhaseBegin { .. }) = trigger {
                    PolicyDecision::set("window", 64)
                } else {
                    PolicyDecision::noop()
                }
            }),
            Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
        );
        let names = crate::event::TaskNames::new();
        let phase = names.intern("ph");
        engine.on_event(&Event::PeriodicTick { t_ns: 0 });
        assert_eq!(knobs.value("window"), Some(1), "filter must gate");
        engine.on_event(&Event::PhaseBegin { phase, t_ns: 1 });
        assert_eq!(knobs.value("window"), Some(64));
        assert_eq!(engine.evaluations(), 1);
    }

    #[test]
    fn retire_removes_triggered_policy() {
        let knobs = registry_with("k", 0, 10, 0);
        let engine = PolicyEngine::new(knobs.clone());
        engine.register_triggered(
            FnPolicy::new("once", |_, _, _| PolicyDecision::set("k", 5).and_retire()),
            Box::new(|_| true),
        );
        engine.on_event(&Event::PeriodicTick { t_ns: 0 });
        assert_eq!(engine.policy_count(), 0);
        knobs.set("k", 0);
        engine.on_event(&Event::PeriodicTick { t_ns: 1 });
        assert_eq!(
            knobs.value("k"),
            Some(0),
            "retired policy must not fire again"
        );
    }

    #[test]
    fn late_triggered_policy_sees_the_very_next_event() {
        let knobs = registry_with("k", 0, 1_000, 0);
        let engine = PolicyEngine::new(knobs.clone());
        // A long run of events through the no-policy fast path first.
        for t in 0..1_000 {
            engine.on_event(&Event::PeriodicTick { t_ns: t });
        }
        assert_eq!(engine.triggered.load(Ordering::Relaxed), 0);
        engine.register_triggered(
            FnPolicy::new("late", |now, _, _| PolicyDecision::set("k", now as i64)),
            Box::new(|_| true),
        );
        engine.on_event(&Event::PeriodicTick { t_ns: 777 });
        assert_eq!(knobs.value("k"), Some(777));
        assert_eq!(engine.evaluations(), 1);
    }

    #[test]
    fn last_triggered_policy_leaving_restores_the_event_fast_path() {
        let knobs = registry_with("k", 0, 1_000, 0);
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
        let knobs = registry_with("k", 0, 10, 0);
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
        let knobs = registry_with("k", 0, 100, 0);
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

        let knobs = registry_with("cap", 1, 32, 32);
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
        let knobs = registry_with("k", 0, 10, 0);
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
    fn threshold_policy_fires_on_crossing_only() {
        let knobs = registry_with("cap", 1, 32, 32);
        let engine = PolicyEngine::new(knobs.clone());
        let level = Arc::new(AtomicU64::new(0));
        let l = level.clone();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        engine.register_threshold(
            FnPolicy::new("on-depth", move |_, trigger, _| {
                assert!(matches!(trigger, Trigger::Threshold));
                f.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::set("cap", 4)
            }),
            ThresholdWatch::gauge_above(move || l.load(Ordering::Relaxed) as f64, 10.0),
        );
        assert_eq!(engine.step(0), 0, "below threshold: no round, no capture");
        level.store(20, Ordering::Relaxed);
        assert_eq!(engine.step(1), 1, "crossing fires");
        assert_eq!(knobs.value("cap"), Some(4));
        assert_eq!(engine.step(2), 0, "still above: edge-triggered, no refire");
        level.store(5, Ordering::Relaxed);
        assert_eq!(engine.step(3), 0, "falling back re-arms silently");
        level.store(30, Ordering::Relaxed);
        assert_eq!(engine.step(4), 1, "fires again after re-arm");
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn counter_delta_watch_fires_every_n_increments() {
        let knobs = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs);
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        let fires = Arc::new(AtomicU64::new(0));
        let f = fires.clone();
        engine.register_threshold(
            FnPolicy::new("batch", move |_, _, _| {
                f.fetch_add(1, Ordering::Relaxed);
                PolicyDecision::noop()
            }),
            ThresholdWatch::counter_delta(c.clone(), 10),
        );
        engine.step(0); // first check records the baseline
        c.add(9);
        engine.step(1);
        assert_eq!(fires.load(Ordering::Relaxed), 0, "below delta");
        c.add(1);
        engine.step(2);
        assert_eq!(fires.load(Ordering::Relaxed), 1, "accumulated to delta");
        c.add(10);
        engine.step(3);
        assert_eq!(fires.load(Ordering::Relaxed), 2, "next batch");
    }

    #[test]
    fn armed_watch_fires_without_engine_scanning() {
        let knobs = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        engine.register_threshold(
            FnPolicy::new("batch", |_, _, _| PolicyDecision::set("k", 7)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        // No latch yet: steps take the armed fast path — no lock, no scan.
        assert_eq!(engine.step(0), 0);
        assert_eq!(engine.step(1), 0);
        assert_eq!(engine.fast_path_steps(), 2);
        c.add(9);
        assert_eq!(engine.step(2), 0, "below delta stays fast");
        assert_eq!(engine.fast_path_steps(), 3);
        c.add(1); // latches from the writing thread
        assert_eq!(engine.step(3), 1, "latched arm triggers a round");
        assert_eq!(knobs.value("k"), Some(7));
        assert_eq!(
            engine.fast_path_steps(),
            3,
            "latched step took the slow path"
        );
        assert_eq!(engine.step(4), 0, "consumed and re-armed: fast again");
        assert_eq!(engine.fast_path_steps(), 4);
        c.add(10);
        assert_eq!(engine.step(5), 1, "re-armed delta above consumption point");
    }

    #[test]
    fn armed_and_scanned_counter_watches_are_equivalent() {
        // Drive the exact same add/step schedule through a scan-based
        // counter_delta engine and a write-side armed engine; every
        // step must agree on rounds fired, total evaluations, actuations,
        // and the resulting knob value. (The scan variant spends its
        // first check on a baseline of 0 — the armed variant bakes that
        // baseline in at construction — so no warm-up step is needed for
        // either.) Each add runs on its own short-lived thread, joined
        // before the next, so consecutive adds land on different stripes
        // and the armed side crosses its level with amounts still
        // spread over several of them.
        fn run(delta: u64, schedule: &[&[u64]]) {
            let k_scan = registry_with("k", 0, 1000, 0);
            let k_arm = registry_with("k", 0, 1000, 0);
            let e_scan = PolicyEngine::new(k_scan.clone());
            let e_arm = PolicyEngine::new(k_arm.clone());
            let reg = lg_metrics::CounterRegistry::new();
            let c_scan = reg.striped_counter("scan");
            let c_arm = reg.striped_counter("arm");
            e_scan.register_threshold(
                FnPolicy::new("w", |now, _, _| PolicyDecision::set("k", now as i64)),
                ThresholdWatch::counter_delta(c_scan.clone(), delta),
            );
            e_scan.step(0); // scan variant: baseline-recording check
            e_arm.register_threshold(
                FnPolicy::new("w", |now, _, _| PolicyDecision::set("k", now as i64)),
                ThresholdWatch::counter_delta_armed(&c_arm, delta),
            );
            e_arm.step(0);
            for (i, adds) in schedule.iter().enumerate() {
                let now = (i + 1) as u64;
                for &n in adds.iter() {
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            c_scan.add(n);
                            c_arm.add(n);
                        });
                    });
                }
                let r_scan = e_scan.step(now);
                let r_arm = e_arm.step(now);
                assert_eq!(r_scan, r_arm, "step {now}: rounds diverged");
                assert_eq!(
                    k_scan.value("k"),
                    k_arm.value("k"),
                    "step {now}: knob values diverged"
                );
            }
            assert_eq!(e_scan.evaluations(), e_arm.evaluations());
            assert_eq!(e_scan.actuations(), e_arm.actuations());
            assert!(
                e_scan.evaluations() >= 3,
                "schedule crossed at least 3 times"
            );
            assert!(
                e_arm.fast_path_steps() > 0,
                "armed engine skipped scans on quiet steps"
            );
            assert_eq!(e_scan.fast_path_steps(), 0, "scan engine always scans");
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
        // A delta wide enough that stripes hold amounts back (slack 15):
        // the crossing add is whichever one completes the level.
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
    fn deregistering_armed_watch_detaches_the_arm() {
        let knobs = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs.clone());
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        let h = engine.register_threshold(
            FnPolicy::new("batch", |_, _, _| PolicyDecision::set("k", 7)),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        assert!(engine.deregister(h));
        c.add(100);
        assert_eq!(engine.step(1), 0, "detached arm no longer triggers");
        assert_eq!(knobs.value("k"), Some(0));
    }

    #[test]
    fn periodic_policy_disables_the_armed_fast_path() {
        let knobs = registry_with("k", 0, 100, 0);
        let engine = PolicyEngine::new(knobs);
        let reg = lg_metrics::CounterRegistry::new();
        let c = reg.striped_counter("events");
        engine.register_threshold(
            FnPolicy::new("batch", |_, _, _| PolicyDecision::noop()),
            ThresholdWatch::counter_delta_armed(&c, 10),
        );
        let h = engine.register_periodic(
            FnPolicy::new("tick", |_, _, _| PolicyDecision::noop()),
            100,
            0,
        );
        engine.step(1);
        assert_eq!(
            engine.fast_path_steps(),
            0,
            "periodic due dates need the scan"
        );
        engine.deregister(h);
        engine.step(2);
        assert_eq!(engine.fast_path_steps(), 1, "fast path restored");
    }

    #[test]
    fn relative_change_watch_tracks_moves() {
        let knobs = registry_with("k", 0, 100, 0);
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
        let knobs = registry_with("cap", 1, 32, 32);
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
            FnPolicy::new("act", |_, _, _| PolicyDecision::set("cap", 8)),
            10,
            10,
        );
        engine.step(20);
        assert!(engine.adaptation_latency_last_ns().is_some());
        assert!(engine.adaptation_latency_mean_ns().is_some());
        assert_eq!(engine.adaptation_rounds(), 1);
        assert_eq!(
            stamp.load(Ordering::Relaxed),
            1,
            "stamp moves with the record"
        );
    }

    #[test]
    fn wall_clock_ticker_drives_steps() {
        use crate::clock::WallClock;
        let knobs = registry_with("k", 0, 1000, 0);
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
