//! Admission control — keeping an open-loop workload inside the
//! operating region the runtime can actually serve.
//!
//! Closed-loop kernels self-throttle: a worker that is busy is not
//! issuing more work. An open-loop serving workload has no such luck —
//! arrivals keep coming whether or not the system is keeping up, and the
//! only defenses are to *limit concurrency* (queue instead of thrash),
//! *limit rate* (admit instead of drown), and *shed load* (degrade
//! instead of collapse). This module provides those three primitives plus
//! the reactive policies that drive them, all built on the PR 5 control
//! plane so every actuation is clamped, journaled, and rollback-able:
//!
//! * [`Bulkhead`] — a concurrency limiter whose limit is an
//!   [`AtomicKnob`]; RAII [`BulkheadPermit`]s guarantee the in-flight
//!   count can never exceed the limit read at admission time.
//! * [`AdmissionGate`] — a token-bucket rate limiter whose refill rate is
//!   a knob, with a reserve so mandatory traffic is admitted after
//!   optional traffic has exhausted the shared tokens.
//! * [`Brownout`] — graded load shedding behind a level knob: optional
//!   work is shed fully before any mandatory work is touched.
//! * [`AimdPolicy`] — additive-increase / multiplicative-decrease on the
//!   bulkhead limit, sensing a latency metric from the round's
//!   [`IntrospectionSnapshot`].
//! * [`BrownoutPolicy`] — raises the shed level while the latency signal
//!   sits above target, lowers it (with hysteresis) once it recovers.
//!
//! The policies follow the builtin-policy idiom: metric and knob ids are
//! resolved once up front, and actuations name a [`KnobId`] so the engine
//! applies them via the [`KnobRegistry`](crate::KnobRegistry) — clamped,
//! journaled, visible to the watchdog.

use crate::arbiter::{DemandClass, DemandProfile};
use crate::knob::{AtomicKnob, Knob, KnobId, KnobSpec};
use crate::policy::{Policy, PolicyDecision, Trigger};
use crate::snapshot::{IntrospectionSnapshot, MetricId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Service class of a request, from the brownout ordering's point of
/// view: optional work is shed first, mandatory work last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Must-serve traffic (paid requests, writes, health checks).
    Mandatory,
    /// Nice-to-serve traffic (speculative prefetch, background refresh).
    Optional,
}

struct BulkheadInner {
    limit: Arc<AtomicKnob>,
    in_flight: AtomicI64,
}

/// Concurrency bulkhead: at most `limit` requests in flight, where
/// `limit` is a live [`AtomicKnob`] an [`AimdPolicy`] (or anything else)
/// can drive through the registry.
///
/// Admission is a CAS loop against the limit read at that instant, so a
/// successful [`Bulkhead::try_acquire`] *proves* `in_flight <= limit`
/// held at admission. Lowering the limit mid-flight does not cancel
/// permits; it only blocks new admissions until the excess drains.
#[derive(Clone)]
pub struct Bulkhead {
    inner: Arc<BulkheadInner>,
}

impl Bulkhead {
    /// Creates a bulkhead with a fresh limit knob `name ∈ [min, max]`
    /// starting at `initial`. Register the knob
    /// ([`Bulkhead::limit_knob`]) to journal its writes.
    pub fn new(name: impl Into<String>, min: i64, max: i64, initial: i64) -> Self {
        let spec = KnobSpec::new(name, min, max)
            .with_unit("requests")
            .with_default(initial);
        Self {
            inner: Arc::new(BulkheadInner {
                limit: AtomicKnob::new(spec, initial),
                in_flight: AtomicI64::new(0),
            }),
        }
    }

    /// The live concurrency-limit knob.
    pub fn limit_knob(&self) -> &Arc<AtomicKnob> {
        &self.inner.limit
    }

    /// Tries to admit one request. `None` means the bulkhead is full at
    /// the current limit; the caller queues, sheds, or retries later.
    pub fn try_acquire(&self) -> Option<BulkheadPermit> {
        let limit = self.inner.limit.get().max(0);
        let mut cur = self.inner.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                return None;
            }
            match self.inner.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(BulkheadPermit {
                        inner: self.inner.clone(),
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Requests currently holding a permit.
    pub fn in_flight(&self) -> i64 {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// `in_flight / limit` in `[0, ∞)` — above 1.0 only transiently,
    /// after the limit was lowered under live permits.
    pub fn saturation(&self) -> f64 {
        let limit = self.inner.limit.get();
        if limit <= 0 {
            if self.in_flight() > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.in_flight() as f64 / limit as f64
        }
    }
}

/// RAII admission permit; dropping it releases the bulkhead slot.
pub struct BulkheadPermit {
    inner: Arc<BulkheadInner>,
}

impl Drop for BulkheadPermit {
    fn drop(&mut self) {
        self.inner.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

struct GateState {
    tokens: f64,
    last_refill_ns: u64,
}

/// Token-bucket admission gate with a mandatory-traffic reserve.
///
/// Tokens refill at the live rate knob (requests per second) and cap at
/// `burst`. Every admission costs one token. [`RequestClass::Optional`]
/// requests are only admitted while more than `reserve` tokens remain,
/// so under sustained overload the last `reserve` tokens per burst are
/// spent exclusively on mandatory work — rate limiting and brownout
/// ordering compose instead of fighting.
///
/// Over any window `[t0, t1]` the gate admits at most
/// `rate × (t1 - t0) + burst` requests (the bucket holds at most `burst`
/// and refills at `rate`), which is the bound the property tests pin.
pub struct AdmissionGate {
    rate: Arc<AtomicKnob>,
    burst: f64,
    reserve: f64,
    state: Mutex<GateState>,
    admitted: AtomicI64,
    rejected: AtomicI64,
}

impl AdmissionGate {
    /// Creates a gate with a fresh rate knob `name ∈ [min, max]` req/s
    /// starting at `initial`, a bucket of `burst` tokens (also the
    /// initial fill), and `reserve` tokens kept for mandatory traffic.
    ///
    /// # Panics
    /// Panics if `burst` is not positive or `reserve` is negative or
    /// exceeds `burst`.
    pub fn new(
        name: impl Into<String>,
        min: i64,
        max: i64,
        initial: i64,
        burst: f64,
        reserve: f64,
    ) -> Self {
        assert!(burst > 0.0, "burst must be positive");
        assert!(
            (0.0..=burst).contains(&reserve),
            "reserve must lie in [0, burst]"
        );
        let spec = KnobSpec::new(name, min, max)
            .with_unit("req/s")
            .with_default(initial);
        Self {
            rate: AtomicKnob::new(spec, initial),
            burst,
            reserve,
            state: Mutex::new(GateState {
                tokens: burst,
                last_refill_ns: 0,
            }),
            admitted: AtomicI64::new(0),
            rejected: AtomicI64::new(0),
        }
    }

    /// The live admission-rate knob (requests per second).
    pub fn rate_knob(&self) -> &Arc<AtomicKnob> {
        &self.rate
    }

    /// Tries to admit one `class` request at `now_ns`. Mandatory
    /// requests may spend the bucket to zero; optional requests stop at
    /// the reserve line.
    pub fn try_admit(&self, now_ns: u64, class: RequestClass) -> bool {
        let rate_per_ns = self.rate.get().max(0) as f64 / 1e9;
        let mut s = self.state.lock();
        if now_ns > s.last_refill_ns {
            s.tokens =
                (s.tokens + (now_ns - s.last_refill_ns) as f64 * rate_per_ns).min(self.burst);
            s.last_refill_ns = now_ns;
        }
        let floor = match class {
            RequestClass::Mandatory => 0.0,
            RequestClass::Optional => self.reserve,
        };
        if s.tokens - 1.0 >= floor - 1e-9 {
            s.tokens -= 1.0;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> i64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> i64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Current token fill in `[0, 1]` (no refill applied; exact as of
    /// the last admission attempt).
    pub fn fill(&self) -> f64 {
        self.state.lock().tokens / self.burst
    }
}

/// Graded load shedding: a level knob maps to shed fractions that
/// exhaust [`RequestClass::Optional`] work before touching
/// [`RequestClass::Mandatory`] work.
///
/// | level | optional shed | mandatory shed |
/// |---|---|---|
/// | 0 | 0% | 0% |
/// | 1–4 | 25% × level | 0% |
/// | 5–8 | 100% | 25% × (level − 4) |
///
/// Shedding is deterministic per request: the decision hashes the
/// request's `ticket` (any stable id) against the level's fraction, so a
/// replay with the same tickets sheds the same requests.
#[derive(Clone)]
pub struct Brownout {
    level: Arc<AtomicKnob>,
}

impl Brownout {
    /// Highest shed level (100% of optional and mandatory shed).
    pub const MAX_LEVEL: i64 = 8;

    /// Creates a brownout with a fresh level knob named `name`, starting
    /// fully open (level 0).
    pub fn new(name: impl Into<String>) -> Self {
        let spec = KnobSpec::new(name, 0, Self::MAX_LEVEL)
            .with_unit("level")
            .with_default(0);
        Self {
            level: AtomicKnob::new(spec, 0),
        }
    }

    /// The live shed-level knob.
    pub fn level_knob(&self) -> &Arc<AtomicKnob> {
        &self.level
    }

    /// Current shed level.
    pub fn level(&self) -> i64 {
        self.level.get()
    }

    /// The fraction of `class` work the current level sheds, in `[0, 1]`.
    pub fn shed_frac(&self, class: RequestClass) -> f64 {
        let level = self.level.get().clamp(0, Self::MAX_LEVEL);
        match class {
            RequestClass::Optional => (level as f64 / 4.0).min(1.0),
            RequestClass::Mandatory => ((level - 4).max(0) as f64 / 4.0).min(1.0),
        }
    }

    /// Whether the request identified by `ticket` should be shed at the
    /// current level. Deterministic in `(level, class, ticket)`.
    pub fn should_shed(&self, class: RequestClass, ticket: u64) -> bool {
        let frac = self.shed_frac(class);
        if frac <= 0.0 {
            return false;
        }
        if frac >= 1.0 {
            return true;
        }
        // splitmix64: cheap, well-mixed, stable across platforms.
        let mut z = ticket.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % 10_000) as f64 / 10_000.0 < frac
    }
}

/// AIMD governor for a [`Bulkhead`] limit: additive increase while the
/// system is healthy, multiplicative decrease on overload evidence.
///
/// Overload evidence (checked per evaluation against the round's shared
/// snapshot): the latency metric above `target_latency_ns`.
///
/// The decision targets the limit knob through the registry, so every
/// move is clamped to the knob's spec, journaled, and subject to the
/// watchdog's rollback — the policy itself never touches the knob.
pub struct AimdPolicy {
    name: String,
    knob: KnobId,
    latency: Option<MetricId>,
    target_latency_ns: f64,
    step: i64,
    decrease_factor: f64,
    min: i64,
    max: i64,
    current: i64,
}

impl AimdPolicy {
    /// Creates the governor over `knob ∈ [min, max]` starting at
    /// `initial`, with no sensor attached; chain
    /// [`AimdPolicy::on_latency_above`] to add overload evidence.
    ///
    /// # Panics
    /// Panics unless `0 < decrease_factor < 1`, `step > 0`, and
    /// `min <= initial <= max`.
    pub fn new(
        knob: KnobId,
        min: i64,
        max: i64,
        initial: i64,
        step: i64,
        decrease_factor: f64,
    ) -> Box<Self> {
        assert!(
            decrease_factor > 0.0 && decrease_factor < 1.0,
            "decrease factor must lie in (0, 1)"
        );
        assert!(step > 0, "additive step must be positive");
        assert!(min <= initial && initial <= max, "initial out of bounds");
        Box::new(Self {
            name: "aimd-bulkhead".into(),
            knob,
            latency: None,
            target_latency_ns: f64::INFINITY,
            step,
            decrease_factor,
            min,
            max,
            current: initial,
        })
    }

    /// Decrease when `metric` (e.g. a p99 window mean, ns) exceeds
    /// `target_ns`.
    pub fn on_latency_above(mut self: Box<Self>, metric: MetricId, target_ns: f64) -> Box<Self> {
        self.latency = Some(metric);
        self.target_latency_ns = target_ns;
        self
    }

    /// The limit this policy last decided (its belief, pre-clamp).
    pub fn current(&self) -> i64 {
        self.current
    }

    fn overloaded(&self, snapshot: &IntrospectionSnapshot) -> bool {
        self.latency
            .and_then(|id| snapshot.value(id))
            .is_some_and(|v| v > self.target_latency_ns)
    }
}

impl Policy for AimdPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        let next = if self.overloaded(snapshot) {
            ((self.current as f64 * self.decrease_factor).floor() as i64).max(self.min)
        } else {
            (self.current + self.step).min(self.max)
        };
        if next == self.current {
            return PolicyDecision::noop();
        }
        self.current = next;
        PolicyDecision::set(self.knob, next)
    }
}

/// Hysteresis governor for a [`Brownout`] level: one step up while the
/// latency signal exceeds `raise_above_ns`, one step down once it falls
/// below `lower_below_ns` (which must be strictly smaller, or the level
/// would oscillate on a flat signal).
pub struct BrownoutPolicy {
    name: String,
    knob: KnobId,
    latency: MetricId,
    raise_above_ns: f64,
    lower_below_ns: f64,
    max_level: i64,
    current: i64,
}

impl BrownoutPolicy {
    /// Creates the governor; the level starts at 0 (nothing shed).
    ///
    /// # Panics
    /// Panics unless `lower_below_ns < raise_above_ns`.
    pub fn new(
        knob: KnobId,
        latency: MetricId,
        raise_above_ns: f64,
        lower_below_ns: f64,
    ) -> Box<Self> {
        assert!(
            lower_below_ns < raise_above_ns,
            "hysteresis bands must not overlap"
        );
        Box::new(Self {
            name: "brownout".into(),
            knob,
            latency,
            raise_above_ns,
            lower_below_ns,
            max_level: Brownout::MAX_LEVEL,
            current: 0,
        })
    }

    /// Caps the highest level this policy will request (e.g. 4 to never
    /// shed mandatory work).
    pub fn with_max_level(mut self: Box<Self>, max_level: i64) -> Box<Self> {
        self.max_level = max_level.clamp(0, Brownout::MAX_LEVEL);
        self
    }

    /// The level this policy last decided.
    pub fn current(&self) -> i64 {
        self.current
    }
}

impl Policy for BrownoutPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        let Some(v) = snapshot.value(self.latency) else {
            return PolicyDecision::noop();
        };
        let next = if v > self.raise_above_ns {
            (self.current + 1).min(self.max_level)
        } else if v < self.lower_below_ns {
            (self.current - 1).max(0)
        } else {
            self.current
        };
        if next == self.current {
            return PolicyDecision::noop();
        }
        self.current = next;
        PolicyDecision::set(self.knob, next)
    }
}

/// The serve plane's native [`DemandProfile`], from live admission-side
/// signals: queue depth, in-flight count, SLO pressure, and whether the
/// gate or brownout is currently shedding.
///
/// Useful width is the plane's visible concurrency (in-flight + queued)
/// with 2× headroom so a burst admits before the next arbitration round,
/// capped at `max_width`. Two overrides pin the width to `max_width`
/// outright: SLO pressure ≥ 1 (latency targets are being missed — a
/// stale width estimate must not throttle the recovery) and active
/// shedding (the admission plane is already turning work away, so
/// demand provably exceeds whatever width the queue shows).
pub fn serve_demand(
    pressure: f64,
    queue_depth: f64,
    in_flight: f64,
    shedding: bool,
    max_width: i64,
    alloc: i64,
) -> DemandProfile {
    let max_w = max_width.max(1) as f64;
    let width = if pressure >= 1.0 || shedding {
        max_w
    } else {
        (2.0 * (queue_depth.max(0.0) + in_flight.max(0.0))).min(max_w)
    };
    DemandProfile::saturating(DemandClass::Serve, pressure, width, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::ConcurrencyListener;
    use crate::event::TaskNames;
    use crate::profile::ProfileListener;
    use crate::snapshot::Introspection;
    use std::sync::atomic::AtomicU64;

    fn facade() -> Introspection {
        Introspection::new(
            Arc::new(ProfileListener::new(TaskNames::new())),
            Arc::new(ConcurrencyListener::new(16)),
        )
    }

    #[test]
    fn bulkhead_admits_up_to_limit() {
        let b = Bulkhead::new("limit", 1, 64, 3);
        let p1 = b.try_acquire().expect("slot 1");
        let p2 = b.try_acquire().expect("slot 2");
        let p3 = b.try_acquire().expect("slot 3");
        assert!(b.try_acquire().is_none(), "limit 3 admits only 3");
        assert_eq!(b.in_flight(), 3);
        drop(p2);
        assert_eq!(b.in_flight(), 2);
        let _p4 = b.try_acquire().expect("released slot re-admits");
        drop(p1);
        drop(p3);
    }

    #[test]
    fn bulkhead_limit_knob_is_live() {
        let b = Bulkhead::new("limit", 1, 64, 1);
        let _p = b.try_acquire().expect("first");
        assert!(b.try_acquire().is_none());
        b.limit_knob().set(2);
        let _p2 = b.try_acquire().expect("raised limit admits");
        b.limit_knob().set(1);
        assert!(b.try_acquire().is_none(), "lowered limit blocks new work");
        assert_eq!(b.in_flight(), 2, "live permits are not revoked");
        assert!(b.saturation() > 1.0);
    }

    #[test]
    fn gate_respects_rate_and_burst() {
        let g = AdmissionGate::new("rate", 0, 1_000_000, 1_000, 10.0, 0.0);
        // Burst drains instantly...
        let mut admitted = 0;
        for _ in 0..50 {
            if g.try_admit(0, RequestClass::Mandatory) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10, "only the burst is available at t=0");
        // ...then refill at 1000/s: 5 ms buys 5 tokens.
        let mut refilled = 0;
        for _ in 0..50 {
            if g.try_admit(5_000_000, RequestClass::Mandatory) {
                refilled += 1;
            }
        }
        assert_eq!(refilled, 5);
        assert_eq!(g.admitted(), 15);
        assert_eq!(g.rejected(), 85);
    }

    #[test]
    fn gate_reserves_tokens_for_mandatory() {
        let g = AdmissionGate::new("rate", 0, 1_000_000, 0, 4.0, 2.0);
        // Zero refill; optional stops at the reserve line.
        assert!(g.try_admit(0, RequestClass::Optional));
        assert!(g.try_admit(0, RequestClass::Optional));
        assert!(
            !g.try_admit(0, RequestClass::Optional),
            "reserve is mandatory-only"
        );
        assert!(g.try_admit(0, RequestClass::Mandatory));
        assert!(g.try_admit(0, RequestClass::Mandatory));
        assert!(!g.try_admit(0, RequestClass::Mandatory), "bucket empty");
    }

    #[test]
    fn brownout_sheds_optional_before_mandatory() {
        let b = Brownout::new("shed_level");
        assert_eq!(b.shed_frac(RequestClass::Optional), 0.0);
        b.level_knob().set(2);
        assert_eq!(b.shed_frac(RequestClass::Optional), 0.5);
        assert_eq!(
            b.shed_frac(RequestClass::Mandatory),
            0.0,
            "mandatory untouched until optional is fully shed"
        );
        b.level_knob().set(4);
        assert_eq!(b.shed_frac(RequestClass::Optional), 1.0);
        assert_eq!(b.shed_frac(RequestClass::Mandatory), 0.0);
        b.level_knob().set(6);
        assert_eq!(b.shed_frac(RequestClass::Mandatory), 0.5);
        for t in 0..100 {
            assert!(b.should_shed(RequestClass::Optional, t));
        }
    }

    #[test]
    fn brownout_shedding_is_deterministic_and_proportional() {
        let b = Brownout::new("shed_level");
        b.level_knob().set(2); // 50% of optional
        let shed: Vec<bool> = (0..4000)
            .map(|t| b.should_shed(RequestClass::Optional, t))
            .collect();
        let again: Vec<bool> = (0..4000)
            .map(|t| b.should_shed(RequestClass::Optional, t))
            .collect();
        assert_eq!(shed, again, "same ticket, same verdict");
        let frac = shed.iter().filter(|&&s| s).count() as f64 / 4000.0;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "shed fraction {frac} far from 0.5"
        );
    }

    #[test]
    fn aimd_decreases_multiplicatively_on_latency() {
        let intro = facade();
        let lat = Arc::new(AtomicU64::new(50_000));
        let l = lat.clone();
        let id = intro.register_gauge("p99", move || l.load(Ordering::Relaxed) as f64);
        let mut p =
            AimdPolicy::new(KnobId(0), 1, 100, 64, 4, 0.5).on_latency_above(id, 1_000_000.0);
        // Healthy: additive increase.
        let d = p.evaluate(0, Trigger::Periodic, &intro.capture(0));
        assert_eq!(d.sets, vec![(KnobId(0), 68)]);
        // Overloaded: halve.
        lat.store(5_000_000, Ordering::Relaxed);
        let d = p.evaluate(1, Trigger::Periodic, &intro.capture(1));
        assert_eq!(d.sets, vec![(KnobId(0), 34)]);
        let d = p.evaluate(2, Trigger::Periodic, &intro.capture(2));
        assert_eq!(d.sets, vec![(KnobId(0), 17)]);
        // Recovery: back to additive.
        lat.store(0, Ordering::Relaxed);
        let d = p.evaluate(3, Trigger::Periodic, &intro.capture(3));
        assert_eq!(d.sets, vec![(KnobId(0), 21)]);
    }

    #[test]
    fn aimd_stays_in_bounds_and_noops_at_edges() {
        let intro = facade();
        let id = intro.register_gauge("p99", || 1e12);
        let mut p = AimdPolicy::new(KnobId(0), 4, 8, 4, 1, 0.5).on_latency_above(id, 1.0);
        // Saturated overload: already at min, nothing to do.
        let d = p.evaluate(0, Trigger::Periodic, &intro.capture(0));
        assert_eq!(d, PolicyDecision::noop());
        assert_eq!(p.current(), 4);
    }

    #[test]
    fn brownout_policy_steps_with_hysteresis() {
        let intro = facade();
        let lat = Arc::new(AtomicU64::new(0));
        let l = lat.clone();
        let id = intro.register_gauge("p99", move || l.load(Ordering::Relaxed) as f64);
        let mut p = BrownoutPolicy::new(KnobId(0), id, 10_000_000.0, 2_000_000.0);
        // Healthy at level 0: no decision.
        let d = p.evaluate(0, Trigger::Periodic, &intro.capture(0));
        assert_eq!(d, PolicyDecision::noop());
        // Hot: step up.
        lat.store(20_000_000, Ordering::Relaxed);
        let d = p.evaluate(1, Trigger::Periodic, &intro.capture(1));
        assert_eq!(d.sets[0].1, 1);
        // In the hysteresis band: hold.
        lat.store(5_000_000, Ordering::Relaxed);
        let d = p.evaluate(2, Trigger::Periodic, &intro.capture(2));
        assert_eq!(d, PolicyDecision::noop());
        // Cool: step down.
        lat.store(1_000_000, Ordering::Relaxed);
        let d = p.evaluate(3, Trigger::Periodic, &intro.capture(3));
        assert_eq!(d.sets[0].1, 0);
    }

    #[test]
    fn serve_demand_widths_track_load_and_overload() {
        // Light load: width is 2× visible concurrency, well below max.
        let light = serve_demand(0.2, 3.0, 2.0, false, 64, 8);
        assert_eq!(light.class, DemandClass::Serve);
        assert_eq!(light.useful_width, Some(10.0));
        // Past the SLO: width pins to max regardless of the queue.
        let hot = serve_demand(1.4, 0.0, 1.0, false, 64, 8);
        assert_eq!(hot.useful_width, Some(64.0));
        assert_eq!(hot.utility_up, 1.0);
        // Shedding pins the width too — the gate turning work away is
        // proof demand exceeds the visible queue.
        let shed = serve_demand(0.5, 0.0, 0.0, true, 64, 8);
        assert_eq!(shed.useful_width, Some(64.0));
    }
}
