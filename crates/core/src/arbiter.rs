//! The machine-wide resource governor: N looking-glass tenants under one
//! [`Arbiter`].
//!
//! Every looking-glass instance so far tuned itself in isolation. The
//! arbiter makes the *tenant* the unit of scale: each tenant is a full
//! [`LookingGlass`] (own dispatcher, introspection, knob registry,
//! actuation journal) admitted under a [`TenantSpec`] — an SLO class, a
//! fair-share weight, and thread floor/ceiling. Once per control round
//! the arbiter:
//!
//! 1. **steps** each tenant's own [`PolicyEngine`](crate::PolicyEngine)
//!    (tenant-local adaptation runs first, under the machine's clock);
//! 2. **captures** each tenant's [`IntrospectionSnapshot`] — PR 7's
//!    delta captures make an idle tenant's capture a handful of Arc
//!    bumps, so the round cost is proportional to *activity*, not fleet
//!    size;
//! 3. **diagnoses** noisy neighbours: new
//!    [`RegressionWatchdog`](crate::RegressionWatchdog) rollback records
//!    in a tenant's journal since the last round put that tenant in
//!    quarantine (allocation pinned to its floor) for a configured
//!    number of rounds;
//! 4. **arbitrates** the machine budgets — total worker threads and an
//!    optional power envelope — via the pure function [`arbitrate`]:
//!    weighted water-filling with largest-remainder rounding over each
//!    tenant's *declared useful width* (a [`DemandProfile`]),
//!    latency-over-batch preemption, and a marginal-utility transfer pass
//!    that moves threads from the tenant whose last thread buys the least
//!    to the tenant whose next thread buys the most;
//! 5. **actuates** by writing each tenant's thread knob through the
//!    *tenant's* journal (actor `"arbiter"`), and mirrors the decision
//!    into its own governor registry (knob `"t<i>.threads"`, actor
//!    `"governor"`) so the machine-level audit trail is one flat
//!    journal.
//!
//! Mirrored per-tenant gauges (`"t<i>.pressure"`, `"t<i>.rate"`) are
//! registered stamped on the governor's introspection, so a governor
//! snapshot stays delta-cheap while idle tenants sit still.
//!
//! ## Invariants
//!
//! * Σ allocations ≤ `total_threads` after every admit, evict, and
//!   control round (admission panics rather than oversubscribe floors).
//! * Every allocation lies within the tenant's `[min_threads,
//!   max_threads]`.
//! * A quarantined tenant holds exactly its floor until quarantine
//!   expires.

use crate::event::TaskId;
use crate::instance::LookingGlass;
use crate::journal::ActuationJournal;
use crate::knob::{AtomicKnob, KnobId, KnobSpec};
use crate::snapshot::{completed_rate, IntrospectionSnapshot, MetricId};
use crate::tenant::{SloClass, TenantId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Machine budgets and governor policy parameters.
#[derive(Clone, Debug)]
pub struct ArbiterConfig {
    /// Total worker threads the machine can host — the primary budget.
    pub total_threads: i64,
    /// Optional machine power envelope, watts. When the sum of tenant
    /// power gauges exceeds it, the effective thread budget shrinks
    /// proportionally (never below the sum of floors).
    pub power_cap_w: Option<f64>,
    /// Rounds a noisy tenant stays pinned to its floor after its
    /// watchdog rolls an actuation back.
    pub quarantine_rounds: u64,
    /// Whether latency-class tenants under pressure may preempt
    /// batch-class capacity down to batch floors.
    pub preemption: bool,
}

impl ArbiterConfig {
    /// A governor over `total_threads` with preemption on, quarantine of
    /// 8 rounds, and no power envelope.
    pub fn new(total_threads: i64) -> Self {
        assert!(total_threads >= 1, "machine must have at least one thread");
        Self {
            total_threads,
            power_cap_w: None,
            quarantine_rounds: 8,
            preemption: true,
        }
    }

    /// Sets the power envelope, watts.
    pub fn with_power_cap_w(mut self, cap: f64) -> Self {
        self.power_cap_w = Some(cap);
        self
    }

    /// Sets the quarantine duration in control rounds.
    pub fn with_quarantine_rounds(mut self, rounds: u64) -> Self {
        self.quarantine_rounds = rounds;
        self
    }

    /// Disables latency-over-batch preemption (pure weighted fair share).
    pub fn without_preemption(mut self) -> Self {
        self.preemption = false;
        self
    }
}

/// Which plane a [`DemandProfile`] came from. Purely descriptive for
/// pressure-shim tenants; for native publishers it gates the
/// marginal-utility transfer pass (legacy `Pressure` profiles carry no
/// utility signal and never participate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemandClass {
    /// Legacy scalar-pressure shim ([`DemandProfile::from_pressure`]).
    Pressure,
    /// Request-serving plane: queue depth + admission shed rate.
    Serve,
    /// DAG plane: ready-frontier width + critical-path tail.
    Dag,
    /// Throughput batch plane: occupancy / steal rate.
    Batch,
}

/// What one tenant tells the governor about its resource demand this
/// round — the typed replacement for the bare `metric / threshold`
/// pressure scalar.
///
/// The profile carries three orthogonal signals:
///
/// * `pressure` — how badly the tenant is missing its SLO (≥ 1 means
///   missing; keys latency-over-batch preemption exactly as before);
/// * `useful_width` — how many threads the tenant can *currently use*
///   (a serve plane's in-flight + queued headroom, a DAG plane's ready
///   frontier). Threads beyond it have zero marginal utility, so the
///   allocator caps the tenant there and re-shares the difference;
/// * `utility_up` / `utility_down` — the estimated marginal benefit of
///   one more thread and marginal cost of one fewer, in [0, 1]. The
///   transfer pass moves threads from the tenant whose last thread buys
///   the least to the tenant whose next thread buys the most.
#[derive(Clone, Copy, Debug)]
pub struct DemandProfile {
    /// SLO pressure ratio; ≥ 1 means the tenant is under pressure.
    pub pressure: f64,
    /// Parallelizable headroom: threads the tenant can use right now.
    /// `None` means unknown/unbounded (the tenant's ceiling applies).
    pub useful_width: Option<f64>,
    /// Marginal utility of +1 thread, in [0, 1].
    pub utility_up: f64,
    /// Marginal utility lost by −1 thread, in [0, 1].
    pub utility_down: f64,
    /// Which plane published this profile.
    pub class: DemandClass,
}

impl DemandProfile {
    /// The shim from the legacy scalar path: pressure only, no width,
    /// no utility signal. Tenants built with
    /// [`TenantSpec::with_pressure`] publish exactly this, so the
    /// allocator reproduces the old behaviour bit-for-bit.
    pub fn from_pressure(pressure: f64) -> Self {
        Self {
            pressure,
            useful_width: None,
            utility_up: 0.0,
            utility_down: 0.0,
            class: DemandClass::Pressure,
        }
    }

    /// A native profile whose utilities saturate against the declared
    /// width: `utility_up` is how much of one extra thread would still
    /// land inside `width` given the current `alloc`, `utility_down`
    /// how much of the last held thread is inside it. A tenant whose
    /// frontier is wider than its allocation reports
    /// `up = down = 1` (wants more, hurts to shrink); one allocated past
    /// its frontier reports `up = 0` and a fractional `down`.
    pub fn saturating(class: DemandClass, pressure: f64, width: f64, alloc: i64) -> Self {
        let width = width.max(0.0);
        let a = alloc.max(0) as f64;
        Self {
            pressure,
            useful_width: Some(width),
            utility_up: (width - a).clamp(0.0, 1.0),
            utility_down: (width - a + 1.0).clamp(0.0, 1.0),
            class,
        }
    }
}

impl Default for DemandProfile {
    fn default() -> Self {
        Self::from_pressure(0.0)
    }
}

/// Signature of a native demand publisher: the tenant's fresh snapshot
/// and current allocation in, a [`DemandProfile`] out.
pub type DemandProbe = Arc<dyn Fn(&IntrospectionSnapshot, i64) -> DemandProfile + Send + Sync>;

/// Declared identity and resource envelope of one tenant.
#[derive(Clone)]
pub struct TenantSpec {
    /// Human name for tables and traces.
    pub name: String,
    /// SLO class — keys the preemption rule.
    pub slo: SloClass,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
    /// Thread floor — quarantine and preemption never go below this.
    pub min_threads: i64,
    /// Thread ceiling.
    pub max_threads: i64,
    /// How the tenant's [`DemandProfile`] is produced each round
    /// ([`Self::with_demand_probe`], or the [`Self::with_pressure`] sugar
    /// over it). `None`: the tenant always reports the default profile.
    pub demand: Option<DemandProbe>,
    /// Optional power gauge (metric name in the tenant's introspection,
    /// watts) feeding the machine power envelope.
    pub power_metric: Option<String>,
}

impl TenantSpec {
    /// A tenant with weight 1 and a 1..=`max` thread envelope.
    ///
    /// # Panics
    /// Panics if `max_threads < 1`.
    pub fn new(name: impl Into<String>, slo: SloClass, max_threads: i64) -> Self {
        assert!(max_threads >= 1, "tenant needs at least one thread");
        Self {
            name: name.into(),
            slo,
            weight: 1,
            min_threads: 1,
            max_threads,
            demand: None,
            power_metric: None,
        }
    }

    /// Sets the fair-share weight (≥ 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "weight must be >= 1");
        self.weight = weight;
        self
    }

    /// Sets the thread floor (clamped to `1..=max_threads`).
    pub fn with_min_threads(mut self, min: i64) -> Self {
        self.min_threads = min.clamp(1, self.max_threads);
        self
    }

    /// Names a pressure metric (in the tenant's own introspection) and
    /// its SLO threshold: sugar for a probe publishing the pressure-only
    /// `DemandProfile::from_pressure(metric / threshold)`, with pressure 0
    /// until the tenant has registered the metric.
    ///
    /// # Panics
    /// Panics if `threshold` is not positive.
    pub fn with_pressure(self, metric: impl Into<String>, threshold: f64) -> Self {
        assert!(threshold > 0.0, "pressure threshold must be positive");
        let metric = metric.into();
        self.with_demand_probe(move |snap, _alloc| {
            DemandProfile::from_pressure(snap.value_by_name(&metric).unwrap_or(0.0) / threshold)
        })
    }

    /// Installs a native demand publisher: called each round with the
    /// tenant's fresh snapshot and current allocation.
    pub fn with_demand_probe(
        mut self,
        probe: impl Fn(&IntrospectionSnapshot, i64) -> DemandProfile + Send + Sync + 'static,
    ) -> Self {
        self.demand = Some(Arc::new(probe));
        self
    }

    /// Names the power gauge (watts).
    pub fn with_power_metric(mut self, metric: impl Into<String>) -> Self {
        self.power_metric = Some(metric.into());
        self
    }
}

impl fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The probe is a closure: show only whether one is installed.
        f.debug_struct("TenantSpec")
            .field("name", &self.name)
            .field("slo", &self.slo)
            .field("weight", &self.weight)
            .field("min_threads", &self.min_threads)
            .field("max_threads", &self.max_threads)
            .field("demand", &self.demand.as_ref().map(|_| "probe"))
            .field("power_metric", &self.power_metric)
            .finish()
    }
}

/// One tenant's observed state for a round of arbitration — the pure
/// input to [`arbitrate`], public so property tests can drive the
/// allocator directly.
#[derive(Clone, Debug)]
pub struct TenantObs {
    /// Fair-share weight.
    pub weight: u32,
    /// SLO class.
    pub slo: SloClass,
    /// Thread floor.
    pub min: i64,
    /// Thread ceiling.
    pub max: i64,
    /// The tenant's demand profile for this round.
    pub demand: DemandProfile,
    /// Observed power draw, watts (0 if the tenant has no power gauge).
    pub power_w: f64,
    /// Whether the tenant is currently quarantined (pinned to `min`).
    pub quarantined: bool,
}

impl TenantObs {
    /// The ceiling the allocator actually fills toward: the declared
    /// useful width (rounded up, clamped into `[min, max]`), or `max`
    /// when the tenant publishes no width.
    pub fn effective_cap(&self) -> i64 {
        match self.demand.useful_width {
            Some(w) if w.is_finite() => (w.ceil() as i64).clamp(self.min, self.max),
            _ => self.max,
        }
    }
}

/// What one control round decided.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// 1-based round counter.
    pub round: u64,
    /// Round timestamp, ns.
    pub t_ns: u64,
    /// Final per-tenant allocations, slot order.
    pub allocations: Vec<(TenantId, i64)>,
    /// Tenants in quarantine this round.
    pub quarantined: Vec<TenantId>,
    /// Knob writes performed (tenant + mirror).
    pub knob_writes: usize,
    /// Σ allocations — always ≤ the machine budget.
    pub total_allocated: i64,
}

/// A stamped mirror gauge on the governor's introspection: the stamp
/// only advances when the value changes, so idle tenants never dirty a
/// governor capture.
struct MirrorGauge {
    stamp: Arc<AtomicU64>,
    value: Arc<AtomicU64>,
}

impl MirrorGauge {
    fn new() -> Self {
        Self {
            stamp: Arc::new(AtomicU64::new(0)),
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    fn set(&self, v: f64) {
        let bits = v.to_bits();
        if self.value.swap(bits, Ordering::Relaxed) != bits {
            self.stamp.fetch_add(1, Ordering::Release);
        }
    }
}

struct TenantState {
    id: TenantId,
    spec: TenantSpec,
    lg: Arc<LookingGlass>,
    /// The tenant-side knob the allocation is written to.
    thread_knob: KnobId,
    /// Actor id for arbiter writes in the *tenant's* journal.
    actor: TaskId,
    /// Interned `"regression-watchdog"` in the tenant's journal, for
    /// rollback detection without string resolution.
    watchdog_actor: TaskId,
    /// Governor-side mirror knob `"t<i>.threads"`.
    mirror_knob: KnobId,
    /// Lazily resolved power metric id (tenants may register gauges
    /// after admission).
    power_id: Option<MetricId>,
    g_pressure: MirrorGauge,
    g_rate: MirrorGauge,
    g_width: MirrorGauge,
    /// Journal high-water mark: records at or below it were scanned.
    last_seq: u64,
    /// `(t_ns, total_completed)` at the last control round.
    last_reading: (u64, u64),
    /// Last observed demand/power (reused on admit/evict rebalance).
    demand: DemandProfile,
    power_w: f64,
    quarantine_left: u64,
    alloc: i64,
}

impl TenantState {
    fn obs(&self) -> TenantObs {
        TenantObs {
            weight: self.spec.weight,
            slo: self.spec.slo,
            min: self.spec.min_threads,
            max: self.spec.max_threads,
            demand: self.demand,
            power_w: self.power_w,
            quarantined: self.quarantine_left > 0,
        }
    }

    /// Re-evaluates the tenant's demand probe against a fresh snapshot
    /// and mirrors the result into the governor gauges.
    fn refresh_demand(&mut self, snap: &IntrospectionSnapshot) {
        self.demand = match &self.spec.demand {
            Some(probe) => probe(snap, self.alloc),
            None => DemandProfile::default(),
        };
        self.g_pressure.set(self.demand.pressure);
        // Width mirror: −1 encodes "unbounded" so the gauge stays still
        // for legacy tenants instead of oscillating on NaN bit patterns.
        self.g_width.set(self.demand.useful_width.unwrap_or(-1.0));
    }
}

#[derive(Default)]
struct Inner {
    slots: Vec<Option<TenantState>>,
    quarantine_entries: u64,
}

/// The machine-wide governor. See the [module docs](self) for the
/// control-round protocol and invariants.
pub struct Arbiter {
    lg: Arc<LookingGlass>,
    config: ArbiterConfig,
    governor_actor: TaskId,
    inner: Mutex<Inner>,
    round: AtomicU64,
}

impl Arbiter {
    /// Creates a governor over its own wall-clocked [`LookingGlass`].
    pub fn new(config: ArbiterConfig) -> Arc<Self> {
        let lg = LookingGlass::builder().build();
        Self::with_instance(config, lg)
    }

    /// Creates a governor over a caller-built instance (virtual clocks,
    /// trace capacity, …).
    pub fn with_instance(config: ArbiterConfig, lg: Arc<LookingGlass>) -> Arc<Self> {
        let governor_actor = lg.knobs().actor("governor");
        Arc::new(Self {
            lg,
            config,
            governor_actor,
            inner: Mutex::new(Inner::default()),
            round: AtomicU64::new(0),
        })
    }

    /// The governor's own looking-glass instance: its knob registry holds
    /// the `"t<i>.threads"` mirrors, its journal the machine-level audit
    /// trail, its introspection the per-tenant mirror gauges.
    pub fn lg(&self) -> &Arc<LookingGlass> {
        &self.lg
    }

    /// The configured budgets.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Control rounds run so far.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Times any tenant has *entered* quarantine.
    pub fn quarantine_entries(&self) -> u64 {
        self.inner.lock().quarantine_entries
    }

    /// A tenant's current allocation, if admitted.
    pub fn allocation(&self, id: TenantId) -> Option<i64> {
        let inner = self.inner.lock();
        inner.slots.get(id.0 as usize)?.as_ref().map(|s| s.alloc)
    }

    /// Manually quarantines a tenant for `rounds` control rounds (testing
    /// and operator intervention). Takes effect at the next round.
    pub fn quarantine(&self, id: TenantId, rounds: u64) -> bool {
        let mut inner = self.inner.lock();
        let found = match inner.slots.get_mut(id.0 as usize).and_then(|s| s.as_mut()) {
            Some(s) => {
                s.quarantine_left = rounds;
                true
            }
            None => false,
        };
        if found {
            inner.quarantine_entries += 1;
        }
        found
    }

    /// Admits a tenant: `thread_knob` names the knob in the *tenant's*
    /// registry through which its worker-thread count is governed (a
    /// pool's or a sim's `"thread_cap"`, a serve stage's
    /// `"serve.bulkhead_limit"`). Registers the governor-side mirror
    /// knob and gauges, then rebalances the whole fleet so the budget
    /// invariant holds immediately.
    ///
    /// # Panics
    /// Panics if the knob does not exist, or if admitting the tenant's
    /// floor would oversubscribe the machine (Σ floors > budget).
    pub fn admit(&self, lg: Arc<LookingGlass>, spec: TenantSpec, thread_knob: &str) -> TenantId {
        let thread_id = lg
            .knobs()
            .id(thread_knob)
            .unwrap_or_else(|| panic!("tenant '{}' has no knob '{thread_knob}'", spec.name));
        let actor = lg.knobs().actor("arbiter");
        let watchdog_actor = lg.knobs().actor("regression-watchdog");
        let t_ns = self.lg.now_ns();

        let mut inner = self.inner.lock();
        let floors: i64 = inner
            .slots
            .iter()
            .flatten()
            .map(|s| s.spec.min_threads)
            .sum();
        assert!(
            floors + spec.min_threads <= self.config.total_threads,
            "admitting '{}' would oversubscribe floors: {} + {} > {}",
            spec.name,
            floors,
            spec.min_threads,
            self.config.total_threads
        );

        let slot = match inner.slots.iter().position(|s| s.is_none()) {
            Some(i) => i,
            None => {
                inner.slots.push(None);
                inner.slots.len() - 1
            }
        };
        let id = TenantId(slot as u32);

        let mirror_spec = KnobSpec::new("threads", spec.min_threads, spec.max_threads)
            .with_unit("workers")
            .with_default(spec.min_threads)
            .scoped(id);
        let mirror_knob = self
            .lg
            .knobs()
            .register(AtomicKnob::new(mirror_spec, spec.min_threads));

        let g_pressure = MirrorGauge::new();
        let g_rate = MirrorGauge::new();
        let g_width = MirrorGauge::new();
        for (suffix, g) in [
            ("pressure", &g_pressure),
            ("rate", &g_rate),
            ("width", &g_width),
        ] {
            let value = g.value.clone();
            self.lg.introspection().register_gauge_stamped(
                &id.scoped(suffix),
                g.stamp.clone(),
                move || f64::from_bits(value.load(Ordering::Relaxed)),
            );
        }

        let power_id = spec
            .power_metric
            .as_ref()
            .and_then(|m| lg.introspection().metric_id(m));
        let last_seq = lg.knobs().journal().total_recorded();
        let mut state = TenantState {
            id,
            spec,
            lg,
            thread_knob: thread_id,
            actor,
            watchdog_actor,
            mirror_knob,
            power_id,
            g_pressure,
            g_rate,
            g_width,
            last_seq,
            last_reading: (t_ns, 0),
            demand: DemandProfile::default(),
            power_w: 0.0,
            quarantine_left: 0,
            alloc: 0,
        };
        // Close the stale-signal window: evaluate the tenant's demand
        // source against a fresh snapshot *before* the admit-time
        // rebalance, so a tenant arriving hot (pressure metric already
        // past its SLO, frontier already wide) is arbitrated on its real
        // signal rather than a zero placeholder.
        let snap = state.lg.introspection().capture(t_ns);
        state.refresh_demand(&snap);
        state.power_w = state.power_id.and_then(|id| snap.value(id)).unwrap_or(0.0);
        inner.slots[slot] = Some(state);
        self.rebalance_locked(&mut inner, t_ns);
        id
    }

    /// Evicts a tenant, returning its capacity to the pool and removing
    /// its governor-side mirror knob. The fleet is rebalanced before
    /// returning. Mirror gauges fall to zero but stay registered (the
    /// introspection has no deregistration; a re-admitted slot reuses
    /// them).
    pub fn evict(&self, id: TenantId) -> bool {
        let t_ns = self.lg.now_ns();
        let mut inner = self.inner.lock();
        let Some(state) = inner.slots.get_mut(id.0 as usize).and_then(|s| s.take()) else {
            return false;
        };
        state.g_pressure.set(0.0);
        state.g_rate.set(0.0);
        state.g_width.set(0.0);
        self.lg.knobs().deregister(state.mirror_knob);
        self.rebalance_locked(&mut inner, t_ns);
        true
    }

    /// Runs one control round at `t_ns`: step tenant engines, capture
    /// snapshots, refresh quarantine, arbitrate, actuate.
    pub fn control_round(&self, t_ns: u64) -> RoundReport {
        let round = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;

        for state in inner.slots.iter_mut().flatten() {
            state.lg.policy_engine().step(t_ns);
            let snap = state.lg.introspection().capture(t_ns);

            // Noisy-neighbour signal: new watchdog rollback records in
            // the tenant's journal since the last scan. The arbiter's own
            // writes never match (its actor, no `rollback_of`). The mark
            // advances only past the records this scan returned, so one
            // appended after it is seen next round.
            let fresh = state.lg.knobs().journal().raw_records_since(state.last_seq);
            state.last_seq = fresh.last().map_or(state.last_seq, |r| r.seq);
            let rollbacks = fresh
                .iter()
                .filter(|r| r.policy == state.watchdog_actor || r.rollback_of.is_some())
                .count();
            if rollbacks > 0 {
                if state.quarantine_left == 0 {
                    inner.quarantine_entries += 1;
                }
                state.quarantine_left = self.config.quarantine_rounds;
            } else {
                state.quarantine_left = state.quarantine_left.saturating_sub(1);
            }

            // Re-evaluate the demand probe and read the power gauge
            // (resolving a late-registered one lazily).
            state.refresh_demand(&snap);
            if state.power_id.is_none() {
                if let Some(m) = state.spec.power_metric.as_ref() {
                    state.power_id = state.lg.introspection().metric_id(m);
                }
            }
            state.power_w = state.power_id.and_then(|id| snap.value(id)).unwrap_or(0.0);

            let reading = (t_ns, snap.total_completed);
            let rate = completed_rate(state.last_reading, reading).unwrap_or(0.0);
            state.last_reading = reading;
            state.g_rate.set(rate);
        }

        let (allocations, quarantined, knob_writes) = self.rebalance_locked(inner, t_ns);
        let total_allocated = allocations.iter().map(|(_, a)| a).sum();
        RoundReport {
            round,
            t_ns,
            allocations,
            quarantined,
            knob_writes,
            total_allocated,
        }
    }

    /// Re-runs arbitration over the current observations and writes any
    /// changed allocations through both journals.
    fn rebalance_locked(
        &self,
        inner: &mut Inner,
        t_ns: u64,
    ) -> (Vec<(TenantId, i64)>, Vec<TenantId>, usize) {
        let obs: Vec<TenantObs> = inner.slots.iter().flatten().map(|s| s.obs()).collect();
        let allocs = arbitrate(&self.config, &obs);
        let mut writes = 0usize;

        let mut out = Vec::with_capacity(allocs.len());
        let mut quarantined = Vec::new();
        for (i, state) in inner.slots.iter_mut().flatten().enumerate() {
            let alloc = allocs[i];
            if state.quarantine_left > 0 {
                quarantined.push(state.id);
            }
            // Write when the allocation moved — and also re-assert a
            // quarantined tenant whose live knob drifted from its grant
            // (a tenant-local policy fighting the governor). Healthy
            // tenants keep knob autonomy between grant changes; a
            // quarantined one does not.
            let drifted = state.quarantine_left > 0
                && state.lg.knobs().value_id(state.thread_knob) != Some(alloc);
            if alloc != state.alloc || drifted {
                self.lg
                    .knobs()
                    .set_id_as(state.mirror_knob, alloc, self.governor_actor, t_ns);
                state
                    .lg
                    .knobs()
                    .set_id_as(state.thread_knob, alloc, state.actor, t_ns);
                state.alloc = alloc;
                writes += 2;
            }
            out.push((state.id, alloc));
        }
        (out, quarantined, writes)
    }
}

/// The pure allocator: weighted fair share over `[min, max]` envelopes
/// with water-filling, largest-remainder rounding, quarantine pinning,
/// an optional power envelope, latency-over-batch preemption, and a
/// demand-aware marginal-utility transfer pass.
///
/// Demand awareness enters in two places:
///
/// * each tenant's declared [`useful_width`](DemandProfile::useful_width)
///   caps how far the water-fill and preemption fill it — threads beyond
///   a tenant's ready frontier buy nothing, so they are re-shared toward
///   tenants that can still use them (or left unallocated when nobody
///   can: budget released, not burned);
/// * after the fill, threads migrate one at a time from the
///   non-quarantined tenant whose last thread has the lowest
///   [`utility_down`](DemandProfile::utility_down) to the one whose next
///   thread has the highest [`utility_up`](DemandProfile::utility_up),
///   while the gain is strict. Legacy
///   [`from_pressure`](DemandProfile::from_pressure) profiles carry no
///   utility signal and never participate, so an all-legacy input
///   reproduces the pressure-only allocator exactly.
///
/// Guarantees, for any input with Σ min ≤ `total_threads`:
/// * Σ result ≤ `config.total_threads`;
/// * `min ≤ result[i] ≤ max` for every tenant;
/// * quarantined tenants get exactly `min`;
/// * deterministic (pure function of its arguments).
pub fn arbitrate(config: &ArbiterConfig, obs: &[TenantObs]) -> Vec<i64> {
    if obs.is_empty() {
        return Vec::new();
    }
    let floors: i64 = obs.iter().map(|o| o.min).sum();
    let cap: Vec<i64> = obs.iter().map(|o| o.effective_cap()).collect();

    // Power envelope: scale the thread budget down toward the floors
    // when the fleet draws beyond the cap.
    let mut total = config.total_threads;
    if let Some(cap) = config.power_cap_w {
        let draw: f64 = obs.iter().map(|o| o.power_w).sum();
        if draw > cap && draw > 0.0 {
            total = ((total as f64) * cap / draw).floor() as i64;
        }
    }
    let total = total.clamp(floors, config.total_threads);

    // Quarantined tenants are pinned to their floor; the rest
    // water-fill the remaining budget by weight.
    let mut alloc: Vec<Option<i64>> = obs.iter().map(|o| o.quarantined.then_some(o.min)).collect();
    let mut budget = total - alloc.iter().flatten().sum::<i64>();

    // Water-filling: tenants whose weighted share falls below their
    // floor pin at the floor first (they shrink the budget the least and
    // protect the Σ-min feasibility invariant); only when no floor is
    // violated do over-ceiling tenants pin at their ceiling. Both kinds
    // of pin re-share the remaining budget among the rest.
    loop {
        let active: Vec<usize> = (0..obs.len()).filter(|&i| alloc[i].is_none()).collect();
        if active.is_empty() || budget <= 0 {
            for i in active {
                alloc[i] = Some(obs[i].min);
            }
            break;
        }
        let wsum: f64 = active.iter().map(|&i| obs[i].weight as f64).sum();
        let shares: Vec<(usize, f64)> = active
            .iter()
            .map(|&i| (i, budget as f64 * obs[i].weight as f64 / wsum))
            .collect();
        let under: Vec<usize> = shares
            .iter()
            .filter(|&&(i, s)| s < obs[i].min as f64)
            .map(|&(i, _)| i)
            .collect();
        if !under.is_empty() {
            for i in under {
                alloc[i] = Some(obs[i].min);
                budget -= obs[i].min;
            }
            continue;
        }
        let over: Vec<usize> = shares
            .iter()
            .filter(|&&(i, s)| s >= cap[i] as f64)
            .map(|&(i, _)| i)
            .collect();
        if !over.is_empty() {
            for i in over {
                alloc[i] = Some(cap[i]);
                budget -= cap[i];
            }
            continue;
        }
        // All fractional shares are interior: floor them and hand the
        // remainder out by largest fractional part (index tie-break).
        let mut rem: Vec<(usize, f64)> = Vec::with_capacity(active.len());
        let mut used = 0i64;
        for &i in &active {
            let share = budget as f64 * obs[i].weight as f64 / wsum;
            let base = share.floor() as i64;
            alloc[i] = Some(base.clamp(obs[i].min, cap[i]));
            used += alloc[i].unwrap();
            rem.push((i, share - share.floor()));
        }
        rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let mut leftover = budget - used;
        for (i, _) in rem {
            if leftover <= 0 {
                break;
            }
            let a = alloc[i].unwrap();
            if a < cap[i] {
                alloc[i] = Some(a + 1);
                leftover -= 1;
            }
        }
        break;
    }
    let mut alloc: Vec<i64> = alloc.into_iter().map(|a| a.unwrap()).collect();

    // Priority preemption: a latency tenant whose pressure signal is at
    // or past its SLO takes capacity from batch tenants (lowest weight
    // first), never below a batch floor, never above its own useful
    // width (a pressured tenant that cannot absorb more threads takes
    // nothing).
    if config.preemption {
        let mut donors: Vec<usize> = (0..obs.len())
            .filter(|&i| obs[i].slo == SloClass::Batch && !obs[i].quarantined)
            .collect();
        donors.sort_by_key(|&i| (obs[i].weight, i));
        for i in 0..obs.len() {
            if obs[i].slo != SloClass::Latency || obs[i].quarantined || obs[i].demand.pressure < 1.0
            {
                continue;
            }
            let mut need = cap[i] - alloc[i];
            for &d in &donors {
                if need <= 0 {
                    break;
                }
                let surplus = alloc[d] - obs[d].min;
                let take = surplus.min(need);
                if take > 0 {
                    alloc[d] -= take;
                    alloc[i] += take;
                    need -= take;
                }
            }
        }
    }

    // Marginal-utility transfer: among tenants that publish native
    // profiles, migrate single threads from the holder whose last thread
    // buys the least (`utility_down`) to the claimant whose next thread
    // buys the most (`utility_up`), while the move is a strict
    // improvement. One-way guards — a donor never receives back, a
    // receiver never donates — make every move final, so the pass
    // terminates and allocations cannot churn between equal-utility
    // tenants.
    if config.preemption {
        let eligible =
            |i: usize| obs[i].demand.class != DemandClass::Pressure && !obs[i].quarantined;
        let mut gave = vec![false; obs.len()];
        let mut took = vec![false; obs.len()];
        loop {
            let recv = (0..obs.len())
                .filter(|&i| eligible(i) && !gave[i] && alloc[i] < cap[i])
                .max_by(|&a, &b| {
                    obs[a]
                        .demand
                        .utility_up
                        .partial_cmp(&obs[b].demand.utility_up)
                        .unwrap()
                        .then(b.cmp(&a))
                });
            let Some(r) = recv else { break };
            let donor = (0..obs.len())
                .filter(|&i| i != r && eligible(i) && !took[i] && alloc[i] > obs[i].min)
                .min_by(|&a, &b| {
                    obs[a]
                        .demand
                        .utility_down
                        .partial_cmp(&obs[b].demand.utility_down)
                        .unwrap()
                        .then(a.cmp(&b))
                });
            let Some(d) = donor else { break };
            if obs[r].demand.utility_up <= obs[d].demand.utility_down + 1e-9 {
                break;
            }
            alloc[d] -= 1;
            alloc[r] += 1;
            gave[d] = true;
            took[r] = true;
        }
    }
    alloc
}

/// Fold an actuation journal into each knob's final value — the replay
/// check used to prove the journal is a faithful history: for every
/// knob the journal still covers, the last record's `to` must equal the
/// registry's live value.
pub fn replay_final_values(journal: &ActuationJournal) -> Vec<(String, i64)> {
    let mut last: Vec<(String, i64)> = Vec::new();
    for rec in journal.records() {
        match last.iter_mut().find(|(k, _)| *k == rec.knob) {
            Some((_, v)) => *v = rec.to,
            None => last.push((rec.knob.clone(), rec.to)),
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::knob::{AtomicKnob, KnobRegistry};

    fn obs(weight: u32, slo: SloClass, min: i64, max: i64) -> TenantObs {
        TenantObs {
            weight,
            slo,
            min,
            max,
            demand: DemandProfile::default(),
            power_w: 0.0,
            quarantined: false,
        }
    }

    #[test]
    fn fair_share_follows_weights() {
        let cfg = ArbiterConfig::new(32);
        let o = vec![
            obs(1, SloClass::Batch, 1, 32),
            obs(3, SloClass::Batch, 1, 32),
        ];
        let a = arbitrate(&cfg, &o);
        assert_eq!(a.iter().sum::<i64>(), 32);
        assert_eq!(a, vec![8, 24]);
    }

    #[test]
    fn envelope_clamps_and_redistributes() {
        let cfg = ArbiterConfig::new(32);
        let o = vec![
            obs(1, SloClass::Batch, 1, 4), // ceiling far below fair share
            obs(1, SloClass::Batch, 1, 32),
        ];
        let a = arbitrate(&cfg, &o);
        assert_eq!(a, vec![4, 28]);
    }

    #[test]
    fn quarantined_tenant_pinned_to_floor() {
        let cfg = ArbiterConfig::new(32);
        let mut o = vec![
            obs(1, SloClass::Batch, 2, 32),
            obs(1, SloClass::Latency, 1, 32),
        ];
        o[0].quarantined = true;
        let a = arbitrate(&cfg, &o);
        assert_eq!(a[0], 2);
        assert_eq!(a[1], 30);
    }

    #[test]
    fn pressure_preempts_batch_down_to_floor() {
        let cfg = ArbiterConfig::new(32);
        let mut o = vec![
            obs(1, SloClass::Latency, 1, 24),
            obs(1, SloClass::Batch, 4, 32),
        ];
        o[0].demand = DemandProfile::from_pressure(1.5);
        let a = arbitrate(&cfg, &o);
        assert_eq!(a, vec![24, 8]);
        assert_eq!(a.iter().sum::<i64>(), 32);
    }

    #[test]
    fn no_preemption_without_pressure_or_when_disabled() {
        let cfg = ArbiterConfig::new(32).without_preemption();
        let mut o = vec![
            obs(1, SloClass::Latency, 1, 32),
            obs(1, SloClass::Batch, 1, 32),
        ];
        o[0].demand = DemandProfile::from_pressure(2.0);
        let a = arbitrate(&cfg, &o);
        assert_eq!(a, vec![16, 16]);
    }

    #[test]
    fn useful_width_caps_the_fill_and_reshares() {
        let cfg = ArbiterConfig::new(32);
        let mut o = vec![
            obs(1, SloClass::Latency, 1, 32),
            obs(1, SloClass::Batch, 1, 32),
        ];
        // Tenant 0 can only use ~6 threads right now: its cap binds and
        // the difference flows to tenant 1.
        o[0].demand = DemandProfile::saturating(DemandClass::Serve, 0.0, 6.0, 0);
        let a = arbitrate(&cfg, &o);
        assert_eq!(a, vec![6, 26]);
        assert_eq!(a.iter().sum::<i64>(), 32);
    }

    #[test]
    fn narrow_frontiers_release_budget_instead_of_burning_it() {
        let cfg = ArbiterConfig::new(32);
        let mut o = vec![
            obs(1, SloClass::Batch, 1, 32),
            obs(1, SloClass::Batch, 1, 32),
        ];
        // Both tenants are in their tails: nobody can use more than a
        // few threads, so the governor leaves the rest unallocated.
        o[0].demand = DemandProfile::saturating(DemandClass::Dag, 0.0, 2.0, 0);
        o[1].demand = DemandProfile::saturating(DemandClass::Batch, 0.0, 3.0, 0);
        let a = arbitrate(&cfg, &o);
        assert_eq!(a, vec![2, 3]);
        assert!(a.iter().sum::<i64>() < 32);
    }

    #[test]
    fn utility_transfer_moves_threads_toward_the_wide_frontier() {
        let cfg = ArbiterConfig::new(8);
        let mut o = vec![obs(1, SloClass::Batch, 1, 8), obs(1, SloClass::Batch, 1, 8)];
        // Equal weights → 4/4 from water-filling. Tenant 0's last
        // thread buys almost nothing; tenant 1's next thread buys a lot.
        o[0].demand = DemandProfile {
            pressure: 0.0,
            useful_width: None,
            utility_up: 0.0,
            utility_down: 0.1,
            class: DemandClass::Batch,
        };
        o[1].demand = DemandProfile {
            pressure: 0.0,
            useful_width: None,
            utility_up: 0.9,
            utility_down: 0.9,
            class: DemandClass::Dag,
        };
        let a = arbitrate(&cfg, &o);
        // Threads migrate down to the donor's floor (utilities are this
        // round's declaration; the floor is the backstop), and the
        // one-way guards keep them from sloshing back.
        assert_eq!(a, vec![1, 7]);
        assert_eq!(a.iter().sum::<i64>(), 8);
    }

    #[test]
    fn legacy_pressure_profiles_never_enter_the_transfer_pass() {
        let cfg = ArbiterConfig::new(8);
        let mut o = vec![obs(1, SloClass::Batch, 1, 8), obs(1, SloClass::Batch, 1, 8)];
        // from_pressure carries no utility signal: the allocation must
        // be identical to plain weighted fair share.
        o[0].demand = DemandProfile::from_pressure(0.3);
        o[1].demand = DemandProfile::from_pressure(0.9);
        assert_eq!(arbitrate(&cfg, &o), vec![4, 4]);
    }

    #[test]
    fn power_cap_shrinks_budget_toward_floors() {
        let cfg = ArbiterConfig::new(32).with_power_cap_w(100.0);
        let mut o = vec![
            obs(1, SloClass::Batch, 2, 32),
            obs(1, SloClass::Batch, 2, 32),
        ];
        o[0].power_w = 100.0;
        o[1].power_w = 100.0;
        let a = arbitrate(&cfg, &o);
        // Draw is 2x the cap, so the effective budget halves to 16.
        assert_eq!(a.iter().sum::<i64>(), 16);
        // Floors always survive even at absurd draw.
        o[0].power_w = 1e9;
        let a = arbitrate(&cfg, &o);
        assert!(a.iter().sum::<i64>() >= 4);
        assert!(a.iter().all(|&x| x >= 2));
    }

    fn tenant_lg(clock: &Arc<VirtualClock>) -> Arc<LookingGlass> {
        LookingGlass::builder().clock(clock.clone()).build()
    }

    /// The current value of the knob registered as `name` (mirror knobs
    /// are named per tenant, so the tests look them up by name).
    fn value_of(knobs: &KnobRegistry, name: &str) -> Option<i64> {
        knobs.value_id(knobs.id(name)?)
    }

    fn cap_knob(lg: &LookingGlass, max: i64) -> crate::knob::KnobId {
        lg.knobs().register(AtomicKnob::new(
            KnobSpec::new("thread_cap", 1, max).with_unit("workers"),
            max,
        ))
    }

    #[test]
    fn admit_rebalances_and_mirrors() {
        let clock = Arc::new(VirtualClock::new());
        let gov = tenant_lg(&clock);
        let arb = Arbiter::with_instance(ArbiterConfig::new(32), gov);

        let a = tenant_lg(&clock);
        cap_knob(&a, 32);
        let ta = arb.admit(
            a.clone(),
            TenantSpec::new("a", SloClass::Batch, 32),
            "thread_cap",
        );
        assert_eq!(arb.allocation(ta), Some(32));
        assert_eq!(value_of(a.knobs(), "thread_cap"), Some(32));

        let b = tenant_lg(&clock);
        cap_knob(&b, 32);
        let tb = arb.admit(
            b.clone(),
            TenantSpec::new("b", SloClass::Batch, 32),
            "thread_cap",
        );
        // Fleet rebalanced: both halves, mirrors agree, budget held.
        assert_eq!(arb.allocation(ta), Some(16));
        assert_eq!(arb.allocation(tb), Some(16));
        assert_eq!(value_of(a.knobs(), "thread_cap"), Some(16));
        assert_eq!(value_of(arb.lg().knobs(), &ta.scoped("threads")), Some(16));
        assert_eq!(value_of(arb.lg().knobs(), &tb.scoped("threads")), Some(16));

        // Evict returns capacity to the survivor.
        assert!(arb.evict(ta));
        assert_eq!(arb.allocation(tb), Some(32));
        assert_eq!(value_of(b.knobs(), "thread_cap"), Some(32));
        assert_eq!(arb.lg().knobs().id(&ta.scoped("threads")), None);
    }

    #[test]
    fn control_round_reports_and_journals() {
        let clock = Arc::new(VirtualClock::new());
        let gov = tenant_lg(&clock);
        let arb = Arbiter::with_instance(ArbiterConfig::new(8), gov);
        let a = tenant_lg(&clock);
        cap_knob(&a, 8);
        let ta = arb.admit(
            a.clone(),
            TenantSpec::new("a", SloClass::Batch, 8),
            "thread_cap",
        );
        clock.advance_by(1_000_000);
        let r = arb.control_round(clock.now_ns());
        assert_eq!(r.round, 1);
        assert_eq!(r.allocations, vec![(ta, 8)]);
        assert_eq!(r.total_allocated, 8);
        assert!(r.quarantined.is_empty());
        // Arbiter writes went through the tenant's journal under the
        // "arbiter" actor, and the governor mirror under "governor".
        let tenant_recs = a.knobs().journal().records();
        assert!(tenant_recs.iter().any(|r| r.policy == "arbiter"));
        let gov_recs = arb.lg().knobs().journal().records();
        assert!(gov_recs.iter().any(|r| r.policy == "governor"));
    }

    #[test]
    fn rate_mirror_reads_completed_tasks_per_second() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(8), tenant_lg(&clock));
        let a = tenant_lg(&clock);
        cap_knob(&a, 8);
        let ta = arb.admit(
            a.clone(),
            TenantSpec::new("a", SloClass::Batch, 8),
            "thread_cap",
        );
        let rate = || {
            let snap = arb.lg().introspection().capture(clock.now_ns());
            snap.value_by_name(&ta.scoped("rate"))
        };
        for _ in 0..6 {
            drop(a.timer("work"));
        }
        clock.advance_by(2_000_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(rate(), Some(3.0), "6 tasks over 2 s");
        for _ in 0..5 {
            drop(a.timer("work"));
        }
        clock.advance_by(500_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(rate(), Some(10.0), "5 tasks over 0.5 s");
        // A second round at the same instant has no interval to rate.
        drop(a.timer("work"));
        arb.control_round(clock.now_ns());
        assert_eq!(rate(), Some(0.0));
    }

    #[test]
    fn watchdog_rollback_triggers_quarantine_and_expires() {
        let clock = Arc::new(VirtualClock::new());
        let gov = tenant_lg(&clock);
        let arb = Arbiter::with_instance(ArbiterConfig::new(16).with_quarantine_rounds(2), gov);
        let noisy = tenant_lg(&clock);
        cap_knob(&noisy, 16);
        let quiet = tenant_lg(&clock);
        cap_knob(&quiet, 16);
        let tn = arb.admit(
            noisy.clone(),
            TenantSpec::new("noisy", SloClass::Batch, 16).with_min_threads(2),
            "thread_cap",
        );
        let tq = arb.admit(
            quiet.clone(),
            TenantSpec::new("quiet", SloClass::Batch, 16),
            "thread_cap",
        );
        clock.advance_by(1_000_000);
        let r = arb.control_round(clock.now_ns());
        assert!(!r.quarantined.contains(&tn));

        // Simulate the tenant's watchdog undoing a local write.
        let j = noisy.knobs().journal();
        let wd = j.intern("regression-watchdog");
        let knob = j.intern("thread_cap");
        j.record_interned(clock.now_ns(), wd, knob, 16, 8, None);

        clock.advance_by(1_000_000);
        let r = arb.control_round(clock.now_ns());
        assert!(r.quarantined.contains(&tn));
        assert_eq!(r.quarantined, vec![tn]);
        // Quarantined tenant pinned to floor; sibling absorbs the slack.
        assert_eq!(arb.allocation(tn), Some(2));
        assert_eq!(arb.allocation(tq), Some(14));

        // Quarantine expires after the configured rounds.
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        clock.advance_by(1_000_000);
        let r = arb.control_round(clock.now_ns());
        assert!(!r.quarantined.contains(&tn));
        assert_eq!(arb.allocation(tn), Some(8));
        assert_eq!(arb.quarantine_entries(), 1);
    }

    #[test]
    fn rollback_journaled_after_the_scan_is_seen_next_round() {
        // A watchdog record that lands after a round's journal scan (here
        // from the demand probe, which runs between the scan and the
        // rebalance) quarantines the tenant on the next round.
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(16), tenant_lg(&clock));
        let noisy = tenant_lg(&clock);
        cap_knob(&noisy, 16);
        let journal = noisy.knobs().journal().clone();
        let calls = AtomicU64::new(0);
        let spec = TenantSpec::new("noisy", SloClass::Batch, 16).with_demand_probe(move |_, _| {
            // Call 0 is admission's; call 1 runs inside the first round.
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                journal.record(0, "regression-watchdog", "thread_cap", 16, 8);
            }
            DemandProfile::default()
        });
        let tn = arb.admit(noisy.clone(), spec, "thread_cap");
        clock.advance_by(1_000_000);
        assert!(!arb.control_round(clock.now_ns()).quarantined.contains(&tn));
        clock.advance_by(1_000_000);
        assert!(arb.control_round(clock.now_ns()).quarantined.contains(&tn));
    }

    #[test]
    fn quarantine_reasserts_floor_when_tenant_fights_back() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(
            ArbiterConfig::new(16).with_quarantine_rounds(4),
            tenant_lg(&clock),
        );
        let noisy = tenant_lg(&clock);
        let noisy_cap = cap_knob(&noisy, 16);
        let quiet = tenant_lg(&clock);
        cap_knob(&quiet, 16);
        let tn = arb.admit(
            noisy.clone(),
            TenantSpec::new("noisy", SloClass::Batch, 16).with_min_threads(2),
            "thread_cap",
        );
        arb.admit(
            quiet,
            TenantSpec::new("quiet", SloClass::Batch, 16),
            "thread_cap",
        );
        // A watchdog rollback lands the tenant in quarantine at its floor.
        let j = noisy.knobs().journal();
        let wd = j.intern("regression-watchdog");
        let knob = j.intern("thread_cap");
        j.record_interned(clock.now_ns(), wd, knob, 16, 8, None);
        clock.advance_by(1_000_000);
        let r = arb.control_round(clock.now_ns());
        assert!(r.quarantined.contains(&tn));
        assert_eq!(value_of(noisy.knobs(), "thread_cap"), Some(2));

        // A greedy tenant-local policy grabs threads back between rounds.
        noisy.knobs().set_id(noisy_cap, 12);
        assert_eq!(value_of(noisy.knobs(), "thread_cap"), Some(12));
        // The allocation hasn't moved (still pinned to the floor), but the
        // next round must re-assert it anyway: quarantine revokes knob
        // autonomy.
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(arb.allocation(tn), Some(2));
        assert_eq!(value_of(noisy.knobs(), "thread_cap"), Some(2));
    }

    #[test]
    fn pressure_metric_drives_preemption_in_rounds() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(32), tenant_lg(&clock));
        let serve = tenant_lg(&clock);
        cap_knob(&serve, 24);
        let p99 = Arc::new(AtomicU64::new(0));
        let p = p99.clone();
        serve
            .introspection()
            .register_gauge("p99_ns", move || p.load(Ordering::Relaxed) as f64);
        let batch = tenant_lg(&clock);
        cap_knob(&batch, 32);
        let ts = arb.admit(
            serve.clone(),
            TenantSpec::new("serve", SloClass::Latency, 24).with_pressure("p99_ns", 10_000_000.0),
            "thread_cap",
        );
        let tb = arb.admit(
            batch.clone(),
            TenantSpec::new("batch", SloClass::Batch, 32).with_min_threads(4),
            "thread_cap",
        );
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(arb.allocation(ts), Some(16));

        // p99 blows past the SLO: serve preempts batch down to its floor.
        p99.store(25_000_000, Ordering::Relaxed);
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(arb.allocation(ts), Some(24));
        assert_eq!(arb.allocation(tb), Some(8));

        // Pressure subsides: fair share returns.
        p99.store(1_000_000, Ordering::Relaxed);
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(arb.allocation(ts), Some(16));
        assert_eq!(arb.allocation(tb), Some(16));
        // The governor snapshot mirrors the fleet under scoped names.
        let snap = arb.lg().introspection().capture(clock.now_ns());
        assert!(snap.value_scoped(ts, "pressure").unwrap() < 1.0);
    }

    #[test]
    fn admit_evaluates_demand_before_first_rebalance() {
        // Regression: a tenant admitted with its pressure metric already
        // past the SLO used to be seeded with pressure 0.0 and wait a
        // full control round before preempting. The admit-time rebalance
        // must see the live signal.
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(32), tenant_lg(&clock));
        let batch = tenant_lg(&clock);
        cap_knob(&batch, 32);
        let tb = arb.admit(
            batch,
            TenantSpec::new("batch", SloClass::Batch, 32).with_min_threads(4),
            "thread_cap",
        );
        let serve = tenant_lg(&clock);
        cap_knob(&serve, 24);
        let p99 = Arc::new(AtomicU64::new(25_000_000));
        let p = p99.clone();
        serve
            .introspection()
            .register_gauge("p99_ns", move || p.load(Ordering::Relaxed) as f64);
        let ts = arb.admit(
            serve,
            TenantSpec::new("serve", SloClass::Latency, 24).with_pressure("p99_ns", 10_000_000.0),
            "thread_cap",
        );
        // No control round has run, yet the hot tenant already preempted.
        assert_eq!(arb.allocation(ts), Some(24));
        assert_eq!(arb.allocation(tb), Some(8));
    }

    #[test]
    fn pressure_sugar_reads_zero_until_the_metric_is_registered() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(32), tenant_lg(&clock));
        let serve = tenant_lg(&clock);
        cap_knob(&serve, 24);
        let spec =
            TenantSpec::new("serve", SloClass::Latency, 24).with_pressure("p99_ns", 10_000_000.0);
        assert!(format!("{spec:?}").contains("demand: Some(\"probe\")"));
        let ts = arb.admit(serve.clone(), spec, "thread_cap");
        let pressure = |arb: &Arbiter| {
            let snap = arb.lg().introspection().capture(clock.now_ns());
            snap.value_scoped(ts, "pressure")
        };
        // Admitted, and one round run, before the tenant has the metric.
        assert_eq!(pressure(&arb), Some(0.0));
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(pressure(&arb), Some(0.0));
        // The metric appears: the very next round publishes metric / SLO,
        // as a pressure-only profile (no width, so the mirror stays −1).
        serve
            .introspection()
            .register_gauge("p99_ns", || 25_000_000.0);
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(pressure(&arb), Some(2.5));
        let snap = arb.lg().introspection().capture(clock.now_ns());
        assert_eq!(snap.value_scoped(ts, "width"), Some(-1.0));
    }

    #[test]
    fn demand_probe_feeds_native_profile_through_rounds() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(32), tenant_lg(&clock));
        let legacy = tenant_lg(&clock);
        cap_knob(&legacy, 32);
        let tl = arb.admit(
            legacy,
            TenantSpec::new("legacy", SloClass::Batch, 32),
            "thread_cap",
        );
        let dag = tenant_lg(&clock);
        cap_knob(&dag, 32);
        let width = Arc::new(AtomicU64::new(24));
        let w = width.clone();
        let td = arb.admit(
            dag,
            TenantSpec::new("dag", SloClass::Batch, 32).with_demand_probe(move |_snap, alloc| {
                DemandProfile::saturating(
                    DemandClass::Dag,
                    0.0,
                    w.load(Ordering::Relaxed) as f64,
                    alloc,
                )
            }),
            "thread_cap",
        );
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        // Wide frontier: the DAG tenant holds its fair share.
        assert_eq!(arb.allocation(td), Some(16));

        // Tail sets in: the frontier narrows, threads flow back.
        width.store(3, Ordering::Relaxed);
        clock.advance_by(1_000_000);
        arb.control_round(clock.now_ns());
        assert_eq!(arb.allocation(td), Some(3));
        assert_eq!(arb.allocation(tl), Some(29));
        // The governor mirrors the declared width.
        let snap = arb.lg().introspection().capture(clock.now_ns());
        assert_eq!(snap.value_scoped(td, "width"), Some(3.0));
    }

    #[test]
    fn replay_reproduces_final_knob_state() {
        let clock = Arc::new(VirtualClock::new());
        let arb = Arbiter::with_instance(ArbiterConfig::new(16), tenant_lg(&clock));
        let a = tenant_lg(&clock);
        cap_knob(&a, 16);
        arb.admit(
            a.clone(),
            TenantSpec::new("a", SloClass::Batch, 16),
            "thread_cap",
        );
        let b = tenant_lg(&clock);
        cap_knob(&b, 16);
        let tb = arb.admit(
            b.clone(),
            TenantSpec::new("b", SloClass::Batch, 16),
            "thread_cap",
        );
        for _ in 0..4 {
            clock.advance_by(1_000_000);
            arb.control_round(clock.now_ns());
        }
        arb.evict(tb);
        for lg in [&a, &b] {
            for (knob, v) in replay_final_values(lg.knobs().journal()) {
                assert_eq!(
                    value_of(lg.knobs(), &knob),
                    Some(v),
                    "replay mismatch on {knob}"
                );
            }
        }
    }
}
