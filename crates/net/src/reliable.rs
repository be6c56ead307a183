//! Reliable parcel delivery over a faulty [`SimLink`].
//!
//! [`ReliableLink`] layers sender-side recovery on the simulated link:
//!
//! * **Ack/timeout retransmission** — every wire message is tracked until
//!   an ack returns (one propagation latency after arrival). A message the
//!   fault plan swallowed times out and is retransmitted with exponential
//!   backoff plus seeded jitter (so replays are exact and retry herds
//!   decorrelate).
//! * **Per-destination retry budget** — a token bucket bounds retry
//!   *rate*: a retransmission consumes a token, and when the bucket is
//!   empty the retry is deferred to the next refill instead of amplifying
//!   a storm. The bucket capacity is the `retry_budget` knob.
//! * **Per-destination circuit breaker** — after `breaker_threshold`
//!   consecutive ack failures the destination is *open*: sends are parked
//!   until a cooldown passes, then a single half-open probe decides
//!   whether to close the breaker or re-open it.
//!
//! Everything runs in virtual time through an internal event queue, so a
//! caller drives it exactly like the rest of the simulation: `send` wire
//! messages as the coalescer emits them, then [`ReliableLink::pump`] (or
//! [`ReliableLink::drain`]) to advance recovery and collect deliveries.
//! The receiver side deduplicates by parcel sequence number, so callers
//! observe **exactly-once** delivery despite duplication faults and
//! spurious retransmits.
//!
//! `retry_budget` is an [`AtomicKnob`]: register it on a
//! [`lg_core::KnobRegistry`] and policies can steer recovery while a storm
//! is in progress. `backoff_base_ns` and `breaker_threshold` are plain
//! [`ReliableConfig`] values, fixed for the link's life. The layer's
//! live recovery *state* — how many breakers are open or probing, how
//! full the retry buckets are — is published through [`ReliableGauges`]:
//! call [`ReliableLink::bind_introspection`] and policies can read breaker
//! state and budget fill from the same [`lg_core::IntrospectionSnapshot`] they read
//! everything else from.
//!
//! Two load-control hooks serve admission layers above the link:
//! [`ReliableLink::shed`] records traffic an admission controller dropped
//! *before* it touched the wire (counted distinctly from faulted traffic,
//! consuming no retry budget), and [`ReliableLink::send_with_deadline`]
//! stops retransmitting a message whose deadline has passed — expired
//! parcels are counted apart from fault-driven abandonment.

use crate::coalesce::WireMessage;
use crate::cost::TransportCost;
use crate::fault::FaultPlan;
use crate::intmap::{IntMap, IntSet};
use crate::link::{Delivery, LinkReport, SimLink};
use crate::parcel::{LocalityId, Parcel};
use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::snapshot::Introspection;
use lg_core::Knob;
use lg_metrics::{ceil_u64, CounterHandle, CounterRegistry, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Parcel buffers kept for [`ReliableLink::spare_parcels`]; the rest are
/// freed, so the link's memory still follows what is in flight.
const SPARE_BUFFERS: usize = 256;

/// Static configuration for the reliability layer. `retry_budget` seeds
/// the knob of the same name; every other field is a plain value.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Sender-side ack timeout before a transmission counts as lost.
    pub ack_timeout_ns: u64,
    /// First retry backoff; doubles per attempt. Clamped to
    /// `1_000..=1_000_000_000`.
    pub backoff_base_ns: u64,
    /// Backoff ceiling.
    pub backoff_max_ns: u64,
    /// Jitter added to each backoff, as a fraction of the backoff.
    pub jitter_frac: f64,
    /// Attempts per message before the parcels are abandoned.
    pub max_attempts: u32,
    /// Token-bucket capacity for retries, per destination (the
    /// `retry_budget` knob).
    pub retry_budget: i64,
    /// Token refill rate, tokens per virtual second.
    pub retry_refill_per_sec: f64,
    /// Consecutive ack failures that open the breaker. Clamped to
    /// `1..=1_024`.
    pub breaker_threshold: i64,
    /// How long an open breaker parks a destination before the half-open
    /// probe.
    pub breaker_cooldown_ns: u64,
    /// Seeded jitter added to each breaker cooldown, as a fraction of the
    /// cooldown. Decorrelates half-open probes so breakers across
    /// destinations don't re-close (or re-open) in lockstep. Defaults to
    /// `0.0` (no jitter) so existing fault experiments replay bit-exactly;
    /// overload scenarios enable it (the serving stack uses `0.25`).
    pub breaker_jitter_frac: f64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            ack_timeout_ns: 200_000,
            backoff_base_ns: 50_000,
            backoff_max_ns: 5_000_000,
            jitter_frac: 0.25,
            max_attempts: 64,
            retry_budget: 32,
            retry_refill_per_sec: 10_000.0,
            breaker_threshold: 8,
            breaker_cooldown_ns: 2_000_000,
            breaker_jitter_frac: 0.0,
        }
    }
}

/// Aggregate statistics of the reliability layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReliableReport {
    /// Parcels offered through [`ReliableLink::send`].
    pub offered_parcels: u64,
    /// Parcels delivered exactly once (goodput numerator).
    pub unique_parcels: u64,
    /// Receiver-side duplicate copies suppressed by seq dedup.
    pub duplicates_suppressed: u64,
    /// Wire-message retransmissions performed.
    pub retransmissions: u64,
    /// Retry tokens consumed (equals retransmissions that paid a token).
    pub retries_consumed: u64,
    /// Retries deferred because the destination's bucket was empty.
    pub budget_deferrals: u64,
    /// Sends parked because the destination's breaker was open.
    pub breaker_rejections: u64,
    /// Times a breaker transitioned closed/half-open → open.
    pub breaker_open_events: u64,
    /// Acks received.
    pub acks: u64,
    /// Ack timeouts (failed transmissions detected).
    pub timeouts: u64,
    /// Parcels abandoned after `max_attempts` (fault-driven give-up).
    pub abandoned_parcels: u64,
    /// Parcels shed by an admission layer above the link: never offered
    /// to the wire, never retried (see [`ReliableLink::shed`]).
    pub shed_parcels: u64,
    /// Parcels whose retransmission stopped because their deadline
    /// passed (see [`ReliableLink::send_with_deadline`]) — distinct from
    /// `abandoned_parcels`, which is fault-driven.
    pub deadline_expired_parcels: u64,
    /// Arrival time of the last unique delivery.
    pub last_delivery_ns: u64,
    /// Mean offer→first-delivery latency over unique parcels, ns.
    pub mean_delivery_latency_ns: f64,
    /// 99th-percentile offer→first-delivery latency, ns.
    pub p99_delivery_latency_ns: u64,
}

impl ReliableReport {
    /// Unique parcels per second over the delivery makespan.
    pub fn goodput_parcels_per_sec(&self) -> f64 {
        if self.last_delivery_ns == 0 {
            0.0
        } else {
            self.unique_parcels as f64 * 1e9 / self.last_delivery_ns as f64
        }
    }

    /// Retransmissions per wire-offered parcel (retry amplification).
    ///
    /// Shed parcels never entered [`ReliableLink::send`], so they appear
    /// in neither numerator nor denominator: an admission layer that
    /// sheds aggressively cannot *dilute* the amplification of the
    /// traffic that did hit the wire. Deadline-expired parcels stay in
    /// the denominator — they were offered, and their pre-expiry retries
    /// are real wire load.
    pub fn retry_amplification(&self) -> f64 {
        if self.offered_parcels == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.offered_parcels as f64
        }
    }
}

/// Live recovery-state gauges of a [`ReliableLink`], shared via `Arc` so
/// the [`Introspection`] facade (and anything else) can read them while
/// the link is being driven. Values update on the link's own event paths,
/// so they are exact as of the link's last processed event.
#[derive(Debug, Default)]
pub struct ReliableGauges {
    breakers_open: AtomicI64,
    breakers_half_open: AtomicI64,
    budget_tokens_milli: AtomicI64,
    budget_capacity_milli: AtomicI64,
}

impl ReliableGauges {
    /// Destinations whose circuit breaker is currently open.
    pub fn breakers_open(&self) -> i64 {
        self.breakers_open.load(Ordering::Relaxed)
    }

    /// Destinations currently in the half-open (probing) state.
    fn breakers_half_open(&self) -> i64 {
        self.breakers_half_open.load(Ordering::Relaxed)
    }

    /// Aggregate retry-budget fill across destinations, in `[0, 1]`.
    /// `NaN` until any destination has needed a retry token (no buckets
    /// exist yet — a fault-free link never materialises one).
    fn budget_fill(&self) -> f64 {
        let cap = self.budget_capacity_milli.load(Ordering::Relaxed);
        if cap <= 0 {
            f64::NAN
        } else {
            self.budget_tokens_milli.load(Ordering::Relaxed) as f64 / cap as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
enum BreakerState {
    #[default]
    Closed,
    Open {
        until_ns: u64,
    },
    /// One probe is out; its ack or timeout decides.
    HalfOpen,
}

/// Recovery state of one destination, at `dests[dest]`: its circuit
/// breaker (closed with no failures, the default, behaves like none) and
/// its retry bucket.
#[derive(Default)]
struct DestState {
    state: BreakerState,
    consecutive_failures: i64,
    /// Materialised by the destination's first retry.
    bucket: Option<TokenBucket>,
}

impl DestState {
    /// Whether a transmission may proceed now; `Err(retry_at)` parks it.
    fn allow(&mut self, now_ns: u64) -> Result<(), u64> {
        match self.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until_ns } if now_ns < until_ns => Err(until_ns),
            BreakerState::Open { .. } => {
                self.state = BreakerState::HalfOpen;
                Ok(())
            }
            // A probe is already out; wait for its verdict.
            BreakerState::HalfOpen => Err(now_ns + 1),
        }
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Returns true if this failure opened the breaker.
    fn record_failure(&mut self, now_ns: u64, threshold: i64, cooldown_ns: u64) -> bool {
        self.consecutive_failures += 1;
        let opened = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= threshold,
            BreakerState::Open { .. } => false,
        };
        if opened {
            self.state = BreakerState::Open {
                until_ns: now_ns + cooldown_ns,
            };
        }
        opened
    }
}

struct TokenBucket {
    tokens: f64,
    last_refill_ns: u64,
}

impl TokenBucket {
    fn new(capacity: i64) -> Self {
        Self {
            tokens: capacity.max(0) as f64,
            last_refill_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64, capacity: f64, refill_per_ns: f64) {
        if now_ns > self.last_refill_ns {
            self.tokens =
                (self.tokens + (now_ns - self.last_refill_ns) as f64 * refill_per_ns).min(capacity);
            self.last_refill_ns = now_ns;
        }
        // A capacity knob lowered mid-run clamps immediately.
        self.tokens = self.tokens.min(capacity);
    }

    fn try_take(&mut self, now_ns: u64, capacity: f64, refill_per_ns: f64) -> bool {
        self.refill(now_ns, capacity, refill_per_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Earliest time at which a token will be available.
    fn next_ready_ns(&self, now_ns: u64, refill_per_ns: f64) -> u64 {
        if self.tokens >= 1.0 {
            now_ns
        } else if refill_per_ns <= 0.0 {
            u64::MAX
        } else {
            now_ns + ceil_u64((1.0 - self.tokens) / refill_per_ns)
        }
    }
}

#[derive(Debug)]
enum EventKind {
    /// (Re)attempt transmission of a pending message.
    Attempt { entry: usize },
    /// A copy of `entry`'s parcel `seq` lands at the event's time (a whole
    /// `Delivery` would widen every event by 16 bytes, a cost per send).
    Arrive { entry: usize, dest: u32, seq: u64 },
    /// The ack for attempt `attempt` of `entry` returns.
    Ack { entry: usize, attempt: u32 },
    /// The ack timer for attempt `attempt` of `entry` fires.
    Timeout { entry: usize, attempt: u32 },
}

struct Event {
    t_ns: u64,
    id: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.t_ns == other.t_ns && self.id == other.id
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Min-heap by (time, insertion id): deterministic tie-breaking.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.t_ns, other.id).cmp(&(self.t_ns, self.id))
    }
}

struct PendingMsg {
    /// The parcels are released when the entry resolves.
    msg: WireMessage,
    attempts: u32,
    resolved: bool,
    /// Sender-side retransmission deadline; `u64::MAX` = none.
    deadline_ns: u64,
}

#[derive(Clone, Default)]
struct MetricHandles {
    retransmissions: Option<CounterHandle>,
    timeouts: Option<CounterHandle>,
    acks: Option<CounterHandle>,
    unique: Option<CounterHandle>,
    dup_suppressed: Option<CounterHandle>,
    abandoned: Option<CounterHandle>,
    shed: Option<CounterHandle>,
    deadline_expired: Option<CounterHandle>,
    breaker_open: Option<CounterHandle>,
    breaker_rejections: Option<CounterHandle>,
    budget_deferrals: Option<CounterHandle>,
}

/// Ack/timeout retransmission, retry budgets, and circuit breakers over a
/// (possibly fault-injected) [`SimLink`]. See the module docs.
pub struct ReliableLink {
    link: SimLink,
    config: ReliableConfig,
    retry_budget_knob: Arc<AtomicKnob>,
    rng: StdRng,
    /// Dedicated stream for breaker-cooldown jitter, so opening a breaker
    /// never perturbs the backoff-jitter replay of everything else.
    breaker_rng: StdRng,
    events: BinaryHeap<Event>,
    next_event_id: u64,
    pending: Vec<PendingMsg>,
    /// Kept until the seq is delivered *and* its entry resolved.
    offer_times: IntMap<u64>,
    delivered_seqs: IntSet,
    /// The buffer every transmission fills; empty between attempts.
    transmitted: Vec<Delivery>,
    /// Emptied parcel buffers of resolved messages, lent to new ones.
    spare_parcels: Vec<Vec<Parcel>>,
    /// Indexed by destination: locality ids are dense node indices.
    dests: Vec<DestState>,
    latency_hist: Histogram,
    latency_sum: f64,
    report: ReliableReport,
    metrics: MetricHandles,
    gauges: Arc<ReliableGauges>,
}

impl ReliableLink {
    /// Wraps a fault-free link. `seed` drives backoff jitter.
    pub fn new(cost: TransportCost, config: ReliableConfig, seed: u64) -> Self {
        Self::over(SimLink::new(cost), config, seed)
    }

    /// Wraps a fault-injected link.
    pub fn with_faults(
        cost: TransportCost,
        plan: FaultPlan,
        config: ReliableConfig,
        seed: u64,
    ) -> Self {
        Self::over(SimLink::with_faults(cost, plan), config, seed)
    }

    /// Wraps an existing link.
    pub fn over(link: SimLink, mut config: ReliableConfig, seed: u64) -> Self {
        assert!(config.ack_timeout_ns > 0, "ack timeout must be positive");
        assert!(config.max_attempts > 0, "at least one attempt is required");
        config.backoff_base_ns = config.backoff_base_ns.clamp(1_000, 1_000_000_000);
        config.breaker_threshold = config.breaker_threshold.clamp(1, 1_024);
        let budget = KnobSpec::new("retry_budget", 0, 4_096)
            .with_unit("tokens")
            .with_default(config.retry_budget);
        Self {
            link,
            config,
            retry_budget_knob: AtomicKnob::new(budget, config.retry_budget),
            rng: StdRng::seed_from_u64(seed),
            breaker_rng: StdRng::seed_from_u64(seed ^ 0x5bd1_e995),
            events: BinaryHeap::new(),
            next_event_id: 0,
            pending: Vec::new(),
            offer_times: IntMap::default(),
            delivered_seqs: IntSet::default(),
            transmitted: Vec::new(),
            spare_parcels: Vec::new(),
            dests: Vec::new(),
            latency_hist: Histogram::new(),
            latency_sum: 0.0,
            report: ReliableReport::default(),
            metrics: MetricHandles::default(),
            gauges: Arc::new(ReliableGauges::default()),
        }
    }

    /// The retry-budget knob (token-bucket capacity per destination).
    pub fn retry_budget_knob(&self) -> &Arc<AtomicKnob> {
        &self.retry_budget_knob
    }

    /// The layer's live recovery-state gauges (breaker counts, aggregate
    /// retry-budget fill). Cheap to clone and read from anywhere.
    pub fn gauges(&self) -> &Arc<ReliableGauges> {
        &self.gauges
    }

    /// Registers the recovery-state gauges on the introspection facade,
    /// so policies see breaker state and budget fill in every
    /// [`IntrospectionSnapshot`](lg_core::IntrospectionSnapshot):
    ///
    /// * `net.reliable.breakers_open` — destinations with an open breaker
    /// * `net.reliable.breakers_half_open` — destinations mid-probe
    /// * `net.reliable.budget_fill` — aggregate token fill in `[0, 1]`
    ///   (absent until any destination has needed a retry token)
    pub fn bind_introspection(&self, intro: &Introspection) {
        let g = self.gauges.clone();
        intro.register_gauge("net.reliable.breakers_open", move || {
            g.breakers_open() as f64
        });
        let g = self.gauges.clone();
        intro.register_gauge("net.reliable.breakers_half_open", move || {
            g.breakers_half_open() as f64
        });
        let g = self.gauges.clone();
        intro.register_gauge("net.reliable.budget_fill", move || g.budget_fill());
    }

    /// Publishes the layer's counters into `reg` under `net.reliable.*`.
    ///
    /// Send-path counters (bumped per parcel or per retransmission round)
    /// are striped so concurrent senders never contend on a shared cache
    /// line; the rare failure/breaker counters stay single-cell.
    pub fn bind_metrics(&mut self, reg: &CounterRegistry) {
        self.metrics = MetricHandles {
            retransmissions: Some(reg.striped_counter("net.reliable.retransmissions")),
            timeouts: Some(reg.striped_counter("net.reliable.timeouts")),
            acks: Some(reg.striped_counter("net.reliable.acks")),
            unique: Some(reg.striped_counter("net.reliable.unique_parcels")),
            dup_suppressed: Some(reg.striped_counter("net.reliable.duplicates_suppressed")),
            abandoned: Some(reg.counter("net.reliable.abandoned_parcels")),
            shed: Some(reg.striped_counter("net.reliable.shed")),
            deadline_expired: Some(reg.striped_counter("net.reliable.deadline_expired")),
            breaker_open: Some(reg.counter("net.reliable.breaker_open_events")),
            breaker_rejections: Some(reg.counter("net.reliable.breaker_rejections")),
            budget_deferrals: Some(reg.counter("net.reliable.budget_deferrals")),
        };
    }

    /// Accepts a wire message for reliable delivery. `offer_time_of` maps
    /// each parcel seq to its original offer time (latency accounting,
    /// same contract as [`SimLink::transmit`]). Recovery runs when the
    /// caller next pumps past `msg.t_ns`.
    pub fn send(&mut self, msg: WireMessage, offer_time_of: impl Fn(u64) -> u64) {
        self.send_with_deadline(msg, u64::MAX, offer_time_of);
    }

    /// Like [`ReliableLink::send`], but retransmission stops once
    /// `deadline_ns` passes: an attempt (initial or retry) due at or
    /// after the deadline resolves the message as *deadline-expired*
    /// instead — counted in [`ReliableReport::deadline_expired_parcels`]
    /// and `net.reliable.deadline_expired`, distinct from fault-driven
    /// abandonment. Copies already in flight may still arrive (and count
    /// as unique deliveries); expiry is a sender-side stop, and the
    /// serving layer owns end-to-end deadline accounting.
    pub fn send_with_deadline(
        &mut self,
        msg: WireMessage,
        deadline_ns: u64,
        offer_time_of: impl Fn(u64) -> u64,
    ) {
        for p in &msg.parcels {
            self.offer_times.insert(p.seq, offer_time_of(p.seq));
        }
        self.report.offered_parcels += msg.parcels.len() as u64;
        let t = msg.t_ns;
        let entry = self.pending.len();
        self.pending.push(PendingMsg {
            msg,
            attempts: 0,
            resolved: false,
            deadline_ns,
        });
        self.schedule(t, EventKind::Attempt { entry });
    }

    /// An empty parcel buffer for the caller's next message: one a
    /// resolved message gave back, or a new one. Building the message in
    /// it saves the allocator call a fresh `Vec` makes per send.
    pub fn spare_parcels(&mut self) -> Vec<Parcel> {
        self.spare_parcels.pop().unwrap_or_default()
    }

    /// Records `msg` as shed by an admission layer above the link. The
    /// parcels never touch the wire, consume no retry budget, and are
    /// counted in [`ReliableReport::shed_parcels`] and the (striped)
    /// `net.reliable.shed` counter — distinct from every fault-driven
    /// loss class, so goodput accounting can tell "we chose not to serve
    /// this" apart from "the network ate it".
    pub fn shed(&mut self, msg: &WireMessage) {
        self.shed_parcels(msg.parcels.len() as u64);
    }

    /// [`ReliableLink::shed`] for a caller that never built the message.
    pub fn shed_parcels(&mut self, n: u64) {
        self.report.shed_parcels += n;
        if let Some(c) = &self.metrics.shed {
            c.add(n);
        }
    }

    /// Processes all recovery events up to and including `until_ns`,
    /// returning the unique deliveries that arrived (dedup'd by seq, in
    /// arrival order).
    pub fn pump(&mut self, until_ns: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.pump_into(until_ns, &mut out);
        out
    }

    /// [`ReliableLink::pump`] appending to a buffer the caller keeps.
    pub fn pump_into(&mut self, until_ns: u64, out: &mut Vec<Delivery>) {
        while let Some(ev) = self.events.peek() {
            if ev.t_ns > until_ns {
                break;
            }
            let ev = self.events.pop().unwrap();
            self.handle(ev, out);
        }
    }

    /// Runs recovery to completion (all sends delivered or abandoned).
    pub fn drain(&mut self) -> Vec<Delivery> {
        self.pump(u64::MAX)
    }

    /// Statistics of the reliability layer so far.
    pub fn report(&self) -> ReliableReport {
        let mut r = self.report.clone();
        r.mean_delivery_latency_ns = if r.unique_parcels == 0 {
            0.0
        } else {
            self.latency_sum / r.unique_parcels as f64
        };
        r.p99_delivery_latency_ns = self.latency_hist.p99();
        r
    }

    /// Statistics of the underlying raw link.
    pub fn link_report(&self) -> LinkReport {
        self.link.report()
    }

    fn schedule(&mut self, t_ns: u64, kind: EventKind) {
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.events.push(Event { t_ns, id, kind });
    }

    /// Runs `f` on `dest`'s breaker and moves the open / half-open
    /// gauges (which are the counts) by the transition it made, if any.
    fn with_breaker<R>(&mut self, dest: LocalityId, f: impl FnOnce(&mut DestState) -> R) -> R {
        let i = dest as usize;
        if i >= self.dests.len() {
            self.dests.resize_with(i + 1, DestState::default);
        }
        let before = self.dests[i].state;
        let r = f(&mut self.dests[i]);
        let after = self.dests[i].state;
        if std::mem::discriminant(&before) != std::mem::discriminant(&after) {
            for (state, by) in [(before, -1), (after, 1)] {
                match state {
                    BreakerState::Open { .. } => &self.gauges.breakers_open,
                    BreakerState::HalfOpen => &self.gauges.breakers_half_open,
                    BreakerState::Closed => continue,
                }
                .fetch_add(by, Ordering::Relaxed);
            }
        }
        r
    }

    /// Republishes aggregate token fill after any bucket activity,
    /// folding in ascending destination order so a same-seed replay
    /// publishes the same last bit.
    fn publish_budget_gauges(&self) {
        let capacity = self.retry_budget_knob.get().max(0) as f64;
        let (mut tokens, mut total_cap) = (0.0, 0.0);
        for bucket in self.dests.iter().filter_map(|d| d.bucket.as_ref()) {
            tokens += bucket.tokens.min(capacity);
            total_cap += capacity;
        }
        self.gauges
            .budget_tokens_milli
            .store((tokens * 1e3) as i64, Ordering::Relaxed);
        self.gauges
            .budget_capacity_milli
            .store((total_cap * 1e3) as i64, Ordering::Relaxed);
    }

    /// `base` plus seeded jitter up to `frac` of it (none drawn at zero).
    fn jittered(rng: &mut StdRng, base: u64, frac: f64) -> u64 {
        match (base as f64 * frac) as u64 {
            0 => base,
            jitter_max => base + rng.gen_range(0..=jitter_max),
        }
    }

    /// Breaker cooldown with seeded jitter from the dedicated stream, so
    /// destinations that trip together probe (and re-close) apart.
    fn jittered_cooldown(&mut self) -> u64 {
        let c = self.config;
        let (base, frac) = (c.breaker_cooldown_ns, c.breaker_jitter_frac);
        Self::jittered(&mut self.breaker_rng, base, frac)
    }

    /// Marks `entry` resolved, releasing its parcels (stale events read
    /// `resolved` and `attempts` only; the emptied buffer is kept as a
    /// spare) and the offer times of delivered seqs (`Arrive` drops a
    /// late copy's). Returns the parcel count.
    fn resolve(&mut self, entry: usize) -> u64 {
        let p = &mut self.pending[entry];
        p.resolved = true;
        let mut parcels = std::mem::take(&mut p.msg.parcels);
        for parcel in &parcels {
            if self.delivered_seqs.contains(&parcel.seq) {
                self.offer_times.remove(&parcel.seq);
            }
        }
        let n = parcels.len() as u64;
        if parcels.capacity() > 0 && self.spare_parcels.len() < SPARE_BUFFERS {
            parcels.clear();
            self.spare_parcels.push(parcels);
        }
        n
    }

    /// Resolves a pending message as abandoned (fault-driven give-up).
    fn abandon(&mut self, entry: usize) {
        let n = self.resolve(entry);
        self.report.abandoned_parcels += n;
        if let Some(c) = &self.metrics.abandoned {
            c.add(n);
        }
    }

    /// Resolves a pending message as deadline-expired (sender stops
    /// retransmitting; distinct from fault-driven abandonment).
    fn expire(&mut self, entry: usize) {
        let n = self.resolve(entry);
        self.report.deadline_expired_parcels += n;
        if let Some(c) = &self.metrics.deadline_expired {
            c.add(n);
        }
    }

    fn handle(&mut self, ev: Event, out: &mut Vec<Delivery>) {
        let now = ev.t_ns;
        match ev.kind {
            EventKind::Attempt { entry } => self.attempt(entry, now),
            EventKind::Arrive { entry, dest, seq } => {
                let d = Delivery {
                    dest,
                    seq,
                    arrived_ns: now,
                };
                if self.delivered_seqs.insert(d.seq) {
                    self.report.unique_parcels += 1;
                    self.report.last_delivery_ns = self.report.last_delivery_ns.max(d.arrived_ns);
                    // A resolved entry transmits no more.
                    let offered = if self.pending[entry].resolved {
                        self.offer_times.remove(&d.seq)
                    } else {
                        self.offer_times.get(&d.seq).copied()
                    };
                    let lat = d.arrived_ns.saturating_sub(offered.unwrap_or(d.arrived_ns));
                    self.latency_hist.record(lat);
                    self.latency_sum += lat as f64;
                    if let Some(c) = &self.metrics.unique {
                        c.inc();
                    }
                    out.push(d);
                } else {
                    self.report.duplicates_suppressed += 1;
                    if let Some(c) = &self.metrics.dup_suppressed {
                        c.inc();
                    }
                }
            }
            EventKind::Ack { entry, attempt } => {
                let p = &self.pending[entry];
                if p.resolved || p.attempts != attempt {
                    return; // stale ack for a superseded attempt
                }
                let dest = p.msg.dest;
                self.resolve(entry);
                self.report.acks += 1;
                if let Some(c) = &self.metrics.acks {
                    c.inc();
                }
                self.with_breaker(dest, DestState::record_success);
            }
            EventKind::Timeout { entry, attempt } => {
                let p = &self.pending[entry];
                if p.resolved || p.attempts != attempt {
                    return; // the attempt was acked, or already superseded
                }
                let dest = p.msg.dest;
                self.report.timeouts += 1;
                if let Some(c) = &self.metrics.timeouts {
                    c.inc();
                }
                let threshold = self.config.breaker_threshold;
                let cooldown = self.jittered_cooldown();
                let opened =
                    self.with_breaker(dest, |b| b.record_failure(now, threshold, cooldown));
                if opened {
                    self.report.breaker_open_events += 1;
                    if let Some(c) = &self.metrics.breaker_open {
                        c.inc();
                    }
                }
                if attempt >= self.config.max_attempts {
                    self.abandon(entry);
                    return;
                }
                let backoff = self.backoff_ns(attempt);
                self.schedule(now + backoff, EventKind::Attempt { entry });
            }
        }
    }

    /// Exponential backoff for the retry after `attempts` tries, with
    /// seeded jitter.
    fn backoff_ns(&mut self, attempts: u32) -> u64 {
        let base = self.config.backoff_base_ns;
        // Doubling per attempt, saturating instead of shifting bits out.
        let shift = attempts.saturating_sub(1).min(32);
        let doubled = if shift >= base.leading_zeros() {
            u64::MAX
        } else {
            base << shift
        };
        let exp = doubled.min(self.config.backoff_max_ns);
        Self::jittered(&mut self.rng, exp, self.config.jitter_frac)
    }

    fn attempt(&mut self, entry: usize, now: u64) {
        let p = &self.pending[entry];
        if p.resolved {
            return;
        }
        if now >= p.deadline_ns {
            // Past the deadline there is no point transmitting: the receiver
            // would discard the result anyway, and the retry would only feed
            // the overload. Expired is accounted separately from faulted.
            self.expire(entry);
            return;
        }
        let (dest, is_retry) = (p.msg.dest, p.attempts > 0);
        // Circuit breaker gate (`allow` may flip Open -> HalfOpen).
        if let Err(retry_at) = self.with_breaker(dest, |b| b.allow(now)) {
            self.report.breaker_rejections += 1;
            if let Some(c) = &self.metrics.breaker_rejections {
                c.inc();
            }
            // Park at least a quarter ack-timeout: a storm backlog can
            // leave thousands of messages waiting on one half-open
            // probe, and a finer poll would melt the event queue.
            let poll = (self.config.ack_timeout_ns / 4).max(1);
            self.schedule(retry_at.max(now + poll), EventKind::Attempt { entry });
            return;
        }
        // Retry budget gate: the first attempt is not a retry and rides
        // free; every retransmission pays a token.
        if is_retry {
            let capacity = self.retry_budget_knob.get().max(0) as f64;
            let refill = self.config.retry_refill_per_sec / 1e9;
            // `with_breaker` above made the destination's slot.
            let bucket = self.dests[dest as usize]
                .bucket
                .get_or_insert_with(|| TokenBucket::new(capacity as i64));
            if !bucket.try_take(now, capacity, refill) {
                let ready = bucket.next_ready_ns(now, refill);
                if ready == u64::MAX {
                    // Zero refill and an empty bucket: this retry can never
                    // proceed, so the message is abandoned rather than
                    // parked forever.
                    self.abandon(entry);
                    return;
                }
                self.report.budget_deferrals += 1;
                if let Some(c) = &self.metrics.budget_deferrals {
                    c.inc();
                }
                self.publish_budget_gauges();
                self.schedule(ready.max(now + 1), EventKind::Attempt { entry });
                return;
            }
            self.report.retries_consumed += 1;
            self.report.retransmissions += 1;
            if let Some(c) = &self.metrics.retransmissions {
                c.inc();
            }
            self.publish_budget_gauges();
        }
        // Transmit. The message departs now (not at its original flush
        // time) on retries.
        let p = &mut self.pending[entry];
        p.attempts += 1;
        let attempt = p.attempts;
        p.msg.t_ns = now.max(p.msg.t_ns);
        let (msg, offer_times) = (&p.msg, &self.offer_times);
        let mut transmitted = std::mem::take(&mut self.transmitted);
        let offer_time_of = |seq| offer_times.get(&seq).copied().unwrap_or(msg.t_ns);
        self.link.transmit(msg, offer_time_of, &mut transmitted);
        // One arrival event per delivery, earliest first (a duplicate may
        // land apart). A group landing together takes consecutive event
        // ids, so nothing runs between its deliveries.
        let mut last_arrival = None;
        for_each_arrival_group(&mut transmitted, |t, group| {
            last_arrival = Some(t);
            for &Delivery { dest, seq, .. } in group {
                self.schedule(t, EventKind::Arrive { entry, dest, seq });
            }
        });
        transmitted.clear();
        self.transmitted = transmitted;
        // The ack returns one propagation latency after the last copy
        // lands; the timeout still guards against an ack racing the timer.
        let timeout_at = now + self.config.ack_timeout_ns;
        match last_arrival.map(|t| t + self.link.cost().latency_ns) {
            Some(ack_at) if ack_at <= timeout_at => {
                self.schedule(ack_at, EventKind::Ack { entry, attempt });
            }
            // Swallowed by the fault plan (only the timer tells), or acked
            // too late: a spurious retransmit, which dedup absorbs.
            _ => self.schedule(timeout_at, EventKind::Timeout { entry, attempt }),
        }
    }
}

/// Hands one transmission's deliveries to `emit` grouped by arrival
/// time, earliest first, each group in transmission order. The buffer is
/// ordered in place: one group (nearly always) is left untouched; a
/// duplicate landing before its primary pays a stable sort.
fn for_each_arrival_group(deliveries: &mut [Delivery], mut emit: impl FnMut(u64, &[Delivery])) {
    if !deliveries.is_sorted_by_key(|d| d.arrived_ns) {
        deliveries.sort_by_key(|d| d.arrived_ns);
    }
    for group in deliveries.chunk_by(|a, b| a.arrived_ns == b.arrived_ns) {
        emit(group[0].arrived_ns, group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::FlushReason;
    use crate::parcel::Parcel;

    fn msg(dest: u32, t_ns: u64, seqs: std::ops::Range<u64>) -> WireMessage {
        WireMessage {
            dest,
            parcels: seqs
                .map(|s| Parcel::new(0, dest, 0, s, vec![0; 32]))
                .collect(),
            reason: FlushReason::Window,
            t_ns,
        }
    }

    fn quick_config() -> ReliableConfig {
        ReliableConfig {
            ack_timeout_ns: 50_000,
            backoff_base_ns: 10_000,
            backoff_max_ns: 500_000,
            ..ReliableConfig::default()
        }
    }

    #[test]
    fn fault_free_delivery_is_exact() {
        let mut rl = ReliableLink::new(TransportCost::cluster(), quick_config(), 1);
        for i in 0..10u64 {
            rl.send(msg(1, i * 10_000, i * 4..(i + 1) * 4), |_| i * 10_000);
        }
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 40);
        let r = rl.report();
        assert_eq!(r.unique_parcels, 40);
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.abandoned_parcels, 0);
        assert_eq!(r.acks, 10);
    }

    #[test]
    fn dropped_messages_are_retransmitted() {
        // First 200µs are an outage; the retry lands after it lifts.
        let plan = FaultPlan::new(0).outage(0, 200_000);
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 1);
        rl.send(msg(1, 0, 0..4), |_| 0);
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 4);
        let r = rl.report();
        assert_eq!(r.unique_parcels, 4);
        assert!(r.retransmissions >= 1);
        assert!(r.timeouts >= 1);
        assert_eq!(r.abandoned_parcels, 0);
    }

    #[test]
    fn duplicates_suppressed_at_receiver() {
        let plan = FaultPlan::new(3).duplicate_prob(1.0);
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 1);
        for i in 0..20u64 {
            rl.send(msg(1, i * 50_000, i..i + 1), |_| i * 50_000);
        }
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 20, "each parcel must surface exactly once");
        let r = rl.report();
        assert_eq!(r.unique_parcels, 20);
        assert_eq!(r.duplicates_suppressed, 20);
    }

    #[test]
    fn lossy_link_still_delivers_every_parcel_once() {
        let plan = FaultPlan::new(42)
            .drop_prob(0.4)
            .duplicate_prob(0.1)
            .jitter_ns(3_000);
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 7);
        let n = 100u64;
        for i in 0..n {
            rl.send(msg(1, i * 20_000, i * 2..(i + 1) * 2), |_| i * 20_000);
        }
        let delivered = rl.drain();
        let mut seqs: Vec<u64> = delivered.iter().map(|d| d.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), (n * 2) as usize, "every parcel exactly once");
        assert_eq!(rl.report().abandoned_parcels, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let plan = FaultPlan::new(5).drop_prob(0.3).jitter_ns(10_000);
            let mut rl =
                ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 9);
            for i in 0..50u64 {
                rl.send(msg(1 + (i % 3) as u32, i * 30_000, i..i + 1), |_| {
                    i * 30_000
                });
            }
            let delivered = rl.drain();
            (delivered, rl.report())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retry_budget_defers_when_exhausted() {
        // Zero refill and a 2-token bucket: a burst of lost messages must
        // defer retries rather than amplify.
        let plan = FaultPlan::new(1).outage(0, 1_000_000);
        let config = ReliableConfig {
            retry_budget: 2,
            retry_refill_per_sec: 1_000.0, // 1 token per ms
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 1);
        for i in 0..6u64 {
            rl.send(msg(1, 0, i..i + 1), |_| 0);
        }
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 6, "deferral must not lose parcels");
        let r = rl.report();
        assert!(r.budget_deferrals > 0, "bucket should have run dry");
        assert_eq!(r.abandoned_parcels, 0);
    }

    #[test]
    fn breaker_opens_and_recovers() {
        // Link dead for 1ms, then clean. Low threshold so the storm trips
        // the breaker, and the half-open probe must eventually close it.
        let plan = FaultPlan::new(2).outage(0, 1_000_000);
        let config = ReliableConfig {
            breaker_threshold: 3,
            breaker_cooldown_ns: 100_000,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 2);
        for i in 0..10u64 {
            rl.send(msg(1, i * 1_000, i..i + 1), |_| i * 1_000);
        }
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 10);
        let r = rl.report();
        assert!(r.breaker_open_events >= 1, "storm should trip the breaker");
        assert!(r.breaker_rejections >= 1, "open breaker should park sends");
        assert_eq!(r.abandoned_parcels, 0);
    }

    #[test]
    fn knobs_are_live() {
        let rl = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), 0);
        let reg = lg_core::KnobRegistry::new();
        let budget = reg.register(rl.retry_budget_knob().clone());
        assert_eq!(reg.value_id(budget), Some(32));
        reg.set_id(budget, 64);
        assert_eq!(rl.retry_budget_knob().get(), 64);
        reg.set_id(budget, 100_000); // clamped to spec max
        assert_eq!(rl.retry_budget_knob().get(), 4_096);
    }

    #[test]
    fn metrics_published_when_bound() {
        let plan = FaultPlan::new(4).drop_prob(0.5);
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 3);
        let reg = CounterRegistry::new();
        rl.bind_metrics(&reg);
        for i in 0..30u64 {
            rl.send(msg(1, i * 20_000, i..i + 1), |_| i * 20_000);
        }
        rl.drain();
        let r = rl.report();
        assert_eq!(
            reg.counter("net.reliable.unique_parcels").get(),
            r.unique_parcels
        );
        assert_eq!(
            reg.counter("net.reliable.retransmissions").get(),
            r.retransmissions
        );
        assert_eq!(reg.counter("net.reliable.acks").get(), r.acks);
        assert!(r.unique_parcels == 30);
    }

    #[test]
    fn abandonment_is_bounded_and_counted() {
        // Permanent outage with few attempts: everything must abandon, and
        // attempts must not exceed max_attempts per message.
        let plan = FaultPlan::new(0).outage(0, u64::MAX - 1);
        let config = ReliableConfig {
            max_attempts: 3,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 0);
        for i in 0..5u64 {
            rl.send(msg(1, 0, i..i + 1), |_| 0);
        }
        let delivered = rl.drain();
        assert!(delivered.is_empty());
        let r = rl.report();
        assert_eq!(r.abandoned_parcels, 5);
        // 5 messages × 3 attempts; 2 of each are retries.
        assert_eq!(r.retransmissions, 10);
    }

    #[test]
    fn goodput_and_amplification_reported() {
        let plan = FaultPlan::new(8).drop_prob(0.2);
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 8);
        for i in 0..50u64 {
            rl.send(msg(1, i * 10_000, i..i + 1), |_| i * 10_000);
        }
        rl.drain();
        let r = rl.report();
        assert!(r.goodput_parcels_per_sec() > 0.0);
        assert!(r.retry_amplification() >= 0.0);
        assert!(r.mean_delivery_latency_ns > 0.0);
    }

    #[test]
    fn gauges_track_breaker_state() {
        // Storm into a dead window: the breaker opens (gauge goes high),
        // then the half-open probe closes it once the outage lifts.
        let plan = FaultPlan::new(2).outage(0, 1_000_000);
        let config = ReliableConfig {
            breaker_threshold: 3,
            breaker_cooldown_ns: 100_000,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 2);
        let gauges = rl.gauges().clone();
        assert_eq!(gauges.breakers_open(), 0);
        for i in 0..10u64 {
            rl.send(msg(1, i * 1_000, i..i + 1), |_| i * 1_000);
        }
        // Pump through the outage: the breaker must be visibly open at
        // some intermediate point.
        let mut saw_open = false;
        for until in (50_000..1_000_000).step_by(50_000) {
            rl.pump(until);
            saw_open |= gauges.breakers_open() > 0;
        }
        assert!(saw_open, "open breaker never surfaced in the gauge");
        rl.drain();
        assert_eq!(gauges.breakers_open(), 0, "recovered breaker still open");
        assert_eq!(gauges.breakers_half_open(), 0);
    }

    #[test]
    fn gauges_track_budget_fill() {
        let mut rl = ReliableLink::new(TransportCost::cluster(), quick_config(), 1);
        // No destination has needed a retry token yet: fill is undefined.
        assert!(rl.gauges().budget_fill().is_nan());
        let plan = FaultPlan::new(1).outage(0, 400_000);
        let config = ReliableConfig {
            retry_budget: 8,
            retry_refill_per_sec: 1_000.0,
            ..quick_config()
        };
        rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 1);
        let gauges = rl.gauges().clone();
        for i in 0..6u64 {
            rl.send(msg(1, 0, i..i + 1), |_| 0);
        }
        rl.pump(200_000);
        let fill = gauges.budget_fill();
        assert!(fill.is_finite(), "bucket exists after retries");
        assert!((0.0..=1.0).contains(&fill), "fill {fill} out of range");
        assert!(fill < 1.0, "retries should have drawn the bucket down");
    }

    #[test]
    fn introspection_snapshot_sees_link_gauges() {
        use lg_core::{ConcurrencyListener, Introspection, ProfileListener, TaskNames};
        let intro = Introspection::new(
            Arc::new(ProfileListener::new(TaskNames::new())),
            Arc::new(ConcurrencyListener::new(16)),
        );
        let plan = FaultPlan::new(2).outage(0, 1_000_000);
        let config = ReliableConfig {
            breaker_threshold: 2,
            breaker_cooldown_ns: 2_000_000,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 2);
        rl.bind_introspection(&intro);
        for i in 0..8u64 {
            rl.send(msg(1, i * 1_000, i..i + 1), |_| i * 1_000);
        }
        rl.pump(500_000);
        let snap = intro.capture(500_000);
        let open = snap.value_by_name("net.reliable.breakers_open");
        assert_eq!(open, Some(1.0), "policy must see the open breaker");
        assert!(snap
            .value_by_name("net.reliable.breakers_half_open")
            .is_some());
    }

    #[test]
    fn probe_jitter_decorrelates_cooldowns() {
        let config = ReliableConfig {
            breaker_cooldown_ns: 1_000_000,
            breaker_jitter_frac: 0.5,
            ..quick_config()
        };
        let mut rl = ReliableLink::new(TransportCost::cluster(), config, 11);
        let draws: Vec<u64> = (0..8).map(|_| rl.jittered_cooldown()).collect();
        assert!(draws.iter().all(|&d| (1_000_000..=1_500_000).contains(&d)));
        let mut unique = draws.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() > 1,
            "jittered cooldowns all identical: {draws:?}"
        );
        // Jitter disabled: bit-exact base cooldown, nothing drawn.
        let config = ReliableConfig {
            breaker_cooldown_ns: 1_000_000,
            ..quick_config()
        };
        let mut rl = ReliableLink::new(TransportCost::cluster(), config, 11);
        assert_eq!(rl.jittered_cooldown(), 1_000_000);
        assert_eq!(rl.jittered_cooldown(), 1_000_000);
    }

    #[test]
    fn probe_jitter_does_not_perturb_backoff_replay() {
        // Two identical lossy runs, one with breaker jitter: the delivery
        // outcome may shift, but the no-breaker run (threshold high enough
        // that nothing trips) must replay bit-exactly because cooldown
        // jitter draws from its own RNG stream.
        let run = |jitter: f64| {
            let plan = FaultPlan::new(5).drop_prob(0.3).jitter_ns(10_000);
            let config = ReliableConfig {
                breaker_threshold: 1_000, // never trips
                breaker_jitter_frac: jitter,
                ..quick_config()
            };
            let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 9);
            for i in 0..50u64 {
                rl.send(msg(1, i * 30_000, i..i + 1), |_| i * 30_000);
            }
            let delivered = rl.drain();
            (delivered, rl.report())
        };
        assert_eq!(run(0.0), run(0.9));
    }

    #[test]
    fn shed_is_counted_distinctly_and_consumes_nothing() {
        let mut rl = ReliableLink::new(TransportCost::cluster(), quick_config(), 1);
        let reg = CounterRegistry::new();
        rl.bind_metrics(&reg);
        rl.send(msg(1, 0, 0..4), |_| 0);
        rl.shed(&msg(1, 0, 4..10));
        rl.drain();
        let r = rl.report();
        assert_eq!(r.shed_parcels, 6);
        assert_eq!(r.offered_parcels, 4, "shed parcels never hit the wire");
        assert_eq!(r.unique_parcels, 4);
        assert_eq!(r.retries_consumed, 0, "shedding must not draw budget");
        assert_eq!(reg.counter("net.reliable.shed").get(), 6);
        // Amplification ignores shed traffic entirely.
        assert_eq!(r.retry_amplification(), 0.0);
    }

    #[test]
    fn deadline_expiry_is_distinct_from_abandonment() {
        // Permanent outage, generous attempt budget, tight deadline: the
        // sender must stop at the deadline and report expiry, not
        // fault-driven abandonment.
        let plan = FaultPlan::new(0).outage(0, u64::MAX - 1);
        let config = ReliableConfig {
            max_attempts: 50,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 0);
        let reg = CounterRegistry::new();
        rl.bind_metrics(&reg);
        rl.send_with_deadline(msg(1, 0, 0..3), 120_000, |_| 0);
        let delivered = rl.drain();
        assert!(delivered.is_empty());
        let r = rl.report();
        assert_eq!(r.deadline_expired_parcels, 3);
        assert_eq!(r.abandoned_parcels, 0);
        assert_eq!(reg.counter("net.reliable.deadline_expired").get(), 3);
        // Pre-expiry retries are real wire load and stay visible.
        assert!(r.retransmissions >= 1);
        assert!(r.retransmissions < 50, "expiry must stop the retry stream");
    }

    #[test]
    fn drained_link_retains_no_payload() {
        // Link memory must follow what is in flight, not total sends:
        // after a 10 000-message drain every entry has given its parcels
        // back and every delivered seq its offer time — on a clean link
        // and on one that drops, duplicates and retransmits.
        let clean = ReliableLink::new(TransportCost::cluster(), quick_config(), 1);
        let plan = FaultPlan::new(6)
            .drop_prob(0.2)
            .duplicate_prob(0.2)
            .jitter_ns(40_000);
        let lossy = ReliableLink::with_faults(TransportCost::cluster(), plan, quick_config(), 1);
        for mut rl in [clean, lossy] {
            let n = 10_000u64;
            for i in 0..n {
                let m = WireMessage {
                    parcels: vec![
                        Parcel::new(0, 1, 0, 2 * i, vec![7; 256]),
                        Parcel::new(0, 1, 0, 2 * i + 1, vec![7; 256]),
                    ],
                    ..msg(1, i * 20_000, 0..0)
                };
                rl.send(m, |_| i * 20_000);
            }
            assert_eq!(rl.drain().len() as u64, 2 * n);
            assert_eq!(rl.report().abandoned_parcels, 0);
            assert_eq!(rl.pending.len() as u64, n);
            assert!(
                rl.pending
                    .iter()
                    .all(|p| p.resolved && p.msg.parcels.capacity() == 0),
                "a resolved entry still holds its parcels"
            );
            assert!(rl.offer_times.is_empty(), "{}", rl.offer_times.len());
            // The emptied buffers are kept for reuse, up to the cap.
            assert_eq!(rl.spare_parcels.len(), SPARE_BUFFERS);
            let lent = rl.spare_parcels();
            assert!(lent.is_empty() && lent.capacity() >= 2);
        }
    }

    #[test]
    fn offer_time_outlives_expiry_until_the_late_copy_lands() {
        // The ack for a slow-but-delivered copy would come after the
        // timer, the retry is due past the deadline, and the entry expires
        // with its only copy still in flight: the copy must still be
        // measured from the original offer time, which is dropped then.
        let cost = TransportCost::new(1_000, 0.0, 60_000);
        let config = ReliableConfig {
            jitter_frac: 0.0,
            ..quick_config()
        };
        let mut rl = ReliableLink::new(cost, config, 1);
        rl.send_with_deadline(msg(1, 10_000, 0..1), 55_000, |_| 4_000);
        // The copy lands at 10 000 + 1 000 + 60 000. The timer fires at
        // 60 000 and the retry, due 10 000 later, finds the deadline gone.
        rl.pump(70_000);
        assert!(rl.pending[0].resolved, "retry was due past the deadline");
        assert_eq!(rl.offer_times.len(), 1, "a copy is still in flight");
        assert_eq!(rl.drain().len(), 1);
        assert!(rl.offer_times.is_empty());
        let r = rl.report();
        assert_eq!(r.deadline_expired_parcels, 1);
        assert_eq!(r.mean_delivery_latency_ns, 67_000.0);
    }

    #[test]
    fn budget_gauges_replay_bit_exactly() {
        // Fractional tokens over five destinations: the published sum
        // depends on fold order in its last bit, so two same-seed links
        // must agree after every pump, and both with the ascending fold.
        let mk = || {
            let plan = FaultPlan::new(11).drop_prob(0.5).jitter_ns(7_000);
            let config = ReliableConfig {
                retry_budget: 3,
                retry_refill_per_sec: 7_777.7,
                ..quick_config()
            };
            let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 5);
            for i in 0..400u64 {
                rl.send(msg((i % 5) as u32 * 3, i * 3_000, i..i + 1), |_| i * 3_000);
            }
            rl
        };
        let (mut a, mut b) = (mk(), mk());
        let milli = |rl: &ReliableLink| rl.gauges.budget_tokens_milli.load(Ordering::Relaxed);
        let mut moved = 0;
        for until in (0..4_000_000).step_by(9_973) {
            let before = milli(&a);
            a.pump(until);
            b.pump(until);
            assert_eq!(milli(&a), milli(&b), "replay diverged at {until}");
            moved += u32::from(milli(&a) != before);
            let ascending: f64 = (0..a.dests.len())
                .filter_map(|d| a.dests[d].bucket.as_ref())
                .map(|bucket| bucket.tokens.min(3.0))
                .sum();
            assert_eq!(milli(&a), (ascending * 1e3) as i64);
        }
        let buckets = a.dests.iter().filter(|d| d.bucket.is_some()).count();
        assert_eq!(buckets, 5, "every destination should have retried");
        assert!(moved > 50, "the gauge moved only {moved} times");
    }

    #[test]
    fn breaker_counts_match_a_recount_after_every_event() {
        // The open / half-open gauges are kept incrementally; a recount
        // over the destination table is the oracle.
        let plan = FaultPlan::new(2).flap(300_000, 400_000).drop_prob(0.1);
        let config = ReliableConfig {
            breaker_threshold: 2,
            breaker_cooldown_ns: 120_000,
            breaker_jitter_frac: 0.5,
            ..quick_config()
        };
        let mut rl = ReliableLink::with_faults(TransportCost::cluster(), plan, config, 2);
        for i in 0..300u64 {
            rl.send(msg((i % 6) as u32, i * 5_000, i..i + 1), |_| i * 5_000);
        }
        let (mut saw_open, mut saw_half) = (false, false);
        while let Some(t) = rl.events.peek().map(|e| e.t_ns) {
            let ev = rl.events.pop().unwrap();
            rl.handle(ev, &mut Vec::new());
            let count = |f: fn(&BreakerState) -> bool| {
                rl.dests.iter().filter(|d| f(&d.state)).count() as i64
            };
            let open = count(|s| matches!(s, BreakerState::Open { .. }));
            let half = count(|s| matches!(s, BreakerState::HalfOpen));
            assert_eq!(rl.gauges.breakers_open(), open, "open at {t}");
            assert_eq!(rl.gauges.breakers_half_open(), half, "half-open at {t}");
            saw_open |= open > 1;
            saw_half |= half > 0;
        }
        assert!(saw_open && saw_half, "storm never exercised the breakers");
        assert_eq!(rl.report().abandoned_parcels, 0);
    }

    #[test]
    fn arrival_groups_match_grouping_by_arrival_time() {
        // The reference is what the split replaced: bucket by arrival
        // time, buckets earliest first, each in transmission order.
        let reference = |ds: &[Delivery]| {
            let mut by_arrival = std::collections::BTreeMap::<u64, Vec<u64>>::new();
            for d in ds {
                by_arrival.entry(d.arrived_ns).or_default().push(d.seq);
            }
            by_arrival.into_iter().collect::<Vec<_>>()
        };
        let split = |mut ds: Vec<Delivery>| {
            let mut groups = Vec::new();
            for_each_arrival_group(&mut ds, |t, g| {
                assert!(g.iter().all(|d| d.arrived_ns == t));
                groups.push((t, g.iter().map(|d| d.seq).collect::<Vec<_>>()));
            });
            groups
        };
        let at = |times: &[u64]| -> Vec<Delivery> {
            times
                .iter()
                .enumerate()
                .map(|(seq, &arrived_ns)| Delivery {
                    dest: 1,
                    seq: seq as u64 % 3,
                    arrived_ns,
                })
                .collect()
        };
        // One group; duplicate later, earlier, and level with the
        // primary; more than two arrival times; a single parcel.
        for times in [
            &[50, 50, 50][..],
            &[50, 50, 50, 90, 90, 90],
            &[90, 90, 90, 50, 50, 50],
            &[50, 50, 50, 50, 50, 50],
            &[70, 30, 70, 30, 50, 30, 70],
            &[5],
        ] {
            let ds = at(times);
            assert_eq!(split(ds.clone()), reference(&ds), "{times:?}");
        }
        // And through a real duplicating, jittering link: every
        // transmission's groups, against the same reference.
        let mut link = SimLink::with_faults(
            TransportCost::cluster(),
            FaultPlan::new(9).duplicate_prob(0.5).jitter_ns(30_000),
        );
        let mut split_apart = 0;
        for i in 0..200u64 {
            let mut ds = Vec::new();
            link.transmit(&msg(1, i * 40_000, 3 * i..3 * i + 3), |_| 0, &mut ds);
            let groups = split(ds.clone());
            assert_eq!(groups, reference(&ds));
            split_apart += u32::from(groups.len() > 1);
        }
        assert!(
            split_apart > 20,
            "only {split_apart} duplicates landed apart"
        );
    }

    #[test]
    fn deadline_is_harmless_on_a_healthy_link() {
        let mut rl = ReliableLink::new(TransportCost::cluster(), quick_config(), 1);
        rl.send_with_deadline(msg(1, 0, 0..4), u64::MAX, |_| 0);
        rl.send_with_deadline(msg(1, 10_000, 4..8), 100_000_000, |_| 10_000);
        let delivered = rl.drain();
        assert_eq!(delivered.len(), 8);
        let r = rl.report();
        assert_eq!(r.deadline_expired_parcels, 0);
        assert_eq!(r.unique_parcels, 8);
    }
}
