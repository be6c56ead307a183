//! The serving engine: a virtual-time discrete-event simulation of an
//! open-loop request stream flowing through the admission plane, the
//! reliable link, and a contended service stage.
//!
//! ## The pipeline
//!
//! ```text
//! arrivals ──► brownout ──► gate ──► queue ──► bulkhead ──► ReliableLink ──► server ──► done
//!              (shed)      (shed)   (waits)   (permits)    (faults,retry)   (knee)
//! ```
//!
//! * **Brownout** sheds a level-dependent fraction of requests, optional
//!   class first ([`lg_core::Brownout`]).
//! * **Gate** rate-limits admissions with a mandatory reserve
//!   ([`lg_core::AdmissionGate`]).
//! * **Queue** holds admitted requests waiting for a bulkhead permit;
//!   requests whose deadline passes in the queue are misses.
//! * **Bulkhead** caps requests in flight (link + server) — the knob the
//!   AIMD policy drives ([`lg_core::Bulkhead`]).
//! * **Link** is a [`ReliableLink`]: faults, retries, budgets, breakers.
//!   Sends carry the request deadline, so retransmission of doomed
//!   requests stops at expiry.
//! * **Server** models the contention knee: while the number of requests
//!   in service is at most `knee`, service takes the request's nominal
//!   demand; beyond the knee every service time inflates by
//!   `(in_service / knee)²` — the cache-thrash cliff that makes both
//!   too-little *and* too-much concurrency lose.
//!
//! The engine owns no policy: each control round it refreshes its gauges
//! and calls the caller's `on_round` hook, which typically advances a
//! virtual clock and steps a [`lg_core::PolicyEngine`] so AIMD, brownout,
//! and watchdog policies actuate the knobs mid-run.

use super::request::Request;
use lg_core::{AdmissionGate, Brownout, Bulkhead, BulkheadPermit, Introspection};
use lg_metrics::{CounterHandle, CounterRegistry, Histogram};
use lg_net::coalesce::{FlushReason, WireMessage};
use lg_net::link::Delivery;
use lg_net::parcel::Parcel;
use lg_net::reliable::ReliableLink;
use lg_net::ReliableReport;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Engine parameters (the service stage and the control cadence).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Service-stage contention knee: in-service counts above this
    /// inflate every service time quadratically.
    pub knee: usize,
    /// Fixed response-path latency added after service completes, ns.
    pub response_ns: u64,
    /// Control-round period (gauge refresh + `on_round` hook), ns.
    pub control_period_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            knee: 8,
            response_ns: 20_000,
            control_period_ns: 10_000_000,
        }
    }
}

/// Live gauges the engine publishes for policies (shared via `Arc`).
/// `in_service` moves with every delivery and completion; the others are
/// stored once per control round, before the `on_round` hook.
#[derive(Debug, Default)]
pub struct ServeGauges {
    queue_depth: AtomicI64,
    in_flight: AtomicI64,
    in_service: AtomicI64,
    p99_window_ns: AtomicU64,
    service_p99_window_ns: AtomicU64,
}

impl ServeGauges {
    /// Admitted requests waiting for a bulkhead permit.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed)
    }
    /// Requests holding a permit (in the link or in service).
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Relaxed)
    }
    /// Requests currently in service.
    fn in_service(&self) -> i64 {
        self.in_service.load(Ordering::Relaxed)
    }
    /// p99 end-to-end latency over the last control round, ns (holds the
    /// previous round's value when a round completes nothing).
    pub fn p99_window_ns(&self) -> u64 {
        self.p99_window_ns.load(Ordering::Relaxed)
    }
    /// p99 *service-stage* latency (delivery → response) over the last
    /// control round, ns. Unlike [`ServeGauges::p99_window_ns`] this
    /// excludes queue wait, so it isolates the contention knee: a
    /// concurrency governor can sense the knee here without being
    /// poisoned by the backlog its own clamping creates upstream.
    pub fn service_p99_window_ns(&self) -> u64 {
        self.service_p99_window_ns.load(Ordering::Relaxed)
    }
}

/// End-of-run accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests shed by the brownout (before the gate).
    pub shed_brownout: u64,
    /// Requests rejected by the admission gate.
    pub shed_gate: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Responses completed (any latency).
    pub completed: u64,
    /// Responses completed within their deadline — the goodput count.
    pub goodput: u64,
    /// Requests that missed their deadline (queued, in flight, or late).
    pub deadline_missed: u64,
    /// Median end-to-end latency of completed responses, ns.
    pub p50_latency_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_latency_ns: u64,
    /// 99.9th-percentile end-to-end latency, ns.
    pub p999_latency_ns: u64,
    /// Time of the last completion, ns.
    pub makespan_ns: u64,
}

impl ServeReport {
    /// Fraction of offered requests served within deadline.
    pub fn goodput_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.goodput as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests shed (brownout + gate).
    pub fn shed_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed_brownout + self.shed_gate) as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests that missed their deadline.
    pub fn miss_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.deadline_missed as f64 / self.offered as f64
        }
    }
}

enum Phase {
    Queued,
    Flight(BulkheadPermit),
    // The permit is never read, only held so the bulkhead slot stays
    // occupied through service and is released when the entry resolves;
    // the time is when service began.
    Service(#[allow(dead_code)] BulkheadPermit, u64),
    Resolved,
}

struct Entry {
    req: Request,
    phase: Phase,
}

#[derive(PartialEq, Eq)]
enum EvKind {
    /// Control round: refresh gauges, run the `on_round` hook, dispatch.
    Round,
    /// The deadline of the request in `entries[slot]` passed.
    Expire { slot: usize },
    /// The request in `entries[slot]` finished service (response sent).
    Done { slot: usize },
}

struct Ev {
    t_ns: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t_ns == other.t_ns && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, insertion seq) through BinaryHeap's max-heap.
        other
            .t_ns
            .cmp(&self.t_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct Counters {
    arrivals: Option<CounterHandle>,
    admitted: Option<CounterHandle>,
    shed: Option<CounterHandle>,
    deadline_missed: Option<CounterHandle>,
    completed: Option<CounterHandle>,
    goodput: Option<CounterHandle>,
}

/// The serving DES. See the module docs for the pipeline.
pub struct ServeEngine {
    config: ServeConfig,
    link: ReliableLink,
    bulkhead: Bulkhead,
    gate: AdmissionGate,
    brownout: Brownout,
    gauges: Arc<ServeGauges>,
    counters: Counters,
    events: BinaryHeap<Ev>,
    next_seq: u64,
    queue: VecDeque<usize>,
    /// The current run's requests, the one with id `first_id + i` at
    /// slot `i`; a shed request is born `Phase::Resolved`.
    entries: Vec<Entry>,
    first_id: u64,
    /// Entries not yet `Phase::Resolved`.
    unresolved: usize,
    /// The buffer every link pump fills.
    delivered: Vec<Delivery>,
    latency_hist: Histogram,
    window_hist: Histogram,
    service_window_hist: Histogram,
    report: ServeReport,
}

impl ServeEngine {
    /// Builds the engine over a (possibly fault-injected) link and the
    /// three admission primitives. Register the primitives' knobs and
    /// bind introspection *before* the run so policies can see and steer
    /// it.
    pub fn new(
        link: ReliableLink,
        config: ServeConfig,
        bulkhead: Bulkhead,
        gate: AdmissionGate,
        brownout: Brownout,
    ) -> Self {
        assert!(config.knee > 0, "knee must be positive");
        assert!(
            config.control_period_ns > 0,
            "control period must be positive"
        );
        Self {
            config,
            link,
            bulkhead,
            gate,
            brownout,
            gauges: Arc::new(ServeGauges::default()),
            counters: Counters::default(),
            events: BinaryHeap::new(),
            next_seq: 0,
            queue: VecDeque::new(),
            entries: Vec::new(),
            first_id: 0,
            unresolved: 0,
            delivered: Vec::new(),
            latency_hist: Histogram::new(),
            window_hist: Histogram::new(),
            service_window_hist: Histogram::new(),
            report: ServeReport::default(),
        }
    }

    /// The engine's live gauges.
    pub fn gauges(&self) -> &Arc<ServeGauges> {
        &self.gauges
    }

    /// The brownout (e.g. to reach its level knob).
    pub fn brownout(&self) -> &Brownout {
        &self.brownout
    }

    /// The link's reliability report.
    pub fn link_report(&self) -> ReliableReport {
        self.link.report()
    }

    /// Registers the serving gauges on the introspection facade:
    /// `serve.queue_depth`, `serve.in_flight`, `serve.in_service`,
    /// `serve.p99_window_ns`, `serve.service_p99_window_ns`. Also binds
    /// the link's breaker/budget gauges
    /// ([`ReliableLink::bind_introspection`]).
    pub fn bind_introspection(&self, intro: &Introspection) {
        let g = self.gauges.clone();
        intro.register_gauge("serve.queue_depth", move || g.queue_depth() as f64);
        let g = self.gauges.clone();
        intro.register_gauge("serve.in_flight", move || g.in_flight() as f64);
        let g = self.gauges.clone();
        intro.register_gauge("serve.in_service", move || g.in_service() as f64);
        let g = self.gauges.clone();
        intro.register_gauge("serve.p99_window_ns", move || g.p99_window_ns() as f64);
        let g = self.gauges.clone();
        intro.register_gauge("serve.service_p99_window_ns", move || {
            g.service_p99_window_ns() as f64
        });
        self.link.bind_introspection(intro);
    }

    /// Publishes the serving counters into `reg` under `serve.*` (the
    /// per-request ones striped, each bumped as the request moves) and
    /// the link's under `net.reliable.*`.
    pub fn bind_metrics(&mut self, reg: &CounterRegistry) {
        self.counters = Counters {
            arrivals: Some(reg.striped_counter("serve.arrivals")),
            admitted: Some(reg.striped_counter("serve.admitted")),
            shed: Some(reg.striped_counter("serve.shed")),
            deadline_missed: Some(reg.striped_counter("serve.deadline_missed")),
            completed: Some(reg.striped_counter("serve.completed")),
            goodput: Some(reg.striped_counter("serve.goodput")),
        };
        self.link.bind_metrics(reg);
    }

    fn schedule(&mut self, t_ns: u64, kind: EvKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Ev { t_ns, seq, kind });
    }

    fn bump(c: &Option<CounterHandle>) {
        if let Some(c) = c {
            c.inc();
        }
    }

    /// Runs the arrival stream to completion (all requests resolved),
    /// calling `on_round(t_ns)` each control round. Returns the serving
    /// report; [`ServeEngine::link_report`] has the wire-level view.
    /// Panics unless request ids are dense (see [`Request::id`]).
    pub fn run(&mut self, arrivals: &[Request], mut on_round: impl FnMut(u64)) -> ServeReport {
        self.drive(arrivals, |_, t| on_round(t))
    }

    /// [`ServeEngine::run`] with a hook that also sees the engine.
    fn drive(&mut self, arrivals: &[Request], mut on_round: impl FnMut(&Self, u64)) -> ServeReport {
        debug_assert!(arrivals
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        self.first_id = arrivals.first().map_or(0, |r| r.id);
        self.entries.clear();
        self.entries.reserve(arrivals.len());
        let horizon = arrivals.last().map_or(0, |r| r.arrival_ns);
        // Control rounds cover arrivals plus the longest possible drain
        // (every deadline is finite, so `horizon + max budget` bounds it).
        let max_budget = arrivals.iter().map(|r| r.budget_ns()).max().unwrap_or(0);
        let mut next_round = self.config.control_period_ns;
        let rounds_end = horizon + max_budget + self.config.control_period_ns;
        self.schedule(next_round, EvKind::Round);
        let mut ai = 0usize;
        loop {
            let next_arrival = arrivals.get(ai).map_or(u64::MAX, |r| r.arrival_ns);
            let next_event = self.events.peek().map_or(u64::MAX, |e| e.t_ns);
            if next_arrival == u64::MAX && next_event == u64::MAX {
                break;
            }
            if next_arrival <= next_event {
                self.arrive(arrivals[ai].clone());
                ai += 1;
                self.pump_and_dispatch(next_arrival);
            } else {
                let ev = self.events.pop().expect("peeked");
                let t = ev.t_ns;
                match ev.kind {
                    EvKind::Round => {
                        self.refresh_gauges();
                        on_round(self, t);
                        next_round = t + self.config.control_period_ns;
                        if next_round <= rounds_end || self.unresolved > 0 {
                            self.schedule(next_round, EvKind::Round);
                        }
                    }
                    EvKind::Expire { slot } => self.expire(slot),
                    EvKind::Done { slot } => self.complete(slot, t),
                }
                self.pump_and_dispatch(t);
            }
        }
        let mut r = self.report.clone();
        r.p50_latency_ns = self.latency_hist.p50();
        r.p99_latency_ns = self.latency_hist.p99();
        r.p999_latency_ns = self.latency_hist.p999();
        self.report = r.clone();
        r
    }

    /// Takes the next arrival into its slab slot: shed on the spot, or
    /// queued with its deadline armed.
    fn arrive(&mut self, req: Request) {
        let slot = self.entries.len();
        let expected = self.first_id + slot as u64;
        assert!(
            req.id == expected,
            "request ids must be dense: expected {expected}, found {}",
            req.id
        );
        self.report.offered += 1;
        Self::bump(&self.counters.arrivals);
        // Brownout: shed optional before mandatory, deterministically;
        // then the rate gate, where mandatory may spend into the reserve.
        let phase = if self.brownout.should_shed(req.class, req.id) {
            self.report.shed_brownout += 1;
            Self::bump(&self.counters.shed);
            self.link.shed_parcels(1);
            Phase::Resolved
        } else if !self.gate.try_admit(req.arrival_ns, req.class) {
            self.report.shed_gate += 1;
            Self::bump(&self.counters.shed);
            self.link.shed_parcels(1);
            Phase::Resolved
        } else {
            self.report.admitted += 1;
            Self::bump(&self.counters.admitted);
            self.unresolved += 1;
            self.queue.push_back(slot);
            self.schedule(req.deadline_ns, EvKind::Expire { slot });
            Phase::Queued
        };
        self.entries.push(Entry { req, phase });
    }

    fn wire(req: &Request, t_ns: u64) -> WireMessage {
        WireMessage {
            dest: req.dest,
            parcels: vec![Parcel::new(0, req.dest, 0, req.id, Vec::new())],
            reason: FlushReason::Window,
            t_ns,
        }
    }

    /// Starts as many queued requests as the bulkhead admits, then pumps
    /// the link and moves deliveries into service.
    fn pump_and_dispatch(&mut self, now: u64) {
        while let Some(&slot) = self.queue.front() {
            let entry = &mut self.entries[slot];
            if !matches!(entry.phase, Phase::Queued) {
                // Expired in the queue; drop the stale slot.
                self.queue.pop_front();
                continue;
            }
            let Some(permit) = self.bulkhead.try_acquire() else {
                break;
            };
            self.queue.pop_front();
            entry.phase = Phase::Flight(permit);
            let msg = Self::wire(&entry.req, now);
            let deadline = entry.req.deadline_ns;
            self.link.send_with_deadline(msg, deadline, |_| now);
        }
        let mut delivered = std::mem::take(&mut self.delivered);
        self.link.pump_into(now, &mut delivered);
        for d in delivered.drain(..) {
            self.deliver(d.seq, now);
        }
        self.delivered = delivered;
    }

    /// A request reached its server: move it into service and schedule
    /// completion, inflating service time beyond the knee.
    fn deliver(&mut self, id: u64, now: u64) {
        let slot = id.wrapping_sub(self.first_id) as usize;
        let Some(entry) = self.entries.get_mut(slot) else {
            return; // a late copy from before this run
        };
        let phase = std::mem::replace(&mut entry.phase, Phase::Resolved);
        let Phase::Flight(permit) = phase else {
            entry.phase = phase;
            return; // resolved or already serving — ignore the copy
        };
        entry.phase = Phase::Service(permit, now);
        let in_service = self.gauges.in_service.fetch_add(1, Ordering::Relaxed) + 1;
        let knee = self.config.knee as f64;
        let factor = if in_service as f64 <= knee {
            1.0
        } else {
            let x = in_service as f64 / knee;
            x * x
        };
        let eff = (entry.req.service_ns as f64 * factor).ceil() as u64;
        let done_at = now + eff + self.config.response_ns;
        self.schedule(done_at, EvKind::Done { slot });
    }

    /// Service finished: account the response and free the permit.
    fn complete(&mut self, slot: usize, now: u64) {
        let entry = &mut self.entries[slot];
        let Phase::Service(_, since_ns) = entry.phase else {
            return;
        };
        entry.phase = Phase::Resolved; // drops the permit
        self.unresolved -= 1;
        self.gauges.in_service.fetch_sub(1, Ordering::Relaxed);
        let latency = now - entry.req.arrival_ns;
        self.latency_hist.record(latency);
        self.window_hist.record(latency);
        self.service_window_hist.record(now - since_ns);
        self.report.completed += 1;
        Self::bump(&self.counters.completed);
        self.report.makespan_ns = self.report.makespan_ns.max(now);
        if now <= entry.req.deadline_ns {
            self.report.goodput += 1;
            Self::bump(&self.counters.goodput);
        } else {
            self.report.deadline_missed += 1;
            Self::bump(&self.counters.deadline_missed);
        }
    }

    /// A deadline passed: a queued or in-flight request is a miss; one
    /// already in service is left to finish (its completion is counted
    /// late there).
    fn expire(&mut self, slot: usize) {
        let entry = &mut self.entries[slot];
        match entry.phase {
            Phase::Queued | Phase::Flight(_) => {
                entry.phase = Phase::Resolved; // drops any permit
                self.unresolved -= 1;
                self.report.deadline_missed += 1;
                Self::bump(&self.counters.deadline_missed);
            }
            Phase::Service(..) | Phase::Resolved => {}
        }
    }

    fn refresh_gauges(&mut self) {
        self.gauges
            .queue_depth
            .store(self.queue.len() as i64, Ordering::Relaxed);
        self.gauges
            .in_flight
            .store(self.bulkhead.in_flight(), Ordering::Relaxed);
        if self.window_hist.count() > 0 {
            self.gauges
                .p99_window_ns
                .store(self.window_hist.p99(), Ordering::Relaxed);
            self.window_hist.reset();
        }
        if self.service_window_hist.count() > 0 {
            self.gauges
                .service_p99_window_ns
                .store(self.service_window_hist.p99(), Ordering::Relaxed);
            self.service_window_hist.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::arrivals::{ArrivalGen, ArrivalPattern};
    use super::*;
    use lg_core::{Knob, RequestClass};
    use lg_net::{FaultPlan, ReliableConfig, TransportCost};

    fn arrivals(rate: f64, horizon_ns: u64) -> Vec<Request> {
        ArrivalGen {
            pattern: ArrivalPattern::Poisson { rate_per_sec: rate },
            seed: 42,
            optional_frac: 0.3,
            service_mean_ns: 1_000_000,
            mandatory_budget_ns: 50_000_000,
            optional_budget_ns: 25_000_000,
            dests: 4,
        }
        .generate(horizon_ns)
    }

    fn engine(limit: i64, rate_cap: i64) -> ServeEngine {
        let link = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), 7);
        ServeEngine::new(
            link,
            ServeConfig::default(),
            Bulkhead::new("serve.bulkhead_limit", 1, 256, limit),
            AdmissionGate::new("serve.admit_rate", 1, 1_000_000, rate_cap, 64.0, 8.0),
            Brownout::new("serve.shed_level"),
        )
    }

    #[test]
    fn underload_serves_everything_in_deadline() {
        // 2k req/s against ~8k req/s capacity: all goodput, no shedding.
        let reqs = arrivals(2_000.0, 500_000_000);
        let mut e = engine(16, 100_000);
        let r = e.run(&reqs, |_| {});
        assert_eq!(r.offered, reqs.len() as u64);
        assert_eq!(r.shed_brownout + r.shed_gate, 0);
        assert_eq!(r.goodput, r.offered, "underload must make every deadline");
        assert_eq!(r.deadline_missed, 0);
        assert!(r.p99_latency_ns < 50_000_000);
        assert!(r.p50_latency_ns > 0);
    }

    #[test]
    fn overload_without_admission_collapses() {
        // 20k req/s against ~8k capacity with a huge bulkhead: the knee
        // inflates service times and deadlines blow out.
        let reqs = arrivals(20_000.0, 500_000_000);
        let mut e = engine(256, 1_000_000);
        let r = e.run(&reqs, |_| {});
        assert!(
            r.goodput_frac() < 0.6,
            "unprotected overload should collapse, got {}",
            r.goodput_frac()
        );
        assert!(r.deadline_missed > 0);
    }

    #[test]
    fn brownout_sheds_and_protects_mandatory() {
        let reqs = arrivals(12_000.0, 500_000_000);
        let mut e = engine(8, 1_000_000);
        e.brownout.level_knob().set(4); // shed all optional
        let r = e.run(&reqs, |_| {});
        let optional = reqs
            .iter()
            .filter(|r| r.class == RequestClass::Optional)
            .count() as u64;
        assert_eq!(
            r.shed_brownout, optional,
            "level 4 sheds exactly the optional class"
        );
        assert!(r.goodput_frac() > 0.5, "mandatory should mostly make it");
    }

    #[test]
    fn deterministic_given_seeds() {
        let reqs = arrivals(9_000.0, 300_000_000);
        let run = || {
            let mut e = engine(8, 10_000);
            e.run(&reqs, |_| {})
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_and_gauges_published() {
        let reqs = arrivals(9_000.0, 300_000_000);
        let reg = CounterRegistry::new();
        let mut e = engine(8, 6_000);
        e.bind_metrics(&reg);
        let gauges = e.gauges().clone();
        let arrivals_counter = reg.counter("serve.arrivals");
        let (mut saw_queue, mut saw_service, mut rounds) = (false, false, 0);
        let r = e.drive(&reqs, |e, t| {
            // What the hook sees is exact as of the round.
            let arrived = reqs.iter().filter(|r| r.arrival_ns <= t).count() as u64;
            assert_eq!(arrivals_counter.get(), arrived, "serve.arrivals at {t}");
            let serving = e
                .entries
                .iter()
                .filter(|en| matches!(en.phase, Phase::Service(..)))
                .count() as i64;
            assert_eq!(gauges.in_service(), serving, "serve.in_service at {t}");
            saw_queue |= gauges.queue_depth() > 0;
            saw_service |= serving > 0;
            rounds += 1;
        });
        for (name, total) in [
            ("serve.arrivals", r.offered),
            ("serve.admitted", r.admitted),
            ("serve.shed", r.shed_brownout + r.shed_gate),
            ("serve.deadline_missed", r.deadline_missed),
            ("serve.completed", r.completed),
            ("serve.goodput", r.goodput),
        ] {
            assert_eq!(reg.counter(name).get(), total, "{name}");
        }
        assert_eq!(
            gauges.in_service(),
            0,
            "the run ends with nothing in service"
        );
        assert!(rounds > 20, "only {rounds} rounds");
        assert!(saw_service, "no round saw a request in service");
        assert!(saw_queue, "overload should have queued at some round");
        assert!(gauges.p99_window_ns() > 0);
        assert!(gauges.service_p99_window_ns() > 0);
        assert!(
            gauges.service_p99_window_ns() <= gauges.p99_window_ns(),
            "service latency is a component of end-to-end latency"
        );
        // Conservation: every offered request is accounted exactly once
        // (late completions are already inside `deadline_missed`).
        assert_eq!(
            r.offered,
            r.shed_brownout + r.shed_gate + r.goodput + r.deadline_missed,
            "conservation"
        );
    }

    #[test]
    fn ids_may_start_anywhere() {
        let reqs = arrivals(9_000.0, 100_000_000);
        let shifted: Vec<Request> = reqs
            .iter()
            .map(|r| Request {
                id: r.id + 1_000,
                ..r.clone()
            })
            .collect();
        assert_eq!(
            engine(8, 10_000).run(&reqs, |_| {}),
            engine(8, 10_000).run(&shifted, |_| {})
        );
    }

    #[test]
    #[should_panic(expected = "request ids must be dense: expected 3, found 4")]
    fn gapped_ids_are_refused() {
        let mut reqs = arrivals(2_000.0, 50_000_000);
        reqs.remove(3);
        engine(16, 100_000).run(&reqs, |_| {});
    }

    #[test]
    fn faults_do_not_lose_accounting() {
        let reqs = arrivals(4_000.0, 400_000_000);
        let link = ReliableLink::with_faults(
            TransportCost::cluster(),
            FaultPlan::new(3).drop_prob(0.3),
            ReliableConfig::default(),
            7,
        );
        let mut e = ServeEngine::new(
            link,
            ServeConfig::default(),
            Bulkhead::new("serve.bulkhead_limit", 1, 256, 16),
            AdmissionGate::new("serve.admit_rate", 1, 1_000_000, 100_000, 64.0, 8.0),
            Brownout::new("serve.shed_level"),
        );
        let r = e.run(&reqs, |_| {});
        // Misses + goodput + shed cover everything; retries kept most
        // requests alive through 30% drop.
        let resolved = r.shed_brownout + r.shed_gate + r.goodput + r.deadline_missed;
        assert_eq!(resolved, r.offered);
        assert!(r.goodput_frac() > 0.8, "got {}", r.goodput_frac());
        assert!(e.link_report().retransmissions > 0);
    }
}
