//! Simulated serialized link over virtual time.
//!
//! Wire messages queue for a single serialized channel (think NIC TX):
//! message `m` departs at `max(submit_time, link_free_time)`, occupies the
//! link for `occupancy(bytes)`, and arrives `latency` after departure. The
//! link tracks per-parcel end-to-end latency (from the parcel's *offer*
//! time, so coalescing queueing delay is included) and achieved rates —
//! the quantities Table 2 reports.

use crate::coalesce::WireMessage;
use crate::cost::TransportCost;
use crate::fault::{FaultAction, FaultPlan};
use lg_metrics::Histogram;

/// A delivered parcel with timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// Destination locality.
    pub dest: u32,
    /// Parcel sequence number.
    pub seq: u64,
    /// Arrival time.
    pub arrived_ns: u64,
}

/// Aggregate link statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkReport {
    /// Wire messages sent.
    pub wire_messages: u64,
    /// Parcels delivered.
    pub parcels: u64,
    /// Total payload+header bytes moved.
    pub bytes: u64,
    /// Busy time of the link (occupancy sum), nanoseconds.
    pub busy_ns: u64,
    /// Time the last delivery arrives.
    pub last_arrival_ns: u64,
    /// Mean parcels per wire message.
    pub mean_coalesce: f64,
    /// Mean end-to-end parcel latency (from offer to arrival), ns.
    pub mean_latency_ns: f64,
    /// 99th-percentile parcel latency, ns.
    pub p99_latency_ns: u64,
    /// Wire messages lost to the fault plan (random drop or link down).
    pub dropped_wire_messages: u64,
    /// Parcels lost with those messages.
    pub dropped_parcels: u64,
    /// Extra parcel copies injected by duplication faults.
    pub duplicate_parcels: u64,
}

/// The simulated link (see module docs).
pub struct SimLink {
    cost: TransportCost,
    faults: Option<FaultPlan>,
    free_at_ns: u64,
    wire_messages: u64,
    parcels: u64,
    bytes: u64,
    busy_ns: u64,
    last_arrival_ns: u64,
    latency_hist: Histogram,
    latency_sum: f64,
    dropped_wire_messages: u64,
    dropped_parcels: u64,
    duplicate_parcels: u64,
}

impl SimLink {
    /// Creates an idle link with the given cost model.
    pub fn new(cost: TransportCost) -> Self {
        Self {
            cost,
            faults: None,
            free_at_ns: 0,
            wire_messages: 0,
            parcels: 0,
            bytes: 0,
            busy_ns: 0,
            last_arrival_ns: 0,
            latency_hist: Histogram::new(),
            latency_sum: 0.0,
            dropped_wire_messages: 0,
            dropped_parcels: 0,
            duplicate_parcels: 0,
        }
    }

    /// Creates a link that consults `plan` on every transmission.
    pub fn with_faults(cost: TransportCost, plan: FaultPlan) -> Self {
        let mut link = Self::new(cost);
        link.faults = Some(plan);
        link
    }

    /// The cost model.
    pub fn cost(&self) -> &TransportCost {
        &self.cost
    }

    /// Transmits a wire message submitted at `msg.t_ns`; `offer_time_of`
    /// maps each contained parcel's `seq` to the time it was originally
    /// offered to the coalescer (for end-to-end latency accounting).
    /// Appends the per-parcel deliveries to `out`, a buffer the caller
    /// keeps: the primaries in parcel order (all arrive together), then
    /// any duplicate copies; nothing when the message is dropped.
    pub fn transmit(
        &mut self,
        msg: &WireMessage,
        offer_time_of: impl Fn(u64) -> u64,
        out: &mut Vec<Delivery>,
    ) {
        let bytes = msg.wire_bytes();
        let depart = msg.t_ns.max(self.free_at_ns);
        let occupancy = self.cost.occupancy_ns(bytes);
        self.free_at_ns = depart + occupancy;
        self.busy_ns += occupancy;
        self.wire_messages += 1;
        self.bytes += bytes as u64;
        // The fault plan sees the message after it occupied the TX side:
        // the sender pays the wire cost whether or not the message lands.
        let action = match self.faults.as_mut() {
            Some(plan) => plan.decide(depart),
            None => FaultAction::Deliver {
                extra_delay_ns: 0,
                duplicate_delay_ns: None,
            },
        };
        let (extra_delay_ns, duplicate_delay_ns) = match action {
            FaultAction::Drop => {
                self.dropped_wire_messages += 1;
                self.dropped_parcels += msg.parcels.len() as u64;
                return;
            }
            FaultAction::Deliver {
                extra_delay_ns,
                duplicate_delay_ns,
            } => (extra_delay_ns, duplicate_delay_ns),
        };
        let arrive = self.free_at_ns + self.cost.latency_ns + extra_delay_ns;
        self.last_arrival_ns = self.last_arrival_ns.max(arrive);
        out.extend(msg.parcels.iter().map(|p| {
            self.parcels += 1;
            let offered = offer_time_of(p.seq);
            let lat = arrive.saturating_sub(offered);
            self.latency_hist.record(lat);
            self.latency_sum += lat as f64;
            Delivery {
                dest: p.dest,
                seq: p.seq,
                arrived_ns: arrive,
            }
        }));
        if let Some(dup_delay) = duplicate_delay_ns {
            let dup_arrive = self.free_at_ns + self.cost.latency_ns + dup_delay;
            self.last_arrival_ns = self.last_arrival_ns.max(dup_arrive);
            self.duplicate_parcels += msg.parcels.len() as u64;
            out.extend(msg.parcels.iter().map(|p| Delivery {
                dest: p.dest,
                seq: p.seq,
                arrived_ns: dup_arrive,
            }));
        }
    }

    /// Aggregate statistics so far.
    pub fn report(&self) -> LinkReport {
        LinkReport {
            wire_messages: self.wire_messages,
            parcels: self.parcels,
            bytes: self.bytes,
            busy_ns: self.busy_ns,
            last_arrival_ns: self.last_arrival_ns,
            mean_coalesce: if self.wire_messages == 0 {
                0.0
            } else {
                self.parcels as f64 / self.wire_messages as f64
            },
            mean_latency_ns: if self.parcels == 0 {
                0.0
            } else {
                self.latency_sum / self.parcels as f64
            },
            p99_latency_ns: self.latency_hist.p99(),
            dropped_wire_messages: self.dropped_wire_messages,
            dropped_parcels: self.dropped_parcels,
            duplicate_parcels: self.duplicate_parcels,
        }
    }
}

impl std::fmt::Debug for SimLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLink")
            .field("wire_messages", &self.wire_messages)
            .field("parcels", &self.parcels)
            .field("free_at_ns", &self.free_at_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::FlushReason;
    use crate::fault::FaultPlan;
    use crate::parcel::Parcel;

    fn msg(t_ns: u64, nparcels: usize, bytes_each: usize) -> WireMessage {
        WireMessage {
            dest: 1,
            parcels: (0..nparcels as u64)
                .map(|seq| Parcel::new(0, 1, 0, seq, vec![0; bytes_each]))
                .collect(),
            reason: FlushReason::Window,
            t_ns,
        }
    }

    /// One transmission's deliveries, in a fresh buffer.
    fn sent(link: &mut SimLink, m: &WireMessage, offered: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        link.transmit(m, |_| offered, &mut out);
        out
    }

    #[test]
    fn single_message_timing() {
        let mut link = SimLink::new(TransportCost::new(1_000, 1.0, 500));
        let m = msg(0, 1, 68); // wire = 32 + 68 = 100 bytes
        let deliveries = sent(&mut link, &m, 0);
        assert_eq!(deliveries.len(), 1);
        // occupancy = 1000 + 100 = 1100; arrive at 1100 + 500 = 1600.
        assert_eq!(deliveries[0].arrived_ns, 1_600);
        assert_eq!(link.free_at_ns, 1_100);
    }

    #[test]
    fn serialization_queues_messages() {
        let mut link = SimLink::new(TransportCost::new(1_000, 0.0, 0));
        let d1 = sent(&mut link, &msg(0, 1, 0), 0);
        let d2 = sent(&mut link, &msg(0, 1, 0), 0);
        assert_eq!(d1[0].arrived_ns, 1_000); // β = 0: occupancy is α only
        assert_eq!(d2[0].arrived_ns, 2_000); // queued behind the first
    }

    #[test]
    fn idle_gap_does_not_queue() {
        let mut link = SimLink::new(TransportCost::new(100, 0.0, 0));
        sent(&mut link, &msg(0, 1, 0), 0);
        let d = sent(&mut link, &msg(10_000, 1, 0), 0);
        assert_eq!(d[0].arrived_ns, 10_100);
    }

    #[test]
    fn coalesced_message_beats_individual_sends() {
        let cost = TransportCost::cluster();
        let mut single = SimLink::new(cost);
        for i in 0..64u64 {
            sent(&mut single, &msg(0, 1, 64), i); // 64 separate messages
        }
        let mut coal = SimLink::new(cost);
        sent(&mut coal, &msg(0, 64, 64), 0); // one 64-parcel message
        let rs = single.report();
        let rc = coal.report();
        assert_eq!(rs.parcels, rc.parcels);
        assert!(
            rc.last_arrival_ns * 5 < rs.last_arrival_ns,
            "coalescing should be ≥5× faster here: {} vs {}",
            rc.last_arrival_ns,
            rs.last_arrival_ns
        );
    }

    #[test]
    fn latency_includes_queueing_from_offer_time() {
        let mut link = SimLink::new(TransportCost::new(100, 0.0, 0));
        // Parcel offered at t=0 but flushed at t=900.
        let m = msg(900, 1, 0);
        sent(&mut link, &m, 0);
        let r = link.report();
        // Arrival = 900 (flush) + 100 (α) = 1000; latency from offer = 1000.
        assert!((r.mean_latency_ns - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn report_aggregates() {
        let mut link = SimLink::new(TransportCost::new(100, 1.0, 10));
        sent(&mut link, &msg(0, 4, 16), 0);
        sent(&mut link, &msg(0, 2, 16), 0);
        let r = link.report();
        assert_eq!(r.wire_messages, 2);
        assert_eq!(r.parcels, 6);
        assert_eq!(r.mean_coalesce, 3.0);
        assert_eq!(r.bytes as usize, 4 * 48 + 2 * 48);
        assert!(r.last_arrival_ns > 0, "the parcels arrived");
    }

    #[test]
    fn dropped_message_occupies_link_but_never_arrives() {
        let plan = FaultPlan::new(0).outage(0, 10_000);
        let mut link = SimLink::with_faults(TransportCost::new(1_000, 0.0, 500), plan);
        let d = sent(&mut link, &msg(0, 2, 0), 0);
        assert!(d.is_empty());
        assert_eq!(link.free_at_ns, 1_000, "drop still serializes the TX side");
        let r = link.report();
        assert_eq!(r.dropped_wire_messages, 1);
        assert_eq!(r.dropped_parcels, 2);
        assert_eq!(r.parcels, 0);
        assert_eq!(r.last_arrival_ns, 0);
    }

    #[test]
    fn duplicated_message_delivers_each_parcel_twice() {
        let plan = FaultPlan::new(0).duplicate_prob(1.0);
        let mut link = SimLink::with_faults(TransportCost::new(100, 0.0, 50), plan);
        let d = sent(&mut link, &msg(0, 3, 0), 0);
        assert_eq!(d.len(), 6);
        let r = link.report();
        assert_eq!(r.parcels, 3, "primary copies only");
        assert_eq!(r.duplicate_parcels, 3);
    }

    #[test]
    fn faulty_link_is_deterministic_per_seed() {
        let run = || {
            let plan = FaultPlan::new(11)
                .drop_prob(0.3)
                .duplicate_prob(0.2)
                .jitter_ns(2_000);
            let mut link = SimLink::with_faults(TransportCost::cluster(), plan);
            let mut all = Vec::new();
            for i in 0..200u64 {
                link.transmit(&msg(i * 3_000, 2, 32), |_| i * 3_000, &mut all);
            }
            (all, link.report())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_link_report() {
        let link = SimLink::new(TransportCost::cluster());
        let r = link.report();
        assert_eq!(r.wire_messages, 0);
        assert_eq!(r.mean_coalesce, 0.0);
        assert_eq!((r.parcels, r.last_arrival_ns), (0, 0));
    }
}
