//! Property-based tests for the parcel layer.

use lg_net::coalesce::{FlushReason, WireMessage};
use lg_net::parcel::Parcel;
use lg_net::{Coalescer, FaultPlan, ReliableConfig, ReliableLink, SimLink, TransportCost};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn coalescer_conserves_parcels_across_destinations(
        window in 1usize..64,
        dests in proptest::collection::vec(0u32..5, 1..400),
    ) {
        let mut c = Coalescer::new(window, 512, 1_000);
        let mut out_per_dest: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        for (seq, &dest) in dests.iter().enumerate() {
            let t = seq as u64 * 10;
            if let Some(m) = c.offer(Parcel::new(0, dest, 0, seq as u64, Vec::new()), t) {
                out_per_dest.entry(m.dest).or_default().extend(m.parcels.iter().map(|p| p.seq));
            }
            for m in c.poll(t) {
                out_per_dest.entry(m.dest).or_default().extend(m.parcels.iter().map(|p| p.seq));
            }
        }
        for m in c.flush_all(u64::MAX / 2) {
            out_per_dest.entry(m.dest).or_default().extend(m.parcels.iter().map(|p| p.seq));
        }
        // Per destination: exactly the offered seqs, in offer order.
        for (dest, seqs) in &out_per_dest {
            let expected: Vec<u64> = dests
                .iter()
                .enumerate()
                .filter(|(_, d)| *d == dest)
                .map(|(i, _)| i as u64)
                .collect();
            prop_assert_eq!(seqs, &expected, "dest {} mangled", dest);
        }
        let total: usize = out_per_dest.values().map(|v| v.len()).sum();
        prop_assert_eq!(total, dests.len());
    }

    #[test]
    fn deadline_bound_holds_under_regular_polling(
        window in 2usize..100,
        max_delay in 100u64..5_000,
        gaps in proptest::collection::vec(1u64..300, 1..300),
    ) {
        // Poll cadence strictly finer than max_delay ⇒ no parcel waits
        // longer than max_delay + one poll gap.
        let poll_every = (max_delay / 2).max(1);
        let mut c = Coalescer::new(window, 512, max_delay);
        let mut offered: std::collections::HashMap<u64, u64> = Default::default();
        let mut worst_wait = 0u64;
        let mut t = 0u64;
        let mut next_poll = poll_every;
        for (seq, gap) in gaps.iter().enumerate() {
            t += gap;
            while next_poll <= t {
                for m in c.poll(next_poll) {
                    for p in &m.parcels {
                        worst_wait = worst_wait.max(next_poll - offered[&p.seq]);
                    }
                }
                next_poll += poll_every;
            }
            offered.insert(seq as u64, t);
            if let Some(m) = c.offer(Parcel::new(0, 1, 0, seq as u64, Vec::new()), t) {
                for p in &m.parcels {
                    worst_wait = worst_wait.max(t - offered[&p.seq]);
                }
            }
        }
        prop_assert!(
            worst_wait <= max_delay + poll_every,
            "a parcel waited {} ns (bound {})",
            worst_wait,
            max_delay + poll_every
        );
    }

    #[test]
    fn link_arrivals_monotone_and_causal(
        msgs in proptest::collection::vec((0u64..1_000_000, 1usize..20, 0usize..256), 1..50),
    ) {
        let mut sorted = msgs.clone();
        sorted.sort_by_key(|m| m.0);
        let mut link = SimLink::new(TransportCost::cluster());
        let mut last_arrival = 0u64;
        let mut seq = 0u64;
        let mut deliveries = Vec::new();
        for (t, n, bytes) in sorted {
            let wire = lg_net::coalesce::WireMessage {
                dest: 1,
                parcels: (0..n)
                    .map(|_| {
                        seq += 1;
                        Parcel::new(0, 1, 0, seq, vec![0u8; bytes])
                    })
                    .collect(),
                reason: lg_net::coalesce::FlushReason::Window,
                t_ns: t,
            };
            deliveries.clear();
            link.transmit(&wire, |_| t, &mut deliveries);
            for d in &deliveries {
                prop_assert!(d.arrived_ns > t, "arrival before submission");
                prop_assert!(d.arrived_ns >= last_arrival, "link reordered messages");
            }
            last_arrival = deliveries.last().map(|d| d.arrived_ns).unwrap_or(last_arrival);
        }
        let r = link.report();
        prop_assert_eq!(r.parcels, seq);
    }

    #[test]
    fn reliable_delivery_exactly_once_under_any_fault_schedule(
        fault_seed in 0u64..10_000,
        link_seed in 0u64..10_000,
        drop_prob in 0.0f64..0.7,
        dup_prob in 0.0f64..0.9,
        jitter in 0u64..20_000,
        sizes in proptest::collection::vec(1u64..5, 1..50),
    ) {
        // For ANY seeded drop/duplicate/jitter schedule, a generous budget
        // guarantees every offered parcel surfaces exactly once.
        let plan = FaultPlan::new(fault_seed)
            .drop_prob(drop_prob)
            .duplicate_prob(dup_prob)
            .jitter_ns(jitter);
        let config = ReliableConfig {
            ack_timeout_ns: 50_000,
            backoff_base_ns: 10_000,
            backoff_max_ns: 500_000,
            retry_budget: 4_096,
            retry_refill_per_sec: 1e6,
            breaker_threshold: 1_024,
            ..ReliableConfig::default()
        };
        let mut rl =
            ReliableLink::with_faults(TransportCost::cluster(), plan, config, link_seed);
        let mut next_seq = 0u64;
        for (i, &k) in sizes.iter().enumerate() {
            let t = i as u64 * 30_000;
            let parcels = (0..k)
                .map(|_| {
                    let s = next_seq;
                    next_seq += 1;
                    Parcel::new(0, 1 + (i % 3) as u32, 0, s, vec![0u8; 16])
                })
                .collect();
            let msg = WireMessage {
                dest: 1 + (i % 3) as u32,
                parcels,
                reason: FlushReason::Window,
                t_ns: t,
            };
            rl.send(msg, |_| t);
        }
        let delivered = rl.drain();
        let mut seqs: Vec<u64> = delivered.iter().map(|d| d.seq).collect();
        let surfaced = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), surfaced, "a parcel surfaced more than once");
        prop_assert_eq!(seqs, (0..next_seq).collect::<Vec<u64>>());
        let r = rl.report();
        prop_assert_eq!(r.unique_parcels, next_seq);
        prop_assert_eq!(r.abandoned_parcels, 0);
    }

    #[test]
    fn retries_never_exceed_budget_with_zero_refill(
        budget in 0i64..16,
        fault_seed in 0u64..10_000,
        drop_prob in 0.0f64..0.9,
        count in 1usize..40,
    ) {
        // With zero refill the token bucket never regains tokens, so total
        // retries to a destination can never exceed its initial capacity —
        // and every parcel still resolves (delivered or abandoned).
        let plan = FaultPlan::new(fault_seed).drop_prob(drop_prob).outage(0, 200_000);
        let config = ReliableConfig {
            ack_timeout_ns: 50_000,
            backoff_base_ns: 10_000,
            backoff_max_ns: 500_000,
            retry_budget: budget,
            retry_refill_per_sec: 0.0,
            breaker_threshold: 1_024,
            max_attempts: 16,
            ..ReliableConfig::default()
        };
        let mut rl = ReliableLink::with_faults(
            TransportCost::cluster(),
            plan,
            config,
            fault_seed ^ 1,
        );
        for i in 0..count {
            let t = i as u64 * 20_000;
            let msg = WireMessage {
                dest: 1,
                parcels: vec![Parcel::new(0, 1, 0, i as u64, vec![0u8; 16])],
                reason: FlushReason::Window,
                t_ns: t,
            };
            rl.send(msg, |_| t);
        }
        let delivered = rl.drain();
        let r = rl.report();
        prop_assert!(
            r.retries_consumed <= budget as u64,
            "{} retries consumed with budget {}",
            r.retries_consumed,
            budget
        );
        prop_assert_eq!(r.retransmissions, r.retries_consumed);
        prop_assert_eq!(delivered.len() as u64 + r.abandoned_parcels, count as u64);
    }

    #[test]
    fn occupancy_additive_under_splitting(k in 1usize..64, bytes in 0usize..4096) {
        // Sending k parcels separately always costs at least as much link
        // occupancy as one coalesced message (α amortization, header cost).
        let c = TransportCost::cluster();
        let separate: u64 = (0..k).map(|_| c.occupancy_ns(bytes + Parcel::HEADER_BYTES)).sum();
        let together = c.occupancy_ns(k * (bytes + Parcel::HEADER_BYTES));
        prop_assert!(together <= separate, "{together} > {separate}");
    }
}
