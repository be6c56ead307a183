//! Figure 8 — fault storms: static vs adaptive retry budgets.
//!
//! A parcel storm is pushed through the reliability layer over a flapping,
//! lossy link. The retry budget (token-bucket capacity per destination)
//! poses a genuine trade-off under a storm:
//!
//! * a **small** static budget bounds the retry *rate* but starves
//!   recovery — the post-outage backlog drains at the refill rate, and a
//!   backlog that lives through extra outage windows collects extra
//!   failed attempts, so total amplification can even rise;
//! * a **large** static budget recovers fast but keeps retrying into the
//!   dead link during outages, paying wire occupancy that delays the
//!   queued traffic behind it (the link is serialized);
//! * the **adaptive** policy watches the reliability layer's own
//!   observables (timeouts vs acks per epoch) and moves the `retry_budget`
//!   knob: clamp down while the link is failing, open up when it heals.
//!
//! Everything runs in virtual time from seeded RNGs, so a given
//! `(seed, policy)` pair replays bit-for-bit.

use crate::report::{fmt_f, write_table, Table};
use lg_core::Knob;
use lg_net::coalesce::{FlushReason, WireMessage};
use lg_net::parcel::Parcel;
use lg_net::{FaultPlan, ReliableConfig, ReliableLink, TransportCost};
use lg_workloads::ParcelStorm;
use std::io::{self, Write};

/// How the retry budget is chosen during the run.
#[derive(Clone, Copy, Debug)]
pub enum RetryPolicy {
    /// Fixed budget for the whole run.
    Static(i64),
    /// Epoch controller: budget `low` while timeouts dominate acks,
    /// `high` otherwise.
    Adaptive {
        /// Budget under storm (timeouts dominate).
        low: i64,
        /// Budget in calm weather.
        high: i64,
    },
}

impl RetryPolicy {
    fn label(&self) -> String {
        match self {
            RetryPolicy::Static(b) => format!("static-{b}"),
            RetryPolicy::Adaptive { low, high } => format!("adaptive-{low}/{high}"),
        }
    }

    fn initial(&self) -> i64 {
        match *self {
            RetryPolicy::Static(b) => b,
            RetryPolicy::Adaptive { high, .. } => high,
        }
    }
}

/// Result of one (load, policy) run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultStormResult {
    /// Policy label.
    pub policy: String,
    /// Unique parcels per second over the delivery makespan, thousands.
    pub goodput_kpps: f64,
    /// Retransmissions per offered parcel.
    pub retry_amplification: f64,
    /// Mean offer→delivery latency (µs).
    pub mean_lat_us: f64,
    /// 99th percentile offer→delivery latency (µs).
    pub p99_lat_us: f64,
    /// Unique parcels delivered.
    pub delivered: u64,
    /// Parcels abandoned after `max_attempts`.
    pub abandoned: u64,
    /// Budget-knob writes made by the adaptive controller.
    pub budget_switches: u64,
}

const PAYLOAD: usize = 64;
const BATCH: usize = 8;
/// Adaptive controller decision period (virtual time).
const EPOCH_NS: u64 = 100_000;
/// Flap schedule: 2 ms of service, 1 ms of outage, repeating. The outage
/// spans several ack timeouts, so an unthrottled sender retries into the
/// dead link repeatedly before it heals.
const FLAP_UP_NS: u64 = 2_000_000;
const FLAP_DOWN_NS: u64 = 1_000_000;

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_prob(0.05)
        .flap(FLAP_UP_NS, FLAP_DOWN_NS)
        .jitter_ns(2_000)
}

fn storm_config(initial_budget: i64) -> ReliableConfig {
    ReliableConfig {
        ack_timeout_ns: 300_000,
        backoff_base_ns: 50_000,
        backoff_max_ns: 2_000_000,
        retry_budget: initial_budget,
        retry_refill_per_sec: 20_000.0,
        ..ReliableConfig::default()
    }
}

/// Simulates the full storm through the reliability layer under `policy`.
/// `seed` drives both the fault plan and the backoff jitter.
pub fn simulate(schedule: &[u64], policy: RetryPolicy, seed: u64) -> FaultStormResult {
    let mut rl = ReliableLink::with_faults(
        TransportCost::cluster(),
        storm_plan(seed),
        storm_config(policy.initial()),
        seed ^ 0x9e37_79b9,
    );
    let offer_time = |seq: u64| schedule[seq as usize];

    let mut switches = 0u64;
    let mut delivered = 0u64;
    let mut next_epoch = EPOCH_NS;
    let mut last_timeouts = 0u64;
    let mut last_acks = 0u64;
    let mut batch: Vec<Parcel> = Vec::with_capacity(BATCH);
    for (seq, &t) in schedule.iter().enumerate() {
        // Adaptive control at epoch boundaries: compare the layer's own
        // timeout/ack deltas and steer the budget knob.
        while t >= next_epoch {
            delivered += rl.pump(next_epoch).len() as u64;
            if let RetryPolicy::Adaptive { low, high } = policy {
                let r = rl.report();
                let (dt, da) = (r.timeouts - last_timeouts, r.acks - last_acks);
                last_timeouts = r.timeouts;
                last_acks = r.acks;
                // Clamp down only on clear evidence: timeouts must beat
                // acks *and* be non-trivial, else a single random drop in
                // a quiet gap would throttle the next burst's recovery.
                let want = if dt > da.max(3) { low } else { high };
                if rl.retry_budget_knob().get() != want {
                    rl.retry_budget_knob().set(want);
                    switches += 1;
                }
            }
            next_epoch += EPOCH_NS;
        }
        delivered += rl.pump(t).len() as u64;
        batch.push(Parcel::new(0, 1, 0, seq as u64, vec![0u8; PAYLOAD]));
        if batch.len() == BATCH {
            let msg = WireMessage {
                dest: 1,
                parcels: std::mem::take(&mut batch),
                reason: FlushReason::Window,
                t_ns: t,
            };
            rl.send(msg, offer_time);
        }
    }
    if !batch.is_empty() {
        let t = *schedule.last().expect("non-empty schedule");
        rl.send(
            WireMessage {
                dest: 1,
                parcels: batch,
                reason: FlushReason::Window,
                t_ns: t,
            },
            offer_time,
        );
    }
    delivered += rl.drain().len() as u64;
    let r = rl.report();
    debug_assert_eq!(delivered, r.unique_parcels);
    FaultStormResult {
        policy: policy.label(),
        goodput_kpps: r.goodput_parcels_per_sec() / 1e3,
        retry_amplification: r.retry_amplification(),
        mean_lat_us: r.mean_delivery_latency_ns / 1e3,
        p99_lat_us: r.p99_delivery_latency_ns as f64 / 1e3,
        delivered: r.unique_parcels,
        abandoned: r.abandoned_parcels,
        budget_switches: switches,
    }
}

/// The policies the experiment compares.
pub fn policies() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::Static(4),
        RetryPolicy::Static(32),
        RetryPolicy::Static(512),
        RetryPolicy::Adaptive { low: 4, high: 512 },
    ]
}

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let count = if fast { 30_000 } else { 150_000 };
    let loads = [
        (
            "steady",
            ParcelStorm::steady(5e5, PAYLOAD, 21).schedule(count),
        ),
        (
            "bursty",
            ParcelStorm::bursty(5e5, PAYLOAD, 22).schedule(count),
        ),
    ];
    let mut table = Table::new(
        "Figure 8: retry-budget policy under a fault storm",
        &[
            "load",
            "policy",
            "goodput_kpps",
            "retry_amp",
            "mean_lat_us",
            "p99_lat_us",
            "abandoned",
            "switches",
        ],
    );
    for (name, schedule) in &loads {
        for policy in policies() {
            let r = simulate(schedule, policy, 77);
            table.row(&[
                name.to_string(),
                r.policy.clone(),
                fmt_f(r.goodput_kpps),
                fmt_f(r.retry_amplification),
                fmt_f(r.mean_lat_us),
                fmt_f(r.p99_lat_us),
                r.abandoned.to_string(),
                r.budget_switches.to_string(),
            ]);
        }
    }
    write_table(out, &table, "fig8_faults")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_schedule(count: usize) -> Vec<u64> {
        ParcelStorm::steady(5e5, PAYLOAD, 1).schedule(count)
    }

    #[test]
    fn deterministic_per_seed() {
        let schedule = storm_schedule(8_000);
        let a = simulate(&schedule, RetryPolicy::Adaptive { low: 4, high: 512 }, 5);
        let b = simulate(&schedule, RetryPolicy::Adaptive { low: 4, high: 512 }, 5);
        assert_eq!(a, b);
        let c = simulate(&schedule, RetryPolicy::Adaptive { low: 4, high: 512 }, 6);
        assert_ne!(a, c, "different storm seeds should differ somewhere");
    }

    #[test]
    fn every_parcel_delivered_or_abandoned() {
        let schedule = storm_schedule(8_000);
        for policy in policies() {
            let r = simulate(&schedule, policy, 3);
            assert_eq!(
                r.delivered + r.abandoned,
                schedule.len() as u64,
                "{}: parcels lost",
                r.policy
            );
        }
    }

    #[test]
    fn adaptive_matches_best_static_goodput() {
        let schedule = storm_schedule(20_000);
        let statics: Vec<FaultStormResult> = [4, 32, 512]
            .iter()
            .map(|&b| simulate(&schedule, RetryPolicy::Static(b), 11))
            .collect();
        let adaptive = simulate(&schedule, RetryPolicy::Adaptive { low: 4, high: 512 }, 11);
        assert!(adaptive.budget_switches > 0, "controller never acted");
        let best = statics.iter().map(|r| r.goodput_kpps).fold(0.0, f64::max);
        assert!(
            adaptive.goodput_kpps >= best * 0.95,
            "adaptive {} vs best static {best}",
            adaptive.goodput_kpps
        );
        // Amplification stays bounded: no worse than the worst static
        // policy, and far from retransmission collapse in absolute terms.
        let worst_amp = statics
            .iter()
            .map(|r| r.retry_amplification)
            .fold(0.0, f64::max);
        assert!(
            adaptive.retry_amplification <= worst_amp && adaptive.retry_amplification < 0.2,
            "adaptive amplification {} vs worst static {worst_amp}",
            adaptive.retry_amplification
        );
    }

    #[test]
    fn small_budget_starves_goodput() {
        // The small budget bounds the retry *rate*, but the starved
        // backlog lives through more outage windows, so it loses on
        // goodput without even winning on total amplification.
        let schedule = storm_schedule(10_000);
        let small = simulate(&schedule, RetryPolicy::Static(4), 13);
        let big = simulate(&schedule, RetryPolicy::Static(512), 13);
        assert!(
            small.goodput_kpps < big.goodput_kpps * 0.8,
            "small-budget starvation should cost goodput: {} vs {}",
            small.goodput_kpps,
            big.goodput_kpps
        );
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("fig8");
    }
}
