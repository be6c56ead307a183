//! Overload-robust serving on a live thread pool, end to end.
//!
//! ```sh
//! cargo run --release --example overload_shedding
//! ```
//!
//! Three phases of paced open-loop arrivals, all through [`PoolServer`]
//! (brownout → rate gate → bulkhead → pool):
//!
//! 1. **Light load** — everything is admitted and completes quickly.
//! 2. **Unprotected overload** — a wide-open bulkhead admits the whole
//!    burst; every request completes, but the backlog pushes most of them
//!    past their deadline (completed ≠ goodput).
//! 3. **Protected overload** — the brownout sheds optional work, the
//!    gate caps the admit rate, and a small bulkhead bounces the rest as
//!    busy; the pool's backlog stays bounded, so what is served finishes
//!    near its budget.
//!
//! The assertions here are *accounting* facts (conservation, shed
//! ordering, journaling) that hold on any machine; the latency columns
//! are printed for inspection because wall-clock numbers depend on the
//! host. Every knob write flows through the [`KnobRegistry`], so the
//! phase-3 degradation (raising `serve.shed_level`) lands in the same
//! actuation journal the fig9 experiment's policies use.

use looking_glass::core::{AdmissionGate, Brownout, Bulkhead, LookingGlass, RequestClass};
use looking_glass::runtime::{PoolConfig, ThreadPool};
use looking_glass::workloads::serve::{PoolServeReport, PoolServer};
use std::time::Duration;

const REQUESTS: u64 = 200;
const BUDGET_NS: u64 = 4_000_000; // 4 ms deadline

struct Phase {
    label: &'static str,
    limit: i64,
    gate_rate: i64,
    shed_level: i64,
    gap: Duration,
    service_ns: u64,
}

fn run_phase(phase: &Phase) -> (PoolServeReport, usize) {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));

    let bulkhead = Bulkhead::new("serve.bulkhead_limit", 1, 1_024, phase.limit);
    let gate = AdmissionGate::new("serve.admit_rate", 1, 2_000_000, phase.gate_rate, 64.0, 8.0);
    let brownout = Brownout::new("serve.shed_level");
    lg.knobs().register(bulkhead.limit_knob().clone());
    lg.knobs().register(gate.rate_knob().clone());
    let shed = lg.knobs().register(brownout.level_knob().clone());

    let server = PoolServer::new(pool, bulkhead, gate, brownout);
    // Actuate degradation through the registry: clamped + journaled.
    lg.knobs()
        .set_id(shed, phase.shed_level)
        .expect("registered knob");

    for i in 0..REQUESTS {
        let class = if i % 2 == 0 {
            RequestClass::Mandatory
        } else {
            RequestClass::Optional
        };
        server.submit(class, phase.service_ns, BUDGET_NS);
        std::thread::sleep(phase.gap);
    }
    let report = server.finish();
    (report, lg.knobs().journal().records().len())
}

fn main() {
    let phases = [
        Phase {
            label: "light load, no protection",
            limit: 64,
            gate_rate: 2_000_000,
            shed_level: 0,
            gap: Duration::from_micros(500),
            service_ns: 100_000,
        },
        Phase {
            label: "overload, wide open",
            limit: 1_024,
            gate_rate: 2_000_000,
            shed_level: 0,
            gap: Duration::from_micros(100),
            service_ns: 1_000_000,
        },
        Phase {
            label: "overload, admission + brownout",
            limit: 4,
            gate_rate: 4_000,
            shed_level: 4,
            gap: Duration::from_micros(100),
            service_ns: 1_000_000,
        },
    ];

    println!(
        "{:<32} {:>8} {:>6} {:>6} {:>9} {:>8} {:>9} {:>9}",
        "phase", "offered", "shed", "busy", "completed", "goodput", "p50 ms", "p99 ms"
    );
    for (i, phase) in phases.iter().enumerate() {
        let (r, journal_len) = run_phase(phase);
        println!(
            "{:<32} {:>8} {:>6} {:>6} {:>9} {:>8} {:>9.2} {:>9.2}",
            phase.label,
            r.offered,
            r.shed,
            r.busy,
            r.completed,
            r.goodput,
            r.p50_latency_ns as f64 / 1e6,
            r.p99_latency_ns as f64 / 1e6,
        );

        // Conservation: every request resolves exactly one way, and the
        // shed-level actuation is always on the audit trail.
        assert_eq!(r.offered, REQUESTS);
        assert_eq!(r.shed + r.busy + r.completed, r.offered);
        assert!(journal_len >= 1, "the shed-level write must be journaled");
        match i {
            // Wide open: nothing is rejected, everything completes —
            // late or not (lateness is the collapse the table shows).
            1 => {
                assert_eq!(r.shed, 0, "wide-open gate sheds nothing");
                assert_eq!(r.busy, 0, "a 1024-wide bulkhead never fills");
                assert_eq!(r.completed, REQUESTS);
            }
            // Protected: level 4 sheds every optional request up front
            // (half the stream), so the pool only ever sees mandatory
            // work, bounded by the gate and the bulkhead.
            2 => {
                assert!(r.shed >= REQUESTS / 2, "all optional work shed");
                assert!(r.completed <= REQUESTS / 2);
            }
            _ => {}
        }
    }
    println!("\nevery rejection was free: shed/busy requests never reached the pool");
}
