//! The virtual-time layers: `lg-sim`, `lg-net`, `lg-tuning` and the
//! generators and serving engine of `lg-workloads`. These move
//! `simserve` (`ops_per_s`; `setup_s` through the generators, also on
//! `dagdrain`) and nothing on the real pool.

use super::Probes;
use crate::trace::{Layer, Site, Tracing};
use crate::workloads::dagdrain::trio_configs;
use crate::workloads::simserve::{arrivals, storm_plan, SERVE_RUN, STORM_BASE_RPS};
use lg_core::{AdmissionGate, Brownout, Bulkhead, Clock as _};
use lg_net::coalesce::WireMessage;
use lg_net::{
    Coalescer, FlushReason, Parcel, ReliableConfig, ReliableLink, ReliableReport, TransportCost,
};
use lg_sim::{MachineSpec, SimRuntime};
use lg_tuning::{Dim, HillClimb, NelderMead, Search, Space};
use lg_workloads::dag::{generate, run_on_sim, CostModel, DagSched};
use lg_workloads::serve::{ServeConfig, ServeEngine};
use lg_workloads::Stencil1d;
use std::hint::black_box;

const fn site(name: &'static str, layer: Layer) -> Site {
    Site { name, layer }
}

static SIM_STEP: Site = site("sim.stencil_step", Layer::Sim);
static SIM_DAG_CP: Site = site("sim.dag_critical_path", Layer::Sim);
static SIM_DAG_FIFO: Site = site("sim.dag_fifo", Layer::Sim);
static SIM_RUN_UNTIL: Site = site("sim.run_until", Layer::Sim);
static NET_SEND: Site = site("net.reliable_send", Layer::Net);
static NET_SEND_FAULTED: Site = site("net.reliable_send_faulted", Layer::Net);
static NET_COALESCE: Site = site("net.coalesce_offer", Layer::Net);
static HILLCLIMB: Site = site("tuning.hillclimb_step", Layer::Tuning);
static NELDERMEAD: Site = site("tuning.neldermead_step", Layer::Tuning);
static DAG_GENERATE: Site = site("workloads.dag_generate", Layer::Workloads);
static ARRIVALS: Site = site("workloads.arrivals_generate", Layer::Workloads);

pub fn run(p: &mut Probes) {
    sim(p);
    net(p);
    tuning(p);
    workloads(p);
}

fn sim(p: &mut Probes) {
    const TASKS: u32 = 64;
    let workload = Stencil1d::sim_workload(1_000_000, TASKS as usize);
    let mut rt = SimRuntime::new(MachineSpec::server32());
    let ns = p.per_call(&SIM_STEP, 101, 1, || {
        rt.submit_all(workload.step_batch());
        black_box(rt.run_until_idle());
    });
    p.emit("sim.tasks_per_s", TASKS as f64 * 1e9 / ns);

    // One lockstep slice, as a tenant stepped by an arbiter round sees
    // it: a standing backlog, advanced 1 ms at a time.
    let mut rt = SimRuntime::new(MachineSpec::server32());
    let ns = p.per_call(&SIM_RUN_UNTIL, 201, 1, || {
        if rt.backlog() < TASKS as usize {
            rt.submit_all(workload.step_batch());
        }
        let until = rt.clock().now_ns() + 1_000_000;
        black_box(rt.run_until(until));
    });
    p.emit("sim.run_until_us", ns / 1e3);

    // The repo's fig11 host: 8 cores, bandwidth out of the way.
    let machine = MachineSpec {
        cores: 8,
        core_flops: 1e9,
        mem_bw: 1e12,
        power: lg_metrics::PowerModel::new(10.0, 2.0),
        sched_overhead_ns: 0,
        stall_intensity: 0.5,
    };
    let spec = generate(&trio_configs(p.seed)[0], &CostModel::default());
    for (site, sched, name) in [
        (
            &SIM_DAG_CP,
            DagSched::CriticalPath,
            "sim.dag_nodes_per_s_cp",
        ),
        (&SIM_DAG_FIFO, DagSched::Fifo, "sim.dag_nodes_per_s_fifo"),
    ] {
        let ns = p.per_call(site, 15, 1, || {
            let mut rt = SimRuntime::new(machine);
            black_box(run_on_sim(&mut rt, &spec, sched));
        });
        p.emit(name, spec.nodes() as f64 * 1e9 / ns);
    }
}

const BATCH: u32 = 256;

/// `BATCH` one-parcel messages, 10 µs apart, built outside the span.
fn messages(first_seq: u64) -> Vec<WireMessage> {
    (first_seq..first_seq + BATCH as u64)
        .map(|seq| WireMessage {
            dest: (seq % 4) as u32,
            parcels: vec![Parcel::new(0, (seq % 4) as u32, 0, seq, vec![0u8; 64])],
            reason: FlushReason::Window,
            t_ns: seq * 10_000,
        })
        .collect()
}

/// Sends batches through `link`, pumping after each message; returns the
/// median ns per send and the link's final report.
fn send_probe(
    p: &mut Probes,
    site: &'static Site,
    mut link: ReliableLink,
) -> (f64, ReliableReport) {
    let mut seq = 0u64;
    for b in 0..p.reps(41) as u64 {
        let batch = messages(seq);
        seq += BATCH as u64;
        let span = p.tr.begin(site, b);
        for msg in batch {
            let t = msg.t_ns;
            link.send(msg, |_| t);
            black_box(link.pump(t));
        }
        p.tr.end(span, BATCH);
    }
    link.drain();
    (p.tr.per_call_ns(site), link.report())
}

fn net(p: &mut Probes) {
    let clean = ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), p.seed);
    let (ns, _) = send_probe(p, &NET_SEND, clean);
    p.emit("net.reliable_send_ns", ns);
    let faulted = ReliableLink::with_faults(
        TransportCost::cluster(),
        storm_plan(p.seed),
        ReliableConfig::default(),
        p.seed,
    );
    let (ns, report) = send_probe(p, &NET_SEND_FAULTED, faulted);
    p.emit("net.reliable_send_faulted_ns", ns);
    // Wire offers (first sends + retransmissions) per unique delivery.
    p.emit(
        "net.retry_amplification",
        (report.offered_parcels + report.retransmissions) as f64
            / report.unique_parcels.max(1) as f64,
    );

    let mut coalescer = Coalescer::new(8, 64, u64::MAX / 2);
    let mut seq = 0u64;
    let ns = p.per_call(&NET_COALESCE, 31, 5_000, || {
        seq += 1;
        black_box(coalescer.offer(Parcel::new(0, 1, 0, seq, Vec::new()), seq));
    });
    p.emit("net.coalesce_offer_ns", ns);
}

fn tuning(p: &mut Probes) {
    let space = || {
        Space::new(vec![
            Dim::range("a", 0, 1_000, 1),
            Dim::range("b", 0, 1_000, 1),
        ])
    };
    let bowl = |pt: &[i64]| ((pt[0] - 500).pow(2) + (pt[1] - 500).pow(2)) as f64;
    let mut hc = HillClimb::new(space());
    let ns = p.per_call(&HILLCLIMB, 31, 2_000, || match hc.propose() {
        Some(pt) => hc.report(&pt, bowl(&pt)),
        None => hc = HillClimb::new(space()),
    });
    p.emit("tuning.hillclimb_step_ns", ns);
    let mut nm = NelderMead::new(space(), 500);
    let ns = p.per_call(&NELDERMEAD, 31, 2_000, || match nm.propose() {
        Some(pt) => nm.report(&pt, bowl(&pt)),
        None => nm = NelderMead::new(space(), 500),
    });
    p.emit("tuning.neldermead_step_ns", ns);
}

fn workloads(p: &mut Probes) {
    let cfg = trio_configs(p.seed)[0];
    let ns = p.per_call(&DAG_GENERATE, 31, 1, || {
        black_box(generate(&cfg, &CostModel::default()));
    });
    p.emit("workloads.dag_generate_us", ns / 1e3);

    let mut seed = p.seed;
    let ns = p.per_call(&ARRIVALS, 15, 1, || {
        seed += 1;
        black_box(arrivals(STORM_BASE_RPS, seed));
    });
    p.emit("workloads.arrivals_generate_us", ns / 1e3);

    // The serving engine alone: clean wire, fixed limits, no controllers.
    let requests = arrivals(STORM_BASE_RPS / 2.0, p.seed);
    let mut per_req_ns = Vec::new();
    for i in 0..p.reps(9) as u64 {
        let mut engine = ServeEngine::new(
            ReliableLink::new(TransportCost::cluster(), ReliableConfig::default(), p.seed),
            ServeConfig::default(),
            Bulkhead::new("serve.bulkhead_limit", 1, 256, 32),
            AdmissionGate::new("serve.admit_rate", 100, 1_000_000, 1_000_000, 64.0, 8.0),
            Brownout::new("serve.shed_level"),
        );
        let span = p.tr.begin(&SERVE_RUN, i);
        let t0 = p.tr.now_ns();
        let report = engine.run(&requests, |_| {});
        let ns = p.tr.now_ns() - t0;
        p.tr.end(span, report.offered as u32);
        per_req_ns.push(ns as f64 / report.offered as f64);
    }
    p.emit(
        "workloads.serve_ns_per_req",
        crate::stats::median(&per_req_ns),
    );
}
