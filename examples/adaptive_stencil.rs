//! Adaptive concurrency throttling on the simulated machine.
//!
//! ```sh
//! cargo run --release --example adaptive_stencil
//! ```
//!
//! Runs the memory-bound heat-diffusion workload on a 32-core simulated
//! machine and lets an online tuning session (hill climbing on the
//! energy-delay product) find the thread cap at the bandwidth knee —
//! the core loop of the paper, end to end, in deterministic virtual time.

use looking_glass::core::{Clock as _, SessionConfig, SessionStep, TuningSession};
use looking_glass::sim::{MachineSpec, SimRuntime, SimWorkload};
use looking_glass::tuning::{Dim, HillClimb, Space};

fn main() {
    let spec = MachineSpec::server32();
    let workload = SimWorkload::stencil(5e8, 64);
    println!(
        "machine: {} cores, {:.0} GB/s; stencil knee at ~{:.1} cores",
        spec.cores,
        spec.mem_bw / 1e9,
        spec.bandwidth_knee(workload.bytes_per_op)
    );

    let mut sim = SimRuntime::new(spec);
    let space = Space::new(vec![Dim::values("thread_cap", vec![1, 2, 4, 8, 16, 32])]);
    let search = Box::new(HillClimb::from_start(space, &[32]));
    let mut session = TuningSession::new(
        SessionConfig::single("thread_cap", 0, 0),
        search,
        sim.lg().knobs().clone(),
    );
    let cap = sim
        .lg()
        .knobs()
        .id("thread_cap")
        .expect("the simulator registers thread_cap");

    println!("\nepoch  cap  time_ms  energy_j      edp");
    loop {
        match session.next(sim.clock().now_ns()) {
            SessionStep::Done { best } => {
                let (point, edp) = best.expect("measured at least one epoch");
                println!(
                    "\nconverged: thread_cap = {} (edp {:.3}) after {} epochs",
                    point[0],
                    edp,
                    session.history().len()
                );
                println!(
                    "knob left applied: thread_cap = {:?}",
                    sim.lg().knobs().value_id(cap)
                );
                break;
            }
            SessionStep::Measure { point, .. } => {
                // One measurement epoch = four workload timesteps.
                let mut elapsed = 0u64;
                let mut energy = 0.0;
                for _ in 0..4 {
                    sim.submit_all(workload.step_batch());
                    let r = sim.run_until_idle();
                    elapsed += r.elapsed_ns;
                    energy += r.energy_j;
                }
                let time_s = elapsed as f64 * 1e-9;
                let edp = energy * time_s;
                println!(
                    "{:>5}  {:>3}  {:>7.2}  {:>8.3}  {:>8.4}",
                    session.history().len(),
                    point[0],
                    time_s * 1e3,
                    energy,
                    edp
                );
                session.complete(edp);
            }
        }
    }

    // Show the final profile the observation layer accumulated.
    let prof = sim.lg().profiles().get("stencil").expect("stencil profile");
    println!(
        "\nstencil tasks executed: {} (mean {:.1} us each)",
        prof.count,
        prof.mean_ns / 1e3
    );
    println!(
        "total energy: {:.2} J over the whole session",
        sim.total_energy_j()
    );
}
