//! Fig 3 — online throttling convergence trace.
//!
//! An online tuning session (hill climbing over the thread cap, objective
//! = EDP of a measurement window) runs against the memory-bound workload
//! on the simulated machine, once cold-started from the full machine
//! (cap = 32) and once from a strangled configuration (cap = 1). Expected
//! shape: both traces walk to the same energy-optimal cap (near the
//! bandwidth knee) within a few dozen epochs, and the session leaves the
//! winner applied.

#[cfg(test)]
use crate::experiments::common::best_pow2_cap;
use crate::experiments::common::{best_static_cap, pow2_caps, run_steps};
use crate::report::{fmt_f, write_csv, Table};
use lg_core::{Clock as _, SessionConfig, SessionStep, TuningSession};
use lg_sim::{MachineSpec, SimRuntime, SimWorkload};
use lg_tuning::{Dim, HillClimb, Space};

/// One epoch of the convergence trace.
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Epoch index.
    pub epoch: usize,
    /// Cap evaluated this epoch.
    pub cap: i64,
    /// Observed EDP.
    pub edp: f64,
}

/// Runs the tuning session from `start_cap`; returns the trace and the
/// final cap.
pub fn converge_from(
    spec: &MachineSpec,
    workload: &SimWorkload,
    start_cap: i64,
    steps_per_epoch: usize,
) -> (Vec<TracePoint>, i64) {
    let mut sim = SimRuntime::new(*spec);
    let space = Space::new(vec![Dim::values("thread_cap", pow2_caps(spec.cores))]);
    let search = Box::new(HillClimb::from_start(space, &[start_cap]));
    let cfg = SessionConfig::single("thread_cap", 0, 0);
    let mut session = TuningSession::new(cfg, search, sim.lg().knobs().clone());
    let mut trace = Vec::new();
    loop {
        match session.next(sim.clock().now_ns()) {
            SessionStep::Done { best } => {
                let final_cap = best.map(|(p, _)| p[0]).unwrap_or(start_cap);
                return (trace, final_cap);
            }
            SessionStep::Measure { point, .. } => {
                let r = run_steps(&mut sim, workload, steps_per_epoch);
                let edp = r.energy_j * r.elapsed_s();
                trace.push(TracePoint {
                    epoch: trace.len(),
                    cap: point[0],
                    edp,
                });
                session.complete(edp);
            }
        }
    }
}

/// Runs the experiment.
pub fn run(fast: bool) {
    let spec = MachineSpec::server32();
    let ops = if fast { 5e7 } else { 5e8 };
    let workload = SimWorkload::stencil(ops, 64);
    let steps = if fast { 1 } else { 4 };

    let (oracle_cap, oracle_edp) = best_static_cap(&spec, &workload, steps);

    let mut table = Table::new(
        "Fig 3: throttling convergence trace (hill climb on EDP)",
        &["start", "epoch", "cap", "edp"],
    );
    for start in [spec.cores as i64, 1] {
        let (trace, final_cap) = converge_from(&spec, &workload, start, steps);
        for t in &trace {
            table.row(&[
                format!("cap={start}"),
                t.epoch.to_string(),
                t.cap.to_string(),
                fmt_f(t.edp),
            ]);
        }
        println!(
            "start cap {start}: converged to cap {final_cap} in {} epochs (oracle: cap {oracle_cap}, edp {})",
            trace.len(),
            fmt_f(oracle_edp)
        );
    }
    println!("{}", table.render());
    let path = write_csv(&table, "fig3_convergence");
    println!("wrote {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_near_oracle_from_both_sides() {
        let spec = MachineSpec::server32();
        let w = SimWorkload::stencil(5e7, 64);
        let (oracle, _) = best_pow2_cap(&spec, &w, 1);
        for start in [32, 1] {
            let (trace, final_cap) = converge_from(&spec, &w, start, 1);
            // Within one power-of-two level of the restricted oracle.
            assert!(
                final_cap as usize == oracle
                    || final_cap as usize == oracle * 2
                    || oracle == (final_cap as usize) * 2,
                "from {start}: final {final_cap} vs oracle {oracle}"
            );
            assert!(trace.len() <= 12, "too many epochs: {}", trace.len());
        }
    }

    #[test]
    fn winner_left_applied_on_knobs() {
        let spec = MachineSpec::server32();
        let w = SimWorkload::stencil(5e7, 64);
        let mut sim = SimRuntime::new(spec);
        let space = Space::new(vec![Dim::values("thread_cap", pow2_caps(32))]);
        let search = Box::new(HillClimb::from_start(space, &[32]));
        let mut session = TuningSession::new(
            SessionConfig::single("thread_cap", 0, 0),
            search,
            sim.lg().knobs().clone(),
        );
        let best = loop {
            match session.next(sim.clock().now_ns()) {
                SessionStep::Done { best } => break best.unwrap(),
                SessionStep::Measure { .. } => {
                    let r = run_steps(&mut sim, &w, 1);
                    session.complete(r.energy_j * r.elapsed_s());
                }
            }
        };
        let knobs = sim.lg().knobs();
        let cap = knobs.id("thread_cap").unwrap();
        assert_eq!(knobs.value_id(cap), Some(best.0[0]));
    }

    #[test]
    fn runs_fast() {
        run(true);
    }
}
