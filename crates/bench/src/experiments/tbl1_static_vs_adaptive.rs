//! Table 1 — static vs adaptive concurrency, three workloads.
//!
//! The headline result: for each workload (memory-bound stencil,
//! compute-bound kernel, and the 50/50 mix), run a fixed amount of work
//! under static caps {4, 8, 16, 32} and under online adaptation (hill
//! climb on EDP, search cost included). Expected shape:
//!
//! * no single static cap wins all three workloads;
//! * adaptive lands within a few percent of each workload's best static
//!   EDP without knowing it in advance;
//! * adaptive beats the *worst* static choice by a large factor on the
//!   memory-bound workload.

use crate::experiments::common::{measure_cap, pow2_caps, run_steps};
use crate::report::{fmt_f, write_table, Table};
use lg_core::{Clock as _, SessionConfig, SessionStep, TuningSession};
use lg_sim::{MachineSpec, SimRuntime, SimWorkload};
use lg_tuning::{Dim, HillClimb, Space};
use std::io::{self, Write};

/// Outcome of one (workload, policy) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Policy label.
    pub policy: String,
    /// Total time (s).
    pub time_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
}

impl Cell {
    /// Energy-delay product.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }
}

/// Runs `total_steps` of `workload` with online adaptation (search cost
/// included), then the remainder at the winner.
pub fn run_adaptive_cell(spec: &MachineSpec, workload: &SimWorkload, total_steps: usize) -> Cell {
    let mut sim = SimRuntime::new(*spec);
    let space = Space::new(vec![Dim::values("thread_cap", pow2_caps(spec.cores))]);
    let search = Box::new(HillClimb::from_start(space, &[spec.cores as i64]));
    let mut session = TuningSession::new(
        SessionConfig::single("thread_cap", 0, 0),
        search,
        sim.lg().knobs().clone(),
    );
    let mut time_s = 0.0;
    let mut energy = 0.0;
    let mut steps_done = 0usize;
    while steps_done < total_steps {
        if session.is_finished() {
            let r = run_steps(&mut sim, workload, total_steps - steps_done);
            time_s += r.elapsed_s();
            energy += r.energy_j;
            break;
        }
        match session.next(sim.clock().now_ns()) {
            SessionStep::Done { .. } => {}
            SessionStep::Measure { .. } => {
                let r = run_steps(&mut sim, workload, 1);
                steps_done += 1;
                time_s += r.elapsed_s();
                energy += r.energy_j;
                session.complete(r.energy_j * r.elapsed_s());
            }
        }
    }
    Cell {
        policy: "adaptive".into(),
        time_s,
        energy_j: energy,
    }
}

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let spec = MachineSpec::server32();
    let ops = if fast { 5e7 } else { 5e8 };
    let total_steps = if fast { 60 } else { 200 };
    let workloads = [
        ("stencil(mem)", SimWorkload::stencil(ops, 64)),
        ("compute", SimWorkload::compute(ops, 64)),
        ("mixed(50%)", SimWorkload::mixed(ops, 64, 0.5)),
    ];
    let mut table = Table::new(
        "Table 1: static vs adaptive concurrency (search cost included)",
        &[
            "workload",
            "policy",
            "time_s",
            "energy_j",
            "edp",
            "vs_best_static",
        ],
    );
    for (name, w) in &workloads {
        let mut static_cells: Vec<Cell> = [4usize, 8, 16, 32]
            .iter()
            .map(|&cap| {
                let m = measure_cap(&spec, w, cap, total_steps);
                Cell {
                    policy: format!("static-{cap}"),
                    time_s: m.time_s,
                    energy_j: m.energy_j,
                }
            })
            .collect();
        let best_static_edp = static_cells
            .iter()
            .map(Cell::edp)
            .fold(f64::INFINITY, f64::min);
        static_cells.push(run_adaptive_cell(&spec, w, total_steps));
        for c in &static_cells {
            table.row(&[
                name.to_string(),
                c.policy.clone(),
                fmt_f(c.time_s),
                fmt_f(c.energy_j),
                fmt_f(c.edp()),
                format!("{:+.1}%", (c.edp() / best_static_edp - 1.0) * 100.0),
            ]);
        }
    }
    write_table(out, &table, "tbl1_static_vs_adaptive")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_close_to_best_static_everywhere() {
        let spec = MachineSpec::server32();
        let total = 60;
        for w in [
            SimWorkload::stencil(5e7, 64),
            SimWorkload::compute(5e7, 64),
            SimWorkload::mixed(5e7, 64, 0.5),
        ] {
            let best_static = pow2_caps(32)
                .into_iter()
                .map(|cap| {
                    let m = measure_cap(&spec, &w, cap as usize, total);
                    m.edp()
                })
                .fold(f64::INFINITY, f64::min);
            let adaptive = run_adaptive_cell(&spec, &w, total);
            assert!(
                adaptive.edp() < best_static * 1.25,
                "{}: adaptive {} vs best static {}",
                w.name,
                adaptive.edp(),
                best_static
            );
        }
    }

    #[test]
    fn no_single_static_cap_wins_both_extremes() {
        let spec = MachineSpec::server32();
        let mem = SimWorkload::stencil(5e7, 64);
        let cpu = SimWorkload::compute(5e7, 64);
        let best_for = |w: &SimWorkload| {
            (1..=32usize)
                .min_by(|&a, &b| {
                    let ea = measure_cap(&spec, w, a, 5).edp();
                    let eb = measure_cap(&spec, w, b, 5).edp();
                    ea.partial_cmp(&eb).unwrap()
                })
                .unwrap()
        };
        assert_ne!(best_for(&mem), best_for(&cpu));
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("tbl1");
    }
}
