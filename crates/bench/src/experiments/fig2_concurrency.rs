//! Fig 2 — throughput, power, and energy vs concurrency.
//!
//! The motivating figure for concurrency throttling: on the 32-core
//! simulated machine, sweep the thread cap from 1 to 32 for a
//! memory-bound (stencil) and a compute-bound workload. Expected shape:
//!
//! * compute-bound throughput rises ~linearly to 32 cores; its
//!   energy-per-work *falls* with cores (static power amortized), so the
//!   EDP optimum is the full machine;
//! * memory-bound throughput saturates at the bandwidth knee (~6 cores
//!   for the default spec); power keeps rising linearly past the knee, so
//!   energy and EDP have a minimum near the knee — the headroom
//!   throttling exploits.

use crate::experiments::common::measure_cap;
use crate::report::{fmt_f, write_table, Table};
use lg_sim::{MachineSpec, SimWorkload};
use std::io::{self, Write};

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let spec = MachineSpec::server32();
    let steps = if fast { 2 } else { 10 };
    let (stencil, compute) = workloads(fast);

    let mut table = Table::new(
        "Fig 2: throughput / power / energy vs thread cap (32-core sim)",
        &[
            "workload",
            "cap",
            "ops_per_sec",
            "mean_power_w",
            "energy_j",
            "edp",
        ],
    );
    let caps: Vec<usize> = if fast {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        (1..=32).collect()
    };
    for (name, w) in [("stencil(mem)", &stencil), ("compute", &compute)] {
        for &cap in &caps {
            let m = measure_cap(&spec, w, cap, steps);
            table.row(&[
                name.to_string(),
                cap.to_string(),
                fmt_f(m.ops_per_sec),
                fmt_f(m.mean_power_w),
                fmt_f(m.energy_j),
                fmt_f(m.edp()),
            ]);
        }
    }
    write_table(out, &table, "fig2_concurrency")?;
    writeln!(out)
}

fn workloads(fast: bool) -> (SimWorkload, SimWorkload) {
    let ops = if fast { 1e8 } else { 1e9 };
    (SimWorkload::stencil(ops, 64), SimWorkload::compute(ops, 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::measure_cap;

    #[test]
    fn shapes_hold() {
        let spec = MachineSpec::server32();
        let (stencil, compute) = workloads(true);
        // Compute-bound: 32 cores ≥ ~7× the 4-core throughput.
        let c4 = measure_cap(&spec, &compute, 4, 2);
        let c32 = measure_cap(&spec, &compute, 32, 2);
        assert!(c32.ops_per_sec > c4.ops_per_sec * 7.0);
        // Memory-bound: 32 cores ≈ 8-core throughput (saturated)...
        let m8 = measure_cap(&spec, &stencil, 8, 2);
        let m32 = measure_cap(&spec, &stencil, 32, 2);
        assert!(m32.ops_per_sec < m8.ops_per_sec * 1.1);
        // ...but costs much more energy.
        assert!(m32.energy_j > m8.energy_j * 1.5);
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("fig2");
    }
}
