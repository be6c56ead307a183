//! Ablation 2 — sensitivity to the stall-intensity floor.
//!
//! The power model's one free parameter is how much dynamic power an
//! active-but-stalled core burns (DESIGN.md §2). This ablation sweeps the
//! floor and reports the EDP-optimal cap for the memory-bound workload at
//! each setting. Expected: at floor 0 stalled cores are free, so the
//! optimum sits at full concurrency; as the floor rises, the optimum
//! moves to the bandwidth knee. The *existence* of an interior optimum —
//! all the adaptation results need — holds for every nonzero floor.

use crate::experiments::common::{best_static_cap, measure_cap};
use crate::report::{fmt_f, write_table, Table};
use lg_sim::{MachineSpec, SimWorkload};
use std::io::{self, Write};

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let ops = if fast { 5e7 } else { 5e8 };
    let steps = if fast { 1 } else { 4 };
    let w = SimWorkload::stencil(ops, 64);
    let mut table = Table::new(
        "Ablation 2: EDP-optimal cap vs stall-intensity floor (stencil)",
        &[
            "stall_floor",
            "optimal_cap",
            "edp_at_opt",
            "edp_at_32",
            "penalty_at_32",
        ],
    );
    for &floor in &[0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let mut spec = MachineSpec::server32();
        spec.stall_intensity = floor;
        let (cap, edp_opt) = best_static_cap(&spec, &w, steps);
        let m32 = measure_cap(&spec, &w, 32, steps);
        table.row(&[
            format!("{floor:.2}"),
            cap.to_string(),
            fmt_f(edp_opt),
            fmt_f(m32.edp()),
            format!("{:+.0}%", (m32.edp() / edp_opt - 1.0) * 100.0),
        ]);
    }
    write_table(out, &table, "abl2_stall")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_moves_to_knee_as_floor_rises() {
        let w = SimWorkload::stencil(5e7, 64);
        let opt_at = |floor: f64| {
            let mut spec = MachineSpec::server32();
            spec.stall_intensity = floor;
            best_static_cap(&spec, &w, 1).0
        };
        let free_stalls = opt_at(0.0);
        let real_stalls = opt_at(0.5);
        let full_burn = opt_at(1.0);
        assert!(
            free_stalls > real_stalls,
            "free stalls should allow more cores: {free_stalls} vs {real_stalls}"
        );
        assert!(real_stalls >= full_burn, "{real_stalls} vs {full_burn}");
        // With any nonzero floor the optimum is interior (below 32).
        assert!(real_stalls < 32);
        assert!(full_burn < 32);
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("abl2");
    }
}
