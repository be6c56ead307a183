//! Ablation 1 — concurrency throttling × DVFS.
//!
//! Throttling (fewer active cores) and DVFS (slower cores) attack the
//! same waste — cores burning power while the memory system is the
//! bottleneck — through different knobs. Sweeping both on the
//! memory-bound workload shows they are complementary: past the
//! bandwidth knee, *either* fewer cores or lower frequency recovers
//! energy at no throughput cost, and the joint optimum beats either knob
//! alone (frequency saves dynamic power cubically; the cap also sheds the
//! stall floor).

use crate::report::{fmt_f, write_csv, Table};
use lg_sim::{MachineSpec, SimRuntime, SimWorkload};
use std::io::{self, Write};

/// Measures EDP for one (cap, freq) cell.
pub fn measure(
    spec: &MachineSpec,
    w: &SimWorkload,
    cap: usize,
    freq: f64,
    steps: usize,
) -> (f64, f64, f64) {
    let mut sim = SimRuntime::new(*spec);
    sim.set_cap(cap);
    sim.set_freq(freq);
    let mut time_s = 0.0;
    let mut energy = 0.0;
    for _ in 0..steps {
        sim.submit_all(w.step_batch());
        let r = sim.run_until_idle();
        time_s += r.elapsed_s();
        energy += r.energy_j;
    }
    (time_s, energy, energy * time_s)
}

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let spec = MachineSpec::server32();
    let ops = if fast { 5e7 } else { 5e8 };
    let steps = if fast { 2 } else { 10 };
    let w = SimWorkload::stencil(ops, 64);
    let mut table = Table::new(
        "Ablation 1: thread cap × DVFS on the memory-bound workload",
        &["cap", "freq", "time_s", "energy_j", "edp"],
    );
    let mut best: Option<(usize, f64, f64)> = None;
    for &cap in &[2usize, 4, 8, 16, 32] {
        for &freq in &[0.5f64, 0.75, 1.0] {
            let (t, e, edp) = measure(&spec, &w, cap, freq, steps);
            table.row(&[
                cap.to_string(),
                format!("{freq:.2}"),
                fmt_f(t),
                fmt_f(e),
                fmt_f(edp),
            ]);
            if best.map(|(_, _, b)| edp < b).unwrap_or(true) {
                best = Some((cap, freq, edp));
            }
        }
    }
    let (bc, bf, bedp) = best.unwrap();
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "joint optimum: cap={bc}, freq={bf:.2} (edp {})",
        fmt_f(bedp)
    )?;
    write_csv(out, &table, "abl1_dvfs")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_and_throttling_are_complementary() {
        let spec = MachineSpec::server32();
        let w = SimWorkload::stencil(5e7, 64);
        // Baselines: untuned machine; each knob alone; both together.
        let (_, _, none) = measure(&spec, &w, 32, 1.0, 2);
        let (_, _, cap_only) = measure(&spec, &w, 4, 1.0, 2);
        let (_, _, freq_only) = measure(&spec, &w, 32, 0.5, 2);
        let (_, _, both) = measure(&spec, &w, 8, 0.5, 2);
        assert!(cap_only < none, "throttling alone must help");
        assert!(freq_only < none, "DVFS alone must help");
        assert!(
            both < cap_only.min(freq_only) * 1.05,
            "joint {both} vs alone {cap_only}/{freq_only}"
        );
    }

    #[test]
    fn low_freq_does_not_hurt_saturated_throughput() {
        let spec = MachineSpec::server32();
        let w = SimWorkload::stencil(5e7, 64);
        let (t_full, _, _) = measure(&spec, &w, 16, 1.0, 2);
        let (t_half, _, _) = measure(&spec, &w, 16, 0.5, 2);
        // 16 cores at half speed is still 8× the bandwidth knee.
        assert!(t_half < t_full * 1.1, "{t_half} vs {t_full}");
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("abl1");
    }
}
