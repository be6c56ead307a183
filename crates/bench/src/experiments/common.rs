//! Shared measurement helpers for the experiment suite.

use lg_sim::{MachineSpec, SimRunReport, SimRuntime, SimWorkload};

/// Outcome of running a workload for a fixed number of steps at a fixed
/// thread cap on the simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct CapMeasurement {
    /// The cap under test.
    pub cap: usize,
    /// Virtual time for the steps (s).
    pub time_s: f64,
    /// Energy over the steps (J).
    pub energy_j: f64,
    /// Achieved throughput (ops/s).
    pub ops_per_sec: f64,
    /// Mean package power (W).
    pub mean_power_w: f64,
}

impl CapMeasurement {
    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }
}

/// Runs `steps` timesteps of `workload` at `cap` on a fresh simulated
/// machine and reports the aggregate.
pub fn measure_cap(
    spec: &MachineSpec,
    workload: &SimWorkload,
    cap: usize,
    steps: usize,
) -> CapMeasurement {
    let mut sim = SimRuntime::new(*spec);
    sim.set_cap(cap);
    let agg = run_steps(&mut sim, workload, steps);
    CapMeasurement {
        cap,
        time_s: agg.elapsed_s(),
        energy_j: agg.energy_j,
        ops_per_sec: agg.ops_per_sec(),
        mean_power_w: agg.mean_power_w(),
    }
}

/// Runs `steps` timesteps on an *existing* simulator (sharing energy and
/// clock state), returning the window's report.
pub fn run_steps(sim: &mut SimRuntime, workload: &SimWorkload, steps: usize) -> SimRunReport {
    let mut agg = SimRunReport::default();
    for _ in 0..steps {
        sim.submit_all(workload.step_batch());
        let r = sim.run_until_idle();
        agg.elapsed_ns += r.elapsed_ns;
        agg.energy_j += r.energy_j;
        agg.tasks += r.tasks;
        agg.ops += r.ops;
    }
    agg
}

/// Finds the EDP-optimal cap by exhaustive sweep (ground truth).
pub fn best_static_cap(spec: &MachineSpec, workload: &SimWorkload, steps: usize) -> (usize, f64) {
    best_cap_of(spec, workload, steps, 1..=spec.cores)
}

/// Power-of-two caps up to the core count — the space online throttling
/// searches. Wave quantization (`tasks % cap`) makes the full integer cap
/// range a staircase full of spurious local minima; power-of-two steps are
/// the standard remedy (and shrink the search to a handful of epochs).
pub fn pow2_caps(cores: usize) -> Vec<i64> {
    std::iter::successors(Some(1usize), |c| Some(c * 2))
        .take_while(|&c| c <= cores)
        .map(|c| c as i64)
        .collect()
}

/// EDP-optimal cap restricted to the power-of-two lattice.
pub fn best_pow2_cap(spec: &MachineSpec, workload: &SimWorkload, steps: usize) -> (usize, f64) {
    let caps = pow2_caps(spec.cores).into_iter().map(|c| c as usize);
    best_cap_of(spec, workload, steps, caps)
}

/// The cap of `caps` with the least EDP, and that EDP.
fn best_cap_of(
    spec: &MachineSpec,
    workload: &SimWorkload,
    steps: usize,
    caps: impl Iterator<Item = usize>,
) -> (usize, f64) {
    caps.map(|cap| (cap, measure_cap(spec, workload, cap, steps).edp()))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least one cap")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_cap_is_deterministic() {
        let spec = MachineSpec::small8();
        let w = SimWorkload::stencil(1e7, 16);
        let a = measure_cap(&spec, &w, 4, 3);
        let b = measure_cap(&spec, &w, 4, 3);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn best_static_cap_for_compute_is_max_cores() {
        let spec = MachineSpec::small8();
        let w = SimWorkload::compute(1e8, 16);
        let (cap, _) = best_static_cap(&spec, &w, 2);
        assert_eq!(cap, 8, "compute-bound EDP optimum should be all cores");
    }

    #[test]
    fn best_static_cap_for_memory_is_below_max() {
        let spec = MachineSpec::server32();
        let w = SimWorkload::stencil(1e8, 64);
        let (cap, _) = best_static_cap(&spec, &w, 2);
        assert!(
            cap < 32,
            "memory-bound EDP optimum should throttle, got {cap}"
        );
        assert!(cap >= 2, "but not strangle, got {cap}");
    }
}
