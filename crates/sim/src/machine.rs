//! The simulated machine: cores, roofline memory contention, power.
//!
//! The contention model is fluid max-min fairness over the shared memory
//! bandwidth. A running task with `bytes-per-op = b/o` would, unthrottled,
//! demand `(b/o) · core_flops` bytes/sec. If the sum of demands exceeds
//! the machine bandwidth, bandwidth is allocated max-min fairly
//! (water-filling): light consumers get all they ask for; heavy consumers
//! split the rest evenly. A task's achieved op rate is then
//! `min(core_flops, allocation / (b/o))`.
//!
//! This reproduces the roofline shape that concurrency throttling
//! exploits: compute-bound batches (`b/o → 0`) scale linearly to the core
//! count, while memory-bound batches saturate at
//! `mem_bw / bytes_per_op` ops/sec no matter how many cores burn power.

use lg_metrics::PowerModel;

/// Static description of the simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineSpec {
    /// Number of cores.
    pub cores: usize,
    /// Peak op rate of one core (ops/second).
    pub core_flops: f64,
    /// Shared memory bandwidth (bytes/second).
    pub mem_bw: f64,
    /// Package power model.
    pub power: PowerModel,
    /// Fixed scheduling overhead charged when a task starts (nanoseconds).
    pub sched_overhead_ns: u64,
    /// Dynamic-power floor of an *active but memory-stalled* core, as a
    /// fraction of full intensity in `[0, 1]`. Stalled cores are not idle:
    /// they spin on loads, keep caches and uncore busy, and on real parts
    /// burn roughly half their peak dynamic power. This floor is what
    /// makes running memory-bound work on too many cores cost energy —
    /// the effect concurrency throttling exists to harvest.
    pub stall_intensity: f64,
}

impl MachineSpec {
    /// A 32-core server-like machine: 1 Gop/s/core, 24 GB/s of shared
    /// bandwidth, 25 W idle + 4.5 W/core. The bandwidth knee for a
    /// 4-bytes-per-op workload sits at 6 cores — well below the core
    /// count, so throttling has room to win.
    pub fn server32() -> Self {
        Self {
            cores: 32,
            core_flops: 1e9,
            mem_bw: 24e9,
            power: PowerModel::server_socket(),
            sched_overhead_ns: 2_000,
            stall_intensity: 0.5,
        }
    }

    /// A small 8-core machine for quick tests.
    pub fn small8() -> Self {
        Self {
            cores: 8,
            core_flops: 1e9,
            mem_bw: 8e9,
            power: PowerModel::new(10.0, 3.0),
            sched_overhead_ns: 1_000,
            stall_intensity: 0.5,
        }
    }

    /// Validates the spec.
    ///
    /// # Panics
    /// Panics on non-positive rates or zero cores.
    pub fn validate(&self) {
        assert!(self.cores > 0, "machine needs at least one core");
        assert!(self.core_flops > 0.0, "core_flops must be positive");
        assert!(self.mem_bw > 0.0, "mem_bw must be positive");
        assert!(
            (0.0..=1.0).contains(&self.stall_intensity),
            "stall_intensity must be in [0, 1]"
        );
    }

    /// Effective power-model intensity of a core achieving `rate` ops/sec:
    /// interpolates between the stall floor and full intensity.
    pub fn effective_intensity(&self, rate: f64) -> f64 {
        let util = (rate / self.core_flops).clamp(0.0, 1.0);
        self.stall_intensity + (1.0 - self.stall_intensity) * util
    }

    /// The core count at which a workload with the given bytes/op
    /// saturates memory bandwidth (continuous; may exceed `cores`).
    pub fn bandwidth_knee(&self, bytes_per_op: f64) -> f64 {
        if bytes_per_op <= 0.0 {
            return f64::INFINITY;
        }
        self.mem_bw / (bytes_per_op * self.core_flops)
    }
}

/// Max-min fair allocation of op rates for running tasks.
///
/// `bytes_per_op[i]` is task i's traffic intensity; the return value is
/// each task's achieved op rate (ops/sec). See module docs for the model.
pub fn alloc_rates(spec: &MachineSpec, bytes_per_op: &[f64]) -> Vec<f64> {
    let mut rates = Vec::new();
    alloc_rates_into(spec, bytes_per_op, &mut RateScratch::default(), &mut rates);
    rates
}

/// Working storage of [`alloc_rates_into`], reused across calls.
#[derive(Debug, Default)]
pub struct RateScratch {
    demands: Vec<f64>,
    order: Vec<usize>,
    alloc: Vec<f64>,
}

/// [`alloc_rates`] into `rates` (cleared first), reusing `scratch`.
pub fn alloc_rates_into(
    spec: &MachineSpec,
    bytes_per_op: &[f64],
    scratch: &mut RateScratch,
    rates: &mut Vec<f64>,
) {
    rates.clear();
    let n = bytes_per_op.len();
    // Unconstrained bandwidth demand per task.
    let demands = &mut scratch.demands;
    demands.clear();
    demands.extend(bytes_per_op.iter().map(|&b| b.max(0.0) * spec.core_flops));
    let total: f64 = demands.iter().sum();
    if total <= spec.mem_bw {
        rates.resize(n, spec.core_flops);
        return;
    }
    // Water-filling: sort by demand ascending; satisfy light tasks fully,
    // split the remainder among the rest.
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        demands[a]
            .partial_cmp(&demands[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let alloc = &mut scratch.alloc;
    alloc.clear();
    alloc.resize(n, 0.0);
    let mut remaining_bw = spec.mem_bw;
    let mut remaining = n;
    for &i in order.iter() {
        let fair = remaining_bw / remaining as f64;
        let a = demands[i].min(fair);
        alloc[i] = a;
        remaining_bw -= a;
        remaining -= 1;
    }
    // Convert allocations back to op rates.
    rates.extend((0..n).map(|i| {
        let b = bytes_per_op[i].max(0.0);
        if b == 0.0 {
            spec.core_flops
        } else {
            (alloc[i] / b).min(spec.core_flops)
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cores: usize, flops: f64, bw: f64) -> MachineSpec {
        MachineSpec {
            cores,
            core_flops: flops,
            mem_bw: bw,
            power: PowerModel::new(10.0, 2.0),
            sched_overhead_ns: 0,
            stall_intensity: 0.5,
        }
    }

    #[test]
    fn compute_bound_tasks_run_at_peak() {
        let s = spec(8, 1e9, 1e9);
        let rates = alloc_rates(&s, &[0.0, 0.0, 0.0]);
        assert!(rates.iter().all(|&r| r == 1e9));
    }

    #[test]
    fn single_memory_task_capped_by_bandwidth() {
        // bytes/op = 10, bw = 1e9 → max 1e8 ops/sec even though core does 1e9.
        let s = spec(8, 1e9, 1e9);
        let rates = alloc_rates(&s, &[10.0]);
        assert!((rates[0] - 1e8).abs() < 1.0);
    }

    #[test]
    fn identical_memory_tasks_split_bandwidth_evenly() {
        let s = spec(8, 1e9, 4e9);
        // Each task demands 10 * 1e9 = 1e10 B/s; four tasks share 4e9 B/s.
        let rates = alloc_rates(&s, &[10.0; 4]);
        for r in &rates {
            assert!((r - 1e8).abs() < 1.0, "rate {r}");
        }
    }

    #[test]
    fn light_task_unharmed_by_heavy_neighbors() {
        let s = spec(8, 1e9, 2e9);
        // Task 0 demands 0.5e9 B/s (bpo 0.5); tasks 1,2 demand 1e10 each.
        let rates = alloc_rates(&s, &[0.5, 10.0, 10.0]);
        assert!(
            (rates[0] - 1e9).abs() < 1.0,
            "light task should hit peak: {}",
            rates[0]
        );
        // Heavies split the remaining 1.5e9 B/s → 0.75e9 each → 7.5e7 ops/s.
        assert!((rates[1] - 7.5e7).abs() < 1.0);
        assert!((rates[2] - 7.5e7).abs() < 1.0);
    }

    #[test]
    fn total_allocated_bandwidth_never_exceeds_machine() {
        let s = spec(16, 1e9, 5e9);
        for case in [vec![1.0; 16], vec![0.1, 4.0, 8.0, 2.0], vec![100.0; 3]] {
            let rates = alloc_rates(&s, &case);
            let used: f64 = rates.iter().zip(&case).map(|(r, b)| r * b).sum();
            assert!(used <= s.mem_bw * 1.0001, "used {used} > bw {}", s.mem_bw);
        }
    }

    #[test]
    fn rates_never_exceed_core_peak() {
        let s = spec(4, 2e9, 1e12);
        let rates = alloc_rates(&s, &[0.0, 0.001, 5.0]);
        assert!(rates.iter().all(|&r| r <= 2e9 + 1.0));
    }

    #[test]
    fn empty_input_empty_output() {
        let s = spec(4, 1e9, 1e9);
        assert!(alloc_rates(&s, &[]).is_empty());
    }

    #[test]
    fn bandwidth_knee_location() {
        let s = spec(32, 1e9, 24e9);
        // 4 bytes/op → knee at 24e9 / (4 * 1e9) = 6 cores.
        assert!((s.bandwidth_knee(4.0) - 6.0).abs() < 1e-9);
        assert_eq!(s.bandwidth_knee(0.0), f64::INFINITY);
    }

    #[test]
    fn aggregate_throughput_saturates_with_cores() {
        // The roofline shape: total ops/sec vs active tasks flattens at knee.
        let s = spec(32, 1e9, 8e9);
        let bpo = 4.0; // knee at 2 cores
        let total = |k: usize| -> f64 { alloc_rates(&s, &vec![bpo; k]).iter().sum() };
        let t1 = total(1);
        let t2 = total(2);
        let t4 = total(4);
        let t16 = total(16);
        assert!(t2 > t1 * 1.9, "should scale before the knee");
        assert!((t4 - t2).abs() < t2 * 0.01, "should be flat past the knee");
        assert!((t16 - t2).abs() < t2 * 0.01);
    }

    #[test]
    fn presets_validate() {
        MachineSpec::server32().validate();
        MachineSpec::small8().validate();
    }
}
