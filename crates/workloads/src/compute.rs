//! Compute-bound kernel: iterated transcendental map per element.
//!
//! Each element runs `iters` rounds of a sin/sqrt mix entirely in
//! registers — negligible memory traffic, so throughput scales with cores
//! until the machine runs out of them. The compute-side contrast to the
//! stencils in every concurrency experiment.

use lg_runtime::ThreadPool;
use lg_sim::SimWorkload;

/// A compute-bound embarrassingly parallel kernel.
pub struct ComputeKernel {
    iters: usize,
    out: Vec<f64>,
}

impl ComputeKernel {
    /// Creates a kernel over `n` elements, `iters` rounds each.
    ///
    /// # Panics
    /// Panics if `n` or `iters` is zero.
    pub fn new(n: usize, iters: usize) -> Self {
        assert!(
            n > 0 && iters > 0,
            "kernel needs positive size and iterations"
        );
        Self {
            iters,
            out: vec![0.0; n],
        }
    }

    /// The per-element function: `iters` rounds of a contraction map.
    /// Deterministic in `i`, so results are checkable.
    pub fn element(i: usize, iters: usize) -> f64 {
        let mut x = (i as f64 + 1.0) * 1e-3;
        for _ in 0..iters {
            x = (x * x + 0.25).sqrt().sin() + 0.5;
        }
        x
    }

    /// Writes elements `first..first + out.len()` into `out`.
    fn fill(first: usize, out: &mut [f64], iters: usize) {
        for (i, o) in (first..).zip(out) {
            *o = Self::element(i, iters);
        }
    }

    /// Runs sequentially (reference).
    pub fn run_seq(&mut self) {
        Self::fill(0, &mut self.out, self.iters);
    }

    /// Runs on the pool with the given chunk size.
    pub fn run_parallel(&mut self, pool: &ThreadPool, chunk: usize) {
        let iters = self.iters;
        pool.parallel_for_mut("compute_chunk", &mut self.out, chunk, |start, out| {
            Self::fill(start, out, iters)
        });
    }

    /// Output state.
    pub fn output(&self) -> &[f64] {
        &self.out
    }

    /// Checksum of the output.
    pub fn checksum(&self) -> f64 {
        self.out.iter().sum()
    }

    /// The simulated twin: ~20 ops per inner iteration, zero traffic.
    pub fn sim_workload(n: usize, iters: usize, tasks_per_step: usize) -> SimWorkload {
        SimWorkload {
            name: "compute".into(),
            kind: lg_sim::WorkloadKind::ComputeBound,
            ops_per_step: n as f64 * iters as f64 * 20.0,
            tasks_per_step,
            bytes_per_op: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_core::LookingGlass;
    use lg_runtime::PoolConfig;

    fn pool(workers: usize) -> ThreadPool {
        ThreadPool::new(
            LookingGlass::builder().build(),
            PoolConfig::with_workers(workers),
        )
    }

    #[test]
    fn element_is_deterministic_and_bounded() {
        let a = ComputeKernel::element(17, 100);
        let b = ComputeKernel::element(17, 100);
        assert_eq!(a, b);
        assert!(a.is_finite());
        assert!(
            (0.0..2.0).contains(&a),
            "contraction keeps values bounded: {a}"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = pool(3);
        let mut seq = ComputeKernel::new(500, 20);
        let mut par = ComputeKernel::new(500, 20);
        seq.run_seq();
        par.run_parallel(&p, 33);
        assert_eq!(seq.output(), par.output());
    }

    #[test]
    fn chunk_invariance() {
        let p = pool(2);
        let mut a = ComputeKernel::new(200, 10);
        let mut b = ComputeKernel::new(200, 10);
        a.run_parallel(&p, 1);
        b.run_parallel(&p, 200);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn sim_twin_has_zero_traffic() {
        let w = ComputeKernel::sim_workload(1000, 50, 16);
        assert!(w.step_batch().iter().all(|t| t.bytes == 0.0));
        assert_eq!(w.step_batch().len(), 16);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_rejected() {
        let _ = ComputeKernel::new(0, 1);
    }
}
