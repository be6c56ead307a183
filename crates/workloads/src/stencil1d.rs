//! 1-D heat diffusion stencil — the canonical memory-bound workload.
//!
//! Explicit Jacobi update `u'[i] = u[i] + k·(u[i-1] - 2u[i] + u[i+1])`
//! with fixed boundaries, double-buffered. Each timestep is a
//! `parallel_for` over interior points with a tunable chunk size. Three
//! ops per point against three reads + one write makes it bandwidth-bound,
//! which is why its simulated twin saturates at the machine's knee.

use lg_runtime::ThreadPool;
use lg_sim::SimWorkload;

/// A 1-D heat diffusion problem.
pub struct Stencil1d {
    n: usize,
    k: f64,
    /// Double buffer; `front` indexes the current state.
    bufs: [Vec<f64>; 2],
    front: usize,
    steps_done: usize,
}

impl Stencil1d {
    /// Creates a rod of `n` points with diffusion constant `k`, hot at the
    /// left boundary (`u[0] = 1`) and cold elsewhere.
    ///
    /// # Panics
    /// Panics if `n < 3` or `k` is not in `(0, 0.5]` (stability bound).
    pub fn new(n: usize, k: f64) -> Self {
        assert!(n >= 3, "stencil needs at least 3 points");
        assert!(
            k > 0.0 && k <= 0.5,
            "diffusion constant must be in (0, 0.5] for stability"
        );
        let mut u = vec![0.0; n];
        u[0] = 1.0;
        Self {
            n,
            k,
            bufs: [u.clone(), u],
            front: 0,
            steps_done: 0,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the rod has no points (never true; see [`Stencil1d::new`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Timesteps completed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Current state.
    pub fn state(&self) -> &[f64] {
        &self.bufs[self.front]
    }

    /// Advances one timestep sequentially (reference implementation).
    pub fn step_seq(&mut self) {
        let k = self.k;
        self.step_with(|src, interior| Self::update(src, 1, interior, k));
    }

    /// Advances one timestep on the pool with the given chunk size: each
    /// chunk task updates its own slice of the interior.
    pub fn step_parallel(&mut self, pool: &ThreadPool, chunk: usize) {
        let k = self.k;
        self.step_with(|src, interior| {
            pool.parallel_for_mut("stencil1d_chunk", interior, chunk, |start, part| {
                Self::update(src, 1 + start, part, k)
            });
        });
    }

    /// One timestep: copies the fixed boundaries into the back buffer, has
    /// `update` fill its interior `1..n-1` from the current state, then
    /// flips the buffers.
    fn step_with(&mut self, update: impl FnOnce(&[f64], &mut [f64])) {
        let n = self.n;
        let [a, b] = &mut self.bufs;
        let (src, dst) = if self.front == 0 { (&*a, b) } else { (&*b, a) };
        dst[0] = src[0];
        dst[n - 1] = src[n - 1];
        update(src, &mut dst[1..n - 1]);
        self.front ^= 1;
        self.steps_done += 1;
    }

    /// Writes the updated points `first..first + dst.len()` into `dst`.
    fn update(src: &[f64], first: usize, dst: &mut [f64], k: f64) {
        for (i, d) in (first..).zip(dst) {
            *d = src[i] + k * (src[i - 1] - 2.0 * src[i] + src[i + 1]);
        }
    }

    /// Runs `steps` timesteps in parallel.
    pub fn run(&mut self, pool: &ThreadPool, steps: usize, chunk: usize) {
        for _ in 0..steps {
            self.step_parallel(pool, chunk);
        }
    }

    /// Checksum (sum of state) — conserved up to boundary flux, used to
    /// compare implementations.
    pub fn checksum(&self) -> f64 {
        self.state().iter().sum()
    }

    /// The simulated twin: per step, `n` points × ~5 ops each, 32 bytes of
    /// traffic per point (3 reads + 1 write of f64), split into
    /// `tasks_per_step` tasks.
    pub fn sim_workload(n: usize, tasks_per_step: usize) -> SimWorkload {
        let ops = n as f64 * 5.0;
        SimWorkload {
            name: "stencil".into(),
            kind: lg_sim::WorkloadKind::MemoryBound,
            ops_per_step: ops,
            tasks_per_step,
            bytes_per_op: 32.0 / 5.0,
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
    fn sequential_heat_flows_right() {
        let mut s = Stencil1d::new(64, 0.25);
        for _ in 0..100 {
            s.step_seq();
        }
        let u = s.state();
        assert_eq!(u[0], 1.0, "hot boundary fixed");
        assert!(u[1] > 0.1, "heat should have diffused");
        assert!(u[1] > u[10], "monotone decay from the hot end");
        assert!(u[10] > u[30]);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let p = pool(3);
        let mut seq = Stencil1d::new(257, 0.2);
        let mut par = Stencil1d::new(257, 0.2);
        for _ in 0..50 {
            seq.step_seq();
            par.step_parallel(&p, 37);
        }
        for (i, (a, b)) in seq.state().iter().zip(par.state()).enumerate() {
            assert_eq!(a, b, "divergence at point {i}");
        }
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let p = pool(2);
        let mut a = Stencil1d::new(128, 0.25);
        let mut b = Stencil1d::new(128, 0.25);
        a.run(&p, 20, 1);
        b.run(&p, 20, 1000);
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn values_bounded_by_initial_extremes() {
        let p = pool(2);
        let mut s = Stencil1d::new(100, 0.5);
        s.run(&p, 200, 16);
        for &v in s.state() {
            assert!((0.0..=1.0).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn steps_counted() {
        let p = pool(1);
        let mut s = Stencil1d::new(16, 0.25);
        s.run(&p, 7, 4);
        assert_eq!(s.steps_done(), 7);
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_k_rejected() {
        let _ = Stencil1d::new(10, 0.9);
    }

    #[test]
    fn sim_workload_shape() {
        let w = Stencil1d::sim_workload(1_000_000, 32);
        let batch = w.step_batch();
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|t| t.bytes > 0.0));
    }

    #[test]
    fn tasks_profiled_per_step() {
        let p = pool(2);
        let mut s = Stencil1d::new(100, 0.25);
        s.run(&p, 3, 10);
        // 98 interior points / 10 per chunk = 10 chunks per step × 3 steps.
        let prof = p.lg().profiles().get("stencil1d_chunk").unwrap();
        assert_eq!(prof.count, 30);
    }

    #[test]
    fn conservation_away_from_boundaries() {
        // With both boundaries at 0 heat is conserved exactly... our left
        // boundary injects heat, so checksum must be non-decreasing.
        let p = pool(2);
        let mut s = Stencil1d::new(64, 0.25);
        let mut last = s.checksum();
        for _ in 0..20 {
            s.step_parallel(&p, 8);
            let now = s.checksum();
            assert!(now >= last - 1e-12, "checksum decreased: {last} -> {now}");
            last = now;
        }
    }
}
