//! 2-D heat diffusion (5-point stencil), row-blocked.
//!
//! The 2-D variant exists to exercise blocked decomposition: each task
//! owns a band of rows, so the chunk knob controls rows-per-task. Same
//! memory-bound character as [`crate::stencil1d`], with better per-task
//! arithmetic density.

use lg_runtime::ThreadPool;

/// A 2-D heat diffusion problem on an `rows × cols` grid.
pub struct Stencil2d {
    rows: usize,
    cols: usize,
    k: f64,
    bufs: [Vec<f64>; 2],
    front: usize,
    steps_done: usize,
}

impl Stencil2d {
    /// Creates a grid with a hot top edge.
    ///
    /// # Panics
    /// Panics if either dimension is < 3 or `k` is not in `(0, 0.25]`
    /// (2-D stability bound).
    pub fn new(rows: usize, cols: usize, k: f64) -> Self {
        assert!(rows >= 3 && cols >= 3, "grid must be at least 3x3");
        assert!(
            k > 0.0 && k <= 0.25,
            "diffusion constant must be in (0, 0.25] for 2-D stability"
        );
        let mut u = vec![0.0; rows * cols];
        u[..cols].fill(1.0);
        Self {
            rows,
            cols,
            k,
            bufs: [u.clone(), u],
            front: 0,
            steps_done: 0,
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Timesteps completed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Current state (row-major).
    pub fn state(&self) -> &[f64] {
        &self.bufs[self.front]
    }

    /// Value at `(r, c)`.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.state()[r * self.cols + c]
    }

    /// Advances one timestep sequentially.
    pub fn step_seq(&mut self) {
        let (cols, k) = (self.cols, self.k);
        self.step_with(|src, interior| {
            for (r, row) in (1..).zip(interior.chunks_exact_mut(cols)) {
                Self::update_row(src, row, k, r);
            }
        });
    }

    /// Advances one timestep on the pool, `rows_per_task` rows per task:
    /// each band task updates its own rows of the interior.
    pub fn step_parallel(&mut self, pool: &ThreadPool, rows_per_task: usize) {
        let (cols, k) = (self.cols, self.k);
        let band = rows_per_task.saturating_mul(cols);
        self.step_with(|src, interior| {
            pool.parallel_for_mut("stencil2d_band", interior, band, |start, rows| {
                for (r, row) in (1 + start / cols..).zip(rows.chunks_exact_mut(cols)) {
                    Self::update_row(src, row, k, r);
                }
            });
        });
    }

    /// One timestep: copies the fixed top and bottom rows into the back
    /// buffer, has `update` fill its interior rows `1..rows-1` from the
    /// current state, then flips the buffers.
    fn step_with(&mut self, update: impl FnOnce(&[f64], &mut [f64])) {
        let (rows, cols) = (self.rows, self.cols);
        let last = (rows - 1) * cols;
        let [a, b] = &mut self.bufs;
        let (src, dst) = if self.front == 0 { (&*a, b) } else { (&*b, a) };
        dst[..cols].copy_from_slice(&src[..cols]);
        dst[last..].copy_from_slice(&src[last..]);
        update(src, &mut dst[cols..last]);
        self.front ^= 1;
        self.steps_done += 1;
    }

    /// Writes grid row `r` of the next state into `row`.
    fn update_row(src: &[f64], row: &mut [f64], k: f64, r: usize) {
        let cols = row.len();
        let base = r * cols;
        for (i, out) in (base + 1..).zip(&mut row[1..cols - 1]) {
            *out = src[i]
                + k * (src[i - 1] + src[i + 1] + src[i - cols] + src[i + cols] - 4.0 * src[i]);
        }
        row[0] = src[base];
        row[cols - 1] = src[base + cols - 1];
    }

    /// Runs `steps` parallel timesteps.
    pub fn run(&mut self, pool: &ThreadPool, steps: usize, rows_per_task: usize) {
        for _ in 0..steps {
            self.step_parallel(pool, rows_per_task);
        }
    }

    /// Sum of all grid values.
    pub fn checksum(&self) -> f64 {
        self.state().iter().sum()
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
    fn heat_flows_down_from_top() {
        let mut s = Stencil2d::new(32, 32, 0.2);
        for _ in 0..50 {
            s.step_seq();
        }
        assert_eq!(s.at(0, 16), 1.0);
        assert!(s.at(1, 16) > 0.2);
        assert!(s.at(1, 16) > s.at(8, 16));
        assert!(s.at(8, 16) > s.at(20, 16));
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = pool(3);
        let mut seq = Stencil2d::new(33, 17, 0.2);
        let mut par = Stencil2d::new(33, 17, 0.2);
        for _ in 0..25 {
            seq.step_seq();
            par.step_parallel(&p, 5);
        }
        assert_eq!(seq.state(), par.state());
    }

    #[test]
    fn band_size_invariant() {
        let p = pool(2);
        let mut a = Stencil2d::new(24, 24, 0.25);
        let mut b = Stencil2d::new(24, 24, 0.25);
        a.run(&p, 10, 1);
        b.run(&p, 10, 100);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn values_in_unit_range() {
        let p = pool(2);
        let mut s = Stencil2d::new(20, 20, 0.25);
        s.run(&p, 100, 4);
        assert!(s.state().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_k_rejected() {
        let _ = Stencil2d::new(8, 8, 0.3);
    }

    #[test]
    fn symmetric_problem_stays_symmetric() {
        // Columns mirror-symmetric initial condition must stay symmetric.
        let p = pool(3);
        let mut s = Stencil2d::new(16, 16, 0.2);
        s.run(&p, 30, 3);
        for r in 0..16 {
            for c in 0..8 {
                let left = s.at(r, c);
                let right = s.at(r, 15 - c);
                assert!((left - right).abs() < 1e-12, "asymmetry at ({r},{c})");
            }
        }
    }
}
