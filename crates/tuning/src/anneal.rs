//! Simulated annealing over the discrete lattice.
//!
//! Proposes a random neighbor (one dimension perturbed by up to
//! `max_step` levels) and accepts worsening moves with probability
//! `exp(-Δ/T)`; the temperature cools geometrically per evaluation. Escapes
//! the local minima that strand plain hill climbing, at the cost of more
//! measurement epochs — exactly the trade-off the strategy-comparison
//! experiment (Table 3) quantifies.

use crate::search::{BestTracker, Search};
use crate::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`SimulatedAnnealing`].
#[derive(Clone, Copy, Debug)]
pub struct AnnealConfig {
    /// Initial temperature, in objective units. A reasonable default is the
    /// expected objective spread across the space.
    pub t0: f64,
    /// Geometric cooling factor per evaluation, in `(0, 1)`.
    pub cooling: f64,
    /// Temperature below which the search stops.
    pub t_min: f64,
    /// Maximum evaluations regardless of temperature.
    pub budget: usize,
    /// Largest per-move level perturbation.
    pub max_step: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            t0: 1.0,
            cooling: 0.97,
            t_min: 1e-4,
            budget: 500,
            max_step: 2,
        }
    }
}

/// Simulated annealing search.
pub struct SimulatedAnnealing {
    space: Space,
    cfg: AnnealConfig,
    rng: StdRng,
    current: Vec<usize>,
    current_y: Option<f64>,
    pending: Option<Vec<usize>>,
    temperature: f64,
    evals: usize,
    tracker: BestTracker,
}

impl SimulatedAnnealing {
    /// Creates an annealer starting from the space center.
    ///
    /// # Panics
    /// Panics if the config is malformed (non-positive budget or cooling
    /// outside `(0, 1)`).
    pub fn new(space: Space, cfg: AnnealConfig, seed: u64) -> Self {
        assert!(cfg.budget > 0, "budget must be positive");
        assert!(
            cfg.cooling > 0.0 && cfg.cooling < 1.0,
            "cooling must be in (0, 1)"
        );
        assert!(cfg.max_step >= 1, "max_step must be at least 1");
        let center = space.center();
        let current = space.levels_of(&center).expect("center must be on lattice");
        Self {
            space,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            current,
            current_y: None,
            pending: None,
            temperature: cfg.t0,
            evals: 0,
            tracker: BestTracker::default(),
        }
    }

    fn perturb(&mut self) -> Vec<usize> {
        let mut levels = self.current.clone();
        // Pick a dimension that can actually move.
        let movable: Vec<usize> = self
            .space
            .dims()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.cardinality() > 1)
            .map(|(i, _)| i)
            .collect();
        if movable.is_empty() {
            return levels;
        }
        let dim = movable[self.rng.gen_range(0..movable.len())];
        let card = self.space.dims()[dim].cardinality();
        let step = self.rng.gen_range(1..=self.cfg.max_step) as i64;
        let dir = if self.rng.gen_bool(0.5) { 1 } else { -1 };
        let new_level = (levels[dim] as i64 + dir * step).clamp(0, card as i64 - 1) as usize;
        levels[dim] = new_level;
        levels
    }

    fn out_of_budget(&self) -> bool {
        self.evals >= self.cfg.budget || self.temperature < self.cfg.t_min
    }
}

impl Search for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn propose(&mut self) -> Option<Point> {
        if self.out_of_budget() {
            return None;
        }
        if self.current_y.is_none() {
            self.pending = Some(self.current.clone());
            return Some(self.space.point_at(&self.current));
        }
        let candidate = self.perturb();
        self.pending = Some(candidate.clone());
        Some(self.space.point_at(&candidate))
    }

    fn report(&mut self, point: &Point, objective: f64) {
        self.tracker.observe(point, objective);
        let Some(levels) = self.space.levels_of(point) else {
            return;
        };
        let matches_pending = self.pending.as_deref() == Some(levels.as_slice());
        if !matches_pending {
            return; // opportunistic report: tracked, not part of the walk
        }
        self.pending = None;
        self.evals += 1;
        match self.current_y {
            None => {
                // Seeding evaluation of the start point.
                self.current_y = Some(objective);
            }
            Some(cur_y) => {
                let accept = if objective <= cur_y {
                    true
                } else {
                    let delta = objective - cur_y;
                    let p = (-delta / self.temperature.max(1e-300)).exp();
                    self.rng.gen_bool(p.clamp(0.0, 1.0))
                };
                if accept {
                    self.current = levels;
                    self.current_y = Some(objective);
                }
                self.temperature *= self.cfg.cooling;
            }
        }
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.tracker.best()
    }

    fn converged(&self) -> bool {
        self.out_of_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dim;

    fn drive(s: &mut dyn Search, f: impl Fn(&Point) -> f64) -> usize {
        let mut evals = 0;
        while let Some(p) = s.propose() {
            s.report(&p, f(&p));
            evals += 1;
            assert!(evals < 1_000_000, "runaway search");
        }
        evals
    }

    #[test]
    fn respects_budget() {
        let space = Space::new(vec![Dim::range("x", 0, 100, 1)]);
        let cfg = AnnealConfig {
            budget: 50,
            t_min: 0.0,
            ..Default::default()
        };
        let mut sa = SimulatedAnnealing::new(space, cfg, 1);
        let evals = drive(&mut sa, |_| 1.0);
        assert_eq!(evals, 50);
        assert!(sa.converged());
    }

    #[test]
    fn finds_unimodal_minimum() {
        let space = Space::new(vec![Dim::range("x", 0, 100, 1)]);
        let cfg = AnnealConfig {
            t0: 100.0,
            cooling: 0.98,
            budget: 400,
            ..Default::default()
        };
        let mut sa = SimulatedAnnealing::new(space, cfg, 42);
        drive(&mut sa, |p| ((p[0] - 61) * (p[0] - 61)) as f64);
        let (best, _) = sa.best().unwrap();
        assert!((best[0] - 61).abs() <= 2, "best {best:?}");
    }

    #[test]
    fn escapes_double_well_on_most_seeds() {
        // Global minimum at 90, local trap at 10. A greedy climber started
        // in the left basin never crosses; annealing should usually find
        // the global well. Statistical across seeds because any single
        // trajectory is luck.
        // Left well floor = 30, right (global) well floor = 0: deep enough
        // a difference that annealing through T ≈ 5–30 reliably prefers
        // the right basin, while a greedy climber started left of x = 35
        // would still be trapped.
        let f = |p: &Point| {
            let x = p[0] as f64;
            ((x - 10.0).abs() + 30.0).min((x - 90.0).abs())
        };
        let space = Space::new(vec![Dim::range("x", 0, 100, 1)]);
        let mut found_global = 0;
        let seeds = 10;
        for seed in 0..seeds {
            let cfg = AnnealConfig {
                t0: 40.0,
                cooling: 0.995,
                budget: 2000,
                max_step: 8,
                ..Default::default()
            };
            let mut sa = SimulatedAnnealing::new(space.clone(), cfg, seed);
            drive(&mut sa, f);
            let (best, _) = sa.best().unwrap();
            if (best[0] - 90).abs() <= 3 {
                found_global += 1;
            }
        }
        assert!(
            found_global >= 6,
            "global well found on only {found_global}/{seeds} seeds"
        );
    }

    #[test]
    fn temperature_cools_monotonically() {
        let space = Space::new(vec![Dim::range("x", 0, 10, 1)]);
        let mut sa = SimulatedAnnealing::new(space, AnnealConfig::default(), 5);
        let mut last_t = sa.temperature;
        let mut first = true;
        while let Some(p) = sa.propose() {
            sa.report(&p, p[0] as f64);
            if first {
                first = false; // seeding eval does not cool
                last_t = sa.temperature;
                continue;
            }
            assert!(sa.temperature <= last_t);
            last_t = sa.temperature;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let space = Space::new(vec![Dim::range("x", 0, 50, 1), Dim::range("y", 0, 50, 1)]);
            let cfg = AnnealConfig {
                budget: 120,
                ..Default::default()
            };
            let mut sa = SimulatedAnnealing::new(space, cfg, seed);
            let mut trace = Vec::new();
            while let Some(p) = sa.propose() {
                let y = ((p[0] - 7).pow(2) + (p[1] - 7).pow(2)) as f64;
                sa.report(&p, y);
                trace.push(p);
            }
            trace
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn proposals_stay_on_lattice() {
        let space = Space::new(vec![
            Dim::pow2("x", 0, 8),
            Dim::values("y", vec![1, 3, 9, 27]),
        ]);
        let cfg = AnnealConfig {
            budget: 200,
            ..Default::default()
        };
        let mut sa = SimulatedAnnealing::new(space.clone(), cfg, 3);
        while let Some(p) = sa.propose() {
            assert!(space.contains(&p), "off-lattice {p:?}");
            sa.report(&p, p[0] as f64);
        }
    }

    #[test]
    fn t_min_stops_search() {
        let space = Space::new(vec![Dim::range("x", 0, 10, 1)]);
        let cfg = AnnealConfig {
            t0: 1.0,
            cooling: 0.5,
            t_min: 0.1,
            budget: 10_000,
            ..Default::default()
        };
        let mut sa = SimulatedAnnealing::new(space, cfg, 0);
        let evals = drive(&mut sa, |_| 1.0);
        // 1.0 * 0.5^k < 0.1 → k = 4 cooling steps (plus the seeding eval).
        assert!(evals <= 6, "evals {evals}");
    }
}
