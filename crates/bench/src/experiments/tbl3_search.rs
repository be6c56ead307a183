//! Table 3 — search-strategy comparison on representative landscapes.
//!
//! Every strategy minimizes four objective surfaces chosen to model what
//! online tuning actually faces: a smooth bowl (concurrency/EDP under a
//! compute-bound load), the overhead-vs-imbalance valley (chunk size), a
//! rugged multimodal surface (coupled knobs), and a noisy bowl
//! (measurement jitter). Reported per cell: evaluations used,
//! evaluations to reach the final best, and regret relative to the true
//! optimum (found exhaustively). Expected shape: hill climbing wins
//! smooth landscapes on epochs; annealing/genetic pay epochs to survive
//! ruggedness; random is the floor; Nelder–Mead is cheap but brittle on
//! quantized surfaces.

use crate::report::{fmt_f, write_table, Table};
use lg_tuning::anneal::AnnealConfig;
use lg_tuning::genetic::GeneticConfig;
use lg_tuning::{
    landscape, minimize, Dim, Exhaustive, Genetic, HillClimb, NelderMead, Point, RandomSearch,
    Search, SimulatedAnnealing, Space,
};
use std::io::{self, Write};

/// A named objective over a space.
pub struct Landscape {
    /// Label.
    pub name: &'static str,
    /// The space.
    pub space: Space,
    /// Fresh objective instance (stateful because of the noise wrapper).
    pub make: Box<dyn Fn() -> landscape::Objective>,
}

/// The four benchmark landscapes.
pub fn landscapes() -> Vec<Landscape> {
    vec![
        Landscape {
            name: "bowl-2d",
            space: Space::new(vec![Dim::range("a", 0, 31, 1), Dim::range("b", 0, 31, 1)]),
            make: Box::new(|| landscape::sphere(vec![20, 9], vec![1.0, 3.0])),
        },
        Landscape {
            name: "valley-1d",
            space: Space::new(vec![Dim::range("chunk", 1, 500, 1)]),
            make: Box::new(|| landscape::valley(400.0, 1.0)),
        },
        Landscape {
            name: "rugged-1d",
            space: Space::new(vec![Dim::range("x", 0, 127, 1)]),
            make: Box::new(|| landscape::rastrigin(vec![96], 5.0, 16.0)),
        },
        Landscape {
            name: "noisy-bowl",
            space: Space::new(vec![Dim::range("x", 0, 127, 1)]),
            make: Box::new(|| landscape::noisy(landscape::sphere(vec![40], vec![1.0]), 0.05, 7)),
        },
    ]
}

fn strategies(space: &Space, seed: u64) -> Vec<(String, Box<dyn Search>)> {
    vec![
        (
            "random-200".into(),
            Box::new(RandomSearch::new(space.clone(), 200, seed)) as Box<dyn Search>,
        ),
        ("hillclimb".into(), Box::new(HillClimb::new(space.clone()))),
        (
            "hillclimb+5restarts".into(),
            Box::new(HillClimb::new(space.clone()).with_restarts(5, seed)),
        ),
        (
            "anneal".into(),
            Box::new(SimulatedAnnealing::new(
                space.clone(),
                AnnealConfig {
                    t0: 50.0,
                    cooling: 0.99,
                    budget: 400,
                    max_step: 4,
                    ..Default::default()
                },
                seed,
            )),
        ),
        (
            "neldermead".into(),
            Box::new(NelderMead::new(space.clone(), 200)),
        ),
        (
            "genetic".into(),
            Box::new(Genetic::new(
                space.clone(),
                GeneticConfig {
                    budget: 400,
                    ..Default::default()
                },
                seed,
            )),
        ),
    ]
}

/// True optimum of the (noise-free core of the) landscape by exhaustion.
pub fn true_optimum(l: &Landscape) -> (Point, f64) {
    let mut ex = Exhaustive::new(l.space.clone());
    let mut f = (l.make)();
    let r = minimize(&mut ex, |p| f(p), usize::MAX).expect("non-empty space");
    (r.best_point, r.best_value)
}

/// Runs the experiment.
pub fn run(_fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let mut table = Table::new(
        "Table 3: search strategies × landscapes (regret vs exhaustive optimum)",
        &[
            "landscape",
            "strategy",
            "evals",
            "evals_to_best",
            "best",
            "regret",
        ],
    );
    for l in landscapes() {
        let (_, opt) = true_optimum(&l);
        for (label, mut s) in strategies(&l.space, 1234) {
            let mut f = (l.make)();
            if let Some(r) = minimize(s.as_mut(), |p| f(p), 1000) {
                table.row(&[
                    l.name.to_string(),
                    label,
                    r.evals.to_string(),
                    r.evals_to_best.to_string(),
                    fmt_f(r.best_value),
                    fmt_f(r.best_value - opt),
                ]);
            }
        }
    }
    write_table(out, &table, "tbl3_search")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hillclimb_efficient_on_smooth() {
        let l = &landscapes()[0];
        let (_, opt) = true_optimum(l);
        let mut hc = HillClimb::new(l.space.clone());
        let mut f = (l.make)();
        let r = minimize(&mut hc, |p| f(p), 1000).unwrap();
        assert!(r.best_value - opt < 1e-9, "regret {}", r.best_value - opt);
        assert!(r.evals < 200, "evals {}", r.evals);
    }

    #[test]
    fn restarts_or_anneal_handle_rugged() {
        let l = &landscapes()[2];
        let (_, opt) = true_optimum(l);
        let mut hc = HillClimb::new(l.space.clone()).with_restarts(5, 3);
        let mut f = (l.make)();
        let r = minimize(&mut hc, |p| f(p), 2000).unwrap();
        assert!(
            r.best_value - opt < 5.0,
            "restarted hillclimb regret too high: {}",
            r.best_value - opt
        );
    }

    #[test]
    fn every_strategy_beats_random_worst_case_on_bowl() {
        let l = &landscapes()[0];
        for (name, mut s) in strategies(&l.space, 5) {
            let mut f = (l.make)();
            let r = minimize(s.as_mut(), |p| f(p), 1000).unwrap();
            assert!(r.best_value < 300.0, "{name} best {}", r.best_value);
        }
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("tbl3");
    }
}
