//! # lg-tuning — online parameter-space search for dynamic adaptation
//!
//! The adaptation layer of `looking-glass` treats runtime knobs (worker
//! thread cap, task chunk size, parcel coalescing window, …) as dimensions
//! of a discrete [`space::Space`], and searches that space *online*: each
//! candidate [`space::Point`] is "evaluated" by actually running the
//! application for a measurement epoch and reporting the observed objective
//! (time, energy, energy-delay product) back to the search.
//!
//! All strategies implement the [`search::Search`] trait — a
//! propose/report protocol deliberately shaped for online use: the caller
//! owns the clock and the measurements; the strategy owns only the
//! decision of where to look next.
//!
//! Provided strategies (all minimizing, all deterministic given a seed):
//!
//! | Strategy | Module | Character |
//! |---|---|---|
//! | Exhaustive sweep | [`exhaustive`] | ground truth; O(lattice) |
//! | Random search | [`random`] | baseline; budget-bound |
//! | Discrete hill climbing | [`hillclimb`] | the classic online tuner |
//! | Simulated annealing | [`anneal`] | escapes local minima |
//! | Nelder–Mead simplex | [`neldermead`] | few evaluations, continuous-ish |
//! | Genetic search | [`genetic`] | robust on rugged landscapes |
//!
//! [`runner`] drives a strategy against a black-box objective (used by the
//! offline tests and the search-comparison experiment, Table 3), and
//! [`landscape`] provides the synthetic objective functions that experiment
//! sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anneal;
pub mod exhaustive;
pub mod genetic;
pub mod hillclimb;
pub mod landscape;
pub mod neldermead;
pub mod random;
pub mod runner;
pub mod search;
pub mod space;

pub use anneal::SimulatedAnnealing;
pub use exhaustive::Exhaustive;
pub use genetic::Genetic;
pub use hillclimb::HillClimb;
pub use neldermead::NelderMead;
pub use random::RandomSearch;
pub use runner::{minimize, TuneResult};
pub use search::Search;
pub use space::{Dim, Point, Space};
