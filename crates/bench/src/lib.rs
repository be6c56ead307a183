//! # lg-bench — experiment harness and reporting
//!
//! Regenerates every table and figure of the reconstructed evaluation (see
//! DESIGN.md §8 and EXPERIMENTS.md). The `experiments` binary exposes one
//! subcommand per artifact (`fig1` … `fig10`, `tbl1` … `tbl3`, or `all`);
//! each writes a CSV under `target/experiments/` and prints an aligned
//! table to stdout.
//!
//! The [`report`] module holds the tiny table/CSV writers; [`experiments`]
//! holds one module per experiment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use report::{write_csv, Table};
