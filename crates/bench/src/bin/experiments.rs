//! Regenerates the tables and figures of the reconstructed evaluation.
//!
//! Usage: `experiments [fig1..fig11 | tbl1..tbl3 | abl1 | abl2 | all]... [--fast]`
//! (no id runs them all).

#![forbid(unsafe_code)]

fn main() -> std::io::Result<()> {
    lg_bench::experiments::main()
}
