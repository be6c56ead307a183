//! Regenerates the tables and figures of the reconstructed evaluation.
//!
//! Usage: `experiments <fig1|fig2|fig3|fig4|fig5|fig6|fig7|tbl1|tbl2|tbl3|all> [--fast]`

#![forbid(unsafe_code)]

fn main() {
    lg_bench::experiments::main();
}
