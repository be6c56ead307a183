//! One module per table/figure of the reconstructed evaluation.
//!
//! Every experiment follows the same contract: a `run(fast, out)` function
//! that prints aligned tables to `out` (stdout from the CLI) and writes a
//! CSV under `target/experiments/`. `fast` shrinks problem sizes so the
//! whole suite (and its tests) stays tractable on small machines; the
//! shapes the experiments demonstrate are preserved. The ten figures with
//! no wall-clock number are pinned byte for byte: each one's `--fast`
//! output must equal `crates/bench/golden/<id>.txt` (`golden::check`).

use std::io::{self, Write};

pub mod abl1_dvfs;
pub mod abl2_stall;
pub mod common;
pub mod fig10_tenancy;
pub mod fig11_dag;
pub mod fig1_overhead;
pub mod fig2_concurrency;
pub mod fig3_convergence;
pub mod fig4_granularity;
pub mod fig5_sampling;
pub mod fig6_phases;
pub mod fig7_dispatch;
pub mod fig8_faults;
pub mod fig9_overload;
pub mod tbl1_static_vs_adaptive;
pub mod tbl2_coalescing;
pub mod tbl3_search;

/// CLI entry point for the `experiments` binary.
pub fn main() -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let which: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| !a.starts_with("--"))
        .collect();
    let selected = if which.is_empty() || which.contains(&"all") {
        vec![
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "tbl1", "tbl2", "tbl3", "abl1", "abl2",
        ]
    } else {
        which
    };
    for name in selected {
        run_one(name, fast, &mut io::stdout())?;
    }
    Ok(())
}

/// Runs a single experiment by id, writing its report to `out`.
pub fn run_one(name: &str, fast: bool, out: &mut dyn Write) -> io::Result<()> {
    match name {
        "fig1" => fig1_overhead::run(fast, out),
        "fig2" => fig2_concurrency::run(fast, out),
        "fig3" => fig3_convergence::run(fast, out),
        "fig4" => fig4_granularity::run(fast, out),
        "fig5" => fig5_sampling::run(fast, out),
        "fig6" => fig6_phases::run(fast, out),
        "fig7" => fig7_dispatch::run(fast, out),
        "fig8" => fig8_faults::run(fast, out),
        "fig9" => fig9_overload::run(fast, out),
        "fig10" => fig10_tenancy::run(fast, out),
        "fig11" => fig11_dag::run(fast, out),
        "tbl1" => tbl1_static_vs_adaptive::run(fast, out),
        "tbl2" => tbl2_coalescing::run(fast, out),
        "tbl3" => tbl3_search::run(fast, out),
        "abl1" => abl1_dvfs::run(fast, out),
        "abl2" => abl2_stall::run(fast, out),
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected fig1..fig11, tbl1..tbl3, abl1, abl2, or all"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
pub(crate) mod golden {
    use std::path::Path;

    /// Runs experiment `name` in fast mode twice in this process and
    /// requires both outputs to equal `golden/<name>.txt` byte for byte.
    /// A failure names the figure, its first differing line and the
    /// command that regenerates the file.
    pub(crate) fn check(name: &str) {
        let run = || {
            let mut out = Vec::new();
            super::run_one(name, true, &mut out).expect("writing to a Vec");
            String::from_utf8(out).expect("experiment output is UTF-8")
        };
        let (first, second) = (run(), run());
        if let Some(diff) = first_difference(&first, &second) {
            panic!("{name}: a second run in the same process printed different output; {diff}");
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{name}.txt"));
        let regenerate = format!(
            "if the change is meant, regenerate the file (from the repo root) with\n  \
             cargo run --release -p lg-bench --bin experiments -- {name} --fast > crates/bench/golden/{name}.txt"
        );
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{name}: cannot read {}: {e}; {regenerate}", path.display())
        });
        if let Some(diff) = first_difference(&golden, &first) {
            panic!(
                "{name}: --fast output differs from {}; {diff}\n{regenerate}",
                path.display()
            );
        }
    }

    /// Describes the first line where `actual` departs from `expected`.
    fn first_difference(expected: &str, actual: &str) -> Option<String> {
        let expected: Vec<&str> = expected.split('\n').collect();
        let actual: Vec<&str> = actual.split('\n').collect();
        let line = |lines: &[&str], i: usize| {
            lines
                .get(i)
                .map_or("<end of output>".into(), |l| format!("{l:?}"))
        };
        (0..expected.len().max(actual.len()))
            .find(|&i| expected.get(i) != actual.get(i))
            .map(|i| {
                format!(
                    "first difference at line {}:\n  expected: {}\n  actual:   {}",
                    i + 1,
                    line(&expected, i),
                    line(&actual, i)
                )
            })
    }
}
