//! `suite` — run every workload several times into one result file — and
//! `compare` — judge two result files against the ledger's bounds, so
//! parent-vs-change and A/A runs use the same tool.

use crate::json::Json;
use crate::schema::{Better, EndToEndMetric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{host, run, stats};
use std::path::Path;
use std::process::Command;

/// Runs each workload `runs` times untraced (seeds `seed_base + i`) and
/// once traced, each in a fresh process like the driver's, and writes
/// one result file.
pub fn suite(runs: usize, seconds: u64, seed_base: u64, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for i in 0..=runs {
            let traced = i == runs;
            let seed = seed_base + i as u64;
            eprintln!(
                "suite: {workload} seed {seed}{}",
                if traced { " (traced)" } else { "" }
            );
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{workload} seed {seed} exited with {}: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
            results.push(Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Bool(traced)),
                ("seconds", Json::Num(seconds as f64)),
                ("result", result),
            ]));
        }
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    // One result per line, so committed baselines diff by run.
    let lines: Vec<String> = results.iter().map(Json::to_string).collect();
    let text = format!(
        "{{\"nproc\": {}, \"seconds\": {seconds}, \"runs_per_workload\": {runs}, \"results\": [\n{}\n]}}\n",
        host::nproc(),
        lines.join(",\n")
    );
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))
}

/// `metric → values` for one workload of a result file (untraced runs
/// carry the end-to-end metrics, traced runs the per-layer ones).
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed_frac(file: &Json, workload: &str) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    for r in file
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        if r.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let field = |k| {
            r.get("result")
                .and_then(|x| x.get(k))
                .and_then(Json::as_f64)
        };
        attempted += field("attempted").unwrap_or(0.0);
        failed += field("failed").unwrap_or(0.0);
    }
    failed / f64::max(attempted, 1.0)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `setup_s` differences under this many seconds are never "worse": a
/// 10 ms set-up that becomes 13 ms is scheduler noise, not a regression.
const SETUP_FLOOR_S: f64 = 0.05;

/// Judges B against A for one metric. `worse` when B's median is worse
/// than A's by more than the bound; `unresolved` when either side's
/// quartile spread is wider than the bound (unless every B run beats
/// every A run); `better` when B improves by more than A's own spread.
pub fn judge(m: &EndToEndMetric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = B is worse, as a share of A's median.
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let (q1, _, q3) = stats::quartiles(v);
        (q3 - q1) / stats::median(v)
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_always_better = match m.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let under_floor = m.name == "setup_s" && (mb - ma).abs() < SETUP_FLOOR_S;
    let verdict = if b_always_better {
        Verdict::Better
    } else if m.name != "setup_s" && spread(a).max(spread(b)) > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound && !under_floor {
        Verdict::Worse
    } else if -worse_by > spread(a) && -worse_by > 0.01 {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// Prints the comparison; returns how many (workload, metric) pairs came
/// out worse or unresolved.
pub fn compare(path_a: &Path, path_b: &Path) -> Result<usize, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let nproc = |f: &Json| f.get("nproc").and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "A = {} (nproc {})\nB = {} (nproc {})",
        path_a.display(),
        nproc(&a),
        path_b.display(),
        nproc(&b)
    );
    let mut flagged = 0;
    println!(
        "\n{:<11} {:<20} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "delta",
        "bound"
    );
    let quart = |v: &[f64]| {
        if v.len() < 2 {
            return "-".to_string();
        }
        let (q1, _, q3) = stats::quartiles(v);
        format!("[{q1:.5} .. {q3:.5}]")
    };
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, workload, m.name), values(&b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<11} {:<20} missing on one side", m.name);
                flagged += 1;
                continue;
            }
            let (verdict, worse_by) = judge(m, &va, &vb);
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            // Signed so that + is always "B reads higher than A".
            let delta = (stats::median(&vb) - stats::median(&va)) / stats::median(&va);
            println!(
                "{workload:<11} {:<20} {:>13.5} {:>27} {:>13.5} {:>27} {:>+7.2}% {:>5.0}%  {}{}",
                m.name,
                stats::median(&va),
                quart(&va),
                stats::median(&vb),
                quart(&vb),
                delta * 100.0,
                m.bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
                if worse_by > 0.0 && verdict == Verdict::Same {
                    " (within bound)"
                } else {
                    ""
                },
            );
        }
        let (fa, fb) = (failed_frac(&a, workload), failed_frac(&b, workload));
        let verdict = if fb > fa { "worse" } else { "same" };
        if fb > fa {
            flagged += 1;
        }
        println!(
            "{workload:<11} {:<20} {fa:>13.5} {:>27} {fb:>13.5} {:>27} {:>8} {:>6}  {verdict}",
            "failed_frac", "", "", "", "any"
        );
    }
    println!("\nper-layer metrics (traced runs; no bound — for locating a change)");
    for workload in WORKLOADS {
        for m in &PER_LAYER {
            let (va, vb) = (values(&a, workload, m.name), values(&b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            if delta.abs() >= 0.10 {
                println!(
                    "{workload:<11} {:<34} {ma:>14.4} -> {mb:>14.4} {} ({:+.1}%, {} is better)",
                    m.name,
                    run::unit_of(m.name),
                    delta * 100.0,
                    m.better.as_str()
                );
            }
        }
    }
    println!(
        "\n{flagged} (workload, metric) pair(s) worse or unresolved{}",
        if flagged == 0 {
            ": B is no worse than A"
        } else {
            ""
        }
    );
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, better: Better, bound: f64) -> EndToEndMetric {
        EndToEndMetric {
            name,
            unit: "x",
            better,
            bound,
        }
    }

    #[test]
    fn judge_separates_worse_unresolved_better_and_same() {
        let m = metric("ops_per_s", Better::Higher, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&m, &a, &a).0, Verdict::Same);
        let slower: Vec<f64> = a.iter().map(|v| v * 0.85).collect();
        assert_eq!(judge(&m, &a, &slower).0, Verdict::Worse);
        let faster: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&m, &a, &faster).0, Verdict::Better);
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(judge(&m, &a, &noisy).0, Verdict::Unresolved);
        let within = [95.0, 96.0, 94.0, 95.5, 94.5];
        let (verdict, worse_by) = judge(&m, &a, &within);
        assert_eq!(verdict, Verdict::Same);
        assert!(worse_by > 0.0);
    }

    #[test]
    fn setup_has_a_floor_and_lower_is_better_flips_the_sign() {
        let m = metric("setup_s", Better::Lower, 0.25);
        assert_eq!(judge(&m, &[0.010, 0.011], &[0.015, 0.016]).0, Verdict::Same);
        assert_eq!(judge(&m, &[0.40, 0.41], &[0.60, 0.61]).0, Verdict::Worse);
        let m = metric("op_latency_us_p50", Better::Lower, 0.10);
        assert_eq!(judge(&m, &[10.0, 10.1], &[12.0, 12.1]).0, Verdict::Worse);
        assert_eq!(judge(&m, &[10.0, 10.1], &[8.0, 8.1]).0, Verdict::Better);
    }
}
