//! `lg-ledger` — the perf ledger for looking-glass.
//!
//! ```text
//! lg-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lg-ledger --selftest
//! lg-ledger suite [--runs N] [--seconds S] [--seed N] [--out FILE]
//! lg-ledger compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit and, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this crate.

mod alloc;
mod host;
mod json;
mod probes;
mod run;
mod schema;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  lg-ledger --workload <taskflood|dagdrain|closedloop|simserve> [--seed N] [--seconds S] [--trace 0|1]
  lg-ledger --selftest
  lg-ledger suite [--runs N] [--seconds S] [--seed N] [--out FILE]
  lg-ledger compare A.json B.json";

/// `--key value` pairs after any subcommand word.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("unexpected argument '{k}'"))?;
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
        Ok(Self(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read '{v}'")),
        }
    }
}

fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let workload: String = flags.get("workload", String::new())?;
    let seed: u64 = flags.get("seed", 1)?;
    let seconds: f64 = flags.get("seconds", 20.0)?;
    let trace: u8 = flags.get("trace", 0)?;
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return Err("--seconds must be in (0, 600] and --trace 0 or 1".into());
    }
    let result = run::run(&workload, seed, seconds, trace == 1, false)
        .ok_or(format!("unknown workload '{workload}'\n{USAGE}"))?;
    println!(
        "workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  nproc {}",
        host::nproc()
    );
    for (name, value) in &result.metrics {
        println!("{name:<36} {value:>18.6} {}", run::unit_of(name));
    }
    for note in &result.notes {
        println!("# {note}");
    }
    println!("{}", result.to_json());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A short pass of every workload, then the same with one reference
/// damaged: the first must report no failure, the second must.
fn selftest() -> ExitCode {
    const SECONDS: f64 = 0.5;
    let mut ok = true;
    for workload in schema::WORKLOADS {
        for corrupt in [false, true] {
            let r = run::run(workload, 7, SECONDS, false, corrupt).expect("known workload");
            let caught = r.failed > 0;
            let pass = caught == corrupt;
            ok &= pass;
            println!(
                "selftest {workload:<11} {:<18} failed_frac {:<12.6} {}",
                if corrupt {
                    "corrupted reference"
                } else {
                    "clean"
                },
                r.failed_frac(),
                if pass { "ok" } else { "WRONG" }
            );
        }
    }
    if ok {
        println!("selftest passed: clean runs fail nothing, every corrupted reference is caught");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("--selftest") => Ok(selftest()),
        Some("suite") => {
            let flags = Flags::parse(&args[1..])?;
            let out: PathBuf = flags.get("out", run::out_dir().join("suite.json"))?;
            suite::suite(
                flags.get("runs", 10)?,
                flags.get("seconds", 20)?,
                flags.get("seed", 1)?,
                &out,
            )?;
            println!("suite written to {}", out.display());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match args {
            [_, a, b] => {
                let flagged = suite::compare(a.as_ref(), b.as_ref())?;
                Ok(if flagged == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err(USAGE.into()),
        },
        Some(_) => single_run(&Flags::parse(args)?),
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and [`schema`] are one list, written twice.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let triple = |name: &str, unit: &str, better: schema::Better| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
            )
        };
        let want_e2e: Vec<_> = schema::END_TO_END
            .iter()
            .map(|m| triple(m.name, m.unit, m.better))
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        let want_layer: Vec<_> = schema::PER_LAYER
            .iter()
            .map(|m| triple(m.name, m.unit, m.better))
            .collect();
        assert_eq!(names("per_layer"), want_layer);
        for (m, j) in schema::END_TO_END
            .iter()
            .zip(j.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let workloads: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, schema::WORKLOADS);
    }
}
