//! One benchmark run: either the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use crate::json::Json;
use crate::probes;
use crate::schema::{END_TO_END, PER_LAYER};
use crate::trace::{NoTrace, Recorder};
use crate::workloads::closedloop::ClosedLoop;
use crate::workloads::dagdrain::DagDrain;
use crate::workloads::simserve::SimServe;
use crate::workloads::taskflood::TaskFlood;
use crate::workloads::{self, run_block, EndToEnd, Workload};
use crate::{host, stats};
use std::path::PathBuf;
use std::time::Duration;

/// What a run reports: the contract's result line, plus extras for people.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; names and units come from [`crate::schema`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's last line of standard output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::str(unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Where traces and suite results go: `benchmark/out/`, next to the
/// sources this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn end_to_end_result(e: EndToEnd) -> RunResult {
    let mut r = RunResult {
        attempted: e.attempted,
        failed: e.failed,
        metrics: vec![
            ("setup_s", e.setup_s),
            ("ops_per_s", e.ops_per_s),
            ("op_latency_us_p50", e.op_latency_us_p50),
            ("observe_efficiency", e.observe_efficiency),
            ("peak_rss_mb", host::peak_rss_mb()),
        ],
        notes: Vec::new(),
    };
    r.notes.push(format!(
        "op_latency_us_p99 {:.3} us over {} observed latency samples (unbounded: a per-layer metric)",
        e.op_latency_us_p99, e.latency_samples
    ));
    r.notes.push(format!(
        "failed_frac {} ({} of {} ops)",
        r.failed_frac(),
        r.failed,
        r.attempted
    ));
    r
}

/// Share of a traced run's `--seconds` spent in the workload's own
/// traced/untraced blocks; the layer probes take about as much again.
const TRACED_WORKLOAD_SHARE: f64 = 0.3;

fn traced<W: Workload>(seed: u64, nproc: usize, seconds: f64) -> RunResult {
    let mut w = W::setup(seed, nproc, false);
    // Short alternating blocks, as in the untraced run: a pair shares
    // the host's mood, so the per-pair ratio is the tracing overhead.
    let pairs = ((seconds * TRACED_WORKLOAD_SHARE / 0.4).round() as usize).clamp(3, 25);
    let len = Duration::from_secs_f64(seconds * TRACED_WORKLOAD_SHARE / (2 * pairs) as f64);
    let mut rec = Recorder::new();
    let mut next_op = 0u64;
    let (mut traced_rate, mut untraced_rate, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced_latencies_ns = Vec::new();
    for _ in 0..pairs {
        let t = run_block(&mut w, &mut rec, true, len, &mut next_op);
        let u = run_block(&mut w, &mut NoTrace, true, len, &mut next_op);
        untraced_latencies_ns.extend_from_slice(&u.latencies_ns);
        traced_rate.push(t.ops_per_s());
        untraced_rate.push(u.ops_per_s());
        ratio.push(t.ops_per_s() / u.ops_per_s());
        attempted += t.ops + u.ops;
        failed += t.failed + u.failed;
    }
    let (extra_attempted, extra_failed) = w.finish();
    drop(w);

    let (traced_ops, untraced_ops) = (stats::median(&traced_rate), stats::median(&untraced_rate));

    let mut probe_rec = Recorder::new();
    let (mut metrics, probe_notes) = probes::run_all(&mut probe_rec, seed, nproc, seconds);
    metrics.push(("trace.ops_per_s_traced", traced_ops));
    metrics.push(("trace.ops_per_s_untraced", untraced_ops));
    let overhead = 1.0 - stats::median(&ratio);
    metrics.push(("trace.overhead_frac", overhead));
    metrics.push(("trace.spans", rec.span_count() as f64));
    metrics.push((
        "op_latency_us_p99",
        stats::latency_us(&untraced_latencies_ns).1,
    ));
    let shares = rec.layer_shares();
    for &(layer, share) in &shares {
        metrics.push((layer.share_metric(), share));
    }
    metrics.push(("host.nproc", nproc as f64));

    let mut notes = vec![format!(
        "tracing overhead: {traced_ops:.0} op/s traced vs {untraced_ops:.0} op/s untraced, \
         {:.2}% slower (median of {pairs} pairs)",
        overhead * 100.0
    )];
    notes.push(format!(
        "op_latency_us_p99 is over the {} latency samples of the untraced blocks",
        untraced_latencies_ns.len()
    ));
    notes.extend(probe_notes);
    notes.push(format!(
        "{} wall-time shares: {}",
        W::NAME,
        shares
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(l, s)| format!("{} {:.1}%", l.name(), s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let path = out_dir().join(format!("trace-{}.json", W::NAME));
    let file = Json::obj([
        ("workload_trace", rec.to_json(W::NAME, nproc)),
        ("probe_trace", probe_rec.to_json("layer-probes", nproc)),
    ]);
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, file.to_string()))
    {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => notes.push(format!("trace NOT written to {}: {e}", path.display())),
    }

    // Every per-layer metric, in schema order, exactly once.
    let ordered = PER_LAYER
        .iter()
        .map(|m| {
            let v = metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |(_, v)| *v);
            (m.name, v)
        })
        .collect();
    RunResult {
        attempted: attempted + extra_attempted,
        failed: failed + extra_failed,
        metrics: ordered,
        notes,
    }
}

/// Runs `workload` once. `corrupt` damages its reference (selftest).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
) -> Option<RunResult> {
    let nproc = host::nproc();
    fn one<W: Workload>(
        seed: u64,
        nproc: usize,
        seconds: f64,
        trace: bool,
        corrupt: bool,
    ) -> RunResult {
        if trace {
            traced::<W>(seed, nproc, seconds)
        } else {
            end_to_end_result(workloads::run_end_to_end::<W>(
                seed, nproc, seconds, corrupt,
            ))
        }
    }
    Some(match workload {
        "taskflood" => one::<TaskFlood>(seed, nproc, seconds, trace, corrupt),
        "dagdrain" => one::<DagDrain>(seed, nproc, seconds, trace, corrupt),
        "closedloop" => one::<ClosedLoop>(seed, nproc, seconds, trace, corrupt),
        "simserve" => one::<SimServe>(seed, nproc, seconds, trace, corrupt),
        _ => return None,
    })
}
