//! The per-layer probes of the traced run.
//!
//! Each probe drives one layer's public functions from outside, inside
//! spans (hot-path calls in batches of N, reported per call), and the
//! metric is derived from those spans. Every traced run emits the whole
//! set, whatever workload it traced, so any two result files compare
//! layer by layer.
//!
//! Probe lengths scale with `--seconds`; the constants below are sized
//! for the 20 s the ledger's `BENCHMARK.json` asks for.

mod control;
mod observe;
mod runtime;
mod virt;

use crate::trace::{Recorder, Site, Tracing};

pub struct Probes<'a> {
    pub tr: &'a mut Recorder,
    pub out: Vec<(&'static str, f64)>,
    /// Lines for people, printed with the run's other notes.
    pub notes: Vec<String>,
    pub seed: u64,
    pub nproc: usize,
    /// `--seconds` / 20: stretches or shrinks every probe's repeat count.
    scale: f64,
}

impl Probes<'_> {
    /// `n` repeats at the reference run length, at least 5 always.
    pub fn reps(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(5)
    }

    /// Spans `batches` batches of `calls` calls of `f` (after one
    /// unrecorded warm-up batch); returns the median ns per call.
    pub fn per_call(
        &mut self,
        site: &'static Site,
        batches: usize,
        calls: u32,
        mut f: impl FnMut(),
    ) -> f64 {
        for _ in 0..calls {
            f();
        }
        for b in 0..self.reps(batches) {
            let span = self.tr.begin(site, b as u64);
            for _ in 0..calls {
                f();
            }
            self.tr.end(span, calls);
        }
        self.tr.per_call_ns(site)
    }

    pub fn emit(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

/// Runs every probe; returns `(metric name, value)` and notes.
pub fn run_all(
    tr: &mut Recorder,
    seed: u64,
    nproc: usize,
    seconds: f64,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut p = Probes {
        tr,
        out: Vec::with_capacity(80),
        notes: Vec::new(),
        seed,
        nproc,
        scale: seconds / 20.0,
    };
    observe::run(&mut p);
    control::run(&mut p);
    runtime::run(&mut p);
    virt::run(&mut p);
    (p.out, p.notes)
}
