//! Fig 6 — phase-aware adaptation.
//!
//! A workload alternating memory-bound and compute-bound phases defeats
//! any single static configuration: the memory phase wants a throttled
//! cap, the compute phase wants the whole machine. Compared policies:
//!
//! * **static-K** — fixed cap for the whole run;
//! * **oracle** — per-phase best static cap (exhaustive, not realizable
//!   online);
//! * **adaptive** — a hill-climbing session re-started at every detected
//!   phase boundary, paying real search epochs inside each phase.
//!
//! The adaptive controller comes in three detection flavours
//! ([`PhaseDetect`]): *oracle* (a-priori phase markers, the upper bound),
//! *polling* (inspect the observed bytes-per-op signal every K control
//! rounds), and *threshold* (a [`ThresholdWatch::relative_change`] on the
//! same signal, edge-checked every round). Polling trades reaction time
//! for inspection cost; the watch reacts within one round for the price
//! of a cheap edge-check. The summary table reports the measured
//! reaction delay of each flavour.
//!
//! Expected shape: adaptive total energy lands within ~10% of the oracle
//! and clearly beats the best static configuration.

use crate::experiments::common::{best_pow2_cap, run_steps};
use crate::report::{fmt_f, write_csv, write_table, Table};
use lg_core::{Clock as _, SessionConfig, SessionStep, ThresholdWatch, TuningSession};
use lg_sim::workload_model::PhasedSimWorkload;
use lg_sim::{MachineSpec, SimRuntime, SimWorkload};
use lg_tuning::HillClimb;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the adaptive controller learns that the workload changed phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseDetect {
    /// A-priori phase markers: free and instant, but not realizable
    /// online — the upper bound on reaction time.
    Oracle,
    /// Inspect the observed bytes-per-op signal every `K` control rounds
    /// and restart when it moved; reacts up to `K` rounds late.
    Polling(usize),
    /// [`ThresholdWatch::relative_change`] on the same signal, polled as
    /// a cheap edge-check every round; reacts within one round.
    Threshold,
}

impl PhaseDetect {
    fn label(self) -> String {
        match self {
            PhaseDetect::Oracle => "adaptive-oracle".into(),
            PhaseDetect::Polling(k) => format!("adaptive-poll{k}"),
            PhaseDetect::Threshold => "adaptive-watch".into(),
        }
    }
}

/// Result of one policy run.
#[derive(Clone, Debug)]
pub struct PolicyResult {
    /// Policy label.
    pub name: String,
    /// Total virtual time (s).
    pub time_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
}

impl PolicyResult {
    /// Energy-delay product.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }
}

fn phased(fast: bool) -> (PhasedSimWorkload, usize, usize) {
    let ops = if fast { 5e7 } else { 2e8 };
    let period = if fast { 24 } else { 40 };
    let phases = 4;
    (
        PhasedSimWorkload::new(
            SimWorkload::stencil(ops, 64),
            SimWorkload::compute(ops, 64),
            period,
        ),
        period,
        phases,
    )
}

/// Runs the whole phased workload at one static cap.
pub fn run_static(
    spec: &MachineSpec,
    w: &PhasedSimWorkload,
    total_steps: usize,
    cap: usize,
) -> PolicyResult {
    let mut sim = SimRuntime::new(*spec);
    sim.set_cap(cap);
    let mut time_s = 0.0;
    let mut energy = 0.0;
    for step in 0..total_steps {
        sim.submit_all(w.step_batch(step));
        let r = sim.run_until_idle();
        time_s += r.elapsed_s();
        energy += r.energy_j;
    }
    PolicyResult {
        name: format!("static-{cap}"),
        time_s,
        energy_j: energy,
    }
}

/// Oracle: per-phase best static cap, switched for free at boundaries.
pub fn run_oracle(spec: &MachineSpec, w: &PhasedSimWorkload, total_steps: usize) -> PolicyResult {
    let (cap_a, _) = best_pow2_cap(spec, &w.a, 1);
    let (cap_b, _) = best_pow2_cap(spec, &w.b, 1);
    let mut sim = SimRuntime::new(*spec);
    let mut time_s = 0.0;
    let mut energy = 0.0;
    for step in 0..total_steps {
        let cap = if w.phase_index(step).is_multiple_of(2) {
            cap_a
        } else {
            cap_b
        };
        sim.set_cap(cap);
        sim.submit_all(w.step_batch(step));
        let r = sim.run_until_idle();
        time_s += r.elapsed_s();
        energy += r.energy_j;
    }
    PolicyResult {
        name: format!("oracle({cap_a}/{cap_b})"),
        time_s,
        energy_j: energy,
    }
}

/// Adaptive: hill-climb session restarted at each *detected* phase
/// boundary. Returns the result, the per-step cap trace, the run's final
/// introspection snapshot (the state-of-the-world block the report
/// renders), and the reaction delay (in steps) of every restart after a
/// true phase boundary.
///
/// The detection signal is the bytes-per-op ratio of the batch most
/// recently executed — an intrinsic workload property the runtime
/// observes for free, independent of the cap the tuner happens to be
/// trying (so mid-phase search moves can never false-trigger a restart).
pub fn run_adaptive(
    spec: &MachineSpec,
    w: &PhasedSimWorkload,
    total_steps: usize,
    detect: PhaseDetect,
) -> (
    PolicyResult,
    Vec<(usize, i64)>,
    lg_core::IntrospectionSnapshot,
    Vec<usize>,
) {
    let mut sim = SimRuntime::new(*spec);
    // Typed handles, resolved once: the cap by id, the energy gauge by
    // metric id, and the search space derived from the registry's specs
    // (the sim registers `thread_cap` with Pow2 scale).
    let cap_id = sim.lg().knobs().id("thread_cap").expect("sim registers it");
    let energy_metric = sim
        .lg()
        .introspection()
        .metric_id("sim.energy_j")
        .expect("sim registers it");
    let mut time_s = 0.0;
    let mut energy = 0.0;
    let mut trace = Vec::new();
    let mut session: Option<TuningSession> = None;
    let mut last_phase = usize::MAX;
    let mut step = 0usize;
    // The observed signal: bytes/op of the last executed batch. NaN until
    // the first batch runs, which keeps the watch silent (non-finite
    // readings never fire and never set a baseline).
    let signal = Arc::new(AtomicU64::new(f64::NAN.to_bits()));
    let mut watch = {
        let s = signal.clone();
        ThresholdWatch::relative_change(move || f64::from_bits(s.load(Ordering::Relaxed)), 0.5)
    };
    let mut reactions = Vec::new();
    let period = w.period_steps;
    while step < total_steps {
        let fired = match detect {
            PhaseDetect::Oracle => w.phase_index(step) != last_phase,
            PhaseDetect::Polling(k) => step.is_multiple_of(k.max(1)) && watch.poll(),
            PhaseDetect::Threshold => watch.poll(),
        };
        if fired || session.is_none() {
            // Detected boundary: restart the search from the current cap
            // (warm start — the previous phase's winner is the prior).
            last_phase = w.phase_index(step);
            if fired && step > 0 {
                // Ground truth (for measurement only): boundaries sit at
                // multiples of the phase period.
                reactions.push(step % period);
            }
            let current = sim
                .lg()
                .knobs()
                .value_id(cap_id)
                .unwrap_or(spec.cores as i64);
            let space = sim.lg().knobs().space_for(&["thread_cap"]);
            let search =
                Box::new(HillClimb::from_start(space, &[current]).with_min_improvement(0.01));
            session = Some(
                TuningSession::new(
                    SessionConfig::single("thread_cap", 0, 0),
                    search,
                    sim.lg().knobs().clone(),
                )
                .with_introspection(sim.lg().introspection().clone()),
            );
        }
        let active = w.active_at(step);
        signal.store(active.bytes_per_op.to_bits(), Ordering::Relaxed);
        let s = session.as_mut().expect("session exists");
        if s.is_finished() {
            // Converged for this phase: run at the winner.
            sim.submit_all(w.step_batch(step));
            let r = sim.run_until_idle();
            time_s += r.elapsed_s();
            energy += r.energy_j;
            trace.push((step, sim.lg().knobs().value_id(cap_id).unwrap()));
            step += 1;
            continue;
        }
        match s.next(sim.clock().now_ns()) {
            SessionStep::Done { .. } => { /* loop re-checks is_finished */ }
            SessionStep::Measure { point, .. } => {
                // One epoch = one workload step under the candidate cap.
                // The phase may end mid-epoch; adaptation pays that cost.
                let steps_this_epoch = 1.min(total_steps - step);
                let r = run_steps(&mut sim, w.active_at(step), steps_this_epoch);
                time_s += r.elapsed_s();
                energy += r.energy_j;
                trace.push((step, point[0]));
                step += steps_this_epoch;
                // EDP for the epoch, measured through the snapshot pair
                // the session captured around it (ΔE · Δt).
                s.complete_via(sim.clock().now_ns(), |begin, end| {
                    let de = end.value(energy_metric).unwrap_or(0.0)
                        - begin.value(energy_metric).unwrap_or(0.0);
                    let dt = (end.t_ns - begin.t_ns) as f64 / 1e9;
                    de * dt
                });
            }
        }
    }
    let snapshot = sim.lg().snapshot();
    (
        PolicyResult {
            name: detect.label(),
            time_s,
            energy_j: energy,
        },
        trace,
        snapshot,
        reactions,
    )
}

/// Mean of the reaction delays, `0` when no restart was observed.
pub fn mean_reaction_steps(reactions: &[usize]) -> f64 {
    if reactions.is_empty() {
        return 0.0;
    }
    reactions.iter().sum::<usize>() as f64 / reactions.len() as f64
}

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let spec = MachineSpec::server32();
    let (w, period, phases) = phased(fast);
    let total_steps = period * phases;

    let mut table = Table::new(
        "Fig 6 / summary: phase-alternating workload, total cost per policy",
        &["policy", "time_s", "energy_j", "edp", "react_steps"],
    );
    let mut results = Vec::new();
    for cap in [4, 8, 16, 32] {
        results.push((run_static(&spec, &w, total_steps, cap), None));
    }
    results.push((run_oracle(&spec, &w, total_steps), None));
    let mut trace = Vec::new();
    let mut snapshot = None;
    for detect in [
        PhaseDetect::Oracle,
        PhaseDetect::Polling(period / 4),
        PhaseDetect::Threshold,
    ] {
        let (r, tr, snap, reactions) = run_adaptive(&spec, &w, total_steps, detect);
        results.push((r, Some(mean_reaction_steps(&reactions))));
        if detect == PhaseDetect::Threshold {
            trace = tr;
            snapshot = Some(snap);
        }
    }
    let snapshot = snapshot.expect("threshold flavour always runs");
    for (r, react) in &results {
        table.row(&[
            r.name.clone(),
            fmt_f(r.time_s),
            fmt_f(r.energy_j),
            fmt_f(r.edp()),
            react.map_or_else(|| "-".into(), fmt_f),
        ]);
    }
    write_table(out, &table, "fig6_phases_summary")?;

    let mut trace_table = Table::new(
        "Fig 6: adaptive-watch cap trace (step, cap)",
        &["step", "cap"],
    );
    for (step, cap) in &trace {
        trace_table.push(&[step.to_string(), cap.to_string()]);
    }
    writeln!(out, "{} rows in cap trace", trace_table.len())?;
    write_csv(out, &trace_table, "fig6_phases_trace")?;

    // Final state of the adaptive run, rendered from the snapshot.
    writeln!(out, "{}", crate::report::snapshot_table(&snapshot).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_worst_static_and_approaches_oracle() {
        let spec = MachineSpec::server32();
        let (w, period, phases) = phased(true);
        let total = period * phases;
        let static32 = run_static(&spec, &w, total, 32);
        let static4 = run_static(&spec, &w, total, 4);
        let oracle = run_oracle(&spec, &w, total);
        let (adaptive, trace, snapshot, _) = run_adaptive(&spec, &w, total, PhaseDetect::Oracle);
        assert!(
            snapshot.value_by_name("sim.energy_j").unwrap() > 0.0,
            "snapshot must carry the run's energy gauge"
        );
        let worst = static32.edp().max(static4.edp());
        assert!(
            adaptive.edp() < worst,
            "adaptive {} should beat worst static {}",
            adaptive.edp(),
            worst
        );
        assert!(
            adaptive.edp() < oracle.edp() * 1.35,
            "adaptive {} should be within 35% of oracle {}",
            adaptive.edp(),
            oracle.edp()
        );
        // The cap must actually move between phases.
        let caps: std::collections::HashSet<i64> = trace.iter().map(|(_, c)| *c).collect();
        assert!(caps.len() > 1, "adaptive cap never moved");
    }

    #[test]
    fn oracle_uses_different_caps_per_phase() {
        let spec = MachineSpec::server32();
        let (w, _, _) = phased(true);
        let (cap_a, _) = best_pow2_cap(&spec, &w.a, 1);
        let (cap_b, _) = best_pow2_cap(&spec, &w.b, 1);
        assert_ne!(cap_a, cap_b, "phases should want different caps");
        assert!(
            cap_a < cap_b,
            "memory phase should throttle below compute phase"
        );
    }

    #[test]
    fn threshold_detection_reacts_within_one_step() {
        let spec = MachineSpec::server32();
        let (w, period, phases) = phased(true);
        let total = period * phases;
        let (_, _, _, reactions) = run_adaptive(&spec, &w, total, PhaseDetect::Threshold);
        assert_eq!(
            reactions.len(),
            phases - 1,
            "one detected restart per true boundary"
        );
        assert!(
            reactions.iter().all(|&d| d == 1),
            "watch should react one step after every boundary, got {reactions:?}"
        );
    }

    #[test]
    fn polling_reacts_slower_than_threshold_but_still_adapts() {
        let spec = MachineSpec::server32();
        let (w, period, phases) = phased(true);
        let total = period * phases;
        let k = period / 4;
        let (poll, trace, _, reactions) = run_adaptive(&spec, &w, total, PhaseDetect::Polling(k));
        assert_eq!(reactions.len(), phases - 1);
        assert!(
            reactions.iter().all(|&d| d > 1 && d <= k),
            "polling delay must sit in (1, {k}], got {reactions:?}"
        );
        let (watch, _, _, watch_reactions) = run_adaptive(&spec, &w, total, PhaseDetect::Threshold);
        assert!(
            mean_reaction_steps(&watch_reactions) < mean_reaction_steps(&reactions),
            "threshold must react faster than polling on average"
        );
        // Slower detection still adapts (caps move) and stays in the same
        // cost regime as the watch-driven controller.
        let caps: std::collections::HashSet<i64> = trace.iter().map(|(_, c)| *c).collect();
        assert!(caps.len() > 1, "polling controller cap never moved");
        assert!(
            watch.edp() <= poll.edp() * 1.10,
            "watch edp {} should not trail polling edp {}",
            watch.edp(),
            poll.edp()
        );
    }

    #[test]
    fn fast_output_matches_golden() {
        crate::experiments::golden::check("fig6");
    }
}
