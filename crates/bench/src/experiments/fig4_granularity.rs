//! Fig 4 — task granularity: sweep and online tuning.
//!
//! Granularity trades per-task scheduling overhead against parallelism
//! and load balance. Two substrates:
//!
//! * **Simulated**: a fixed work volume decomposed into `tasks_per_step`
//!   tasks on the 32-core machine with 2 µs scheduling overhead. Too few
//!   tasks (< cores) idle cores; too many pay overhead. Expected shape:
//!   a U in completion time with a flat bottom, minimum at a small
//!   multiple of the core count.
//! * **Real**: `parallel_for` chunk-size sweep over the compute kernel on
//!   this host, plus an online hill-climbing session on the chunk knob
//!   that should land on the flat bottom of the measured curve.
//!
//! The run ends with two gates on the real pool: task accounting, and
//! [`scaling_gate`] — at the finest grain the ledger measures, a second
//! worker must not make a pass slower.

use crate::report::{fmt_f, write_table, Table};
use lg_core::Knob;
use lg_core::{SessionConfig, SessionStep, TuningSession};
use lg_runtime::{PoolConfig, ThreadPool};
use lg_sim::{MachineSpec, SimRuntime, SimTask};
use lg_tuning::{Dim, HillClimb, Space};
use lg_workloads::ComputeKernel;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Simulated completion time for one step of fixed work split `ntasks`
/// ways.
pub fn sim_time_for_decomposition(spec: &MachineSpec, total_ops: f64, ntasks: usize) -> f64 {
    let mut sim = SimRuntime::new(*spec);
    let ops_each = total_ops / ntasks as f64;
    sim.submit_all((0..ntasks).map(|_| SimTask::new("grain", ops_each, 0.0)));
    sim.run_until_idle().elapsed_s()
}

/// Real wall time for one `parallel_for` pass with the given chunk size.
pub fn real_time_for_chunk(pool: &ThreadPool, kernel: &mut ComputeKernel, chunk: usize) -> f64 {
    let t0 = Instant::now();
    kernel.run_parallel(pool, chunk);
    t0.elapsed().as_secs_f64()
}

/// One fine-grain fork-join pass, the shape of the perf ledger's
/// `taskflood`: a `parallel_for` over 100 000 elements at chunk 64 (1 563
/// tasks of ~40 ns) plus a scope of 1 000 loose spawns. Returns its wall
/// time in seconds; panics if any element or task was missed.
pub fn flood_pass(pool: &ThreadPool, out: &[AtomicU32], pass: u32) -> f64 {
    const LOOSE: usize = 1_000;
    let (elements, loose) = out.split_at(out.len() - LOOSE);
    let element = |i: usize| (i as u32).wrapping_mul(0x9E37_79B1) ^ pass;
    let t0 = Instant::now();
    pool.parallel_for("flood", 0..elements.len(), 64, |i| {
        elements[i].store(element(i), Ordering::Relaxed);
    });
    pool.scope(|s| {
        for (k, slot) in loose.iter().enumerate() {
            s.spawn_named("loose", move || {
                slot.store(k as u32 ^ pass, Ordering::Relaxed)
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stored = |o: &AtomicU32| o.load(Ordering::Relaxed);
    let ok = (elements.iter().enumerate()).all(|(i, o)| stored(o) == element(i))
        && (loose.iter().enumerate()).all(|(k, o)| stored(o) == k as u32 ^ pass);
    assert!(ok, "flood pass {pass} lost work");
    elapsed
}

/// Fastest of `reps` [`flood_pass`]es on 1 and on 2 workers, observation
/// disabled, alternating so drift hits both alike: `(t1, t2)` seconds.
pub fn flood_scaling(reps: u32) -> (f64, f64) {
    let pools = [1, 2].map(|workers| {
        let lg = lg_core::LookingGlass::builder().build();
        lg.dispatcher().set_enabled(false);
        ThreadPool::new(lg, PoolConfig::with_workers(workers))
    });
    let out: Vec<AtomicU32> = (0..101_000).map(|_| AtomicU32::new(0)).collect();
    let mut best = [f64::MAX; 2];
    for pass in 0..reps + 5 {
        for (pool, best) in pools.iter().zip(&mut best) {
            let t = flood_pass(pool, &out, pass);
            // The first passes warm the pools up.
            if pass >= 5 {
                *best = best.min(t);
            }
        }
    }
    (best[0], best[1])
}

/// The scaling gate: with tasks this fine the pool is all overhead, and
/// overhead that lands on shared cache lines makes two workers *slower*
/// than one (1.4–2.0× before the per-task path stopped writing shared
/// lines). Two workers may cost at most 1.25× one worker's pass time.
/// Skipped on a single-CPU host, where the second worker only time-slices.
pub fn scaling_gate(out: &mut dyn Write) -> io::Result<()> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return writeln!(out, "scaling gate: skipped ({cpus} CPU)");
    }
    let (one, two) = flood_scaling(15);
    writeln!(
        out,
        "scaling gate: flood pass {} us on 1 worker, {} us on 2 workers ({}x, limit 1.25x, {cpus} CPUs)",
        fmt_f(one * 1e6),
        fmt_f(two * 1e6),
        fmt_f(two / one)
    )?;
    assert!(
        two <= one * 1.25,
        "scaling gate: a fine-grain pass takes {:.0} us on 2 workers vs {:.0} us on 1",
        two * 1e6,
        one * 1e6
    );
    Ok(())
}

/// Runs the experiment and its gates.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    figure(fast, out)?;
    scaling_gate(out)
}

fn figure(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    // --- Simulated sweep ---
    let spec = MachineSpec::server32();
    let total_ops = if fast { 1e8 } else { 1e9 };
    let mut table = Table::new(
        "Fig 4a: completion time vs decomposition width (sim, 32 cores, 2us overhead)",
        &["tasks_per_step", "time_ms"],
    );
    let widths: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384];
    for &n in &widths {
        let t = sim_time_for_decomposition(&spec, total_ops, n);
        table.push(&[n.to_string(), fmt_f(t * 1e3)]);
    }
    write_table(out, &table, "fig4a_granularity_sim")?;

    // --- Real sweep + online tuner ---
    let lg = lg_core::LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::default());
    let n = if fast { 20_000 } else { 200_000 };
    let iters = if fast { 20 } else { 50 };
    let mut kernel = ComputeKernel::new(n, iters);
    let mut table = Table::new(
        "Fig 4b: wall time vs chunk size (real runtime, this host)",
        &["chunk", "time_ms"],
    );
    let chunks: Vec<usize> = (0..=14).map(|e| 1usize << e).collect();
    for &chunk in &chunks {
        let t = real_time_for_chunk(&pool, &mut kernel, chunk);
        table.push(&[chunk.to_string(), fmt_f(t * 1e3)]);
    }
    write_table(out, &table, "fig4b_granularity_real")?;

    // Online tuning of the chunk knob.
    let knob = pool.chunk_knob("chunk", 1, 1 << 14, 1);
    let space = Space::new(vec![Dim::pow2("chunk", 0, 14)]);
    let search = Box::new(HillClimb::from_start(space, &[1]).with_min_improvement(0.02));
    let mut session = TuningSession::new(
        SessionConfig::single("chunk", 0, 0),
        search,
        lg.knobs().clone(),
    );
    let mut table = Table::new(
        "Fig 4c: online chunk tuning trace (hill climb, 2% hysteresis)",
        &["epoch", "chunk", "time_ms"],
    );
    let mut epoch = 0;
    loop {
        match session.next(lg.now_ns()) {
            SessionStep::Done { best } => {
                if let Some((point, t)) = best {
                    writeln!(
                        out,
                        "tuned chunk = {} ({} ms/pass)",
                        point[0],
                        fmt_f(t * 1e3)
                    )?;
                }
                break;
            }
            SessionStep::Measure { point: _, .. } => {
                let chunk = knob.get().max(1) as usize;
                let t = real_time_for_chunk(&pool, &mut kernel, chunk);
                table.push(&[epoch.to_string(), chunk.to_string(), fmt_f(t * 1e3)]);
                session.complete(t);
                epoch += 1;
            }
        }
    }
    write_table(out, &table, "fig4c_granularity_tuned")?;
    writeln!(out)?;

    // --- Accounting gate ---
    // The experiment's entire task volume went through the zero-allocation
    // batch path; the counters must prove it. Run in CI (`fig4 --fast`), so
    // a representation regression fails the build, not just a benchmark.
    pool.wait_idle();
    let spawned = pool.counters().counter("rt.spawned").get();
    let executed = pool.counters().counter("rt.executed").get();
    let boxed = pool.counters().counter("rt.boxed_tasks").get();
    let batches = pool.counters().counter("rt.batch_spawns").get();
    assert_eq!(
        spawned, executed,
        "accounting gate: every spawned task must execute"
    );
    assert_eq!(
        boxed, 0,
        "accounting gate: parallel_for chunks must stay inline, {boxed} were boxed"
    );
    assert!(
        batches > 0,
        "accounting gate: parallel_for must use batched submission"
    );
    writeln!(
        out,
        "accounting gate: spawned == executed == {spawned}, boxed = 0, batch_spawns = {batches}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_u_shape() {
        let spec = MachineSpec::server32();
        let too_few = sim_time_for_decomposition(&spec, 1e8, 1);
        let right = sim_time_for_decomposition(&spec, 1e8, 64);
        let too_many = sim_time_for_decomposition(&spec, 1e8, 50_000);
        assert!(
            too_few > right * 5.0,
            "1 task can't use 32 cores: {too_few} vs {right}"
        );
        assert!(
            too_many > right * 1.5,
            "50k tasks should pay overhead: {too_many} vs {right}"
        );
    }

    #[test]
    fn runs_fast() {
        // Without the scaling gate: its limit is for a release build on
        // otherwise idle CPUs (CI runs it through `experiments fig4`).
        figure(true, &mut std::io::sink()).unwrap();
    }

    #[test]
    fn flood_passes_verify_on_one_and_two_workers() {
        let (one, two) = flood_scaling(2);
        assert!(one > 0.0 && two > 0.0);
    }
}
