//! Online task-granularity tuning on the real runtime.
//!
//! ```sh
//! cargo run --release --example granularity_tuning
//! ```
//!
//! Repeatedly runs a compute kernel through `parallel_for_mut` while an
//! online tuning session adjusts the chunk-size knob between passes.
//! Small chunks drown in per-task scheduling overhead; the tuner walks
//! to the flat part of the curve. Everything here is real execution on
//! this host — no simulation.
//!
//! Control-plane idiom on display: the chunk knob is addressed by its
//! interned [`KnobId`], the power-of-two search space is derived from
//! the knob's own spec (`chunk_knob` registers with Pow2 scale), and
//! the closing stats are read from one coherent
//! [`IntrospectionSnapshot`] instead of poking listeners directly.
//!
//! `parallel_for_mut` rides the batched zero-allocation spawn path: each
//! pass is **one** injector batch push whose chunk tasks point at the
//! scope's one copy of the body and store their `(&body, start, end)`
//! captures inline in the task record; each task writes its own
//! sub-slice of the kernel's output. The `rt.*` counters in the final
//! snapshot prove it — `rt.batch_spawns` counts passes, not chunks, and
//! `rt.boxed_tasks` stays zero no matter how small the chunks get.

use looking_glass::core::{LookingGlass, SessionConfig, SessionStep, TuningSession};
use looking_glass::runtime::{PoolConfig, ThreadPool};
use looking_glass::tuning::HillClimb;
use looking_glass::workloads::ComputeKernel;
use std::time::Instant;

fn main() {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::default());
    let n = 200_000;
    let mut kernel = ComputeKernel::new(n, 30);

    // The chunk knob each pass reads, addressed by interned id.
    pool.chunk_knob("chunk", 1, 1 << 14, 1);
    let chunk_id = lg.knobs().id("chunk").expect("just registered");

    // Reference sweep so the tuner's answer can be judged.
    println!("-- reference sweep --");
    println!("chunk    time_ms");
    for e in [0u32, 2, 4, 6, 8, 10, 12, 14] {
        let chunk = 1usize << e;
        let t0 = Instant::now();
        kernel.run_parallel(&pool, chunk);
        println!("{:>6}  {:>8.2}", chunk, t0.elapsed().as_secs_f64() * 1e3);
    }

    // Online tuning session over the pow2 lattice the knob's spec
    // declares — no hand-built `Space` mirroring the registration site.
    let space = lg.knobs().space_for(&["chunk"]);
    let search = Box::new(HillClimb::from_start(space, &[1]).with_min_improvement(0.03));
    let mut session = TuningSession::new(
        SessionConfig::single("chunk", 0, 0),
        search,
        lg.knobs().clone(),
    );

    println!("\n-- online tuning --");
    println!("epoch  chunk    time_ms");
    loop {
        match session.next(lg.now_ns()) {
            SessionStep::Done { best } => {
                let (point, secs) = best.expect("tuned");
                println!(
                    "\ntuned chunk = {} ({:.2} ms/pass) in {} epochs",
                    point[0],
                    secs * 1e3,
                    session.history().len()
                );
                break;
            }
            SessionStep::Measure { .. } => {
                let chunk = lg.knobs().value_id(chunk_id).unwrap().max(1) as usize;
                let t0 = Instant::now();
                kernel.run_parallel(&pool, chunk);
                // The objective is host wall time, which no snapshot
                // gauge can supply — score it directly.
                let secs = t0.elapsed().as_secs_f64();
                println!(
                    "{:>5}  {:>6}  {:>8.2}",
                    session.history().len(),
                    chunk,
                    secs * 1e3
                );
                session.complete(secs);
            }
        }
    }

    // One coherent snapshot carries everything the wrap-up prints:
    // profiles, the pool's rt.* counters, and the knob's final value.
    let snap = lg.snapshot();
    let prof = snap.profile("compute_chunk").expect("profile");
    println!(
        "observed {} chunk tasks, mean {:.1} us",
        prof.count,
        prof.mean_ns / 1e3
    );
    // The representation counters: every chunk task stayed inline (no
    // per-task allocation) and each pass was a single batch submission.
    println!(
        "spawn path: batch_spawns={} inline_tasks={} boxed_tasks={} lifo_hits={}",
        snap.counter("rt.batch_spawns").unwrap_or(0),
        snap.counter("rt.inline_tasks").unwrap_or(0),
        snap.counter("rt.boxed_tasks").unwrap_or(0),
        snap.counter("rt.lifo_hits").unwrap_or(0),
    );
    println!(
        "actuation journal: {} records ({} total writes)",
        lg.knobs().journal().len(),
        lg.knobs().change_count()
    );
}
