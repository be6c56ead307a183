//! Quickstart: observe, introspect, adapt — in ~60 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a `LookingGlass` instance and a work-stealing pool, runs some
//! named tasks, inspects the profiles the observation layer collected,
//! and lets a policy turn a knob in response to an event.

use looking_glass::core::policy::{FnPolicy, PolicyDecision, Trigger};
use looking_glass::core::{Event, LookingGlass};
use looking_glass::runtime::{PoolConfig, ThreadPool};

fn main() {
    // 1. Observation: every instance wires a profiler, a concurrency
    //    tracker, and a policy engine onto its event dispatcher.
    let lg = LookingGlass::builder().trace(1024).build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::default());

    // 2. Instrument and run work. Tasks are named; the profiler
    //    aggregates per name.
    pool.scope(|s| {
        for i in 0..64 {
            s.spawn_named("quickstart_task", move || {
                let mut acc = 0u64;
                for j in 0..(10_000 * (1 + i % 4)) {
                    acc = acc.wrapping_add(j * j);
                }
                std::hint::black_box(acc);
            });
        }
    });

    // 3. Introspection: query what was observed.
    println!("-- profiles --");
    for p in lg.profiles().snapshot() {
        println!(
            "{:<20} count={:<5} mean={:>10.0} ns  stddev={:>10.0} ns  min={:>8.0}  max={:>8.0}",
            p.name, p.count, p.mean_ns, p.stddev_ns, p.min_ns, p.max_ns
        );
    }
    println!(
        "peak concurrent tasks: {} | workers online: {}",
        lg.concurrency().peak_tasks(),
        lg.concurrency().online_workers()
    );
    println!(
        "scheduler: spawned={} executed={} steals={} parks={}",
        pool.counters().counter("rt.spawned").get(),
        pool.counters().counter("rt.executed").get(),
        pool.counters().counter("rt.steals").get(),
        pool.counters().counter("rt.parks").get(),
    );
    // The fast-path counters: small closures live inline in the task
    // record (zero-allocation spawns), worker-spawned tasks hit the LIFO
    // slot, and batch submissions are counted per call, not per task.
    println!(
        "fast path: inline={} boxed={} lifo_hits={} batch_spawns={}",
        pool.counters().counter("rt.inline_tasks").get(),
        pool.counters().counter("rt.boxed_tasks").get(),
        pool.counters().counter("rt.lifo_hits").get(),
        pool.counters().counter("rt.batch_spawns").get(),
    );

    // 4. Adaptation: a policy reacts to a phase marker by throttling the
    //    pool to one worker through the knob registry (it knows nothing
    //    about the pool). The knob's name is resolved to its id once.
    let cap = lg
        .knobs()
        .id("thread_cap")
        .expect("the pool registers thread_cap");
    lg.policy_engine().register_triggered(
        FnPolicy::new("throttle-on-phase", move |_, trigger, _snapshot| {
            if matches!(trigger, Trigger::Event(Event::PhaseBegin { .. })) {
                PolicyDecision::set(cap, 1)
            } else {
                PolicyDecision::noop()
            }
        }),
        Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
    );
    println!("\nthread_cap before phase: {:?}", lg.knobs().value_id(cap));
    lg.phase_begin("memory-bound-phase");
    println!("thread_cap after phase:  {:?}", lg.knobs().value_id(cap));
    println!("knob actuations logged: {:?}", lg.knobs().changes());

    // The trace listener kept the most recent events for post-mortem use.
    let trace = lg.trace().unwrap();
    println!(
        "\ntrace captured {} events ({} overwritten)",
        trace.captured(),
        trace.overwritten()
    );
}
