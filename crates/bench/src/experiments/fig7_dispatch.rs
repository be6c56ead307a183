//! Fig 7 — event pipeline throughput under thread contention.
//!
//! Several threads hammer one dispatcher concurrently. Three pipelines:
//! `none` (the bare dispatcher), `profiler` (one sharded listener) and
//! `stock` — everything `LookingGlass::builder().trace(n).build()`
//! registers: profiler, concurrency tracker, trace ring and policy engine.
//! The first two only ever exercised the dispatcher and the profiler;
//! `stock` is the pipeline real runs pay for, and the one whose listeners
//! used to write shared cache lines on every event. Emitters now share no
//! written line anywhere on it, so on a host with a core per emitter the
//! aggregate cost per event must *fall* as emitters are added.
//!
//! Reported: aggregate events/second and per-event cost vs emitting
//! thread count. On a single-core host the threads time-share, so the
//! interesting signal is that per-event cost stays bounded (no lock
//! convoy collapse) rather than wall-clock scaling; `run` asserts both.

use crate::report::{fmt_f, write_csv, Table};
use lg_core::profile::ProfileListener;
use lg_core::{Dispatcher, Event, LookingGlass, TaskId, TaskNames};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which listeners the measured dispatcher carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// No listener: the dispatcher alone.
    None,
    /// The profiler only.
    Profiler,
    /// A stock traced instance: profiler, concurrency, trace, engine.
    Stock,
}

impl Pipeline {
    /// Every pipeline, lightest first.
    pub const ALL: [Pipeline; 3] = [Pipeline::None, Pipeline::Profiler, Pipeline::Stock];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Pipeline::None => "none",
            Pipeline::Profiler => "profiler",
            Pipeline::Stock => "stock",
        }
    }

    /// The dispatcher to hammer, a task id it knows, and how many
    /// listeners each event is delivered to.
    fn build(self) -> (Arc<Dispatcher>, TaskId, u64) {
        if self == Pipeline::Stock {
            let lg = LookingGlass::builder().trace(4096).build();
            return (lg.dispatcher().clone(), lg.intern("contended"), 4);
        }
        let names = TaskNames::new();
        let d = Arc::new(Dispatcher::new());
        if self == Pipeline::Profiler {
            // On the dispatcher's stripes, the delivery path of a built
            // instance: inside the one stripe lock.
            d.register(Arc::new(ProfileListener::on(
                names.clone(),
                d.stripes().clone(),
            )));
        }
        let listeners = d.listener_count() as u64;
        (d, names.intern("contended"), listeners)
    }
}

/// Measures aggregate dispatch throughput with `threads` emitters, each
/// emitting `events_per_thread` (even) events as begin/end pairs so the
/// concurrency tracker stays balanced, as under a real pool.
pub fn throughput(threads: usize, events_per_thread: u64, pipeline: Pipeline) -> f64 {
    let (d, task, listeners) = pipeline.build();
    let pairs = events_per_thread / 2;
    let start = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let d = d.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let begin = Event::TaskBegin {
                    task,
                    worker: w,
                    t_ns: 1,
                };
                let end = Event::TaskEnd {
                    task,
                    worker: w,
                    t_ns: 2,
                    elapsed_ns: 1,
                };
                for _ in 0..pairs {
                    d.dispatch(&begin);
                    d.dispatch(&end);
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    start.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let total = threads as u64 * pairs * 2;
    // Striped-counter accounting must be exact once emitters quiesce:
    // one event per dispatch, one delivery per (event × listener).
    assert_eq!(d.events_dispatched(), total, "event count drifted");
    assert_eq!(d.deliveries(), total * listeners, "delivery count drifted");
    total as f64 / secs
}

/// Runs the experiment.
///
/// Gates: for each pipeline, 8-emitter per-event cost must stay within 8×
/// of the 1-emitter cost — a lenient, CI-safe bound that a lock convoy
/// blows far past and scheduler noise does not. On a host with at least
/// two CPUs the stock pipeline must also hold 2-emitter cost within 1.5×
/// of 1-emitter (contention-free it halves; emitters bouncing one shared
/// line between two cores roughly double it). Each cell is the fastest of
/// a few alternating repetitions, so one preempted burst cannot trip it.
pub fn run(fast: bool) {
    let events: u64 = if fast { 50_000 } else { 1_000_000 };
    let reps = if fast { 5 } else { 3 };
    let mut table = Table::new(
        "Fig 7: dispatcher throughput under emitter contention",
        &["threads", "listener", "events_per_sec", "ns_per_event"],
    );
    let mut ns_at = std::collections::HashMap::new();
    for _ in 0..reps {
        for threads in [1usize, 2, 4, 8] {
            for pipeline in Pipeline::ALL {
                let ns = 1e9 / throughput(threads, events / threads as u64, pipeline);
                let best = ns_at.entry((threads, pipeline)).or_insert(f64::MAX);
                *best = ns.min(*best);
            }
        }
    }
    for threads in [1usize, 2, 4, 8] {
        for pipeline in Pipeline::ALL {
            let ns = ns_at[&(threads, pipeline)];
            table.row(&[
                threads.to_string(),
                pipeline.label().into(),
                fmt_f(1e9 / ns),
                fmt_f(ns),
            ]);
        }
    }
    println!("{}", table.render());
    for pipeline in Pipeline::ALL {
        let one = ns_at[&(1, pipeline)];
        let eight = ns_at[&(8, pipeline)];
        assert!(
            eight <= one * 8.0,
            "convoy collapse: 8-emitter cost {eight:.1} ns vs 1-emitter {one:.1} ns \
             ({})",
            pipeline.label()
        );
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= 2 {
        let one = ns_at[&(1, Pipeline::Stock)];
        let two = ns_at[&(2, Pipeline::Stock)];
        assert!(
            two <= one * 1.5,
            "stock pipeline contends: 2-emitter cost {two:.1} ns vs 1-emitter {one:.1} ns \
             on {cpus} CPUs"
        );
    }
    let path = write_csv(&table, "fig7_dispatch");
    println!("wrote {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_sane() {
        // ≥ 100k events/sec even contended with the stock pipeline on a
        // slow box.
        let rate = throughput(2, 20_000, Pipeline::Stock);
        assert!(rate > 1e5, "rate {rate}");
    }

    #[test]
    fn profiler_costs_something_but_not_everything() {
        // Fastest of a few alternating runs, like `run`'s cells, so one
        // preempted run on a busy host cannot decide either side.
        let (mut bare, mut prof) = (0f64, 0f64);
        for _ in 0..5 {
            bare = bare.max(throughput(1, 50_000, Pipeline::None));
            prof = prof.max(throughput(1, 50_000, Pipeline::Profiler));
        }
        assert!(
            prof < bare * 1.5,
            "profiler can't be faster by much (noise guard)"
        );
        assert!(
            prof > bare / 50.0,
            "profiler should not be 50x slower: {bare} vs {prof}"
        );
    }

    #[test]
    fn runs_fast() {
        run(true);
    }
}
