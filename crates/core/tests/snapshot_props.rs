//! Property tests for incremental introspection: for any interleaved
//! write/capture schedule, the delta-merged snapshot is field-for-field
//! identical to a from-scratch recompute — including the all-idle
//! extreme (consecutive captures with no writes) and the all-dirty
//! extreme (every shard written between captures).
//!
//! The oracle is [`Introspection::capture_uncached`], which bypasses the
//! delta cache entirely. Equality is *exact* (bitwise on the
//! Welford-derived floats): the delta path re-folds its cached stripe
//! copies in the same fixed stripe order as a from-scratch merge, so at
//! quiescence the two paths perform the identical float operations.

use lg_core::{
    ConcurrencyListener, Event, Introspection, IntrospectionSnapshot, Listener, ProfileListener,
    SampleHistoryListener, TaskNames,
};
use lg_metrics::CounterRegistry;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const REGISTRIES: usize = 3;
const COUNTERS_PER_REG: usize = 4;
const TASKS: usize = 5;
const STRIPES_USED: usize = 4;

/// One step of an interleaved write/capture schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Add to counter `c` of registry `r`.
    Counter { r: usize, c: usize, n: u64 },
    /// Complete one `task` execution on profile stripe `s` with duration
    /// `dur`.
    TaskEnd { s: usize, task: usize, dur: u64 },
    /// Begin (without ending) a `task` on stripe `s` — leaves nonzero
    /// `active` balance in the merge.
    TaskBegin { s: usize, task: usize },
    /// Append a sample to the sampled series feeding the window mean.
    Sample { t: u64, v: u16 },
    /// Bump the stamped gauge's backing value and its stamp.
    Gauge { v: u16 },
    /// Capture incrementally and compare against the from-scratch oracle.
    Capture,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The offline proptest shim has no `prop_oneof!`; draw a flat tuple
    // of every field plus a kind selector and map it to the variant.
    (
        (0u8..6, 0usize..REGISTRIES, 0usize..COUNTERS_PER_REG),
        (0usize..STRIPES_USED, 0usize..TASKS, 1u64..10_000),
        (0u64..1_000_000, 0u16..u16::MAX),
    )
        .prop_map(|((kind, r, c), (s, task, dur), (t, v))| match kind {
            0 => Op::Counter {
                r,
                c,
                n: dur % 100 + 1,
            },
            1 => Op::TaskEnd { s, task, dur },
            2 => Op::TaskBegin { s, task },
            3 => Op::Sample { t, v },
            4 => Op::Gauge { v },
            _ => Op::Capture,
        })
}

struct Harness {
    names: TaskNames,
    profiles: Arc<ProfileListener>,
    history: Arc<SampleHistoryListener>,
    intro: Introspection,
    regs: Vec<Arc<CounterRegistry>>,
    tasks: Vec<lg_core::TaskId>,
    sample_metric: lg_core::TaskId,
    gauge_value: Arc<AtomicU64>,
    gauge_stamp: Arc<AtomicU64>,
}

fn harness() -> Harness {
    let names = TaskNames::new();
    let profiles = Arc::new(ProfileListener::new(names.clone()));
    let concurrency = Arc::new(ConcurrencyListener::new(64));
    let history = Arc::new(SampleHistoryListener::new(names.clone(), 64));
    let intro = Introspection::new(profiles.clone(), concurrency);
    let regs: Vec<Arc<CounterRegistry>> = (0..REGISTRIES)
        .map(|r| {
            let reg = Arc::new(CounterRegistry::new());
            for c in 0..COUNTERS_PER_REG {
                // Mix storages; duplicate names across registries are
                // intentional (their registry-order tie-break is part of
                // the contract under test).
                if c % 2 == 0 {
                    reg.counter(&format!("c{c}"));
                } else {
                    reg.striped_counter(&format!("c{c}"));
                }
            }
            let _ = r;
            reg
        })
        .collect();
    for reg in &regs {
        intro.register_counters(reg.clone());
    }
    let tasks: Vec<lg_core::TaskId> = (0..TASKS)
        .map(|i| names.intern(&format!("task-{i}")))
        .collect();
    let sample_metric = names.intern("sampled");
    intro.register_window_mean("sampled.mean", history.clone(), "sampled", 1_000_000);
    let gauge_value = Arc::new(AtomicU64::new(0));
    let gauge_stamp = Arc::new(AtomicU64::new(0));
    let gv = gauge_value.clone();
    intro.register_gauge_stamped("stamped", gauge_stamp.clone(), move || {
        gv.load(Ordering::Relaxed) as f64
    });
    Harness {
        names,
        profiles,
        history,
        intro,
        regs,
        tasks,
        sample_metric,
        gauge_value,
        gauge_stamp,
    }
}

/// Runs a profile event on a chosen stripe by emitting it from a thread
/// pinned to that stripe index.
fn on_stripe(profiles: &Arc<ProfileListener>, stripe: usize, event: Event) {
    let p = profiles.clone();
    std::thread::spawn(move || {
        lg_metrics::stripe::set_thread_index(stripe);
        p.on_event(&event);
    })
    .join()
    .unwrap();
}

fn assert_snapshots_equal(delta: &IntrospectionSnapshot, full: &IntrospectionSnapshot) {
    assert_eq!(delta.t_ns, full.t_ns);
    assert_eq!(delta.total_completed, full.total_completed);
    assert_eq!(delta.active_tasks, full.active_tasks);
    assert_eq!(delta.online_workers, full.online_workers);
    assert_eq!(delta.peak_tasks, full.peak_tasks);
    assert_eq!(delta.metric_names(), full.metric_names());
    let dm: Vec<_> = delta.metrics().collect();
    let fm: Vec<_> = full.metrics().collect();
    assert_eq!(dm, fm, "metric values diverged");
    let dc: Vec<_> = delta.counters().collect();
    let fc: Vec<_> = full.counters().collect();
    assert_eq!(dc, fc, "counters diverged");
    // Profiles: exact equality, floats included — both paths fold the
    // same per-stripe cells in the same order.
    assert_eq!(delta.profiles(), full.profiles(), "profiles diverged");
}

fn run_schedule(h: &Harness, ops: &[Op]) {
    let mut t = 0u64;
    for op in ops {
        t += 1;
        match op {
            Op::Counter { r, c, n } => h.regs[*r].counter(&format!("c{c}")).add(*n),
            Op::TaskEnd { s, task, dur } => on_stripe(
                &h.profiles,
                *s,
                Event::TaskEnd {
                    task: h.tasks[*task],
                    worker: *s,
                    t_ns: t,
                    elapsed_ns: *dur,
                },
            ),
            Op::TaskBegin { s, task } => on_stripe(
                &h.profiles,
                *s,
                Event::TaskBegin {
                    task: h.tasks[*task],
                    worker: *s,
                    t_ns: t,
                },
            ),
            Op::Sample { t: st, v } => h.history.on_event(&Event::SampleValue {
                metric: h.sample_metric,
                value: *v as f64,
                t_ns: *st,
            }),
            Op::Gauge { v } => {
                h.gauge_value.store(*v as u64, Ordering::Relaxed);
                h.gauge_stamp.fetch_add(1, Ordering::Release);
            }
            Op::Capture => {
                // Capture (delta path, updates the cache) first; the
                // oracle is pure and must agree at quiescence.
                let delta = h.intro.capture(t);
                let full = h.intro.capture_uncached(t);
                assert_snapshots_equal(&delta, &full);
            }
        }
    }
    // Every schedule ends with a capture pair so trailing writes are
    // always checked.
    let delta = h.intro.capture(t + 1);
    let full = h.intro.capture_uncached(t + 1);
    assert_snapshots_equal(&delta, &full);
    let _ = &h.names;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn delta_capture_equals_from_scratch(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let h = harness();
        run_schedule(&h, &ops);
    }
}

#[test]
fn all_idle_extreme_many_captures_no_writes() {
    let h = harness();
    // Warm writes, then a long run of captures with zero activity.
    h.regs[0].counter("c0").add(7);
    on_stripe(
        &h.profiles,
        1,
        Event::TaskEnd {
            task: h.tasks[0],
            worker: 1,
            t_ns: 5,
            elapsed_ns: 5,
        },
    );
    let merges_start = h.intro.merges();
    let warm = h.intro.capture(10);
    let merges_warm = h.intro.merges();
    assert!(merges_warm > merges_start);
    for t in 11..40 {
        let delta = h.intro.capture(t);
        let full = h.intro.capture_uncached(t);
        assert_snapshots_equal(&delta, &full);
        assert!(
            Arc::ptr_eq(&warm.profiles_arc(), &delta.profiles_arc()),
            "idle captures share the merged profile base"
        );
    }
    assert_eq!(
        h.intro.merges(),
        merges_warm,
        "29 idle captures performed zero shard merges"
    );
}

#[test]
fn all_dirty_extreme_every_shard_written_between_captures() {
    let h = harness();
    for round in 0u64..8 {
        for (r, reg) in h.regs.iter().enumerate() {
            for c in 0..COUNTERS_PER_REG {
                reg.counter(&format!("c{c}")).add(round + r as u64 + 1);
            }
        }
        for s in 0..STRIPES_USED {
            for (i, task) in h.tasks.iter().enumerate() {
                on_stripe(
                    &h.profiles,
                    s,
                    Event::TaskEnd {
                        task: *task,
                        worker: s,
                        t_ns: round * 100 + i as u64,
                        elapsed_ns: (round + 1) * 10 + i as u64,
                    },
                );
            }
        }
        h.gauge_value.fetch_add(3, Ordering::Relaxed);
        h.gauge_stamp.fetch_add(1, Ordering::Release);
        h.history.on_event(&Event::SampleValue {
            metric: h.sample_metric,
            value: round as f64,
            t_ns: round * 50,
        });
        let delta = h.intro.capture(round * 1000);
        let full = h.intro.capture_uncached(round * 1000);
        assert_snapshots_equal(&delta, &full);
    }
}

/// `merges + skipped` moved by one capture: every registry and every
/// profile stripe is accounted exactly once, one way or the other.
const SHARDS_PER_CAPTURE: u64 = (REGISTRIES + lg_metrics::stripe::STRIPE_COUNT) as u64;

#[test]
fn captures_racing_writers_are_monotone_and_converge() {
    // Counters carry no stamp: capture's dirtiness test is "the value
    // differs from the base". Two writers on their own stripes hammer a
    // striped counter in one registry and a single-cell counter in another
    // for as long as a third thread captures, so every capture races adds.
    let h = harness();
    let striped = h.regs[0].counter("c1");
    let single = h.regs[1].counter("c0");
    assert!(striped.is_striped() && !single.is_striped());
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(3);
    let written: u64 = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|stripe| {
                let (striped, single, stop, start) = (&striped, &single, &stop, &start);
                s.spawn(move || {
                    lg_metrics::stripe::set_thread_index(stripe);
                    start.wait();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        striped.add(2);
                        single.inc();
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        start.wait();
        let mut prev = h.intro.capture(0);
        for t in 1..=2_000u64 {
            let shards = h.intro.merges() + h.intro.skipped();
            let snap = h.intro.capture(t);
            assert_eq!(
                h.intro.merges() + h.intro.skipped(),
                shards + SHARDS_PER_CAPTURE
            );
            for ((name, now), (_, before)) in snap.counters().zip(prev.counters()) {
                assert!(now >= before, "{name} went back: {before} -> {now}");
            }
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(written > 0);
    // Quiescent: one more capture picks up whatever the racing ones left
    // and agrees with the from-scratch oracle and with the writers.
    let delta = h.intro.capture(3_000);
    assert_snapshots_equal(&delta, &h.intro.capture_uncached(3_000));
    assert_eq!(striped.get(), 2 * written);
    assert_eq!(single.get(), written);
}

#[test]
fn only_the_registry_whose_values_moved_is_merged() {
    let h = harness();
    let hot = h.regs[0].counter("c0");
    let zero = h.regs[1].counter("c1");
    // Address of the interned name table's first entry.
    let first_name = |s: &IntrospectionSnapshot| s.counters().next().unwrap().0.as_ptr();
    let mut prev = h.intro.capture(0);
    for round in 1..=16u64 {
        hot.add(round);
        // Not a write: the value is where the base has it.
        zero.add(0);
        let (merges, skipped) = (h.intro.merges(), h.intro.skipped());
        let snap = h.intro.capture(round);
        assert_eq!(h.intro.merges(), merges + 1, "only registry 0 moved");
        assert_eq!(h.intro.skipped(), skipped + SHARDS_PER_CAPTURE - 1);
        assert_snapshots_equal(&snap, &h.intro.capture_uncached(round));
        // Value writes keep the interned name table: same allocation.
        assert_eq!(first_name(&snap), first_name(&prev));
        prev = snap;
    }
}
