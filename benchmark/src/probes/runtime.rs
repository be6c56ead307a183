//! `lg-runtime`: spawn, steal, join, `parallel_for`, DAG wiring and
//! drain, the thread cap, and Task Bench's METG. These move `taskflood`
//! (`ops_per_s`, `op_latency_us_p50`) and, for the `dag_*` rows,
//! `dagdrain`; none of them may move `closedloop` or `simserve`.

use super::Probes;
use crate::alloc;
use crate::trace::{clock_ns, Layer, NoTrace, Site, Tracing};
use crate::workloads::dagdrain::{DagDrain, DAG_WIRE};
use crate::workloads::taskflood::{self, TaskFlood, CHUNK, ELEMENTS};
use crate::workloads::Workload;
use lg_core::listener::FnListener;
use lg_core::{Event, LookingGlass};
use lg_runtime::{PoolConfig, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const fn rt(name: &'static str) -> Site {
    Site {
        name,
        layer: Layer::Runtime,
    }
}

static SPAWN: Site = rt("runtime.spawn");
static SPAWN_BATCH: Site = rt("runtime.spawn_batch");
static SCOPE_SPAWN: Site = rt("runtime.scope_spawn");
static PFOR_C64: Site = rt("runtime.parallel_for_c64");
static PFOR_C1024: Site = rt("runtime.parallel_for_c1024");
static JOIN_HOT: Site = rt("runtime.join_roundtrip_hot");
static JOIN_PARKED: Site = rt("runtime.join_roundtrip_parked");
static CAP_LOWER: Site = rt("runtime.cap_lower_effect");
static CAP_RAISE: Site = rt("runtime.cap_raise_effect");
static METG_BARE: Site = rt("runtime.metg_bare");
static METG_OBSERVED: Site = rt("runtime.metg_observed");
static METG_FULL: Site = rt("runtime.metg_full");
static FLOOD_PASS: Site = Site {
    name: "probe.taskflood_pass",
    layer: Layer::Bench,
};
static DAG_TRIO: Site = Site {
    name: "probe.dagdrain_trio",
    layer: Layer::Bench,
};

pub fn run(p: &mut Probes) {
    spawn_paths(p);
    flood_counters(p);
    dag(p);
    cap_effect(p);
    metg(p);
}

fn spawn_paths(p: &mut Probes) {
    const TASKS: u32 = 1_000;
    let (pool, _ticker) = taskflood::observed_pool(p.nproc);

    // Spawn cost is submit + execute + quiesce, per task, as a caller
    // that waits for its work sees it.
    for i in 0..p.reps(41) as u64 {
        let span = p.tr.begin(&SPAWN, i);
        for _ in 0..TASKS {
            pool.spawn_named("probe", || {});
        }
        pool.wait_idle();
        p.tr.end(span, TASKS);
    }
    p.emit("runtime.spawn_ns", p.tr.per_call_ns(&SPAWN));

    for i in 0..p.reps(41) as u64 {
        let span = p.tr.begin(&SPAWN_BATCH, i);
        pool.spawn_batch("probe_batch", 0..TASKS as usize, 1, |_, _| {});
        pool.wait_idle();
        p.tr.end(span, TASKS);
    }
    p.emit("runtime.spawn_batch_ns", p.tr.per_call_ns(&SPAWN_BATCH));

    for i in 0..p.reps(41) as u64 {
        let span = p.tr.begin(&SCOPE_SPAWN, i);
        pool.scope(|s| {
            for _ in 0..TASKS {
                s.spawn_named("probe_scoped", || {});
            }
        });
        p.tr.end(span, TASKS);
    }
    p.emit("runtime.scope_spawn_ns", p.tr.per_call_ns(&SCOPE_SPAWN));

    let data: Vec<AtomicU64> = (0..ELEMENTS).map(|_| AtomicU64::new(0)).collect();
    for (site, chunk, name) in [
        (&PFOR_C64, CHUNK, "runtime.parallel_for_us_c64"),
        (&PFOR_C1024, 1024, "runtime.parallel_for_us_c1024"),
    ] {
        for i in 0..p.reps(41) as u64 {
            let span = p.tr.begin(site, i);
            pool.parallel_for("probe_for", 0..ELEMENTS, chunk, |k| {
                data[k].store(k as u64 ^ i, Ordering::Relaxed);
            });
            p.tr.end(span, 1);
        }
        p.emit(name, p.tr.per_call_ns(site) / 1e3);
    }

    // The round trip is bimodal — a spinning worker answers in
    // microseconds, a parked one only after a condvar wake — which is
    // why it is two per-layer rows and not an end-to-end metric.
    for i in 0..p.reps(400) as u64 {
        let span = p.tr.begin(&JOIN_HOT, i);
        let joined = pool.spawn("probe_join", move || i).join();
        p.tr.end(span, 1);
        assert_eq!(joined.ok(), Some(i));
    }
    p.emit(
        "runtime.join_roundtrip_hot_us",
        p.tr.per_call_ns(&JOIN_HOT) / 1e3,
    );
    for i in 0..p.reps(12) as u64 {
        std::thread::sleep(Duration::from_millis(20));
        let span = p.tr.begin(&JOIN_PARKED, i);
        let joined = pool.spawn("probe_join", move || i).join();
        p.tr.end(span, 1);
        assert_eq!(joined.ok(), Some(i));
    }
    p.emit(
        "runtime.join_roundtrip_parked_us",
        p.tr.per_call_ns(&JOIN_PARKED) / 1e3,
    );
}

/// Scheduler counters over a stretch of `taskflood` passes: how tasks
/// reached their worker, and what each cost in allocations and events.
fn flood_counters(p: &mut Probes) {
    let mut w = TaskFlood::setup(p.seed, p.nproc, false);
    let counters = w.pool.counters().clone();
    let dispatcher = w.pool.lg().dispatcher().clone();
    let read = |name: &str| counters.counter(name).get();
    let before = (
        read("rt.executed"),
        read("rt.steals"),
        read("rt.lifo_hits"),
        read("rt.parks"),
        dispatcher.events_dispatched(),
        alloc::allocations(),
    );
    for i in 0..p.reps(150) as u64 {
        let span = p.tr.begin(&FLOOD_PASS, i);
        // Untraced inside: the recorder's own buffers must not count
        // as the runtime's allocations.
        let out = w.op(&mut NoTrace, i);
        p.tr.end(span, 1);
        assert_eq!(out.failed, 0, "taskflood probe pass failed its checks");
    }
    let allocs = alloc::allocations() - before.5;
    let executed = (read("rt.executed") - before.0) as f64;
    p.emit(
        "runtime.steal_frac",
        (read("rt.steals") - before.1) as f64 / executed,
    );
    p.emit(
        "runtime.lifo_hit_frac",
        (read("rt.lifo_hits") - before.2) as f64 / executed,
    );
    p.emit(
        "runtime.parks_per_ktask",
        (read("rt.parks") - before.3) as f64 * 1e3 / executed,
    );
    p.emit("runtime.boxed_tasks", read("rt.boxed_tasks") as f64);
    p.emit("runtime.allocs_per_task", allocs as f64 / executed);
    p.emit(
        "core.events_per_task",
        (dispatcher.events_dispatched() - before.4) as f64 / executed,
    );
}

fn dag(p: &mut Probes) {
    let mut w = DagDrain::setup(p.seed, p.nproc, false);
    let counters = w.pool.counters().clone();
    let read = |name: &str| counters.counter(name).get();
    let before = (read("rt.executed"), read("rt.priority_pushes"));
    let nodes = w.nodes_per_trio();
    let mut per_node_ns = Vec::new();
    for i in 0..p.reps(80) as u64 {
        let span = p.tr.begin(&DAG_TRIO, i);
        let out = w.op(p.tr, i);
        p.tr.end(span, 1);
        assert_eq!(out.failed, 0, "dagdrain probe trio failed its checksum");
        per_node_ns.push(out.latency_ns as f64 / nodes as f64);
    }
    p.emit("runtime.dag_wire_ns", p.tr.per_call_ns(&DAG_WIRE));
    p.emit(
        "runtime.dag_drain_ns_per_node",
        crate::stats::median(&per_node_ns),
    );
    p.emit(
        "runtime.priority_push_frac",
        (read("rt.priority_pushes") - before.1) as f64 / (read("rt.executed") - before.0) as f64,
    );
}

/// `thread_cap` `set_id` → the pool reflects it: the excluded worker
/// emits `WorkerStop` (lowering), or begins its first task again
/// (raising). Measured under a task flood, where a worker meets the cap
/// at its next task boundary; stamps are taken on the worker's thread by
/// a listener, so the driver never spins against the workers.
fn cap_effect(p: &mut Probes) {
    let workers = p.nproc.max(2);
    let top = workers - 1;
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(workers));
    let cap = lg
        .knobs()
        .id("thread_cap")
        .expect("the pool registers its cap");
    let stopped_ns = Arc::new(AtomicU64::new(0));
    let resumed_ns = Arc::new(AtomicU64::new(0));
    let watching = Arc::new(AtomicBool::new(false));
    let (stopped, resumed, watch) = (stopped_ns.clone(), resumed_ns.clone(), watching.clone());
    lg.add_listener(Arc::new(FnListener::new("cap-probe", move |e| match e {
        Event::WorkerStop { worker, .. } if *worker == top => {
            stopped.store(clock_ns(), Ordering::Release);
        }
        Event::TaskBegin { worker, .. } if *worker == top && watch.load(Ordering::Acquire) => {
            let _ = resumed.compare_exchange(0, clock_ns(), Ordering::AcqRel, Ordering::Acquire);
        }
        _ => {}
    })));
    let wait_for = |stamp: &AtomicU64| -> Option<u64> {
        for _ in 0..200 {
            match stamp.load(Ordering::Acquire) {
                0 => std::thread::sleep(Duration::from_micros(500)),
                ns => return Some(ns),
            }
        }
        None
    };
    for i in 0..p.reps(15) as u64 {
        // ~1 µs bodies: long enough that the flood outlasts the trial.
        pool.spawn_batch("cap_flood", 0..100_000, 1, |k, _| {
            let mut x = k as u64 | 1;
            for _ in 0..600 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            black_box(x);
        });
        std::thread::sleep(Duration::from_millis(2));
        stopped_ns.store(0, Ordering::Release);
        let t0 = clock_ns();
        lg.knobs().set_id(cap, top as i64);
        if let Some(t) = wait_for(&stopped_ns) {
            p.tr.record(&CAP_LOWER, i, t0, t, 1);
        }
        resumed_ns.store(0, Ordering::Release);
        watching.store(true, Ordering::Release);
        let t0 = clock_ns();
        lg.knobs().set_id(cap, workers as i64);
        if let Some(t) = wait_for(&resumed_ns) {
            p.tr.record(&CAP_RAISE, i, t0, t, 1);
        }
        watching.store(false, Ordering::Release);
        pool.wait_idle();
    }
    // Lowering lands at a task boundary, raising waits for a condvar
    // wake: two modes, so the metric is the mean of their medians.
    p.emit(
        "runtime.cap_effect_us",
        (p.tr.per_call_ns(&CAP_LOWER) + p.tr.per_call_ns(&CAP_RAISE)) / 2e3,
    );
}

/// Task Bench's METG(50%): the smallest task granularity at which the
/// pool still delivers half its peak rate, from a chunk sweep over one
/// `parallel_for`. Efficiency is judged against the *bare* pool's peak
/// in all three configurations, so METG rises with observation cost.
fn metg(p: &mut Probes) {
    const N: usize = 1 << 18;
    const CHUNKS: [usize; 11] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];
    let data: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
    let nproc = p.nproc;
    let reps = p.reps(9);
    // Per chunk: (granularity ns, rate elements/ns), best of `reps`.
    let sweep = |pool: &ThreadPool, site: &'static Site, tr: &mut crate::trace::Recorder| {
        CHUNKS.map(|chunk| {
            let mut best_ns = u64::MAX;
            for _ in 0..reps {
                let span = tr.begin(site, chunk as u64);
                let t0 = clock_ns();
                pool.parallel_for("metg", 0..N, chunk, |i| {
                    data[i].store((i as u64).wrapping_mul(0x9E37_79B1), Ordering::Relaxed);
                });
                best_ns = best_ns.min(clock_ns() - t0);
                tr.end(span, 1);
            }
            let tasks = N.div_ceil(chunk);
            (
                best_ns as f64 * nproc as f64 / tasks as f64,
                N as f64 / best_ns as f64,
            )
        })
    };

    let bare = {
        let lg = LookingGlass::builder().build();
        lg.dispatcher().set_enabled(false);
        let pool = ThreadPool::new(lg, PoolConfig::with_workers(nproc));
        sweep(&pool, &METG_BARE, p.tr)
    };
    let observed = {
        let pool = ThreadPool::new(
            LookingGlass::builder().build(),
            PoolConfig::with_workers(nproc),
        );
        sweep(&pool, &METG_OBSERVED, p.tr)
    };
    let full = {
        let (pool, _ticker) = taskflood::observed_pool(nproc);
        sweep(&pool, &METG_FULL, p.tr)
    };
    let peak = bare.iter().map(|&(_, rate)| rate).fold(0.0, f64::max);
    p.emit("runtime.metg50_ns_bare", metg50(&bare, peak));
    p.emit("runtime.metg50_ns_observed", metg50(&observed, peak));
    p.emit("runtime.metg50_ns_full", metg50(&full, peak));
}

/// Granularity where efficiency (rate / peak) first reaches 0.5,
/// interpolated between the sweep points either side of the crossing.
fn metg50(sweep: &[(f64, f64)], peak: f64) -> f64 {
    let eff = |i: usize| sweep[i].1 / peak;
    match (0..sweep.len()).find(|&i| eff(i) >= 0.5) {
        Some(0) => sweep[0].0,
        Some(i) => {
            let (g0, g1) = (sweep[i - 1].0, sweep[i].0);
            g0 + (0.5 - eff(i - 1)) / (eff(i) - eff(i - 1)) * (g1 - g0)
        }
        None => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::metg50;

    #[test]
    fn metg50_interpolates_the_crossing() {
        // (granularity ns, rate): efficiency 0.2, 0.4, 0.8, 1.0 of peak 10.
        let sweep = [(100.0, 2.0), (200.0, 4.0), (400.0, 8.0), (800.0, 10.0)];
        assert_eq!(metg50(&sweep, 10.0), 250.0);
        assert_eq!(metg50(&sweep[2..], 10.0), 400.0);
        assert!(metg50(&sweep[..2], 10.0).is_nan());
    }
}
