//! `taskflood` — fine-grain fork-join on the real pool.
//!
//! Each pass is one `parallel_for` over 100 000 elements at chunk 64
//! (1 563 batch-path tasks whose bodies take tens of nanoseconds) plus a
//! `scope` of 1 000 loose `spawn_named` tasks. This is the
//! overhead-dominated regime: `lg-runtime` spawn/steal/wake, `lg-core`
//! dispatch and `lg-metrics` striped adds are nearly all of the time, so
//! a saving in any of them shows almost one-for-one.
//!
//! Observed = the stock `LookingGlass` (profile + concurrency listeners)
//! with a 65 536-entry trace ring and a ticking policy engine holding
//! one armed `ThresholdWatch` on `rt.executed`.
//!
//! Op = one task executed. Latency sample = one pass.

use super::{splitmix, OpOutcome, Workload};
use crate::trace::{Layer, Site, Tracing};
use lg_core::policy::TickerGuard;
use lg_core::{AtomicKnob, FnPolicy, KnobSpec, LookingGlass, PolicyDecision, ThresholdWatch};
use lg_metrics::CounterHandle;
use lg_runtime::{PoolConfig, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

pub const ELEMENTS: usize = 100_000;
pub const CHUNK: usize = 64;
const LOOSE: usize = 1_000;
const TRACE_RING: usize = 65_536;
/// Engine tick; also the DAG workload's control period.
pub const TICK: Duration = Duration::from_micros(200);
/// `rt.executed` advance that fires the armed watch (~once a second).
const WATCH_DELTA: u64 = 1 << 20;
const WARMUP_PASSES: usize = 40;

static PASS: Site = Site {
    name: "taskflood.pass",
    layer: Layer::Bench,
};
static PARALLEL_FOR: Site = Site {
    name: "runtime.parallel_for",
    layer: Layer::Runtime,
};
static SCOPE: Site = Site {
    name: "runtime.scope_spawn",
    layer: Layer::Runtime,
};

/// The per-element body: a multiply, a rotate and an add — under a
/// nanosecond, so a 64-element chunk is a ~40 ns task.
#[inline(always)]
fn mix(x: u32) -> u32 {
    x.wrapping_mul(0x9E37_79B1).rotate_left(7)
}

pub struct TaskFlood {
    // Declared before the pool: the ticker stops before the workers do.
    _ticker: TickerGuard,
    pub pool: ThreadPool,
    input: Vec<u32>,
    out: Vec<AtomicU32>,
    loose_out: Vec<AtomicU32>,
    /// `mix(input[i])`, computed sequentially at set-up.
    reference: Vec<u32>,
    pass: u32,
    spawned: CounterHandle,
    executed: CounterHandle,
    boxed: CounterHandle,
}

/// The stock observed configuration, shared with the METG probe.
pub fn observed_pool(nproc: usize) -> (ThreadPool, TickerGuard) {
    let lg = LookingGlass::builder().trace(TRACE_RING).build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(nproc));
    let epoch = lg.knobs().register(AtomicKnob::new(
        KnobSpec::new("flood.epoch", 0, i64::MAX).with_unit("fires"),
        0,
    ));
    let mut fires = 0i64;
    lg.policy_engine().register_threshold(
        FnPolicy::new("flood-epoch", move |_, _, _| {
            fires += 1;
            PolicyDecision::set(epoch, fires)
        }),
        ThresholdWatch::counter_delta_armed(
            &pool.counters().striped_counter("rt.executed"),
            WATCH_DELTA,
        ),
    );
    let ticker = lg.policy_engine().spawn_ticker(lg.clock().clone(), TICK);
    (pool, ticker)
}

impl TaskFlood {
    pub fn tasks_per_pass() -> u64 {
        (ELEMENTS.div_ceil(CHUNK) + LOOSE) as u64
    }

    fn verify(&self) -> bool {
        let p = self.pass;
        self.out
            .iter()
            .zip(&self.reference)
            .all(|(o, r)| o.load(Ordering::Relaxed) == r.wrapping_add(p))
            && self
                .loose_out
                .iter()
                .enumerate()
                .all(|(k, o)| o.load(Ordering::Relaxed) == (3 * k as u32).wrapping_add(p))
            && self.spawned.get() == self.executed.get()
            && self.boxed.get() == 0
    }
}

impl Workload for TaskFlood {
    const NAME: &'static str = "taskflood";

    fn setup(seed: u64, nproc: usize, corrupt: bool) -> Self {
        let input: Vec<u32> = (0..ELEMENTS as u64)
            .map(|i| splitmix(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)) as u32)
            .collect();
        let mut reference: Vec<u32> = input.iter().map(|&x| mix(x)).collect();
        if corrupt {
            reference[ELEMENTS / 2] ^= 1;
        }
        let (pool, ticker) = observed_pool(nproc);
        let counters = pool.counters().clone();
        let mut w = Self {
            _ticker: ticker,
            pool,
            input,
            out: (0..ELEMENTS).map(|_| AtomicU32::new(0)).collect(),
            loose_out: (0..LOOSE).map(|_| AtomicU32::new(0)).collect(),
            reference,
            pass: 0,
            spawned: counters.counter("rt.spawned"),
            executed: counters.counter("rt.executed"),
            boxed: counters.counter("rt.boxed_tasks"),
        };
        let mut tr = crate::trace::NoTrace;
        for i in 0..WARMUP_PASSES {
            w.op(&mut tr, i as u64);
        }
        w
    }

    fn set_observed(&mut self, on: bool) {
        self.pool.lg().dispatcher().set_enabled(on);
    }

    fn op<T: Tracing>(&mut self, tr: &mut T, op_id: u64) -> OpOutcome {
        self.pass = self.pass.wrapping_add(1);
        let pass = self.pass;
        let root = tr.begin(&PASS, op_id);
        let t0 = Instant::now();

        let span = tr.begin(&PARALLEL_FOR, op_id);
        let (input, out) = (&self.input, &self.out);
        self.pool.parallel_for("flood", 0..ELEMENTS, CHUNK, |i| {
            out[i].store(mix(input[i]).wrapping_add(pass), Ordering::Relaxed);
        });
        tr.end(span, 1);

        let span = tr.begin(&SCOPE, op_id);
        // One shared context keeps each closure at two words, inside the
        // runtime's inline-body budget.
        let ctx = (&self.loose_out, pass);
        self.pool.scope(|s| {
            let ctx = &ctx;
            for k in 0..LOOSE {
                s.spawn_named("loose", move || {
                    ctx.0[k].store((3 * k as u32).wrapping_add(ctx.1), Ordering::Relaxed);
                });
            }
        });
        tr.end(span, LOOSE as u32);

        let latency_ns = t0.elapsed().as_nanos() as u64;
        let ok = self.verify();
        tr.end(root, 1);
        let ops = Self::tasks_per_pass();
        OpOutcome {
            ops,
            failed: if ok { 0 } else { ops },
            latency_ns,
        }
    }
}
