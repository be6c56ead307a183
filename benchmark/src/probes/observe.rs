//! `lg-metrics` and the observe side of `lg-core`: what one event costs
//! on its way from the runtime to the profile. These move
//! `observe_efficiency` (and `ops_per_s`) on `taskflood`, weakly on
//! `dagdrain`, and nothing on `closedloop` beyond its 16 timers a cycle.

use super::Probes;
use crate::trace::{Layer, Site};
use lg_core::{Dispatcher, Event, LookingGlass, TaskNames};
use lg_metrics::{StripedCounter, Welford};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

static STRIPED_ADD: Site = Site {
    name: "metrics.striped_add",
    layer: Layer::Metrics,
};
static STRIPED_ADD_CONTENDED: Site = Site {
    name: "metrics.striped_add_contended",
    layer: Layer::Metrics,
};
static WELFORD: Site = Site {
    name: "metrics.welford_update",
    layer: Layer::Metrics,
};
static DISPATCH_DISABLED: Site = Site {
    name: "core.dispatch_disabled",
    layer: Layer::Core,
};
static DISPATCH_BARE: Site = Site {
    name: "core.dispatch_bare",
    layer: Layer::Core,
};
static DISPATCH_PROFILED: Site = Site {
    name: "core.dispatch_profiled",
    layer: Layer::Core,
};
static TIMER: Site = Site {
    name: "core.timer",
    layer: Layer::Core,
};

const BATCHES: usize = 31;
const CALLS: u32 = 20_000;

pub fn run(p: &mut Probes) {
    let counter = StripedCounter::new();
    let ns = p.per_call(&STRIPED_ADD, BATCHES, CALLS, || counter.add(1));
    p.emit("metrics.striped_add_ns", ns);

    // `nproc` writers: the driver thread is the measured one, the other
    // `nproc - 1` hammer the same counter until it is done.
    let stop = AtomicBool::new(false);
    let ns = std::thread::scope(|s| {
        for _ in 1..p.nproc {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    counter.add(1);
                }
            });
        }
        let ns = p.per_call(&STRIPED_ADD_CONTENDED, BATCHES, CALLS, || counter.add(1));
        stop.store(true, Ordering::Relaxed);
        ns
    });
    p.emit("metrics.striped_add_contended_ns", ns);
    black_box(counter.sum());

    let mut w = Welford::new();
    let mut x = 0.0f64;
    let ns = p.per_call(&WELFORD, BATCHES, CALLS, || {
        x += 1.0;
        w.update(black_box(x));
    });
    p.emit("metrics.welford_update_ns", ns);
    black_box(w.mean());

    let task = TaskNames::new().intern("probe");
    let end = Event::TaskEnd {
        task,
        worker: 0,
        t_ns: 1,
        elapsed_ns: 1,
    };
    let d = Dispatcher::new();
    d.set_enabled(false);
    let ns = p.per_call(&DISPATCH_DISABLED, BATCHES, CALLS, || {
        d.dispatch(black_box(&end))
    });
    p.emit("core.dispatch_disabled_ns", ns);

    let d = Dispatcher::new();
    let ns = p.per_call(&DISPATCH_BARE, BATCHES, CALLS, || {
        d.dispatch(black_box(&end))
    });
    p.emit("core.dispatch_bare_ns", ns);

    // The stock instance every workload observes through: profile and
    // concurrency listeners plus the policy engine. Begin/end alternate
    // so the concurrency tracker stays balanced, as under a real pool.
    let lg = LookingGlass::builder().build();
    let task = lg.intern("probe");
    let begin = Event::TaskBegin {
        task,
        worker: 0,
        t_ns: 1,
    };
    let end = Event::TaskEnd {
        task,
        worker: 0,
        t_ns: 2,
        elapsed_ns: 1,
    };
    let ns = p.per_call(&DISPATCH_PROFILED, BATCHES, CALLS / 2, || {
        lg.emit(black_box(&begin));
        lg.emit(black_box(&end));
    });
    p.emit("core.dispatch_profiled_ns", ns / 2.0);

    let ns = p.per_call(&TIMER, BATCHES, CALLS / 4, || drop(lg.timer("probe_timer")));
    p.emit("core.timer_ns", ns);
}
