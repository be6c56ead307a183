//! Fig 1 — inline observation overhead.
//!
//! Measures the per-event cost of the observation pipeline as listeners
//! are added: the disabled path, the enabled-but-empty dispatcher, and
//! 1–4 registered listeners of increasing weight (no-op closures, then
//! the real profiler, then the whole stock pipeline, delivered per event
//! and deferred in 64-event runs, also with an event policy registered).
//! Expected shape: the disabled path costs a few nanoseconds (one atomic
//! load); each listener adds tens of nanoseconds; deferral takes the lock,
//! list read and listener calls off the per-event bill; the full profiled
//! timer stays well under a microsecond per event.

use crate::report::{fmt_f, write_csv, Table};
use lg_core::listener::FnListener;
use lg_core::profile::ProfileListener;
use lg_core::{flush_deferred, Dispatcher, Event, LookingGlass, TaskNames, DEFERRED_CAPACITY};
use std::sync::Arc;
use std::time::Instant;

fn ns_per_event(iters: u64, f: impl Fn()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs the experiment.
pub fn run(fast: bool) {
    let iters: u64 = if fast { 50_000 } else { 2_000_000 };
    let names = TaskNames::new();
    let task = names.intern("bench");
    let event = Event::TaskEnd {
        task,
        worker: 0,
        t_ns: 1,
        elapsed_ns: 1,
    };

    let mut table = Table::new(
        "Fig 1: per-event observation cost (lower is better)",
        &["configuration", "ns/event", "events/sec"],
    );
    let mut record = |name: &str, ns: f64| {
        table.row(&[name.to_string(), fmt_f(ns), fmt_f(1e9 / ns)]);
    };

    // Disabled dispatcher: the "observation compiled in but switched off"
    // cost every production deployment pays.
    let d = Dispatcher::new();
    d.set_enabled(false);
    let ns_disabled = ns_per_event(iters, || d.dispatch(&event));
    record("disabled", ns_disabled);

    // Enabled, zero listeners.
    let d = Dispatcher::new();
    let ns_empty = ns_per_event(iters, || d.dispatch(&event));
    record("enabled, 0 listeners", ns_empty);

    // 1..4 no-op listeners.
    for n in 1..=4usize {
        let d = Dispatcher::new();
        for i in 0..n {
            d.register(Arc::new(FnListener::new(format!("noop{i}"), |e| {
                std::hint::black_box(e);
            })));
        }
        record(
            &format!(
                "enabled, {n} no-op listener{}",
                if n == 1 { "" } else { "s" }
            ),
            ns_per_event(iters, || d.dispatch(&event)),
        );
    }

    // Real profiler listener (table index + Welford), on the dispatcher's
    // stripes as in a built instance: delivered inside its one stripe lock.
    let d = Dispatcher::new();
    d.register(Arc::new(ProfileListener::on(
        names.clone(),
        d.stripes().clone(),
    )));
    record(
        "enabled, profiler",
        ns_per_event(iters, || d.dispatch(&event)),
    );

    // The stock pipeline: everything a traced instance registers
    // (profiler, concurrency tracker, trace ring, policy engine), fed
    // begin/end pairs so the concurrency tracker stays balanced.
    let lg = LookingGlass::builder().trace(4096).build();
    let task = lg.intern("bench");
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
    // The same with an event policy on phase markers: the engine scans
    // each deferred run's events against its filter, in one call per run.
    let with_policy = LookingGlass::builder().trace(4096).build();
    with_policy.policy_engine().register_triggered(
        lg_core::FnPolicy::new("on-phase", |_, _, _| lg_core::PolicyDecision::noop()),
        Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
    );
    // Per event, and deferred as pool workers emit their tasks' pairs:
    // delivered in runs of `DEFERRED_CAPACITY` events, one lock, list read
    // and call per listener per run. Fastest of five interleaved runs
    // each, so a host hiccup cannot decide the gates below.
    let (mut ns_pair, mut ns_deferred_pair, mut ns_policy_pair) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..5 {
        ns_pair = ns_pair.min(ns_per_event(iters / 2, || {
            lg.emit(&begin);
            lg.emit(&end);
        }));
        ns_deferred_pair = ns_deferred_pair.min(ns_per_event(iters / 2, || {
            lg.emit_deferred(&begin);
            lg.emit_deferred(&end);
        }));
        flush_deferred();
        ns_policy_pair = ns_policy_pair.min(ns_per_event(iters / 2, || {
            with_policy.emit_deferred(&begin);
            with_policy.emit_deferred(&end);
        }));
        flush_deferred();
    }
    record(
        "enabled, stock (profiler+concurrency+trace+engine)",
        ns_pair / 2.0,
    );
    record(
        &format!("enabled, stock, deferred ({DEFERRED_CAPACITY}-event runs)"),
        ns_deferred_pair / 2.0,
    );
    record(
        "enabled, stock + event policy, deferred",
        ns_policy_pair / 2.0,
    );

    // Full RAII timer through a complete instance (profiler + concurrency
    // + clock reads + two events).
    let lg = LookingGlass::builder().build();
    let ns_timer = ns_per_event(iters / 4, || {
        let _t = lg.timer("bench");
    });
    record("full Timer (begin+end, profiled)", ns_timer);

    println!("{}", table.render());
    // Shape gates (lenient, CI-safe): the disabled path must stay a small
    // fraction of a live dispatch — it is one atomic load, so if it ever
    // approaches the enabled cost the early-out broke. The full timer is
    // two events plus two clock reads and must stay well under 10 µs.
    assert!(
        ns_disabled < ns_empty,
        "disabled dispatch ({ns_disabled:.1} ns) should undercut enabled ({ns_empty:.1} ns)"
    );
    assert!(ns_timer < 10_000.0, "full timer cost {ns_timer:.1} ns");
    // Batching must pay: a deferred run shares one lock and one list read
    // among 64 events, so it has to undercut immediate delivery.
    assert!(
        ns_deferred_pair.max(ns_policy_pair) < ns_pair,
        "deferred stock delivery ({:.1}, {:.1} with an event policy) should undercut immediate ({:.1} ns/event)",
        ns_deferred_pair / 2.0,
        ns_policy_pair / 2.0,
        ns_pair / 2.0
    );
    let path = write_csv(&table, "fig1_overhead");
    println!("wrote {}\n", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_fast() {
        super::run(true);
    }
}
