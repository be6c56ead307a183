//! Criterion benches for the observation hot path (backs Fig 1 / Fig 7).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lg_core::listener::FnListener;
use lg_core::profile::ProfileListener;
use lg_core::{Dispatcher, Event, LookingGlass, TaskNames};
use std::sync::Arc;

fn bench_dispatch(c: &mut Criterion) {
    let names = TaskNames::new();
    let task = names.intern("bench");
    let event = Event::TaskEnd {
        task,
        worker: 0,
        t_ns: 1,
        elapsed_ns: 1,
    };

    let mut group = c.benchmark_group("dispatch");
    {
        let d = Dispatcher::new();
        d.set_enabled(false);
        group.bench_function("disabled", |b| {
            b.iter(|| d.dispatch(std::hint::black_box(&event)))
        });
    }
    {
        let d = Dispatcher::new();
        group.bench_function("no_listeners", |b| {
            b.iter(|| d.dispatch(std::hint::black_box(&event)))
        });
    }
    {
        let d = Dispatcher::new();
        d.register(Arc::new(FnListener::new("noop", |e| {
            std::hint::black_box(e);
        })));
        group.bench_function("one_noop_listener", |b| {
            b.iter(|| d.dispatch(std::hint::black_box(&event)))
        });
    }
    {
        let d = Dispatcher::new();
        d.register(Arc::new(ProfileListener::new(names.clone())));
        group.bench_function("profiler_listener", |b| {
            b.iter(|| d.dispatch(std::hint::black_box(&event)))
        });
    }
    group.finish();
}

/// Contended dispatch: N emitter threads hammer one dispatcher with the
/// profiler registered (the Fig 7 scenario). Each iteration runs a full
/// multi-thread burst via the Fig 7 harness helper, so thread spawn cost
/// is amortized over thousands of events; the reported time is per burst
/// — divide by `threads × 5000` for per-event cost.
fn bench_dispatch_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_contended");
    for threads in [2usize, 4, 8] {
        group.bench_function(format!("profiler_{threads}_threads"), |b| {
            b.iter(|| {
                std::hint::black_box(lg_bench::experiments::fig7_dispatch::throughput(
                    threads,
                    5_000,
                    lg_bench::experiments::fig7_dispatch::Pipeline::Profiler,
                ))
            })
        });
    }
    group.finish();
}

fn bench_timer(c: &mut Criterion) {
    let lg = LookingGlass::builder().build();
    c.bench_function("timer_full_instance", |b| {
        b.iter(|| {
            let t = lg.timer("bench_timer");
            std::hint::black_box(&t);
        })
    });
}

fn bench_interning(c: &mut Criterion) {
    let names = TaskNames::new();
    names.intern("hot_name");
    c.bench_function("intern_existing_name", |b| {
        b.iter(|| names.intern(std::hint::black_box("hot_name")))
    });
    let mut i = 0u64;
    c.bench_function("intern_new_name", |b| {
        b.iter_batched(
            || {
                i += 1;
                format!("name_{i}")
            },
            |n| names.intern(&n),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_dispatch, bench_dispatch_contended, bench_timer, bench_interning
}
criterion_main!(benches);
