//! A reactive power-cap governor on the real runtime.
//!
//! ```sh
//! cargo run --release --example power_governor
//! ```
//!
//! Wires the stock [`PowerCapPolicy`] end to end on real components: a
//! background [`Sampler`] feeds "power" samples (synthesized here from
//! the pool's active concurrency, standing in for RAPL) through the event
//! dispatcher into the instance's sample history; a window-mean metric
//! registered on the introspection facade exposes the trailing mean, and
//! the periodic policy reads it from the snapshot it is handed each
//! evaluation, throttling the pool's thread cap when it exceeds the cap
//! and recovering when load subsides.

use looking_glass::core::{LookingGlass, PowerCapPolicy};
use looking_glass::metrics::{FnSource, Sampled, Sampler, SamplerConfig};
use looking_glass::runtime::{PoolConfig, ThreadPool};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let lg = LookingGlass::builder().sample_history(512).build();
    let pool = Arc::new(ThreadPool::new(lg.clone(), PoolConfig::with_workers(8)));

    // Introspection: a trailing 50 ms mean of the sampled power, addressed
    // by a typed MetricId from here on.
    let history = lg.samples().expect("sample_history enabled").clone();
    let power_mean =
        lg.introspection()
            .register_window_mean("power.mean_w", history, "power", 50_000_000);

    // Synthetic power source: idle 25 W + 12 W per busy-or-queued task,
    // saturating at the worker count (a RAPL stand-in that tracks real
    // pool load; on a many-core host this is just per-core activity, and
    // on a small host queue depth carries the same demand signal).
    let conc = lg.concurrency().clone();
    let load_pool = pool.clone();
    let power_source: Vec<Arc<dyn Sampled>> = vec![Arc::new(FnSource::new("power", move || {
        let demand = conc.active_tasks().max(0) as usize + load_pool.pending();
        25.0 + 12.0 * demand.min(8) as f64
    }))];
    let sink_lg = lg.clone();
    let sampler = Sampler::start(
        SamplerConfig {
            period: Duration::from_millis(2),
            sample_immediately: true,
        },
        power_source,
        move |_t, name, v| sink_lg.sample(name, v),
    );

    // Adaptation: keep mean power under 80 W; recover below 50 W. The
    // knob is addressed by its interned id — no name lookup per actuation.
    let cap_knob = lg.knobs().id("thread_cap").expect("pool registered it");
    lg.policy_engine().register_periodic(
        PowerCapPolicy::new(power_mean, cap_knob, 80.0, 50.0, 8, 8),
        10_000_000, // evaluate every 10 ms
        0,
    );
    let _ticker = lg
        .policy_engine()
        .spawn_ticker(lg.clock().clone(), Duration::from_millis(10));

    let mean_now = |lg: &Arc<LookingGlass>| lg.snapshot().value(power_mean).unwrap_or(0.0);

    // Phase 1: heavy offered load — the governor should clamp down.
    println!("phase 1: heavy load (watch the cap fall)");
    for burst in 0..5 {
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn_named("hot", || {
                    // Serially dependent so the optimizer cannot fold the
                    // loop to a closed form — this must burn real time.
                    let mut x = 1u64;
                    for i in 0..2_000_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(x);
                });
            }
        });
        println!(
            "  burst {burst}: cap={:?} mean_power={:.0} W",
            lg.knobs().value_id(cap_knob),
            mean_now(&lg)
        );
    }
    let clamped = lg.knobs().value_id(cap_knob).unwrap();

    // Phase 2: idle — the governor should recover headroom.
    println!("phase 2: idle (watch the cap recover)");
    for i in 0..8 {
        std::thread::sleep(Duration::from_millis(30));
        println!(
            "  t+{}ms: cap={:?} mean_power={:.0} W",
            30 * (i + 1),
            lg.knobs().value_id(cap_knob),
            mean_now(&lg)
        );
    }
    let recovered = lg.knobs().value_id(cap_knob).unwrap();
    sampler.stop();

    println!("\nclamped to {clamped} under load; recovered to {recovered} at idle");
    println!("actuation log: {} knob writes", lg.knobs().change_count());
}
