//! Fault injection and self-healing, end to end on real components.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```
//!
//! Three demonstrations in one process:
//! 1. A thread pool with seeded task faults (crash + straggler
//!    injection): every join handle still resolves, and the injected
//!    counts are observable.
//! 2. A policy that panics on every evaluation is contained and
//!    quarantined while a healthy policy keeps actuating.
//! 3. The [`RegressionWatchdog`] rolls back a knob write that tanked the
//!    observed rate.

use looking_glass::core::knob::AtomicKnob;
use looking_glass::core::policy::{FnPolicy, PolicyDecision};
use looking_glass::core::{KnobSpec, LookingGlass, RegressionWatchdog};
use looking_glass::runtime::{FaultConfig, PoolConfig, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Every panic below is injected on purpose; keep stderr readable.
    std::panic::set_hook(Box::new(|_| {}));

    // 1. Injected task faults: 5% crash, 2% straggle, deterministic seed.
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(
        lg.clone(),
        PoolConfig {
            workers: 4,
            faults: Some(
                FaultConfig::seeded(42)
                    .panic_prob(0.05)
                    .straggler(0.02, Duration::from_millis(1)),
            ),
        },
    );
    let done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..400)
        .map(|_| {
            let done = done.clone();
            pool.spawn("flaky_task", move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    let (mut ok, mut crashed) = (0u64, 0u64);
    for h in handles {
        match h.join() {
            Ok(()) => ok += 1,
            Err(_) => crashed += 1,
        }
    }
    println!("tasks: {ok} completed, {crashed} crashed (all joins resolved)");
    println!(
        "injected: {} panics, {} stragglers",
        pool.injected_panics(),
        pool.injected_stragglers()
    );
    assert_eq!(ok + crashed, 400, "no join may hang or be lost");
    assert_eq!(ok, done.load(Ordering::Relaxed), "completed tasks all ran");
    assert_eq!(crashed as usize, pool.injected_panics());
    drop(pool);

    // 2. Panic containment + quarantine in the policy engine.
    let lg = LookingGlass::builder().build();
    let cap = lg
        .knobs()
        .register(AtomicKnob::new(KnobSpec::new("cap", 0, 100), 50));
    let engine = lg.policy_engine();
    engine.register_periodic(
        FnPolicy::new("faulty", |_, _, _| panic!("injected policy fault")),
        1_000,
        0,
    );
    engine.register_periodic(
        FnPolicy::new("healthy", move |_, _, _| PolicyDecision::set(cap, 60)),
        1_000,
        0,
    );
    for t in 1..=10u64 {
        engine.step(t * 1_000);
    }
    println!(
        "policies: {} contained panics, quarantined = {:?}, cap = {:?}",
        engine.panics(),
        engine.quarantined(),
        lg.knobs().value_id(cap)
    );
    assert_eq!(engine.quarantined(), vec!["faulty".to_string()]);

    // 3. Watchdog rollback of a regressing actuation.
    let rate = Arc::new(AtomicU64::new(1_000));
    let r = rate.clone();
    engine.register_periodic(
        RegressionWatchdog::new(
            lg.knobs().clone(),
            move || r.load(Ordering::Relaxed) as f64,
            0.2,
        ),
        1_000,
        10_000,
    );
    engine.register_periodic(
        FnPolicy::new("misguided", move |_, _, _| {
            PolicyDecision::set(cap, 5).and_retire()
        }),
        1_000,
        10_000,
    );
    engine.step(11_000); // misguided actuation lands
    engine.step(12_000); // watchdog baselines it
    rate.store(100, Ordering::Relaxed); // throughput collapses
    engine.step(13_000); // watchdog rolls it back
    println!(
        "watchdog: cap restored to {:?} after the rate collapsed",
        lg.knobs().value_id(cap)
    );
    assert_eq!(lg.knobs().value_id(cap), Some(60));
}
