//! Cross-crate integration: the full observe → decide → actuate loop.
//!
//! These tests close the loop end-to-end on both substrates: policies
//! driven by real events actuate real runtime knobs; tuning sessions
//! converge on the simulated machine; and the same session code drives
//! a real `parallel_for` chunk knob.

use looking_glass::core::policy::{FnPolicy, PolicyDecision, Trigger};
use looking_glass::core::{
    Clock as _, Event, Knob as _, LookingGlass, SessionConfig, SessionStep, TuningSession,
};
use looking_glass::runtime::{PoolConfig, ThreadPool};
use looking_glass::sim::{MachineSpec, SimRuntime, SimWorkload};
use looking_glass::tuning::{Dim, HillClimb, Space};
use looking_glass::workloads::Stencil1d;

#[test]
fn policy_throttles_real_pool_on_sample_threshold() {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(4));
    // Policy: if a "power" sample exceeds 100 W, halve the thread cap.
    let cap = lg
        .knobs()
        .id("thread_cap")
        .expect("the pool registers thread_cap");
    lg.policy_engine().register_triggered(
        FnPolicy::new("power-guard", move |_, trigger, _snapshot| {
            if let Trigger::Event(Event::SampleValue { value, .. }) = trigger {
                if *value > 100.0 {
                    return PolicyDecision::set(cap, 2);
                }
            }
            PolicyDecision::noop()
        }),
        Box::new(|e| matches!(e, Event::SampleValue { .. })),
    );
    assert_eq!(pool.thread_cap().current(), 4);
    lg.sample("power", 80.0);
    assert_eq!(pool.thread_cap().current(), 4, "below threshold: no action");
    lg.sample("power", 130.0);
    assert_eq!(
        pool.thread_cap().current(),
        2,
        "policy must actuate the pool"
    );
    // Work still completes under the throttled cap.
    pool.scope(|s| {
        for _ in 0..50 {
            s.spawn_named("after_throttle", || {});
        }
    });
    assert_eq!(lg.profiles().get("after_throttle").unwrap().count, 50);
}

#[test]
fn sim_session_converges_and_profiles_agree() {
    let spec = MachineSpec::server32();
    let w = SimWorkload::stencil(5e7, 64);
    let mut sim = SimRuntime::new(spec);
    let space = Space::new(vec![Dim::values("thread_cap", vec![1, 2, 4, 8, 16, 32])]);
    let search = Box::new(HillClimb::from_start(space, &[32]));
    let mut session = TuningSession::new(
        SessionConfig::single("thread_cap", 0, 0),
        search,
        sim.lg().knobs().clone(),
    );
    let mut steps = 0u64;
    let best = loop {
        match session.next(sim.clock().now_ns()) {
            SessionStep::Done { best } => break best.unwrap(),
            SessionStep::Measure { .. } => {
                sim.submit_all(w.step_batch());
                let r = sim.run_until_idle();
                steps += 1;
                session.complete(r.energy_j * r.elapsed_s());
            }
        }
    };
    // Converged to a throttled cap (memory-bound), not the full machine.
    assert!(
        best.0[0] < 32,
        "memory-bound workload should throttle: {:?}",
        best.0
    );
    assert!(best.0[0] >= 2, "but not strangle: {:?}", best.0);
    // The profiler saw exactly the tasks the session ran.
    let prof = sim.lg().profiles().get("stencil").unwrap();
    assert_eq!(prof.count, steps * 64);
}

#[test]
fn real_chunk_tuning_session_reaches_sane_chunk() {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::default());
    let knob = pool.chunk_knob("chunk", 1, 4096, 1);
    let mut stencil = Stencil1d::new(40_000, 0.25);
    let space = Space::new(vec![Dim::pow2("chunk", 0, 12)]);
    let search = Box::new(HillClimb::from_start(space, &[1]).with_min_improvement(0.05));
    let mut session = TuningSession::new(
        SessionConfig::single("chunk", 0, 0),
        search,
        lg.knobs().clone(),
    );
    let best = loop {
        match session.next(lg.now_ns()) {
            SessionStep::Done { best } => break best.unwrap(),
            SessionStep::Measure { .. } => {
                let chunk = knob.get().max(1) as usize;
                // Best of five: on a loaded host the best of two was still
                // noisy enough to stall the hill climb at chunk 4 or 8.
                let mut best_t = f64::INFINITY;
                for _ in 0..5 {
                    let t0 = std::time::Instant::now();
                    stencil.step_parallel(&pool, chunk);
                    best_t = best_t.min(t0.elapsed().as_secs_f64());
                }
                session.complete(best_t);
            }
        }
    };
    // On any host, chunk=1 for a 40k-point stencil (one task per point!)
    // is dreadful; the tuner must move well away from it.
    assert!(
        best.0[0] >= 16,
        "tuner stayed at pathological chunk {:?}",
        best.0
    );
    // The stencil still computed the right thing while being tuned.
    assert!(stencil.state().iter().all(|v| (0.0..=1.0).contains(v)));
}

#[test]
fn knob_actuation_log_audits_the_whole_session() {
    let spec = MachineSpec::small8();
    let w = SimWorkload::compute(1e7, 16);
    let mut sim = SimRuntime::new(spec);
    let space = Space::new(vec![Dim::values("thread_cap", vec![1, 2, 4, 8])]);
    let search = Box::new(HillClimb::from_start(space, &[8]));
    let mut session = TuningSession::new(
        SessionConfig::single("thread_cap", 0, 0),
        search,
        sim.lg().knobs().clone(),
    );
    let mut epochs = 0;
    loop {
        match session.next(sim.clock().now_ns()) {
            SessionStep::Done { .. } => break,
            SessionStep::Measure { .. } => {
                sim.submit_all(w.step_batch());
                let r = sim.run_until_idle();
                epochs += 1;
                session.complete(r.energy_j * r.elapsed_s());
            }
        }
    }
    // One knob write per epoch plus the final winner re-application.
    let changes = sim.lg().knobs().changes();
    assert_eq!(changes.len(), epochs + 1);
    assert!(changes.iter().all(|c| c.name == "thread_cap"));
    assert!(changes.iter().all(|c| (1..=8).contains(&c.to)));
}

#[test]
fn periodic_policy_ticks_under_virtual_time() {
    // Policies stepped manually with virtual timestamps — the simulation
    // path — fire on schedule without any wall-clock thread.
    let lg = LookingGlass::builder().build();
    let k = lg
        .knobs()
        .register(looking_glass::core::knob::AtomicKnob::new(
            looking_glass::core::KnobSpec::new("k", 0, 100),
            0,
        ));
    let engine = lg.policy_engine();
    engine.register_periodic(
        FnPolicy::new("bump", move |_, _, _| PolicyDecision::set(k, 7)),
        1_000,
        0,
    );
    engine.step(500);
    assert_eq!(lg.knobs().value_id(k), Some(0));
    engine.step(1_000);
    assert_eq!(lg.knobs().value_id(k), Some(7));
}
