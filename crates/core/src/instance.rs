//! The `LookingGlass` instance: wiring and the instrumentation facade.
//!
//! One instance owns a clock, the name table, the dispatcher, the standard
//! listeners (profiler, concurrency tracker, optional tracer), the knob
//! registry, and the policy engine. Instances are explicit and `Arc`-shared
//! — there is no global singleton, so tests and simulations can run many
//! isolated instances in one process.
//!
//! Application code instruments itself with the RAII [`Timer`]:
//!
//! ```
//! use lg_core::LookingGlass;
//! let lg = LookingGlass::builder().build();
//! {
//!     let _t = lg.timer("solve");
//!     // ... work ...
//! } // TaskEnd emitted here
//! assert_eq!(lg.profiles().get("solve").unwrap().count, 1);
//! ```

use crate::clock::{Clock, WallClock};
use crate::concurrency::ConcurrencyListener;
use crate::event::{Event, TaskId, TaskNames};
use crate::knob::KnobRegistry;
use crate::listener::{Dispatcher, Listener, ListenerHandle};
use crate::policy::PolicyEngine;
use crate::profile::ProfileListener;
use crate::samples::SampleHistoryListener;
use crate::snapshot::{Introspection, IntrospectionSnapshot};
use crate::trace::TraceListener;
use std::sync::Arc;

/// Points of concurrency history an instance keeps.
const CONCURRENCY_HISTORY: usize = 1024;

/// Builder for [`LookingGlass`].
#[derive(Default)]
pub struct LookingGlassBuilder {
    clock: Option<Arc<dyn Clock>>,
    trace_capacity: Option<usize>,
    sample_history: Option<usize>,
}

impl LookingGlassBuilder {
    /// Uses a custom clock (e.g. a [`crate::clock::VirtualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enables event tracing with the given ring capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables the sample-history listener with the given per-metric ring
    /// capacity, so window-mean metrics can be registered on the
    /// introspection facade.
    pub fn sample_history(mut self, capacity: usize) -> Self {
        self.sample_history = Some(capacity);
        self
    }

    /// Builds the instance.
    pub fn build(self) -> Arc<LookingGlass> {
        let clock: Arc<dyn Clock> = self.clock.unwrap_or_else(|| Arc::new(WallClock::new()));
        let names = TaskNames::new();
        let dispatcher = Arc::new(Dispatcher::new());
        // The stock listeners keep their per-stripe state in the
        // dispatcher's stripes, so one lock per event covers all of them.
        let stripes = dispatcher.stripes();
        let profiles = Arc::new(ProfileListener::on(names.clone(), stripes.clone()));
        let concurrency = Arc::new(ConcurrencyListener::on(
            CONCURRENCY_HISTORY,
            stripes.clone(),
        ));
        let trace = self
            .trace_capacity
            .map(|cap| Arc::new(TraceListener::on(cap, stripes.clone())));
        let samples = self
            .sample_history
            .map(|cap| Arc::new(SampleHistoryListener::new(names.clone(), cap)));
        let knobs = Arc::new(KnobRegistry::new());
        knobs.attach_clock(clock.clone());
        let introspection = Arc::new(Introspection::new(profiles.clone(), concurrency.clone()));
        let policy_engine = PolicyEngine::new(knobs.clone());
        policy_engine.attach_introspection(introspection.clone());
        // Adaptation latency (trigger → journaled knob write) rides along
        // in every snapshot. Stamped with the engine's record counter, so
        // the gauge is only re-read after rounds that actually actuated
        // (NaN → None until the first one). The engine owns the facade
        // that owns this closure, so the closure holds the engine weakly
        // — a strong handle would keep all three alive forever.
        let latency_engine = Arc::downgrade(&policy_engine);
        introspection.register_gauge_stamped(
            "policy.adaptation_latency_ns",
            policy_engine.latency_stamp(),
            move || {
                latency_engine
                    .upgrade()
                    .and_then(|engine| engine.adaptation_latency_last_ns())
                    .map_or(f64::NAN, |ns| ns as f64)
            },
        );
        // Registered together, so the list is published to the stripes
        // once. The engine is always a listener: with no event-triggered
        // policy registered a delivered batch costs it one atomic load.
        let mut listeners: Vec<Arc<dyn Listener>> = vec![profiles.clone(), concurrency.clone()];
        listeners.extend(trace.iter().map(|t| t.clone() as Arc<dyn Listener>));
        listeners.extend(samples.iter().map(|s| s.clone() as Arc<dyn Listener>));
        listeners.push(policy_engine.clone());
        dispatcher.register_all(listeners);
        Arc::new(LookingGlass {
            clock,
            names,
            dispatcher,
            profiles,
            concurrency,
            trace,
            samples,
            introspection,
            knobs,
            policy_engine,
        })
    }
}

/// A fully wired observation/adaptation instance.
pub struct LookingGlass {
    clock: Arc<dyn Clock>,
    names: TaskNames,
    dispatcher: Arc<Dispatcher>,
    profiles: Arc<ProfileListener>,
    concurrency: Arc<ConcurrencyListener>,
    trace: Option<Arc<TraceListener>>,
    samples: Option<Arc<SampleHistoryListener>>,
    introspection: Arc<Introspection>,
    knobs: Arc<KnobRegistry>,
    policy_engine: Arc<PolicyEngine>,
}

impl LookingGlass {
    /// Starts building an instance.
    pub fn builder() -> LookingGlassBuilder {
        LookingGlassBuilder::default()
    }

    /// The instance clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time on the instance clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The shared name table.
    pub fn names(&self) -> &TaskNames {
        &self.names
    }

    /// The event dispatcher (register custom listeners here).
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// The task profiler.
    pub fn profiles(&self) -> &Arc<ProfileListener> {
        &self.profiles
    }

    /// The concurrency tracker.
    pub fn concurrency(&self) -> &Arc<ConcurrencyListener> {
        &self.concurrency
    }

    /// The event tracer, if enabled at build time.
    pub fn trace(&self) -> Option<&Arc<TraceListener>> {
        self.trace.as_ref()
    }

    /// The sample-history listener, if enabled at build time.
    pub fn samples(&self) -> Option<&Arc<SampleHistoryListener>> {
        self.samples.as_ref()
    }

    /// The introspection facade (register gauges and window means here;
    /// the policy engine measures through it).
    pub fn introspection(&self) -> &Arc<Introspection> {
        &self.introspection
    }

    /// Captures a coherent point-in-time snapshot at the instance clock's
    /// current time.
    pub fn snapshot(&self) -> IntrospectionSnapshot {
        self.introspection.capture(self.now_ns())
    }

    /// The knob registry.
    pub fn knobs(&self) -> &Arc<KnobRegistry> {
        &self.knobs
    }

    /// The policy engine.
    pub fn policy_engine(&self) -> &Arc<PolicyEngine> {
        &self.policy_engine
    }

    /// Registers an additional listener.
    pub fn add_listener(&self, l: Arc<dyn Listener>) -> ListenerHandle {
        self.dispatcher.register(l)
    }

    /// Emits an event with no further processing — the low-level hook used
    /// by the runtime and simulator.
    #[inline]
    pub fn emit(&self, event: &Event) {
        self.dispatcher.dispatch(event);
    }

    /// Emits `event` into the calling thread's deferred buffer, delivered
    /// with the rest of the buffer as one batch (see
    /// [`crate::listener`]'s "Deferred delivery"): when it fills, at the
    /// thread's next [`LookingGlass::emit`] or [`crate::flush_deferred`],
    /// or when the thread exits. Same delivery order and timestamps as
    /// `emit`, one stripe lock and one call per listener per batch instead
    /// of per event. An event-triggered policy sees the event at that
    /// delivery too: its rounds run at the flush, one per matching event,
    /// in order.
    ///
    /// Returns true when the call leaves nothing held: every event the
    /// thread emitted so far has been delivered.
    #[inline]
    pub fn emit_deferred(&self, event: &Event) -> bool {
        self.dispatcher.defer(event)
    }

    /// Interns a task/metric/phase name.
    pub fn intern(&self, name: &str) -> TaskId {
        self.names.intern(name)
    }

    /// Starts a named timer on the calling thread; the returned guard
    /// emits `TaskBegin` now and `TaskEnd` when dropped. Its events carry
    /// worker 0.
    pub fn timer(self: &Arc<Self>, name: &str) -> Timer {
        let task = self.intern(name);
        let t0 = self.now_ns();
        self.emit(&Event::TaskBegin {
            task,
            worker: 0,
            t_ns: t0,
        });
        Timer {
            lg: self.clone(),
            task,
            t0,
            stopped: false,
        }
    }

    /// Emits a sampled metric value.
    pub fn sample(&self, metric: &str, value: f64) {
        let metric = self.intern(metric);
        self.emit(&Event::SampleValue {
            metric,
            t_ns: self.now_ns(),
            value,
        });
    }

    /// Emits a phase begin marker.
    pub fn phase_begin(&self, name: &str) {
        let phase = self.intern(name);
        self.emit(&Event::PhaseBegin {
            phase,
            t_ns: self.now_ns(),
        });
    }

    /// Emits a phase end marker.
    pub fn phase_end(&self, name: &str) {
        let phase = self.intern(name);
        self.emit(&Event::PhaseEnd {
            phase,
            t_ns: self.now_ns(),
        });
    }
}

impl std::fmt::Debug for LookingGlass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookingGlass")
            .field("names", &self.names.len())
            .field("dispatcher", &self.dispatcher)
            .finish()
    }
}

/// RAII task timer; emits `TaskEnd` on drop (or [`Timer::stop`]).
pub struct Timer {
    lg: Arc<LookingGlass>,
    task: TaskId,
    t0: u64,
    stopped: bool,
}

impl Timer {
    /// Stops the timer early, returning the elapsed nanoseconds.
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    /// Emits a `TaskYield` for this task (cooperative suspension point).
    pub fn yield_point(&self) {
        self.lg.emit(&Event::TaskYield {
            task: self.task,
            worker: 0,
            t_ns: self.lg.now_ns(),
        });
        self.lg.emit(&Event::TaskResume {
            task: self.task,
            worker: 0,
            t_ns: self.lg.now_ns(),
        });
    }

    fn finish(&mut self) -> u64 {
        if self.stopped {
            return 0;
        }
        self.stopped = true;
        let t1 = self.lg.now_ns();
        let elapsed = t1.saturating_sub(self.t0);
        self.lg.emit(&Event::TaskEnd {
            task: self.task,
            worker: 0,
            t_ns: t1,
            elapsed_ns: elapsed,
        });
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn build_publishes_the_listener_list_once() {
        use crate::stripe::acquisitions;
        use lg_metrics::stripe::STRIPE_COUNT;
        // The count is per thread, so tests running beside this one do
        // not show in it. One publish locks each stripe once.
        for (builder, listeners) in [
            (LookingGlass::builder(), 3),
            (LookingGlass::builder().trace(64).sample_history(16), 5),
        ] {
            let before = acquisitions();
            let lg = builder.build();
            assert_eq!(acquisitions() - before, STRIPE_COUNT as u64);
            assert_eq!(lg.dispatcher().listener_count(), listeners);
        }
    }

    #[test]
    fn timer_produces_profile() {
        let clock = Arc::new(VirtualClock::new());
        let lg = LookingGlass::builder().clock(clock.clone()).build();
        {
            let _t = lg.timer("work");
            clock.advance_by(500);
        }
        let p = lg.profiles().get("work").unwrap();
        assert_eq!(p.count, 1);
        assert_eq!(p.mean_ns, 500.0);
        assert_eq!(p.active, 0);
    }

    #[test]
    fn stop_returns_elapsed() {
        let clock = Arc::new(VirtualClock::new());
        let lg = LookingGlass::builder().clock(clock.clone()).build();
        let t = lg.timer("w");
        clock.advance_by(123);
        assert_eq!(t.stop(), 123);
        assert_eq!(lg.profiles().get("w").unwrap().count, 1);
    }

    #[test]
    fn nested_timers_profile_independently() {
        let clock = Arc::new(VirtualClock::new());
        let lg = LookingGlass::builder().clock(clock.clone()).build();
        {
            let _outer = lg.timer("outer");
            clock.advance_by(10);
            {
                let _inner = lg.timer("inner");
                clock.advance_by(5);
            }
            clock.advance_by(10);
        }
        assert_eq!(lg.profiles().get("outer").unwrap().mean_ns, 25.0);
        assert_eq!(lg.profiles().get("inner").unwrap().mean_ns, 5.0);
    }

    #[test]
    fn concurrency_tracks_timers() {
        let lg = LookingGlass::builder().build();
        let t1 = lg.timer("a");
        let _t2 = lg.timer("b");
        assert_eq!(lg.concurrency().active_tasks(), 2);
        drop(t1);
        assert_eq!(lg.concurrency().active_tasks(), 1);
    }

    #[test]
    fn trace_captures_when_enabled() {
        let lg = LookingGlass::builder().trace(16).build();
        {
            let _t = lg.timer("x");
        }
        let recs = lg.trace().unwrap().records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event.kind_str(), "task_begin");
        assert_eq!(recs[1].event.kind_str(), "task_end");
    }

    #[test]
    fn trace_absent_by_default() {
        let lg = LookingGlass::builder().build();
        assert!(lg.trace().is_none());
    }

    #[test]
    fn sample_reaches_custom_listener() {
        use crate::listener::FnListener;
        let lg = LookingGlass::builder().build();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sc = seen.clone();
        lg.add_listener(Arc::new(FnListener::new("rec", move |e| {
            if let Event::SampleValue { value, .. } = e {
                sc.lock().push(*value);
            }
        })));
        lg.sample("power", 42.5);
        assert_eq!(seen.lock().as_slice(), &[42.5]);
    }

    #[test]
    fn phases_flow_to_policy_engine() {
        use crate::knob::{AtomicKnob, KnobSpec};
        use crate::policy::{FnPolicy, PolicyDecision, Trigger};
        let lg = LookingGlass::builder().build();
        let k = lg
            .knobs()
            .register(AtomicKnob::new(KnobSpec::new("k", 0, 10), 0));
        lg.policy_engine().register_triggered(
            FnPolicy::new("phase-react", move |_, trigger, _snapshot| {
                if matches!(trigger, Trigger::Event(Event::PhaseBegin { .. })) {
                    PolicyDecision::set(k, 7)
                } else {
                    PolicyDecision::noop()
                }
            }),
            Box::new(|e| matches!(e, Event::PhaseBegin { .. })),
        );
        lg.phase_begin("compute");
        assert_eq!(lg.knobs().value_id(k), Some(7));
        lg.phase_end("compute");
    }

    #[test]
    fn yield_point_counted() {
        let lg = LookingGlass::builder().build();
        {
            let t = lg.timer("y");
            t.yield_point();
        }
        assert_eq!(lg.profiles().get("y").unwrap().yields, 1);
    }

    #[test]
    fn snapshot_is_a_coherent_point_in_time_view() {
        let clock = Arc::new(VirtualClock::new());
        let lg = LookingGlass::builder().clock(clock.clone()).build();
        {
            let _t = lg.timer("work");
            clock.advance_by(500);
        }
        let gauge = lg.introspection().register_gauge("answer", || 42.0);
        let snap = lg.snapshot();
        assert_eq!(snap.t_ns, clock.now_ns());
        assert_eq!(snap.total_completed, 1);
        assert_eq!(snap.value(gauge), Some(42.0));
        assert_eq!(snap.profile("work").unwrap().count, 1);
    }

    #[test]
    fn sample_history_feeds_window_mean_metrics() {
        let clock = Arc::new(VirtualClock::new());
        let lg = LookingGlass::builder()
            .clock(clock.clone())
            .sample_history(64)
            .build();
        let history = lg.samples().expect("enabled at build time").clone();
        let power =
            lg.introspection()
                .register_window_mean("power.mean_w", history, "power", 1_000_000);
        lg.sample("power", 10.0);
        clock.advance_by(100);
        lg.sample("power", 30.0);
        let snap = lg.snapshot();
        assert_eq!(snap.value(power), Some(20.0));
    }

    #[test]
    fn dropping_the_instance_frees_engine_and_facade() {
        let lg = LookingGlass::builder().trace(8).build();
        // Used from a thread that has fully exited (a plain `join` waits
        // for its thread-locals to be destroyed; a scope does not), so
        // nothing the thread kept in a thread-local outlives the instance.
        let user = lg.clone();
        std::thread::spawn(move || {
            drop(user.timer("probe"));
            user.snapshot();
        })
        .join()
        .unwrap();
        let engine = Arc::downgrade(lg.policy_engine());
        let facade = Arc::downgrade(lg.introspection());
        let profiles = Arc::downgrade(lg.profiles());
        let instance = Arc::downgrade(&lg);
        drop(lg);
        assert!(instance.upgrade().is_none());
        assert!(engine.upgrade().is_none(), "policy engine leaked");
        assert!(facade.upgrade().is_none(), "introspection facade leaked");
        assert!(profiles.upgrade().is_none(), "listeners leaked");
    }

    #[test]
    fn latency_gauge_reads_none_once_the_engine_is_gone() {
        let lg = LookingGlass::builder().build();
        let facade = lg.introspection().clone();
        drop(lg);
        let snap = facade.capture(0);
        assert_eq!(snap.value_by_name("policy.adaptation_latency_ns"), None);
    }

    #[test]
    fn isolated_instances_do_not_interfere() {
        let a = LookingGlass::builder().build();
        let b = LookingGlass::builder().build();
        {
            let _t = a.timer("only-a");
        }
        assert!(a.profiles().get("only-a").is_some());
        assert!(b.profiles().get("only-a").is_none());
    }
}
