//! Reusable built-in policies.
//!
//! The policy engine takes arbitrary [`crate::policy::Policy`]
//! implementations; these are the stock ones the original system ships as
//! presets, built only on the public introspection/actuation surfaces:
//! they read their input metric from the [`IntrospectionSnapshot`] each
//! evaluation receives (resolve the [`MetricId`] once, up front, e.g. via
//! [`crate::snapshot::Introspection::register_window_mean`]) and actuate
//! a [`KnobId`] resolved the same way:
//!
//! * [`PowerCapPolicy`] — RCR-style reactive governor: keep a sampled
//!   power metric under a cap by stepping a knob down, with hysteresis
//!   and a recovery watermark.

use crate::knob::KnobId;
use crate::policy::{Policy, PolicyDecision, Trigger};
use crate::snapshot::{IntrospectionSnapshot, MetricId};

/// Reactive power-cap governor.
///
/// Every evaluation (register it periodically), reads `metric` from the
/// snapshot (typically a trailing window mean registered on the
/// introspection facade):
///
/// * value > `cap_w` → multiply the knob by `decrease_factor` (< 1);
/// * value < `recover_w` → increase the knob by one `step`;
/// * otherwise hold.
pub struct PowerCapPolicy {
    metric: MetricId,
    knob: KnobId,
    cap_w: f64,
    recover_w: f64,
    decrease_factor: f64,
    step: i64,
    knob_max: i64,
    /// Last value this policy wrote (tracks its own actuation without
    /// reading the registry, which it cannot access from `evaluate`).
    current: i64,
}

impl PowerCapPolicy {
    /// Creates a governor over `knob ∈ [1, knob_max]`, starting from
    /// `initial`.
    ///
    /// # Panics
    /// Panics on malformed thresholds (`cap_w <= recover_w`).
    pub fn new(
        metric: MetricId,
        knob: KnobId,
        cap_w: f64,
        recover_w: f64,
        initial: i64,
        knob_max: i64,
    ) -> Box<Self> {
        assert!(cap_w > recover_w, "cap must exceed the recovery watermark");
        Box::new(Self {
            metric,
            knob,
            cap_w,
            recover_w,
            decrease_factor: 0.5,
            step: 1,
            knob_max,
            current: initial,
        })
    }

    /// Current value the governor believes the knob holds.
    pub fn current(&self) -> i64 {
        self.current
    }
}

impl Policy for PowerCapPolicy {
    fn name(&self) -> &str {
        "power-cap"
    }

    fn evaluate(
        &mut self,
        _now_ns: u64,
        _trigger: Trigger<'_>,
        snapshot: &IntrospectionSnapshot,
    ) -> PolicyDecision {
        let Some(mean) = snapshot.value(self.metric) else {
            return PolicyDecision::noop();
        };
        if mean > self.cap_w {
            let next = ((self.current as f64 * self.decrease_factor).floor() as i64).max(1);
            if next != self.current {
                self.current = next;
                return PolicyDecision::set(self.knob, next);
            }
        } else if mean < self.recover_w && self.current < self.knob_max {
            self.current = (self.current + self.step).min(self.knob_max);
            return PolicyDecision::set(self.knob, self.current);
        }
        PolicyDecision::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::ConcurrencyListener;
    use crate::event::{Event, TaskNames};
    use crate::knob::{AtomicKnob, KnobRegistry, KnobSpec};
    use crate::listener::Listener as _;
    use crate::policy::PolicyEngine;
    use crate::profile::ProfileListener;
    use crate::samples::SampleHistoryListener;
    use crate::snapshot::Introspection;
    use std::sync::Arc;

    struct Rig {
        names: TaskNames,
        history: Arc<SampleHistoryListener>,
        knobs: Arc<KnobRegistry>,
        engine: Arc<PolicyEngine>,
        power: MetricId,
        cap: KnobId,
    }

    fn setup() -> Rig {
        let names = TaskNames::new();
        let history = Arc::new(SampleHistoryListener::new(names.clone(), 128));
        let knobs = Arc::new(KnobRegistry::new());
        let cap = knobs.register(AtomicKnob::new(KnobSpec::new("thread_cap", 1, 32), 32));
        let engine = PolicyEngine::new(knobs.clone());
        let intro = Arc::new(Introspection::new(
            Arc::new(ProfileListener::new(names.clone())),
            Arc::new(ConcurrencyListener::new(16)),
        ));
        let power = intro.register_window_mean("power.mean_w", history.clone(), "power", 1_000_000);
        engine.attach_introspection(intro);
        Rig {
            names,
            history,
            knobs,
            engine,
            power,
            cap,
        }
    }

    fn feed(names: &TaskNames, h: &SampleHistoryListener, t: u64, watts: f64) {
        let id = names.intern("power");
        h.on_event(&Event::SampleValue {
            metric: id,
            t_ns: t,
            value: watts,
        });
    }

    #[test]
    fn power_cap_halves_until_under_cap() {
        let rig = setup();
        rig.engine.register_periodic(
            PowerCapPolicy::new(rig.power, rig.cap, 100.0, 40.0, 32, 32),
            1_000,
            0,
        );
        // Hot: 150 W sustained.
        for i in 0..5 {
            feed(&rig.names, &rig.history, i * 100, 150.0);
        }
        rig.engine.step(1_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(16));
        rig.engine.step(2_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(8));
    }

    #[test]
    fn power_cap_recovers_below_watermark() {
        let rig = setup();
        rig.engine.register_periodic(
            PowerCapPolicy::new(rig.power, rig.cap, 100.0, 40.0, 4, 32),
            1_000,
            0,
        );
        rig.knobs.set_id(rig.cap, 4);
        for i in 0..5 {
            feed(&rig.names, &rig.history, i * 100, 20.0); // cool
        }
        rig.engine.step(1_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(5));
        rig.engine.step(2_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(6));
    }

    #[test]
    fn power_cap_holds_in_deadband() {
        let rig = setup();
        rig.engine.register_periodic(
            PowerCapPolicy::new(rig.power, rig.cap, 100.0, 40.0, 8, 32),
            1_000,
            0,
        );
        rig.knobs.set_id(rig.cap, 8);
        for i in 0..5 {
            feed(&rig.names, &rig.history, i * 100, 70.0); // between watermarks
        }
        let before = rig.knobs.change_count();
        rig.engine.step(1_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(8));
        assert_eq!(
            rig.knobs.change_count(),
            before,
            "deadband must not actuate"
        );
    }

    #[test]
    fn power_cap_noop_without_samples() {
        let rig = setup();
        rig.engine.register_periodic(
            PowerCapPolicy::new(rig.power, rig.cap, 100.0, 40.0, 32, 32),
            1_000,
            0,
        );
        rig.engine.step(1_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(32));
    }

    #[test]
    fn policies_can_target_knob_ids_directly() {
        let rig = setup();
        let cap = rig.knobs.id("thread_cap").unwrap();
        rig.engine.register_periodic(
            PowerCapPolicy::new(rig.power, cap, 100.0, 40.0, 32, 32),
            1_000,
            0,
        );
        for i in 0..5 {
            feed(&rig.names, &rig.history, i * 100, 150.0);
        }
        rig.engine.step(1_000);
        assert_eq!(rig.knobs.value_id(rig.cap), Some(16));
    }

    #[test]
    #[should_panic(expected = "cap must exceed")]
    fn rejects_inverted_thresholds() {
        let _ = PowerCapPolicy::new(MetricId(0), KnobId(0), 10.0, 20.0, 1, 8);
    }
}
