//! # lg-core — observation, introspection, and policy-driven adaptation
//!
//! The heart of `looking-glass`: everything between "an event happened in
//! the runtime" and "a knob was turned in response".
//!
//! ## Architecture
//!
//! ```text
//!   runtime / net / app            lg-core                     knobs
//!  ───────────────────   ───────────────────────────   ─────────────────
//!   TaskBegin/TaskEnd ──▶ Dispatcher ──▶ ProfileListener
//!   SampleValue       ──▶    │      ──▶ ConcurrencyListener
//!   WorkerStart/Stop  ──▶    │      ──▶ TraceListener
//!                            └──────▶ PolicyEngine ──▶ KnobRegistry ──▶ ThreadCap,
//!                                        ▲    │                          ChunkSize,
//!                                 introspection state                    CoalesceWindow
//!                                        │    ▼
//!                                    TuningSession ◀─▶ lg-tuning::Search
//! ```
//!
//! * [`event::Event`] — the observation vocabulary (task lifecycle, samples,
//!   worker lifecycle, phases, custom).
//! * [`listener::Listener`] + [`listener::Dispatcher`] — the fan-out
//!   pipeline; registration is dynamic and publishes the listener list to
//!   every stripe, and dispatch takes **one lock per event**: the emitting
//!   thread's own stripe, holding that list and the state the profiler,
//!   concurrency tracker and tracer of an instance share. Everything else — the policy engine, custom listeners — runs
//!   after that lock is released (no shared-cache-line write either way).
//!   Deferred events (the runtime's per-task pair) are delivered in
//!   batches of up to 64 under one lock, in emission order.
//! * [`profile`] — per-task-name streaming profiles (Welford), sharded
//!   per emitting thread and merged on snapshot.
//! * [`concurrency`] — active task/worker tracking over time.
//! * [`trace`] — bounded per-thread ring-buffer event trace with drop
//!   accounting, merged in capture order on read.
//! * [`policy`] — event-triggered and watch-triggered policies (a
//!   periodic policy is a watch on the clock) sharing one evaluation
//!   round; the engine runs on a wall-clock thread or is stepped manually
//!   under virtual time. Policy panics are contained, and repeat offenders
//!   are quarantined.
//! * [`snapshot`] — the read side of adaptation: a coherent point-in-time
//!   [`snapshot::IntrospectionSnapshot`] (profiles, concurrency, gauges
//!   — a window mean is a stamped gauge — and counters) addressed by interned
//!   [`snapshot::MetricId`]s; policies, tuning sessions, the watchdog,
//!   and report writers all measure through it.
//! * [`knob`] — typed integer actuators with bounds, units, steps and
//!   defaults; names intern to copyable [`knob::KnobId`] handles at
//!   registration, and steady-state get/set by id takes one uncontended
//!   registry read lock to find the knob, then runs it with no registry
//!   lock held (one per-knob mutex on the write side).
//! * [`journal`] — THE actuation history: a single bounded ring behind
//!   one leaf lock that every [`knob::KnobRegistry::set_id`] appends to
//!   (who wrote which knob, from what, to what). Audit, rollback, and the
//!   watchdog all consume the same records.
//! * [`watchdog`] — a policy that detects post-actuation throughput
//!   regressions and rolls back the offending knob write.
//! * [`session`] — the online tuning loop: actuate → settle → measure →
//!   report, generic over any [`lg_tuning::Search`]. The caller supplies
//!   the timestamps, so one loop serves wall-clock and virtual time.
//! * [`clock`] — wall and virtual clocks behind one trait so every layer
//!   works identically in real execution and simulation.
//! * [`instance::LookingGlass`] — wires the pieces together and provides
//!   the RAII [`instance::Timer`] used to instrument application code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod arbiter;
pub mod builtin;
pub mod clock;
pub mod concurrency;
pub mod dag;
pub mod event;
pub mod instance;
pub mod journal;
pub mod knob;
pub mod listener;
pub mod policy;
pub mod profile;
pub mod samples;
pub mod session;
pub mod snapshot;
mod stripe;
pub mod tenant;
pub mod trace;
pub mod watchdog;

pub use admission::{
    AdmissionGate, AimdPolicy, Brownout, BrownoutPolicy, Bulkhead, BulkheadPermit, RequestClass,
};
pub use arbiter::{
    Arbiter, ArbiterConfig, DemandClass, DemandProbe, DemandProfile, RoundReport, TenantObs,
    TenantSpec,
};
pub use builtin::PowerCapPolicy;
pub use clock::{Clock, VirtualClock, WallClock};
pub use concurrency::ConcurrencyListener;
pub use dag::{CriticalPathPolicy, DagStats};
pub use event::{Event, TaskId, TaskNames};
pub use instance::{LookingGlass, LookingGlassBuilder, Timer};
pub use journal::{ActuationJournal, ActuationRecord};
pub use knob::{AtomicKnob, Knob, KnobId, KnobRegistry, KnobScale, KnobSpec};
pub use listener::{flush_deferred, Dispatcher, Listener, DEFERRED_CAPACITY};
pub use policy::{
    FnPolicy, Policy, PolicyDecision, PolicyEngine, PolicyHandle, ThresholdWatch, Trigger,
};
pub use profile::{ProfileListener, ProfileSnapshot, TaskProfile};
pub use samples::SampleHistoryListener;
pub use session::{EpochReport, SessionConfig, SessionStep, TuningSession};
pub use snapshot::{Introspection, IntrospectionSnapshot, MetricId};
pub use tenant::{SloClass, TenantId};
pub use trace::{TraceListener, TraceRecord};
pub use watchdog::RegressionWatchdog;
