//! # looking-glass — from performance observation to dynamic adaptation
//!
//! Facade crate re-exporting the whole `looking-glass` workspace: an
//! autonomic performance environment for task-parallel runtimes, built as a
//! from-scratch reproduction of the HPDC 2015 paper *"Through the
//! Looking-Glass: From Performance Observation to Dynamic Adaptation"*.
//!
//! The three layers (see `DESIGN.md` for the full architecture):
//!
//! 1. **Observation** ([`core`]) — inline task lifecycle events, sampled
//!    counters, and a pluggable listener pipeline.
//! 2. **Introspection** ([`metrics`], [`core`]) — per-task profiles,
//!    trailing-window statistics, power/energy accounting.
//! 3. **Adaptation** ([`core`], [`tuning`]) — a policy engine that reads
//!    introspection state and actuates runtime knobs (thread cap, task
//!    granularity, parcel coalescing window) using online search.
//!
//! Substrates built for the reproduction: a work-stealing task runtime
//! ([`runtime`]), a deterministic discrete-event simulated machine
//! ([`sim`]), a parcel transport with coalescing ([`net`]), and the
//! benchmark workloads ([`workloads`]).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use looking_glass::core::LookingGlass;
//!
//! let lg = LookingGlass::builder().build();
//! {
//!     let _t = lg.timer("my_task");
//!     // ... work ...
//! }
//! let profiles = lg.profiles().snapshot();
//! assert_eq!(profiles.iter().find(|p| p.name == "my_task").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]

pub use lg_core as core;
pub use lg_metrics as metrics;
pub use lg_net as net;
pub use lg_runtime as runtime;
pub use lg_sim as sim;
pub use lg_tuning as tuning;
pub use lg_workloads as workloads;
