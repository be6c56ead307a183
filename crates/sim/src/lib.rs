//! # lg-sim — deterministic discrete-event simulated machine
//!
//! The evaluation substrate standing in for a many-core testbed (see
//! DESIGN.md §2). A [`machine::MachineSpec`] describes cores, per-core
//! compute rate, shared memory bandwidth, and the power model; the
//! simulated runtime ([`sim_rt::SimRuntime`]) executes batches of
//! [`sim_rt::SimTask`]s — descriptors carrying op counts and bytes
//! touched — over virtual time, with:
//!
//! * **Roofline contention**: each active task's progress rate is
//!   `min(core_flops, ai · bw_share)` where `bw_share` divides the shared
//!   memory bandwidth among concurrently *memory-hungry* tasks. Throughput
//!   therefore scales linearly with cores for compute-bound work and
//!   saturates at the bandwidth knee for memory-bound work — the shape that
//!   makes concurrency throttling profitable.
//! * **Power accounting**: package power follows
//!   `lg_metrics::PowerModel` with per-core intensity = achieved/peak
//!   rate; energy integrates over virtual time.
//! * **The same adaptation surface** as the real runtime: a `thread cap`
//!   knob, `lg-core` events with virtual timestamps, and profiles.
//!
//! Determinism: simulation state advances only through the event queue;
//! ties break on sequence numbers; no wall-clock reads, no OS threads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod machine;
pub mod share;
pub mod sim_rt;
pub mod workload_model;

pub use machine::MachineSpec;
pub use share::MachineShares;
pub use sim_rt::{SimRunReport, SimRuntime, SimTask};
pub use workload_model::{SimWorkload, WorkloadKind};
