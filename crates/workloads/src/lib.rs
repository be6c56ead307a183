//! # lg-workloads — benchmark workloads for the evaluation
//!
//! Each workload exists in (up to) two forms:
//!
//! 1. **Real** — runs on [`lg_runtime::ThreadPool`], computes actual
//!    numerics, and verifies them with checksums. Used by the overhead and
//!    granularity experiments, which are valid on any host.
//! 2. **Simulated** — a [`lg_sim::SimWorkload`] descriptor (tasks with op
//!    counts and bytes touched) executed on the simulated machine. Used by
//!    the concurrency/energy experiments, which need a many-core substrate.
//!
//! | Workload | Module | Character |
//! |---|---|---|
//! | DAG matrix | [`dag`] | Task Bench-style dependency patterns |
//! | 1-D heat stencil | [`stencil1d`] | memory-bound, iterative |
//! | 2-D heat stencil | [`stencil2d`] | memory-bound, blocked |
//! | transcendental kernel | [`compute`] | compute-bound |
//! | parcel storm | [`parcel_storm`] | offered-load generator for lg-net |
//! | serving scenario | [`serve`] | open-loop arrivals, admission control, saturation |
//! | two-tenant colocation | [`tenants`] | serve + batch tenants under one arbiter |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compute;
pub mod dag;
pub mod parcel_storm;
pub mod serve;
pub mod stencil1d;
pub mod stencil2d;
pub mod tenants;

pub use compute::ComputeKernel;
pub use dag::{CostModel, DagConfig, DagPattern, DagSched, DagSpec};
pub use parcel_storm::ParcelStorm;
pub use serve::{ArrivalGen, ArrivalPattern, ServeConfig, ServeEngine, ServeReport};
pub use stencil1d::Stencil1d;
pub use stencil2d::Stencil2d;
pub use tenants::{BatchTenant, DagTenant, ServeTenant};
