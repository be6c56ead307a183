//! # lg-metrics — statistics, counters, samplers, and power/energy models
//!
//! This crate is the measurement substrate of the `looking-glass`
//! autonomic performance environment. It provides:
//!
//! * **Streaming statistics** — [`welford::Welford`] (numerically stable
//!   mean/variance), [`histogram::Histogram`] (hybrid log2/linear buckets
//!   with percentile queries) and [`ewma::Ewma`] (exponentially weighted
//!   moving averages).
//! * **Counters** — [`counter::CounterRegistry`], a registry of named
//!   atomic counters and gauges cheap enough to update from task hot paths.
//!   Hot counters updated from many threads can opt into striped storage
//!   ([`stripe::StripedCounter`]) so updates never share a cache line.
//! * **Time series** — [`timeseries::TimeSeries`], bounded append-only
//!   series of `(t, value)` samples with a trailing-window mean —
//!   the windows the introspection layer publishes as gauges.
//! * **Power and energy** — [`power::PowerModel`] (an analytic package
//!   power model parameterised by idle and per-core dynamic power) and
//!   [`power::EnergyMeter`] (integrates power over wall or virtual time and
//!   derives energy-delay products). These stand in for RAPL/RCRToolkit
//!   telemetry, as documented in `DESIGN.md`.
//! * **Samplers** — [`sampler::Sampler`], a background thread that
//!   periodically polls [`sampler::Sampled`] sources, plus real `/proc`
//!   readers on Linux in [`procfs`].
//!
//! All types are `Send + Sync` where meaningful and are designed for use
//! from inside a work-stealing runtime's hot paths: no allocation on the
//! update paths of counters, Welford, EWMA, or histograms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod ewma;
pub mod histogram;
pub mod power;
pub mod procfs;
pub mod sampler;
pub mod stripe;
pub mod timeseries;
pub mod welford;

pub use counter::{CounterHandle, CounterRegistry, GaugeHandle};
pub use ewma::Ewma;
pub use histogram::Histogram;
pub use power::{EnergyMeter, EnergyReport, PowerModel};
pub use sampler::{FnSource, Sampled, Sampler, SamplerConfig};
pub use stripe::{CacheAligned, StripedCounter};
pub use timeseries::TimeSeries;
pub use welford::Welford;
