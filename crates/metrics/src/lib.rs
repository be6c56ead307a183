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

/// `x.ceil() as u64`, bit for bit, without the libm call `f64::ceil`
/// makes on the baseline x86-64 target: NaN and everything at or below
/// zero give 0, and everything at or past 2^64 saturates to `u64::MAX`.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    if x > 0.0 && x < 9_223_372_036_854_775_808.0 {
        // In (0, 2^63) the signed conversions are one instruction each:
        // truncate, then step up past a cut fraction.
        let t = x as i64;
        (t + i64::from((t as f64) < x)) as u64
    } else {
        // NaN and x <= 0 give 0; from 2^63 on every f64 is an integer,
        // and `as` saturates past `u64::MAX`.
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::ceil_u64;

    #[test]
    fn ceil_u64_matches_libm_ceil() {
        let two53 = (1u64 << 53) as f64;
        let two64 = 18_446_744_073_709_551_616.0;
        let mut cases = vec![
            0.0,
            -0.0,
            -0.5,
            -1.0,
            -1.5,
            -1e300,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.1,
            0.5,
            0.999_999_9,
            1.0,
            1.000_000_1,
            2.5,
            1e9 + 0.25,
            (1u64 << 52) as f64 + 0.5,
            two53 - 1.0,
            two53,
            two53 + 1.0, // rounds to 2^53
            two53 + 2.0,
            two64 - 2048.0, // the largest f64 below 2^64
            two64,
            two64 + 4096.0,
            two64 * 2.0,
            1e300,
            f64::MAX,
        ];
        // Plus a spread of bit patterns across every exponent.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            cases.push(f64::from_bits(s));
        }
        for x in cases {
            assert_eq!(
                ceil_u64(x),
                x.ceil() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }
}
