//! Parcel storm: an offered-load generator for the coalescing experiments.
//!
//! Generates parcel send events with a configurable mean rate and payload
//! size, in three regimes (steady, bursty, trickle). The storm yields
//! deterministic `(t_ns, payload_size)` schedules for the virtual-time
//! experiments to replay; it sends nothing itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival pattern of the storm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormShape {
    /// Exponential inter-arrivals at the mean rate.
    Steady,
    /// Alternating hot bursts (10× rate) and quiet gaps (rate / 10).
    Bursty,
    /// Sparse arrivals at rate / 20.
    Trickle,
}

/// Deterministic offered-load generator.
#[derive(Clone, Debug)]
pub struct ParcelStorm {
    /// Mean parcels per second (for [`StormShape::Steady`]).
    pub rate_per_sec: f64,
    /// Payload bytes per parcel.
    pub payload_bytes: usize,
    /// Arrival pattern.
    pub shape: StormShape,
    /// RNG seed.
    pub seed: u64,
}

impl ParcelStorm {
    /// Creates a steady storm.
    pub fn steady(rate_per_sec: f64, payload_bytes: usize, seed: u64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        Self {
            rate_per_sec,
            payload_bytes,
            shape: StormShape::Steady,
            seed,
        }
    }

    /// Creates a bursty storm.
    pub fn bursty(rate_per_sec: f64, payload_bytes: usize, seed: u64) -> Self {
        Self {
            shape: StormShape::Bursty,
            ..Self::steady(rate_per_sec, payload_bytes, seed)
        }
    }

    /// Creates a trickle storm.
    pub fn trickle(rate_per_sec: f64, payload_bytes: usize, seed: u64) -> Self {
        Self {
            shape: StormShape::Trickle,
            ..Self::steady(rate_per_sec, payload_bytes, seed)
        }
    }

    /// Generates the arrival schedule for `count` parcels: strictly
    /// monotone `t_ns` offsets from zero.
    pub fn schedule(&self, count: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(count);
        // Burst bookkeeping: 1 ms hot, 10 ms cold.
        for i in 0..count {
            let rate = match self.shape {
                StormShape::Steady => self.rate_per_sec,
                StormShape::Trickle => self.rate_per_sec / 20.0,
                StormShape::Bursty => {
                    let phase_ns = (t as u64) % 11_000_000;
                    if phase_ns < 1_000_000 {
                        self.rate_per_sec * 10.0
                    } else {
                        self.rate_per_sec / 10.0
                    }
                }
            };
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.gen_range(1e-12..1.0);
            let dt_s = -u.ln() / rate;
            t += dt_s * 1e9;
            let t_ns = t.ceil() as u64 + i as u64; // strict monotonicity
            out.push(t_ns);
        }
        out
    }

    /// Mean achieved rate of a schedule (parcels/sec).
    pub fn achieved_rate(schedule: &[u64]) -> f64 {
        match (schedule.first(), schedule.last()) {
            (Some(&a), Some(&b)) if b > a => (schedule.len() as f64 - 1.0) * 1e9 / (b - a) as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone() {
        for shape in [
            ParcelStorm::steady(1e5, 64, 1),
            ParcelStorm::bursty(1e5, 64, 2),
            ParcelStorm::trickle(1e5, 64, 3),
        ] {
            let s = shape.schedule(2000);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{:?}", shape.shape);
        }
    }

    #[test]
    fn steady_rate_approximately_achieved() {
        let storm = ParcelStorm::steady(1e6, 64, 7);
        let s = storm.schedule(20_000);
        let rate = ParcelStorm::achieved_rate(&s);
        assert!((rate / 1e6 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn trickle_is_much_slower() {
        let steady = ParcelStorm::steady(1e6, 64, 7).schedule(1000);
        let trickle = ParcelStorm::trickle(1e6, 64, 7).schedule(1000);
        assert!(trickle.last().unwrap() > &(steady.last().unwrap() * 10));
    }

    #[test]
    fn bursty_has_rate_variance() {
        let storm = ParcelStorm::bursty(1e6, 64, 9);
        let s = storm.schedule(20_000);
        // Split into windows; hot windows should be much denser than cold.
        let horizon = *s.last().unwrap();
        let nbins = 50usize;
        let mut bins = vec![0u32; nbins];
        for &t in &s {
            let b = ((t as u128 * nbins as u128) / (horizon as u128 + 1)) as usize;
            bins[b] += 1;
        }
        let max = *bins.iter().max().unwrap() as f64;
        let min = *bins.iter().filter(|&&b| b > 0).min().unwrap() as f64;
        assert!(max / min > 3.0, "burstiness too low: max {max} min {min}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ParcelStorm::steady(1e5, 64, 11).schedule(500);
        let b = ParcelStorm::steady(1e5, 64, 11).schedule(500);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schedule_rate_zero() {
        assert_eq!(ParcelStorm::achieved_rate(&[]), 0.0);
        assert_eq!(ParcelStorm::achieved_rate(&[5]), 0.0);
    }
}
