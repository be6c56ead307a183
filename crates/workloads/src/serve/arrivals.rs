//! Open-loop arrival generation.
//!
//! Unlike the closed-loop kernels (where finishing work is what permits
//! more work), these arrival processes do not care whether the system
//! keeps up. Schedules are generated by Lewis–Shedler thinning of a
//! homogeneous Poisson process at the pattern's peak rate, so every
//! pattern — including the time-varying ones — is exact, deterministic
//! per seed, and strictly monotone in time.

use super::request::Request;
use lg_core::RequestClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Time-varying arrival intensity λ(t).
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Alternating hot bursts (4× rate, 1 ms) and quiet gaps (rate/4,
    /// 4 ms).
    Bursty {
        /// Mean-of-phases arrival rate, per second.
        rate_per_sec: f64,
    },
    /// Sinusoidal "diurnal" trace between a base and a peak rate.
    Diurnal {
        /// Off-peak arrivals per second.
        base_per_sec: f64,
        /// On-peak arrivals per second.
        peak_per_sec: f64,
        /// Full day length (one sine period), ns.
        period_ns: u64,
    },
    /// Steady base load with a multiplicative spike window — the
    /// overload experiment's "2× capacity for 300 ms" shape.
    Spike {
        /// Baseline arrivals per second.
        base_per_sec: f64,
        /// Rate multiplier inside the spike window.
        factor: f64,
        /// Spike start, ns.
        start_ns: u64,
        /// Spike end, ns.
        end_ns: u64,
    },
}

impl ArrivalPattern {
    /// Intensity λ(t) in arrivals/sec.
    fn rate_at(&self, t_ns: u64) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalPattern::Bursty { rate_per_sec } => {
                if t_ns % 5_000_000 < 1_000_000 {
                    rate_per_sec * 4.0
                } else {
                    rate_per_sec / 4.0
                }
            }
            ArrivalPattern::Diurnal {
                base_per_sec,
                peak_per_sec,
                period_ns,
            } => {
                let phase = (t_ns % period_ns.max(1)) as f64 / period_ns.max(1) as f64;
                let s = (phase * std::f64::consts::TAU).sin() * 0.5 + 0.5;
                base_per_sec + (peak_per_sec - base_per_sec) * s
            }
            ArrivalPattern::Spike {
                base_per_sec,
                factor,
                start_ns,
                end_ns,
            } => {
                if (start_ns..end_ns).contains(&t_ns) {
                    base_per_sec * factor
                } else {
                    base_per_sec
                }
            }
        }
    }

    /// The pattern's peak intensity (the thinning envelope).
    fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalPattern::Bursty { rate_per_sec } => rate_per_sec * 4.0,
            ArrivalPattern::Diurnal {
                base_per_sec,
                peak_per_sec,
                ..
            } => base_per_sec.max(peak_per_sec),
            ArrivalPattern::Spike {
                base_per_sec,
                factor,
                ..
            } => base_per_sec * factor.max(1.0),
        }
    }
}

/// Deterministic generator of heterogeneous request streams.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    /// Arrival intensity over time.
    pub pattern: ArrivalPattern,
    /// RNG seed (thinning, class mix, service-time draw, dest spread).
    pub seed: u64,
    /// Fraction of requests that are [`RequestClass::Optional`].
    pub optional_frac: f64,
    /// Mean service demand, ns (exponentially distributed).
    pub service_mean_ns: u64,
    /// Relative deadline for mandatory requests, ns.
    pub mandatory_budget_ns: u64,
    /// Relative deadline for optional requests, ns.
    pub optional_budget_ns: u64,
    /// Number of destination localities requests spread over.
    pub dests: u32,
}

impl ArrivalGen {
    /// Generates every request arriving in `[0, horizon_ns)`, strictly
    /// ordered by arrival time, ids dense from 0.
    pub fn generate(&self, horizon_ns: u64) -> Vec<Request> {
        assert!(self.dests > 0, "at least one destination");
        assert!(
            (0.0..=1.0).contains(&self.optional_frac),
            "optional fraction must lie in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let peak = self.pattern.peak_rate();
        assert!(peak > 0.0, "pattern peak rate must be positive");
        let mut out = Vec::new();
        let mut t = 0.0f64; // ns
        loop {
            // Candidate from the homogeneous envelope...
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / peak * 1e9;
            let t_ns = t.ceil() as u64 + out.len() as u64; // strict monotonicity
            if t_ns >= horizon_ns {
                break;
            }
            // ...thinned down to λ(t).
            let keep: f64 = rng.gen_range(0.0..1.0);
            // The class/service draws burn RNG state whether or not the
            // candidate survives, keeping accepted requests identically
            // distributed across patterns with the same seed.
            let optional = rng.gen_range(0.0..1.0) < self.optional_frac;
            let su: f64 = rng.gen_range(1e-12..1.0);
            let service_ns = (-su.ln() * self.service_mean_ns as f64).ceil() as u64;
            if keep >= self.pattern.rate_at(t_ns) / peak {
                continue;
            }
            let id = out.len() as u64;
            let class = if optional {
                RequestClass::Optional
            } else {
                RequestClass::Mandatory
            };
            let budget = match class {
                RequestClass::Mandatory => self.mandatory_budget_ns,
                RequestClass::Optional => self.optional_budget_ns,
            };
            out.push(Request {
                id,
                class,
                arrival_ns: t_ns,
                deadline_ns: t_ns + budget,
                service_ns: service_ns.max(1),
                dest: (id % self.dests as u64) as u32 + 1,
            });
        }
        out
    }

    /// Mean achieved arrival rate of a schedule, per second.
    pub fn achieved_rate(requests: &[Request]) -> f64 {
        match (requests.first(), requests.last()) {
            (Some(a), Some(b)) if b.arrival_ns > a.arrival_ns => {
                (requests.len() as f64 - 1.0) * 1e9 / (b.arrival_ns - a.arrival_ns) as f64
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(pattern: ArrivalPattern) -> ArrivalGen {
        ArrivalGen {
            pattern,
            seed: 7,
            optional_frac: 0.3,
            service_mean_ns: 1_000_000,
            mandatory_budget_ns: 20_000_000,
            optional_budget_ns: 10_000_000,
            dests: 4,
        }
    }

    #[test]
    fn poisson_hits_target_rate() {
        let g = gen(ArrivalPattern::Poisson {
            rate_per_sec: 5_000.0,
        });
        let reqs = g.generate(2_000_000_000);
        let rate = ArrivalGen::achieved_rate(&reqs);
        assert!((rate / 5_000.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn schedules_are_monotone_and_deterministic() {
        for pattern in [
            ArrivalPattern::Poisson {
                rate_per_sec: 8_000.0,
            },
            ArrivalPattern::Bursty {
                rate_per_sec: 8_000.0,
            },
            ArrivalPattern::Diurnal {
                base_per_sec: 2_000.0,
                peak_per_sec: 10_000.0,
                period_ns: 100_000_000,
            },
            ArrivalPattern::Spike {
                base_per_sec: 5_000.0,
                factor: 2.0,
                start_ns: 100_000_000,
                end_ns: 200_000_000,
            },
        ] {
            let g = gen(pattern);
            let a = g.generate(500_000_000);
            let b = g.generate(500_000_000);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a.windows(2).all(|w| w[0].arrival_ns < w[1].arrival_ns));
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn spike_doubles_the_rate_inside_the_window() {
        let g = gen(ArrivalPattern::Spike {
            base_per_sec: 5_000.0,
            factor: 2.0,
            start_ns: 500_000_000,
            end_ns: 1_000_000_000,
        });
        let reqs = g.generate(1_500_000_000);
        let in_window = reqs
            .iter()
            .filter(|r| (500_000_000..1_000_000_000).contains(&r.arrival_ns))
            .count() as f64;
        let outside = (reqs.len() as f64 - in_window).max(1.0);
        let ratio = (in_window / 0.5) / (outside / 1.0);
        assert!((1.6..=2.4).contains(&ratio), "spike ratio {ratio}");
    }

    #[test]
    fn class_mix_and_deadlines_follow_config() {
        let g = gen(ArrivalPattern::Poisson {
            rate_per_sec: 5_000.0,
        });
        let reqs = g.generate(1_000_000_000);
        let optional = reqs
            .iter()
            .filter(|r| r.class == RequestClass::Optional)
            .count() as f64
            / reqs.len() as f64;
        assert!((optional - 0.3).abs() < 0.05, "optional frac {optional}");
        for r in &reqs {
            let expect = match r.class {
                RequestClass::Mandatory => 20_000_000,
                RequestClass::Optional => 10_000_000,
            };
            assert_eq!(r.budget_ns(), expect);
            assert!(r.service_ns >= 1);
            assert!((1..=4).contains(&r.dest));
        }
    }

    #[test]
    fn diurnal_rate_tracks_the_sine() {
        let p = ArrivalPattern::Diurnal {
            base_per_sec: 1_000.0,
            peak_per_sec: 9_000.0,
            period_ns: 1_000_000_000,
        };
        assert!(
            p.rate_at(250_000_000) > 8_000.0,
            "crest near quarter period"
        );
        assert!(
            p.rate_at(750_000_000) < 2_000.0,
            "trough near three quarters"
        );
        assert_eq!(p.peak_rate(), 9_000.0);
    }
}
