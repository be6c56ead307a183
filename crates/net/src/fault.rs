//! Deterministic fault injection for the simulated link.
//!
//! A [`FaultPlan`] decides, per wire message and in virtual time, whether
//! the message is dropped, duplicated, or delayed beyond the cost model's
//! baseline. Decisions come from a seeded RNG plus a deterministic link
//! flap schedule, so a given `(seed, plan, offered load)` triple always
//! produces the same fault sequence — experiments and property tests can
//! replay storms bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the fault layer decided for one wire-message transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Message arrives, possibly late and possibly twice.
    Deliver {
        /// Extra delay added to the arrival, beyond the cost model.
        extra_delay_ns: u64,
        /// Extra delay of the duplicate copy, if one was injected.
        duplicate_delay_ns: Option<u64>,
    },
    /// Message vanishes (random loss or link down).
    Drop,
}

/// A seeded, virtual-time-driven schedule of link faults.
///
/// Built with chained setters; all probabilities default to zero, so a
/// fresh plan injects nothing:
///
/// ```
/// use lg_net::fault::FaultPlan;
/// let plan = FaultPlan::new(42).drop_prob(0.1).duplicate_prob(0.05).jitter_ns(5_000);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: StdRng,
    drop_prob: f64,
    dup_prob: f64,
    jitter_max_ns: u64,
    /// Periodic flap: link repeats `up_ns` up then `down_ns` down from t=0.
    flap: Option<(u64, u64)>,
    /// Explicit half-open `[start, end)` outage windows.
    outages: Vec<(u64, u64)>,
    drops: u64,
    dups: u64,
}

impl FaultPlan {
    /// Creates a no-op plan with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_max_ns: 0,
            flap: None,
            outages: Vec::new(),
            drops: 0,
            dups: 0,
        }
    }

    /// Probability that a wire message is silently dropped.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1` (a plan that drops everything can never
    /// deliver, which would hang any retransmitting caller).
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        self.drop_prob = p;
        self
    }

    /// Probability that a delivered wire message arrives twice.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn duplicate_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0, 1]"
        );
        self.dup_prob = p;
        self
    }

    /// Maximum extra arrival delay, sampled uniformly from `[0, max_ns]`.
    pub fn jitter_ns(mut self, max_ns: u64) -> Self {
        self.jitter_max_ns = max_ns;
        self
    }

    /// Periodic link flap: from t=0 the link repeats `up_ns` of service
    /// followed by `down_ns` of outage. Messages departing while down are
    /// dropped.
    ///
    /// # Panics
    /// Panics if `up_ns` is zero (the link would never carry anything).
    pub fn flap(mut self, up_ns: u64, down_ns: u64) -> Self {
        assert!(up_ns > 0, "flap up time must be positive");
        self.flap = Some((up_ns, down_ns));
        self
    }

    /// Adds an explicit `[start_ns, end_ns)` outage window.
    ///
    /// # Panics
    /// Panics unless `start_ns < end_ns`.
    pub fn outage(mut self, start_ns: u64, end_ns: u64) -> Self {
        assert!(start_ns < end_ns, "outage window must be non-empty");
        self.outages.push((start_ns, end_ns));
        self
    }

    /// Whether the link is down (flapped or in an outage window) at `t_ns`.
    fn link_down_at(&self, t_ns: u64) -> bool {
        if let Some((up, down)) = self.flap {
            if t_ns % (up + down) >= up {
                return true;
            }
        }
        self.outages.iter().any(|&(s, e)| (s..e).contains(&t_ns))
    }

    /// Decides the fate of a wire message departing at `depart_ns`.
    /// Advances the RNG, so the call sequence must itself be deterministic
    /// for replays to match (it is, under virtual time).
    pub fn decide(&mut self, depart_ns: u64) -> FaultAction {
        if self.link_down_at(depart_ns) {
            return FaultAction::Drop;
        }
        if self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob) {
            self.drops += 1;
            return FaultAction::Drop;
        }
        let extra_delay_ns = self.sample_jitter();
        let duplicate_delay_ns = if self.dup_prob > 0.0 && self.rng.gen_bool(self.dup_prob) {
            self.dups += 1;
            Some(self.sample_jitter())
        } else {
            None
        };
        FaultAction::Deliver {
            extra_delay_ns,
            duplicate_delay_ns,
        }
    }

    fn sample_jitter(&mut self) -> u64 {
        if self.jitter_max_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.jitter_max_ns)
        }
    }

    /// Randomly dropped messages so far (excludes flap drops).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Duplicated messages so far.
    pub fn duplicates(&self) -> u64 {
        self.dups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_transparent() {
        let mut p = FaultPlan::new(1);
        for t in (0..100).map(|i| i * 1_000) {
            assert_eq!(
                p.decide(t),
                FaultAction::Deliver {
                    extra_delay_ns: 0,
                    duplicate_delay_ns: None
                }
            );
        }
        assert_eq!(p.drops() + p.duplicates(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            FaultPlan::new(7)
                .drop_prob(0.3)
                .duplicate_prob(0.2)
                .jitter_ns(10_000)
        };
        let (mut a, mut b) = (mk(), mk());
        for t in 0..500u64 {
            assert_eq!(a.decide(t * 100), b.decide(t * 100));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(1).drop_prob(0.5);
        let mut b = FaultPlan::new(2).drop_prob(0.5);
        let agree = (0..200).filter(|&t| a.decide(t) == b.decide(t)).count();
        assert!(agree < 160, "seeds 1 and 2 agreed {agree}/200 times");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let mut p = FaultPlan::new(3).drop_prob(0.25);
        let n = 10_000;
        let dropped = (0..n).filter(|&t| p.decide(t) == FaultAction::Drop).count();
        assert!(
            (2_000..3_000).contains(&dropped),
            "0.25 drop prob gave {dropped}/{n}"
        );
        assert_eq!(p.drops() as usize, dropped);
    }

    #[test]
    fn flap_schedule_is_periodic() {
        let p = FaultPlan::new(0).flap(1_000, 500);
        assert!(!p.link_down_at(0));
        assert!(!p.link_down_at(999));
        assert!(p.link_down_at(1_000));
        assert!(p.link_down_at(1_499));
        assert!(!p.link_down_at(1_500));
        assert!(p.link_down_at(1_500 + 1_000));
    }

    #[test]
    fn flap_drops_and_counts() {
        let mut p = FaultPlan::new(0).flap(1_000, 1_000);
        assert_eq!(p.decide(1_500), FaultAction::Drop);
        assert_eq!(p.drops(), 0, "a flap drop is not a random drop");
    }

    #[test]
    fn outage_windows_respected() {
        let mut p = FaultPlan::new(0).outage(2_000, 3_000);
        assert!(matches!(p.decide(1_999), FaultAction::Deliver { .. }));
        assert_eq!(p.decide(2_000), FaultAction::Drop);
        assert_eq!(p.decide(2_999), FaultAction::Drop);
        assert!(matches!(p.decide(3_000), FaultAction::Deliver { .. }));
    }

    #[test]
    fn jitter_bounded() {
        let mut p = FaultPlan::new(5).jitter_ns(700);
        for t in 0..2_000u64 {
            match p.decide(t) {
                FaultAction::Deliver { extra_delay_ns, .. } => assert!(extra_delay_ns <= 700),
                FaultAction::Drop => unreachable!("no drops configured"),
            }
        }
    }

    #[test]
    fn duplicates_counted() {
        let mut p = FaultPlan::new(9).duplicate_prob(0.5);
        let dup = (0..1_000)
            .filter(|&t| {
                matches!(
                    p.decide(t),
                    FaultAction::Deliver {
                        duplicate_delay_ns: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!((350..650).contains(&dup), "0.5 dup prob gave {dup}/1000");
        assert_eq!(p.duplicates() as usize, dup);
    }
}
