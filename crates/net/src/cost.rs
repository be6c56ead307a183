//! LogP-flavored transport cost model.
//!
//! A wire message of `n` bytes occupies the (serialized) link for
//! `per_msg_ns + per_byte_ns · n` and arrives `latency_ns` after it leaves.
//! `per_msg_ns` is the per-message cost `α` that coalescing amortizes;
//! `per_byte_ns` is `β = 1/bandwidth`; `latency_ns` is propagation delay.

/// Cost parameters of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportCost {
    /// Fixed per-wire-message occupancy (α), nanoseconds.
    pub per_msg_ns: u64,
    /// Per-byte occupancy (β), nanoseconds.
    pub per_byte_ns: f64,
    /// Propagation latency, nanoseconds.
    pub latency_ns: u64,
}

impl TransportCost {
    /// Creates a cost model.
    ///
    /// # Panics
    /// Panics if `per_byte_ns` is negative.
    pub fn new(per_msg_ns: u64, per_byte_ns: f64, latency_ns: u64) -> Self {
        assert!(per_byte_ns >= 0.0, "per-byte cost must be non-negative");
        Self {
            per_msg_ns,
            per_byte_ns,
            latency_ns,
        }
    }

    /// A cluster-interconnect-like link: α = 1 µs, ~10 GB/s, 2 µs latency.
    pub fn cluster() -> Self {
        Self::new(1_000, 0.1, 2_000)
    }

    /// Link occupancy of an `n`-byte wire message.
    pub fn occupancy_ns(&self, bytes: usize) -> u64 {
        self.per_msg_ns + (self.per_byte_ns * bytes as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_affine() {
        let c = TransportCost::new(1_000, 0.5, 0);
        assert_eq!(c.occupancy_ns(0), 1_000);
        assert_eq!(c.occupancy_ns(100), 1_050);
        assert_eq!(c.occupancy_ns(1000), 1_500);
    }
}
