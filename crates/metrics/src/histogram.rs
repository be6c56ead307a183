//! Fixed-memory histogram with hybrid log₂/linear bucketing.
//!
//! Task durations and message latencies span many orders of magnitude, so a
//! purely linear histogram is useless and a purely logarithmic one is too
//! coarse. This histogram follows the HdrHistogram idea in miniature: values
//! are bucketed by their binary magnitude (log₂ bucket), and each magnitude
//! is subdivided into a fixed number of linear sub-buckets. Memory is
//! constant (`64 × sub_buckets` slots of `u64`), updates are O(1), and
//! percentile queries are O(buckets).

/// Number of linear sub-buckets per binary order of magnitude.
const SUB_BUCKETS: usize = 16;
/// Number of binary orders of magnitude tracked (covers the full u64 range).
const MAGNITUDES: usize = 64;

/// A fixed-memory histogram over non-negative integer values (e.g.
/// nanoseconds) with ~6% worst-case relative error on percentile queries.
///
/// # Examples
///
/// ```
/// use lg_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.value_at_quantile(0.5);
/// assert!(p50 >= 450 && p50 <= 550, "p50 = {p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; MAGNITUDES * SUB_BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Values below SUB_BUCKETS land in magnitude 0, identity-mapped.
            return value as usize;
        }
        let mag = 63 - value.leading_zeros() as usize; // floor(log2(value)) >= 4
        let shift = mag - SUB_BUCKETS.trailing_zeros() as usize; // mag - 4
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        // Magnitudes below log2(SUB_BUCKETS) are all covered by the identity
        // region, so offset by one "virtual" magnitude block.
        (mag - SUB_BUCKETS.trailing_zeros() as usize + 1) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value for a bucket index.
    #[inline]
    fn value_of(index: usize) -> u64 {
        let block = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if block == 0 {
            return sub;
        }
        let shift = block - 1;
        (SUB_BUCKETS as u64 + sub) << shift
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket lower bound, clamped to the
    /// observed min/max). Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = crate::ceil_u64(q * self.total as f64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience accessor for the median.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Convenience accessor for the 99.9th percentile (tail-latency SLOs).
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets all buckets to empty.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Iterates over non-empty buckets as `(lower_bound_value, count)`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::value_of(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn index_value_roundtrip_is_monotone() {
        // value_of(index_of(v)) must be <= v and within ~6.25% of v.
        let mut prev_idx = 0;
        for v in (0..100_000u64)
            .step_by(7)
            .chain([1 << 20, 1 << 40, u64::MAX / 2])
        {
            let idx = Histogram::index_of(v);
            assert!(idx >= prev_idx || v < 100_000, "indices must not decrease");
            prev_idx = prev_idx.max(idx);
            let lb = Histogram::value_of(idx);
            assert!(lb <= v, "lower bound {lb} > value {v}");
            if v >= SUB_BUCKETS as u64 {
                // Relative error bound: bucket width is 1/16 of magnitude.
                assert!((v - lb) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0);
            } else {
                assert_eq!(lb, v, "identity region must be exact");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let buckets: Vec<_> = h.iter_buckets().collect();
        // 0..16 are identity-mapped: 15 non-zero buckets plus value 0 bucket.
        assert_eq!(buckets.len(), 16);
        for (i, (v, c)) in buckets.iter().enumerate() {
            assert_eq!(*v, i as u64);
            assert_eq!(*c, 1);
        }
    }

    #[test]
    fn count_preserved_under_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
        }
        let total = a.count() + b.count();
        a.merge(&b);
        assert_eq!(a.count(), total);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 999 * 7 + 1);
    }

    #[test]
    fn quantiles_monotone() {
        let mut h = Histogram::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(rng >> 40);
        }
        let mut prev = 0;
        for q in 0..=100 {
            let v = h.value_at_quantile(q as f64 / 100.0);
            assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
            prev = v;
        }
        assert!(h.value_at_quantile(1.0) == h.max());
    }

    #[test]
    fn uniform_percentiles_approximately_correct() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.1, 1000u64), (0.5, 5000), (0.9, 9000), (0.99, 9900)] {
            let got = h.value_at_quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(
                err < 0.08,
                "q={q}: got {got}, want ~{expect} (err {err:.3})"
            );
        }
    }

    #[test]
    fn mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.iter_buckets().count(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.value_at_quantile(1.0) > 0);
    }
}
