//! Bounded time series of `(t_ns, value)` samples.
//!
//! The introspection layer keeps short histories of sampled counters and
//! derived metrics (power, concurrency) so that policies and the experiment
//! harness can examine trends. The series is bounded: when full it
//! *decimates* by dropping every other retained sample and doubling its
//! internal stride, so memory stays constant while the full time extent is
//! preserved (at reduced resolution) — the standard trick for long-running
//! monitoring.

/// A bounded, append-only time series with automatic decimation.
///
/// # Examples
///
/// ```
/// use lg_metrics::TimeSeries;
/// let mut ts = TimeSeries::new(128);
/// for i in 0..1000u64 {
///     ts.push(i * 1_000, i as f64);
/// }
/// assert!(ts.len() <= 128);
/// // Extent is preserved: first and most recent timestamps still visible.
/// assert_eq!(ts.first().unwrap().0, 0);
/// assert!(ts.last().unwrap().0 >= 990_000);
/// ```
#[derive(Clone, Debug)]
pub struct TimeSeries {
    samples: Vec<(u64, f64)>,
    capacity: usize,
    stride: u64,
    skip_counter: u64,
    pushed: u64,
}

impl TimeSeries {
    /// Creates a series keeping at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity < 4` (decimation needs room to halve).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4");
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            stride: 1,
            skip_counter: 0,
            pushed: 0,
        }
    }

    /// Appends a sample. Out-of-order timestamps are accepted but queries
    /// assume approximately monotone time.
    #[inline]
    pub fn push(&mut self, t_ns: u64, value: f64) {
        self.pushed += 1;
        self.skip_counter += 1;
        if self.skip_counter >= self.stride {
            self.keep(t_ns, value);
        }
    }

    /// The push that is retained: decimates first if the series is full.
    #[cold]
    fn keep(&mut self, t_ns: u64, value: f64) {
        self.skip_counter = 0;
        if self.samples.len() == self.capacity {
            // Decimate: keep every other sample, double the stride.
            let mut i = 0;
            self.samples.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
        self.samples.push((t_ns, value));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total number of samples ever pushed (including decimated ones).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Current decimation stride: one of every `stride` pushes is retained.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// First retained sample.
    pub fn first(&self) -> Option<(u64, f64)> {
        self.samples.first().copied()
    }

    /// Most recent retained sample.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.samples.last().copied()
    }

    /// Iterates over retained samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Mean of retained values over the trailing `horizon_ns` window
    /// relative to the newest sample. Returns `None` when empty.
    pub fn mean_over_trailing(&self, horizon_ns: u64) -> Option<f64> {
        let (newest, _) = *self.samples.last()?;
        let cutoff = newest.saturating_sub(horizon_ns);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in self.samples.iter().rev() {
            if t < cutoff {
                break;
            }
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Clears all retained samples and resets decimation state.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.stride = 1;
        self.skip_counter = 0;
        self.pushed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_everything_under_capacity() {
        let mut ts = TimeSeries::new(16);
        for i in 0..10u64 {
            ts.push(i, i as f64);
        }
        assert_eq!(ts.len(), 10);
        let vals: Vec<f64> = ts.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut ts = TimeSeries::new(32);
        for i in 0..100_000u64 {
            ts.push(i, 1.0);
            assert!(ts.len() <= 32);
        }
        assert_eq!(ts.total_pushed(), 100_000);
    }

    #[test]
    fn decimation_preserves_time_extent() {
        let mut ts = TimeSeries::new(8);
        for i in 0..1000u64 {
            ts.push(i * 10, i as f64);
        }
        assert_eq!(ts.first().unwrap().0, 0);
        // Newest retained sample must be within one stride of the end.
        let stride = ts.stride();
        assert!(
            ts.last().unwrap().0 >= (1000 - stride) * 10,
            "last {:?} stride {stride}",
            ts.last()
        );
    }

    #[test]
    fn mean_over_trailing_window() {
        let mut ts = TimeSeries::new(64);
        for i in 0..10u64 {
            ts.push(i * 1_000_000_000, i as f64); // one sample per second
        }
        // Trailing 2.5 s from t=9s covers samples at t=7,8,9 → mean 8.
        let m = ts.mean_over_trailing(2_500_000_000).unwrap();
        assert!((m - 8.0).abs() < 1e-12);
    }

    #[test]
    fn mean_empty_is_none() {
        let ts = TimeSeries::new(8);
        assert!(ts.mean_over_trailing(1_000).is_none());
    }

    #[test]
    fn clear_resets_decimation() {
        let mut ts = TimeSeries::new(8);
        for i in 0..1000u64 {
            ts.push(i, 0.0);
        }
        ts.clear();
        assert!(ts.is_empty());
        for i in 0..4u64 {
            ts.push(i, i as f64);
        }
        assert_eq!(ts.len(), 4); // stride reset to 1
    }
}
