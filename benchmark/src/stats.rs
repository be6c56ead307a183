//! Order statistics used by every report: medians over blocks,
//! percentiles over latency samples, and the quartile spread `compare`
//! judges noise by.

/// Sorts ascending; NaNs (never produced by the timers) would sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Linear-interpolated quantile `q` in [0, 1] of an ascending slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// Quartiles `(q1, q2, q3)` by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, so `compare`
/// and an outside checker agree on every spread.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Latency samples in ns → `(p50_us, p99_us)`.
pub fn latency_us(samples_ns: &[u64]) -> (f64, f64) {
    let s = sorted(samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    (quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u64> = (1..=101).map(|i| i * 1000).collect();
        let (p50, p99) = latency_us(&ns);
        assert_eq!(p50, 51.0);
        assert_eq!(p99, 100.0);
    }
}
