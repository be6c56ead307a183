//! Property-based tests for the statistics primitives.

use lg_metrics::{EnergyMeter, Ewma, Histogram, StripedCounter, TimeSeries, Welford};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn welford_min_max_sum_exact(xs in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.update(x);
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
        let sum: f64 = xs.iter().sum();
        prop_assert!((w.sum() - sum).abs() <= 1e-6 * (1.0 + sum.abs()));
    }

    #[test]
    fn welford_variance_non_negative(xs in proptest::collection::vec(-1e12f64..1e12, 0..100)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.update(x);
        }
        prop_assert!(w.population_variance() >= 0.0);
        prop_assert!(w.sample_variance() >= 0.0);
    }

    #[test]
    fn histogram_merge_commutes(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let build = |xs: &[u64]| {
            let mut h = Histogram::new();
            xs.iter().for_each(|&v| h.record(v));
            h
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        prop_assert_eq!(ab.p50(), ba.p50());
        prop_assert_eq!(ab.p99(), ba.p99());
    }

    #[test]
    fn histogram_relative_error_bounded(values in proptest::collection::vec(16u64..u64::MAX / 4, 1..200)) {
        // Every recorded value's bucket lower bound is within 1/16 of it.
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        for (lb, count) in h.iter_buckets() {
            prop_assert!(count > 0);
            // lb is a valid representative: some recorded value >= lb.
            prop_assert!(values.iter().any(|&v| v >= lb));
        }
    }

    #[test]
    fn ewma_stays_within_input_hull(alpha in 0.01f64..1.0, xs in proptest::collection::vec(-100f64..100.0, 1..100)) {
        let mut e = Ewma::new(alpha);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &xs {
            e.update(x);
            prop_assert!(e.value() >= lo - 1e-9 && e.value() <= hi + 1e-9);
        }
    }

    #[test]
    fn timeseries_extent_preserved(n in 1usize..2000) {
        let mut ts = TimeSeries::new(64);
        for i in 0..n as u64 {
            ts.push(i * 10, i as f64);
        }
        prop_assert!(ts.len() <= 64);
        prop_assert_eq!(ts.total_pushed(), n as u64);
        prop_assert_eq!(ts.first().unwrap().0, 0);
        let stride = ts.stride();
        prop_assert!(ts.last().unwrap().0 + stride * 10 >= (n as u64 - 1) * 10);
    }

    #[test]
    fn sharded_welford_merge_matches_sequential(
        xs in proptest::collection::vec(1f64..1e9, 1..400),
        stripes in proptest::collection::vec(0usize..8, 1..400),
    ) {
        // Any partition of the sample stream across stripes, merged with
        // the parallel-Welford combine, must agree with one sequential
        // accumulator on count/sum exactly and mean/variance/min/max
        // within FP tolerance. This is the invariant the sharded
        // ProfileListener relies on: snapshots are interleaving-blind.
        let mut sequential = Welford::new();
        let mut parts: Vec<Welford> = (0..8).map(|_| Welford::new()).collect();
        for (i, &x) in xs.iter().enumerate() {
            sequential.update(x);
            parts[stripes[i % stripes.len()]].update(x);
        }
        let mut merged = Welford::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.count(), sequential.count());
        prop_assert_eq!(merged.min(), sequential.min());
        prop_assert_eq!(merged.max(), sequential.max());
        let rel = |a: f64, b: f64| (a - b).abs() / (1.0 + b.abs());
        prop_assert!(rel(merged.sum(), sequential.sum()) < 1e-9);
        prop_assert!(rel(merged.mean(), sequential.mean()) < 1e-9);
        prop_assert!(
            rel(merged.population_variance(), sequential.population_variance()) < 1e-6,
            "merged {} vs sequential {}",
            merged.population_variance(),
            sequential.population_variance()
        );
    }

    #[test]
    fn striped_counter_sum_is_exact(adds in proptest::collection::vec(0u64..1_000, 1..64)) {
        // Single-threaded: every add lands in one stripe; sum folds them.
        let c = StripedCounter::new();
        for &n in &adds {
            c.add(n);
        }
        prop_assert_eq!(c.sum(), adds.iter().sum::<u64>());
    }

    #[test]
    fn energy_meter_monotone_and_bounded(
        samples in proptest::collection::vec((0u64..1_000_000, 0f64..500.0), 2..100),
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by_key(|s| s.0);
        let mut m = EnergyMeter::new();
        let mut last_energy = 0.0;
        let max_power = sorted.iter().map(|s| s.1).fold(0.0, f64::max);
        for &(t, p) in &sorted {
            m.sample(t, p);
            prop_assert!(m.energy_j() >= last_energy - 1e-12, "energy decreased");
            last_energy = m.energy_j();
        }
        let bound = max_power * m.elapsed_s();
        prop_assert!(m.energy_j() <= bound + 1e-9, "{} > {}", m.energy_j(), bound);
    }
}
