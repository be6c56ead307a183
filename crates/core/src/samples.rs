//! Sampled-metric history: the introspection face of async observation.
//!
//! The sampler (and the simulator's power accounting) emit
//! [`Event::SampleValue`] observations; this listener retains a bounded
//! [`TimeSeries`] per metric so policies can ask trend questions —
//! "what was mean power over the last 100 ms?", "is latency rising?" —
//! without touching the sampling machinery.

use crate::event::{Event, TaskId, TaskNames};
use crate::listener::Listener;
use lg_metrics::TimeSeries;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Listener retaining per-metric sample history.
pub struct SampleHistoryListener {
    names: TaskNames,
    capacity: usize,
    series: Mutex<HashMap<TaskId, TimeSeries>>,
    /// Bumped after every accepted sample (and on [`clear`]); window-mean
    /// metric sources use it as their dirtiness stamp so idle captures
    /// reuse the previously computed mean.
    ///
    /// [`clear`]: SampleHistoryListener::clear
    write_gen: Arc<AtomicU64>,
}

impl SampleHistoryListener {
    /// Creates a history keeping ~`capacity` points per metric
    /// (decimating beyond that; see [`TimeSeries`]).
    pub fn new(names: TaskNames, capacity: usize) -> Self {
        Self {
            names,
            capacity: capacity.max(4),
            series: Mutex::new(HashMap::new()),
            write_gen: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The write-generation stamp: unchanged between two reads ⇔ no sample
    /// arrived in between.
    pub(crate) fn write_stamp(&self) -> Arc<AtomicU64> {
        self.write_gen.clone()
    }

    /// Latest `(t_ns, value)` for `metric`, if any samples arrived.
    pub fn latest(&self, metric: &str) -> Option<(u64, f64)> {
        let id = self.names.lookup(metric)?;
        self.series.lock().get(&id)?.last()
    }

    /// Mean of `metric` over the trailing `horizon_ns` (relative to its
    /// newest sample).
    pub(crate) fn mean_over(&self, metric: &str, horizon_ns: u64) -> Option<f64> {
        let id = self.names.lookup(metric)?;
        self.series.lock().get(&id)?.mean_over_trailing(horizon_ns)
    }

    /// Copies the retained history of `metric`.
    pub fn history(&self, metric: &str) -> Vec<(u64, f64)> {
        self.names
            .lookup(metric)
            .and_then(|id| self.series.lock().get(&id).map(|s| s.iter().collect()))
            .unwrap_or_default()
    }

    /// Names of all metrics seen so far, sorted.
    pub fn metrics(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .series
            .lock()
            .keys()
            .filter_map(|id| self.names.resolve(*id))
            .collect();
        out.sort();
        out
    }

    /// Clears all history.
    pub fn clear(&self) {
        self.series.lock().clear();
        self.write_gen.fetch_add(1, Ordering::Release);
    }
}

impl Listener for SampleHistoryListener {
    fn name(&self) -> &str {
        "sample-history"
    }

    fn on_event(&self, event: &Event) {
        if let Event::SampleValue {
            metric,
            t_ns,
            value,
        } = *event
        {
            let mut series = self.series.lock();
            series
                .entry(metric)
                .or_insert_with(|| TimeSeries::new(self.capacity))
                .push(t_ns, value);
            drop(series);
            self.write_gen.fetch_add(1, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for SampleHistoryListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleHistoryListener")
            .field("metrics", &self.series.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(names: &TaskNames, h: &SampleHistoryListener, metric: &str, t: u64, v: f64) {
        let id = names.intern(metric);
        h.on_event(&Event::SampleValue {
            metric: id,
            t_ns: t,
            value: v,
        });
    }

    #[test]
    fn retains_per_metric_series() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names.clone(), 64);
        sample(&names, &h, "power", 0, 10.0);
        sample(&names, &h, "power", 100, 20.0);
        sample(&names, &h, "rss", 50, 5.0);
        assert_eq!(h.latest("power"), Some((100, 20.0)));
        assert_eq!(h.latest("rss"), Some((50, 5.0)));
        assert_eq!(h.history("power").len(), 2);
        assert_eq!(h.metrics(), vec!["power", "rss"]);
    }

    #[test]
    fn mean_over_trailing_queries() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names.clone(), 64);
        for i in 0..10u64 {
            sample(&names, &h, "p", i * 1_000_000_000, (i * 10) as f64);
        }
        // Trailing 2.5 s from t=9 s: samples at 7, 8, 9 → mean 80.
        assert_eq!(h.mean_over("p", 2_500_000_000), Some(80.0));
        assert_eq!(h.mean_over("p", u64::MAX), Some(45.0));
    }

    #[test]
    fn unknown_metric_is_none() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names, 64);
        assert!(h.latest("nope").is_none());
        assert!(h.mean_over("nope", 1000).is_none());
        assert!(h.history("nope").is_empty());
    }

    #[test]
    fn ignores_non_sample_events() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names.clone(), 64);
        let id = names.intern("t");
        h.on_event(&Event::TaskBegin {
            task: id,
            worker: 0,
            t_ns: 0,
        });
        assert!(h.metrics().is_empty());
    }

    #[test]
    fn bounded_memory_under_flood() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names.clone(), 32);
        for i in 0..100_000u64 {
            sample(&names, &h, "flood", i, 1.0);
        }
        assert!(h.history("flood").len() <= 32);
    }

    #[test]
    fn clear_resets() {
        let names = TaskNames::new();
        let h = SampleHistoryListener::new(names.clone(), 16);
        sample(&names, &h, "x", 0, 1.0);
        h.clear();
        assert!(h.metrics().is_empty());
    }
}
