//! The read side of adaptation: one coherent, point-in-time view.
//!
//! Every decision-maker — policies, tuning sessions, the regression
//! watchdog, report writers — used to scrape the listeners it happened to
//! know about ([`ProfileListener`], [`ConcurrencyListener`], counters,
//! sample windows) with its own extraction code. [`Introspection`] is the
//! single facade over all of them: backends register *metric sources*
//! (gauges and counter registries) under names resolved once into
//! copyable [`MetricId`]s, and
//! [`Introspection::capture`] materialises everything into one immutable
//! [`IntrospectionSnapshot`]. Consumers query the snapshot — by id on hot
//! paths, by name at the edges — and two snapshots diff cleanly (e.g.
//! completed tasks per second between two of them), which is how the
//! watchdog detects regressions and tuning sessions score epochs without
//! touching any listener directly.
//!
//! ## Incremental capture
//!
//! Capture cost is proportional to *activity since the last round*, not to
//! the amount of registered state. `capture` keeps the previous round's
//! merged base — counter name table, counter values, profile merge, metric
//! values — behind `Arc`s and replaces only what moved. Profile stripes
//! stamp themselves under their stripe lock; gauges may register with a
//! stamp ([`Introspection::register_gauge_stamped`]). A windowed signal is
//! one such gauge: its producer owns the window and bumps the stamp, as
//! [`Introspection::register_window_mean`] does with a sample history's
//! write generation. Counters need none: they only grow, so
//! one was written since the last round exactly when its value differs
//! from the base's, and an add racing the read is either in the value read
//! or makes the next round's comparison differ. A fully idle capture
//! returns Arc clones of everything with a fresh `t_ns`/`seq` and performs
//! **zero** shard merges. The
//! [`Introspection::merges`] / [`Introspection::skipped`] counter pair
//! accounts shard-level merge work (profile stripes copied, counter
//! registries with a moved value) vs. cache reuse, so tests can assert the
//! idle path stays free. [`Introspection::capture_uncached`] keeps the
//! from-scratch path as the verification oracle and benchmark baseline:
//! property tests assert both paths agree field for field at quiescence.
//!
//! `capture` never holds the registration lock while evaluating gauge
//! closures: the source table is copy-on-write, so capture clones an `Arc`
//! under a brief read lock and evaluates outside it. (Captures themselves
//! serialise on the delta cache — a gauge closure must not call back into
//! `capture`.)

use crate::concurrency::ConcurrencyListener;
use crate::profile::{ProfileListener, ProfileSnapshot, TaskProfile};
use crate::samples::SampleHistoryListener;
use lg_metrics::{CounterHandle, CounterRegistry, StripedCounter};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Interned handle to a registered metric. Copyable; resolved once via
/// [`Introspection::register_gauge`] (and friends) or
/// [`Introspection::metric_id`], then used for lock-free-ish snapshot
/// queries with no string hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(pub u32);

/// One registered metric source: a reading evaluated at capture plus its
/// optional dirtiness stamp.
///
/// Stamped sources are re-evaluated only when the stamp moved since the
/// last capture; unstamped sources are treated as always-dirty (the
/// closure is the only way to learn their value changed).
struct SourceEntry {
    read: Box<dyn Fn() -> f64 + Send + Sync>,
    stamp: Option<Arc<AtomicU64>>,
}

impl SourceEntry {
    fn eval(&self) -> Option<f64> {
        let v = (self.read)();
        v.is_finite().then_some(v)
    }
}

struct Inner {
    /// Copy-on-write: replaced wholesale on (re-)registration, so capture
    /// can clone the `Arc` and evaluate closures outside the lock.
    sources: Arc<Vec<Arc<SourceEntry>>>,
    by_name: HashMap<String, u32>,
    /// Metric names in id order, shared immutably with every snapshot.
    names: Arc<Vec<String>>,
    /// Copy-on-write for the same reason as `sources`.
    counters: Arc<Vec<Arc<CounterRegistry>>>,
}

/// Per-registry slice of the capture cache: the name-sorted handle table
/// as of `structure`. `Default` is generation 0, the empty table.
#[derive(Default)]
struct RegCache {
    structure: u64,
    handles: Arc<Vec<(String, CounterHandle)>>,
}

/// The persistent merged base `capture` deltas against. `Default` is the
/// never-captured cache: `valid` unset.
#[derive(Default)]
struct CaptureCache {
    valid: bool,
    /// Identity of the source table the cached values belong to.
    sources: Arc<Vec<Arc<SourceEntry>>>,
    /// Last-seen stamp per source (meaningless for unstamped entries).
    stamps: Vec<u64>,
    values: Arc<Vec<Option<f64>>>,
    /// Identity of the registry list the counter cache belongs to.
    regs_list: Arc<Vec<Arc<CounterRegistry>>>,
    regs: Vec<RegCache>,
    /// `positions[k][j]` = index in the merged vectors of registry `k`'s
    /// `j`-th (name-sorted) counter.
    positions: Vec<Vec<usize>>,
    counter_names: Arc<Vec<String>>,
    counter_values: Arc<Vec<u64>>,
}

/// The registration facade and capture engine for the read side.
///
/// Backends (sim runtime, real pool) register their metrics here through
/// one identical API; consumers only ever see the snapshots it produces.
pub struct Introspection {
    profiles: Arc<ProfileListener>,
    concurrency: Arc<ConcurrencyListener>,
    inner: RwLock<Inner>,
    /// Capture sequence, so consumers can tell snapshots apart.
    seq: AtomicU64,
    cache: Mutex<CaptureCache>,
    /// Shard-level merge work performed by `capture` (profile stripes
    /// copied + counter registries with a moved value).
    merges: StripedCounter,
    /// Shard-level merge work avoided by the delta cache.
    skipped: StripedCounter,
}

impl Introspection {
    /// Creates the facade over an instance's profile and concurrency
    /// listeners (always present; metric sources are added per backend).
    pub fn new(profiles: Arc<ProfileListener>, concurrency: Arc<ConcurrencyListener>) -> Self {
        Self {
            profiles,
            concurrency,
            inner: RwLock::new(Inner {
                sources: Arc::new(Vec::new()),
                by_name: HashMap::new(),
                names: Arc::new(Vec::new()),
                counters: Arc::new(Vec::new()),
            }),
            seq: AtomicU64::new(0),
            cache: Mutex::default(),
            merges: StripedCounter::new(),
            skipped: StripedCounter::new(),
        }
    }

    /// Takes the closure boxed, so the registration code is compiled once
    /// rather than once per registered closure type.
    fn register_source(
        &self,
        name: &str,
        stamp: Option<Arc<AtomicU64>>,
        read: Box<dyn Fn() -> f64 + Send + Sync>,
    ) -> MetricId {
        let entry = SourceEntry { read, stamp };
        let mut inner = self.inner.write();
        let mut sources = (*inner.sources).clone();
        if let Some(&i) = inner.by_name.get(name) {
            sources[i as usize] = Arc::new(entry);
            inner.sources = Arc::new(sources);
            return MetricId(i);
        }
        let i = sources.len() as u32;
        sources.push(Arc::new(entry));
        inner.sources = Arc::new(sources);
        inner.by_name.insert(name.to_owned(), i);
        let mut names = (*inner.names).clone();
        names.push(name.to_owned());
        inner.names = Arc::new(names);
        MetricId(i)
    }

    /// Registers an instantaneous gauge evaluated at each capture.
    /// Re-registering a name replaces its source, keeping the id.
    ///
    /// An unstamped gauge is re-evaluated on every capture (the closure is
    /// the only way to learn it changed); prefer
    /// [`register_gauge_stamped`] when the producer can bump a stamp.
    ///
    /// [`register_gauge_stamped`]: Introspection::register_gauge_stamped
    pub fn register_gauge(
        &self,
        name: &str,
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) -> MetricId {
        self.register_source(name, None, Box::new(read))
    }

    /// Registers a gauge with a write-generation stamp: the closure runs
    /// only on captures where `stamp` moved since the last capture, and
    /// the cached value is reused otherwise. The producer must bump the
    /// stamp (`Release`) *after* publishing the state `read` derives its
    /// value from.
    pub fn register_gauge_stamped(
        &self,
        name: &str,
        stamp: Arc<AtomicU64>,
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) -> MetricId {
        self.register_source(name, Some(stamp), Box::new(read))
    }

    /// Registers a trailing-window mean over a sampled series: a gauge
    /// reading `history.mean_over(metric, window_ns)`, stamped with the
    /// history's write generation, so quiescent series cost nothing to
    /// re-capture. Like every gauge, a window with no samples, or whose
    /// mean is not finite (a NaN sample in the window), reads `None`.
    pub fn register_window_mean(
        &self,
        name: &str,
        history: Arc<SampleHistoryListener>,
        metric: impl Into<String>,
        window_ns: u64,
    ) -> MetricId {
        let metric = metric.into();
        self.register_gauge_stamped(name, history.write_stamp(), move || {
            history.mean_over(&metric, window_ns).unwrap_or(f64::NAN)
        })
    }

    /// Adds a counter registry whose counters appear (name-sorted) in
    /// every snapshot.
    pub fn register_counters(&self, counters: Arc<CounterRegistry>) {
        let mut inner = self.inner.write();
        let mut regs = (*inner.counters).clone();
        regs.push(counters);
        inner.counters = Arc::new(regs);
    }

    /// Resolves a metric name to its id, if registered.
    pub fn metric_id(&self, name: &str) -> Option<MetricId> {
        self.inner.read().by_name.get(name).copied().map(MetricId)
    }

    /// Names of all registered metrics, in id order.
    pub fn metric_names(&self) -> Vec<String> {
        (*self.inner.read().names).clone()
    }

    /// Shard merges performed by captures so far (profile stripes copied +
    /// counter registries with a moved value). An idle capture adds zero.
    pub fn merges(&self) -> u64 {
        self.merges.sum()
    }

    /// Shard merges avoided by the delta cache so far.
    pub fn skipped(&self) -> u64 {
        self.skipped.sum()
    }

    /// Materialises the point-in-time view: metric sources, counters,
    /// per-task profiles, and the concurrency gauges — all stamped with
    /// `t_ns`.
    ///
    /// Incremental: producers that did not move since the previous capture
    /// (stamp unchanged; for counters, value unchanged) are served from
    /// the persistent merged base (see the module docs); a fully idle
    /// capture is a handful of loads plus Arc clones.
    pub fn capture(&self, t_ns: u64) -> IntrospectionSnapshot {
        let (sources, names, regs_list) = {
            let inner = self.inner.read();
            (
                inner.sources.clone(),
                inner.names.clone(),
                inner.counters.clone(),
            )
        };
        let mut cache = self.cache.lock();
        let cache = &mut *cache;

        // --- metric sources: re-evaluate only unstamped or moved ---
        let sources_changed = !cache.valid || !Arc::ptr_eq(&cache.sources, &sources);
        if sources_changed {
            cache.stamps = vec![0; sources.len()];
            cache.sources = sources.clone();
        }
        let mut fresh: Vec<(usize, Option<f64>)> = Vec::new();
        for (i, entry) in sources.iter().enumerate() {
            let dirty = match &entry.stamp {
                Some(stamp) => {
                    // Acquire-read the stamp *before* evaluating, so a
                    // write racing the eval leaves a stale recorded stamp
                    // and the next capture re-evaluates.
                    let g = stamp.load(Ordering::Acquire);
                    let moved = sources_changed || g != cache.stamps[i];
                    cache.stamps[i] = g;
                    moved
                }
                None => true,
            };
            if dirty {
                fresh.push((i, entry.eval()));
            }
        }
        if !fresh.is_empty() || sources_changed {
            let mut values = if sources_changed {
                vec![None; sources.len()]
            } else {
                (*cache.values).clone()
            };
            for (i, v) in fresh {
                values[i] = v;
            }
            cache.values = Arc::new(values);
        }

        // --- counters: delta against the interned merged base ---
        let list_changed = !cache.valid || !Arc::ptr_eq(&cache.regs_list, &regs_list);
        if list_changed {
            cache.regs = regs_list.iter().map(|_| RegCache::default()).collect();
            cache.regs_list = regs_list.clone();
        }
        let mut layout_dirty = list_changed;
        for (k, reg) in regs_list.iter().enumerate() {
            let structure = reg.structure_version();
            let rc = &mut cache.regs[k];
            if rc.structure != structure {
                rc.handles = reg.sorted_handles();
                rc.structure = structure;
                layout_dirty = true;
            }
        }
        if layout_dirty {
            // Rebuild the merged name table: concatenate each registry's
            // (already name-sorted) table in registry order, then stable
            // sort by name — the same order the old flat_map+sort
            // produced, so duplicate names across registries keep their
            // registry-order tie-break.
            let mut order: Vec<(usize, usize)> = Vec::new();
            for (k, rc) in cache.regs.iter().enumerate() {
                for j in 0..rc.handles.len() {
                    order.push((k, j));
                }
            }
            order.sort_by(|a, b| {
                cache.regs[a.0].handles[a.1]
                    .0
                    .cmp(&cache.regs[b.0].handles[b.1].0)
            });
            let mut merged_names = Vec::with_capacity(order.len());
            let mut merged_values = Vec::with_capacity(order.len());
            cache.positions = cache
                .regs
                .iter()
                .map(|rc| vec![0; rc.handles.len()])
                .collect();
            for (m, (k, j)) in order.iter().enumerate() {
                let (name, handle) = &cache.regs[*k].handles[*j];
                merged_names.push(name.clone());
                merged_values.push(handle.get());
                cache.positions[*k][*j] = m;
            }
            self.merges.add(regs_list.len() as u64);
            cache.counter_names = Arc::new(merged_names);
            cache.counter_values = Arc::new(merged_values);
        } else {
            // Counters only grow: one was written since the base was taken
            // exactly when it differs from it. Copy on the first difference.
            let base: &[u64] = &cache.counter_values;
            let mut scattered: Option<Vec<u64>> = None;
            for (rc, positions) in cache.regs.iter().zip(&cache.positions) {
                let mut moved = false;
                for ((_, handle), &m) in rc.handles.iter().zip(positions) {
                    let v = handle.get();
                    if v != base[m] {
                        scattered.get_or_insert_with(|| base.to_vec())[m] = v;
                        moved = true;
                    }
                }
                if moved {
                    self.merges.inc();
                } else {
                    self.skipped.inc();
                }
            }
            if let Some(values) = scattered {
                cache.counter_values = Arc::new(values);
            }
        }

        // --- profiles: shared merged base with per-stripe dirtiness ---
        let (profiles, total_completed, dirty, clean) = self.profiles.snapshot_shared();
        self.merges.add(dirty as u64);
        self.skipped.add(clean as u64);

        cache.valid = true;
        IntrospectionSnapshot {
            t_ns,
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            metric_names: names,
            values: cache.values.clone(),
            counter_names: cache.counter_names.clone(),
            counter_values: cache.counter_values.clone(),
            profiles,
            total_completed,
            active_tasks: self.concurrency.active_tasks(),
            online_workers: self.concurrency.online_workers(),
            peak_tasks: self.concurrency.peak_tasks(),
        }
    }

    /// From-scratch capture that bypasses the delta cache entirely:
    /// evaluates every source, re-collects and re-sorts every counter,
    /// re-merges every profile stripe. The verification oracle for the
    /// incremental path (property tests assert `capture` ≡
    /// `capture_uncached` field for field at quiescence) and the
    /// benchmark baseline.
    pub fn capture_uncached(&self, t_ns: u64) -> IntrospectionSnapshot {
        let (sources, names, regs_list) = {
            let inner = self.inner.read();
            (
                inner.sources.clone(),
                inner.names.clone(),
                inner.counters.clone(),
            )
        };
        let values: Vec<Option<f64>> = sources.iter().map(|s| s.eval()).collect();
        let mut counters: Vec<(String, u64)> = regs_list
            .iter()
            .flat_map(|c| c.snapshot_counters())
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let (counter_names, counter_values): (Vec<String>, Vec<u64>) = counters.into_iter().unzip();
        IntrospectionSnapshot {
            t_ns,
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            metric_names: names,
            values: Arc::new(values),
            counter_names: Arc::new(counter_names),
            counter_values: Arc::new(counter_values),
            profiles: Arc::new(self.profiles.snapshot_uncached()),
            total_completed: self.profiles.total_completed(),
            active_tasks: self.concurrency.active_tasks(),
            online_workers: self.concurrency.online_workers(),
            peak_tasks: self.concurrency.peak_tasks(),
        }
    }
}

impl std::fmt::Debug for Introspection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Introspection")
            .field("metrics", &inner.sources.len())
            .field("counter_registries", &inner.counters.len())
            .field("merges", &self.merges.sum())
            .field("skipped", &self.skipped.sum())
            .finish()
    }
}

/// A point-in-time view of everything the observation layer knows:
/// registered metric values, counters, per-task profiles, and concurrency
/// gauges. Immutable once captured; `Clone` is cheap — every bulk field
/// (metric names and values, counter names and values, profiles) is a
/// shared `Arc`, so cloning bumps five refcounts and copies six scalars.
#[derive(Clone, Debug)]
pub struct IntrospectionSnapshot {
    /// Capture time (virtual or wall, per the instance clock).
    pub t_ns: u64,
    /// Capture sequence within the producing [`Introspection`] (1-based).
    pub seq: u64,
    /// Tasks completed since the profiler started (or was reset).
    pub total_completed: u64,
    /// Tasks executing right now.
    pub active_tasks: i64,
    /// Workers currently online.
    pub online_workers: i64,
    /// High-water mark of concurrent tasks: the sum of each emitting
    /// thread's own peak — an upper bound, exact for a single emitter
    /// (see [`ConcurrencyListener::peak_tasks`]).
    pub peak_tasks: i64,
    pub(crate) metric_names: Arc<Vec<String>>,
    /// Indexed by `MetricId`; `None` when a source had nothing to report
    /// (empty sample window, non-finite gauge).
    pub(crate) values: Arc<Vec<Option<f64>>>,
    /// Counter names, sorted, parallel to `counter_values`. Interned:
    /// consecutive snapshots share the same `Arc` until a counter is
    /// created.
    pub(crate) counter_names: Arc<Vec<String>>,
    pub(crate) counter_values: Arc<Vec<u64>>,
    pub(crate) profiles: Arc<ProfileSnapshot>,
}

impl IntrospectionSnapshot {
    /// A snapshot with no metrics, no counters, and no profiles — what a
    /// policy sees before any introspection facade is attached.
    pub(crate) fn empty(t_ns: u64) -> Self {
        Self {
            t_ns,
            seq: 0,
            total_completed: 0,
            active_tasks: 0,
            online_workers: 0,
            peak_tasks: 0,
            metric_names: Arc::new(Vec::new()),
            values: Arc::new(Vec::new()),
            counter_names: Arc::new(Vec::new()),
            counter_values: Arc::new(Vec::new()),
            profiles: Arc::new(Vec::new()),
        }
    }

    /// The value of a registered metric at capture time, by id.
    pub fn value(&self, id: MetricId) -> Option<f64> {
        self.values.get(id.0 as usize).copied().flatten()
    }

    /// Name-based metric lookup (edge/report use; hot paths hold ids).
    pub fn value_by_name(&self, name: &str) -> Option<f64> {
        let i = self.metric_names.iter().position(|n| n == name)?;
        self.values[i].as_ref().copied()
    }

    /// Tenant-scoped metric lookup: `value_scoped(t3, "rate")` reads
    /// `"t3.rate"`. Edge/report use, like [`Self::value_by_name`].
    pub fn value_scoped(&self, tenant: crate::tenant::TenantId, name: &str) -> Option<f64> {
        self.value_by_name(&tenant.scoped(name))
    }

    /// Metric names in id order.
    pub fn metric_names(&self) -> &[String] {
        &self.metric_names
    }

    /// All metric (name, value) pairs in id order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, Option<f64>)> {
        self.metric_names
            .iter()
            .map(|n| n.as_str())
            .zip(self.values.iter().copied())
    }

    /// A counter's value at capture time.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counter_values[i])
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|n| n.as_str())
            .zip(self.counter_values.iter().copied())
    }

    /// Number of counters in this snapshot.
    pub fn counter_count(&self) -> usize {
        self.counter_names.len()
    }

    /// Per-task profiles at capture time.
    pub fn profiles(&self) -> &[TaskProfile] {
        &self.profiles
    }

    /// The shared profile vector itself. Consecutive idle captures return
    /// the same `Arc` (pointer-equal), which is also how a multi-tenant
    /// reader can hold many tenants' profiles without copying.
    pub fn profiles_arc(&self) -> Arc<ProfileSnapshot> {
        self.profiles.clone()
    }

    /// One task's profile, by name.
    pub fn profile(&self, name: &str) -> Option<&TaskProfile> {
        self.profiles.iter().find(|p| p.name == name)
    }
}

/// Completed tasks per second between two `(t_ns, total_completed)`
/// readings; `None` unless time advanced. The one definition behind the
/// regression watchdog's snapshot rate and the arbiter's `t<i>.rate`
/// mirror.
pub(crate) fn completed_rate(prev: (u64, u64), now: (u64, u64)) -> Option<f64> {
    let dt_ns = now.0.checked_sub(prev.0).filter(|&d| d > 0)?;
    let done = now.1.saturating_sub(prev.1);
    Some(done as f64 / (dt_ns as f64 / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TaskNames};
    use crate::listener::Listener;
    use std::sync::atomic::AtomicU64 as Au64;

    fn facade() -> (
        Arc<ProfileListener>,
        Arc<ConcurrencyListener>,
        Introspection,
    ) {
        let names = TaskNames::new();
        let profiles = Arc::new(ProfileListener::new(names.clone()));
        let concurrency = Arc::new(ConcurrencyListener::new(64));
        let intro = Introspection::new(profiles.clone(), concurrency.clone());
        (profiles, concurrency, intro)
    }

    #[test]
    fn gauge_values_are_captured_by_id_and_name() {
        let (_, _, intro) = facade();
        let cell = Arc::new(Au64::new(41));
        let c = cell.clone();
        let id = intro.register_gauge("x", move || c.load(Ordering::Relaxed) as f64);
        cell.store(42, Ordering::Relaxed);
        let snap = intro.capture(7);
        assert_eq!(snap.t_ns, 7);
        assert_eq!(snap.value(id), Some(42.0));
        assert_eq!(snap.value_by_name("x"), Some(42.0));
        assert_eq!(intro.metric_id("x"), Some(id));
        assert_eq!(snap.value_by_name("nope"), None);
    }

    #[test]
    fn unstamped_gauges_reevaluate_every_capture() {
        let (_, _, intro) = facade();
        let cell = Arc::new(Au64::new(1));
        let c = cell.clone();
        let id = intro.register_gauge("x", move || c.load(Ordering::Relaxed) as f64);
        assert_eq!(intro.capture(0).value(id), Some(1.0));
        cell.store(2, Ordering::Relaxed);
        assert_eq!(intro.capture(1).value(id), Some(2.0));
    }

    #[test]
    fn stamped_gauges_are_cached_until_the_stamp_moves() {
        let (_, _, intro) = facade();
        let cell = Arc::new(Au64::new(1));
        let stamp = Arc::new(Au64::new(0));
        let c = cell.clone();
        let evals = Arc::new(Au64::new(0));
        let e = evals.clone();
        let id = intro.register_gauge_stamped("x", stamp.clone(), move || {
            e.fetch_add(1, Ordering::Relaxed);
            c.load(Ordering::Relaxed) as f64
        });
        assert_eq!(intro.capture(0).value(id), Some(1.0));
        assert_eq!(evals.load(Ordering::Relaxed), 1);
        // Value changed but stamp not bumped: the cached value is served
        // and the closure does not run.
        cell.store(2, Ordering::Relaxed);
        assert_eq!(intro.capture(1).value(id), Some(1.0));
        assert_eq!(evals.load(Ordering::Relaxed), 1);
        stamp.fetch_add(1, Ordering::Release);
        assert_eq!(intro.capture(2).value(id), Some(2.0));
        assert_eq!(evals.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn window_mean_reads_sample_history() {
        let names = TaskNames::new();
        let history = Arc::new(SampleHistoryListener::new(names.clone(), 64));
        let (_, _, intro) = facade();
        let metric = names.intern("power");
        for (t, v) in [(10u64, 10.0f64), (20, 20.0), (30, 30.0)] {
            history.on_event(&Event::SampleValue {
                metric,
                value: v,
                t_ns: t,
            });
        }
        let id = intro.register_window_mean("power.mean", history.clone(), "power", 100);
        let snap = intro.capture(30);
        assert_eq!(snap.value(id), Some(20.0));
        // New samples move the stamp and refresh the cached mean.
        history.on_event(&Event::SampleValue {
            metric,
            value: 60.0,
            t_ns: 40,
        });
        assert_eq!(intro.capture(40).value(id), Some(30.0));
    }

    #[test]
    fn window_mean_of_a_non_finite_sample_reads_none() {
        let names = TaskNames::new();
        let history = Arc::new(SampleHistoryListener::new(names.clone(), 64));
        let (_, _, intro) = facade();
        let metric = names.intern("power");
        let id = intro.register_window_mean("power.mean", history.clone(), "power", 100);
        assert_eq!(intro.capture(0).value(id), None, "no samples yet");
        for (t, v) in [(10u64, 10.0f64), (20, f64::NAN)] {
            history.on_event(&Event::SampleValue {
                metric,
                value: v,
                t_ns: t,
            });
        }
        assert_eq!(intro.capture(20).value(id), None, "NaN in the window");
        // Once the NaN leaves the trailing window the mean reads again.
        history.on_event(&Event::SampleValue {
            metric,
            value: 30.0,
            t_ns: 200,
        });
        assert_eq!(intro.capture(200).value(id), Some(30.0));
    }

    #[test]
    fn counters_appear_sorted_and_queryable() {
        let (_, _, intro) = facade();
        let reg = Arc::new(CounterRegistry::new());
        reg.counter("b.two").add(2);
        reg.counter("a.one").add(1);
        intro.register_counters(reg);
        let snap = intro.capture(0);
        assert_eq!(snap.counter("a.one"), Some(1));
        assert_eq!(snap.counter("b.two"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        let names: Vec<&str> = snap.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }

    #[test]
    fn counter_updates_between_captures_are_visible() {
        let (_, _, intro) = facade();
        let reg = Arc::new(CounterRegistry::new());
        let c = reg.counter("c");
        intro.register_counters(reg.clone());
        c.add(1);
        assert_eq!(intro.capture(0).counter("c"), Some(1));
        c.add(2);
        assert_eq!(intro.capture(1).counter("c"), Some(3));
        // A counter created after the first capture appears too.
        reg.counter("d").add(9);
        let snap = intro.capture(2);
        assert_eq!(snap.counter("d"), Some(9));
        assert_eq!(snap.counter("c"), Some(3));
    }

    #[test]
    fn idle_capture_performs_zero_shard_merges_and_shares_storage() {
        let (profiles, _, intro) = facade();
        let names = TaskNames::new();
        let reg = Arc::new(CounterRegistry::new());
        reg.counter("c").add(5);
        intro.register_counters(reg.clone());
        let stamp = Arc::new(Au64::new(0));
        intro.register_gauge_stamped("g", stamp.clone(), || 1.0);
        let task = names.intern("w");
        profiles.on_event(&Event::TaskEnd {
            task,
            worker: 0,
            t_ns: 10,
            elapsed_ns: 10,
        });
        // Warm the cache.
        let warm = intro.capture(0);
        let merges_after_warm = intro.merges();
        assert!(merges_after_warm > 0, "first capture merges dirty shards");

        // Idle capture: zero merges, every shard skipped, storage shared.
        let skipped_before = intro.skipped();
        let idle = intro.capture(1);
        assert_eq!(
            intro.merges(),
            merges_after_warm,
            "idle capture merges nothing"
        );
        assert!(intro.skipped() > skipped_before);
        assert!(Arc::ptr_eq(&warm.counter_values, &idle.counter_values));
        assert!(Arc::ptr_eq(&warm.counter_names, &idle.counter_names));
        assert!(Arc::ptr_eq(&warm.profiles, &idle.profiles));
        assert!(Arc::ptr_eq(&warm.values, &idle.values));
        assert_eq!(idle.t_ns, 1);
        assert_eq!(idle.seq, warm.seq + 1);

        // A write dirties exactly one registry again.
        reg.counter("c").inc();
        let after_write = intro.capture(2);
        assert!(intro.merges() > merges_after_warm);
        assert_eq!(after_write.counter("c"), Some(6));
        assert!(!Arc::ptr_eq(
            &idle.counter_values,
            &after_write.counter_values
        ));
        assert!(
            Arc::ptr_eq(&idle.counter_names, &after_write.counter_names),
            "value writes reuse the interned name table"
        );
    }

    #[test]
    fn capture_uncached_matches_capture() {
        let (profiles, _, intro) = facade();
        let names = TaskNames::new();
        let reg = Arc::new(CounterRegistry::new());
        reg.counter("a").add(3);
        reg.striped_counter("b").add(7);
        intro.register_counters(reg);
        intro.register_gauge("g", || 2.5);
        let task = names.intern("w");
        profiles.on_event(&Event::TaskEnd {
            task,
            worker: 0,
            t_ns: 10,
            elapsed_ns: 10,
        });
        for _ in 0..3 {
            let snap = intro.capture(5);
            let full = intro.capture_uncached(5);
            assert_eq!(snap.t_ns, full.t_ns);
            assert_eq!(snap.total_completed, full.total_completed);
            assert_eq!(*snap.values, *full.values);
            assert_eq!(*snap.counter_names, *full.counter_names);
            assert_eq!(*snap.counter_values, *full.counter_values);
            assert_eq!(*snap.profiles, *full.profiles);
        }
    }

    #[test]
    fn profiles_and_concurrency_ride_along() {
        let names = TaskNames::new();
        let profiles = Arc::new(ProfileListener::new(names.clone()));
        let concurrency = Arc::new(ConcurrencyListener::new(64));
        let intro = Introspection::new(profiles.clone(), concurrency.clone());
        let task = names.intern("work");
        let begin = Event::TaskBegin {
            task,
            worker: 0,
            t_ns: 0,
        };
        let end = Event::TaskEnd {
            task,
            worker: 0,
            t_ns: 100,
            elapsed_ns: 100,
        };
        profiles.on_event(&begin);
        concurrency.on_event(&begin);
        profiles.on_event(&end);
        concurrency.on_event(&end);
        let snap = intro.capture(100);
        assert_eq!(snap.total_completed, 1);
        assert_eq!(snap.profile("work").unwrap().count, 1);
        assert_eq!(snap.peak_tasks, 1);
        assert_eq!(snap.active_tasks, 0);
    }

    #[test]
    fn throughput_diffs_consecutive_snapshots() {
        let a = (1_000_000_000, 100);
        let b = (2_000_000_000, 350);
        assert_eq!(completed_rate(a, b), Some(250.0));
        assert_eq!(completed_rate(b, a), None, "time must advance");
        assert_eq!(completed_rate(a, a), None, "zero dt is undefined");
    }

    #[test]
    fn reregistering_a_metric_keeps_its_id() {
        let (_, _, intro) = facade();
        let id = intro.register_gauge("g", || 1.0);
        let id2 = intro.register_gauge("g", || 2.0);
        assert_eq!(id, id2);
        assert_eq!(intro.capture(0).value(id), Some(2.0));
        assert_eq!(intro.metric_names(), vec!["g".to_string()]);
        // Re-registering after captures invalidates the cached value.
        intro.register_gauge("g", || 3.0);
        assert_eq!(intro.capture(1).value(id), Some(3.0));
    }

    #[test]
    fn non_finite_gauges_read_as_none() {
        let (_, _, intro) = facade();
        let id = intro.register_gauge("nan", || f64::NAN);
        assert_eq!(intro.capture(0).value(id), None);
    }
}
