//! Listener trait and fan-out dispatcher.
//!
//! The dispatcher is the single point every event flows through, so its
//! hot path must not touch shared mutable cache lines. The listener list
//! is an [`lg_metrics::stripe::Versioned`] value: each emitting thread
//! caches an `Arc` of it, revalidated per event by one atomic load of a
//! generation counter that registration bumps. In steady state (no
//! registrations) a dispatch is: one `enabled` load, one generation load,
//! a thread-local lookup, and the listener calls — no lock, no shared
//! `Arc` refcount traffic, and the dispatcher's own counters are striped
//! per thread and folded on read. What the *listeners* then write is
//! theirs to keep off shared lines; DESIGN.md §4.1 tabulates every write
//! a stock instance makes per event and whose line it lands on.
//!
//! ## Grace-period semantics of `deregister`
//!
//! Removing a listener bumps the generation, so any dispatch that *begins*
//! after [`Dispatcher::deregister`] returns revalidates, misses the
//! generation, refreshes from the shared list, and does not deliver to the
//! removed listener. A thread already *inside* `dispatch` (its generation
//! load happened before the bump) finishes delivering its current event to
//! the old snapshot. The staleness is therefore bounded by **one in-flight
//! event per emitting thread** — never unbounded — which is benign for
//! observation: listeners are passive consumers and must already tolerate
//! events racing their registration. The same bound applies to
//! [`Dispatcher::set_enabled`] for the same reason.
//!
//! Thread-local snapshots also pin the listener `Arc`s of up to
//! [`SNAPSHOT_CACHE_MAX`] recently read versioned values per thread
//! (evicted FIFO), so a dropped listener's memory may outlive
//! deregistration until the caching threads dispatch again, evict, or
//! exit.

use crate::event::Event;
use lg_metrics::stripe::Versioned;
pub use lg_metrics::stripe::SNAPSHOT_CACHE_MAX;
use lg_metrics::StripedCounter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A consumer of observation events.
///
/// Listeners must be fast and must not block: they run inline on the
/// emitting thread (a runtime worker, the sampler, or the policy ticker).
pub trait Listener: Send + Sync {
    /// Short name for diagnostics.
    fn name(&self) -> &str;
    /// Handles one event.
    fn on_event(&self, event: &Event);
}

/// Handle returned by [`Dispatcher::register`]; pass to
/// [`Dispatcher::deregister`] to remove the listener.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListenerHandle(u64);

/// A registered listener with its registration id.
type ListenerEntry = (u64, Arc<dyn Listener>);

/// Generation-snapshot fan-out of events to registered listeners.
///
/// Registration is copy-on-write under a lock and bumps the list's
/// generation; dispatch validates a thread-local snapshot against it and
/// runs the listeners with no lock held and no shared-line writes.
pub struct Dispatcher {
    listeners: Versioned<Vec<ListenerEntry>>,
    next_id: AtomicU64,
    enabled: AtomicBool,
    /// Events accepted by `dispatch` while enabled (striped per thread).
    events: StripedCounter,
    /// Listener invocations, i.e. events × listeners (striped per thread).
    deliveries: StripedCounter,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Dispatcher {
    /// Creates a dispatcher with no listeners, enabled.
    pub fn new() -> Self {
        Self {
            listeners: Versioned::new(Vec::new()),
            next_id: AtomicU64::new(1),
            enabled: AtomicBool::new(true),
            events: StripedCounter::new(),
            deliveries: StripedCounter::new(),
        }
    }

    /// Registers a listener; events are delivered from this call onward.
    pub fn register(&self, listener: Arc<dyn Listener>) -> ListenerHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.listeners.update(|current| {
            let mut next = current.clone();
            next.push((id, listener));
            (next, ())
        });
        ListenerHandle(id)
    }

    /// Removes a previously registered listener. Returns true if found.
    ///
    /// Removal has a bounded grace period: emitters already inside
    /// `dispatch` deliver at most their one in-flight event to the old
    /// snapshot; dispatches beginning after this returns never deliver to
    /// the removed listener (see the module docs).
    pub fn deregister(&self, handle: ListenerHandle) -> bool {
        self.listeners.update(|current| {
            let next: Vec<ListenerEntry> = current
                .iter()
                .filter(|(id, _)| *id != handle.0)
                .cloned()
                .collect();
            let removed = next.len() != current.len();
            (next, removed)
        })
    }

    /// Globally enables or disables dispatch (the "observation off" switch;
    /// the overhead experiment measures both sides of it).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether dispatch is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Number of registered listeners.
    pub fn listener_count(&self) -> usize {
        self.listeners.load().len()
    }

    /// Events accepted by [`Dispatcher::dispatch`] while enabled,
    /// regardless of how many listeners (possibly zero) received them.
    pub fn events_dispatched(&self) -> u64 {
        self.events.sum()
    }

    /// Listener invocations: each event counts once per listener it was
    /// delivered to. With `L` listeners registered throughout,
    /// `deliveries == events_dispatched × L`.
    pub fn deliveries(&self) -> u64 {
        self.deliveries.sum()
    }

    /// Delivers `event` to every registered listener.
    ///
    /// A listener that itself dispatches (to this or any other dispatcher)
    /// is served from the shared list under its read lock instead of the
    /// thread-local snapshot — slower, still correct.
    #[inline]
    pub fn dispatch(&self, event: &Event) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        self.events.inc();
        let delivered = self.listeners.read(|listeners| {
            for (_, l) in listeners {
                l.on_event(event);
            }
            listeners.len()
        });
        self.deliveries.add(delivered as u64);
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("listeners", &self.listener_count())
            .field("enabled", &self.is_enabled())
            .field("events_dispatched", &self.events_dispatched())
            .field("deliveries", &self.deliveries())
            .finish()
    }
}

/// A listener that forwards events to a closure — handy in tests and for
/// one-off hooks.
pub struct FnListener<F: Fn(&Event) + Send + Sync> {
    name: String,
    f: F,
}

impl<F: Fn(&Event) + Send + Sync> FnListener<F> {
    /// Wraps `f` as a listener called `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&Event) + Send + Sync> Listener for FnListener<F> {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_event(&self, event: &Event) {
        (self.f)(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskNames;
    use std::sync::atomic::AtomicUsize;

    fn tick(t: u64) -> Event {
        Event::PeriodicTick { t_ns: t }
    }

    #[test]
    fn delivers_to_all_listeners() {
        let d = Dispatcher::new();
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let (ac, bc) = (a.clone(), b.clone());
        d.register(Arc::new(FnListener::new("a", move |_| {
            ac.fetch_add(1, Ordering::Relaxed);
        })));
        d.register(Arc::new(FnListener::new("b", move |_| {
            bc.fetch_add(1, Ordering::Relaxed);
        })));
        d.dispatch(&tick(1));
        d.dispatch(&tick(2));
        assert_eq!(a.load(Ordering::Relaxed), 2);
        assert_eq!(b.load(Ordering::Relaxed), 2);
        assert_eq!(d.events_dispatched(), 2);
        assert_eq!(d.deliveries(), 4);
    }

    #[test]
    fn deregister_stops_delivery() {
        let d = Dispatcher::new();
        let n = Arc::new(AtomicUsize::new(0));
        let nc = n.clone();
        let h = d.register(Arc::new(FnListener::new("x", move |_| {
            nc.fetch_add(1, Ordering::Relaxed);
        })));
        d.dispatch(&tick(1));
        assert!(d.deregister(h));
        d.dispatch(&tick(2));
        assert_eq!(n.load(Ordering::Relaxed), 1);
        assert!(!d.deregister(h), "double deregister must return false");
    }

    #[test]
    fn disabled_dispatch_is_a_noop() {
        let d = Dispatcher::new();
        let n = Arc::new(AtomicUsize::new(0));
        let nc = n.clone();
        d.register(Arc::new(FnListener::new("x", move |_| {
            nc.fetch_add(1, Ordering::Relaxed);
        })));
        d.set_enabled(false);
        d.dispatch(&tick(1));
        assert_eq!(n.load(Ordering::Relaxed), 0);
        assert_eq!(d.events_dispatched(), 0, "disabled events are not counted");
        d.set_enabled(true);
        d.dispatch(&tick(2));
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_dispatcher_counts_events_but_no_deliveries() {
        let d = Dispatcher::new();
        d.dispatch(&tick(1));
        assert_eq!(d.events_dispatched(), 1);
        assert_eq!(d.deliveries(), 0);
    }

    #[test]
    fn adding_a_listener_no_longer_inflates_event_count() {
        // The pre-split `dispatched` counter counted events × listeners;
        // `events_dispatched` must stay listener-count-independent.
        let d = Dispatcher::new();
        d.register(Arc::new(FnListener::new("a", |_| {})));
        d.dispatch(&tick(1));
        d.register(Arc::new(FnListener::new("b", |_| {})));
        d.dispatch(&tick(2));
        assert_eq!(d.events_dispatched(), 2);
        assert_eq!(d.deliveries(), 3, "1×1 listener + 1×2 listeners");
    }

    #[test]
    fn listener_can_be_registered_during_concurrent_dispatch() {
        let d = Arc::new(Dispatcher::new());
        let stop = Arc::new(AtomicBool::new(false));
        let emitter = {
            let d = d.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut t = 0;
                while !stop.load(Ordering::Relaxed) {
                    d.dispatch(&tick(t));
                    t += 1;
                }
            })
        };
        for i in 0..50 {
            let h = d.register(Arc::new(FnListener::new(format!("l{i}"), |_| {})));
            if i % 2 == 0 {
                d.deregister(h);
            }
        }
        stop.store(true, Ordering::Relaxed);
        emitter.join().unwrap();
        assert_eq!(d.listener_count(), 25);
    }

    #[test]
    fn events_carry_payloads_through() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let d = Dispatcher::new();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sc = seen.clone();
        d.register(Arc::new(FnListener::new("rec", move |e| {
            sc.lock().push(*e)
        })));
        let e = Event::TaskEnd {
            task: id,
            worker: 3,
            t_ns: 77,
            elapsed_ns: 11,
        };
        d.dispatch(&e);
        assert_eq!(seen.lock().as_slice(), &[e]);
    }

    #[test]
    fn reentrant_dispatch_falls_back_and_delivers() {
        // A listener that dispatches to a second dispatcher from inside
        // the first's delivery: the inner dispatch must still deliver
        // (via the uncached slow path) and count correctly.
        let inner = Arc::new(Dispatcher::new());
        let hits = Arc::new(AtomicUsize::new(0));
        let hc = hits.clone();
        inner.register(Arc::new(FnListener::new("inner", move |_| {
            hc.fetch_add(1, Ordering::Relaxed);
        })));
        let outer = Dispatcher::new();
        let ic = inner.clone();
        outer.register(Arc::new(FnListener::new("relay", move |e| {
            ic.dispatch(e);
        })));
        outer.dispatch(&tick(1));
        outer.dispatch(&tick(2));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(inner.events_dispatched(), 2);
        assert_eq!(inner.deliveries(), 2);
        assert_eq!(outer.deliveries(), 2);
    }

    #[test]
    fn listener_registering_listener_does_not_deadlock() {
        let d = Arc::new(Dispatcher::new());
        let dc = d.clone();
        let registered = Arc::new(AtomicBool::new(false));
        let rc = registered.clone();
        d.register(Arc::new(FnListener::new("self-mod", move |_| {
            if !rc.swap(true, Ordering::Relaxed) {
                dc.register(Arc::new(FnListener::new("late", |_| {})));
            }
        })));
        d.dispatch(&tick(1));
        // The registration from inside dispatch is visible afterwards.
        assert_eq!(d.listener_count(), 2);
        d.dispatch(&tick(2));
        assert_eq!(d.deliveries(), 1 + 2);
    }

    #[test]
    fn many_dispatchers_on_one_thread_stay_correct_past_cache_capacity() {
        // More live dispatchers than SNAPSHOT_CACHE_MAX: eviction must
        // only cost a refresh, never misdeliver or miscount.
        let hits = Arc::new(AtomicUsize::new(0));
        let ds: Vec<Dispatcher> = (0..SNAPSHOT_CACHE_MAX + 4)
            .map(|_| {
                let d = Dispatcher::new();
                let hc = hits.clone();
                d.register(Arc::new(FnListener::new("l", move |_| {
                    hc.fetch_add(1, Ordering::Relaxed);
                })));
                d
            })
            .collect();
        for round in 0..3u64 {
            for d in &ds {
                d.dispatch(&tick(round));
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 3 * ds.len());
        for d in &ds {
            assert_eq!(d.events_dispatched(), 3);
            assert_eq!(d.deliveries(), 3);
        }
    }
}
