//! Listener trait and fan-out dispatcher.
//!
//! Every event flows through the dispatcher, so its hot path touches no
//! shared mutable cache line: a steady-state delivery is one `enabled`
//! load, a look at the thread's deferred buffer, **one lock of the
//! emitting thread's own stripe**, under which it reads the stripe's copy
//! of the listener list, and one call per listener.
//!
//! ## One lock, two phases, one call per listener
//!
//! The dispatcher's per-stripe state (the private `stripe` module) holds
//! its `events` / `deliveries` counters and the state of the stock
//! listeners a [`crate::LookingGlass`] builds ([`crate::ProfileListener`],
//! [`crate::ConcurrencyListener`], [`crate::TraceListener`]). A delivery
//! — one event from `dispatch`, or a deferred batch — runs in two phases,
//! each listener called once with the whole slice:
//!
//! 1. lock the emitter's stripe, read its listener list, bump the
//!    counters, and hand the events and the locked state to every listener
//!    built on these stripes;
//! 2. **release the lock**, then call every other listener's
//!    [`Listener::on_batch`]: the policy engine, the sample history,
//!    custom listeners, a stock listener on stripes of its own — unless
//!    all are idle, as an engine without event-triggered policies is.
//!    The list goes past the unlock in a clone of the stripe's own handle
//!    on it, so no two stripes' emitters write one refcount line.
//!
//! Phase 2 is outside the lock because a triggered policy captures a
//! snapshot, which locks every stripe. The invariant — *no listener runs
//! user code or locks a second stripe while a stripe lock is held* — holds
//! by construction: the types phase 1 needs are not nameable outside this
//! crate. Within a phase listeners run in registration order (DESIGN.md
//! §4.1 tabulates every write).
//!
//! ## Deferred delivery
//!
//! [`crate::LookingGlass::emit_deferred`] (the runtime's per-task path)
//! appends the event to a per-thread buffer of [`DEFERRED_CAPACITY`]
//! events, delivered as one batch when it fills, at [`flush_deferred`],
//! when the thread exits, and first thing in any ordinary
//! [`Dispatcher::dispatch`] on the thread. Timestamps are taken at emit
//! and each thread's events reach every listener in emission order, so
//! once delivered, profiles, concurrency history and traces are exactly
//! what per-event delivery makes them. An outside listener sees the batch
//! whole before the next one sees any of it: the policy engine runs its
//! event-triggered rounds there, one per matching event, so a policy on a
//! task event fires at the flush. Until delivery *every* listener lags: a
//! mid-run read misses up to 63 events per thread; `scope` and `wait_idle`
//! return only after delivery. An event emitted from inside a batch is
//! delivered at once. An event is accepted if the dispatcher is enabled
//! when it is emitted, and goes to the listeners registered when its
//! batch is delivered.
//!
//! ## Grace-period semantics of `deregister`
//!
//! [`Dispatcher::deregister`] publishes the new list to every stripe, under
//! its lock, before it returns: a dispatch that *begins* after that does
//! not reach the removed listener, and one already inside finishes on the
//! list it read. Staleness is bounded by **one in-flight delivery per
//! emitting thread**, which passive listeners already tolerate; the same
//! holds for [`Dispatcher::set_enabled`] and for `register`.

use crate::event::Event;
use crate::stripe::{Stripe, StripeState, Stripes};
use lg_metrics::stripe::{thread_stripe, CacheAligned};
use parking_lot::Mutex;
use std::cell::RefCell;
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

    /// Handles a batch of one thread's events, in the order they were
    /// emitted. The dispatcher calls it once per delivery — a single event
    /// for an ordinary dispatch, a whole deferred batch at a flush. The
    /// default hands each event to [`Listener::on_event`].
    fn on_batch(&self, events: &[Event]) {
        events.iter().for_each(|e| self.on_event(e));
    }

    /// The per-stripe state this listener is a view over, if it is one of
    /// the stock listeners. A dispatcher that owns the same stripes
    /// delivers through [`Listener::on_batch_locked`] inside its one
    /// stripe lock; everyone else gets [`Listener::on_batch`] after it.
    #[doc(hidden)]
    fn stripes(&self) -> Option<&Arc<Stripes>> {
        None
    }

    /// Handles a batch with the calling thread's stripe of
    /// [`Listener::stripes`] already locked. Must not run user code or
    /// lock another stripe.
    #[doc(hidden)]
    fn on_batch_locked(&self, _events: &[Event], _stripe: &Stripe, _state: &mut StripeState) {
        unreachable!("a listener that names its stripes handles events under their lock")
    }

    /// True if `on_batch` would ignore a batch now. Must not run user code.
    #[doc(hidden)]
    fn idle(&self, _stripe: &Stripe) -> bool {
        false
    }
}

/// Handle returned by [`Dispatcher::register`]; pass to
/// [`Dispatcher::deregister`] to remove the listener.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListenerHandle(u64);

/// A registered listener with its registration id.
type ListenerEntry = (u64, Arc<dyn Listener>);

/// The registered listeners, split by delivery phase (module docs), each
/// half in registration order.
#[derive(Clone, Default)]
pub(crate) struct Listeners {
    /// Built on the dispatcher's stripes: run inside the stripe lock.
    inside: Vec<ListenerEntry>,
    /// Everyone else: run after it is released.
    outside: Vec<ListenerEntry>,
}

impl Listeners {
    fn len(&self) -> usize {
        self.inside.len() + self.outside.len()
    }
}

/// Fan-out of events to registered listeners: one stripe lock per
/// delivery, with the listener list read under it (module docs).
pub struct Dispatcher {
    /// The registered listeners; every stripe holds one shared copy.
    listeners: Mutex<Listeners>,
    next_id: AtomicU64,
    enabled: AtomicBool,
    /// Per-stripe state: the `events` / `deliveries` counters, and the
    /// state of every listener built on it.
    stripes: Arc<Stripes>,
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
            listeners: Mutex::default(),
            next_id: AtomicU64::new(1),
            enabled: AtomicBool::new(true),
            stripes: Stripes::new(),
        }
    }

    /// The dispatcher's per-stripe state; a stock listener built `on` it
    /// is delivered to inside the dispatcher's one stripe lock.
    #[doc(hidden)]
    pub fn stripes(&self) -> &Arc<Stripes> {
        &self.stripes
    }

    /// Registers a listener; events are delivered from this call onward.
    pub fn register(&self, listener: Arc<dyn Listener>) -> ListenerHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let inside = listener
            .stripes()
            .is_some_and(|s| Arc::ptr_eq(s, &self.stripes));
        self.update(|list| {
            if inside {
                list.inside.push((id, listener));
            } else {
                list.outside.push((id, listener));
            }
        });
        ListenerHandle(id)
    }

    /// Removes a previously registered listener. Returns true if found.
    /// Deliveries already under way may still reach it; none that begins
    /// after this returns does (module docs).
    pub fn deregister(&self, handle: ListenerHandle) -> bool {
        self.update(|list| {
            let before = list.len();
            list.inside.retain(|(id, _)| *id != handle.0);
            list.outside.retain(|(id, _)| *id != handle.0);
            list.len() != before
        })
    }

    /// Applies `f` to the list and publishes one copy of the result,
    /// holding the list's lock so updates publish in order.
    fn update<R>(&self, f: impl FnOnce(&mut Listeners) -> R) -> R {
        let mut list = self.listeners.lock();
        let out = f(&mut list);
        self.publish(Some(Arc::new(list.clone())));
        out
    }

    /// Puts `list` in every stripe in turn. What it replaces is dropped
    /// unlocked: dropping a listener may run user code.
    fn publish(&self, list: Option<Arc<Listeners>>) {
        for stripe in self.stripes.iter() {
            let mut locked = stripe.lock();
            let _old = (locked.carried.take(), locked.listeners.take());
            locked.listeners = list.clone();
            drop(locked);
        }
    }

    /// Globally enables or disables dispatch (the "observation off" switch;
    /// the overhead experiment measures both sides of it).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Number of registered listeners.
    pub fn listener_count(&self) -> usize {
        self.listeners.lock().len()
    }

    /// Events accepted by [`Dispatcher::dispatch`] while enabled,
    /// regardless of how many listeners (possibly zero) received them.
    /// Folds the stripes under their locks: exact once emitters quiesce.
    pub fn events_dispatched(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().state.events).sum()
    }

    /// Listener invocations: each event counts once per listener it was
    /// delivered to. With `L` listeners registered throughout,
    /// `deliveries == events_dispatched × L`.
    pub fn deliveries(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().state.deliveries).sum()
    }

    /// Delivers `event` to every registered listener as a batch of one
    /// (module docs), after the thread's deferred events, if any.
    #[inline]
    pub fn dispatch(&self, event: &Event) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        flush_deferred();
        self.deliver(std::slice::from_ref(event));
    }

    /// Appends `event` to the calling thread's deferred buffer (module
    /// docs) if the dispatcher is enabled. Returns true if that filled the
    /// buffer and delivered it.
    pub(crate) fn defer(self: &Arc<Self>, event: &Event) -> bool {
        if !self.enabled.load(Ordering::Acquire) {
            return false;
        }
        let deferred = DEFERRED.try_with(|cell| {
            let mut buffer = cell.try_borrow_mut().ok()?;
            Some(buffer.push(self, event))
        });
        deferred.ok().flatten().unwrap_or_else(|| {
            // A listener emitting from inside a batch delivery, or a
            // thread-local destructor after the buffer's: deliver now
            // (module docs).
            self.deliver(std::slice::from_ref(event));
            false
        })
    }

    /// Delivers `events` in order as one batch: one stripe lock, and one
    /// call per listener (module docs). Kept out of line so a disabled
    /// `dispatch` inlines to its `enabled` load.
    #[inline(never)]
    fn deliver(&self, events: &[Event]) {
        let stripe = self.stripes.get(thread_stripe());
        let mut guard = stripe.lock();
        let locked = &mut *guard;
        let (n, state) = (events.len() as u64, &mut locked.state);
        state.events += n;
        let Some(listeners) = &locked.listeners else {
            return;
        };
        state.deliveries += n * listeners.len() as u64;
        for (_, l) in &listeners.inside {
            l.on_batch_locked(events, stripe, state);
        }
        // Carries the list past the unlock, only if phase 2 has work.
        let busy = listeners.outside.iter().any(|(_, l)| !l.idle(stripe));
        let own = || Arc::new(CacheAligned(listeners.clone()));
        let outside = busy.then(|| locked.carried.get_or_insert_with(own).clone());
        drop(guard);
        for (_, l) in outside.iter().flat_map(|own| &own.0.outside) {
            l.on_batch(events);
        }
    }
}

impl Drop for Dispatcher {
    /// Breaks the cycle of stripes holding the stock listeners that hold them.
    fn drop(&mut self) {
        self.publish(None);
    }
}

/// Most events one thread holds back for deferred delivery; the emit that
/// fills the buffer delivers it.
pub const DEFERRED_CAPACITY: usize = 64;

/// One thread's deferred events and the dispatcher they are for.
struct Deferred {
    /// Kept after a flush, so a thread that keeps emitting to one
    /// dispatcher moves no reference count per batch (and pins it until
    /// the thread defers to another one, or exits).
    to: Option<Arc<Dispatcher>>,
    len: usize,
    events: [Event; DEFERRED_CAPACITY],
}

impl Deferred {
    /// Appends `event` for `to`, delivering first whatever is held for
    /// another dispatcher. Returns true if the buffer filled and was
    /// delivered.
    fn push(&mut self, to: &Arc<Dispatcher>, event: &Event) -> bool {
        if !self.to.as_ref().is_some_and(|held| Arc::ptr_eq(held, to)) {
            self.flush();
            self.to = Some(to.clone());
        }
        self.events[self.len] = *event;
        self.len += 1;
        if self.len < DEFERRED_CAPACITY {
            return false;
        }
        self.flush();
        true
    }

    /// Delivers the held events, if any. The buffer stays borrowed
    /// meanwhile, so a listener that emits sees its event delivered at
    /// once (module docs). Emptied before
    /// delivering: a listener that panics loses the rest of the batch
    /// rather than having it delivered twice.
    fn flush(&mut self) {
        let n = std::mem::take(&mut self.len);
        if let (Some(to), 1..) = (&self.to, n) {
            to.deliver(&self.events[..n]);
        }
    }
}

impl Drop for Deferred {
    /// The backstop: a thread that exits with events held delivers them.
    /// A listener panic here would abort the process, so it is dropped.
    fn drop(&mut self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.flush()));
    }
}

thread_local! {
    static DEFERRED: RefCell<Deferred> = const {
        RefCell::new(Deferred {
            to: None,
            len: 0,
            events: [Event::PeriodicTick { t_ns: 0 }; DEFERRED_CAPACITY],
        })
    };
}

/// Delivers the calling thread's deferred events, if it holds any (see
/// [`crate::LookingGlass::emit_deferred`]). A no-op when called from
/// inside a batch delivery.
pub fn flush_deferred() {
    let _ = DEFERRED.try_with(|cell| {
        if let Ok(mut buffer) = cell.try_borrow_mut() {
            buffer.flush();
        }
    });
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("listeners", &self.listener_count())
            .field("enabled", &self.enabled.load(Ordering::Acquire))
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
    fn a_deregister_replaces_the_list_a_stripe_carried() {
        // The first delivery makes the stripe's carried handle on the
        // list; the deregister must replace it, not leave it running.
        let d = Dispatcher::new();
        let (a, b) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (ac, bc) = (a.clone(), b.clone());
        let ha = d.register(Arc::new(FnListener::new("a", move |_| {
            ac.fetch_add(1, Ordering::Relaxed);
        })));
        d.register(Arc::new(FnListener::new("b", move |_| {
            bc.fetch_add(1, Ordering::Relaxed);
        })));
        d.dispatch(&tick(1));
        assert!(d.deregister(ha));
        d.dispatch(&tick(2));
        assert_eq!(
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
            (1, 2)
        );
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
        // the first's delivery, after its stripe lock is released: the
        // inner dispatch must still deliver and count correctly.
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
    fn one_stripe_lock_per_dispatched_event_and_none_while_disabled() {
        use crate::stripe::acquisitions;
        // The count is per thread, so tests running beside this one do
        // not show in it.
        let lg = crate::LookingGlass::builder().trace(64).build();
        let task = lg.intern("t");
        let pair = [
            Event::TaskBegin {
                task,
                worker: 0,
                t_ns: 1,
            },
            Event::TaskEnd {
                task,
                worker: 0,
                t_ns: 2,
                elapsed_ns: 1,
            },
        ];
        let emit = |rounds: u64| {
            let before = acquisitions();
            for _ in 0..rounds {
                pair.iter().for_each(|e| lg.emit(e));
            }
            acquisitions() - before
        };
        // Profiler, concurrency tracker, trace ring, engine and both
        // dispatcher counters: one acquisition covers them all.
        assert_eq!(lg.dispatcher().listener_count(), 4);
        assert_eq!(emit(100), 200);
        assert_eq!(lg.trace().unwrap().captured(), 200);
        lg.dispatcher().set_enabled(false);
        assert_eq!(emit(100), 0);
        lg.dispatcher().set_enabled(true);

        // Deferred: one acquisition per batch of `DEFERRED_CAPACITY`, the
        // last partial one delivered by `flush_deferred`.
        let defer = |rounds: u64| {
            let before = acquisitions();
            for _ in 0..rounds {
                pair.iter().for_each(|e| {
                    lg.emit_deferred(e);
                });
            }
            flush_deferred();
            acquisitions() - before
        };
        assert_eq!(defer(100), 200u64.div_ceil(DEFERRED_CAPACITY as u64));
        assert_eq!(lg.trace().unwrap().captured(), 400);
        assert_eq!(lg.dispatcher().events_dispatched(), 400);
        // An event-triggered policy rides the batch: still one
        // acquisition per batch.
        let policy = lg.policy_engine().register_triggered(
            crate::FnPolicy::new("never", |_, _, _| crate::PolicyDecision::noop()),
            Box::new(|_| false),
        );
        assert_eq!(defer(100), 200u64.div_ceil(DEFERRED_CAPACITY as u64));
        assert_eq!(lg.trace().unwrap().captured(), 600);
        lg.dispatcher().set_enabled(false);
        assert_eq!(defer(100), 0);
        lg.policy_engine().deregister(policy);
        assert_eq!(defer(100), 0);
        lg.dispatcher().set_enabled(true);
        assert_eq!(lg.trace().unwrap().captured(), 600);
        // A stock listener on stripes of its own is delivered after the
        // dispatcher's lock and takes its own: two per event.
        lg.add_listener(Arc::new(crate::TraceListener::new(8)));
        assert_eq!(emit(100), 400);
    }

    #[test]
    fn deferred_events_keep_thread_order_across_dispatchers_and_reentry() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (a, b) = (Arc::new(Dispatcher::new()), Arc::new(Dispatcher::new()));
        for (d, tag) in [(&a, 'a'), (&b, 'b')] {
            let log = log.clone();
            d.register(Arc::new(FnListener::new("rec", move |e| {
                log.lock().push((tag, e.t_ns()))
            })));
        }
        // Emits to `b` from inside the delivery of `a`'s batch.
        let relay = b.clone();
        a.register(Arc::new(FnListener::new("relay", move |e| {
            if e.t_ns() == 2 {
                relay.dispatch(&tick(100));
            }
        })));
        assert!(!a.defer(&tick(1)));
        assert!(!a.defer(&tick(2)));
        assert!(log.lock().is_empty(), "deferred events wait for a flush");
        b.defer(&tick(3)); // another dispatcher: `a`'s batch goes first
        b.dispatch(&tick(4)); // an ordinary dispatch flushes first
        a.defer(&tick(5));
        flush_deferred();
        let order: Vec<_> = log.lock().clone();
        assert_eq!(
            order,
            [('a', 1), ('a', 2), ('b', 100), ('b', 3), ('b', 4), ('a', 5)]
        );
        assert_eq!(a.events_dispatched(), 3);
        assert_eq!(a.deliveries(), 6);
        assert_eq!(b.events_dispatched(), 3);
        // A full buffer delivers itself.
        let filled = (0..DEFERRED_CAPACITY as u64).map(|t| a.defer(&tick(t)));
        assert_eq!(filled.filter(|&f| f).count(), 1);
        assert_eq!(a.events_dispatched(), 3 + DEFERRED_CAPACITY as u64);
    }

    #[test]
    fn an_outside_listener_gets_one_call_per_batch_in_emission_order() {
        /// Records each `on_batch` call's timestamps.
        #[derive(Default)]
        struct Batches(parking_lot::Mutex<Vec<Vec<u64>>>);
        impl Listener for Batches {
            fn name(&self) -> &str {
                "batches"
            }
            fn on_event(&self, _: &Event) {
                unreachable!("the dispatcher hands over whole batches")
            }
            fn on_batch(&self, events: &[Event]) {
                self.0.lock().push(events.iter().map(Event::t_ns).collect());
            }
        }
        let d = Arc::new(Dispatcher::new());
        let batches = Arc::new(Batches::default());
        d.register(batches.clone());
        let n = 2 * DEFERRED_CAPACITY as u64 + 5;
        (0..n).for_each(|t| {
            d.defer(&tick(t));
        });
        flush_deferred();
        d.dispatch(&tick(n));
        let cap = DEFERRED_CAPACITY as u64;
        let expected: Vec<Vec<u64>> = vec![
            (0..cap).collect(),
            (cap..2 * cap).collect(),
            (2 * cap..n).collect(),
            vec![n],
        ];
        assert_eq!(*batches.0.lock(), expected);
        assert_eq!(d.deliveries(), n + 1);
    }

    #[test]
    fn a_thread_exiting_with_deferred_events_delivers_them() {
        let d = Arc::new(Dispatcher::new());
        let n = Arc::new(AtomicUsize::new(0));
        let nc = n.clone();
        d.register(Arc::new(FnListener::new("count", move |_| {
            nc.fetch_add(1, Ordering::Relaxed);
        })));
        let emitter = d.clone();
        std::thread::spawn(move || (0..10).for_each(|t| assert!(!emitter.defer(&tick(t)))))
            .join()
            .unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 10);
        assert_eq!(d.events_dispatched(), 10);
    }

    #[test]
    fn many_dispatchers_on_one_thread_stay_correct() {
        // One thread interleaving deliveries to twenty dispatchers: each
        // reaches only its own listener and counts only its own events.
        let hits = Arc::new(AtomicUsize::new(0));
        let ds: Vec<Dispatcher> = (0..20)
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

    #[test]
    fn a_registration_reaches_a_thread_already_dispatching() {
        use std::time::{Duration, Instant};
        // The emitter delivers once (to an empty list) before the
        // registration, then dispatches until the new listener is hit.
        let d = Arc::new(Dispatcher::new());
        let hits = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(std::sync::Barrier::new(2));
        let emitter = {
            let (d, hits, started) = (d.clone(), hits.clone(), started.clone());
            std::thread::spawn(move || {
                d.dispatch(&tick(0));
                started.wait();
                let deadline = Instant::now() + Duration::from_secs(10);
                while hits.load(Ordering::Relaxed) == 0 {
                    assert!(Instant::now() < deadline, "registration not seen in 10 s");
                    d.dispatch(&tick(1));
                }
            })
        };
        started.wait();
        let hc = hits.clone();
        d.register(Arc::new(FnListener::new("late", move |_| {
            hc.fetch_add(1, Ordering::Relaxed);
        })));
        emitter.join().unwrap();
    }
}
