//! The per-stripe state the stock listeners share, behind one lock.
//!
//! Everything a delivery touches on a stock instance — the listener list,
//! the dispatcher's counters, the profiler's cells, the concurrency
//! history, the trace ring — belongs to the emitting thread's stripe, so it
//! lives in **one** struct per stripe behind **one** mutex, and the stock
//! listeners are views over their field of the locked [`StripeState`].
//! What readers poll without the lock (the profile generation, the
//! concurrency level and peak) sits beside it as atomics only lock holders
//! write.
//!
//! While a stripe lock is held nothing may run user code or lock a second
//! stripe: a snapshot capture locks every stripe in turn. Both types are
//! public only so the [`crate::listener::Listener`] trait can mention
//! them; the module is private, so no listener outside this crate can
//! name them and ask to be run under the lock.

use crate::concurrency::StripeHistory;
use crate::event::Event;
use crate::listener::{Listener, Listeners};
use crate::profile::CellTable;
use crate::trace::Ring;
use lg_metrics::stripe::{thread_stripe, CacheAligned, STRIPE_COUNT};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::Arc;

/// What one stripe keeps under its lock. Every part starts empty and is
/// allocated by the first event that needs it.
#[derive(Default)]
pub struct StripeState {
    /// Events the dispatcher accepted on this stripe.
    pub(crate) events: u64,
    /// Listener invocations those events made.
    pub(crate) deliveries: u64,
    /// The profiler's cells.
    pub(crate) cells: CellTable,
    /// The concurrency tracker's level history.
    pub(crate) history: Option<StripeHistory>,
    /// The trace ring.
    pub(crate) ring: Option<Ring>,
}

/// What a stripe's lock guards, split so a delivery can lend out `state`.
#[derive(Default)]
pub(crate) struct Locked {
    /// The dispatcher's listeners, one copy shared by every stripe.
    pub(crate) listeners: Option<Arc<Listeners>>,
    /// This stripe's own handle on `listeners`, made by its first phase 2
    /// after a publish; aligned so its refcount shares no cache line.
    pub(crate) carried: Option<Arc<CacheAligned<Arc<Listeners>>>>,
    pub(crate) state: StripeState,
}

/// One emitting thread's share of an instance: the locked state plus the
/// values readers poll without the lock. Only a thread holding `state`
/// writes the atomics, so each write is a plain load and store.
#[derive(Default)]
pub struct Stripe {
    /// Bumped (`Release`) after every profile mutation; the snapshot delta
    /// protocol's dirtiness signal.
    pub(crate) profile_gen: AtomicU64,
    /// Task begins minus ends seen on this stripe.
    pub(crate) level: AtomicI64,
    /// Highest `level` reached.
    pub(crate) peak: AtomicI64,
    locked: Mutex<Locked>,
}

#[cfg(test)]
thread_local! {
    /// Stripe-lock acquisitions made by the calling thread.
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Stripe-lock acquisitions the calling thread has made so far.
#[cfg(test)]
pub(crate) fn acquisitions() -> u64 {
    ACQUISITIONS.with(|c| c.get())
}

impl Stripe {
    /// Locks the stripe's state — the only way to it, so the test-build
    /// acquisition count misses nothing.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, Locked> {
        #[cfg(test)]
        ACQUISITIONS.with(|c| c.set(c.get() + 1));
        self.locked.lock()
    }
}

/// One [`Stripe`] per stripe index, each on its own cache-line pair.
pub struct Stripes(Box<[CacheAligned<Stripe>]>);

impl Stripes {
    /// A fresh set holding nothing.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self(
            (0..STRIPE_COUNT)
                .map(|_| CacheAligned(Stripe::default()))
                .collect(),
        ))
    }

    /// The stripe at `index` (`0..STRIPE_COUNT`).
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &Stripe {
        &self.0[index].0
    }

    /// Hands `event` to `listener` as a batch of one under the lock of the
    /// calling thread's stripe — what a stock listener's plain `on_event`
    /// does, when no dispatcher on the same stripes has taken that lock
    /// for it.
    pub(crate) fn deliver(&self, listener: &impl Listener, event: &Event) {
        let stripe = self.get(thread_stripe());
        listener.on_batch_locked(
            std::slice::from_ref(event),
            stripe,
            &mut stripe.lock().state,
        );
    }

    /// Every stripe, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Stripe> {
        self.0.iter().map(|s| &s.0)
    }
}
