//! Concurrency throttling: the thread-cap knob.
//!
//! The cap is the number of workers allowed to execute tasks. Workers with
//! index ≥ cap park at their next scheduling decision and wake when the cap
//! rises — tasks are never interrupted mid-body, so a cap change is always
//! safe. The cap implements [`lg_core::Knob`] (name `"thread_cap"`), which
//! is how policies, tuning sessions and the machine-wide
//! [`lg_core::Arbiter`] drive it without knowing about the pool. It is the
//! pool's one thread-count actuator: a parked worker keeps its OS thread.
//!
//! **Drain rule:** a worker parking under the cap first evicts its LIFO
//! slot into the global injector (the slot, unlike the worker's queue, is
//! not stealable), so lowering the cap can never strand a queued task behind a
//! parked worker. See the pool's worker loop.

use lg_core::{Knob, KnobSpec};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared thread-cap state. Cloning shares the cap.
#[derive(Clone)]
pub struct ThreadCap {
    inner: Arc<CapInner>,
}

struct CapInner {
    cap: AtomicUsize,
    max: usize,
    /// Condvar workers park on when throttled; `set` notifies it.
    lock: Mutex<()>,
    cv: Condvar,
}

impl ThreadCap {
    /// Creates a cap over `max` workers, initially fully open.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn new(max: usize) -> Self {
        assert!(max > 0, "pool must have at least one worker");
        Self {
            inner: Arc::new(CapInner {
                cap: AtomicUsize::new(max),
                max,
                lock: Mutex::new(()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Current cap.
    pub fn current(&self) -> usize {
        self.inner.cap.load(Ordering::Acquire)
    }

    /// Maximum (pool size).
    pub fn max(&self) -> usize {
        self.inner.max
    }

    /// Sets the cap, clamped to `1..=max`, and wakes throttled workers.
    pub fn set_cap(&self, cap: usize) {
        let clamped = cap.clamp(1, self.inner.max);
        self.inner.cap.store(clamped, Ordering::Release);
        let _g = self.inner.lock.lock();
        self.inner.cv.notify_all();
    }

    /// True if worker `index` is allowed to run under the current cap.
    #[inline]
    pub fn allows(&self, index: usize) -> bool {
        index < self.current()
    }

    /// Blocks the calling worker until it is allowed to run or `should_exit`
    /// returns true. Returns false if it exited due to `should_exit`.
    pub(crate) fn wait_until_allowed(&self, index: usize, should_exit: impl Fn() -> bool) -> bool {
        loop {
            if should_exit() {
                return false;
            }
            if self.allows(index) {
                return true;
            }
            let mut g = self.inner.lock.lock();
            // Re-check under the lock to avoid missing a notify between the
            // check above and the wait below.
            if should_exit() || self.allows(index) {
                continue;
            }
            self.inner
                .cv
                .wait_for(&mut g, std::time::Duration::from_millis(50));
        }
    }

    /// Wakes all throttled workers (used at shutdown).
    pub(crate) fn wake_all(&self) {
        let _g = self.inner.lock.lock();
        self.inner.cv.notify_all();
    }
}

impl Knob for ThreadCap {
    fn spec(&self) -> KnobSpec {
        KnobSpec::new("thread_cap", 1, self.inner.max as i64)
            .with_unit("workers")
            .with_default(self.inner.max as i64)
    }
    fn get(&self) -> i64 {
        self.current() as i64
    }
    fn set(&self, value: i64) {
        self.set_cap(value.max(1) as usize);
    }
}

impl std::fmt::Debug for ThreadCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCap")
            .field("cap", &self.current())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_open() {
        let c = ThreadCap::new(8);
        assert_eq!(c.current(), 8);
        assert!(c.allows(0));
        assert!(c.allows(7));
    }

    #[test]
    fn set_clamps_to_bounds() {
        let c = ThreadCap::new(8);
        c.set_cap(0);
        assert_eq!(c.current(), 1, "cap must never reach zero");
        c.set_cap(100);
        assert_eq!(c.current(), 8);
    }

    #[test]
    fn allows_respects_cap() {
        let c = ThreadCap::new(4);
        c.set_cap(2);
        assert!(c.allows(0));
        assert!(c.allows(1));
        assert!(!c.allows(2));
        assert!(!c.allows(3));
    }

    #[test]
    fn knob_interface() {
        let c = ThreadCap::new(16);
        let spec = c.spec();
        assert_eq!(spec.name, "thread_cap");
        assert_eq!(spec.min, 1);
        assert_eq!(spec.max, 16);
        c.set(4);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn clones_share_state() {
        let a = ThreadCap::new(4);
        let b = a.clone();
        a.set_cap(1);
        assert_eq!(b.current(), 1);
    }

    #[test]
    fn throttled_worker_wakes_on_raise() {
        let c = ThreadCap::new(2);
        c.set_cap(1);
        let worker_cap = c.clone();
        let released = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let rel = released.clone();
        let t = std::thread::spawn(move || {
            // Worker index 1 is throttled while cap is 1.
            let ok = worker_cap.wait_until_allowed(1, || false);
            rel.store(ok, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!released.load(Ordering::SeqCst), "woke before cap raised");
        c.set_cap(2);
        t.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_exits_on_shutdown_signal() {
        let c = ThreadCap::new(2);
        c.set_cap(1);
        let worker_cap = c.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s = stop.clone();
        let t = std::thread::spawn(move || {
            worker_cap.wait_until_allowed(1, || s.load(Ordering::SeqCst))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::SeqCst);
        c.wake_all();
        assert!(!t.join().unwrap(), "should report exit, not allowance");
    }
}
