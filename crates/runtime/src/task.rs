//! Tasks, inline closure storage, and join handles.
//!
//! A task is a named closure. Naming is what connects scheduling to
//! observation: the profiler aggregates by task name, and granularity
//! policies reason about per-name mean durations.
//!
//! ## Zero-allocation bodies
//!
//! The old representation boxed every closure (`Box<dyn FnOnce>`), which
//! put one allocator round-trip on every spawn — exactly the per-task α
//! cost the granularity experiments try to isolate. [`TaskBody`] instead
//! stores the closure **in place** when it fits [`INLINE_BODY_BYTES`]
//! (three pointers — enough for the `(&body, start, end)` triple a
//! `parallel_for` chunk captures, or a small user capture plus a join
//! sender). Anything larger or over-aligned goes in a plain `Box` (spawn
//! sites on measured paths are written to fit inline; the allocator's
//! thread cache recycles the rest). The representation is observable: the
//! pool counts `rt.inline_tasks` / `rt.boxed_tasks` per spawn so the fast
//! path can be verified through the glass.

use lg_core::TaskId;
use parking_lot::{Condvar, Mutex};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr;
use std::sync::Arc;

/// Words of inline closure storage in a task record (3 pointers).
const INLINE_WORDS: usize = 3;

/// Inline closure budget in bytes: closures up to this size (and at most
/// word-aligned) are stored in the task record itself — no allocation.
pub const INLINE_BODY_BYTES: usize = INLINE_WORDS * std::mem::size_of::<usize>();

/// Where a [`TaskBody`]'s closure lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BodyKind {
    /// In place, inside the task record. The steady-state fast path.
    Inline,
    /// In a plain `Box` (closures over the inline budget or over-aligned).
    Boxed,
}

/// Per-closure dispatch table. `call` consumes the stored closure (the
/// storage is dead afterwards); `drop` destroys it without calling.
struct BodyVTable {
    call: unsafe fn(*mut MaybeUninit<usize>),
    drop: unsafe fn(*mut MaybeUninit<usize>),
    kind: BodyKind,
}

/// # Safety
/// `p` must point at storage holding a live `F` written by
/// [`TaskBody::new_unchecked`]; the closure is moved out, so the storage
/// must not be read again.
unsafe fn call_inline<F: FnOnce()>(p: *mut MaybeUninit<usize>) {
    // SAFETY: the caller's contract — a live, suitably aligned `F` that
    // nobody reads after this.
    let f: F = unsafe { ptr::read(p.cast::<F>()) };
    f();
}

/// # Safety
/// Same storage contract as [`call_inline`]; drops `F` in place.
unsafe fn drop_inline<F>(p: *mut MaybeUninit<usize>) {
    // SAFETY: the caller's contract — a live `F`, dead afterwards.
    unsafe { ptr::drop_in_place(p.cast::<F>()) };
}

/// # Safety
/// Word 0 of `p` must hold the `Box::into_raw` pointer to a live `F` that
/// [`TaskBody::new_unchecked`] wrote; the result owns that box, so the word
/// must not be read again.
unsafe fn take_box<F>(p: *mut MaybeUninit<usize>) -> Box<F> {
    // SAFETY: the caller's contract — word 0 is initialised, and is a
    // pointer `Box::into_raw` returned for an `F` nobody has freed.
    unsafe { Box::from_raw((*p).assume_init() as *mut F) }
}

/// # Safety
/// Same storage contract as [`take_box`].
unsafe fn call_boxed<F: FnOnce()>(p: *mut MaybeUninit<usize>) {
    // SAFETY: the caller's contract is `take_box`'s.
    let f = unsafe { take_box::<F>(p) };
    f();
}

/// # Safety
/// Same storage contract as [`take_box`].
unsafe fn drop_boxed<F>(p: *mut MaybeUninit<usize>) {
    // SAFETY: the caller's contract is `take_box`'s.
    drop(unsafe { take_box::<F>(p) });
}

struct InlineVt<F>(std::marker::PhantomData<F>);
impl<F: FnOnce()> InlineVt<F> {
    const VTABLE: BodyVTable = BodyVTable {
        call: call_inline::<F>,
        drop: drop_inline::<F>,
        kind: BodyKind::Inline,
    };
}

struct BoxVt<F>(std::marker::PhantomData<F>);
impl<F: FnOnce()> BoxVt<F> {
    const VTABLE: BodyVTable = BodyVTable {
        call: call_boxed::<F>,
        drop: drop_boxed::<F>,
        kind: BodyKind::Boxed,
    };
}

/// A type-erased `FnOnce()` with inline small-closure storage.
///
/// Two storage tiers (see module docs): inline or `Box`. The tier is
/// chosen at construction from `size_of::<F>`/`align_of::<F>`, which are
/// compile-time constants, so the branch vanishes per call site.
pub(crate) struct TaskBody {
    data: [MaybeUninit<usize>; INLINE_WORDS],
    vtable: &'static BodyVTable,
}

// SAFETY: constructors require `F: Send`, and the erased closure is the
// only thing the storage holds.
unsafe impl Send for TaskBody {}

impl TaskBody {
    /// Wraps a `'static` closure.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        // SAFETY: `F: 'static` — there are no borrows to outlive.
        unsafe { Self::new_unchecked(f) }
    }

    /// Wraps a closure without a `'static` bound.
    ///
    /// # Safety
    /// The caller must guarantee everything `f` borrows stays alive until
    /// the body has been invoked or dropped — the scope-barrier argument
    /// (see [`crate::scope`]).
    pub(crate) unsafe fn new_unchecked<F: FnOnce() + Send>(f: F) -> Self {
        let mut data = [MaybeUninit::<usize>::uninit(); INLINE_WORDS];
        let size = std::mem::size_of::<F>();
        let align = std::mem::align_of::<F>();
        if size <= INLINE_BODY_BYTES && align <= std::mem::align_of::<usize>() {
            // SAFETY: the closure fits the storage's size and alignment.
            unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            Self {
                data,
                vtable: &InlineVt::<F>::VTABLE,
            }
        } else {
            data[0] = MaybeUninit::new(Box::into_raw(Box::new(f)) as usize);
            Self {
                data,
                vtable: &BoxVt::<F>::VTABLE,
            }
        }
    }

    /// Where this body's closure lives.
    pub(crate) fn kind(&self) -> BodyKind {
        self.vtable.kind
    }

    /// Runs the closure, consuming the body.
    pub(crate) fn invoke(self) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `self` was built by a constructor; `ManuallyDrop`
        // prevents the destructor from double-dropping the moved closure.
        unsafe { (this.vtable.call)(this.data.as_mut_ptr()) }
    }
}

impl Drop for TaskBody {
    fn drop(&mut self) {
        // Dropping without invoking (discarded at shutdown, or replaced by
        // an injected fault): destroy the closure so captured state — e.g.
        // a `JoinSender` whose drop guard resolves its handle — is
        // released.
        // SAFETY: `invoke` shields itself with `ManuallyDrop`, so a live
        // closure is still stored here.
        unsafe { (self.vtable.drop)(self.data.as_mut_ptr()) }
    }
}

/// A unit of work owned by the pool.
pub(crate) struct Task {
    pub(crate) name: TaskId,
    pub(crate) body: TaskBody,
    /// Invoked by the worker *after* the task's `TaskEnd` event has been
    /// emitted (and regardless of panics). Scopes use this as their
    /// completion barrier, which makes `scope()` an observation barrier
    /// too: when it returns, every scoped task's events are visible.
    pub(crate) completion: Option<crate::scope::Completion>,
}

impl Task {
    pub(crate) fn new(name: TaskId, body: TaskBody) -> Self {
        Self {
            name,
            body,
            completion: None,
        }
    }

    pub(crate) fn with_completion(
        name: TaskId,
        body: TaskBody,
        completion: crate::scope::Completion,
    ) -> Self {
        Self {
            name,
            body,
            completion: Some(completion),
        }
    }
}

enum SlotState<T> {
    Empty,
    Value(T),
    Panicked,
    Taken,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

/// Handle to a spawned task's result.
///
/// [`JoinHandle::join`] blocks until the task finishes; if the task body
/// panicked, `join` returns `Err` with a descriptive message rather than
/// poisoning the pool. A handle created by [`crate::ThreadPool::spawn`]
/// carries a reference back to the pool so that a *worker* joining from
/// inside a task helps run pending work (including its own LIFO-slot
/// child) instead of sleeping on it.
pub struct JoinHandle<T> {
    slot: Arc<Slot<T>>,
    pool: Option<Arc<crate::pool::PoolShared>>,
}

/// The producer side, held by the task body wrapper.
pub(crate) struct JoinSender<T> {
    slot: Arc<Slot<T>>,
}

/// Creates a connected join pair.
pub(crate) fn join_pair<T>() -> (JoinSender<T>, JoinHandle<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Empty),
        cv: Condvar::new(),
    });
    (
        JoinSender { slot: slot.clone() },
        JoinHandle { slot, pool: None },
    )
}

impl<T> JoinSender<T> {
    pub(crate) fn send(self, value: T) {
        let mut s = self.slot.state.lock();
        *s = SlotState::Value(value);
        self.slot.cv.notify_all();
    }

    pub(crate) fn send_panicked(self) {
        let mut s = self.slot.state.lock();
        *s = SlotState::Panicked;
        self.slot.cv.notify_all();
    }
}

impl<T> Drop for JoinSender<T> {
    /// A sender dropped without sending means the task body never ran to
    /// a result — it was discarded at shutdown or replaced by an injected
    /// fault. Resolve the handle as panicked so `join` reports an error
    /// instead of blocking forever.
    fn drop(&mut self) {
        let mut s = self.slot.state.lock();
        if matches!(*s, SlotState::Empty) {
            *s = SlotState::Panicked;
            self.slot.cv.notify_all();
        }
    }
}

impl<T> JoinHandle<T> {
    /// Attaches the owning pool so `join` from a worker thread helps run
    /// queued tasks instead of blocking the worker.
    pub(crate) fn with_helper(mut self, pool: Arc<crate::pool::PoolShared>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Blocks until the task completes. `Err` if the task panicked.
    pub fn join(self) -> Result<T, JoinError> {
        // Helping applies only when the joining thread is a worker of the
        // attached pool: it runs pending tasks while it waits (its own
        // LIFO-slot child is found first), so joining from inside a task
        // can never strand the awaited work behind the join itself. Any
        // other thread sleeps on the slot condvar — an untimed wait is
        // safe because the sender's drop guard always resolves the slot.
        let helper = self
            .pool
            .as_ref()
            .filter(|p| p.is_current_worker())
            .cloned();
        loop {
            {
                let mut s = self.slot.state.lock();
                match std::mem::replace(&mut *s, SlotState::Taken) {
                    SlotState::Value(v) => return Ok(v),
                    SlotState::Panicked => return Err(JoinError::Panicked),
                    SlotState::Taken => unreachable!("join consumed twice"),
                    SlotState::Empty => {
                        *s = SlotState::Empty;
                        let Some(_) = &helper else {
                            self.slot.cv.wait(&mut s);
                            continue;
                        };
                        // Fall through (guard released) to the helping path.
                    }
                }
            }
            let pool = helper.as_ref().expect("checked above");
            if !pool.try_help() {
                let mut s = self.slot.state.lock();
                if matches!(*s, SlotState::Empty) {
                    self.slot
                        .cv
                        .wait_for(&mut s, std::time::Duration::from_micros(500));
                }
            }
        }
    }

    /// Non-blocking poll: `Some(result)` if finished.
    pub fn try_join(&mut self) -> Option<Result<T, JoinError>> {
        let mut s = self.slot.state.lock();
        match std::mem::replace(&mut *s, SlotState::Taken) {
            SlotState::Value(v) => Some(Ok(v)),
            SlotState::Panicked => Some(Err(JoinError::Panicked)),
            SlotState::Taken => None,
            SlotState::Empty => {
                *s = SlotState::Empty;
                None
            }
        }
    }

    /// True once the task has finished (without consuming the result).
    pub fn is_finished(&self) -> bool {
        matches!(
            *self.slot.state.lock(),
            SlotState::Value(_) | SlotState::Panicked
        )
    }
}

/// Why a join failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The task body panicked; the panic was contained by the worker.
    Panicked,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked => write!(f, "task panicked"),
        }
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn join_receives_value() {
        let (tx, rx) = join_pair::<i32>();
        std::thread::spawn(move || tx.send(42));
        assert_eq!(rx.join().unwrap(), 42);
    }

    #[test]
    fn join_blocks_until_send() {
        let (tx, rx) = join_pair::<&str>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send("late");
        });
        assert_eq!(rx.join().unwrap(), "late");
        t.join().unwrap();
    }

    #[test]
    fn panicked_task_reports_error() {
        let (tx, rx) = join_pair::<()>();
        tx.send_panicked();
        assert_eq!(rx.join().unwrap_err(), JoinError::Panicked);
    }

    #[test]
    fn try_join_polls() {
        let (tx, mut rx) = join_pair::<u8>();
        assert!(rx.try_join().is_none());
        assert!(!rx.is_finished());
        tx.send(7);
        assert!(rx.is_finished());
        assert_eq!(rx.try_join().unwrap().unwrap(), 7);
        assert!(rx.try_join().is_none(), "result consumed");
    }

    #[test]
    fn dropped_sender_resolves_as_panicked() {
        let (tx, rx) = join_pair::<u32>();
        drop(tx);
        assert_eq!(rx.join().unwrap_err(), JoinError::Panicked);
    }

    #[test]
    fn join_error_displays() {
        assert_eq!(JoinError::Panicked.to_string(), "task panicked");
    }

    #[test]
    fn small_closure_is_inline() {
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        // One Arc (8 bytes) fits the 24-byte inline budget.
        let body = TaskBody::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(body.kind(), BodyKind::Inline);
        body.invoke();
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn three_word_closure_is_inline() {
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        let (a, b) = (3u64, 4u64);
        let body = TaskBody::new(move || {
            h.fetch_add(a + b, Ordering::Relaxed);
        });
        assert_eq!(body.kind(), BodyKind::Inline);
        body.invoke();
        assert_eq!(hit.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn medium_closure_is_boxed() {
        // Four words: one over the inline budget. Runs once when invoked,
        // and its captures are released whether it ran or was dropped.
        for invoke in [true, false] {
            let hit = Arc::new(AtomicU64::new(0));
            let h = hit.clone();
            let pad = [1u64, 2, 3];
            let body = TaskBody::new(move || {
                h.fetch_add(pad.iter().sum::<u64>(), Ordering::Relaxed);
            });
            assert_eq!(body.kind(), BodyKind::Boxed);
            if invoke {
                body.invoke();
            } else {
                drop(body);
            }
            assert_eq!(hit.load(Ordering::Relaxed), if invoke { 6 } else { 0 });
            assert_eq!(Arc::strong_count(&hit), 1, "invoke {invoke}");
        }
    }

    #[test]
    fn huge_closure_is_boxed() {
        let big = [7u8; 256];
        let body = TaskBody::new(move || {
            std::hint::black_box(big);
        });
        assert_eq!(body.kind(), BodyKind::Boxed);
        body.invoke();
    }

    #[test]
    fn dropping_uninvoked_body_releases_captures() {
        for pad_words in [0usize, 5, 40] {
            let guard = Arc::new(());
            let g = guard.clone();
            let pad = vec![0u64; pad_words];
            let body = TaskBody::new(move || {
                let _ = (&g, &pad);
            });
            drop(body);
            assert_eq!(Arc::strong_count(&guard), 1, "pad {pad_words}");
        }
    }
}
