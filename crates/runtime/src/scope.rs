//! Structured fork-join scopes, and the completion barrier they share
//! with DAG scopes.
//!
//! `pool.scope(|s| { s.spawn_named("part", || ...); ... })` guarantees that
//! every task spawned on the scope finishes before `scope` returns, which
//! is what lets the closures borrow from the enclosing stack frame.
//!
//! ## Safety argument
//!
//! Scoped closures are `'scope`-bounded, but the pool stores `'static`
//! tasks; the lifetime is erased with `TaskBody::new_unchecked`.
//! Soundness rests on the completion `Barrier`: every scoped task
//! carries a `Completion` that arrives at the barrier when the worker is
//! done with the body (run *or* dropped unrun — the `Drop` impl is the
//! guard), and `scope` does not return — **not even by unwinding**, the
//! wait runs from a drop guard — until every arrival is in, so no borrow
//! outlives its referent.
//!
//! The barrier itself lives on `scope()`'s stack frame and completions
//! hold a plain pointer to it: no `Arc` clone or drop per task. What keeps
//! the pointee alive is the count — it starts at 1 (the scope's own
//! guard), every spawn adds 1 before its task becomes visible, and the
//! frame is not left until the count has reached zero, which it does
//! exactly once. See `Barrier` for the exit protocol.
//!
//! The same argument covers [`ThreadPool::parallel_for_mut`]'s `&mut`
//! sub-slices: the slice stays borrowed until the barrier has passed, and
//! `spawn_batch`'s chunks tile its range without overlap, so every element
//! has one writer.
//!
//! ## Batched arrivals
//!
//! A worker does not publish each completion. It keeps a thread-local
//! `(barrier, n)` and publishes it with one `fetch_sub(n)` — so a 17-task
//! injector batch costs the barrier's cache line one RMW, not 17. An
//! unpublished arrival keeps its barrier's count above zero, so the
//! pointer in the batch is always live. The flush rules (each is a hang or
//! a latency bug if missed):
//!
//! * **(a)** a worker publishes when a search — LIFO slot, local queue,
//!   injector, steal — comes up empty, before it spins or parks;
//! * **(b)** `run_task` publishes before running a task whose completion
//!   targets a different barrier, or none — a scope never waits on
//!   foreign work;
//! * **(c)** a worker publishes before it parks under the thread cap and
//!   at shutdown;
//! * **(d)** `try_help` publishes after every helped task (scope barrier,
//!   DAG barrier, `JoinHandle` helper) — the wait may end with that task,
//!   and its completion must not sit under the rest of a long outer task;
//! * **(e)** a thread entering `Barrier::wait` publishes first;
//! * **(f)** threads that are not pool workers never batch.
//!
//! (b) and (d) together keep an invariant: whatever a worker holds while a
//! task runs targets that task's own barrier, which cannot complete before
//! the task does — so holding it delays nobody. (e) is the backstop for a
//! completion that reached the batch some other way (dropped unrun on a
//! worker thread).
//!
//! Every flush publishes the worker's deferred `TaskBegin`/`TaskEnd`
//! events and its `rt.executed` tally first (`pool::publish_executed`),
//! so the same rules make `scope()` and `wait_idle()` observation
//! barriers: when either returns, every task it waited for has been
//! delivered to the listeners and counted.
//!
//! Scoped bodies are submitted **raw** — no wrapper closure — so a small
//! user capture stays within the inline budget and the steady-state spawn
//! performs no allocation. Panic accounting rides on the worker's own
//! `catch_unwind`: the worker passes the panic flag to
//! `Completion::run`, the barrier counts it, and `scope` re-throws after
//! the barrier (first panic wins), matching `std::thread::scope`
//! semantics. Scoped panics therefore also show up in
//! [`ThreadPool::panics`], like any other contained panic.

use crate::pool::{PoolShared, ThreadPool};
use crate::task::{Task, TaskBody};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The completion barrier of a [`Scope`] or a [`crate::DagScope`]: a count
/// of outstanding tasks plus one guard held by the scope itself.
///
/// Lives on the scope call's stack frame. **Exit protocol:** the
/// decrement that takes the count to zero — there is exactly one, because
/// the count starts at 1 and the guard is dropped only in [`wait`] —
/// latches `done` *under the lock* and notifies; a waiter that was not
/// itself the last decrementer leaves only after reading `done` under
/// that same lock. The last thing any other thread does to the barrier is
/// therefore the unlock that follows the latch, which the waiter's own
/// lock acquisition orders before the frame is popped.
///
/// [`wait`]: Barrier::wait
// Own cache-line pair: workers' batched arrivals land here, not on the
// submitting thread's neighbouring stack slots.
#[repr(align(128))]
pub(crate) struct Barrier {
    /// Unfinished tasks + 1 (the scope's guard).
    remaining: AtomicUsize,
    panicked: AtomicUsize,
    /// `true` once the count has reached zero.
    done: Mutex<bool>,
    cv: Condvar,
    /// Set for the barrier inside a [`DetachedBatch`], which nobody waits
    /// on: the decrement that reaches zero frees the block instead of
    /// latching `done`.
    free: Option<unsafe fn(*const Barrier)>,
}

impl Barrier {
    pub(crate) fn new() -> Self {
        Self {
            remaining: AtomicUsize::new(1),
            panicked: AtomicUsize::new(0),
            done: Mutex::new(false),
            cv: Condvar::new(),
            free: None,
        }
    }

    /// Registers `n` tasks about to be submitted. Must precede the push
    /// that makes them runnable.
    pub(crate) fn add(&self, n: usize) {
        self.remaining.fetch_add(n, Ordering::AcqRel);
    }

    /// Publishes `n` arrivals. If that takes the count to zero, the unlock
    /// that ends this call is the last access to `self`: the waiter may
    /// then leave and pop the frame.
    fn arrive(&self, n: usize) {
        // Release: the tasks' effects; Acquire: the last decrementer
        // collects everyone's before it reports done.
        if self.remaining.fetch_sub(n, Ordering::AcqRel) == n {
            if let Some(free) = self.free {
                // SAFETY: `free` belongs to the `DetachedBatch` that
                // embeds `self`; the count is zero, so every task pointing
                // at the block has arrived and this is its last user.
                return unsafe { free(self) };
            }
            let mut done = self.done.lock();
            *done = true;
            // Notified under the lock, so the waiter cannot leave in
            // between.
            self.cv.notify_all();
        }
    }

    /// Records one finished task: batched on a pool worker (flush rules
    /// in the module docs), published at once on any other thread
    /// (rule f). The caller's arrival must not have been published yet.
    pub(crate) fn task_done(&self) {
        if !crate::pool::on_worker_thread() {
            self.arrive(1);
            return;
        }
        ARRIVALS.with(|a| {
            let (held, n) = a.get();
            if std::ptr::eq(held, self) {
                a.set((held, n + 1));
            } else {
                flush_arrivals();
                a.set((self, 1));
            }
        });
    }

    fn count_panic(&self) {
        self.panicked.fetch_add(1, Ordering::AcqRel);
    }

    /// Tasks that panicked; exact once [`Barrier::wait`] has returned.
    pub(crate) fn panics(&self) -> usize {
        self.panicked.load(Ordering::Acquire)
    }

    /// Drops the scope's guard and blocks until every registered task has
    /// arrived. If the calling thread is itself a pool worker (nested
    /// scope, fork-join recursion), it *helps* — running pending tasks
    /// instead of sleeping — so workers blocked here can never deadlock
    /// the pool. External threads park on the condvar.
    fn wait(&self, pool: &Arc<PoolShared>) {
        flush_arrivals(); // rule (e)
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Every task had already arrived: nobody else will touch
            // `self` again, and nobody latches `done`.
            return;
        }
        loop {
            if self.remaining.load(Ordering::Acquire) != 0 && pool.try_help() {
                continue;
            }
            let mut done = self.done.lock();
            if *done {
                return;
            }
            // Timed so that a worker looks for tasks to help with again.
            self.cv
                .wait_for(&mut done, std::time::Duration::from_millis(1));
            if *done {
                return;
            }
        }
    }
}

/// Runs [`Barrier::wait`] when dropped, so the barrier holds whether the
/// scope closure returns or unwinds (as `std::thread::scope` does).
/// Declare it *after* everything scoped tasks point at: locals drop in
/// reverse order.
pub(crate) struct WaitOnDrop<'a> {
    pub(crate) barrier: &'a Barrier,
    pub(crate) pool: &'a Arc<PoolShared>,
}

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.barrier.wait(self.pool);
    }
}

thread_local! {
    /// This worker's unpublished arrivals: `(barrier, n)`, null when
    /// empty. Only filled on pool worker threads.
    static ARRIVALS: Cell<(*const Barrier, usize)> = const { Cell::new((std::ptr::null(), 0)) };
}

/// Publishes the calling thread's batched arrivals, if any, after its
/// deferred task events and its `rt.executed` tally (module docs).
pub(crate) fn flush_arrivals() {
    crate::pool::publish_executed();
    let (held, n) = ARRIVALS.with(|a| a.replace((std::ptr::null(), 0)));
    if !held.is_null() {
        // SAFETY: the `n` unpublished arrivals are still part of the
        // barrier's count, so its waiter has not left `Barrier::wait` and
        // the frame holding the barrier is alive.
        unsafe { (*held).arrive(n) };
    }
}

/// Flush rule (b): publishes the batch unless it targets `next`, the
/// barrier of the task about to run.
pub(crate) fn flush_arrivals_unless(next: *const Barrier) {
    if ARRIVALS.with(|a| a.get().0) != next {
        flush_arrivals();
    }
}

/// A task's completion hook: one per task, run by the worker after the
/// `TaskEnd` event (or dropped with a discarded task). Concrete — not a
/// boxed closure — so attaching it to a task allocates nothing. Two
/// flavours over the one [`Barrier`]: fork-join scopes only arrive, DAG
/// scopes first release successor tasks (see [`crate::dag`]).
pub(crate) enum Completion {
    /// Arrives at a [`ThreadPool::scope`] barrier.
    Scope(ScopeCompletion),
    /// Releases DAG successors, then arrives at the DAG-scope barrier.
    Dag(crate::dag::DagCompletion),
}

impl Completion {
    /// Records the task's outcome. Consumes `self`; the structural work
    /// (barrier arrival, successor release) happens in `Drop`, so a
    /// completion that is never `run` (its task was discarded at
    /// shutdown) still releases the scope.
    pub(crate) fn run(self, panicked: bool) {
        if panicked {
            // SAFETY: this completion has not arrived yet, so the barrier
            // is alive (see `ScopeCompletion`).
            unsafe { (*self.barrier()).count_panic() };
        }
    }

    /// The barrier this completion arrives at.
    pub(crate) fn barrier(&self) -> *const Barrier {
        match self {
            Completion::Scope(c) => c.barrier,
            Completion::Dag(c) => c.barrier(),
        }
    }
}

/// The fork-join flavour: arrives at the scope's barrier on drop.
pub(crate) struct ScopeCompletion {
    /// Valid until this completion's arrival has been published: it was
    /// counted by [`Barrier::add`] before its task became visible, and
    /// `scope()` does not pop the frame holding the barrier while the
    /// count is non-zero.
    barrier: *const Barrier,
}

// SAFETY: the pointer is only dereferenced to reach `Barrier`'s atomics,
// lock and condvar, all `Sync`; validity is the struct's invariant.
unsafe impl Send for ScopeCompletion {}

impl Drop for ScopeCompletion {
    fn drop(&mut self) {
        // SAFETY: not yet arrived — see the field's invariant.
        unsafe { (*self.barrier).task_done() };
    }
}

/// One task per `chunk`-sized slice of `range`, each capturing
/// `(body, start, end)` — the inline budget exactly — and arriving at
/// `barrier`, which is charged here, once, for the whole set.
///
/// # Safety
/// `body` and `barrier` must stay valid until every returned task has
/// arrived at `barrier`.
unsafe fn chunk_tasks<F>(
    id: lg_core::TaskId,
    range: std::ops::Range<usize>,
    chunk: usize,
    body: *const F,
    barrier: *const Barrier,
) -> Vec<Task>
where
    F: Fn(usize, usize) + Sync,
{
    let chunks = range.end.saturating_sub(range.start).div_ceil(chunk);
    // SAFETY: the caller's contract covers both pointers for as long as
    // the tasks (which hold the `&F`) have not arrived.
    let (body, barrier_ref) = unsafe { (&*body, &*barrier) };
    barrier_ref.add(chunks);
    (0..chunks)
        .map(|i| {
            let start = range.start + i * chunk;
            let end = (start + chunk).min(range.end);
            // SAFETY: `body` outlives the task — the caller's contract.
            let task = unsafe { TaskBody::new_unchecked(move || body(start, end)) };
            Task::with_completion(id, task, Completion::Scope(ScopeCompletion { barrier }))
        })
        .collect()
}

/// The body of a fire-and-forget batch ([`ThreadPool::spawn_batch`]) and
/// the count of its chunk tasks, in one heap block that frees itself when
/// the last of them has arrived: the tasks point at it, no reference count
/// moves per chunk, and workers batch their arrivals as they do for a
/// scope. Nobody waits on it.
// `barrier` first: `free` gets the barrier's address and needs the block's.
#[repr(C)]
struct DetachedBatch<F> {
    barrier: Barrier,
    body: F,
}

impl<F: Fn(usize, usize) + Send + Sync + 'static> DetachedBatch<F> {
    /// # Safety
    /// `barrier` must be the first field of a leaked `Box<Self>` that no
    /// task points at any more.
    unsafe fn free(barrier: *const Barrier) {
        // SAFETY: `repr(C)` puts `barrier` at offset 0 of the block.
        drop(unsafe { Box::from_raw(barrier.cast::<Self>().cast_mut()) });
    }
}

/// Chunk tasks for [`ThreadPool::spawn_batch`], pointing at a fresh
/// [`DetachedBatch`].
pub(crate) fn detached_batch_tasks<F>(
    id: lg_core::TaskId,
    range: std::ops::Range<usize>,
    chunk: usize,
    body: F,
) -> Vec<Task>
where
    F: Fn(usize, usize) + Send + Sync + 'static,
{
    let block = Box::leak(Box::new(DetachedBatch {
        barrier: Barrier {
            free: Some(DetachedBatch::<F>::free),
            ..Barrier::new()
        },
        body,
    }));
    // SAFETY: the block is freed by the arrival that takes its count to
    // zero — the last task's, or (for no tasks) the guard's below.
    let tasks = unsafe { chunk_tasks(id, range, chunk, &block.body, &block.barrier) };
    // The guard `Barrier::new` counted; the tasks hold the block now.
    block.barrier.arrive(1);
    tasks
}

/// Spawn surface handed to the `scope` closure.
pub struct Scope<'scope, 'pool> {
    pool: &'pool ThreadPool,
    barrier: &'pool Barrier,
    /// `spawn_batch` bodies: one scope-owned copy each, which the chunk
    /// tasks point at. Freed when `scope()` returns, after the barrier.
    bodies: Mutex<Vec<Arc<dyn Send + Sync + 'scope>>>,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a named task that may borrow from the enclosing scope.
    pub fn spawn_named<F>(&self, name: &str, body: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.barrier.add(1);
        let completion = Completion::Scope(ScopeCompletion {
            barrier: self.barrier,
        });
        let id = self.pool.lg().intern(name);
        // SAFETY: the scope barrier — `scope()` blocks until this task's
        // completion has arrived, and it arrives only after the worker is
        // done with the body; see module docs.
        let body = unsafe { TaskBody::new_unchecked(body) };
        self.pool
            .shared()
            .push(Task::with_completion(id, body, completion));
    }

    /// Spawns with the default name `"scoped"`.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_named("scoped", body)
    }

    /// Spawns one task per `chunk`-sized slice of `range`, all pointing at
    /// a single scope-owned copy of `body` — each task captures
    /// `(&body, start, end)`, exactly the inline budget, so nothing is
    /// boxed and no reference count moves per chunk. The barrier is
    /// charged once for the whole set, which enters the pool's injector in
    /// one batch push and wakes `min(chunks, idle)` workers in one wave.
    /// Returns the number of chunk tasks spawned.
    ///
    /// This is the engine under [`ThreadPool::parallel_for`]; use it
    /// directly to mix batch work with other scoped tasks.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn spawn_batch<F>(
        &self,
        name: &str,
        range: std::ops::Range<usize>,
        chunk: usize,
        body: F,
    ) -> usize
    where
        F: Fn(usize, usize) + Send + Sync + 'scope,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let id = self.pool.lg().intern(name);
        let body = Arc::new(body);
        let shared_body = Arc::as_ptr(&body);
        self.bodies.lock().push(body);
        // SAFETY: `self.bodies` keeps that `Arc` — the only one, never
        // cloned — until `scope()` drops the `Scope`, which is after the
        // barrier (itself on `scope()`'s frame) has seen every chunk task
        // arrive: the wait guard is declared after the `Scope`, so it runs
        // first even when unwinding.
        let tasks = unsafe { chunk_tasks(id, range, chunk, shared_body, self.barrier) };
        self.pool.shared().push_batch(tasks)
    }

    /// [`Scope::spawn_batch`] over `0..data.len()` whose chunk tasks each
    /// get `(start, &mut data[start..end])`: the engine under
    /// [`ThreadPool::parallel_for_mut`].
    pub(crate) fn spawn_batch_mut<T, F>(
        &self,
        name: &str,
        data: &'scope mut [T],
        chunk: usize,
        body: F,
    ) -> usize
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync + 'scope,
    {
        let len = data.len();
        let data = SplitSlice(data.as_mut_ptr(), std::marker::PhantomData);
        self.spawn_batch(name, 0..len, chunk, move |start, end| {
            let base = data.base();
            // SAFETY: `data` is borrowed mutably for `'scope`, which no
            // chunk task outlives (`spawn_batch`), and only this batch's
            // tasks reach it. `chunk_tasks` tiles `0..len` into disjoint
            // `start..end` ranges, one per task, and a task runs at most
            // once: no two sub-slices handed out here overlap.
            let part = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
            body(start, part)
        })
    }
}

/// The `&'a mut [T]` of one [`Scope::spawn_batch_mut`], shared by its
/// chunk tasks; each takes its own disjoint sub-slice.
struct SplitSlice<'a, T>(*mut T, std::marker::PhantomData<&'a mut [T]>);

impl<T> SplitSlice<'_, T> {
    /// Read through a method so that closures capture the whole wrapper,
    /// not the bare pointer field.
    fn base(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the chunk tasks sharing a `SplitSlice` each take a disjoint
// sub-slice, so sending or sharing it hands every `T` to one thread only,
// which `T: Send` allows.
unsafe impl<T: Send> Send for SplitSlice<'_, T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for SplitSlice<'_, T> {}

impl ThreadPool {
    /// Runs `f` with a [`Scope`]; returns once every scoped task finished.
    /// If `f` itself panics, the unwind leaves this call only after every
    /// task spawned so far has finished.
    ///
    /// # Panics
    /// Re-throws if any scoped task panicked (after all tasks completed).
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope, '_>) -> R) -> R {
        let barrier = Barrier::new();
        let scope = Scope {
            pool: self,
            barrier: &barrier,
            bodies: Mutex::new(Vec::new()),
            _marker: std::marker::PhantomData,
        };
        // Declared last, so dropped first: on unwind the barrier is
        // waited out before `scope.bodies` and `barrier` are freed.
        let wait = WaitOnDrop {
            barrier: &barrier,
            pool: self.shared(),
        };
        let result = f(&scope);
        drop(wait);
        let panics = barrier.panics();
        if panics > 0 {
            panic!("{panics} scoped task(s) panicked");
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_core::LookingGlass;
    use std::sync::atomic::AtomicU64;

    fn pool(workers: usize) -> ThreadPool {
        let lg = LookingGlass::builder().build();
        ThreadPool::new(lg, crate::pool::PoolConfig::with_workers(workers))
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let p = pool(3);
        let count = AtomicU64::new(0);
        p.scope(|s| {
            for _ in 0..50 {
                s.spawn(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn scoped_tasks_borrow_stack_data() {
        let p = pool(2);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        p.scope(|s| {
            for chunk in data.chunks(100) {
                let sum = &sum;
                s.spawn_named("chunk", move || {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn scoped_small_closures_stay_inline() {
        let p = pool(2);
        let count = AtomicU64::new(0);
        p.scope(|s| {
            for _ in 0..20 {
                let count = &count;
                s.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 20);
        // No wrapper closure: a one-reference capture is inline.
        assert_eq!(p.counters().counter("rt.inline_tasks").get(), 20);
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    }

    #[test]
    fn scope_returns_closure_value() {
        let p = pool(1);
        let v = p.scope(|_s| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let p = pool(1);
        p.scope(|_| {});
    }

    #[test]
    fn nested_scopes() {
        let p = pool(2);
        let count = AtomicU64::new(0);
        p.scope(|outer| {
            for _ in 0..4 {
                let count = &count;
                let p = &p;
                outer.spawn(move || {
                    p.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_spawn_batch_covers_range() {
        let p = pool(2);
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let chunks = p.scope(|s| {
            s.spawn_batch("batch", 0..hits.len(), 32, |start, end| {
                for h in &hits[start..end] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        assert_eq!(chunks, 500usize.div_ceil(32));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
        assert_eq!(p.counters().counter("rt.batch_spawns").get(), 1);
        assert_eq!(
            p.counters().counter("rt.inline_tasks").get() as usize,
            chunks
        );
    }

    #[test]
    fn scope_spawn_batch_empty_range() {
        let p = pool(1);
        assert_eq!(p.scope(|s| s.spawn_batch("none", 3..3, 4, |_, _| {})), 0);
    }

    #[test]
    fn scope_spawn_batch_mixes_with_scoped_tasks() {
        let p = pool(2);
        let batch_sum = AtomicU64::new(0);
        let solo = AtomicU64::new(0);
        p.scope(|s| {
            s.spawn(|| {
                solo.fetch_add(1, Ordering::Relaxed);
            });
            s.spawn_batch("b", 0..100, 7, |start, end| {
                batch_sum.fetch_add((start..end).map(|i| i as u64).sum(), Ordering::Relaxed);
            });
        });
        assert_eq!(solo.load(Ordering::Relaxed), 1);
        assert_eq!(batch_sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    #[should_panic(expected = "scoped task(s) panicked")]
    fn scope_rethrows_panics_after_barrier() {
        let p = pool(2);
        let completed = Arc::new(AtomicU64::new(0));
        let c = completed.clone();
        p.scope(move |s| {
            s.spawn(|| panic!("inner"));
            for _ in 0..10 {
                let c = c.clone();
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }

    #[test]
    fn scoped_panics_count_in_pool_panics() {
        let p = pool(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.scope(|s| s.spawn(|| panic!("inner")));
        }));
        assert!(result.is_err());
        p.wait_idle();
        assert_eq!(p.panics(), 1);
    }

    #[test]
    fn waiter_leaves_only_through_the_latch_lock() {
        // The last arrival, frozen between its decrement and its latch:
        // the count already reads zero, but the arriver still has to touch
        // the barrier, so the waiter must not be able to leave.
        let p = pool(1);
        let barrier = Barrier::new();
        barrier.add(1);
        let left = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|t| {
            t.spawn(|| {
                barrier.wait(p.shared());
                left.store(true, Ordering::SeqCst);
            });
            // The waiter has dropped its guard; now the task's decrement.
            while barrier.remaining.load(Ordering::Acquire) != 1 {
                std::thread::yield_now();
            }
            assert_eq!(barrier.remaining.fetch_sub(1, Ordering::AcqRel), 1);
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(
                !left.load(Ordering::SeqCst),
                "waiter left on the count alone, before the arriver was done with the barrier"
            );
            *barrier.done.lock() = true;
            barrier.cv.notify_all();
        });
        assert!(left.load(Ordering::SeqCst));
    }

    #[test]
    fn detached_batch_body_is_freed_after_its_last_chunk() {
        let p = pool(2);
        let alive = Arc::new(());
        let held = alive.clone();
        p.spawn_batch("detached", 0..100, 3, move |_, _| {
            let _ = &held;
        });
        p.wait_idle();
        // The arrivals are published when the workers run dry, right
        // after the tasks `wait_idle` saw finish.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while Arc::strong_count(&alive) != 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(Arc::strong_count(&alive), 1, "batch body leaked");
        // An empty batch frees its block on the spot.
        let held = alive.clone();
        assert_eq!(
            p.spawn_batch("none", 7..7, 3, move |_, _| drop(held.clone())),
            0
        );
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    #[test]
    fn sequential_scopes_reuse_pool() {
        let p = pool(2);
        for round in 0..5u64 {
            let count = AtomicU64::new(0);
            p.scope(|s| {
                for _ in 0..10 {
                    s.spawn(|| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 10, "round {round}");
        }
    }

    #[test]
    fn scoped_tasks_visible_in_profiles() {
        let p = pool(2);
        p.scope(|s| {
            for _ in 0..7 {
                s.spawn_named("scoped_work", || {});
            }
        });
        assert_eq!(p.lg().profiles().get("scoped_work").unwrap().count, 7);
    }
}
