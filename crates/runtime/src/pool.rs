//! The work-stealing thread pool.
//!
//! Four-level scheduling (the rayon/tokio shape):
//!
//! 1. **LIFO slot** — each worker owns a single-task slot; a task spawned
//!    *by* a running worker lands there and executes next, with hot
//!    caches. The previous occupant is displaced to the worker's lane.
//! 2. **Local lane** — one `Lane` (a mutex-guarded `VecDeque`, see
//!    `lane.rs`) per worker index; slot displacements go to the back,
//!    the owner pops the front (FIFO, for fairness).
//! 3. **Global injector** — one more lane. Tasks spawned from outside
//!    land there; a worker takes the first task plus up to
//!    min(half, 16) more into its own lane in one operation, and
//!    [`ThreadPool::spawn_batch`] pushes whole chunk sets in one.
//! 4. **Other workers' lanes** — an idle worker scans them, starting at
//!    its right-hand neighbour, and steals from the back.
//!
//! Each worker index has one OS thread for the pool's whole life:
//! [`ThreadPool::new`] spawns them all, and dropping the pool joins them.
//! The concurrency actuator is [`ThreadCap`]: a worker it excludes parks
//! (see [`crate::throttle`]) but keeps its thread.
//!
//! Idle workers back off adaptively — bounded spin, then yields, then a
//! park with an escalating timeout. Parks are counted in an idle-worker
//! gauge, and spawns only touch the condvar when that gauge is non-zero,
//! so steady-state spawn onto a busy pool performs **no condvar traffic
//! and no allocation** (task bodies are stored inline, see
//! [`crate::task`]). Batch spawns wake `min(batch, idle)` workers in one
//! wave instead of notify-one per task.
//!
//! The per-task path writes only cache lines the acting thread owns, and
//! most of it once per batch rather than per task: there is no shared
//! count of unfinished tasks — [`ThreadPool::pending`] and
//! [`ThreadPool::wait_idle`] fold the striped `rt.spawned` / `rt.executed`
//! counters — and a worker hands its `TaskBegin`/`TaskEnd` events to the
//! looking-glass deferred ([`LookingGlass::emit_deferred`]: one stripe
//! lock per 64 events), keeps a local tally of finished tasks, and
//! publishes events, then tally, then scope-barrier arrivals in batches,
//! when it runs dry or its event buffer fills (the flush rules are in
//! [`crate::scope`]). A chunk set enters the pool with one add per
//! counter.
//!
//! Task bodies run under `catch_unwind`: a panicking task increments a
//! counter and (for [`ThreadPool::spawn`]) surfaces through the
//! [`JoinHandle`]; it never takes a worker down.
//!
//! With a [`FaultConfig`] set, submitted tasks may be adversarially
//! crashed or delayed (see [`crate::fault`]) — the substrate for
//! resilience experiments. Injected bodies are built through the normal
//! `crate::task::TaskBody` constructors, so they exercise the same
//! inline/boxed representation as real tasks.

use crate::fault::{FaultConfig, FaultState, TaskFault};
use crate::lane::Lane;
use crate::scope::{flush_arrivals, flush_arrivals_unless};
use crate::task::{join_pair, BodyKind, JoinHandle, Task, TaskBody};
use crate::throttle::ThreadCap;
use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::{Event, LookingGlass};
use lg_metrics::{CounterHandle, CounterRegistry};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, OnceCell, UnsafeCell};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pool configuration.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Injected task faults (crash/straggler), for resilience testing.
    pub faults: Option<FaultConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            faults: None,
        }
    }
}

impl PoolConfig {
    /// Config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Default::default()
        }
    }
}

/// Spin rounds through the full search before yielding.
const SPIN_ROUNDS: usize = 16;
/// Yield rounds between the spin phase and parking (adaptive backoff).
const YIELD_ROUNDS: usize = 4;
/// First park timeout; doubles per consecutive empty park up to the max.
const PARK_MIN: std::time::Duration = std::time::Duration::from_millis(1);
/// Park timeout ceiling (bounds how stale a missed wake can get).
const PARK_MAX: std::time::Duration = std::time::Duration::from_millis(10);

thread_local! {
    /// (pool id, worker index) while this thread serves that index.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Tasks this worker finished that its pool's `rt.executed` does not
    /// count yet (see `publish_executed`).
    static EXECUTED: Cell<u64> = const { Cell::new(0) };
    /// That `rt.executed`; set when the worker starts.
    static EXECUTED_COUNTER: OnceCell<CounterHandle> = const { OnceCell::new() };
}

/// Adds the calling worker's finished-task tally to `rt.executed`. Only
/// once every event of those tasks has been delivered — a flush of the
/// thread's deferred events just did it — because `rt.executed` is what
/// takes a task out of `pending()`; the fence pairs with the Acquire fence
/// in `PoolShared::pending`.
fn publish_tally() {
    let n = EXECUTED.replace(0);
    if n > 0 {
        fence(Ordering::Release);
        EXECUTED_COUNTER.with(|c| c.get().expect("only workers run tasks").add(n));
    }
}

/// Delivers the calling thread's deferred events, then publishes its
/// finished-task tally. Runs before every publication of batched
/// arrivals, so a scope that returns has seen its tasks observed and
/// counted.
pub(crate) fn publish_executed() {
    lg_core::flush_deferred();
    publish_tally();
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(1);

/// True on a worker thread of any pool, while its loop is alive — the
/// threads that batch barrier arrivals (see [`crate::scope`]).
pub(crate) fn on_worker_thread() -> bool {
    CURRENT_WORKER.get().is_some()
}

/// A worker's LIFO slot: one task, owner-thread-only access.
///
/// The slot is only ever touched by the worker thread that owns it — it
/// fills when a task body running on that worker spawns, and drains in
/// that worker's own `find_task` or throttle transition (at shutdown it
/// is dropped with the pool, after `drop` joined every worker) — so a
/// plain `UnsafeCell` suffices. Padded so neighbouring slots never
/// share a cache line.
#[repr(align(64))]
struct LifoSlot {
    cell: UnsafeCell<Option<Task>>,
}

// SAFETY: see the struct docs — every access is from the owning worker
// thread; the container is only shared for placement, never for aliased
// access.
unsafe impl Sync for LifoSlot {}

pub(crate) struct PoolShared {
    pub(crate) id: usize,
    injector: Lane,
    /// `lanes[i]` and `slots[i]` belong to worker index `i`.
    lanes: Vec<Lane>,
    slots: Vec<LifoSlot>,
    lg: Arc<LookingGlass>,
    cap: ThreadCap,
    shutdown: AtomicBool,
    /// Workers currently parked on `idle_cv`. Spawns skip the condvar
    /// entirely while this is zero — the no-condvar fast path.
    idle_workers: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Threads blocked in `wait_idle`. Written only by them; a worker
    /// that runs dry reads it and, if non-zero, has them re-fold
    /// `pending`.
    idle_waiters: AtomicUsize,
    idle_waiters_lock: Mutex<()>,
    idle_waiters_cv: Condvar,
    panics: AtomicUsize,
    faults: Option<FaultState>,
    /// `dag.critical_bias` — 1 routes critical-path DAG tasks through the
    /// priority lane (LIFO slot / front-of-queue), 0 disables the bias so
    /// they take the normal steal path. Policy-steerable (see
    /// `lg_core::dag::CriticalPathPolicy`).
    dag_bias: Arc<AtomicKnob>,
    c_spawned: CounterHandle,
    c_executed: CounterHandle,
    c_steals: CounterHandle,
    c_parks: CounterHandle,
    c_inline_tasks: CounterHandle,
    c_boxed_tasks: CounterHandle,
    c_batch_spawns: CounterHandle,
    c_lifo_hits: CounterHandle,
    c_priority_pushes: CounterHandle,
    c_injected_panics: CounterHandle,
    c_injected_stragglers: CounterHandle,
}

/// The work-stealing thread pool. Dropping it drains nothing: it signals
/// shutdown, wakes everyone, and joins the workers (pending tasks that
/// were not yet started are dropped).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    counters: Arc<CounterRegistry>,
    /// One per worker index, in index order.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool attached to a `LookingGlass` instance, registers its
    /// counters and its `thread_cap` and `dag.critical_bias` knobs there,
    /// and spawns its workers. A knob name belongs to its last registrant:
    /// a second pool on one instance takes both names over, and the first
    /// is steered through its own accessors only.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(lg: Arc<LookingGlass>, config: PoolConfig) -> Self {
        assert!(config.workers > 0, "pool needs at least one worker");
        let counters = Arc::new(CounterRegistry::new());
        let slots = (0..config.workers)
            .map(|_| LifoSlot {
                cell: UnsafeCell::new(None),
            })
            .collect();
        let cap = ThreadCap::new(config.workers);
        let dag_bias = AtomicKnob::new(
            KnobSpec::new("dag.critical_bias", 0, 1)
                .with_unit("bool")
                .with_default(1),
            1,
        );
        lg.knobs().register(Arc::new(cap.clone()));
        lg.knobs().register(dag_bias.clone());
        // The pool's counters ride along in every introspection snapshot
        // the instance captures.
        lg.introspection().register_counters(counters.clone());
        let shared = Arc::new(PoolShared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Lane::new(),
            lanes: (0..config.workers).map(|_| Lane::new()).collect(),
            slots,
            lg,
            cap,
            shutdown: AtomicBool::new(false),
            idle_workers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle_waiters: AtomicUsize::new(0),
            idle_waiters_lock: Mutex::new(()),
            idle_waiters_cv: Condvar::new(),
            panics: AtomicUsize::new(0),
            dag_bias,
            faults: config
                .faults
                .as_ref()
                .filter(|f| f.is_active())
                .cloned()
                .map(FaultState::new),
            // Hot-path counters (bumped per task or per search round) are
            // striped so workers never contend on a shared cache line; the
            // fault-injection counters fire rarely and stay single-cell.
            c_spawned: counters.striped_counter("rt.spawned"),
            c_executed: counters.striped_counter("rt.executed"),
            c_steals: counters.striped_counter("rt.steals"),
            c_parks: counters.striped_counter("rt.parks"),
            c_inline_tasks: counters.striped_counter("rt.inline_tasks"),
            c_boxed_tasks: counters.striped_counter("rt.boxed_tasks"),
            c_batch_spawns: counters.striped_counter("rt.batch_spawns"),
            c_lifo_hits: counters.striped_counter("rt.lifo_hits"),
            c_priority_pushes: counters.striped_counter("rt.priority_pushes"),
            c_injected_panics: counters.counter("rt.injected_panics"),
            c_injected_stragglers: counters.counter("rt.injected_stragglers"),
        });
        let handles = (0..config.workers)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lg-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("failed to spawn worker")
            })
            .collect();
        Self {
            shared,
            counters,
            handles,
        }
    }

    /// The observation instance this pool reports to.
    pub fn lg(&self) -> &Arc<LookingGlass> {
        &self.shared.lg
    }

    /// The pool's thread-cap (also registered as knob `"thread_cap"`).
    pub fn thread_cap(&self) -> ThreadCap {
        self.shared.cap.clone()
    }

    /// The `dag.critical_bias` knob: 1 (default) routes critical-path DAG
    /// tasks through the priority lane, 0 sends them down the normal
    /// steal path. Registered on the instance's knob registry, so policies
    /// steer it by name.
    pub fn dag_bias_knob(&self) -> Arc<AtomicKnob> {
        self.shared.dag_bias.clone()
    }

    /// Scheduling counters (`rt.spawned`, `rt.executed`, `rt.steals`,
    /// `rt.parks`, `rt.inline_tasks`, `rt.boxed_tasks`, `rt.batch_spawns`,
    /// `rt.lifo_hits`, `rt.priority_pushes`) and the fault-injection pair
    /// (`rt.injected_panics`, `rt.injected_stragglers`).
    pub fn counters(&self) -> &Arc<CounterRegistry> {
        &self.counters
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Panics contained so far.
    pub fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Crash faults injected so far (0 if fault injection is disabled).
    pub fn injected_panics(&self) -> usize {
        self.shared
            .faults
            .as_ref()
            .map_or(0, |f| f.injected_panics())
    }

    /// Straggler faults injected so far (0 if fault injection is disabled).
    pub fn injected_stragglers(&self) -> usize {
        self.shared
            .faults
            .as_ref()
            .map_or(0, |f| f.injected_stragglers())
    }

    /// Tasks submitted and not yet finished: `rt.spawned − rt.executed`,
    /// folded from the striped counters (no shared count is kept per
    /// task). Zero proves a quiescent instant, and every effect of the
    /// tasks finished by then is visible to the caller.
    pub fn pending(&self) -> usize {
        self.shared.pending()
    }

    /// Spawns a fire-and-forget named task.
    pub fn spawn_named(&self, name: &str, body: impl FnOnce() + Send + 'static) {
        let id = self.shared.lg.intern(name);
        self.shared.push(Task::new(id, TaskBody::new(body)));
    }

    /// Spawns a named task returning a [`JoinHandle`] for its result.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: &str,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let id = self.shared.lg.intern(name);
        let (tx, rx) = join_pair();
        self.shared.push(Task::new(
            id,
            TaskBody::new(move || {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                    Ok(v) => tx.send(v),
                    Err(_) => {
                        tx.send_panicked();
                        // Re-panic so the worker's own catch_unwind counts it.
                        std::panic::panic_any(crate::pool::ContainedPanic);
                    }
                }
            }),
        ));
        rx.with_helper(self.shared.clone())
    }

    /// Spawns one fire-and-forget task per `chunk`-sized slice of `range`,
    /// all pointing at one heap copy of `body` that frees itself after the
    /// last chunk (each task captures `(&body, start, end)` — exactly the
    /// inline budget, so no per-chunk boxing and no per-chunk reference
    /// count). The whole set enters the injector in one batch push and
    /// wakes `min(chunks, idle)` workers in one wave. Returns the number
    /// of chunk tasks spawned.
    ///
    /// For the blocking/borrowing form used by
    /// [`ThreadPool::parallel_for`], see [`crate::Scope::spawn_batch`].
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
        F: Fn(usize, usize) + Send + Sync + 'static,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let id = self.shared.lg.intern(name);
        self.shared
            .push_batch(crate::scope::detached_batch_tasks(id, range, chunk, body))
    }

    /// Blocks until no tasks are pending. Concurrent spawns can of course
    /// re-arm the pool; this is a quiescence point, not a barrier.
    pub fn wait_idle(&self) {
        let shared = &self.shared;
        let mut g = shared.idle_waiters_lock.lock();
        // SeqCst against `notify_idle_waiters`: either the worker that
        // finishes the last task sees this registration (and notifies, once
        // the wait below has released the lock), or the fold sees its task.
        shared.idle_waiters.fetch_add(1, Ordering::SeqCst);
        while shared.pending() != 0 {
            shared
                .idle_waiters_cv
                .wait_for(&mut g, std::time::Duration::from_millis(50));
        }
        shared.idle_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }
}

/// Marker payload for panics already surfaced through a JoinHandle.
pub(crate) struct ContainedPanic;

impl PoolShared {
    /// `rt.spawned − rt.executed`. `executed` is folded first: it can
    /// only have grown by the time `spawned` is read and never exceeds it,
    /// so a zero difference means the two were equal when the first fold
    /// ended — a quiescent instant, not a torn read.
    fn pending(&self) -> usize {
        let executed = self.c_executed.get();
        // Pairs with the Release fence before `rt.executed` is bumped in
        // `publish_tally`: the counters are Relaxed, the fences make a
        // task counted here happen-before the caller.
        fence(Ordering::Acquire);
        self.c_spawned.get().saturating_sub(executed) as usize
    }

    /// Records `n` submitted tasks, `boxed` of them with boxed bodies: the
    /// spawn counter — which is also what makes them pending, so this
    /// precedes the push that makes them runnable — and the
    /// representation counters.
    fn count_spawned(&self, n: u64, boxed: u64) {
        self.c_spawned.add(n);
        if n > boxed {
            self.c_inline_tasks.add(n - boxed);
        }
        if boxed > 0 {
            self.c_boxed_tasks.add(boxed);
        }
    }

    /// Applies the fault drawn for `task`, if a `FaultConfig` is active.
    /// Every submitted task takes one draw, whatever path it enters by.
    fn draw_fault(&self, task: &mut Task) {
        if let Some(fs) = &self.faults {
            match fs.decide() {
                Some(TaskFault::Panic) => {
                    self.c_injected_panics.inc();
                    // Built through the normal constructor so injected
                    // bodies use the same inline representation as real
                    // tasks. Replacing the body drops the original closure
                    // here; a JoinSender captured inside resolves its
                    // handle as panicked via the drop guard, so `join`
                    // never hangs on a crash-faulted task.
                    task.body =
                        TaskBody::new(|| std::panic::panic_any(crate::fault::InjectedFault));
                }
                Some(TaskFault::Straggle(delay)) => {
                    self.c_injected_stragglers.inc();
                    let body = std::mem::replace(&mut task.body, TaskBody::new(|| {}));
                    task.body = TaskBody::new(move || {
                        std::thread::sleep(delay);
                        body.invoke();
                    });
                }
                None => {}
            }
        }
    }

    pub(crate) fn push(&self, task: Task) {
        self.submit(task, false);
    }

    /// Priority push for critical-path DAG tasks: as [`PoolShared::push`],
    /// but whatever the task displaces from the LIFO slot goes to the
    /// *front* of the worker's lane, ahead of older queued work, and from
    /// outside the pool the task enters the injector at the front, so the
    /// next batch take returns it first. With the `dag.critical_bias`
    /// knob at 0 this is a normal push.
    pub(crate) fn push_priority(&self, task: Task) {
        self.submit(task, self.dag_bias_enabled());
    }

    /// The one submission path for single tasks. On a worker of this
    /// pool the task takes the LIFO slot — it runs next on this worker,
    /// caches hot — and the previous occupant moves to the worker's lane,
    /// where it stays stealable. From any other thread it enters the
    /// injector. `priority` picks the lane end: front instead of back.
    fn submit(&self, mut task: Task, priority: bool) {
        self.draw_fault(&mut task);
        self.count_spawned(1, u64::from(task.body.kind() == BodyKind::Boxed));
        if priority {
            self.c_priority_pushes.inc();
        }
        let (lane, queued) = match self.current_worker() {
            Some(idx) => {
                // SAFETY: this thread serves worker index `idx` of this
                // pool (`CURRENT_WORKER` says so only while it does), which
                // makes it the only thread that touches `slots[idx]`.
                let displaced = unsafe { (*self.slots[idx].cell.get()).replace(task) };
                (&self.lanes[idx], displaced)
            }
            None => (&self.injector, Some(task)),
        };
        // No wake for a slot occupant: this worker runs it as soon as the
        // current body returns. A queued task is claimable by others.
        if let Some(queued) = queued {
            if priority {
                lane.push_front(queued);
            } else {
                lane.push_back(queued);
            }
            self.wake_workers(1);
        }
    }

    /// True while the `dag.critical_bias` knob routes critical tasks
    /// through the priority lane.
    pub(crate) fn dag_bias_enabled(&self) -> bool {
        use lg_core::knob::Knob;
        self.dag_bias.get() != 0
    }

    /// Pushes a pre-built chunk set into the injector in one operation and
    /// wakes `min(batch, idle)` workers in a single wave. Faults are drawn
    /// per task; the accounting is one add per counter for the whole set.
    /// Returns the set's size; an empty set is not a batch.
    pub(crate) fn push_batch(&self, mut tasks: Vec<Task>) -> usize {
        let n = tasks.len();
        if n > 0 {
            self.c_batch_spawns.inc();
            let mut boxed = 0;
            for task in &mut tasks {
                self.draw_fault(task);
                boxed += u64::from(task.body.kind() == BodyKind::Boxed);
            }
            self.count_spawned(n as u64, boxed);
            self.injector.extend(tasks);
            self.wake_workers(n);
        }
        n
    }

    /// Wakes up to `n` parked workers — nothing at all on the fast path
    /// where no one is parked.
    fn wake_workers(&self, n: usize) {
        // The fence orders the task-visible writes above before the idle
        // gauge read (the parking side pairs with it via its SeqCst RMW),
        // so a worker that missed the task is seen here and woken. A park
        // is bounded (PARK_MAX) regardless, so this is a latency
        // optimisation contract, not a liveness one.
        fence(Ordering::SeqCst);
        let idle = self.idle_workers.load(Ordering::Relaxed);
        if idle == 0 {
            return;
        }
        let _g = self.idle_lock.lock();
        if n >= idle {
            self.idle_cv.notify_all();
        } else {
            for _ in 0..n {
                self.idle_cv.notify_one();
            }
        }
    }

    /// True if any queue a parking worker could serve holds work.
    fn has_stealable_work(&self) -> bool {
        !self.injector.is_empty() || self.lanes.iter().any(|l| !l.is_empty())
    }

    /// Worker `index`'s search: its slot, its lane, a batch from the
    /// injector, then one task from the back of each other lane in turn.
    fn find_task(&self, index: usize) -> Option<Task> {
        // SAFETY: only the thread serving worker `index` calls this with
        // that index — see `worker_loop` and `try_help`.
        if let Some(t) = unsafe { (*self.slots[index].cell.get()).take() } {
            self.c_lifo_hits.inc();
            return Some(t);
        }
        let local = &self.lanes[index];
        if let Some(t) = local
            .pop_front()
            .or_else(|| self.injector.take_batch(local))
        {
            return Some(t);
        }
        let n = self.lanes.len();
        let stolen = (1..n).find_map(|off| self.lanes[(index + off) % n].pop_back())?;
        self.c_steals.inc();
        Some(stolen)
    }

    /// Throttle drain rule: a worker about to park under the thread cap
    /// first evicts its LIFO slot into the injector, so no task strands on
    /// a parked worker (the slot, unlike the lane, is not stealable).
    fn drain_slot(&self, index: usize) {
        // SAFETY: called only by the thread serving worker `index`, on
        // its own slot.
        if let Some(t) = unsafe { (*self.slots[index].cell.get()).take() } {
            self.injector.push_back(t);
            self.wake_workers(1);
        }
    }

    /// Called by a worker that ran tasks and then found nothing: has any
    /// `wait_idle` caller re-fold `pending`. One load of a line only
    /// waiters write, on the idle path.
    fn notify_idle_waiters(&self) {
        // Orders this worker's `rt.executed` bumps before the load; pairs
        // with the SeqCst registration in `wait_idle`.
        fence(Ordering::SeqCst);
        if self.idle_waiters.load(Ordering::SeqCst) != 0 {
            let _g = self.idle_waiters_lock.lock();
            self.idle_waiters_cv.notify_all();
        }
    }

    /// The worker index the calling thread serves in this pool, if any.
    fn current_worker(&self) -> Option<usize> {
        match CURRENT_WORKER.get() {
            Some((pool_id, index)) if pool_id == self.id => Some(index),
            _ => None,
        }
    }

    /// True if the calling thread is one of this pool's workers.
    pub(crate) fn is_current_worker(&self) -> bool {
        self.current_worker().is_some()
    }

    /// If the calling thread is one of this pool's workers, pops and runs
    /// one pending task (work-stealing join support: a worker blocked in a
    /// scope barrier helps instead of sleeping, which is what makes nested
    /// scopes and fork-join recursion deadlock-free). Returns true if a
    /// task was run. Flush rule (d): the helped task's arrival is
    /// published before returning to whatever long task is helping.
    pub(crate) fn try_help(self: &Arc<Self>) -> bool {
        let Some(index) = self.current_worker() else {
            return false;
        };
        let Some(task) = self.find_task(index) else {
            return false;
        };
        run_task(self, task, index);
        flush_arrivals();
        true
    }
}

/// The body of the thread serving worker `index`, from
/// [`ThreadPool::new`] until `drop` raises `shutdown`: `WorkerStart` …
/// `WorkerStop`, with a `WorkerStop`/`WorkerStart` pair around every park
/// under the cap.
fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    // Pin this worker's stripe index to its worker id so striped counters
    // and sharded listeners get a dense, deterministic worker → stripe map.
    lg_metrics::stripe::set_thread_index(index);
    CURRENT_WORKER.set(Some((shared.id, index)));
    EXECUTED_COUNTER.with(|c| {
        c.get_or_init(|| shared.c_executed.clone());
    });
    shared.lg.emit(&Event::WorkerStart {
        worker: index,
        t_ns: shared.lg.now_ns(),
    });
    let mut online = true;
    let mut park_timeout = PARK_MIN;
    // Tasks were run since `wait_idle` callers were last notified.
    let mut ran = false;
    // Before this worker stops looking at its own queues — to search
    // elsewhere, park under the cap, or exit at shutdown — it publishes
    // its batched arrivals (flush rules a and c) and has `wait_idle`
    // callers re-fold.
    let quiesce = |ran: &mut bool| {
        flush_arrivals();
        if std::mem::take(ran) {
            shared.notify_idle_waiters();
        }
    };
    while !shared.shutdown.load(Ordering::Acquire) {
        // Throttling: park if the cap excludes this worker. Drain the LIFO
        // slot first — a throttled worker must never sit on a task.
        if !shared.cap.allows(index) {
            shared.drain_slot(index);
            quiesce(&mut ran);
            if online {
                shared.lg.emit(&Event::WorkerStop {
                    worker: index,
                    t_ns: shared.lg.now_ns(),
                });
                online = false;
            }
            // Allowed again or shutdown: the loop head decides which.
            shared
                .cap
                .wait_until_allowed(index, || shared.shutdown.load(Ordering::Acquire));
            continue;
        }
        if !online {
            shared.lg.emit(&Event::WorkerStart {
                worker: index,
                t_ns: shared.lg.now_ns(),
            });
            online = true;
        }
        // Adaptive idle backoff: spin (cheap, latency-optimal), then yield
        // the timeslice, then park with an escalating timeout.
        let mut found = false;
        for round in 0..(SPIN_ROUNDS + YIELD_ROUNDS) {
            if let Some(task) = shared.find_task(index) {
                run_task(&shared, task, index);
                found = true;
                ran = true;
                break;
            }
            quiesce(&mut ran);
            if round < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if found {
            park_timeout = PARK_MIN;
            continue;
        }
        // Park. The idle gauge makes this worker visible to spawners (who
        // skip the condvar entirely while it reads zero); the SeqCst RMW
        // pairs with the fence in `wake_workers`, and the re-check under
        // the lock closes the remaining publish/park race. The wait stays
        // bounded so shutdown and cap changes are always observed.
        shared.c_parks.inc();
        let mut g = shared.idle_lock.lock();
        shared.idle_workers.fetch_add(1, Ordering::SeqCst);
        if !shared.shutdown.load(Ordering::Acquire) && !shared.has_stealable_work() {
            shared.idle_cv.wait_for(&mut g, park_timeout);
            park_timeout = (park_timeout * 2).min(PARK_MAX);
        }
        shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
    }
    // Shutdown. Tasks still queued, slot included, are dropped with the
    // pool; drop guards resolve joins.
    quiesce(&mut ran);
    if online {
        shared.lg.emit(&Event::WorkerStop {
            worker: index,
            t_ns: shared.lg.now_ns(),
        });
    }
    // From here on this thread publishes arrivals at once (rule f), so a
    // completion dropped with the pool's queues cannot strand in a batch.
    CURRENT_WORKER.set(None);
}

fn run_task(shared: &Arc<PoolShared>, task: Task, index: usize) {
    let Task {
        name,
        body,
        completion,
    } = task;
    // Flush rule (b): arrivals batched for another barrier do not wait
    // behind this task.
    flush_arrivals_unless(
        completion
            .as_ref()
            .map_or(std::ptr::null(), |c| c.barrier()),
    );
    // The task's two events are deferred: delivered in batches, in order,
    // when the thread's buffer fills or its arrivals are published
    // (`publish_executed`) — whichever comes first.
    let t0 = shared.lg.now_ns();
    if shared.lg.emit_deferred(&Event::TaskBegin {
        task: name,
        worker: index,
        t_ns: t0,
    }) {
        publish_tally();
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body.invoke()));
    let t1 = shared.lg.now_ns();
    let delivered = shared.lg.emit_deferred(&Event::TaskEnd {
        task: name,
        worker: index,
        t_ns: t1,
        elapsed_ns: t1.saturating_sub(t0),
    });
    let panicked = result.is_err();
    if panicked {
        shared.panics.fetch_add(1, Ordering::Relaxed);
    }
    // `rt.executed` is what takes the task out of `pending()`, so it moves
    // after everything `wait_idle` promises: the worker tallies the task
    // and adds the tally once the task's events have been delivered.
    EXECUTED.set(EXECUTED.get() + 1);
    if delivered {
        publish_tally();
    }
    // Completion hooks run last; their arrivals are published after the
    // tally (`scope::flush_arrivals`).
    if let Some(c) = completion {
        c.run(panicked);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cap.wake_all();
        {
            let _g = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers())
            .field("cap", &self.shared.cap.current())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(workers: usize) -> ThreadPool {
        pool_on(LookingGlass::builder().build(), workers)
    }

    fn pool_on(lg: Arc<LookingGlass>, workers: usize) -> ThreadPool {
        ThreadPool::new(lg, PoolConfig::with_workers(workers))
    }

    #[test]
    fn runs_spawned_tasks() {
        let p = pool(2);
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = count.clone();
            p.spawn_named("inc", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        p.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(p.counters().counter("rt.executed").get(), 100);
    }

    #[test]
    fn scheduling_counters_are_striped() {
        let p = pool(2);
        for name in [
            "rt.spawned",
            "rt.executed",
            "rt.steals",
            "rt.parks",
            "rt.inline_tasks",
            "rt.boxed_tasks",
            "rt.batch_spawns",
            "rt.lifo_hits",
            "rt.priority_pushes",
        ] {
            assert!(p.counters().counter(name).is_striped(), "{name}");
        }
        // Fault counters fire rarely and stay single-cell.
        assert!(!p.counters().counter("rt.injected_panics").is_striped());
    }

    #[test]
    fn small_closures_are_counted_inline() {
        let p = pool(2);
        for _ in 0..50 {
            p.spawn_named("small", || {});
        }
        p.wait_idle();
        assert_eq!(p.counters().counter("rt.inline_tasks").get(), 50);
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    }

    #[test]
    fn oversized_closures_are_counted_boxed() {
        let p = pool(2);
        let big = [0u8; 128];
        p.spawn_named("big", move || {
            std::hint::black_box(big);
        });
        p.wait_idle();
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 1);
    }

    #[test]
    fn join_handle_returns_value() {
        let p = pool(2);
        let h = p.spawn("answer", || 6 * 7);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn worker_joining_its_own_child_does_not_deadlock() {
        // The child lands in the parent's LIFO slot; the helping join must
        // find it there even on a single-worker pool.
        let p = Arc::new(pool(1));
        let p2 = p.clone();
        let h = p.spawn("parent", move || {
            let child = p2.spawn("child", || 21u64);
            child.join().unwrap() * 2
        });
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let p = pool(4);
        let n = 2000;
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        for i in 0..n {
            let hits = hits.clone();
            p.spawn_named("once", move || {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        p.wait_idle();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "task {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn spawn_batch_runs_every_chunk() {
        let p = pool(2);
        let n = 1000usize;
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let h = hits.clone();
        let chunks = p.spawn_batch("batch", 0..n, 64, move |start, end| {
            for i in start..end {
                h[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(chunks, n.div_ceil(64));
        p.wait_idle();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
        assert_eq!(p.counters().counter("rt.batch_spawns").get(), 1);
        // (&body, start, end) captures fit the inline budget exactly.
        assert_eq!(
            p.counters().counter("rt.inline_tasks").get() as usize,
            chunks
        );
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    }

    #[test]
    fn empty_spawn_batch_is_a_noop() {
        let p = pool(1);
        assert_eq!(p.spawn_batch("none", 5..5, 8, |_, _| {}), 0);
        assert_eq!(p.counters().counter("rt.batch_spawns").get(), 0);
        p.wait_idle();
    }

    #[test]
    fn lifo_slot_is_used_for_worker_spawns() {
        let p = Arc::new(pool(1));
        let p2 = p.clone();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        p.spawn_named("parent", move || {
            let c = c.clone();
            p2.spawn_named("child", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        });
        p.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert!(
            p.counters().counter("rt.lifo_hits").get() >= 1,
            "worker-spawned child should be served from the LIFO slot"
        );
    }

    #[test]
    fn panicking_task_is_contained() {
        let p = pool(2);
        let h = p.spawn("boom", || panic!("intentional"));
        assert!(h.join().is_err());
        // Pool still works afterwards.
        let h2 = p.spawn("after", || 1);
        assert_eq!(h2.join().unwrap(), 1);
        // join() wakes before the worker finishes its own bookkeeping;
        // quiesce before reading the panic counter.
        p.wait_idle();
        assert_eq!(p.panics(), 1);
    }

    #[test]
    fn tasks_spawned_from_tasks_run() {
        let p = Arc::new(pool(2));
        let count = Arc::new(AtomicU64::new(0));
        let shared = p.shared().clone();
        let c = count.clone();
        let lg = p.lg().clone();
        p.spawn_named("parent", move || {
            for _ in 0..10 {
                let c = c.clone();
                let id = lg.intern("child");
                shared.push(crate::task::Task::new(
                    id,
                    TaskBody::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                ));
            }
        });
        p.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn profiles_observe_tasks() {
        let p = pool(2);
        for _ in 0..5 {
            p.spawn_named("profiled", || {
                std::hint::black_box((0..1000).sum::<u64>());
            });
        }
        p.wait_idle();
        let prof = p.lg().profiles().get("profiled").unwrap();
        assert_eq!(prof.count, 5);
        assert_eq!(prof.active, 0);
        assert!(prof.mean_ns > 0.0);
    }

    #[test]
    fn thread_cap_knob_registered() {
        let p = pool(4);
        let knobs = p.lg().knobs();
        let cap = knobs.id("thread_cap").expect("registered");
        assert_eq!(knobs.value_id(cap), Some(4));
        knobs.set_id(cap, 2);
        assert_eq!(p.thread_cap().current(), 2);
    }

    #[test]
    fn throttled_pool_still_completes_work() {
        let p = pool(4);
        p.thread_cap().set_cap(1);
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let c = count.clone();
            p.spawn_named("t", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        p.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn cap_changes_mid_stream_lose_nothing() {
        let p = pool(4);
        let count = Arc::new(AtomicU64::new(0));
        for burst in 0..10 {
            p.thread_cap().set_cap(1 + (burst % 4));
            for _ in 0..50 {
                let c = count.clone();
                p.spawn_named("t", move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        p.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    /// Spin until `cond` holds (bounded).
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn drop_joins_workers_while_capped() {
        let p = pool(3);
        p.thread_cap().set_cap(1);
        p.spawn_named("x", || {});
        p.wait_idle();
        drop(p); // must not hang with two workers parked under the cap
    }

    /// `WorkerStart`/`WorkerStop` per worker index, in emission order.
    struct Residencies(Mutex<Vec<(usize, bool)>>);

    impl lg_core::Listener for Residencies {
        fn name(&self) -> &str {
            "residencies"
        }
        fn on_event(&self, event: &Event) {
            match *event {
                Event::WorkerStart { worker, .. } => self.0.lock().push((worker, true)),
                Event::WorkerStop { worker, .. } => self.0.lock().push((worker, false)),
                _ => {}
            }
        }
    }

    impl Residencies {
        /// Panics unless every index reads start, stop, start, stop, …
        /// Returns how many residencies are still open.
        fn open_after_strict_alternation(&self, workers: usize) -> usize {
            let log = self.0.lock();
            (0..workers)
                .filter(|&index| {
                    let mut resident = false;
                    for &(_, start) in log.iter().filter(|(w, _)| *w == index) {
                        assert_ne!(start, resident, "index {index}: two starts or two stops");
                        resident = start;
                    }
                    resident
                })
                .count()
        }
    }

    #[test]
    fn cap_flaps_keep_one_residency_per_worker_index() {
        const WORKERS: usize = 4;
        const ROOTS: usize = 300;
        const CHILDREN: usize = 3;
        let lg = LookingGlass::builder().build();
        let residencies = Arc::new(Residencies(Mutex::new(Vec::new())));
        lg.add_listener(residencies.clone());
        let p = pool_on(lg.clone(), WORKERS);
        let cap = p.thread_cap();
        let name = lg.intern("flap");
        let open = |want: usize| {
            eventually("residencies did not follow the cap", || {
                residencies.open_after_strict_alternation(WORKERS) == want
            })
        };
        let hits: Arc<Vec<AtomicU64>> = Arc::new(
            (0..ROOTS * (1 + CHILDREN))
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        // Every worker has reported in, so a settled shrink below stops
        // threads that really started.
        open(WORKERS);
        for root in 0..ROOTS {
            cap.set_cap(if root % 2 == 0 { 1 } else { WORKERS });
            // Every other flap settles, so workers really park and really
            // come back; the rest race the workers' next decision.
            match root % 4 {
                0 => open(1),
                1 => open(WORKERS),
                _ => {}
            }
            let (hits, shared) = (hits.clone(), p.shared().clone());
            p.spawn_named("flap", move || {
                hits[root * (1 + CHILDREN)].fetch_add(1, Ordering::Relaxed);
                // Spawned on a worker: each child takes that worker's
                // LIFO slot and displaces the one before it.
                for child in 1..=CHILDREN {
                    let hits = hits.clone();
                    shared.push(Task::new(
                        name,
                        TaskBody::new(move || {
                            hits[root * (1 + CHILDREN) + child].fetch_add(1, Ordering::Relaxed);
                        }),
                    ));
                }
            });
        }
        cap.set_cap(3);
        p.wait_idle();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
        }
        open(3);
        let settled_pairs = ROOTS / 4;
        assert!(residencies.0.lock().len() >= settled_pairs * 2 * (WORKERS - 1));

        // Drop while another thread keeps flapping the cap: every worker
        // has stopped by the time `drop` returns.
        let dropped = AtomicBool::new(false);
        let flaps = AtomicUsize::new(0);
        let events = std::thread::scope(|s| {
            s.spawn(|| {
                while !dropped.load(Ordering::Acquire) {
                    let flap = flaps.fetch_add(1, Ordering::Release);
                    cap.set_cap(if flap.is_multiple_of(2) { 1 } else { WORKERS });
                }
            });
            // Let a few flaps land first.
            while flaps.load(Ordering::Acquire) < 20 {
                std::thread::yield_now();
            }
            drop(p);
            let events = residencies.0.lock().len();
            dropped.store(true, Ordering::Release);
            events
        });
        assert_eq!(residencies.open_after_strict_alternation(WORKERS), 0);
        assert_eq!(residencies.0.lock().len(), events, "a worker outlived drop");
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let p = pool(2);
        p.wait_idle();
    }

    #[test]
    fn drop_joins_workers() {
        let p = pool(3);
        p.spawn_named("x", || {});
        p.wait_idle();
        drop(p); // must not hang
    }

    #[test]
    fn injected_panics_are_contained_and_counted() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(
            lg,
            PoolConfig {
                workers: 2,
                faults: Some(crate::fault::FaultConfig::seeded(7).panic_prob(0.5)),
            },
        );
        let count = Arc::new(AtomicU64::new(0));
        let n = 400;
        for _ in 0..n {
            let c = count.clone();
            p.spawn_named("maybe", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        p.wait_idle();
        let crashed = p.injected_panics();
        assert!(
            crashed > 0,
            "0.5 panic prob over {n} tasks injected nothing"
        );
        assert_eq!(count.load(Ordering::Relaxed) as usize, n - crashed);
        assert_eq!(p.panics(), crashed, "every injected crash was contained");
        assert_eq!(
            p.counters().counter("rt.injected_panics").get() as usize,
            crashed
        );
        // Pool still functional.
        let h = p.spawn("after", || 3);
        assert!(matches!(h.join(), Ok(3) | Err(_)));
    }

    #[test]
    fn injected_bodies_use_the_inline_representation() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(
            lg,
            PoolConfig {
                workers: 1,
                faults: Some(crate::fault::FaultConfig::seeded(5).panic_prob(1.0)),
            },
        );
        for _ in 0..20 {
            p.spawn_named("doomed", || {});
        }
        p.wait_idle();
        // The injected panic closure is zero-sized: inline, not boxed.
        assert_eq!(p.counters().counter("rt.inline_tasks").get(), 20);
        assert_eq!(p.counters().counter("rt.boxed_tasks").get(), 0);
    }

    #[test]
    fn crash_faulted_spawn_still_resolves_join() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(
            lg,
            PoolConfig {
                workers: 2,
                faults: Some(crate::fault::FaultConfig::seeded(1).panic_prob(1.0)),
            },
        );
        // Every task crashes; joins must error, never hang.
        for _ in 0..50 {
            assert!(p.spawn("doomed", || 1).join().is_err());
        }
        p.wait_idle();
        assert_eq!(p.injected_panics(), 50);
    }

    #[test]
    fn stragglers_delay_but_complete() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(
            lg,
            PoolConfig {
                workers: 2,
                faults: Some(
                    crate::fault::FaultConfig::seeded(3)
                        .straggler(1.0, std::time::Duration::from_millis(5)),
                ),
            },
        );
        let t0 = std::time::Instant::now();
        let h = p.spawn("slow", || 11);
        assert_eq!(h.join().unwrap(), 11);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(p.injected_stragglers(), 1);
        assert_eq!(p.counters().counter("rt.injected_stragglers").get(), 1);
        assert_eq!(p.panics(), 0);
    }

    #[test]
    fn inactive_fault_config_injects_nothing() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(
            lg,
            PoolConfig {
                workers: 2,
                faults: Some(crate::fault::FaultConfig::seeded(9)),
            },
        );
        for _ in 0..100 {
            p.spawn_named("fine", || {});
        }
        p.wait_idle();
        assert_eq!(p.injected_panics(), 0);
        assert_eq!(p.injected_stragglers(), 0);
        assert_eq!(p.panics(), 0);
    }

    #[test]
    fn worker_events_reach_concurrency_listener() {
        let lg = LookingGlass::builder().build();
        let p = ThreadPool::new(lg.clone(), PoolConfig::with_workers(2));
        // Workers come online lazily but WorkerStart fires at thread start.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while lg.concurrency().online_workers() < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(lg.concurrency().online_workers(), 2);
        drop(p);
        assert_eq!(lg.concurrency().online_workers(), 0);
    }
}
