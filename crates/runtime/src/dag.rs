//! Dependency-tracking spawn surface: DAG scopes.
//!
//! `pool.dag_scope(|g| { let a = g.spawn_after("a", &[], ...); g.spawn_after("b", &[a], ...) })`
//! runs a dependency graph on the pool. Each node carries an atomic
//! **remaining-dependency counter**; completing a task walks its
//! successor list and decrements, and the decrement that observes the
//! last dependency (`1 → 0`) takes the successor's pre-built task out of
//! its node and enqueues it. There is **no polling** — a node is touched
//! exactly once per dependency edge plus once to enqueue — and the
//! release path performs **no allocation**: the task record was built at
//! `spawn_after` time (inline-body rules from [`crate::task`] apply
//! unchanged), so promotion is a pointer move into the LIFO slot, the
//! worker's queue, or the injector.
//!
//! ## Two-level priority
//!
//! A node spawned with [`DagHint::critical`] takes the **priority lane**
//! when released: on a worker it lands in that worker's LIFO slot (runs
//! next, caches hot; a displaced occupant moves to the *front* of that
//! worker's queue, the end its owner pops), from outside it enters the
//! injector at the front, the end batch takes come from. Every queue is
//! the pool's one mutex-guarded `Lane` type, so a front push is an
//! ordinary operation on it. Off-path nodes go to the back. The lane is
//! gated by the pool's `dag.critical_bias` knob, so a policy
//! ([`lg_core::dag::CriticalPathPolicy`]) can turn the bias off when the
//! DAG offers abundant width.
//!
//! ## Dep-counter protocol
//!
//! Nodes live in an append-only **arena** of segments that never move
//! (segment *k* holds `64 << k` nodes), so a completing worker reaches a
//! node with one pointer load and an offset — no lock on the node table.
//! Only wiring threads take the arena's small append mutex.
//!
//! Every counter starts at `deps + 1`: the extra **wiring guard** keeps
//! the node unreleasable while its edges are being attached. For each
//! dependency, `spawn_after` locks the predecessor's successor list; if
//! the predecessor has not completed it adds the edge (counter +1 under
//! the same lock the completer will take), otherwise the dependency is
//! already satisfied and contributes nothing. A list keeps its first
//! four successors inline and spills to a `Vec` only past that, so
//! wiring the usual patterns allocates nothing per node.
//! Dropping the wiring guard goes through the same `1 → 0` release path,
//! so a node whose dependencies all completed during wiring (or that has
//! none) is enqueued right there. Completion marks the successor list
//! `done` before draining it, so late edges to a completed predecessor
//! are never lost — they simply never get added.
//!
//! ## Safety
//!
//! Bodies may borrow from the enclosing stack frame (`'scope`), with the
//! same barrier — the same [`Barrier`] type, batched arrivals and
//! wait-from-a-drop-guard included — as [`crate::scope`]: `dag_scope` does
//! not return or unwind until every node's completion has arrived, and a
//! completion arrives only after the worker is done with the body. The
//! scope's shared state, node arena included, lives on `dag_scope`'s
//! stack frame and each node's completion holds a plain pointer to it;
//! successor release is immediate, only the barrier arrival is batched.
//!
//! A node is written into the arena before its id exists, and an id
//! reaches another thread only after that: through a predecessor's
//! successor list (under its lock) or inside the node's task (through the
//! `AcqRel` counter chain and the pool's queue mutexes). So every thread
//! that holds an id sees its node whole, and no id names a slot past the
//! arena's end. The task cell inside a node is written once by the
//! spawning thread while the wiring guard (counter ≥ 1) makes the node
//! unreleasable, and taken once by the unique thread that observes the
//! `1 → 0` transition; the `AcqRel` counter chain orders the write before
//! the take.
//!
//! Panic semantics match `scope`: a panicking node still releases its
//! successors (the DAG keeps draining — crashed-node successors must not
//! leak, which is also what keeps fault-injection runs exactly-once), and
//! `dag_scope` re-throws after the barrier.

use crate::pool::ThreadPool;
use crate::scope::{Barrier, Completion, WaitOnDrop};
use crate::task::{Task, TaskBody};
use lg_core::dag::DagStats;
use parking_lot::Mutex;
use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies a node within one [`DagScope`]. Returned by
/// [`DagScope::spawn_after`] and passed as a dependency to later spawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagNodeId(u32);

/// Scheduling hints for a DAG node.
#[derive(Clone, Copy, Debug, Default)]
pub struct DagHint {
    /// Route this node through the priority lane when it becomes ready
    /// (LIFO slot / front-of-queue), subject to the `dag.critical_bias`
    /// knob. Mark nodes on (or near) the critical path.
    pub critical: bool,
    /// Estimated downstream cost including this node (the upward rank),
    /// in nanoseconds of any consistent cost model. Feeds the `dag.*`
    /// introspection gauges when the scope carries a [`DagStats`].
    pub height_ns: u64,
}

impl DagHint {
    /// A critical-path hint with the given height.
    pub fn critical(height_ns: u64) -> Self {
        Self {
            critical: true,
            height_ns,
        }
    }

    /// An off-path hint with the given height.
    pub fn normal(height_ns: u64) -> Self {
        Self {
            critical: false,
            height_ns,
        }
    }
}

/// Successors a list holds before it spills to the heap: enough for
/// every edge of the sweep, stencil and tree patterns but a sweep row's
/// first node.
const INLINE_SUCCS: usize = 4;

#[derive(Default)]
struct SuccList {
    /// Set before the list is drained; edges to a `done` predecessor are
    /// already satisfied and are never recorded.
    done: bool,
    /// Successors recorded, inline and spilled.
    len: usize,
    inline: [u32; INLINE_SUCCS],
    /// Successors past the first [`INLINE_SUCCS`].
    spill: Vec<u32>,
}

impl SuccList {
    fn push(&mut self, id: u32) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = id,
            None => self.spill.push(id),
        }
        self.len += 1;
    }

    /// Marks the list `done` and moves its successors out.
    fn drain(&mut self) -> impl Iterator<Item = u32> {
        self.done = true;
        let inline = self.inline;
        let n = std::mem::take(&mut self.len).min(INLINE_SUCCS);
        inline
            .into_iter()
            .take(n)
            .chain(std::mem::take(&mut self.spill))
    }
}

struct NodeState {
    /// Unmet dependencies + 1 wiring guard (see module docs).
    remaining: AtomicUsize,
    /// The pre-built task, written once during wiring, taken once on the
    /// `1 → 0` transition.
    task: UnsafeCell<Option<Task>>,
    succs: Mutex<SuccList>,
    critical: bool,
    height_ns: u64,
}

// SAFETY: the `task` cell is the only non-Sync field; it is written by
// the wiring thread while the wiring guard keeps `remaining` ≥ 1 and
// taken by the single thread that observes the `1 → 0` transition of
// `remaining` — never two threads at once (see module docs).
unsafe impl Sync for NodeState {}
// SAFETY: `Task` is moved between threads by the pool's queues already;
// the cell adds no thread affinity.
unsafe impl Send for NodeState {}

/// Nodes in segment 0; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 64;
/// Enough segments for every `u32` id: id `u32::MAX` lands in segment
/// `log2(u32::MAX + 64) - log2(64)` = 26.
const SEGMENTS: usize = 27;

/// The append-only node table: segments allocated on first use and never
/// moved or freed before the arena drops, so a `&NodeState` stays valid
/// while other threads append.
struct NodeArena {
    segments: [AtomicPtr<NodeState>; SEGMENTS],
    /// Nodes written so far; appends are serialized on it.
    len: Mutex<u32>,
}

impl NodeArena {
    fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: Mutex::new(0),
        }
    }

    /// Segment and offset of node `id`.
    fn locate(id: u32) -> (usize, usize) {
        let j = id as usize + FIRST_SEGMENT;
        let k = (j.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
        (k, j - (FIRST_SEGMENT << k))
    }

    fn layout(k: usize) -> Layout {
        Layout::array::<NodeState>(FIRST_SEGMENT << k).expect("a segment's size fits isize")
    }

    /// Appends `node`; returns its id and a reference to it in place.
    fn push(&self, node: NodeState) -> (u32, &NodeState) {
        let mut len = self.len.lock();
        let id = *len;
        let next = id.checked_add(1).expect("dag node count fits u32");
        let (k, off) = Self::locate(id);
        let mut seg = self.segments[k].load(Ordering::Relaxed);
        if seg.is_null() {
            // SAFETY: `NodeState` is not zero-sized, so neither is the
            // layout.
            seg = unsafe { alloc::alloc(Self::layout(k)) }.cast();
            if seg.is_null() {
                alloc::handle_alloc_error(Self::layout(k));
            }
            // Release pairs with the Acquire in `get`.
            self.segments[k].store(seg, Ordering::Release);
        }
        // SAFETY: `off < FIRST_SEGMENT << k`, the segment's capacity, and
        // slot `id` is unwritten: ids are handed out once, under `len`.
        // The slot never moves, so the reference lives as long as `self`.
        let node = unsafe {
            let slot = seg.add(off);
            slot.write(node);
            &*slot
        };
        *len = next;
        (id, node)
    }

    /// Node `id`: one `Acquire` pointer load and an offset, no lock.
    ///
    /// # Safety
    /// `id` must have been returned by [`NodeArena::push`] on this arena,
    /// and reached the caller after that push (see the module docs).
    unsafe fn get(&self, id: u32) -> &NodeState {
        let (k, off) = Self::locate(id);
        let seg = self.segments[k].load(Ordering::Acquire);
        debug_assert!(!seg.is_null(), "node {id} was never pushed");
        // SAFETY: the caller's id was pushed, so its segment is allocated
        // and slot `off` is initialised; nodes never move.
        unsafe { &*seg.add(off) }
    }
}

impl Drop for NodeArena {
    fn drop(&mut self) {
        let len = *self.len.get_mut() as usize;
        for (k, seg) in self.segments.iter_mut().enumerate() {
            let seg = *seg.get_mut();
            if seg.is_null() {
                // Segments are allocated in order: none further.
                break;
            }
            let first = (FIRST_SEGMENT << k) - FIRST_SEGMENT;
            let written = len.saturating_sub(first).min(FIRST_SEGMENT << k);
            // SAFETY: ids `first..first + written` were pushed into this
            // segment, so its first `written` slots are initialised; the
            // segment was allocated with `layout(k)`; `&mut self` means
            // no reference into it survives.
            unsafe {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(seg, written));
                alloc::dealloc(seg.cast(), Self::layout(k));
            }
        }
    }
}

pub(crate) struct DagInner {
    pool: Arc<crate::pool::PoolShared>,
    nodes: NodeArena,
    /// Nodes spawned and not yet completed.
    barrier: Barrier,
    stats: Option<Arc<DagStats>>,
}

impl DagInner {
    /// Drops one dependency of `n`. The decrement that hits zero takes
    /// the task and enqueues it — the no-polling promotion point.
    fn complete_dep(&self, n: &NodeState) {
        if n.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: unique `1 → 0` observer; the write to the cell
            // happened before the wiring guard was dropped and is ordered
            // by the AcqRel counter chain.
            let task = unsafe { (*n.task.get()).take() }.expect("released node carries a task");
            if let Some(st) = &self.stats {
                st.on_release(n.height_ns);
            }
            if n.critical {
                self.pool.push_priority(task);
            } else {
                self.pool.push(task);
            }
        }
    }

    /// Called (via [`DagCompletion`]) when a node's body has run or been
    /// discarded: releases its successors. The barrier arrival follows.
    fn complete_node(&self, node: u32) {
        // SAFETY: `node` is the id this completion's task was built for,
        // after its push.
        let me = unsafe { self.nodes.get(node) };
        if let Some(st) = &self.stats {
            st.on_complete(me.height_ns);
        }
        // Bound first, so the list lock is released before the walk.
        let succs = me.succs.lock().drain();
        for s in succs {
            // SAFETY: successor ids were pushed before their edge was
            // recorded, and read back under the same list lock.
            self.complete_dep(unsafe { self.nodes.get(s) });
        }
    }
}

/// A DAG task's completion hook: releases successors from `Drop`, then
/// arrives at the scope barrier, so a task discarded at shutdown still
/// unblocks its scope.
pub(crate) struct DagCompletion {
    /// Valid until this completion's arrival has been published: the
    /// node was counted by `Barrier::add` before its task was built, and
    /// `dag_scope` does not pop the frame holding the `DagInner` (and its
    /// barrier) while the count is non-zero.
    dag: *const DagInner,
    node: u32,
}

// SAFETY: the pointer is only dereferenced as `&DagInner`, which is `Sync`
// (node cells: see `NodeState`); validity is the field's invariant.
unsafe impl Send for DagCompletion {}

impl DagCompletion {
    pub(crate) fn barrier(&self) -> *const Barrier {
        // SAFETY: not yet arrived — see the `dag` field.
        unsafe { &(*self.dag).barrier }
    }
}

impl Drop for DagCompletion {
    fn drop(&mut self) {
        // SAFETY: not yet arrived — see the `dag` field.
        let dag = unsafe { &*self.dag };
        dag.complete_node(self.node);
        dag.barrier.task_done();
    }
}

/// Spawn surface handed to the [`ThreadPool::dag_scope`] closure.
pub struct DagScope<'scope, 'pool> {
    pool: &'pool ThreadPool,
    inner: &'pool DagInner,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> DagScope<'scope, '_> {
    /// Spawns a node that runs once every node in `deps` has completed
    /// (immediately, if `deps` is empty or all have already finished).
    /// Dependencies must be nodes of this scope spawned earlier —
    /// enforced by the id ordering, which is also what makes cycles
    /// unrepresentable.
    pub fn spawn_after<F>(&self, name: &str, deps: &[DagNodeId], body: F) -> DagNodeId
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_after_hinted(name, deps, DagHint::default(), body)
    }

    /// [`DagScope::spawn_after`] with scheduling hints.
    pub fn spawn_after_hinted<F>(
        &self,
        name: &str,
        deps: &[DagNodeId],
        hint: DagHint,
        body: F,
    ) -> DagNodeId
    where
        F: FnOnce() + Send + 'scope,
    {
        let dag = self.inner;
        let (id, me) = dag.nodes.push(NodeState {
            remaining: AtomicUsize::new(1), // the wiring guard
            task: UnsafeCell::new(None),
            succs: Mutex::new(SuccList::default()),
            critical: hint.critical,
            height_ns: hint.height_ns,
        });
        // Checked before the node is counted, so a bad id panics without
        // leaving the scope waiting on a node that can never run.
        for d in deps {
            assert!(d.0 < id, "dependencies must be earlier nodes of this scope");
        }
        dag.barrier.add(1);
        let tid = self.pool.lg().intern(name);
        // SAFETY: the dag barrier — `dag_scope()` blocks until this
        // node's completion has dropped; see module docs.
        let body = unsafe { TaskBody::new_unchecked(body) };
        let task =
            Task::with_completion(tid, body, Completion::Dag(DagCompletion { dag, node: id }));
        // SAFETY: sole writer — the wiring guard keeps `remaining` ≥ 1,
        // so no thread can reach the cell-taking release path yet.
        unsafe { *me.task.get() = Some(task) };
        for d in deps {
            // SAFETY: `d.0 < id` (checked above), and every id below `id`
            // was pushed before it.
            let mut sl = unsafe { dag.nodes.get(d.0) }.succs.lock();
            if !sl.done {
                // Counter +1 under the predecessor's list lock: its
                // completer drains the list only after taking this lock,
                // so it cannot miss the edge or double-release.
                me.remaining.fetch_add(1, Ordering::AcqRel);
                sl.push(id);
            }
        }
        // Drop the wiring guard; releases the node now if nothing is
        // (still) pending.
        dag.complete_dep(me);
        DagNodeId(id)
    }
}

impl ThreadPool {
    /// Runs `f` with a [`DagScope`]; returns once every spawned node has
    /// completed.
    ///
    /// # Panics
    /// Re-throws if any node's body panicked (after the whole DAG
    /// drained — a crashed node still releases its successors).
    pub fn dag_scope<'scope, R>(&self, f: impl FnOnce(&DagScope<'scope, '_>) -> R) -> R {
        self.dag_scope_inner(None, f)
    }

    /// [`ThreadPool::dag_scope`] with each node's release and completion
    /// counted in `stats` — one add on the calling worker's own stripe
    /// each. Register `stats` on an introspection facade to get the
    /// `dag.critical_path_len` / `dag.ready_width` / `dag.slack_p50`
    /// gauges, derived from the live frontier when a snapshot is taken.
    pub fn dag_scope_observed<'scope, R>(
        &self,
        stats: Arc<DagStats>,
        f: impl FnOnce(&DagScope<'scope, '_>) -> R,
    ) -> R {
        self.dag_scope_inner(Some(stats), f)
    }

    fn dag_scope_inner<'scope, R>(
        &self,
        stats: Option<Arc<DagStats>>,
        f: impl FnOnce(&DagScope<'scope, '_>) -> R,
    ) -> R {
        let inner = DagInner {
            pool: self.shared().clone(),
            nodes: NodeArena::new(),
            barrier: Barrier::new(),
            stats,
        };
        let scope = DagScope {
            pool: self,
            inner: &inner,
            _marker: std::marker::PhantomData,
        };
        // Same helping barrier as `ThreadPool::scope`, and like there run
        // from a guard declared last: an unwinding `f` still waits before
        // `inner` (nodes, unreleased tasks, barrier) is freed.
        let wait = WaitOnDrop {
            barrier: &inner.barrier,
            pool: self.shared(),
        };
        let result = f(&scope);
        drop(wait);
        let panics = inner.barrier.panics();
        if panics > 0 {
            panic!("{panics} dag node(s) panicked");
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use lg_core::LookingGlass;
    use std::sync::atomic::AtomicU64;

    fn pool(workers: usize) -> ThreadPool {
        let lg = LookingGlass::builder().build();
        ThreadPool::new(lg, PoolConfig::with_workers(workers))
    }

    #[test]
    fn chain_runs_in_dependency_order() {
        let p = pool(4);
        let seq = Mutex::new(Vec::new());
        p.dag_scope(|g| {
            let mut prev: Option<DagNodeId> = None;
            for i in 0..20u32 {
                let seq = &seq;
                let deps: Vec<_> = prev.into_iter().collect();
                prev = Some(g.spawn_after("link", &deps, move || {
                    seq.lock().push(i);
                }));
            }
        });
        assert_eq!(*seq.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_joins_before_sink() {
        let p = pool(4);
        let order = Mutex::new(Vec::new());
        p.dag_scope(|g| {
            let o = &order;
            let a = g.spawn_after("a", &[], move || o.lock().push("a"));
            let b = g.spawn_after("b", &[a], move || o.lock().push("b"));
            let c = g.spawn_after("c", &[a], move || o.lock().push("c"));
            g.spawn_after("d", &[b, c], move || o.lock().push("d"));
        });
        let seq = order.lock();
        assert_eq!(seq[0], "a");
        assert_eq!(seq[3], "d");
        assert_eq!(seq.len(), 4);
    }

    #[test]
    fn roots_release_immediately_and_borrow_stack() {
        let p = pool(2);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        p.dag_scope(|g| {
            for chunk in data.chunks(10) {
                let sum = &sum;
                g.spawn_after("root", &[], move || {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn dependency_on_already_completed_node() {
        let p = pool(2);
        let hits = AtomicU64::new(0);
        p.dag_scope(|g| {
            let a = g.spawn_after("a", &[], || {});
            // Wait until `a`'s completion has marked its successor list
            // `done`, so the edge below attaches to a completed node.
            // SAFETY: `a` was pushed on this scope's arena.
            let a_node = unsafe { g.inner.nodes.get(a.0) };
            while !a_node.succs.lock().done {
                std::thread::yield_now();
            }
            let hits = &hits;
            g.spawn_after("b", &[a], move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_dependencies_are_consistent() {
        let p = pool(2);
        let hits = AtomicU64::new(0);
        p.dag_scope(|g| {
            let a = g.spawn_after("a", &[], || {});
            let hits = &hits;
            g.spawn_after("b", &[a, a], move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn critical_nodes_count_priority_pushes() {
        let p = pool(2);
        p.dag_scope(|g| {
            let a = g.spawn_after_hinted("a", &[], DagHint::critical(100), || {});
            g.spawn_after_hinted("b", &[a], DagHint::critical(50), || {});
            g.spawn_after("c", &[a], || {});
        });
        assert_eq!(p.counters().counter("rt.priority_pushes").get(), 2);
    }

    #[test]
    fn bias_knob_off_disables_priority_lane() {
        use lg_core::Knob;
        let p = pool(2);
        p.dag_bias_knob().set(0);
        p.dag_scope(|g| {
            g.spawn_after_hinted("a", &[], DagHint::critical(100), || {});
        });
        assert_eq!(p.counters().counter("rt.priority_pushes").get(), 0);
    }

    #[test]
    #[should_panic(expected = "dag node(s) panicked")]
    fn panicking_node_still_releases_successors() {
        let p = pool(2);
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.dag_scope(|g| {
                let a = g.spawn_after("boom", &[], || panic!("boom"));
                let r = r.clone();
                g.spawn_after("after", &[a], move || {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        // The successor of the crashed node still ran.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn stats_observe_release_and_completion() {
        let s = DagStats::new();
        let p = pool(2);
        p.dag_scope_observed(s.clone(), |g| {
            let a = g.spawn_after_hinted("a", &[], DagHint::critical(1_000), || {});
            g.spawn_after_hinted("b", &[a], DagHint::normal(500), || {});
        });
        // Drained: everything released and completed.
        assert_eq!(s.ready_width(), 0.0);
        assert_eq!(s.critical_path_ns(), 0.0);
        assert!(s.slack_p50_ns() >= 0.0);
    }

    #[test]
    fn sequential_dags_reuse_pool() {
        let p = pool(3);
        for _ in 0..5 {
            let count = AtomicU64::new(0);
            p.dag_scope(|g| {
                let c = &count;
                let roots: Vec<_> = (0..4)
                    .map(|_| {
                        g.spawn_after("r", &[], move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                g.spawn_after("sink", &roots, move || {
                    c.fetch_add(10, Ordering::Relaxed);
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 14);
        }
    }

    #[test]
    fn wide_dag_completes_on_many_workers() {
        let p = pool(8);
        let count = Arc::new(AtomicU64::new(0));
        p.dag_scope(|g| {
            let mut level: Vec<DagNodeId> = Vec::new();
            for _ in 0..6 {
                let mut next = Vec::new();
                for i in 0..32usize {
                    let deps: Vec<_> = level
                        .iter()
                        .copied()
                        .skip(i.saturating_sub(1))
                        .take(2)
                        .collect();
                    let count = count.clone();
                    next.push(g.spawn_after("n", &deps, move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    }));
                }
                level = next;
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 6 * 32);
    }

    #[test]
    fn arena_segments_hold_ten_thousand_nodes_across_boundaries() {
        /// Counts its drops; every body owns one.
        struct DropCount<'a>(&'a AtomicU64);
        impl Drop for DropCount<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        const N: u32 = 10_000;
        const PANICKER: u32 = 191;
        let p = pool(2);
        let runs = AtomicU64::new(0);
        let drops = AtomicU64::new(0);
        let segments = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.dag_scope(|g| {
                let mut ids = Vec::with_capacity(N as usize);
                for i in 0..N {
                    // A binary tree (`i / 2`) plus the previous id, so
                    // edges cross every segment boundary, 63/64, 191/192
                    // and 447/448 included.
                    let deps: Vec<DagNodeId> = match i {
                        0 => vec![],
                        1 => vec![ids[0]],
                        _ => vec![ids[(i / 2) as usize], ids[i as usize - 1]],
                    };
                    let guard = DropCount(&drops);
                    let runs = &runs;
                    ids.push(g.spawn_after("node", &deps, move || {
                        let _guard = guard;
                        runs.fetch_add(1, Ordering::Relaxed);
                        assert_ne!(i, PANICKER, "injected node panic");
                    }));
                }
                let used = g.inner.nodes.segments.iter();
                let used = used.filter(|s| !s.load(Ordering::Relaxed).is_null());
                segments.store(used.count(), Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the injected panic is re-thrown");
        assert_eq!(segments.load(Ordering::Relaxed), 8);
        assert_eq!(runs.load(Ordering::Relaxed), u64::from(N));
        assert_eq!(drops.load(Ordering::Relaxed), u64::from(N));
    }

    #[test]
    #[should_panic(expected = "dependencies must be earlier nodes")]
    fn forward_dependency_panics_instead_of_hanging() {
        let p = pool(1);
        // An id from a larger, finished scope names no earlier node here.
        let late = p.dag_scope(|g| {
            g.spawn_after("n", &[], || {});
            g.spawn_after("n", &[], || {})
        });
        p.dag_scope(|g| {
            g.spawn_after("bad", &[late], || {});
        });
    }

    #[test]
    fn arena_locates_segment_boundaries() {
        for (id, want) in [
            (0, (0, 0)),
            (63, (0, 63)),
            (64, (1, 0)),
            (191, (1, 127)),
            (192, (2, 0)),
            (447, (2, 255)),
            (448, (3, 0)),
            (
                u32::MAX,
                (SEGMENTS - 1, u32::MAX as usize + 64 - (64 << 26)),
            ),
        ] {
            assert_eq!(NodeArena::locate(id), want, "id {id}");
        }
    }
}
