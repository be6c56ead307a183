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
//! ordinary operation on it. Off-path nodes go to the back. The lane is gated by the
//! pool's `dag.critical_bias` knob, so a policy
//! ([`lg_core::dag::CriticalPathPolicy`]) can turn the bias off when the
//! DAG offers abundant width.
//!
//! ## Dep-counter protocol
//!
//! Every counter starts at `deps + 1`: the extra **wiring guard** keeps
//! the node unreleasable while its edges are being attached. For each
//! dependency, `spawn_after` locks the predecessor's successor list; if
//! the predecessor has not completed it adds the edge (counter +1 under
//! the same lock the completer will take), otherwise the dependency is
//! already satisfied and contributes nothing. Dropping the wiring guard
//! goes through the same `1 → 0` release path, so a node whose
//! dependencies all completed during wiring (or that has none) is
//! enqueued right there. Completion marks the successor list `done`
//! before draining it, so late edges to a completed predecessor are
//! never lost — they simply never get added.
//!
//! ## Safety
//!
//! Bodies may borrow from the enclosing stack frame (`'scope`), with the
//! same barrier — the same [`Barrier`] type, batched arrivals and
//! wait-from-a-drop-guard included — as [`crate::scope`]: `dag_scope` does
//! not return or unwind until every node's completion has arrived, and a
//! completion arrives only after the worker is done with the body. The
//! scope's shared state lives on `dag_scope`'s stack frame and each
//! node's completion holds a plain pointer to it; successor release is
//! immediate, only the barrier arrival is batched. The task cell inside a
//! node is written once by the spawning thread while the wiring guard
//! (counter ≥ 1) makes the node unreleasable, and taken once by the unique
//! thread that observes the `1 → 0` transition; the `AcqRel` counter
//! chain orders the write before the take.
//!
//! Panic semantics match `scope`: a panicking node still releases its
//! successors (the DAG keeps draining — crashed-node successors must not
//! leak, which is also what keeps fault-injection runs exactly-once), and
//! `dag_scope` re-throws after the barrier.

use crate::pool::ThreadPool;
use crate::scope::{Barrier, Completion, WaitOnDrop};
use crate::task::{Task, TaskBody};
use lg_core::dag::DagStats;
use parking_lot::{Mutex, RwLock};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
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

struct SuccList {
    /// Set before the list is drained; edges to a `done` predecessor are
    /// already satisfied and are never recorded.
    done: bool,
    list: Vec<u32>,
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

pub(crate) struct DagInner {
    pool: Arc<crate::pool::PoolShared>,
    nodes: RwLock<Vec<NodeState>>,
    /// Nodes spawned and not yet completed.
    barrier: Barrier,
    /// Nodes whose dependency count reached zero and whose task was
    /// enqueued (diagnostics; equals the node count once drained).
    released: AtomicUsize,
    stats: Option<Arc<DagStats>>,
}

impl DagInner {
    /// Drops one dependency of `succ`; the caller must hold the node
    /// table's read guard. The decrement that hits zero takes the task
    /// and enqueues it — the no-polling promotion point.
    fn complete_dep(&self, nodes: &[NodeState], succ: u32) {
        let n = &nodes[succ as usize];
        if n.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: unique `1 → 0` observer; the write to the cell
            // happened before the wiring guard was dropped and is ordered
            // by the AcqRel counter chain.
            let task = unsafe { (*n.task.get()).take() }.expect("released node carries a task");
            self.released.fetch_add(1, Ordering::Relaxed);
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
        let nodes = self.nodes.read();
        let me = &nodes[node as usize];
        if let Some(st) = &self.stats {
            st.on_complete(me.height_ns);
        }
        let succs = {
            let mut sl = me.succs.lock();
            sl.done = true;
            std::mem::take(&mut sl.list)
        };
        for s in succs {
            self.complete_dep(&nodes, s);
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
        dag.barrier.add(1);
        let id = {
            let mut nodes = dag.nodes.write();
            let id = u32::try_from(nodes.len()).expect("dag node count fits u32");
            nodes.push(NodeState {
                remaining: AtomicUsize::new(1), // the wiring guard
                task: UnsafeCell::new(None),
                succs: Mutex::new(SuccList {
                    done: false,
                    list: Vec::new(),
                }),
                critical: hint.critical,
                height_ns: hint.height_ns,
            });
            id
        };
        let tid = self.pool.lg().intern(name);
        // SAFETY: the dag barrier — `dag_scope()` blocks until this
        // node's completion has dropped; see module docs.
        let body = unsafe { TaskBody::new_unchecked(body) };
        let task =
            Task::with_completion(tid, body, Completion::Dag(DagCompletion { dag, node: id }));
        let nodes = dag.nodes.read();
        let me = &nodes[id as usize];
        // SAFETY: sole writer — the wiring guard keeps `remaining` ≥ 1,
        // so no thread can reach the cell-taking release path yet.
        unsafe { *me.task.get() = Some(task) };
        for d in deps {
            assert!(d.0 < id, "dependencies must be earlier nodes of this scope");
            let mut sl = nodes[d.0 as usize].succs.lock();
            if !sl.done {
                // Counter +1 under the predecessor's list lock: its
                // completer drains the list only after taking this lock,
                // so it cannot miss the edge or double-release.
                me.remaining.fetch_add(1, Ordering::AcqRel);
                sl.list.push(id);
            }
        }
        // Drop the wiring guard; releases the node now if nothing is
        // (still) pending.
        dag.complete_dep(&nodes, id);
        DagNodeId(id)
    }

    /// Nodes spawned on this scope so far.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Nodes whose dependency count reached zero and whose task entered
    /// the pool (diagnostics; equals `node_count` once the scope drains).
    pub fn released(&self) -> usize {
        self.inner.released.load(Ordering::Relaxed)
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

    /// [`ThreadPool::dag_scope`] with release/completion accounting
    /// folded into `stats` (register it on an introspection facade to get
    /// the `dag.critical_path_len` / `dag.ready_width` / `dag.slack_p50`
    /// gauges).
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
            nodes: RwLock::new(Vec::new()),
            barrier: Barrier::new(),
            released: AtomicUsize::new(0),
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
            // Let `a` finish so the edge below attaches to a done node.
            while g.released() == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
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
}
