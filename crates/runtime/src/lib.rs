//! # lg-runtime — instrumentable work-stealing task runtime
//!
//! A from-scratch task-parallel runtime in the HPX/TBB mold, built to be
//! *observed and adapted*: every scheduling decision emits `lg-core`
//! events, and the runtime exposes its control parameters as knobs.
//!
//! * [`pool::ThreadPool`] — N workers, each with a LIFO slot and a
//!   stealable queue, plus a global injector with batched pushes/takes.
//!   Every queue is the same in-tree type, a mutex-guarded `VecDeque` on
//!   its own cache line, owned by the pool; idle workers back off through
//!   spin → yield → park with an escalating timeout, and spawns touch the
//!   park condvar only when a worker is actually parked. The N worker
//!   threads are spawned once, by `ThreadPool::new`, and joined on drop.
//! * [`throttle`] — the **thread cap**, the pool's one thread-count
//!   actuator: workers whose index is ≥ the cap park at task boundaries
//!   and resume when the cap rises. The energy experiments and the
//!   machine-wide arbiter both drive it (knob `"thread_cap"`).
//! * [`task`] — named tasks and [`task::JoinHandle`]s. Task bodies use
//!   inline small-closure storage ([`task::INLINE_BODY_BYTES`]), so the
//!   steady-state spawn/execute path performs **no heap allocation**.
//! * [`scope`] — structured fork-join: `pool.scope(|s| s.spawn(...))`
//!   guarantees all spawned tasks finish before `scope` returns.
//! * [`par_iter`] — `parallel_for` over index ranges with a tunable chunk
//!   size (the granularity knob), built on [`Scope::spawn_batch`]: one
//!   injector batch push and one wake wave per call, zero per-chunk
//!   boxing. `parallel_for_mut` hands each chunk task its own `&mut`
//!   sub-slice of the caller's data.
//! * [`fault`] — injectable task faults (seeded crash probability,
//!   straggler delay) for resilience testing; panics stay contained and
//!   join handles still resolve.
//!
//! This is the workspace's only crate with `unsafe` code (task storage,
//! the stack-held scope barrier, the DAG node arena, LIFO slots and the
//! `parallel_for_mut` split); every block carries a `// SAFETY:` comment.
//!
//! ## Events emitted
//!
//! | Event | When |
//! |---|---|
//! | `WorkerStart`/`WorkerStop` | worker thread lifecycle |
//! | `TaskBegin`/`TaskEnd` | around every task body |
//! | counter `rt.spawned` / `rt.executed` / `rt.steals` / `rt.parks` | scheduling |
//! | counter `rt.inline_tasks` / `rt.boxed_tasks` | task-body representation (inline vs. heap) |
//! | counter `rt.batch_spawns` / `rt.lifo_hits` / `rt.priority_pushes` | batched submission / LIFO-slot fast path / DAG priority lane |
//! | counter `rt.injected_panics` / `rt.injected_stragglers` | fault injection |

#![warn(missing_docs)]

pub mod dag;
pub mod fault;
mod lane;
pub mod par_iter;
pub mod pool;
pub mod scope;
pub mod task;
pub mod throttle;

pub use dag::{DagHint, DagNodeId, DagScope};
pub use fault::{FaultConfig, InjectedFault};
pub use par_iter::ParallelForStats;
pub use pool::{PoolConfig, ThreadPool};
pub use scope::Scope;
pub use task::{JoinHandle, INLINE_BODY_BYTES};
pub use throttle::ThreadCap;
