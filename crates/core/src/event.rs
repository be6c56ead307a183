//! The observation vocabulary.
//!
//! Events are small `Copy`-friendly records: task names are interned once
//! into a [`TaskId`] so the hot path moves a `u32`, not a string. Sampled
//! values carry their metric name as an interned id through the same table
//! (names and metrics share one namespace, which keeps the table simple
//! and the ids unambiguous in traces).

use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Interned identifier for a task type or metric name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Two-way intern table mapping names to [`TaskId`]s.
///
/// Interning takes a write lock once per *new* name. Each thread
/// remembers the last name it interned — the table's process-unique id,
/// the name's bytes, its id — so a name interned again and again, as a
/// spawn loop does, costs no lock, no hash and no allocation; any other
/// name (or one longer than `MEMO_NAME_MAX` bytes) takes the table's read
/// lock. Names are never removed, so the memo never goes stale. Resolving
/// an id to a name is lock-held-briefly. Cloning shares the table, and
/// its id.
#[derive(Clone)]
pub struct TaskNames {
    inner: Arc<Names>,
}

struct Names {
    /// Process-unique, never reused; half the memo's key. Never 0.
    id: u64,
    table: RwLock<NamesInner>,
}

#[derive(Default)]
struct NamesInner {
    by_name: HashMap<String, TaskId, BuildHasherDefault<NameHasher>>,
    by_id: Vec<String>,
}

/// Rotate-xor-multiply hash of a name's bytes, FxHash style. Names are
/// short and come from the program, so SipHash's flood resistance buys
/// nothing; its cost would make a memo miss dearer than the plain lookup
/// it replaced.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut mix =
            |w: u64| self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            mix(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            mix(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Longest name the memo holds; longer ones always take the read lock.
const MEMO_NAME_MAX: usize = 24;

/// The last name of at most `MEMO_NAME_MAX` bytes this thread interned:
/// its table, its bytes, and the id the table gave it. Read field by
/// field: a miss should cost one compare of `table`.
struct Memo {
    /// 0 while empty: table ids start at 1.
    table: u64,
    id: TaskId,
    len: usize,
    bytes: [u8; MEMO_NAME_MAX],
}

thread_local! {
    static MEMO: RefCell<Memo> = const {
        RefCell::new(Memo { table: 0, id: TaskId(0), len: 0, bytes: [0; MEMO_NAME_MAX] })
    };
}

impl Default for TaskNames {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskNames {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Names {
                id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
                table: RwLock::new(NamesInner::default()),
            }),
        }
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> TaskId {
        let hit = MEMO.with(|m| {
            let m = m.borrow();
            (m.table == self.inner.id && m.bytes[..m.len] == *name.as_bytes()).then_some(m.id)
        });
        if let Some(id) = hit {
            return id;
        }
        let id = self.intern_in_table(name);
        if name.len() <= MEMO_NAME_MAX {
            MEMO.with(|m| {
                let mut m = m.borrow_mut();
                m.bytes[..name.len()].copy_from_slice(name.as_bytes());
                (m.table, m.id, m.len) = (self.inner.id, id, name.len());
            });
        }
        id
    }

    fn intern_in_table(&self, name: &str) -> TaskId {
        if let Some(&id) = self.inner.table.read().by_name.get(name) {
            return id;
        }
        let mut w = self.inner.table.write();
        if let Some(&id) = w.by_name.get(name) {
            return id;
        }
        let id = TaskId(w.by_id.len() as u32);
        w.by_id.push(name.to_owned());
        w.by_name.insert(name.to_owned(), id);
        id
    }

    /// Resolves an id to its name, if the id was produced by this table.
    pub fn resolve(&self, id: TaskId) -> Option<String> {
        self.inner.table.read().by_id.get(id.0 as usize).cloned()
    }

    /// Looks up an existing name without interning.
    pub fn lookup(&self, name: &str) -> Option<TaskId> {
        self.inner.table.read().by_name.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.inner.table.read().by_id.len()
    }

    /// True when no names are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for TaskNames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskNames")
            .field("len", &self.len())
            .finish()
    }
}

/// One observation. `t_ns` timestamps come from the instance's [`crate::Clock`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A task of the given type began executing on a worker.
    TaskBegin {
        /// Task type.
        task: TaskId,
        /// Executing worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
    },
    /// The matching task finished; `elapsed_ns` is its execution time.
    TaskEnd {
        /// Task type.
        task: TaskId,
        /// Executing worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
        /// Execution time of this task instance.
        elapsed_ns: u64,
    },
    /// A task yielded the worker (cooperative suspension).
    TaskYield {
        /// Task type.
        task: TaskId,
        /// Worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
    },
    /// A previously yielded task resumed.
    TaskResume {
        /// Task type.
        task: TaskId,
        /// Worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
    },
    /// A worker thread came online.
    WorkerStart {
        /// Worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
    },
    /// A worker thread went offline (parked by throttling or shut down).
    WorkerStop {
        /// Worker index.
        worker: usize,
        /// Timestamp.
        t_ns: u64,
    },
    /// An asynchronous sampler produced a value for a named metric.
    SampleValue {
        /// Interned metric name.
        metric: TaskId,
        /// Timestamp.
        t_ns: u64,
        /// Sampled value.
        value: f64,
    },
    /// An application phase began (named like a task).
    PhaseBegin {
        /// Phase name id.
        phase: TaskId,
        /// Timestamp.
        t_ns: u64,
    },
    /// An application phase ended.
    PhaseEnd {
        /// Phase name id.
        phase: TaskId,
        /// Timestamp.
        t_ns: u64,
    },
    /// Periodic heartbeat from the policy engine's ticker.
    PeriodicTick {
        /// Timestamp.
        t_ns: u64,
    },
    /// Application-defined event with a small payload.
    Custom {
        /// Event kind id (interned).
        kind: TaskId,
        /// Timestamp.
        t_ns: u64,
        /// Payload value (meaning is kind-specific).
        value: i64,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn t_ns(&self) -> u64 {
        match *self {
            Event::TaskBegin { t_ns, .. }
            | Event::TaskEnd { t_ns, .. }
            | Event::TaskYield { t_ns, .. }
            | Event::TaskResume { t_ns, .. }
            | Event::WorkerStart { t_ns, .. }
            | Event::WorkerStop { t_ns, .. }
            | Event::SampleValue { t_ns, .. }
            | Event::PhaseBegin { t_ns, .. }
            | Event::PhaseEnd { t_ns, .. }
            | Event::PeriodicTick { t_ns }
            | Event::Custom { t_ns, .. } => t_ns,
        }
    }

    /// Short kind label for traces and tests.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Event::TaskBegin { .. } => "task_begin",
            Event::TaskEnd { .. } => "task_end",
            Event::TaskYield { .. } => "task_yield",
            Event::TaskResume { .. } => "task_resume",
            Event::WorkerStart { .. } => "worker_start",
            Event::WorkerStop { .. } => "worker_stop",
            Event::SampleValue { .. } => "sample",
            Event::PhaseBegin { .. } => "phase_begin",
            Event::PhaseEnd { .. } => "phase_end",
            Event::PeriodicTick { .. } => "tick",
            Event::Custom { .. } => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let names = TaskNames::new();
        let a = names.intern("stencil");
        let b = names.intern("compute");
        let a2 = names.intern("stencil");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(names.len(), 2);
        assert_eq!(names.resolve(a).as_deref(), Some("stencil"));
        assert_eq!(names.resolve(b).as_deref(), Some("compute"));
    }

    #[test]
    fn lookup_does_not_intern() {
        let names = TaskNames::new();
        assert_eq!(names.lookup("missing"), None);
        assert_eq!(names.len(), 0);
        let id = names.intern("present");
        assert_eq!(names.lookup("present"), Some(id));
    }

    #[test]
    fn resolve_unknown_id_is_none() {
        let names = TaskNames::new();
        assert!(names.resolve(TaskId(99)).is_none());
    }

    #[test]
    fn clones_share_the_table() {
        let names = TaskNames::new();
        let other = names.clone();
        let id = names.intern("shared");
        assert_eq!(other.lookup("shared"), Some(id));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names = TaskNames::new();
        let mut joins = Vec::new();
        for _ in 0..8 {
            let names = names.clone();
            joins.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| names.intern(&format!("task{}", i % 10)))
                    .collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<TaskId>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(names.len(), 10);
        // Every thread must agree on every name's id.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn event_timestamp_accessor() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let events = [
            Event::TaskBegin {
                task: id,
                worker: 0,
                t_ns: 5,
            },
            Event::TaskEnd {
                task: id,
                worker: 0,
                t_ns: 9,
                elapsed_ns: 4,
            },
            Event::PeriodicTick { t_ns: 11 },
            Event::SampleValue {
                metric: id,
                t_ns: 13,
                value: 1.0,
            },
        ];
        assert_eq!(
            events.iter().map(Event::t_ns).collect::<Vec<_>>(),
            vec![5, 9, 11, 13]
        );
    }

    #[test]
    fn kind_strings_are_distinct() {
        let names = TaskNames::new();
        let id = names.intern("t");
        let all = [
            Event::TaskBegin {
                task: id,
                worker: 0,
                t_ns: 0,
            },
            Event::TaskEnd {
                task: id,
                worker: 0,
                t_ns: 0,
                elapsed_ns: 0,
            },
            Event::TaskYield {
                task: id,
                worker: 0,
                t_ns: 0,
            },
            Event::TaskResume {
                task: id,
                worker: 0,
                t_ns: 0,
            },
            Event::WorkerStart { worker: 0, t_ns: 0 },
            Event::WorkerStop { worker: 0, t_ns: 0 },
            Event::SampleValue {
                metric: id,
                t_ns: 0,
                value: 0.0,
            },
            Event::PhaseBegin { phase: id, t_ns: 0 },
            Event::PhaseEnd { phase: id, t_ns: 0 },
            Event::PeriodicTick { t_ns: 0 },
            Event::Custom {
                kind: id,
                t_ns: 0,
                value: 0,
            },
        ];
        let mut kinds: Vec<&str> = all.iter().map(Event::kind_str).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len());
    }
}
