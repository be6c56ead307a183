//! Knobs — the write side of adaptation.
//!
//! A [`Knob`] is a named integer actuator with declared bounds: the thread
//! cap, the chunk size, the coalescing window, the sampling period. The
//! subsystems that *own* the underlying state implement `Knob` (e.g. the
//! runtime's `ThreadCap`); policies and tuning sessions find them in the
//! [`KnobRegistry`] and drive them uniformly.
//!
//! Registration interns the knob's name into a copyable [`KnobId`], and
//! every steady-state operation — `get`, `set`, spec lookup — goes through
//! the id with **no string hash**: one uncontended read-lock acquire clones
//! the slot out of the table, and the knob itself runs with no registry
//! lock held. The table deliberately has no thread-local snapshot cache:
//! by-id traffic comes from control rounds (policy apply, arbiter
//! rebalance, tuning sessions), never from worker threads — subsystems
//! hold their own `Arc` to the knob they own — and measured end to end the
//! cache bought nothing (DESIGN.md §4.1). A name is resolved once, at the
//! edge ([`KnobRegistry::id`], [`KnobRegistry::register`],
//! [`KnobRegistry::space_for`]); everything past it holds the id.
//!
//! Every set is clamped against the knob's declared bounds and journaled
//! in the registry's single [`ActuationJournal`] — the same record the
//! audit trail shows is the one rollback and the watchdog consume. The
//! read-of-`from` + set + journal append happens under a tiny per-knob
//! mutex, so two racing writers can never both claim the same `from`
//! value (the bug that used to make rollback restore the wrong state),
//! and a rollback holds it from choosing its target through marking it.
//! Under it a write takes only the journal's leaf lock. Writers to
//! *different* knobs never contend.

use crate::clock::Clock;
use crate::event::TaskId;
use crate::journal::{ActuationJournal, DEFAULT_JOURNAL_CAPACITY};
use lg_tuning::{Dim, Space};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

/// How a knob's value range should be enumerated when deriving a tuning
/// dimension from its spec.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KnobScale {
    /// Enumerate `min..=max` with the spec's `step`.
    #[default]
    Linear,
    /// Enumerate the powers of two inside `min..=max` (chunk sizes, caps).
    Pow2,
}

/// Declared bounds, identity, and tuning metadata of a knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobSpec {
    /// Unique name, e.g. `"thread_cap"`.
    pub name: String,
    /// Smallest settable value (inclusive).
    pub min: i64,
    /// Largest settable value (inclusive).
    pub max: i64,
    /// Unit label for reports (e.g. `"workers"`, `"ns"`); empty if unitless.
    pub unit: String,
    /// Granularity for linear tuning sweeps (≥ 1).
    pub step: i64,
    /// The value the owning subsystem starts with.
    pub default: i64,
    /// How tuning spaces enumerate the range.
    pub scale: KnobScale,
}

impl KnobSpec {
    /// Creates a spec with defaults: unitless, step 1, default `min`,
    /// linear scale. Refine with the `with_*` builders.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn new(name: impl Into<String>, min: i64, max: i64) -> Self {
        assert!(min <= max, "knob min must be <= max");
        Self {
            name: name.into(),
            min,
            max,
            unit: String::new(),
            step: 1,
            default: min,
            scale: KnobScale::Linear,
        }
    }

    /// Sets the unit label.
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = unit.into();
        self
    }

    /// Sets the linear sweep step.
    ///
    /// # Panics
    /// Panics if `step` is not positive.
    pub fn with_step(mut self, step: i64) -> Self {
        assert!(step > 0, "knob step must be positive");
        self.step = step;
        self
    }

    /// Sets the default (initial) value, clamped to the bounds.
    pub fn with_default(mut self, default: i64) -> Self {
        self.default = default.clamp(self.min, self.max);
        self
    }

    /// Rewrites the name under a tenant namespace (`"thread_cap"` →
    /// `"t3.thread_cap"`), leaving bounds and metadata intact. Used by
    /// the arbiter to mirror tenant allocation knobs into the governor's
    /// flat registry without collisions.
    pub fn scoped(mut self, tenant: crate::tenant::TenantId) -> Self {
        self.name = tenant.scoped(&self.name);
        self
    }

    /// Sets the tuning scale.
    pub fn with_scale(mut self, scale: KnobScale) -> Self {
        self.scale = scale;
        self
    }

    /// The tuning dimension this spec describes: `min..=max` by `step`
    /// for linear knobs, the powers of two inside the bounds for
    /// [`KnobScale::Pow2`] knobs.
    pub fn dim(&self) -> Dim {
        match self.scale {
            KnobScale::Linear => Dim::range(&self.name, self.min, self.max, self.step.max(1)),
            KnobScale::Pow2 => {
                let mut values = Vec::new();
                let mut v: i64 = 1;
                while v < self.min {
                    v <<= 1;
                }
                while v <= self.max {
                    values.push(v);
                    if v > i64::MAX / 2 {
                        break;
                    }
                    v <<= 1;
                }
                assert!(
                    !values.is_empty(),
                    "no power of two inside {}..={} for knob '{}'",
                    self.min,
                    self.max,
                    self.name
                );
                Dim::values(&self.name, values)
            }
        }
    }
}

/// An integer actuator.
pub trait Knob: Send + Sync {
    /// The knob's identity and bounds.
    fn spec(&self) -> KnobSpec;
    /// Current value.
    fn get(&self) -> i64;
    /// Sets the value. Implementations may clamp internally, but callers
    /// going through [`KnobRegistry::set_id`] are bounds-checked first.
    fn set(&self, value: i64);
}

/// A self-contained atomic knob — useful when the controlled subsystem
/// polls the value rather than reacting to the set (e.g. chunk size read
/// at the start of each `parallel_for`).
pub struct AtomicKnob {
    spec: KnobSpec,
    value: AtomicI64,
}

impl AtomicKnob {
    /// Creates a knob with the given spec and initial value (clamped).
    pub fn new(spec: KnobSpec, initial: i64) -> Arc<Self> {
        let v = initial.clamp(spec.min, spec.max);
        Arc::new(Self {
            spec,
            value: AtomicI64::new(v),
        })
    }
}

impl Knob for AtomicKnob {
    fn spec(&self) -> KnobSpec {
        self.spec.clone()
    }
    fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
    fn set(&self, value: i64) {
        self.value
            .store(value.clamp(self.spec.min, self.spec.max), Ordering::Release);
    }
}

/// Interned handle to a registered knob. Copyable, hashable, and stable
/// across re-registration of the same name (a restarted subsystem's new
/// knob lands in the same slot, so held ids keep working).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KnobId(pub u32);

/// One recorded actuation (audit view; see [`ActuationJournal`] for the
/// full who/when records).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobChange {
    /// Knob name.
    pub name: String,
    /// Value before the set.
    pub from: i64,
    /// Value after the set.
    pub to: i64,
}

/// One registered knob: its spec, pre-interned journal name, the
/// actuator itself, and the per-knob write lock that makes
/// read-`from` + set + journal atomic.
struct KnobSlot {
    spec: KnobSpec,
    /// The knob's name interned in the journal's table at registration,
    /// so steady-state sets journal without hashing or allocating.
    jname: TaskId,
    knob: Arc<dyn Knob>,
    write: Mutex<()>,
}

/// The registry's lookup tables, behind one lock.
struct Shared {
    /// Slot table indexed by `KnobId`. Deregistered slots hold `None`;
    /// indices are never reused for a *different* name.
    slots: Vec<Option<Arc<KnobSlot>>>,
    /// Name → slot index. Bindings survive deregistration so a stale
    /// `KnobId` re-resolves to the replacement knob.
    by_name: HashMap<String, u32>,
}

/// Registry of knobs with interned ids, bounds checking, and a single
/// journaled actuation trail.
pub struct KnobRegistry {
    shared: RwLock<Shared>,
    /// The one actuation journal: audit, rollback, and the watchdog all
    /// read these records.
    journal: Arc<ActuationJournal>,
    /// Timestamps for convenience setters; id-carrying callers (engine,
    /// sessions) pass their own `t_ns`.
    clock: OnceLock<Arc<dyn Clock>>,
    /// Interned actor for sets made without an explicit actor.
    actor_direct: TaskId,
    /// Interned actor for `rollback_last_of` restore writes.
    actor_rollback: TaskId,
}

impl Default for KnobRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl KnobRegistry {
    /// Creates an empty registry with a journal of
    /// [`DEFAULT_JOURNAL_CAPACITY`] records.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates an empty registry whose journal retains `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        let journal = Arc::new(ActuationJournal::new(capacity));
        let actor_direct = journal.intern("direct");
        let actor_rollback = journal.intern("rollback");
        Self {
            shared: RwLock::new(Shared {
                slots: Vec::new(),
                by_name: HashMap::new(),
            }),
            journal,
            clock: OnceLock::new(),
            actor_direct,
            actor_rollback,
        }
    }

    /// Attaches the clock used to timestamp convenience sets. The first
    /// attach wins; later calls are ignored (one registry, one clock).
    pub(crate) fn attach_clock(&self, clock: Arc<dyn Clock>) {
        let _ = self.clock.set(clock);
    }

    fn now(&self) -> u64 {
        self.clock.get().map_or(0, |c| c.now_ns())
    }

    /// The registry's actuation journal — the single audit trail every
    /// consumer (policies, rollback, watchdog, reports) shares.
    pub fn journal(&self) -> &Arc<ActuationJournal> {
        &self.journal
    }

    /// Interns `name` as an actor id for [`KnobRegistry::set_id_as`], so
    /// repeated sets by the same actor journal allocation-free.
    pub(crate) fn actor(&self, name: &str) -> TaskId {
        self.journal.intern(name)
    }

    /// Registers a knob under its spec name, returning its [`KnobId`].
    /// Re-registering a name replaces the knob in place: previously
    /// handed-out ids resolve to the replacement.
    pub fn register(&self, knob: Arc<dyn Knob>) -> KnobId {
        let spec = knob.spec();
        let jname = self.journal.intern(&spec.name);
        let mut shared = self.shared.write();
        let idx = match shared.by_name.get(&spec.name).copied() {
            Some(i) => i,
            None => {
                let i = shared.slots.len() as u32;
                shared.by_name.insert(spec.name.clone(), i);
                shared.slots.push(None);
                i
            }
        };
        shared.slots[idx as usize] = Some(Arc::new(KnobSlot {
            spec,
            jname,
            knob,
            write: Mutex::new(()),
        }));
        KnobId(idx)
    }

    /// Removes the knob behind `id`; returns true if one was registered.
    /// The name keeps its slot index, so ids held across a
    /// deregister/re-register cycle stay valid (and resolve to nothing in
    /// between).
    pub fn deregister(&self, id: KnobId) -> bool {
        let mut shared = self.shared.write();
        shared
            .slots
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .is_some()
    }

    /// Resolves a name to its id, if a knob is currently registered.
    pub fn id(&self, name: &str) -> Option<KnobId> {
        let shared = self.shared.read();
        let i = shared.by_name.get(name).copied()?;
        shared.slots.get(i as usize)?.as_ref()?;
        Some(KnobId(i))
    }

    /// The id of the registered knob whose journal records carry `jname`:
    /// how a journal consumer (the watchdog) gets from a record back to
    /// the knob without a name.
    pub(crate) fn id_of_journaled(&self, jname: TaskId) -> Option<KnobId> {
        let shared = self.shared.read();
        let i = shared
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.jname == jname))?;
        Some(KnobId(i as u32))
    }

    /// Clones the slot for `id` out under the registry's read lock, so the
    /// caller runs the knob's own `get`/`set` with no registry lock held —
    /// a knob may re-enter the registry (read, set or even register other
    /// knobs) or emit events from either.
    fn slot(&self, id: KnobId) -> Option<Arc<KnobSlot>> {
        self.shared.read().slots.get(id.0 as usize)?.clone()
    }

    /// Current value by id.
    pub fn value_id(&self, id: KnobId) -> Option<i64> {
        self.slot(id).map(|s| s.knob.get())
    }

    /// The spec of a registered knob, by id.
    pub fn spec(&self, id: KnobId) -> Option<KnobSpec> {
        self.slot(id).map(|s| s.spec.clone())
    }

    /// Sets a knob by id on behalf of `actor` at `t_ns` — the path the
    /// policy engine, tuning sessions, and the watchdog use so the journal
    /// records who actuated and when. Takes the per-knob lock and writes
    /// under it, so concurrent writers serialize per knob and the journal's
    /// `from` chain is exact. Writers to different knobs never contend, and
    /// the registry lock is released before the knob runs.
    pub(crate) fn set_id_as(&self, id: KnobId, v: i64, actor: TaskId, t_ns: u64) -> Option<i64> {
        let slot = self.slot(id)?;
        let _write = slot.write.lock();
        Some(self.write_locked(&slot, v, actor, t_ns, None))
    }

    /// Clamp, read `from`, set, journal. The caller holds `slot.write`.
    fn write_locked(
        &self,
        slot: &KnobSlot,
        value: i64,
        actor: TaskId,
        t_ns: u64,
        rollback_of: Option<u64>,
    ) -> i64 {
        let clamped = value.clamp(slot.spec.min, slot.spec.max);
        let from = slot.knob.get();
        slot.knob.set(clamped);
        self.journal
            .record_interned(t_ns, actor, slot.jname, from, clamped, rollback_of);
        clamped
    }

    /// Sets a knob by id after clamping to its bounds. Returns the applied
    /// value, or `None` if the id resolves to nothing. Journaled under the
    /// registry's "direct" actor with the attached clock's timestamp.
    pub fn set_id(&self, id: KnobId, value: i64) -> Option<i64> {
        self.set_id_as(id, value, self.actor_direct, self.now())
    }

    /// Undoes the most recent journaled write to the knob behind `id` that
    /// is neither a rollback itself nor already rolled back: restores the
    /// recorded `from` value (journaled as a `rollback_of` record) and
    /// marks the original record rolled back. Returns the restored value.
    ///
    /// The knob's write lock is held from choosing the record through
    /// marking it, so concurrent rollbacks undo distinct writes.
    pub fn rollback_last_of(&self, id: KnobId) -> Option<i64> {
        let slot = self.slot(id)?;
        let t_ns = self.now();
        let _write = slot.write.lock();
        let rec = self.journal.latest_for_id(slot.jname)?;
        let restored = self.write_locked(&slot, rec.from, self.actor_rollback, t_ns, Some(rec.seq));
        self.journal.mark_rolled_back(rec.seq);
        Some(restored)
    }

    /// Every registered knob's spec, sorted by name.
    pub fn specs(&self) -> Vec<KnobSpec> {
        let mut v: Vec<KnobSpec> = self
            .shared
            .read()
            .slots
            .iter()
            .flatten()
            .map(|s| s.spec.clone())
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Derives a tuning [`Space`] from the registered specs of `names`,
    /// in order — linear knobs become stepped ranges, [`KnobScale::Pow2`]
    /// knobs become power-of-two value lists. No hand-built spaces.
    ///
    /// # Panics
    /// Panics if any name is not registered.
    pub fn space_for(&self, names: &[&str]) -> Space {
        let dims = names
            .iter()
            .map(|n| {
                let id = self
                    .id(n)
                    .unwrap_or_else(|| panic!("space_for: unknown knob '{n}'"));
                self.spec(id).expect("slot present").dim()
            })
            .collect();
        Space::new(dims)
    }

    /// Audit view of the retained journal records (see
    /// [`KnobRegistry::journal`] for who/when detail).
    pub fn changes(&self) -> Vec<KnobChange> {
        self.journal
            .records()
            .into_iter()
            .map(|r| KnobChange {
                name: r.knob,
                from: r.from,
                to: r.to,
            })
            .collect()
    }

    /// Number of actuations recorded over the registry's lifetime
    /// (including records the bounded journal has since evicted).
    pub fn change_count(&self) -> usize {
        self.journal.total_recorded() as usize
    }
}

impl std::fmt::Debug for KnobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let knobs = self.shared.read().slots.iter().flatten().count();
        f.debug_struct("KnobRegistry")
            .field("knobs", &knobs)
            .field("changes", &self.change_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knob(name: &str, min: i64, max: i64, init: i64) -> Arc<AtomicKnob> {
        AtomicKnob::new(KnobSpec::new(name, min, max), init)
    }

    #[test]
    fn atomic_knob_clamps() {
        let k = knob("k", 1, 10, 5);
        assert_eq!(k.get(), 5);
        k.set(100);
        assert_eq!(k.get(), 10);
        k.set(-100);
        assert_eq!(k.get(), 1);
    }

    #[test]
    fn initial_value_clamped() {
        let k = knob("k", 2, 4, 99);
        assert_eq!(k.get(), 4);
    }

    #[test]
    fn registry_set_and_log() {
        let reg = KnobRegistry::new();
        let cap = reg.register(knob("cap", 1, 32, 32));
        assert_eq!(reg.set_id(cap, 8), Some(8));
        assert_eq!(reg.set_id(cap, 1000), Some(32));
        assert_eq!(reg.value_id(cap), Some(32));
        let log = reg.changes();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[0],
            KnobChange {
                name: "cap".into(),
                from: 32,
                to: 8
            }
        );
        assert_eq!(
            log[1],
            KnobChange {
                name: "cap".into(),
                from: 8,
                to: 32
            }
        );
    }

    #[test]
    fn unknown_knob_is_none() {
        let reg = KnobRegistry::new();
        let nope = KnobId(0);
        assert_eq!(reg.id("nope"), None);
        assert_eq!(reg.set_id(nope, 1), None);
        assert_eq!(reg.value_id(nope), None);
        assert_eq!(reg.rollback_last_of(nope), None);
        assert!(!reg.deregister(nope));
    }

    #[test]
    fn reregistration_replaces() {
        let reg = KnobRegistry::new();
        let k = reg.register(knob("k", 0, 10, 3));
        reg.register(knob("k", 0, 100, 50));
        assert_eq!(reg.value_id(k), Some(50));
        assert_eq!(reg.specs().len(), 1);
        assert_eq!(reg.specs()[0].max, 100);
    }

    #[test]
    fn specs_sorted() {
        let reg = KnobRegistry::new();
        reg.register(knob("zz", 0, 1, 0));
        reg.register(knob("aa", 0, 1, 0));
        let names: Vec<String> = reg.specs().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["aa", "zz"]);
    }

    #[test]
    #[should_panic(expected = "knob min must be <= max")]
    fn bad_spec_rejected() {
        let _ = KnobSpec::new("k", 5, 4);
    }

    #[test]
    fn id_and_name_access_agree() {
        let reg = KnobRegistry::new();
        let id = reg.register(knob("cap", 1, 64, 8));
        assert_eq!(reg.id("cap"), Some(id));
        assert_eq!(reg.spec(id).map(|s| s.name).as_deref(), Some("cap"));
        let resolved = reg.id("cap").expect("registered");
        assert_eq!(reg.value_id(resolved), reg.value_id(id));
        assert_eq!(reg.set_id(id, 16), Some(16));
        assert_eq!(reg.value_id(resolved), Some(16));
        assert_eq!(reg.set_id(resolved, 24), Some(24));
        assert_eq!(reg.value_id(id), Some(24));
    }

    #[test]
    fn ids_survive_reregistration() {
        let reg = KnobRegistry::new();
        let id = reg.register(knob("k", 0, 10, 3));
        assert!(reg.deregister(id));
        assert_eq!(reg.value_id(id), None, "deregistered slot is empty");
        assert_eq!(reg.id("k"), None);
        let id2 = reg.register(knob("k", 0, 100, 50));
        assert_eq!(id, id2, "the name keeps its slot index");
        assert_eq!(reg.value_id(id), Some(50), "stale id sees the new knob");
    }

    #[test]
    fn knob_whose_set_reenters_the_registry_does_not_deadlock() {
        /// Clamps a sibling knob to its own value and registers a third
        /// knob from inside `set` — legal because the registry runs a
        /// knob with no registry lock held.
        struct Cascading {
            reg: std::sync::Weak<KnobRegistry>,
            sibling: KnobId,
            value: AtomicI64,
        }
        impl Knob for Cascading {
            fn spec(&self) -> KnobSpec {
                KnobSpec::new("lead", 0, 100)
            }
            fn get(&self) -> i64 {
                let reg = self.reg.upgrade().expect("registry alive");
                // A read that re-enters the registry.
                reg.value_id(self.sibling).expect("sibling registered");
                self.value.load(Ordering::Acquire)
            }
            fn set(&self, value: i64) {
                let reg = self.reg.upgrade().expect("registry alive");
                self.value.store(value, Ordering::Release);
                reg.set_id(self.sibling, value);
                reg.register(knob("spawned", 0, 100, value));
            }
        }
        let reg = Arc::new(KnobRegistry::new());
        let sibling = reg.register(knob("follow", 0, 100, 0));
        let lead = reg.register(Arc::new(Cascading {
            reg: Arc::downgrade(&reg),
            sibling,
            value: AtomicI64::new(0),
        }));
        assert_eq!(reg.set_id(lead, 42), Some(42));
        assert_eq!(reg.value_id(lead), Some(42));
        assert_eq!(reg.value_id(sibling), Some(42));
        assert_eq!(reg.value_id(reg.id("spawned").unwrap()), Some(42));
        let chain: Vec<_> = reg.changes().into_iter().map(|c| c.name).collect();
        assert_eq!(chain, ["follow", "lead"], "inner set journals first");
    }

    #[test]
    fn reads_racing_registration_never_see_a_torn_table() {
        // One thread grows the table and swaps knob 0 back and forth
        // between two knobs; readers resolve ids the whole time. Every
        // read must land on a whole slot: knob 0 is one of its two
        // incarnations (value and spec agree), and an id handed out by
        // `register` resolves from the moment another thread can see it.
        const GROWTH: u32 = 400;
        let reg = Arc::new(KnobRegistry::new());
        let first = reg.register(knob("k0", 0, 10, 3));
        let published = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let start = Arc::new(std::sync::Barrier::new(3));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (reg, published, start) = (reg.clone(), published.clone(), start.clone());
                s.spawn(move || {
                    start.wait();
                    loop {
                        let top = published.load(Ordering::Acquire);
                        let (v, spec) = (reg.value_id(first), reg.spec(first));
                        assert!(matches!(v, Some(3) | Some(50)), "torn knob 0: {v:?}");
                        assert!(matches!(spec.map(|s| s.max), Some(10) | Some(100)));
                        if top > 0 {
                            let id = KnobId(top);
                            assert_eq!(reg.value_id(id), Some(i64::from(top)));
                            assert_eq!(reg.spec(id).map(|s| s.name), Some(format!("k{top}")));
                        }
                        if top == GROWTH {
                            break;
                        }
                    }
                });
            }
            start.wait();
            for i in 1..=GROWTH {
                let id = reg.register(knob(&format!("k{i}"), 0, 1_000, i64::from(i)));
                assert_eq!(id, KnobId(i), "ids are dense in registration order");
                published.store(i, Ordering::Release);
                let swap = if i % 2 == 0 {
                    knob("k0", 0, 10, 3)
                } else {
                    knob("k0", 0, 100, 50)
                };
                assert_eq!(reg.register(swap), first, "the name keeps its slot");
            }
        });
    }

    #[test]
    fn sets_journal_with_actor_and_rollback_undoes() {
        let reg = KnobRegistry::new();
        let id = reg.register(knob("k", 0, 100, 7));
        let actor = reg.actor("test-policy");
        assert_eq!(reg.set_id_as(id, 42, actor, 5), Some(42));
        let recs = reg.journal().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].policy, "test-policy");
        assert_eq!((recs[0].from, recs[0].to, recs[0].t_ns), (7, 42, 5));
        assert_eq!(reg.rollback_last_of(id), Some(7));
        assert_eq!(reg.value_id(id), Some(7));
        let recs = reg.journal().records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].rolled_back);
        assert_eq!(recs[1].rollback_of, Some(recs[0].seq));
        assert_eq!(recs[1].policy, "rollback");
        assert_eq!(
            reg.rollback_last_of(id),
            None,
            "a rollback is consumed: neither record is a candidate"
        );
    }

    #[test]
    fn concurrent_sets_keep_journal_chain_exact() {
        // Regression test for the read-modify-log race: with the old
        // unlocked read of `from`, two racing writers could both record
        // the same `from`, breaking the chain rollback relies on.
        let reg = Arc::new(KnobRegistry::with_journal_capacity(4096));
        let id = reg.register(knob("k", 0, i64::MAX, 0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let actor = reg.actor("writer");
                    for i in 0..200 {
                        reg.set_id_as(id, (t * 1000 + i) as i64 + 1, actor, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let recs = reg.journal().records();
        assert_eq!(recs.len(), 1600);
        let mut value = 0;
        for r in &recs {
            assert_eq!(
                r.from, value,
                "each record's `from` must be the previous record's `to`"
            );
            value = r.to;
        }
        assert_eq!(reg.value_id(id), Some(value));
    }

    #[test]
    fn space_for_derives_dims_from_specs() {
        let reg = KnobRegistry::new();
        reg.register(AtomicKnob::new(
            KnobSpec::new("cap", 1, 32).with_scale(KnobScale::Pow2),
            32,
        ));
        reg.register(AtomicKnob::new(
            KnobSpec::new("freq", 200, 1000).with_step(200),
            1000,
        ));
        let space = reg.space_for(&["cap", "freq"]);
        let dims = space.dims();
        assert_eq!(dims[0].all_values(), &[1, 2, 4, 8, 16, 32]);
        assert_eq!(dims[1].all_values(), &[200, 400, 600, 800, 1000]);
    }

    #[test]
    #[should_panic(expected = "unknown knob")]
    fn space_for_unknown_knob_panics() {
        KnobRegistry::new().space_for(&["nope"]);
    }

    #[test]
    fn pow2_dim_respects_min_bound() {
        let spec = KnobSpec::new("k", 3, 20).with_scale(KnobScale::Pow2);
        assert_eq!(spec.dim().all_values(), &[4, 8, 16]);
    }
}
