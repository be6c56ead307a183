//! The actuation journal — the single, bounded audit trail of knob writes.
//!
//! Every write that goes through the [`KnobRegistry`](crate::KnobRegistry)
//! lands here: *who* wrote (policy, session, watchdog, or a direct caller),
//! *when*, and what the value was before — enough for a watchdog to
//! correlate a throughput regression with the actuation that caused it and
//! undo exactly that write. The [`ActuationJournal`] keeps a bounded ring
//! of such records; when full, the oldest records fall off and are
//! counted, never silently lost.
//!
//! The ring is one `parking_lot::Mutex` over a bounded `VecDeque` of
//! [`RawActuationRecord`]s. Knob writes are rare (a few per arbiter
//! round), so the lock costs a few ns per append and nothing end to end,
//! and every reader sees every retained record, in order, with no gap.
//! Beside the ring an atomic count of records ever written, stored while
//! the lock is held, answers [`ActuationJournal::total_recorded`], `len`,
//! `evicted` and a scan with nothing new without taking the lock.
//!
//! The journal lock is a leaf: nothing else is locked and no user code
//! runs while it is held. Readers copy raw records out under it and
//! resolve names only after releasing it, so a knob write takes the
//! knob's write lock, then this one, and nothing else.
//! Policy and knob names are interned into `u32` ids via a shared
//! [`TaskNames`] table, so recording costs no allocation for names seen
//! before; hot consumers (the watchdog) read the raw id-based records and
//! only resolve ids to strings at the edge.

use crate::event::{TaskId, TaskNames};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal capacity used when a registry or engine builds its own journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 256;

/// One knob write, with names resolved to strings (the audit view).
#[derive(Clone, Debug, PartialEq)]
pub struct ActuationRecord {
    /// Monotonic sequence number (unique within a journal, starts at 1).
    pub seq: u64,
    /// Virtual or wall time of the write.
    pub t_ns: u64,
    /// Name of the policy (or other actor) that decided the write.
    pub policy: String,
    /// Knob written.
    pub knob: String,
    /// Value before the write.
    pub from: i64,
    /// Value applied (post-clamp).
    pub to: i64,
    /// Whether this write has since been rolled back.
    pub rolled_back: bool,
    /// If this write *is* a rollback, the seq of the record it undoes.
    pub rollback_of: Option<u64>,
}

/// One knob write with interned ids — the allocation-free consumer view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawActuationRecord {
    /// Monotonic sequence number (unique within a journal, starts at 1).
    pub seq: u64,
    /// Virtual or wall time of the write.
    pub t_ns: u64,
    /// Interned actor name (resolve via [`ActuationJournal::names`]).
    pub policy: TaskId,
    /// Interned knob name.
    pub knob: TaskId,
    /// Value before the write.
    pub from: i64,
    /// Value applied (post-clamp).
    pub to: i64,
    /// Whether this write has since been rolled back.
    pub rolled_back: bool,
    /// If this write *is* a rollback, the seq of the record it undoes.
    pub rollback_of: Option<u64>,
}

/// Thread-safe bounded actuation history. Cheap to share via `Arc`.
///
/// One lock guards the ring; it is a leaf (see the module docs). A record
/// is visible to every reader from the moment its `record` call returns,
/// and sequence numbers are gap-free.
pub struct ActuationJournal {
    /// Retained records, oldest first, with consecutive `seq`s.
    ring: Mutex<VecDeque<RawActuationRecord>>,
    /// Records ever written, i.e. the newest record's `seq`. Stored only
    /// while `ring` is locked.
    total: AtomicU64,
    names: TaskNames,
    capacity: usize,
}

impl ActuationJournal {
    /// Creates a journal retaining at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            total: AtomicU64::new(0),
            names: TaskNames::new(),
            capacity,
        }
    }

    /// The interner shared by every record's `policy`/`knob` ids. The
    /// registry pre-interns knob names here at registration so steady-state
    /// recording is allocation-free.
    pub fn names(&self) -> &TaskNames {
        &self.names
    }

    /// Interns an actor name for use with [`ActuationJournal::record_interned`].
    pub fn intern(&self, name: &str) -> TaskId {
        self.names.intern(name)
    }

    /// Appends a record, evicting the oldest if at capacity. Returns the
    /// record's sequence number.
    pub fn record(
        &self,
        t_ns: u64,
        policy: impl AsRef<str>,
        knob: impl AsRef<str>,
        from: i64,
        to: i64,
    ) -> u64 {
        let policy = self.names.intern(policy.as_ref());
        let knob = self.names.intern(knob.as_ref());
        self.record_interned(t_ns, policy, knob, from, to, None)
    }

    /// Appends a record using pre-interned ids — the allocation-free path
    /// used by the registry. `rollback_of` marks this write as the undo of
    /// an earlier record.
    pub fn record_interned(
        &self,
        t_ns: u64,
        policy: TaskId,
        knob: TaskId,
        from: i64,
        to: i64,
        rollback_of: Option<u64>,
    ) -> u64 {
        let mut ring = self.ring.lock();
        let seq = self.total.load(Ordering::Relaxed) + 1;
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(RawActuationRecord {
            seq,
            t_ns,
            policy,
            knob,
            from,
            to,
            rolled_back: false,
            rollback_of,
        });
        self.total.store(seq, Ordering::Release);
        seq
    }

    /// Marks the record with `seq` rolled back; returns false if it is not
    /// retained (evicted, or never written).
    pub(crate) fn mark_rolled_back(&self, seq: u64) -> bool {
        let mut ring = self.ring.lock();
        let oldest = ring.front().map_or(1, |r| r.seq);
        let Some(rec) = seq
            .checked_sub(oldest)
            .and_then(|i| ring.get_mut(i as usize))
        else {
            return false;
        };
        rec.rolled_back = true;
        true
    }

    /// Retained raw records with `seq > after`, oldest first. The
    /// allocation-free view: names stay interned. Takes no lock when
    /// nothing was written since `after`.
    pub(crate) fn raw_records_since(&self, after: u64) -> Vec<RawActuationRecord> {
        if after >= self.total.load(Ordering::Acquire) {
            return Vec::new();
        }
        let ring = self.ring.lock();
        let oldest = ring.front().map_or(1, |r| r.seq);
        let skip = ((after + 1).saturating_sub(oldest) as usize).min(ring.len());
        ring.range(skip..).copied().collect()
    }

    fn resolve(&self, raw: RawActuationRecord) -> ActuationRecord {
        ActuationRecord {
            seq: raw.seq,
            t_ns: raw.t_ns,
            policy: self.names.resolve(raw.policy).unwrap_or_default(),
            knob: self.names.resolve(raw.knob).unwrap_or_default(),
            from: raw.from,
            to: raw.to,
            rolled_back: raw.rolled_back,
            rollback_of: raw.rollback_of,
        }
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> Vec<ActuationRecord> {
        self.records_since(0)
    }

    /// Retained records with `seq > after`, oldest first.
    pub fn records_since(&self, after: u64) -> Vec<ActuationRecord> {
        self.raw_records_since(after)
            .into_iter()
            .map(|r| self.resolve(r))
            .collect()
    }

    /// The most recent record for the interned `knob` that is neither
    /// rolled back nor itself a rollback — i.e. the newest write a rollback
    /// could undo.
    pub fn latest_for_id(&self, knob: TaskId) -> Option<RawActuationRecord> {
        self.ring
            .lock()
            .iter()
            .rev()
            .find(|r| r.knob == knob && !r.rolled_back && r.rollback_of.is_none())
            .copied()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        (self.total_recorded() as usize).min(self.capacity)
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.total_recorded().saturating_sub(self.capacity as u64)
    }

    /// Total records ever written (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl std::fmt::Debug for ActuationJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActuationJournal")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("evicted", &self.evicted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_seqs() {
        let j = ActuationJournal::new(8);
        let a = j.record(10, "p1", "cap", 32, 16);
        let b = j.record(20, "p2", "window", 1, 64);
        assert!(a < b);
        let rs = j.records();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].knob, "cap");
        assert_eq!((rs[0].from, rs[0].to), (32, 16));
        assert_eq!(rs[1].policy, "p2");
    }

    #[test]
    fn capacity_bounds_and_counts_evictions() {
        let j = ActuationJournal::new(3);
        for i in 0..10 {
            j.record(i, "p", "k", 0, i as i64);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 7);
        assert_eq!(j.total_recorded(), 10);
        let rs = j.records();
        assert_eq!(rs[0].to, 7, "oldest retained is the 8th write");
    }

    #[test]
    fn records_since_filters() {
        let j = ActuationJournal::new(8);
        let a = j.record(0, "p", "k", 0, 1);
        j.record(1, "p", "k", 1, 2);
        j.record(2, "q", "k2", 0, 5);
        let newer = j.records_since(a);
        assert_eq!(newer.len(), 2);
        assert!(newer.iter().all(|r| r.seq > a));
    }

    #[test]
    fn rollback_marking() {
        let j = ActuationJournal::new(4);
        let s = j.record(0, "p", "k", 3, 9);
        let k = j.names().lookup("k").unwrap();
        assert_eq!(j.latest_for_id(k).unwrap().seq, s);
        assert!(j.mark_rolled_back(s));
        assert!(
            j.latest_for_id(k).is_none(),
            "rolled-back writes are not candidates"
        );
        assert!(j.records()[0].rolled_back);
        assert!(!j.mark_rolled_back(999));
    }

    #[test]
    fn latest_for_picks_most_recent() {
        let j = ActuationJournal::new(8);
        j.record(0, "p", "k", 0, 1);
        let b = j.record(1, "p", "k", 1, 2);
        j.record(2, "p", "other", 0, 1);
        let k = j.names().lookup("k").unwrap();
        assert_eq!(j.latest_for_id(k).unwrap().seq, b);
    }

    #[test]
    fn rollback_records_are_not_rollback_candidates() {
        let j = ActuationJournal::new(8);
        let s = j.record(0, "p", "k", 7, 1);
        // The undo of `s`: restores 7, tagged as a rollback.
        let p = j.intern("rollback");
        let k = j.names().lookup("k").unwrap();
        j.record_interned(1, p, k, 1, 7, Some(s));
        assert!(j.mark_rolled_back(s));
        assert!(
            j.latest_for_id(k).is_none(),
            "neither the rolled-back write nor its undo is a candidate"
        );
        let rs = j.records();
        assert_eq!(rs[1].rollback_of, Some(s));
        assert!(!rs[1].rolled_back);
    }

    #[test]
    fn mark_rolled_back_fails_after_eviction() {
        let j = ActuationJournal::new(2);
        let s = j.record(0, "p", "k", 0, 1);
        j.record(1, "p", "k", 1, 2);
        j.record(2, "p", "k", 2, 3); // evicts seq 1
        assert!(!j.mark_rolled_back(s));
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        let j = std::sync::Arc::new(ActuationJournal::new(4096));
        let p = j.intern("p");
        let k = j.intern("k");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let v = (t * 1000 + i) as i64;
                        j.record_interned(v as u64, p, k, v, v, None);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let rs = j.records();
        assert_eq!(rs.len(), 2000);
        for r in &rs {
            assert_eq!(r.from, r.to, "payload halves must come from one write");
            assert_eq!(r.t_ns, r.from as u64);
        }
        let mut seqs: Vec<u64> = rs.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "seqs are unique and ordered");
    }
}
