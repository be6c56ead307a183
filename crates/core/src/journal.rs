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
//! The ring is lock-free on the write path so journaling never serialises
//! actuators: a writer claims a slot with one `fetch_add` on the head
//! ticket and publishes the record seqlock-style (the slot's `seq` field
//! is zeroed while the payload is being written and set to the record's
//! sequence number when it is complete). Readers validate `seq` before
//! *and* after copying the payload and skip slots caught mid-write.
//! Policy and knob names are interned into `u32` ids via a shared
//! [`TaskNames`] table, so recording costs no allocation for names seen
//! before; hot consumers (the watchdog) read the raw id-based records and
//! only resolve ids to strings at the edge.

use crate::event::{TaskId, TaskNames};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

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

/// One ring slot. `seq == 0` means empty or mid-write; otherwise it holds
/// the record's 1-based sequence number, which doubles as the seqlock
/// version: readers load it before and after the payload and discard the
/// copy on mismatch.
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    policy: AtomicU64,
    knob: AtomicU64,
    from: AtomicI64,
    to: AtomicI64,
    rolled_back: AtomicBool,
    /// 0 = not a rollback; otherwise the seq this record undoes.
    rollback_of: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            policy: AtomicU64::new(0),
            knob: AtomicU64::new(0),
            from: AtomicI64::new(0),
            to: AtomicI64::new(0),
            rolled_back: AtomicBool::new(false),
            rollback_of: AtomicU64::new(0),
        }
    }
}

/// Thread-safe bounded actuation history. Cheap to share via `Arc`.
///
/// Writes are lock-free (one `fetch_add` plus plain atomic stores); reads
/// never block writers. A record can momentarily be invisible to a reader
/// racing the writer mid-publish — it becomes visible once the write
/// completes, and sequence numbers stay gap-free either way.
pub struct ActuationJournal {
    slots: Vec<Slot>,
    /// Next 0-based ticket; record `seq` is `ticket + 1`.
    head: AtomicU64,
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
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
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
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let seq = ticket + 1;
        let slot = &self.slots[(ticket % self.capacity as u64) as usize];
        // Invalidate the slot, publish the payload, then publish the seq.
        slot.seq.store(0, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.policy.store(policy.0 as u64, Ordering::Relaxed);
        slot.knob.store(knob.0 as u64, Ordering::Relaxed);
        slot.from.store(from, Ordering::Relaxed);
        slot.to.store(to, Ordering::Relaxed);
        slot.rolled_back.store(false, Ordering::Relaxed);
        slot.rollback_of
            .store(rollback_of.unwrap_or(0), Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        seq
    }

    /// Seqlock read of the slot that should hold `seq`. Returns `None` if
    /// the record was evicted, is mid-write, or was torn by a wrapping
    /// writer during the copy.
    fn read_seq(&self, seq: u64) -> Option<RawActuationRecord> {
        debug_assert!(seq >= 1);
        let slot = &self.slots[((seq - 1) % self.capacity as u64) as usize];
        if slot.seq.load(Ordering::Acquire) != seq {
            return None;
        }
        let rec = RawActuationRecord {
            seq,
            t_ns: slot.t_ns.load(Ordering::Relaxed),
            policy: TaskId(slot.policy.load(Ordering::Relaxed) as u32),
            knob: TaskId(slot.knob.load(Ordering::Relaxed) as u32),
            from: slot.from.load(Ordering::Relaxed),
            to: slot.to.load(Ordering::Relaxed),
            rolled_back: slot.rolled_back.load(Ordering::Relaxed),
            rollback_of: match slot.rollback_of.load(Ordering::Relaxed) {
                0 => None,
                s => Some(s),
            },
        };
        if slot.seq.load(Ordering::Acquire) != seq {
            return None;
        }
        Some(rec)
    }

    /// Marks the record with `seq` rolled back; returns false if it has
    /// already been evicted.
    pub fn mark_rolled_back(&self, seq: u64) -> bool {
        if seq == 0 || seq > self.head.load(Ordering::Acquire) {
            return false;
        }
        let slot = &self.slots[((seq - 1) % self.capacity as u64) as usize];
        if slot.seq.load(Ordering::Acquire) != seq {
            return false; // evicted (or mid-overwrite, which implies evicted)
        }
        slot.rolled_back.store(true, Ordering::Release);
        // If a wrapping writer reclaimed the slot between the check and the
        // store, the flag landed on a *newer* record; report failure so the
        // caller knows the target is gone. The stray flag is repaired by
        // the writer protocol (every publish resets `rolled_back`), so this
        // race can only mis-mark a record that is itself being evicted.
        slot.seq.load(Ordering::Acquire) == seq
    }

    /// Oldest retained sequence number (1-based); `None` when empty.
    fn oldest_seq(&self) -> Option<u64> {
        let head = self.head.load(Ordering::Acquire);
        if head == 0 {
            return None;
        }
        Some(head.saturating_sub(self.capacity as u64 - 1).max(1))
    }

    /// Retained raw records with `seq > after`, oldest first. The
    /// allocation-free view: names stay interned.
    pub fn raw_records_since(&self, after: u64) -> Vec<RawActuationRecord> {
        let head = self.head.load(Ordering::Acquire);
        let Some(oldest) = self.oldest_seq() else {
            return Vec::new();
        };
        (oldest.max(after + 1)..=head)
            .filter_map(|s| self.read_seq(s))
            .collect()
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
        let head = self.head.load(Ordering::Acquire);
        let oldest = self.oldest_seq()?;
        (oldest..=head)
            .rev()
            .filter_map(|s| self.read_seq(s))
            .find(|r| r.knob == knob && !r.rolled_back && r.rollback_of.is_none())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        (self.head.load(Ordering::Acquire) as usize).min(self.capacity)
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.capacity as u64)
    }

    /// Total records ever written (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
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
