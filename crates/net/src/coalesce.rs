//! The parcel coalescer: buffer until `window` parcels or `max_delay`.
//!
//! Parcels are buffered per destination. A destination's buffer flushes
//! when it reaches `window` parcels (the knob) or when its oldest parcel
//! has waited `max_delay_ns` — whichever comes first. The flush produces a
//! wire message containing the buffered parcels in arrival order, so
//! per-(src,dst,tag) ordering is preserved end to end.
//!
//! The coalescer is deliberately clock-agnostic: callers pass timestamps
//! (virtual or wall), and discover deadline flushes by polling
//! [`Coalescer::poll`] — which also makes its behaviour exactly testable.

use crate::parcel::{LocalityId, Parcel};
use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::Knob;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a flush happened (observable; the adaptive policy uses the ratio of
/// size-triggered to deadline-triggered flushes as a load signal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The buffer reached the window size.
    Window,
    /// The oldest parcel hit the delay bound.
    Deadline,
    /// An explicit [`Coalescer::flush_all`] (shutdown, phase boundary).
    Explicit,
}

/// A flushed wire message: parcels for one destination.
#[derive(Clone, Debug, PartialEq)]
pub struct WireMessage {
    /// Destination locality.
    pub dest: LocalityId,
    /// Parcels in arrival order.
    pub parcels: Vec<Parcel>,
    /// Why the flush fired.
    pub reason: FlushReason,
    /// Time the flush fired.
    pub t_ns: u64,
}

impl WireMessage {
    /// Total wire bytes (sum of parcel wire footprints).
    pub fn wire_bytes(&self) -> usize {
        self.parcels.iter().map(|p| p.wire_bytes()).sum()
    }
}

struct DestBuffer {
    parcels: Vec<Parcel>,
    oldest_ns: u64,
}

/// Per-destination coalescing buffers with a shared window knob.
pub struct Coalescer {
    window: Arc<AtomicKnob>,
    max_delay_ns: u64,
    buffers: HashMap<LocalityId, DestBuffer>,
}

impl Coalescer {
    /// Creates a coalescer. `window_max` bounds the knob's range.
    ///
    /// # Panics
    /// Panics if `initial_window` or `window_max` is zero, or
    /// `max_delay_ns` is zero.
    pub fn new(initial_window: usize, window_max: usize, max_delay_ns: u64) -> Self {
        assert!(
            initial_window > 0 && window_max > 0,
            "window must be positive"
        );
        assert!(max_delay_ns > 0, "max delay must be positive");
        let window = AtomicKnob::new(
            KnobSpec::new("coalesce_window", 1, window_max as i64),
            initial_window as i64,
        );
        Self {
            window,
            max_delay_ns,
            buffers: HashMap::new(),
        }
    }

    /// The window knob (register it on a [`lg_core::KnobRegistry`] to let
    /// policies drive it).
    pub fn window_knob(&self) -> &Arc<AtomicKnob> {
        &self.window
    }

    /// Current window value.
    pub fn window(&self) -> usize {
        self.window.get().max(1) as usize
    }

    /// Parcels currently buffered across all destinations.
    pub fn buffered(&self) -> usize {
        self.buffers.values().map(|b| b.parcels.len()).sum()
    }

    /// Offers a parcel at time `t_ns`. Returns a wire message if this
    /// parcel filled its destination's window.
    pub fn offer(&mut self, parcel: Parcel, t_ns: u64) -> Option<WireMessage> {
        let dest = parcel.dest;
        let buf = self.buffers.entry(dest).or_insert_with(|| DestBuffer {
            parcels: Vec::new(),
            oldest_ns: t_ns,
        });
        if buf.parcels.is_empty() {
            buf.oldest_ns = t_ns;
        }
        buf.parcels.push(parcel);
        if buf.parcels.len() >= self.window() {
            let parcels = std::mem::take(&mut self.buffers.get_mut(&dest).unwrap().parcels);
            Some(WireMessage {
                dest,
                parcels,
                reason: FlushReason::Window,
                t_ns,
            })
        } else {
            None
        }
    }

    /// Flushes every destination whose oldest parcel has waited past the
    /// delay bound, as of `now_ns`. Call periodically (or at virtual-time
    /// boundaries in simulation).
    pub fn poll(&mut self, now_ns: u64) -> Vec<WireMessage> {
        let mut out = Vec::new();
        let due: Vec<LocalityId> = self
            .buffers
            .iter()
            .filter(|(_, b)| {
                !b.parcels.is_empty() && now_ns.saturating_sub(b.oldest_ns) >= self.max_delay_ns
            })
            .map(|(&d, _)| d)
            .collect();
        for dest in due {
            let buf = self.buffers.get_mut(&dest).unwrap();
            let parcels = std::mem::take(&mut buf.parcels);
            out.push(WireMessage {
                dest,
                parcels,
                reason: FlushReason::Deadline,
                t_ns: now_ns,
            });
        }
        // Deterministic output order.
        out.sort_by_key(|m| m.dest);
        out
    }

    /// The earliest deadline at which [`Coalescer::poll`] would flush
    /// something, if any parcels are buffered.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.buffers
            .values()
            .filter(|b| !b.parcels.is_empty())
            .map(|b| b.oldest_ns + self.max_delay_ns)
            .min()
    }

    /// Unconditionally flushes everything (shutdown, phase boundary).
    pub fn flush_all(&mut self, now_ns: u64) -> Vec<WireMessage> {
        let mut out = Vec::new();
        for (&dest, buf) in self.buffers.iter_mut() {
            if !buf.parcels.is_empty() {
                let parcels = std::mem::take(&mut buf.parcels);
                out.push(WireMessage {
                    dest,
                    parcels,
                    reason: FlushReason::Explicit,
                    t_ns: now_ns,
                });
            }
        }
        out.sort_by_key(|m| m.dest);
        out
    }
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("window", &self.window())
            .field("buffered", &self.buffered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parcel(dest: LocalityId, seq: u64) -> Parcel {
        Parcel::new(0, dest, 1, seq, vec![0u8; 64])
    }

    #[test]
    fn window_fill_flushes() {
        let mut c = Coalescer::new(3, 64, 1_000_000);
        assert!(c.offer(parcel(1, 0), 10).is_none());
        assert!(c.offer(parcel(1, 1), 20).is_none());
        let msg = c.offer(parcel(1, 2), 30).unwrap();
        assert_eq!(msg.reason, FlushReason::Window);
        assert_eq!(msg.parcels.len(), 3);
        assert_eq!(msg.dest, 1);
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn destinations_buffer_independently() {
        let mut c = Coalescer::new(2, 64, 1_000_000);
        assert!(c.offer(parcel(1, 0), 0).is_none());
        assert!(c.offer(parcel(2, 0), 0).is_none());
        assert_eq!(c.buffered(), 2);
        let m = c.offer(parcel(2, 1), 5).unwrap();
        assert_eq!(m.dest, 2);
        assert_eq!(c.buffered(), 1, "dest 1 must keep its parcel");
    }

    #[test]
    fn deadline_flush_via_poll() {
        let mut c = Coalescer::new(100, 100, 1_000);
        c.offer(parcel(1, 0), 0);
        assert!(c.poll(999).is_empty(), "not due yet");
        let msgs = c.poll(1_000);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].reason, FlushReason::Deadline);
    }

    #[test]
    fn deadline_measured_from_oldest() {
        let mut c = Coalescer::new(100, 100, 1_000);
        c.offer(parcel(1, 0), 0);
        c.offer(parcel(1, 1), 900);
        // Oldest is t=0, so due at t=1000 even though the newest is fresh.
        let msgs = c.poll(1_000);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].parcels.len(), 2);
    }

    #[test]
    fn next_deadline_reported() {
        let mut c = Coalescer::new(100, 100, 500);
        assert_eq!(c.next_deadline_ns(), None);
        c.offer(parcel(3, 0), 100);
        assert_eq!(c.next_deadline_ns(), Some(600));
        c.offer(parcel(4, 0), 50);
        assert_eq!(c.next_deadline_ns(), Some(550));
    }

    #[test]
    fn ordering_preserved_within_message() {
        let mut c = Coalescer::new(4, 64, 1_000_000);
        for seq in 0..3 {
            c.offer(parcel(1, seq), seq);
        }
        let msg = c.offer(parcel(1, 3), 3).unwrap();
        let seqs: Vec<u64> = msg.parcels.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn window_knob_changes_take_effect() {
        let mut c = Coalescer::new(8, 64, 1_000_000);
        c.offer(parcel(1, 0), 0);
        c.window_knob().set(2);
        let msg = c.offer(parcel(1, 1), 1).unwrap();
        assert_eq!(msg.parcels.len(), 2);
    }

    #[test]
    fn window_one_flushes_immediately() {
        let mut c = Coalescer::new(1, 64, 1_000_000);
        let m = c.offer(parcel(1, 0), 0).unwrap();
        assert_eq!(m.parcels.len(), 1);
    }

    #[test]
    fn flush_all_drains_everything() {
        let mut c = Coalescer::new(100, 100, 1_000_000);
        c.offer(parcel(1, 0), 0);
        c.offer(parcel(2, 0), 0);
        c.offer(parcel(2, 1), 0);
        let msgs = c.flush_all(99);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].dest, 1);
        assert_eq!(msgs[1].dest, 2);
        assert!(msgs.iter().all(|m| m.reason == FlushReason::Explicit));
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn no_parcel_lost_or_duplicated() {
        let mut c = Coalescer::new(5, 64, 700);
        let mut delivered: Vec<u64> = Vec::new();
        let mut t = 0u64;
        for seq in 0..1000u64 {
            t += 100;
            if let Some(m) = c.offer(parcel(1, seq), t) {
                delivered.extend(m.parcels.iter().map(|p| p.seq));
            }
            for m in c.poll(t) {
                delivered.extend(m.parcels.iter().map(|p| p.seq));
            }
        }
        for m in c.flush_all(t + 1) {
            delivered.extend(m.parcels.iter().map(|p| p.seq));
        }
        assert_eq!(delivered.len(), 1000);
        // In-order per (src,dst,tag): all one stream here.
        assert!(
            delivered.windows(2).all(|w| w[0] < w[1]),
            "reordering detected"
        );
    }

    #[test]
    fn no_parcel_delayed_past_bound_when_polled() {
        // Property: if poll is called at least once within every delay
        // window, no parcel waits more than 2×max_delay.
        let mut c = Coalescer::new(1000, 1000, 500);
        let mut max_wait = 0u64;
        let mut t = 0u64;
        let mut offered: std::collections::HashMap<u64, u64> = Default::default();
        for seq in 0..200u64 {
            t += 133;
            c.offer(parcel(1, seq), t);
            offered.insert(seq, t);
            for m in c.poll(t) {
                for p in &m.parcels {
                    max_wait = max_wait.max(t - offered[&p.seq]);
                }
            }
        }
        assert!(max_wait <= 1_000, "a parcel waited {max_wait} ns");
    }
}
