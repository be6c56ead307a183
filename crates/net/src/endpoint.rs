//! In-process locality endpoints over `std::sync::mpsc` channels.
//!
//! The real-runtime face of the parcel layer: two localities in one
//! process exchanging parcels through unbounded channels, with a coalescer
//! on the send side. No figure, example or ledger workload drives it:
//! the parcel-storm workload and every experiment run in virtual time
//! over [`crate::link::SimLink`].

use crate::coalesce::{Coalescer, WireMessage};
use crate::parcel::{LocalityId, Parcel};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One locality's parcel endpoint.
pub struct Endpoint {
    id: LocalityId,
    tx: Sender<WireMessage>,
    /// Behind a lock because a `Receiver` is not `Sync` and endpoints are
    /// shared across threads.
    rx: Mutex<Receiver<WireMessage>>,
    coalescer: Mutex<Coalescer>,
    next_seq: AtomicU64,
    sent: AtomicU64,
    received: AtomicU64,
}

/// A connected pair of endpoints.
pub struct EndpointPair {
    /// First endpoint (locality 0 by default).
    pub a: Arc<Endpoint>,
    /// Second endpoint.
    pub b: Arc<Endpoint>,
}

impl EndpointPair {
    /// Creates a connected pair with the given coalescer settings on each
    /// side.
    pub fn new(window: usize, window_max: usize, max_delay_ns: u64) -> Self {
        let (tx_ab, rx_ab) = channel();
        let (tx_ba, rx_ba) = channel();
        let a = Arc::new(Endpoint {
            id: 0,
            tx: tx_ab,
            rx: Mutex::new(rx_ba),
            coalescer: Mutex::new(Coalescer::new(window, window_max, max_delay_ns)),
            next_seq: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        });
        let b = Arc::new(Endpoint {
            id: 1,
            tx: tx_ba,
            rx: Mutex::new(rx_ab),
            coalescer: Mutex::new(Coalescer::new(window, window_max, max_delay_ns)),
            next_seq: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        });
        Self { a, b }
    }
}

impl Endpoint {
    /// This endpoint's locality id.
    pub fn id(&self) -> LocalityId {
        self.id
    }

    /// Sends a parcel (buffered through the coalescer). `now_ns` is the
    /// caller's clock reading, used for the delay bound.
    pub fn send(&self, dest: LocalityId, tag: u32, payload: Vec<u8>, now_ns: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let parcel = Parcel::new(self.id, dest, tag, seq, payload);
        let flushed = self.coalescer.lock().offer(parcel, now_ns);
        if let Some(msg) = flushed {
            self.push_wire(msg);
        }
    }

    /// Flushes deadline-expired buffers; call periodically.
    pub fn poll(&self, now_ns: u64) {
        let msgs = self.coalescer.lock().poll(now_ns);
        for m in msgs {
            self.push_wire(m);
        }
    }

    /// Flushes everything buffered.
    pub fn flush(&self, now_ns: u64) {
        let msgs = self.coalescer.lock().flush_all(now_ns);
        for m in msgs {
            self.push_wire(m);
        }
    }

    fn push_wire(&self, msg: WireMessage) {
        self.sent
            .fetch_add(msg.parcels.len() as u64, Ordering::Relaxed);
        // The channel never closes while both endpoints are alive; if the
        // peer is gone, delivery is meaningless anyway.
        let _ = self.tx.send(msg);
    }

    /// Receives every currently available parcel, in wire order.
    pub fn drain(&self) -> Vec<Parcel> {
        let mut out = Vec::new();
        let rx = self.rx.lock();
        while let Ok(msg) = rx.try_recv() {
            out.extend(msg.parcels);
        }
        self.received.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Parcels sent (flushed to the wire) so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Parcels received so far.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("sent", &self.sent())
            .field("received", &self.received())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_window_flush() {
        let pair = EndpointPair::new(2, 64, 1_000_000);
        pair.a.send(1, 7, vec![1], 0);
        assert!(pair.b.drain().is_empty(), "buffered, not yet flushed");
        pair.a.send(1, 7, vec![2], 1);
        let got = pair.b.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, vec![1]);
        assert_eq!(got[1].payload, vec![2]);
    }

    #[test]
    fn poll_flushes_stragglers() {
        let pair = EndpointPair::new(100, 100, 500);
        pair.a.send(1, 0, vec![9], 0);
        pair.a.poll(499);
        assert!(pair.b.drain().is_empty());
        pair.a.poll(500);
        assert_eq!(pair.b.drain().len(), 1);
    }

    #[test]
    fn explicit_flush() {
        let pair = EndpointPair::new(100, 100, u64::MAX / 2);
        pair.a.send(1, 0, vec![1], 0);
        pair.a.flush(1);
        assert_eq!(pair.b.drain().len(), 1);
    }

    #[test]
    fn bidirectional_independent() {
        let pair = EndpointPair::new(1, 64, 1_000);
        pair.a.send(1, 0, vec![b'a'], 0);
        pair.b.send(0, 0, vec![b'b'], 0);
        assert_eq!(pair.b.drain()[0].payload, vec![b'a']);
        assert_eq!(pair.a.drain()[0].payload, vec![b'b']);
    }

    #[test]
    fn sequences_monotone_per_sender() {
        let pair = EndpointPair::new(1, 64, 1_000);
        for i in 0..100u64 {
            pair.a.send(1, 0, vec![], i);
        }
        let got = pair.b.drain();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn counters_track_flow() {
        let pair = EndpointPair::new(1, 64, 1_000);
        pair.a.send(1, 0, vec![], 0);
        pair.a.send(1, 0, vec![], 0);
        assert_eq!(pair.a.sent(), 2);
        pair.b.drain();
        assert_eq!(pair.b.received(), 2);
    }

    #[test]
    fn concurrent_senders_lose_nothing() {
        let pair = EndpointPair::new(4, 64, 1_000);
        let a = pair.a.clone();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        a.send(1, 0, vec![], i);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        a.flush(u64::MAX / 2);
        let got = pair.b.drain();
        assert_eq!(got.len(), 1000);
        // Every (implicitly per-endpoint) sequence number exactly once.
        let mut seqs: Vec<u64> = got.iter().map(|p| p.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 1000);
    }
}
