//! Hash maps keyed by program-assigned integers (parcel seqs), which
//! need no SipHash: nobody crafts them to collide. No user relies on
//! iteration order, so the hasher changes no outcome.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiply, then the high half folded into the low: `std`'s
/// table takes its bucket from the low bits and its tag from the top.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    /// Keys are `u64`; anything else still hashes, a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
}

/// A `HashMap` from integer ids under [`IntHasher`].
pub type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` of integer ids under [`IntHasher`].
pub type IntSet = HashSet<u64, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_strided_keys_all_round_trip() {
        // Sequential ids, page-strided ids and high-bit ids: the shapes a
        // pure multiply (weak low bits) or a pure identity (weak top
        // bits) would pile into one bucket group.
        let mut m: IntMap<u64> = IntMap::default();
        let keys = (0..4_096u64)
            .chain((0..4_096).map(|k| k << 12))
            .chain((0..4_096).map(|k| (k << 52) | 1));
        for k in keys.clone() {
            m.insert(k, !k);
        }
        for k in keys {
            assert_eq!(m.get(&k), Some(&!k));
        }
    }

    #[test]
    fn low_bits_spread_for_strided_keys() {
        // Keys that differ only above bit 12 must not share their low
        // seven bits (the bucket index of a small table).
        let mut seen = IntSet::default();
        for k in 0..128u64 {
            let mut h = IntHasher::default();
            h.write_u64(k << 12);
            seen.insert(h.finish() & 127);
        }
        assert!(seen.len() > 64, "only {} of 128 buckets used", seen.len());
    }
}
