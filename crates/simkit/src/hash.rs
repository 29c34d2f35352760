//! The workspace's fast hasher for maps keyed by simulator-made integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by integers the simulators make themselves (task handles,
/// task keys, container ids). No input controls them, so SipHash's flood
/// resistance buys nothing, while its cost shows on the hot paths that
/// probe these maps once or more per event.
pub type HandleMap<K, V> = HashMap<K, V, BuildHasherDefault<HandleHasher>>;

/// A multiplicative (Fx-style) hash: one multiply per word, then a
/// rotate in [`finish`](Hasher::finish).
///
/// The product's low bits depend only on the key's low bits, and the
/// table takes its bucket index from the low bits, so without the rotate
/// keys that differ only in their high half (YarnSim's `app << 32 | task`)
/// would pile into the same buckets. Rotating brings the well-mixed high
/// bits of the product down to the index.
#[derive(Debug, Default, Clone, Copy)]
pub struct HandleHasher(u64);

impl HandleHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for HandleHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<HandleHasher>::default().hash_one(key)
    }

    /// Keys that differ only above bit 32 must still spread over the low
    /// bits a table of a few thousand buckets indexes by.
    #[test]
    fn high_key_bits_reach_the_bucket_index() {
        let mask = (1u64 << 12) - 1;
        let buckets: std::collections::BTreeSet<u64> =
            (0..1_000u64).map(|app| hash(app << 32) & mask).collect();
        // Unrotated, every one of these keys hashes to bucket 0.
        assert!(buckets.len() > 500, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn integer_writes_are_one_round() {
        let mut a = HandleHasher::default();
        a.write_u64(7);
        let mut b = HandleHasher::default();
        b.write_u32(7);
        assert_eq!(a.finish(), b.finish());
    }
}
