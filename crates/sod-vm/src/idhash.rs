//! The hasher for maps keyed by ids the system mints itself.
//!
//! Object ids, `(origin, id)` home identities, thread ids and session ids
//! are small integers handed out by counters inside this program, and the
//! maps keyed by them sit on the per-event path: an object fault consults a
//! dozen of them. `std`'s default SipHash defends against keys an attacker
//! chooses to collide; here it only costs (6.5 % of `object-storm`'s host
//! time when this module was written). One multiply per integer is enough
//! to spread a counter over a table.
//!
//! Use it only where both hold: the keys are ids (not guest strings, not
//! bytes off the wire), and nothing iterates the map into output — the
//! iteration order is as arbitrary as any hash map's, and a map that feeds
//! a report or a message must stay ordered (`BTreeMap`) or be sorted.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by system-minted ids (see the module docs).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of system-minted ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hashing: each integer written is folded in
/// with a rotate, an xor and one multiply by an odd 64-bit constant, so
/// tuples of ids hash as well as single ones. A product's *high* bits mix
/// every input bit and its low bits only the input's low bits, while the
/// table indexes by a hash's low bits — so `finish` swaps the halves.
/// Striped ids that differ only above bit 32 (session ids) then land in
/// different buckets, and counters, stripes and `(origin, id)` pairs all
/// fill a table more evenly than a random function would.
#[derive(Default)]
pub struct IdHasher(u64);

/// 2^64 / golden ratio, forced odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    /// Anything that is not a plain integer folds in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn counters_spread_over_low_and_high_bits() {
        // 256 keys into 256 slots: a random function fills ≈ 162 of them.
        let slots = |hashes: &mut dyn Iterator<Item = u64>| -> usize {
            hashes.map(|h| h & 0xFF).collect::<IdSet<u64>>().len()
        };
        let counter = slots(&mut (0..256u64).map(hash_of));
        assert!(counter >= 180, "{counter} slots");
        // Striped session ids (`(node + 1) << 32 | count`) do not collapse
        // onto their shared low halves.
        let mut striped = (0..4u64)
            .flat_map(|node| (1..=64u64).map(move |c| ((node + 1) << 32) | c))
            .map(hash_of);
        let striped = slots(&mut striped);
        assert!(striped >= 180, "{striped} slots");
        // Home identities: the same ids under four origins.
        let mut pairs = (0..4u32)
            .flat_map(|o| (0..64u32).map(move |i| (o, i)))
            .map(hash_of);
        let pairs = slots(&mut pairs);
        assert!(pairs >= 180, "{pairs} slots");
        // The table's 7-bit tag takes every value.
        let tags: IdSet<u64> = (0..1024u64).map(|i| hash_of(i) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn tuples_depend_on_every_component() {
        assert_ne!(hash_of((0u32, 7u32)), hash_of((1u32, 7u32)));
        assert_ne!(hash_of((1u32, 7u32)), hash_of((1u32, 8u32)));
        assert_ne!(hash_of((7u32, 1u32)), hash_of((1u32, 7u32)));
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: IdMap<(u32, u32), usize> = IdMap::default();
        for i in 0..1000u32 {
            m.insert((i % 3, i), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(2, 998)), Some(&998));
        assert_eq!(m.get(&(0, 998)), None);
    }
}
