//! FxHash: the fast, non-cryptographic hash used by rustc and Firefox.
//!
//! The workload in this workspace hashes millions of small integer keys
//! (vertex ids, interned symbols, tuple ids) during joins, blocking and
//! traversal. SipHash (std's default) leaves a lot of performance on the
//! table there; FxHash is the standard remedy (see the Rust Performance
//! Book's *Hashing* chapter). We implement the ~15-line algorithm here
//! rather than pulling an extra dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: a single `u64` folded with a fixed multiplier.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The distinct keys in order of first occurrence, and each item's index
/// into them. Callers use it to compute a pure function once per distinct
/// input and expand the results afterwards; because the order is that of
/// first occurrence, what they compute does not depend on how the work is
/// later split across workers.
pub fn first_occurrences<K: Eq + std::hash::Hash + Copy>(
    keys: impl Iterator<Item = K>,
) -> (Vec<K>, Vec<u32>) {
    let mut index: FxHashMap<K, u32> = FxHashMap::default();
    let mut distinct = Vec::new();
    let of = keys
        .map(|k| {
            *index.entry(k).or_insert_with(|| {
                distinct.push(k);
                (distinct.len() - 1) as u32
            })
        })
        .collect();
    (distinct, of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrences_index_the_distinct_keys() {
        let (distinct, of) = first_occurrences(["b", "a", "b", "c", "a"].into_iter());
        assert_eq!(distinct, ["b", "a", "c"]);
        assert_eq!(of, [0, 1, 0, 2, 1]);
    }
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(hash_of(&i));
        }
        // A perfect hash would give 10_000; allow a tiny slack.
        assert!(seen.len() > 9_990, "too many collisions: {}", seen.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&2), Some(&"b"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Inputs that differ only in the non-8-aligned tail must differ.
        assert_ne!(
            hash_of(&b"abcdefgh1".as_slice()),
            hash_of(&b"abcdefgh2".as_slice())
        );
    }
}
