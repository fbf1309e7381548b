//! Deterministic, seedable key hashing.
//!
//! Hardware hash units are fixed functions of the key bits; the simulator
//! mirrors that with a seeded 64-bit mixer (xorshift-multiply in the
//! SplitMix64 family) applied through the standard `Hasher` interface.
//! Determinism matters twice over: runs must be reproducible bit-for-bit,
//! and the paper's bucketed cache behaviour depends only on key → bucket
//! placement, never on process-global randomness.

use std::hash::{Hash, Hasher};

/// A seeded 64-bit streaming hasher.
#[derive(Debug, Clone)]
pub struct SeededHasher {
    state: u64,
}

const MIX_1: u64 = 0xbf58_476d_1ce4_e5b9;
const MIX_2: u64 = 0x94d0_49bb_1331_11eb;

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
    z ^ (z >> 31)
}

impl SeededHasher {
    /// Start hashing with a seed (different seeds → independent functions).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededHasher {
            state: splitmix(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }
}

impl Hasher for SeededHasher {
    fn finish(&self) -> u64 {
        splitmix(self.state)
    }

    /// Mix the bytes in as little-endian 8-byte words, the tail zero-padded.
    /// Whole words are read in place; only the tail is copied, so an
    /// `InlineKey`'s words (one `write` of `8·len` bytes) hash without a
    /// variable-length copy.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
            self.state = splitmix(self.state ^ u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.state = splitmix(self.state ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = splitmix(self.state ^ v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    // Fixed-width overrides: without these the default impls route every
    // integer through `write(&[u8])`'s chunking loop, which dominates the
    // per-packet key-hash cost.
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn write_i8(&mut self, v: i8) {
        self.write_u64(v as u8 as u64);
    }

    fn write_i16(&mut self, v: i16) {
        self.write_u64(v as u16 as u64);
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// Hash any `Hash` key under a seed.
#[must_use]
pub fn hash_key<K: Hash>(seed: u64, key: &K) -> u64 {
    let mut h = SeededHasher::new(seed);
    key.hash(&mut h);
    h.finish()
}

/// The shard function of the multi-core dataplane: map a group key (as its
/// canonical `i64` key words) to one of `shards` shards.
///
/// This is deliberately a free function over raw key words rather than a
/// method on a store: the *producer* (the network event loop) computes it
/// per record before any store is touched, and tests assert the sharding
/// invariant — the result depends only on `seed`, the word sequence and
/// `shards`, never on process state — by calling the very same function.
/// The words are hashed as a length-prefixed sequence so `[1]` and `[1, 0]`
/// land independently, mirroring `InlineKey`'s canonical-form equality.
#[must_use]
pub fn shard_of_words(seed: u64, words: &[i64], shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    if shards == 1 {
        return 0;
    }
    let mut h = SeededHasher::new(seed);
    h.write_usize(words.len());
    for w in words {
        h.write_i64(*w);
    }
    (h.finish() % shards as u64) as usize
}

/// [`std::hash::BuildHasher`] for interior hash maps (backing store, LRU
/// index): deterministic and much faster than SipHash for the short integer
/// keys this crate stores. Not used where placement models hardware — the
/// bucketed cache keeps its explicit per-store seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeededBuildHasher;

impl std::hash::BuildHasher for SeededBuildHasher {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher::new(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk-copy `write` this hasher shipped with, kept verbatim as
    /// the reference the word-reading `write` must reproduce.
    fn chunk_copy_write(h: &mut SeededHasher, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h.state = splitmix(h.state ^ u64::from_le_bytes(word));
        }
    }

    fn write_hash(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = SeededHasher::new(seed);
        h.write(bytes);
        h.finish()
    }

    /// Placement, eviction and `Oracle::predict` all hang off these bits:
    /// the word-reading `write` must equal the chunk-copy one on every
    /// `InlineKey` width, inline and spilled, and on a ragged byte tail.
    #[test]
    fn word_write_matches_chunk_copy_write() {
        use crate::InlineKey;
        for width in 0..=7usize {
            let words: Vec<i64> = (1..=width as i64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64) ^ -i)
                .collect();
            let key = InlineKey::from_slice(&words);
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for seed in [0u64, 9, u64::MAX] {
                // `[i64]::hash` is a length prefix plus one `write` of the words.
                let mut reference = SeededHasher::new(seed);
                reference.write_usize(width);
                chunk_copy_write(&mut reference, &bytes);
                assert_eq!(
                    hash_key(seed, &key),
                    reference.finish(),
                    "width {width}, seed {seed}"
                );
            }
        }
        let odd: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=odd.len() {
            let mut reference = SeededHasher::new(5);
            chunk_copy_write(&mut reference, &odd[..len]);
            assert_eq!(
                write_hash(5, &odd[..len]),
                reference.finish(),
                "{len} bytes"
            );
        }
    }

    /// Three hash values as the chunk-copy `write` computed them: any change
    /// to the hash function re-seats every key in every cache and fails here.
    #[test]
    fn hash_values_are_pinned() {
        use crate::InlineKey;
        assert_eq!(
            hash_key(42, &InlineKey::from_slice(&[0x0a00_0001])),
            0x3e74_8d67_ad81_cfda
        );
        assert_eq!(
            hash_key(7, &InlineKey::from_slice(&[1, -2, 3, 4, 5])),
            0x4b95_54e8_c92f_a318
        );
        assert_eq!(write_hash(3, b"perfq-kvstore"), 0x7e9c_f217_6a3b_bb56);
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_key(1, &42u64), hash_key(1, &42u64));
        assert_eq!(hash_key(7, &"abc"), hash_key(7, &"abc"));
    }

    #[test]
    fn seeds_give_independent_functions() {
        assert_ne!(hash_key(1, &42u64), hash_key(2, &42u64));
    }

    #[test]
    fn nearby_keys_spread() {
        // Consecutive integers should land in different high bits most of the
        // time: count collisions of the top byte across 256 consecutive keys.
        let mut tops = std::collections::HashSet::new();
        for k in 0u64..256 {
            tops.insert(hash_key(3, &k) >> 56);
        }
        assert!(tops.len() > 150, "only {} distinct top bytes", tops.len());
    }

    #[test]
    fn distribution_over_buckets_is_balanced() {
        let buckets = 64usize;
        let mut counts = vec![0usize; buckets];
        for k in 0u64..64_000 {
            counts[(hash_key(9, &k) % buckets as u64) as usize] += 1;
        }
        let expect = 1000.0;
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - expect).abs() / expect;
            assert!(dev < 0.2, "bucket {i} has {c} (> 20% off uniform)");
        }
    }

    #[test]
    fn shard_of_words_is_pure_and_balanced() {
        // Pure: same inputs, same shard — across calls and irrespective of
        // any other hashing activity.
        for shards in [1usize, 2, 4, 8] {
            for k in 0i64..50 {
                let a = shard_of_words(9, &[k, k + 1], shards);
                let b = shard_of_words(9, &[k, k + 1], shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // Length matters: a zero-padded key must not collide with its prefix.
        assert_ne!(
            shard_of_words(9, &[1], 1 << 30),
            shard_of_words(9, &[1, 0], 1 << 30)
        );
        // Balanced-ish over many keys.
        let shards = 4usize;
        let mut counts = vec![0usize; shards];
        for k in 0i64..4000 {
            counts[shard_of_words(5, &[k], shards)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (*c as f64 - 1000.0).abs() / 1000.0 < 0.2,
                "shard {i} has {c} of 4000"
            );
        }
    }

    #[test]
    fn tuple_keys_hash() {
        let a = hash_key(5, &(1u32, 2u16, 3u8));
        let b = hash_key(5, &(1u32, 2u16, 4u8));
        assert_ne!(a, b);
    }

    /// Every fixed-width override must equal the generic byte-chunking path
    /// (`write` of the little-endian bytes): the overrides exist purely to
    /// skip the chunking loop, never to change the hash function. Pinning
    /// them equal means adding or removing an override can never silently
    /// re-seat every key in every cache.
    #[test]
    fn fixed_width_overrides_match_generic_path() {
        fn via_write(seed: u64, bytes: &[u8]) -> u64 {
            let mut h = SeededHasher::new(seed);
            h.write(bytes);
            h.finish()
        }
        fn via<F: FnOnce(&mut SeededHasher)>(seed: u64, f: F) -> u64 {
            let mut h = SeededHasher::new(seed);
            f(&mut h);
            h.finish()
        }
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for v in [0u64, 1, 0x80, 0xffff, 0x1234_5678_9abc_def0, u64::MAX] {
                assert_eq!(
                    via(seed, |h| h.write_u8(v as u8)),
                    via_write(seed, &(v as u8).to_le_bytes()),
                    "write_u8({v:#x})"
                );
                assert_eq!(
                    via(seed, |h| h.write_u16(v as u16)),
                    via_write(seed, &(v as u16).to_le_bytes()),
                    "write_u16({v:#x})"
                );
                assert_eq!(
                    via(seed, |h| h.write_u32(v as u32)),
                    via_write(seed, &(v as u32).to_le_bytes()),
                    "write_u32({v:#x})"
                );
                assert_eq!(
                    via(seed, |h| h.write_u64(v)),
                    via_write(seed, &v.to_le_bytes()),
                    "write_u64({v:#x})"
                );
                assert_eq!(
                    via(seed, |h| h.write_usize(v as usize)),
                    via_write(seed, &(v as usize as u64).to_le_bytes()),
                    "write_usize({v:#x})"
                );
                let wide = (u128::from(v) << 64) | u128::from(v.wrapping_mul(3));
                assert_eq!(
                    via(seed, |h| h.write_u128(wide)),
                    via_write(seed, &wide.to_le_bytes()),
                    "write_u128({wide:#x})"
                );
                // Signed overrides are bit-casts of the unsigned ones.
                assert_eq!(
                    via(seed, |h| h.write_i8(v as i8)),
                    via_write(seed, &(v as i8).to_le_bytes()),
                    "write_i8"
                );
                assert_eq!(
                    via(seed, |h| h.write_i16(v as i16)),
                    via_write(seed, &(v as i16).to_le_bytes()),
                    "write_i16"
                );
                assert_eq!(
                    via(seed, |h| h.write_i32(v as i32)),
                    via_write(seed, &(v as i32).to_le_bytes()),
                    "write_i32"
                );
                assert_eq!(
                    via(seed, |h| h.write_i64(v as i64)),
                    via_write(seed, &(v as i64).to_le_bytes()),
                    "write_i64"
                );
                assert_eq!(
                    via(seed, |h| h.write_isize(v as isize)),
                    via_write(seed, &(v as isize as i64).to_le_bytes()),
                    "write_isize"
                );
            }
        }
        // Multi-write streams chunk identically too (the InlineKey shape:
        // one usize length + several i64 words).
        let mut a = SeededHasher::new(7);
        a.write_usize(3);
        for w in [1i64, -2, 3] {
            a.write_i64(w);
        }
        let mut b = SeededHasher::new(7);
        b.write(&3u64.to_le_bytes());
        for w in [1i64, -2, 3] {
            b.write(&w.to_le_bytes());
        }
        assert_eq!(a.finish(), b.finish());
    }
}
