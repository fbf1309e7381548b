//! Inline aggregation keys.
//!
//! The runtime's GROUPBY path used to build a freshly allocated `Vec<i64>`
//! per packet just to probe the cache. [`InlineKey`] stores up to
//! [`INLINE_KEY_WORDS`] key words inline (the 5-tuple needs five), falling
//! back to a heap spill only for wider keys — so the per-packet hot path
//! allocates nothing.
//!
//! Construction is canonical: a given word sequence always produces the same
//! representation (inline iff it fits), so the derived `Eq`/`Hash` are
//! consistent — two logically equal keys can never land in different
//! variants.

use std::hash::{Hash, Hasher};

/// Words stored inline before spilling to the heap. Covers every base-schema
/// key the paper uses (the widest, the 5-tuple, needs exactly 5).
pub const INLINE_KEY_WORDS: usize = 5;

/// A compact aggregation key: a short sequence of `i64` key words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineKey {
    /// At most [`INLINE_KEY_WORDS`] words, zero-padded past `len`.
    Inline {
        /// Number of meaningful words.
        len: u8,
        /// Key words; `words[len..]` is always zero (canonical form).
        words: [i64; INLINE_KEY_WORDS],
    },
    /// Wider keys spill to the heap.
    Spill(Vec<i64>),
}

impl InlineKey {
    /// Build canonically from key words.
    #[must_use]
    pub fn from_slice(key: &[i64]) -> Self {
        if key.len() <= INLINE_KEY_WORDS {
            // Word by word with the zero padding selected in place: a
            // variable-length `copy_from_slice` here is a libc `memcpy`
            // call per key on the probe path.
            InlineKey::Inline {
                len: key.len() as u8,
                words: std::array::from_fn(|i| key.get(i).copied().unwrap_or(0)),
            }
        } else {
            InlineKey::Spill(key.to_vec())
        }
    }

    /// The key words.
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        match self {
            InlineKey::Inline { len, words } => &words[..usize::from(*len)],
            InlineKey::Spill(v) => v,
        }
    }

    /// Number of key words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for the empty key (GROUPBY with no key columns).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out as a plain vector (collect-time convenience).
    #[must_use]
    pub fn to_vec(&self) -> Vec<i64> {
        self.as_slice().to_vec()
    }
}

impl crate::cache::SlotKey for InlineKey {
    fn slot_word(&self, hash: u64) -> (u64, bool) {
        match self {
            // A one-word key (srcip, qid, …) fits the discriminant
            // losslessly: the probe decides equality in the slot word and
            // never loads the key arena. The empty key must stay inexact —
            // an exact zero discriminant would alias the one-word key [0].
            InlineKey::Inline { len: 1, words } => (words[0] as u64, true),
            _ => (hash, false),
        }
    }
}

impl Hash for InlineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical word sequence, not the representation, mirroring
        // canonical-form equality.
        self.as_slice().hash(state);
    }
}

impl PartialOrd for InlineKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InlineKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl From<&[i64]> for InlineKey {
    fn from(key: &[i64]) -> Self {
        InlineKey::from_slice(key)
    }
}

impl From<Vec<i64>> for InlineKey {
    fn from(key: Vec<i64>) -> Self {
        if key.len() <= INLINE_KEY_WORDS {
            InlineKey::from_slice(&key)
        } else {
            InlineKey::Spill(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(k: &InlineKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn short_keys_stay_inline() {
        for n in 0..=INLINE_KEY_WORDS {
            let words: Vec<i64> = (0..n as i64).collect();
            let k = InlineKey::from_slice(&words);
            assert!(matches!(k, InlineKey::Inline { .. }), "{n} words");
            assert_eq!(k.as_slice(), &words[..]);
            assert_eq!(k.len(), n);
        }
    }

    #[test]
    fn wide_keys_spill() {
        let words: Vec<i64> = (0..9).collect();
        let k = InlineKey::from_slice(&words);
        assert!(matches!(k, InlineKey::Spill(_)));
        assert_eq!(k.as_slice(), &words[..]);
    }

    #[test]
    fn equality_and_hash_follow_logical_words() {
        let a = InlineKey::from_slice(&[1, 2, 3]);
        let b = InlineKey::from_slice(&[1, 2, 3]);
        let c = InlineKey::from_slice(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(hash_of(&a), hash_of(&b));
        // Different lengths with matching prefix differ (zero-padding must
        // not collide [1,2,0] with [1,2]).
        let short = InlineKey::from_slice(&[1, 2]);
        let padded = InlineKey::from_slice(&[1, 2, 0]);
        assert_ne!(short, padded);
        assert_ne!(hash_of(&short), hash_of(&padded));
    }

    #[test]
    fn ordering_is_lexicographic_over_words() {
        let mut keys = vec![
            InlineKey::from_slice(&[2]),
            InlineKey::from_slice(&[1, 5]),
            InlineKey::from_slice(&[1]),
            InlineKey::from_slice(&(0..9).collect::<Vec<i64>>()),
        ];
        keys.sort();
        let flat: Vec<Vec<i64>> = keys.iter().map(InlineKey::to_vec).collect();
        assert_eq!(
            flat,
            vec![(0..9).collect::<Vec<i64>>(), vec![1], vec![1, 5], vec![2],]
        );
    }

    #[test]
    fn from_vec_is_canonical() {
        let a: InlineKey = vec![7i64, 8].into();
        let b = InlineKey::from_slice(&[7, 8]);
        assert_eq!(a, b);
        assert!(matches!(a, InlineKey::Inline { .. }));
    }
}
