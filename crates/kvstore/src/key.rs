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
//!
//! [`KeyLayout`] is the compiled width of each key column. A key that fits
//! its layout packs into the cache's 128-bit slot word, where a probe
//! decides a hit without loading the key itself.

use crate::hash::PlacementHash;
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
    type Layout = KeyLayout;

    #[inline]
    fn pack(&self, layout: &KeyLayout) -> Option<u128> {
        layout.pack(self.as_slice())
    }

    #[inline]
    fn placement_hash(&self, hash: &PlacementHash) -> u64 {
        hash.hash_words(self.as_slice())
    }
}

/// Bits of a key packed into a cache slot word: 64 in the word's high half
/// and 40 beside the exact flag and the arena index in its low half — the
/// paper's 104-bit 5-tuple key (§3.3/§4).
pub const PACKED_KEY_BITS: u32 = 104;

/// One aggregation's key layout: a bit width per key column, fixed when
/// the query compiles. A key whose words each fit their width — unsigned,
/// so a negative word fits only a 64-bit column — packs losslessly into
/// [`PACKED_KEY_BITS`] bits, word `i` at the sum of the widths before it,
/// and the cache decides a hit on it inside the slot word. Any other key
/// (a word past its width, a length other than the layout's, a layout
/// wider than 104 bits or [`INLINE_KEY_WORDS`] columns) does not pack and
/// takes the hash-discriminant path with a key confirm in the arena, so a
/// layout can leave a key inexact but never make two keys look equal.
///
/// The default layout is one 64-bit column: one-word keys are exact and
/// every longer key is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLayout {
    /// The key length that packs; `None` when no key does.
    arity: Option<usize>,
    /// Per column, the bits above its width: a word fits when it has none.
    over: [u64; INLINE_KEY_WORDS],
    /// Per column, its bit offset in the packed key.
    shift: [u32; INLINE_KEY_WORDS],
}

impl KeyLayout {
    /// The layout of a key with these column widths, in key order (a width
    /// over 64 counts as 64).
    #[must_use]
    pub fn new(widths: &[u32]) -> Self {
        let mut layout = KeyLayout {
            arity: None,
            over: [0; INLINE_KEY_WORDS],
            shift: [0; INLINE_KEY_WORDS],
        };
        if widths.len() > INLINE_KEY_WORDS
            || widths.iter().map(|w| (*w).min(64)).sum::<u32>() > PACKED_KEY_BITS
        {
            return layout;
        }
        let mut at = 0;
        for (i, w) in widths.iter().map(|w| (*w).min(64)).enumerate() {
            layout.over[i] = u64::MAX.checked_shl(w).unwrap_or(0);
            layout.shift[i] = at;
            at += w;
        }
        layout.arity = Some(widths.len());
        layout
    }

    /// The key words packed losslessly into [`PACKED_KEY_BITS`] bits, or
    /// `None` when the key does not fit this layout.
    #[inline]
    #[must_use]
    pub fn pack(&self, words: &[i64]) -> Option<u128> {
        if self.arity != Some(words.len()) {
            return None;
        }
        let mut packed = 0u128;
        for ((&w, over), shift) in words.iter().zip(self.over).zip(self.shift) {
            if w as u64 & over != 0 {
                return None;
            }
            packed |= u128::from(w as u64) << shift;
        }
        Some(packed)
    }
}

impl Default for KeyLayout {
    fn default() -> Self {
        KeyLayout::new(&[64])
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
        let mut keys = [
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

#[cfg(test)]
mod layout_proptests {
    use super::*;
    use crate::cache::SlotKey;
    use crate::hash::{hash_key, PlacementHash};
    use proptest::prelude::*;

    /// The layouts the runtime compiles: a one-word key (64- and 32-bit),
    /// `(srcip, dstip)`, the 5-tuple, and all-64-bit columns (which cannot
    /// pack: 128 bits > 104). The first four pack.
    const LAYOUTS: [&[u32]; 5] = [&[64], &[32], &[32, 32], &[32, 32, 16, 16, 8], &[64, 64]];

    /// Words at and across every width edge the layouts use (`2^w − 1`,
    /// `2^w`, `−1`, `i64::MIN`, `i64::MAX`), and random ones.
    fn edge_word() -> impl Strategy<Value = i64> {
        const EDGES: [i64; 7] = [0, 0xff, 0xffff, 0xffff_ffff, -1, i64::MIN, i64::MAX];
        prop_oneof![
            (0usize..EDGES.len(), -1i64..=1).prop_map(|(i, d)| EDGES[i].wrapping_add(d)),
            i64::MIN..=i64::MAX,
        ]
    }

    /// The words a packed key decodes back to under `widths`.
    fn unpack(widths: &[u32], packed: u128) -> Vec<i64> {
        let mut at = 0;
        widths
            .iter()
            .map(|&w| {
                let word = (packed >> at) as u64 & u64::MAX.checked_shr(64 - w).unwrap_or(0);
                at += w;
                word as i64
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The exactness law: a packed key is below 2^104 and decodes back
        /// to its own words, so two keys that pack to the same slot tag are
        /// equal keys. A neighbour one bit apart in one word never shares
        /// the packed value. Lengths 0..=7 cover keys whose length differs
        /// from the layout's (they never pack); `len` ≥ 8 draws the
        /// layout's own length.
        #[test]
        fn packing_is_injective(
            layout in 0usize..LAYOUTS.len(),
            words in prop::collection::vec(edge_word(), 7),
            len in 0usize..14,
            flip in (0usize..7, 0u32..64),
        ) {
            let (at, bit) = flip;
            let widths = LAYOUTS[layout];
            let kl = KeyLayout::new(widths);
            let key = InlineKey::from_slice(&words[..if len < 8 { len } else { widths.len() }]);
            let Some(p) = key.pack(&kl) else {
                return Ok(());
            };
            prop_assert!(layout < 4 && key.len() == widths.len(), "{key:?} packed");
            prop_assert!(p >> PACKED_KEY_BITS == 0, "{p:#x} past 104 bits");
            prop_assert_eq!(unpack(widths, p), key.to_vec());
            let mut other = key.to_vec();
            if let Some(w) = other.get_mut(at % widths.len()) {
                *w ^= 1i64 << bit;
                prop_assert!(InlineKey::from_slice(&other).pack(&kl) != Some(p));
            }
        }

        /// A key whose words fit their widths packs; one word past its
        /// width — a bit at or above it, so every negative word of a
        /// narrow column too — takes the inexact path.
        #[test]
        fn a_word_past_its_width_does_not_pack(
            layout in 1usize..4,
            words in prop::collection::vec(edge_word(), 7),
            at in 0usize..7,
            over in (edge_word(), 0u32..64),
        ) {
            let widths = LAYOUTS[layout];
            let kl = KeyLayout::new(widths);
            let mut key: Vec<i64> = (words.iter().zip(widths))
                .map(|(w, bits)| (*w as u64 & (u64::MAX >> (64 - bits))) as i64)
                .collect();
            prop_assert!(kl.pack(&key).is_some(), "{key:?} fits {widths:?}");
            let i = at % widths.len();
            let (word, bit) = over;
            let bit = widths[i] + bit % (64 - widths[i]);
            key[i] = (word as u64 | 1 << bit) as i64;
            prop_assert_eq!(kl.pack(&key), None, "word {i} = {:#x} past {} bits", key[i], widths[i]);
        }

        /// The precomputed seed and length rounds change no hash: the
        /// placement hash equals `hash_key` for every key length 0..=7
        /// (inline and spilled keys), for `u64` and `u128` keys too.
        #[test]
        fn placement_hash_equals_hash_key(
            seed in 0u64..=u64::MAX,
            words in prop::collection::vec(edge_word(), 7),
            len in 0usize..8,
        ) {
            let table = PlacementHash::new(seed);
            let key = InlineKey::from_slice(&words[..len]);
            prop_assert_eq!(key.placement_hash(&table), hash_key(seed, &key), "{} words", len);
            prop_assert_eq!(table.hash(&key), hash_key(seed, &key));
            let wide = u128::from(words[0] as u64) << 64 | u128::from(words[1] as u64);
            prop_assert_eq!(wide.placement_hash(&table), hash_key(seed, &wide));
            let narrow = words[2] as u64;
            prop_assert_eq!(narrow.placement_hash(&table), hash_key(seed, &narrow));
        }

        /// A `u128` key packs, as itself, exactly when it is below 2^104.
        #[test]
        fn wide_keys_pack_below_2_to_the_104(
            hi in 0u64..=u64::MAX,
            lo in 0u64..=u64::MAX,
            shift in 0u32..48,
        ) {
            let key = (u128::from(hi) << 64 | u128::from(lo)) >> shift;
            prop_assert_eq!(key.pack(&()), (key < 1 << 104).then_some(key));
        }
    }
}
