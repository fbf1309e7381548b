//! Cache geometries (Fig. 4 of the paper).
//!
//! The on-chip cache is a hash table of `n` buckets, each an `m`-slot LRU.
//! The paper evaluates three geometries at equal total capacity:
//!
//! 1. the plain hash table (`m = 1`) — evict on any collision;
//! 2. the 8-way set-associative cache (`m = 8`) — "similar to many processor
//!    L1 caches";
//! 3. the fully associative cache (`n = 1`) — a true LRU over all entries.

use std::fmt;

/// Most pairs a bucketed cache (more than one bucket) can hold: each slot
/// word addresses its data way with a 23-bit arena index (see
/// [`crate::cache`]'s memory layout). 32× the paper's 2^18-pair 32 Mbit
/// point; the fully-associative cache has no slot words and no such limit.
pub const MAX_BUCKETED_PAIRS: usize = 1 << 23;

/// An `n`-bucket × `m`-way cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of hash buckets (`n` in Fig. 4).
    pub buckets: usize,
    /// Slots per bucket (`m` in Fig. 4).
    pub ways: usize,
}

impl CacheGeometry {
    /// A geometry with explicit bucket count and associativity.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(buckets: usize, ways: usize) -> Self {
        assert!(buckets > 0, "cache must have at least one bucket");
        assert!(ways > 0, "cache must have at least one way");
        CacheGeometry { buckets, ways }
    }

    /// The paper's plain hash table: `m = 1`.
    #[must_use]
    pub fn hash_table(capacity: usize) -> Self {
        Self::new(capacity.max(1), 1)
    }

    /// A `ways`-way set-associative cache of the given total capacity.
    /// Capacity is rounded up to a multiple of `ways`.
    #[must_use]
    pub fn set_associative(capacity: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        let buckets = capacity.div_ceil(ways).max(1);
        Self::new(buckets, ways)
    }

    /// The paper's fully associative cache: `n = 1`, a full LRU.
    #[must_use]
    pub fn fully_associative(capacity: usize) -> Self {
        Self::new(1, capacity.max(1))
    }

    /// Total key-value pairs the cache can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets * self.ways
    }

    /// True when a cache of this shape can be built: any fully-associative
    /// one, and a bucketed one of at most [`MAX_BUCKETED_PAIRS`] pairs.
    #[must_use]
    pub fn is_buildable(&self) -> bool {
        self.buckets == 1
            || self
                .buckets
                .checked_mul(self.ways)
                .is_some_and(|pairs| pairs <= MAX_BUCKETED_PAIRS)
    }

    /// SRAM bits needed at `pair_bits` bits per key-value pair (§4 sizes the
    /// running example at 104-bit keys + 24-bit values = 128 bits).
    #[must_use]
    pub fn sram_bits(&self, pair_bits: u32) -> u64 {
        self.capacity() as u64 * u64::from(pair_bits)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.buckets == 1 {
            write!(f, "fully-associative({})", self.ways)
        } else if self.ways == 1 {
            write!(f, "hash-table({})", self.buckets)
        } else {
            write!(f, "{}x{}-way", self.buckets, self.ways)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_product() {
        assert_eq!(CacheGeometry::new(1024, 8).capacity(), 8192);
    }

    #[test]
    fn constructors_match_paper_geometries() {
        let cap = 1 << 18;
        let ht = CacheGeometry::hash_table(cap);
        assert_eq!((ht.buckets, ht.ways), (cap, 1));
        let sa = CacheGeometry::set_associative(cap, 8);
        assert_eq!((sa.buckets, sa.ways), (cap / 8, 8));
        assert_eq!(sa.capacity(), cap);
        let fa = CacheGeometry::fully_associative(cap);
        assert_eq!((fa.buckets, fa.ways), (1, cap));
    }

    #[test]
    fn set_associative_rounds_up() {
        let g = CacheGeometry::set_associative(10, 8);
        assert_eq!(g.buckets, 2);
        assert_eq!(g.capacity(), 16);
    }

    #[test]
    fn sram_bits_match_paper_sizing() {
        // 2^18 pairs × 128 bits = 32 Mbit (§4's target size).
        let g = CacheGeometry::set_associative(1 << 18, 8);
        assert_eq!(g.sram_bits(128), 32 * 1024 * 1024);
    }

    #[test]
    fn display_names() {
        assert_eq!(CacheGeometry::hash_table(4).to_string(), "hash-table(4)");
        assert_eq!(
            CacheGeometry::fully_associative(4).to_string(),
            "fully-associative(4)"
        );
        assert_eq!(CacheGeometry::new(2, 4).to_string(), "2x4-way");
    }

    #[test]
    fn the_slot_word_index_bounds_bucketed_caches_only() {
        assert!(CacheGeometry::set_associative(MAX_BUCKETED_PAIRS, 8).is_buildable());
        assert!(!CacheGeometry::set_associative(MAX_BUCKETED_PAIRS + 1, 8).is_buildable());
        assert!(!CacheGeometry::new(usize::MAX, 2).is_buildable());
        assert!(CacheGeometry::fully_associative(MAX_BUCKETED_PAIRS * 2).is_buildable());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = CacheGeometry::new(0, 1);
    }
}
