//! The on-chip SRAM cache (Fig. 3/4 of the paper).
//!
//! Two interchangeable implementations sit behind [`SramCache`]:
//!
//! * `BucketedCache` — the hardware layout of Fig. 4 in a struct-of-arrays
//!   memory layout: `n` hash buckets of `m` slots, victim chosen within the
//!   bucket. A probe is one hash and one tag compare per way; only a key
//!   that does not pack into the tag is confirmed in the key arena (see the
//!   memory-layout sketch below).
//! * `FullLruCache` — used when `n = 1` (the paper's fully-associative
//!   configuration). A hash-map index plus an intrusive doubly-linked list
//!   gives O(1) lookup and true-LRU eviction; a linear scan of 2^18 ways per
//!   packet would make the Fig. 5 sweep intractable.
//!
//! Both honor the three eviction policies and keep per-entry residency
//! timestamps (`first_seen`/`last_seen`) for the backing store's epochs.
//!
//! One residency rule, the paper's (§3.2): an entry leaves the cache only
//! as its bucket's policy victim or in a whole-cache drain (end of window,
//! checkpoint, geometry migration). There is no single-key removal, so an
//! entry's arena index is fixed from insertion until then.
//!
//! # Memory layout (mirrors the Fig. 4 hardware)
//!
//! A real cache splits each way into a **tag array** and a **data array**:
//! a set probe compares all of the set's tags against the probe tag in one
//! cycle, and only the matching way's data is read. `BucketedCache` mirrors
//! that split with a *wide* tag. The geometry-fixed side is a flat array of
//! 128-bit *slot words* plus per-bucket occupancy counts; the data side is
//! two parallel flat arrays (keys, and values fused with their residency
//! timestamps and recency counters) indexed by the slot word's low bits.
//! A slot word is a 104-bit tag, an *exact* flag and a 23-bit data-way
//! index:
//!
//! ```text
//!                bucket b, slots 0..m        one u128 per slot
//!          high 64 bits        low 64 bits
//! slots  [ key bits 0..64  │ key bits 64..104 │ e=1 │ idx ]   packed key
//!        [ seeded hash     │ 0                │ e=0 │ idx ]   any other key
//!          └───── tag (all but idx): one compare per way ──┘
//!                          (exact ⇒ equality decided right here;
//!                           inexact ⇒ filter, confirm below)
//!             ▼ (low 23 bits, on a tag match only)
//! keys   [ k₀ │ k₁ │ … ]          full keys — the equality confirm
//! state  [ v₀,t₀ⁱⁿ,t₀ˡᵃˢᵗ,lru₀ │ … ]  fold state + residency + recency
//! ```
//!
//! What fills the tag is the [`SlotKey`] contract, under the cache's key
//! layout — for an aggregation's `InlineKey` the compiled width of each key
//! column (`(srcip, dstip)` is 64 bits, the 5-tuple the paper's 104). A key
//! whose words fit their widths packs losslessly into the 104 tag bits and
//! sets the exact bit, so a hit is decided entirely inside the slot word —
//! the probe touches **one** cache line before the state array and never
//! loads the key arena. Any other key (a word past its width, a layout
//! wider than 104 bits) stores its seeded 64-bit hash (a 2⁻⁶⁴
//! false-positive filter per occupied way; the bucket index consumes
//! `h mod n`, which leaves the compared word discriminating) and confirms
//! on the full key only after a tag match. Either way a probe is **one
//! hash, at most `m` tag compares, and — only for keys that do not pack —
//! ~one key confirm**. This is the software spelling of the hardware's
//! parallel tag compare, and the filter load *is* the data-way pointer
//! load. The 23-bit index bounds a bucketed cache at
//! [`MAX_BUCKETED_PAIRS`] = 2^23 pairs, 32× the paper's 2^18-pair point.
//!
//! Construction is O(1) work per page regardless of capacity (the
//! geometry-fixed arrays are lazily-zeroed primitive words — SRAM is
//! pre-provisioned, not initialized), the data arrays hold only the
//! resident population, slots fill from index 0 per bucket and are never
//! vacated one by one, and eviction moves the victim out by `mem::replace`
//! — no clone, and (with the data arrays pre-reserved up to 2^20 resident
//! pairs) no allocation on the steady-state per-packet path. The end-of-window drain never walks
//! the slot words: it zeroes them wholesale and streams the two data
//! arrays out front to back, the order [`SramCache::for_each_slot`] visits.

use crate::geometry::{CacheGeometry, MAX_BUCKETED_PAIRS};
use crate::hash::PlacementHash;
use crate::policy::{EvictionPolicy, VictimRng};
use perfq_packet::Nanos;
use std::collections::HashMap;
use std::hash::Hash;

/// How a key packs into the tag of a slot word.
///
/// `pack(layout)` returns the key packed losslessly into
/// [`PACKED_KEY_BITS`](crate::key::PACKED_KEY_BITS) bits, or `None`:
///
/// * **packed (exact)** — the slot word holds the key itself: two keys that
///   pack to the same value are equal keys, so a probe decides a hit inside
///   the slot word without touching the key arena.
/// * **`None` (inexact)** — the slot word holds the seeded 64-bit key hash,
///   a filter: equal hashes mean "almost certainly equal", and the probe
///   confirms on the full key in the arena.
///
/// Three laws, for a fixed layout: (1) two keys that pack to the same value
/// are equal; (2) a packed value is below 2^104; (3) packing is a pure
/// function of the key, so equal keys are both packed or both not.
pub trait SlotKey: Hash {
    /// The compile-time layout a cache packs its keys by; the default is
    /// what [`SplitStore::new`](crate::SplitStore::new) uses.
    type Layout: Clone + std::fmt::Debug + Default;

    /// The key packed into at most 104 bits, or `None` when it does not fit
    /// `layout`.
    fn pack(&self, layout: &Self::Layout) -> Option<u128>;

    /// The seeded placement hash, `hash_key(seed, self)` bit for bit; a key
    /// type may skip rounds `hash` has precomputed.
    #[inline]
    fn placement_hash(&self, hash: &PlacementHash) -> u64 {
        hash.hash(self)
    }
}

impl SlotKey for u64 {
    type Layout = ();

    #[inline]
    fn pack(&self, (): &()) -> Option<u128> {
        Some(u128::from(*self))
    }
}

impl SlotKey for u128 {
    type Layout = ();

    /// Exact below 2^104, where `FiveTuple::to_bits` keys live.
    #[inline]
    fn pack(&self, (): &()) -> Option<u128> {
        (*self >> crate::key::PACKED_KEY_BITS == 0).then_some(*self)
    }
}

/// A resident key-value pair with residency metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry<K, V> {
    /// The key.
    pub key: K,
    /// The value (fold state).
    pub value: V,
    /// When the key was inserted into the cache (this residency).
    pub first_seen: Nanos,
    /// When the key was last updated.
    pub last_seen: Nanos,
}

/// A borrowed view of one resident slot, lent by [`SramCache::for_each_slot`].
///
/// The struct-of-arrays layout stores each field in its own flat array, so
/// there is no contiguous `CacheEntry` to hand out a reference to; this view
/// borrows the key and value in place and copies the two timestamps.
#[derive(Debug)]
pub struct CacheSlotRef<'a, K, V> {
    /// The resident key.
    pub key: &'a K,
    /// The resident value (fold state).
    pub value: &'a V,
    /// When the key was inserted (this residency).
    pub first_seen: Nanos,
    /// When the key was last updated.
    pub last_seen: Nanos,
}

/// A flow run in progress: the slot the last [`SramCache::upsert`] through
/// this run resolved, named by that key's packed form (see [`SlotKey`]).
///
/// Traces are bursty (packet trains per flow), so consecutive records often
/// carry the same key. An upsert whose key is the run's held key — equal
/// packed words, or for a key that does not pack, equal to the key resident
/// in the held slot — skips the hash and the bucket probe and touches the
/// held slot exactly as a probed hit would (recency refresh per policy,
/// `last_seen` stamp), so a run of equal-key records costs one probe and
/// stays byte-identical to one probe per record. Any other key probes as
/// usual and the run moves to its slot.
///
/// `Run::default()` holds nothing: an upsert through it is a plain probe.
/// A run belongs to one cache, and its slot stays its key's until that key
/// leaves the cache as a victim or in a drain (the module's residency rule). A
/// caller that does not track victims holds a run only across consecutive
/// upserts through it, and starts a fresh one after any other call on the
/// cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run(Option<(Option<u128>, usize)>);

/// The on-chip cache: geometry + policy behind one interface.
#[derive(Debug, Clone)]
pub struct SramCache<K: SlotKey, V> {
    inner: Inner<K, V>,
    policy: EvictionPolicy,
    rng: VictimRng,
    geometry: CacheGeometry,
    /// Placement hash seed, kept so a migration rebuilds the cache
    /// identically configured.
    hash_seed: u64,
    /// How keys pack into slot-word tags and name runs.
    layout: K::Layout,
}

#[derive(Debug, Clone)]
enum Inner<K: SlotKey, V> {
    Bucketed(BucketedCache<K, V>),
    Full(FullLruCache<K, V>),
}

impl<K: Eq + Hash + Clone + SlotKey, V> SramCache<K, V> {
    /// Create a cache that packs keys by `layout` (see [`SlotKey`]).
    ///
    /// # Panics
    /// Panics when the geometry is not [`CacheGeometry::is_buildable`].
    #[must_use]
    pub fn with_layout(
        geometry: CacheGeometry,
        policy: EvictionPolicy,
        hash_seed: u64,
        layout: K::Layout,
    ) -> Self {
        let inner = if geometry.buckets == 1 {
            Inner::Full(FullLruCache::new(geometry.ways))
        } else {
            Inner::Bucketed(BucketedCache::new(geometry, hash_seed))
        };
        SramCache {
            inner,
            policy,
            rng: victim_rng(policy),
            geometry,
            hash_seed,
            layout,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Bucketed(c) => c.len(),
            Inner::Full(c) => c.map.len(),
        }
    }

    /// True when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.geometry.capacity()
    }

    /// True if the key is resident (no recency side effects).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        match &self.inner {
            Inner::Bucketed(c) => c.contains(key, key.pack(&self.layout)),
            Inner::Full(c) => c.map.contains_key(key),
        }
    }

    /// Single-pass lookup-or-insert: the per-packet primitive, continuing
    /// `run` (see [`Run`]).
    ///
    /// The key is packed once under the cache's layout; that one word both
    /// recognises the run's held key and, otherwise, becomes the probe tag.
    /// A hit refreshes recency (per policy); a miss initializes a new value
    /// with `init`, inserting it and handing the policy's victim to `evict`
    /// when the target bucket is full — at most one hash and one bucket
    /// probe either way, none on a run hit. Returns the (now-resident) key's
    /// value and whether the key was resident already (a hit), and leaves
    /// `run` holding its slot.
    #[inline]
    pub fn upsert(
        &mut self,
        run: &mut Run,
        key: K,
        now: Nanos,
        init: impl FnOnce() -> V,
        evict: impl FnOnce(CacheEntry<K, V>),
    ) -> (&mut V, bool) {
        let packed = key.pack(&self.layout);
        let held = run.0.and_then(|(held, j)| {
            let same = match (held, packed) {
                (Some(a), Some(b)) => a == b,
                (None, None) => *self.key_at(j) == key,
                _ => false,
            };
            debug_assert!(!same || *self.key_at(j) == key, "a run outlived its key");
            same.then_some(j)
        });
        let refresh = !matches!(self.policy, EvictionPolicy::Fifo);
        let (j, hit) = match (&mut self.inner, held) {
            (Inner::Bucketed(c), Some(j)) => (c.touch(j, now, refresh), true),
            (Inner::Full(c), Some(j)) => (c.touch(j, now, refresh), true),
            (_, None) => self.probe_upsert(key, packed, now, init, evict, refresh),
        };
        *run = Run(Some((packed, j)));
        let value = match &mut self.inner {
            Inner::Bucketed(c) => &mut c.state[j].value,
            Inner::Full(c) => &mut c.nodes[j].entry.value,
        };
        (value, hit)
    }

    /// Lookup-or-insert of a key packed to `packed`, by one probe. Kept out
    /// of line so a run hit in [`SramCache::upsert`] stays a few
    /// instructions in its caller.
    #[inline(never)]
    fn probe_upsert(
        &mut self,
        key: K,
        packed: Option<u128>,
        now: Nanos,
        init: impl FnOnce() -> V,
        evict: impl FnOnce(CacheEntry<K, V>),
        refresh: bool,
    ) -> (usize, bool) {
        let (policy, rng) = (self.policy, &mut self.rng);
        let (j, hit, victim) = match &mut self.inner {
            Inner::Bucketed(c) => c.upsert(key, packed, now, init, refresh, policy, rng),
            Inner::Full(c) => c.upsert(key, now, init, refresh, policy, rng),
        };
        if let Some(victim) = victim {
            evict(victim);
        }
        (j, hit)
    }

    /// The key resident at arena index `j`.
    fn key_at(&self, j: usize) -> &K {
        match &self.inner {
            Inner::Bucketed(c) => &c.keys[j],
            Inner::Full(c) => &c.nodes[j].entry.key,
        }
    }

    /// Rehash every resident entry into a fresh cache at `geometry` (same
    /// policy, hash seed and layout), in [`SramCache::drain_into`] order,
    /// each keeping its `first_seen`/`last_seen` interval, and hand every
    /// entry that no longer fits to `overflow` — the live-migration step of
    /// online re-provisioning.
    pub(crate) fn migrate(
        &mut self,
        geometry: CacheGeometry,
        mut overflow: impl FnMut(CacheEntry<K, V>),
    ) {
        let mut next =
            Self::with_layout(geometry, self.policy, self.hash_seed, self.layout.clone());
        self.drain_into(|entry| {
            if let Some(victim) = next.insert_entry(entry) {
                overflow(victim);
            }
        });
        *self = next;
    }

    /// Insert a fully-formed entry that is **not** resident, preserving its
    /// `first_seen`/`last_seen` timestamps. If the target bucket is full,
    /// the policy's victim is evicted and returned.
    fn insert_entry(&mut self, entry: CacheEntry<K, V>) -> Option<CacheEntry<K, V>> {
        debug_assert!(!self.contains(&entry.key), "insert of a resident key");
        let (policy, rng) = (self.policy, &mut self.rng);
        match &mut self.inner {
            Inner::Bucketed(c) => {
                let packed = entry.key.pack(&self.layout);
                c.insert(entry, packed, policy, rng)
            }
            Inner::Full(c) => c.insert(entry, policy, rng),
        }
    }

    /// Remove all resident entries, handing each to `sink` (end-of-window
    /// flush, geometry migration), in [`SramCache::for_each_slot`] order:
    /// the entry arena front to back. The order is free — the cache holds
    /// at most one residency per key, so no absorption of one entry can
    /// see another's. A drained cache is a just-built one: the `Random`
    /// victim stream restarts from its seed and both arenas refill from
    /// index 0, so a run that checkpoints (a flush) picks the same victims
    /// as one recovered into a fresh cache.
    pub fn drain_into(&mut self, sink: impl FnMut(CacheEntry<K, V>)) {
        match &mut self.inner {
            Inner::Bucketed(c) => c.drain_into(sink),
            Inner::Full(c) => c.drain_into(sink),
        }
        self.rng = victim_rng(self.policy);
    }

    /// Visit every resident slot (no recency side effects).
    pub fn for_each_slot(&self, mut f: impl FnMut(CacheSlotRef<'_, K, V>)) {
        match &self.inner {
            Inner::Bucketed(c) => c.iter().for_each(&mut f),
            Inner::Full(c) => c
                .nodes
                .iter()
                .map(|n| CacheSlotRef {
                    key: &n.entry.key,
                    value: &n.entry.value,
                    first_seen: n.entry.first_seen,
                    last_seen: n.entry.last_seen,
                })
                .for_each(&mut f),
        }
    }
}

/// The victim stream a just-built cache starts from.
fn victim_rng(policy: EvictionPolicy) -> VictimRng {
    VictimRng::new(match policy {
        EvictionPolicy::Random { seed } => seed,
        _ => 1,
    })
}

// ---------------------------------------------------------------------------
// Bucketed implementation (n buckets × m ways, struct-of-arrays layout)
// ---------------------------------------------------------------------------

/// Slot-word low-half fields, below the 64-bit high half:
/// `[40-bit payload | exact | 23-bit arena index]`.
const INDEX_BITS: u32 = 23;
/// The arena-index field of a slot word.
const INDEX_MASK: u128 = (1 << INDEX_BITS) - 1;
/// Set when the slot word's tag is the packed key itself (see [`SlotKey`]).
const EXACT_BIT: u128 = 1 << INDEX_BITS;
/// Where a packed key's bits past the high half sit in the low half.
const PAYLOAD_SHIFT: u32 = INDEX_BITS + 1;
// The index field addresses every arena entry a buildable cache can hold.
const _: () = assert!(MAX_BUCKETED_PAIRS == 1 << INDEX_BITS);

/// A slot word's tag — every field but the arena index — for a key that
/// packs to `packed` (its low 64 bits in the high half, its other ≤ 40 bits
/// as the payload, the exact flag set) or, unpacked, whose hash is `h`.
#[inline]
fn tag_of(packed: Option<u128>, h: u64) -> u128 {
    match packed {
        Some(p) => (p << 64) | ((p >> 64) << PAYLOAD_SHIFT) | EXACT_BIT,
        None => u128::from(h) << 64,
    }
}

/// A value and its per-entry bookkeeping, one arena element: the fold state
/// is updated on every hit and the stamps/recency beside it in the same
/// cache lines, so a hit touches the key array and this array once each.
#[derive(Debug, Clone)]
struct Stamped<V> {
    /// The fold state.
    value: V,
    /// Residency start.
    first_seen: Nanos,
    /// Last update.
    last_seen: Nanos,
    /// Monotone counter value at last access (LRU victim = minimum).
    accessed: u64,
    /// Monotone counter value at insertion (FIFO victim = minimum).
    inserted: u64,
}

/// Fig. 4's cache as a split tag store + parallel data arrays.
///
/// The *geometry-fixed* side is one flat array of 128-bit slot words — a
/// tag (the packed key, or the key's hash) beside a 23-bit data-way index
/// — and the per-bucket occupancy counts, so building a cache of any
/// capacity is one lazily-zeroed allocation per array (no per-slot
/// initialization; SRAM is pre-provisioned, construction does O(1) work
/// per page). The *entry* side is two parallel flat arrays — keys, and
/// values fused with their residency timestamps/recency counters — indexed
/// by the slot word's low bits, dense (no holes), and only as long as the
/// resident population.
///
/// Slots fill from index 0 within each bucket (`lens[b]` counts the
/// occupied prefix, which only a drain empties), which keeps every victim
/// scan a dense forward walk and makes slot index dynamics identical to the
/// previous packed-`u32` layout — the differential suite pins
/// hit/miss/eviction streams byte-for-byte.
/// Eviction swaps the incoming entry into the victim's arena slot with
/// `mem::replace`: no clone, no allocation, no free-list churn. A drain
/// empties the arenas in their own order, so it costs sequential reads
/// plus one wholesale zeroing of the slot words. The arenas
/// are pre-reserved up to 2^20 resident pairs, so caches up to that
/// population never reallocate after construction; beyond it, arena growth
/// is amortized doubling that settles during warm-up.
#[derive(Debug, Clone)]
struct BucketedCache<K: SlotKey, V> {
    /// Packed slot words, one `u128` per slot (geometry-fixed; only the
    /// occupied prefix `0..lens[b]` of a bucket is meaningful): a
    /// [`tag_of`] tag `|` the arena index. The tag is the flat tag array —
    /// a packed key is *confirmed* right here — and the low bits are the
    /// data-way pointer, so the probe's filter load is the index load.
    slots: Vec<u128>,
    /// Occupied-prefix length per bucket (geometry-fixed).
    lens: Vec<u32>,
    /// Resident keys (dense arena), consulted only on an unpacked key's
    /// tag match.
    keys: Vec<K>,
    /// Fold state + residency timestamps + recency, parallel to `keys`.
    state: Vec<Stamped<V>>,
    buckets: usize,
    /// `buckets − 1` when `buckets` is a power of two (every compiled
    /// default geometry), so [`BucketedCache::bucket_of`] masks instead of
    /// dividing; `None` keeps the `%`. Same bucket either way.
    bucket_mask: Option<u64>,
    ways: usize,
    /// The placement hash with its seed rounds precomputed.
    hash: PlacementHash,
    seq: u64,
}

impl<K: Eq + Hash + Clone + SlotKey, V> BucketedCache<K, V> {
    fn new(geometry: CacheGeometry, seed: u64) -> Self {
        let (buckets, ways) = (geometry.buckets, geometry.ways);
        assert!(
            geometry.is_buildable(),
            "bucketed cache capacity limited to {MAX_BUCKETED_PAIRS} pairs (23-bit slot-word index)"
        );
        let capacity = buckets * ways;
        // Reserve the arenas up front (clamped like the full-LRU index, so a
        // pathological geometry cannot demand gigabytes of address space):
        // up to the clamp, steady-state churn never reallocates, and
        // `with_capacity` maps pages lazily so over-reserving a sparse
        // cache costs nothing. Populations past the clamp grow by amortized
        // doubling during warm-up.
        let reserve = capacity.min(1 << 20);
        BucketedCache {
            slots: vec![0; capacity],
            lens: vec![0; buckets],
            keys: Vec::with_capacity(reserve),
            state: Vec::with_capacity(reserve),
            buckets,
            bucket_mask: buckets.is_power_of_two().then(|| buckets as u64 - 1),
            ways,
            hash: PlacementHash::new(seed),
            seq: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn bucket_of(&self, h: u64) -> usize {
        match self.bucket_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.buckets as u64) as usize,
        }
    }

    /// A key's bucket and slot-word tag, given its packed form: one
    /// placement hash.
    #[inline]
    fn locate(&self, key: &K, packed: Option<u128>) -> (usize, u128) {
        let h = key.placement_hash(&self.hash);
        (self.bucket_of(h), tag_of(packed, h))
    }

    /// The arena index behind an occupied slot.
    #[inline]
    fn entry_of(&self, b: usize, slot: usize) -> usize {
        (self.slots[b * self.ways + slot] & INDEX_MASK) as usize
    }

    /// The parallel tag compare, with a wide tag: each occupied slot's tag
    /// is compared against the probe key's. A match on an exact tag is
    /// equality, decided inside the slot word — a packed key never loads
    /// the key arena, and since packing is a pure function of the key, an
    /// exact probe tag matches no slot of an unpacked key. A match on a hash
    /// tag is a filter (2⁻⁶⁴ false positives per occupied way) confirmed on
    /// the full key. Only the occupied prefix `0..lens[b]` is scanned.
    /// Returns the resident key's arena index.
    #[inline]
    fn probe(&self, b: usize, tag: u128, key: &K) -> Option<usize> {
        let exact = tag & EXACT_BIT != 0;
        let base = b * self.ways;
        let occupied = &self.slots[base..base + self.lens[b] as usize];
        for &word in occupied {
            if word & !INDEX_MASK != tag {
                continue;
            }
            let j = (word & INDEX_MASK) as usize;
            if exact || self.keys[j] == *key {
                return Some(j);
            }
        }
        None
    }

    fn contains(&self, key: &K, packed: Option<u128>) -> bool {
        let (b, tag) = self.locate(key, packed);
        self.probe(b, tag, key).is_some()
    }

    /// Append a new entry to the arena and fill the bucket's next free slot.
    /// Returns the arena index.
    fn fill_slot(&mut self, b: usize, tag: u128, key: K, value: V, now: Nanos, seq: u64) -> usize {
        let slot = self.lens[b] as usize;
        debug_assert!(slot < self.ways, "bucket has a free slot");
        let i = b * self.ways + slot;
        let j = self.keys.len();
        self.keys.push(key);
        self.state.push(Stamped {
            value,
            first_seen: now,
            last_seen: now,
            accessed: seq,
            inserted: seq,
        });
        self.slots[i] = tag | j as u128;
        self.lens[b] += 1;
        j
    }

    /// Swap the incoming entry into the victim's arena slot via
    /// `mem::replace`, returning the victim. The slot keeps its arena
    /// index; only the tag changes.
    #[allow(clippy::too_many_arguments)]
    fn replace_slot(
        &mut self,
        b: usize,
        slot: usize,
        tag: u128,
        key: K,
        value: V,
        now: Nanos,
        seq: u64,
    ) -> (usize, CacheEntry<K, V>) {
        let j = self.entry_of(b, slot);
        let victim_key = std::mem::replace(&mut self.keys[j], key);
        let victim_state = std::mem::replace(
            &mut self.state[j],
            Stamped {
                value,
                first_seen: now,
                last_seen: now,
                accessed: seq,
                inserted: seq,
            },
        );
        self.slots[b * self.ways + slot] = tag | j as u128;
        (
            j,
            CacheEntry {
                key: victim_key,
                value: victim_state.value,
                first_seen: victim_state.first_seen,
                last_seen: victim_state.last_seen,
            },
        )
    }

    fn insert(
        &mut self,
        entry: CacheEntry<K, V>,
        packed: Option<u128>,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> Option<CacheEntry<K, V>> {
        let (b, tag) = self.locate(&entry.key, packed);
        self.seq += 1;
        let seq = self.seq;
        let CacheEntry {
            key,
            value,
            first_seen,
            last_seen,
        } = entry;
        // fill_slot/replace_slot stamp one timestamp into both residency
        // fields; insert() carries the entry's own interval, so restore its
        // last_seen afterwards.
        if (self.lens[b] as usize) < self.ways {
            let j = self.fill_slot(b, tag, key, value, first_seen, seq);
            self.state[j].last_seen = last_seen;
            return None;
        }
        let victim_slot = self.pick_victim(b, policy, rng);
        let (j, victim) = self.replace_slot(b, victim_slot, tag, key, value, first_seen, seq);
        self.state[j].last_seen = last_seen;
        Some(victim)
    }

    /// Touch the resident entry at arena index `j` as a hit: the recency
    /// counter advances (stamped per policy) and `last_seen` takes `now`.
    fn touch(&mut self, j: usize, now: Nanos, refresh: bool) -> usize {
        self.seq += 1;
        let s = &mut self.state[j];
        if refresh {
            s.accessed = self.seq;
        }
        s.last_seen = now;
        j
    }

    /// Single-pass lookup-or-insert of a key packed to `packed`, returning
    /// the arena index of the (now-resident) entry — it stays the key's
    /// until the key is a victim or the cache drains —, whether it was a
    /// hit, and the victim a miss into a full bucket evicted.
    #[allow(clippy::too_many_arguments)]
    fn upsert(
        &mut self,
        key: K,
        packed: Option<u128>,
        now: Nanos,
        init: impl FnOnce() -> V,
        refresh: bool,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> (usize, bool, Option<CacheEntry<K, V>>) {
        let (b, tag) = self.locate(&key, packed);
        if let Some(j) = self.probe(b, tag, &key) {
            return (self.touch(j, now, refresh), true, None);
        }
        self.seq += 1;
        let seq = self.seq;
        if (self.lens[b] as usize) < self.ways {
            return (self.fill_slot(b, tag, key, init(), now, seq), false, None);
        }
        let victim_slot = self.pick_victim(b, policy, rng);
        let (j, victim) = self.replace_slot(b, victim_slot, tag, key, init(), now, seq);
        (j, false, Some(victim))
    }

    /// Empty the cache in arena order: the occupancy counts and slot words
    /// are zeroed once each, then both arenas stream out front to back —
    /// sequential reads, no per-entry slot lookup. The arenas keep their
    /// reservation, and `seq` restarts as in a just-built cache.
    fn drain_into(&mut self, mut sink: impl FnMut(CacheEntry<K, V>)) {
        self.lens.fill(0);
        self.slots.fill(0);
        self.seq = 0;
        for (key, s) in self.keys.drain(..).zip(self.state.drain(..)) {
            sink(CacheEntry {
                key,
                value: s.value,
                first_seen: s.first_seen,
                last_seen: s.last_seen,
            });
        }
    }

    /// Iterate occupied slots as borrowed views (no recency side effects),
    /// in arena (insertion-churn) order.
    fn iter(&self) -> impl Iterator<Item = CacheSlotRef<'_, K, V>> {
        self.keys
            .iter()
            .zip(&self.state)
            .map(|(key, s)| CacheSlotRef {
                key,
                value: &s.value,
                first_seen: s.first_seen,
                last_seen: s.last_seen,
            })
    }

    /// The policy's in-bucket victim slot (the bucket is full: `len == ways`).
    fn pick_victim(&mut self, b: usize, policy: EvictionPolicy, rng: &mut VictimRng) -> usize {
        let len = self.lens[b] as usize;
        match policy {
            EvictionPolicy::Lru => self.min_slot(b, len, |s| s.accessed),
            EvictionPolicy::Fifo => self.min_slot(b, len, |s| s.inserted),
            EvictionPolicy::Random { .. } => rng.pick(len),
        }
    }

    /// In-bucket slot whose recency field is strictly smallest (first
    /// minimum wins — the same tie-break the old per-bucket scan used).
    #[inline]
    fn min_slot(&self, b: usize, len: usize, field: impl Fn(&Stamped<V>) -> u64) -> usize {
        let mut idx = 0;
        let mut best = u64::MAX;
        for slot in 0..len {
            let v = field(&self.state[self.entry_of(b, slot)]);
            if v < best {
                best = v;
                idx = slot;
            }
        }
        idx
    }
}

// ---------------------------------------------------------------------------
// Fully-associative implementation (hash index + intrusive LRU list)
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    entry: CacheEntry<K, V>,
    prev: usize,
    next: usize,
}

/// The fully-associative cache. Nodes fill the arena front to back and a
/// victim's node takes the incoming entry in place, so the occupied nodes
/// are always `0..len` and a node keeps its index from insertion until it
/// is the victim or the cache drains.
#[derive(Debug, Clone)]
struct FullLruCache<K, V> {
    map: HashMap<K, usize, crate::hash::SeededBuildHasher>,
    nodes: Vec<Node<K, V>>,
    capacity: usize,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> FullLruCache<K, V> {
    fn new(capacity: usize) -> Self {
        let reserve = capacity.min(1 << 20);
        FullLruCache {
            map: HashMap::with_capacity_and_hasher(reserve, crate::hash::SeededBuildHasher),
            nodes: Vec::with_capacity(reserve),
            capacity,
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn insert(
        &mut self,
        entry: CacheEntry<K, V>,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> Option<CacheEntry<K, V>> {
        if self.nodes.len() < self.capacity {
            let idx = self.nodes.len();
            self.map.insert(entry.key.clone(), idx);
            self.nodes.push(Node {
                entry,
                prev: NIL,
                next: NIL,
            });
            self.push_front(idx);
            return None;
        }
        let idx = match policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => self.tail,
            EvictionPolicy::Random { .. } => rng.pick(self.capacity),
        };
        self.unlink(idx);
        self.map.remove(&self.nodes[idx].entry.key);
        self.map.insert(entry.key.clone(), idx);
        let victim = std::mem::replace(&mut self.nodes[idx].entry, entry);
        self.push_front(idx);
        Some(victim)
    }

    /// Touch the node at `idx` as a hit: relinked to the front (per
    /// policy), `last_seen` stamped.
    fn touch(&mut self, idx: usize, now: Nanos, refresh: bool) -> usize {
        if refresh {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.nodes[idx].entry.last_seen = now;
        idx
    }

    /// Single-pass lookup-or-insert returning the node index of the
    /// (now-resident) entry — stable across hit-path touches (the LRU list
    /// relinks around a node without moving it) —, whether it was a hit,
    /// and the victim a miss into a full cache evicted.
    fn upsert(
        &mut self,
        key: K,
        now: Nanos,
        init: impl FnOnce() -> V,
        refresh: bool,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> (usize, bool, Option<CacheEntry<K, V>>) {
        if let Some(&idx) = self.map.get(&key) {
            return (self.touch(idx, now, refresh), true, None);
        }
        let entry = CacheEntry {
            key,
            value: init(),
            first_seen: now,
            last_seen: now,
        };
        let victim = self.insert(entry, policy, rng);
        (self.head, false, victim)
    }

    /// Hand off every node in index order; later inserts refill the arena
    /// from index 0, as a fresh cache's would.
    fn drain_into(&mut self, mut sink: impl FnMut(CacheEntry<K, V>)) {
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        self.nodes.drain(..).for_each(|n| sink(n.entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(geom: CacheGeometry, policy: EvictionPolicy) -> SramCache<u64, u64> {
        SramCache::with_layout(geom, policy, 42, ())
    }

    /// What one upsert did: whether the key was resident, and the victim.
    pub(super) struct Outcome {
        pub(super) hit: bool,
        pub(super) victim: Option<CacheEntry<u64, u64>>,
    }

    /// Upsert `k` at `now` through `run`, initializing a miss to `init`.
    pub(super) fn upsert_in<'c>(
        c: &'c mut SramCache<u64, u64>,
        run: &mut Run,
        k: u64,
        now: u64,
        init: u64,
    ) -> (&'c mut u64, Outcome) {
        let mut victim = None;
        let (value, hit) = c.upsert(run, k, Nanos(now), || init, |e| victim = Some(e));
        (value, Outcome { hit, victim })
    }

    /// Upsert `k` at `now` and set its value to `v`.
    pub(super) fn put(c: &mut SramCache<u64, u64>, k: u64, v: u64, now: u64) -> Outcome {
        let (value, outcome) = upsert_in(c, &mut Run::default(), k, now, v);
        *value = v;
        outcome
    }

    /// Upsert `k` at `now`, initializing a miss to `v`; returns the victim.
    fn upsert(
        c: &mut SramCache<u64, u64>,
        k: u64,
        v: u64,
        now: u64,
    ) -> Option<CacheEntry<u64, u64>> {
        upsert_in(c, &mut Run::default(), k, now, v).1.victim
    }

    #[test]
    fn hit_and_miss() {
        let mut c = cache(CacheGeometry::set_associative(8, 2), EvictionPolicy::Lru);
        assert!(!c.contains(&1));
        let (v, miss) = upsert_in(&mut c, &mut Run::default(), 1, 0, 100);
        assert_eq!(*v, 100);
        assert!(!miss.hit && miss.victim.is_none());
        // A probed hit, then a run hit on the slot it left the run holding.
        let mut run = Run::default();
        let (v, hit) = upsert_in(&mut c, &mut run, 1, 5, 0);
        assert!(hit.hit);
        *v += 1;
        let (v, again) = upsert_in(&mut c, &mut run, 1, 6, 0);
        assert!(again.hit);
        assert_eq!(*v, 101);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_lru_evicts_least_recently_used() {
        let mut c = cache(CacheGeometry::fully_associative(3), EvictionPolicy::Lru);
        upsert(&mut c, 1, 1, 1);
        upsert(&mut c, 2, 2, 2);
        upsert(&mut c, 3, 3, 3);
        // Touch 1 so 2 becomes LRU.
        upsert(&mut c, 1, 0, 4);
        let victim = upsert(&mut c, 4, 4, 5).expect("eviction");
        assert_eq!(victim.key, 2);
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        assert!(c.contains(&4));
    }

    #[test]
    fn full_fifo_ignores_touches() {
        let mut c = cache(CacheGeometry::fully_associative(3), EvictionPolicy::Fifo);
        upsert(&mut c, 1, 1, 1);
        upsert(&mut c, 2, 2, 2);
        upsert(&mut c, 3, 3, 3);
        upsert(&mut c, 1, 0, 4); // should NOT refresh under FIFO
        let victim = upsert(&mut c, 4, 4, 5).expect("eviction");
        assert_eq!(victim.key, 1);
    }

    #[test]
    fn bucketed_lru_within_bucket() {
        // One bucket of 2 ways → behaves as a 2-entry LRU.
        let mut c: SramCache<u64, u64> =
            SramCache::with_layout(CacheGeometry::new(1, 2), EvictionPolicy::Lru, 7, ());
        upsert(&mut c, 10, 1, 1);
        upsert(&mut c, 20, 2, 2);
        upsert(&mut c, 10, 0, 3);
        let victim = upsert(&mut c, 30, 3, 4).expect("eviction");
        assert_eq!(victim.key, 20);
    }

    #[test]
    fn hash_table_evicts_on_collision() {
        // m=1: inserting a colliding key evicts the old occupant.
        let mut c = cache(CacheGeometry::hash_table(16), EvictionPolicy::Lru);
        let mut evicted = 0;
        for k in 0..64u64 {
            if upsert(&mut c, k, k, k).is_some() {
                evicted += 1;
            }
        }
        assert!(evicted >= 64 - 16);
        assert!(c.len() <= 16);
    }

    /// A key leaves as a victim with its value, and re-enters fresh.
    #[test]
    fn remove_and_reinsert() {
        let mut c = cache(CacheGeometry::fully_associative(1), EvictionPolicy::Lru);
        upsert(&mut c, 5, 50, 1);
        let e = upsert(&mut c, 6, 60, 2).expect("5 is the victim");
        assert_eq!((e.key, e.value), (5, 50));
        assert!(!c.contains(&5));
        let (v, outcome) = upsert_in(&mut c, &mut Run::default(), 5, 3, 51);
        assert_eq!(*v, 51);
        assert!(!outcome.hit);
        assert_eq!(outcome.victim.map(|v| v.key), Some(6));
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        for geom in [
            CacheGeometry::fully_associative(8),
            CacheGeometry::set_associative(8, 2),
        ] {
            let mut c = cache(geom, EvictionPolicy::Lru);
            for k in 0..6u64 {
                upsert(&mut c, k, k * 10, k);
            }
            let mut drained = Vec::new();
            c.drain_into(|e| drained.push(e));
            assert_eq!(drained.len(), 6.min(c.capacity()));
            assert!(c.is_empty());
            // Reusable after drain.
            upsert(&mut c, 99, 1, 100);
            assert!(c.contains(&99));
        }
    }

    #[test]
    fn residency_timestamps_track_first_and_last() {
        let mut c = cache(CacheGeometry::fully_associative(4), EvictionPolicy::Lru);
        let mut run = Run::default();
        upsert_in(&mut c, &mut run, 1, 10, 0);
        upsert(&mut c, 1, 0, 25);
        upsert_in(&mut c, &mut run, 1, 40, 0);
        let mut drained = Vec::new();
        c.drain_into(|e| drained.push(e));
        assert_eq!(drained[0].first_seen, Nanos(10));
        assert_eq!(drained[0].last_seen, Nanos(40));
    }

    #[test]
    fn full_cache_len_never_exceeds_capacity() {
        let mut c = cache(CacheGeometry::fully_associative(16), EvictionPolicy::Lru);
        for k in 0..1000u64 {
            upsert(&mut c, k % 40, k, k);
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c: SramCache<u64, u64> = SramCache::with_layout(
                CacheGeometry::fully_associative(8),
                EvictionPolicy::Random { seed: 5 },
                42,
                (),
            );
            let mut victims = Vec::new();
            for k in 0..100u64 {
                if let Some(v) = upsert(&mut c, k, k, k) {
                    victims.push(v.key);
                }
            }
            victims
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut c = cache(CacheGeometry::set_associative(16, 4), EvictionPolicy::Lru);
        for k in 0..10u64 {
            upsert(&mut c, k, k, k);
        }
        let mut keys: Vec<u64> = Vec::new();
        c.for_each_slot(|e| keys.push(*e.key));
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{put, upsert_in};
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap as StdMap;

    /// Reference model: an unbounded map + explicit recency list.
    struct ModelLru {
        cap: usize,
        map: StdMap<u64, u64>,
        order: Vec<u64>, // front = LRU, back = MRU
    }

    impl ModelLru {
        fn touch(&mut self, k: u64) {
            self.order.retain(|x| *x != k);
            self.order.push(k);
        }
        fn access(&mut self, k: u64, v: u64) -> Option<u64> {
            if self.map.contains_key(&k) {
                *self.map.get_mut(&k).unwrap() = v;
                self.touch(k);
                None
            } else {
                let mut evicted = None;
                if self.map.len() == self.cap {
                    let victim = self.order.remove(0);
                    self.map.remove(&victim);
                    evicted = Some(victim);
                }
                self.map.insert(k, v);
                self.order.push(k);
                evicted
            }
        }
    }

    proptest! {
        /// The fully-associative cache behaves exactly like a textbook LRU.
        #[test]
        fn full_lru_matches_model(ops in prop::collection::vec((0u64..32, 0u64..1000), 1..400)) {
            let mut cache: SramCache<u64, u64> =
                SramCache::with_layout(CacheGeometry::fully_associative(8), EvictionPolicy::Lru, 3, ());
            let mut model = ModelLru { cap: 8, map: StdMap::new(), order: Vec::new() };
            for (i, (k, v)) in ops.into_iter().enumerate() {
                let now = i as u64;
                let model_evicted = model.access(k, v);
                let cache_evicted = put(&mut cache, k, v, now).victim.map(|e| e.key);
                prop_assert_eq!(model_evicted, cache_evicted);
                prop_assert_eq!(model.map.len(), cache.len());
            }
            // Final contents agree.
            let mut got: Vec<(u64, u64)> = Vec::new();
            cache.for_each_slot(|e| got.push((*e.key, *e.value)));
            got.sort_unstable();
            let mut want: Vec<(u64, u64)> = model.map.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Bucketed caches never exceed per-bucket capacity and never lose
        /// keys silently: every insert either fits or reports a victim.
        #[test]
        fn bucketed_conservation(
            ops in prop::collection::vec((0u64..64, 0u64..1000), 1..400),
            ways in 1usize..5,
        ) {
            let geom = CacheGeometry::new(4, ways);
            let mut cache: SramCache<u64, u64> =
                SramCache::with_layout(geom, EvictionPolicy::Lru, 11, ());
            let mut resident = std::collections::HashSet::new();
            for (i, (k, v)) in ops.into_iter().enumerate() {
                let outcome = put(&mut cache, k, v, i as u64);
                if !outcome.hit {
                    if let Some(victim) = outcome.victim {
                        prop_assert!(resident.remove(&victim.key));
                    }
                    resident.insert(k);
                }
                prop_assert_eq!(cache.len(), resident.len());
                prop_assert!(cache.len() <= geom.capacity());
            }
            for k in &resident {
                prop_assert!(cache.contains(k));
            }
        }

        /// The residency rule: a key leaves the cache only as a victim or
        /// in a drain, so a [`Run`] left holding a key's slot still folds
        /// into that key's value (with no probe) until the key comes back
        /// as a victim or the cache drains — however many other keys are
        /// upserted meanwhile. On every shape (`buckets = 1` is the
        /// fully-associative cache) and under every policy; values encode
        /// their key, and a run that outlived its key trips the
        /// debug-build check in `upsert`.
        #[test]
        fn handles_hold_until_victim_or_drain(
            ops in prop::collection::vec((0u8..16, 0u64..40), 1..400),
            shape in 0usize..6,
            policy_sel in 0u8..3,
        ) {
            let (buckets, ways) = [(1, 1), (1, 8), (16, 1), (4, 2), (7, 3), (2, 16)][shape];
            let policy = match policy_sel {
                0 => EvictionPolicy::Lru,
                1 => EvictionPolicy::Fifo,
                _ => EvictionPolicy::Random { seed: 11 },
            };
            let mut cache: SramCache<u64, u64> =
                SramCache::with_layout(CacheGeometry::new(buckets, ways), policy, 5, ());
            // Value = key << 32 | updates since (re)insertion.
            let mut held: StdMap<u64, (Run, u64)> = StdMap::new();
            for (i, (op, k)) in ops.into_iter().enumerate() {
                let (mut run, n) = match (op, held.get(&k).copied()) {
                    (0, _) => {
                        let mut drained = 0;
                        cache.drain_into(|e| {
                            assert_eq!(e.value >> 32, e.key, "drained value is its key's");
                            drained += 1;
                        });
                        prop_assert_eq!(drained, held.len());
                        held.clear();
                        continue;
                    }
                    (1..=5, Some(kept)) => kept,
                    _ => (Run::default(), held.get(&k).map_or(0, |h| h.1)),
                };
                let (v, outcome) = upsert_in(&mut cache, &mut run, k, i as u64, k << 32);
                prop_assert_eq!(outcome.hit, held.contains_key(&k), "key {}", k);
                prop_assert_eq!(*v, k << 32 | n, "key {}", k);
                *v += 1;
                if let Some(victim) = outcome.victim {
                    prop_assert_eq!(victim.value >> 32, victim.key);
                    prop_assert!(held.remove(&victim.key).is_some());
                }
                held.insert(k, (run, n + 1));
                let mut resident = StdMap::new();
                cache.for_each_slot(|slot| {
                    resident.insert(*slot.key, *slot.value);
                });
                let want: StdMap<u64, u64> =
                    held.iter().map(|(k, (_, n))| (*k, k << 32 | n)).collect();
                prop_assert_eq!(resident, want);
            }
        }
    }
}
