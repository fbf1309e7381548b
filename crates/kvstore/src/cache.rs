//! The on-chip SRAM cache (Fig. 3/4 of the paper).
//!
//! Two interchangeable implementations sit behind [`SramCache`]:
//!
//! * `BucketedCache` — the hardware layout of Fig. 4 in a struct-of-arrays
//!   memory layout: `n` hash buckets of `m` slots, victim chosen within the
//!   bucket. A probe is one hash, one tag-word compare, and at most `m` key
//!   confirms (see the memory-layout sketch below).
//! * `FullLruCache` — used when `n = 1` (the paper's fully-associative
//!   configuration). A hash-map index plus an intrusive doubly-linked list
//!   gives O(1) lookup and true-LRU eviction; a linear scan of 2^18 ways per
//!   packet would make the Fig. 5 sweep intractable.
//!
//! Both honor the three eviction policies and keep per-entry residency
//! timestamps (`first_seen`/`last_seen`) for the backing store's epochs.
//!
//! # Memory layout (mirrors the Fig. 4 hardware)
//!
//! A real cache splits each way into a **tag array** and a **data array**:
//! a set probe compares all of the set's tags against the probe tag in one
//! cycle, and only the matching way's data is read. `BucketedCache` mirrors
//! that split with a *wide* tag. The geometry-fixed side is a flat array of
//! 128-bit *slot words* — per slot a 64-bit key **discriminant** (the key's
//! sole word when the key fits 64 bits, its seeded hash otherwise), an
//! *exact* flag, and a 24-bit data-way index (0 = empty) — plus per-bucket
//! occupancy counts; the data side is two parallel flat arrays (keys, and
//! values fused with their residency timestamps and recency counters)
//! indexed by the slot word's low bits:
//!
//! ```text
//!                bucket b, slots 0..m        one u128 per slot
//! slots  [ disc₀ │e│ idx₀ ] [ disc₁ │e│ idx₁ ] …
//!           └─┬──┘              ← one 64-bit discriminant compare per way
//!             │                   (exact ⇒ equality decided right here;
//!             │                    inexact ⇒ filter, confirm below)
//!             ▼ (low 24 bits, on discriminant match only)
//! keys   [ k₀ │ k₁ │ … ]          full keys — the equality confirm
//! state  [ v₀,t₀ⁱⁿ,t₀ˡᵃˢᵗ,lru₀ │ … ]  fold state + residency + recency
//! ```
//!
//! What fills the discriminant is the [`SlotKey`] contract: a key that fits
//! one word stores the *key itself* and sets the exact bit, so a hit is
//! decided entirely inside the slot word — the probe touches **one** cache
//! line before the state array and never loads the key arena. Wider keys
//! store the seeded 64-bit hash (a 2⁻⁶⁴ false-positive filter per occupied
//! way; the bucket index consumes `h mod n`, which leaves the compared word
//! discriminating) and confirm on the full key only after a discriminant
//! match. Either way a probe is **one hash, at most `m` 64-bit compares,
//! and — only for wide keys — ~one key confirm**. This is the software
//! spelling of the hardware's parallel tag compare, and the filter load
//! *is* the data-way pointer load.
//!
//! Construction is O(1) work per page regardless of capacity (the
//! geometry-fixed arrays are lazily-zeroed primitive words — SRAM is
//! pre-provisioned, not initialized), the data arrays hold only the
//! resident population, slots fill compactly from index 0 per bucket, and
//! eviction moves the victim out by `mem::replace` — no clone, and (with
//! the data arrays pre-reserved up to 2^20 resident pairs) no allocation on
//! the steady-state per-packet path.

use crate::geometry::CacheGeometry;
use crate::hash::hash_key;
use crate::policy::{EvictionPolicy, VictimRng};
use perfq_packet::Nanos;
use std::collections::HashMap;
use std::hash::Hash;

/// How a key projects into the 64-bit discriminant of a packed slot word.
///
/// `slot_word(hash)` returns `(discriminant, exact)`:
///
/// * **exact** — the discriminant losslessly encodes the key: two exact
///   keys with equal discriminants are equal keys, so a probe hit is
///   decided inside the slot word without touching the key arena.
/// * **inexact** — the discriminant is a filter (conventionally the seeded
///   64-bit key hash): equal discriminants mean "almost certainly equal",
///   and the probe confirms on the full key in the arena.
///
/// Two laws: (1) for any keys `a`, `b` whose results are both exact,
/// equal discriminants imply `a == b`; (2) the projection is a pure
/// function of the key (the cache passes the same seeded hash for the
/// same key, so reusing `hash` keeps it pure).
pub trait SlotKey {
    /// The slot discriminant for this key. `hash` is the seeded 64-bit
    /// key hash the cache already computed for bucket placement — free to
    /// reuse as the inexact filter.
    fn slot_word(&self, hash: u64) -> (u64, bool);
}

impl SlotKey for u64 {
    #[inline]
    fn slot_word(&self, _hash: u64) -> (u64, bool) {
        (*self, true)
    }
}

impl SlotKey for u128 {
    #[inline]
    fn slot_word(&self, hash: u64) -> (u64, bool) {
        // 128 bits cannot fit the discriminant losslessly; filter on the
        // seeded hash and confirm in the arena.
        (hash, false)
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

/// What a single-pass [`SramCache::upsert_slot`] did.
#[derive(Debug)]
pub struct UpsertOutcome<K, V> {
    /// True when the key was already resident (the value was *not* freshly
    /// initialized).
    pub hit: bool,
    /// The entry evicted to make room (miss into a full bucket only).
    pub victim: Option<CacheEntry<K, V>>,
}

/// An opaque reference to a resident slot, returned by
/// [`SramCache::upsert_slot`] — the probe-once primitive behind flow-run
/// coalescing. Re-touching the slot through [`SramCache::touch_slot`] skips
/// the hash and the bucket probe entirely while performing *exactly* the
/// bookkeeping a hit through [`SramCache::upsert_slot`] would (recency
/// refresh per policy, `last_seen` stamp), so a run of equal-key records
/// costs one probe total and stays byte-identical to the probe-per-record
/// path.
///
/// Validity: the handle refers to the key it was minted for only until the
/// next structural cache operation (an upsert of a *different* key, a
/// remove, a drain, a migration). The vectorized sweep honors this by
/// holding a handle only across a run of consecutive equal-key records
/// within one node sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHandle(usize);

/// The on-chip cache: geometry + policy behind one interface.
#[derive(Debug, Clone)]
pub struct SramCache<K, V> {
    inner: Inner<K, V>,
    policy: EvictionPolicy,
    rng: VictimRng,
    geometry: CacheGeometry,
}

#[derive(Debug, Clone)]
enum Inner<K, V> {
    Bucketed(BucketedCache<K, V>),
    Full(FullLruCache<K, V>),
}

impl<K: Eq + Hash + Clone + SlotKey, V> SramCache<K, V> {
    /// Create a cache with the given geometry, policy and hash seed.
    #[must_use]
    pub fn new(geometry: CacheGeometry, policy: EvictionPolicy, hash_seed: u64) -> Self {
        let rng_seed = match policy {
            EvictionPolicy::Random { seed } => seed,
            _ => 1,
        };
        let inner = if geometry.buckets == 1 {
            Inner::Full(FullLruCache::new(geometry.ways))
        } else {
            Inner::Bucketed(BucketedCache::new(geometry, hash_seed))
        };
        SramCache {
            inner,
            policy,
            rng: VictimRng::new(rng_seed),
            geometry,
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

    /// Look up a key, refreshing its recency (unless the policy is FIFO) and
    /// its `last_seen` timestamp. Returns a mutable borrow of the value.
    pub fn get_mut(&mut self, key: &K, now: Nanos) -> Option<&mut V> {
        let refresh = !matches!(self.policy, EvictionPolicy::Fifo);
        match &mut self.inner {
            Inner::Bucketed(c) => c.get_mut(key, now, refresh),
            Inner::Full(c) => c.get_mut(key, now, refresh),
        }
    }

    /// True if the key is resident (no recency side effects).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        match &self.inner {
            Inner::Bucketed(c) => c.find(key).is_some(),
            Inner::Full(c) => c.map.contains_key(key),
        }
    }

    /// Insert a key that is **not** resident. If the target bucket is full,
    /// the policy's victim is evicted and returned.
    ///
    /// # Panics
    /// Panics (in debug builds) if the key is already resident — callers must
    /// use [`SramCache::get_mut`] first, mirroring the hardware's single
    /// lookup-then-update/initialize flow.
    pub fn insert(&mut self, key: K, value: V, now: Nanos) -> Option<CacheEntry<K, V>> {
        debug_assert!(!self.contains(&key), "insert of a resident key");
        let entry = CacheEntry {
            key,
            value,
            first_seen: now,
            last_seen: now,
        };
        let (policy, rng) = (self.policy, &mut self.rng);
        match &mut self.inner {
            Inner::Bucketed(c) => c.insert(entry, policy, rng),
            Inner::Full(c) => c.insert(entry, policy, rng),
        }
    }

    /// Insert a fully-formed entry that is **not** resident, preserving its
    /// `first_seen`/`last_seen` timestamps — the rehash step of a live
    /// geometry migration, where resident state moves into a differently
    /// shaped cache without splitting any key's observed residency interval.
    /// If the target bucket is full, the policy's victim is evicted and
    /// returned.
    ///
    /// # Panics
    /// Panics (in debug builds) if the key is already resident.
    pub fn insert_entry(&mut self, entry: CacheEntry<K, V>) -> Option<CacheEntry<K, V>> {
        debug_assert!(!self.contains(&entry.key), "insert of a resident key");
        let (policy, rng) = (self.policy, &mut self.rng);
        match &mut self.inner {
            Inner::Bucketed(c) => c.insert(entry, policy, rng),
            Inner::Full(c) => c.insert(entry, policy, rng),
        }
    }

    /// Single-pass lookup-or-insert: the per-packet primitive.
    ///
    /// A hit refreshes recency (per policy); a miss initializes a new value
    /// with `init`, inserting it and evicting the policy's victim when the
    /// target bucket is full. Exactly one hash computation and one bucket
    /// probe happen either way. Returns a [`SlotHandle`] to the
    /// (now-resident) slot: the value is reached through
    /// [`SramCache::slot_value_mut`], and immediately following touches of
    /// the same key can skip the probe ([`SramCache::touch_slot`]).
    pub fn upsert_slot(
        &mut self,
        key: K,
        now: Nanos,
        init: impl FnOnce() -> V,
    ) -> (SlotHandle, UpsertOutcome<K, V>) {
        let refresh = !matches!(self.policy, EvictionPolicy::Fifo);
        let (policy, rng) = (self.policy, &mut self.rng);
        let (idx, outcome) = match &mut self.inner {
            Inner::Bucketed(c) => c.upsert_slot(key, now, init, refresh, policy, rng),
            Inner::Full(c) => c.upsert_slot(key, now, init, refresh, policy, rng),
        };
        (SlotHandle(idx), outcome)
    }

    /// The value behind a held slot, without recency side effects.
    pub fn slot_value_mut(&mut self, handle: SlotHandle) -> &mut V {
        match &mut self.inner {
            Inner::Bucketed(c) => &mut c.state[handle.0].value,
            Inner::Full(c) => {
                &mut c.nodes[handle.0].as_mut().expect("held node exists").entry.value
            }
        }
    }

    /// Touch a held slot as one hit-upsert of its key at `now` would, and
    /// return the value — the fused re-touch of flow-run coalescing. End
    /// state is byte-identical to a [`SramCache::upsert_slot`] hit: the
    /// recency counter advances by one (refresh per policy), the LRU list
    /// position refreshes, and `last_seen` takes the timestamp.
    pub fn touch_slot(&mut self, handle: SlotHandle, now: Nanos) -> &mut V {
        let refresh = !matches!(self.policy, EvictionPolicy::Fifo);
        match &mut self.inner {
            Inner::Bucketed(c) => {
                c.seq += 1;
                let s = &mut c.state[handle.0];
                if refresh {
                    s.accessed = c.seq;
                }
                s.last_seen = now;
                &mut s.value
            }
            Inner::Full(c) => {
                if refresh {
                    c.unlink(handle.0);
                    c.push_front(handle.0);
                }
                let node = c.nodes[handle.0].as_mut().expect("held node exists");
                node.entry.last_seen = now;
                &mut node.entry.value
            }
        }
    }

    /// Remove a specific key, returning its entry (used for targeted
    /// periodic eviction — §3.2: "keys can be periodically evicted to ensure
    /// the backing store is fresh").
    pub fn remove(&mut self, key: &K) -> Option<CacheEntry<K, V>> {
        match &mut self.inner {
            Inner::Bucketed(c) => c.remove(key),
            Inner::Full(c) => c.remove(key),
        }
    }

    /// Remove all resident entries, handing each to `sink` (end-of-window
    /// flush, geometry migration).
    pub fn drain_into(&mut self, sink: impl FnMut(CacheEntry<K, V>)) {
        match &mut self.inner {
            Inner::Bucketed(c) => c.drain_into(sink),
            Inner::Full(c) => c.drain_into(sink),
        }
    }

    /// Remove every resident entry whose `last_seen` is strictly before
    /// `cutoff`, handing each to `sink` — the periodic freshness sweep's
    /// primitive (§3.2: "keys can be periodically evicted to ensure the
    /// backing store is fresh"). Walks the slot structures in place — no key
    /// list is materialised — and performs **zero allocations**,
    /// so a long-running service can sweep on the warm path.
    pub fn evict_idle_into(&mut self, cutoff: Nanos, sink: impl FnMut(CacheEntry<K, V>)) {
        match &mut self.inner {
            Inner::Bucketed(c) => c.evict_idle_into(cutoff, sink),
            Inner::Full(c) => c.evict_idle_into(cutoff, sink),
        }
    }

    /// Visit every resident slot (no recency side effects).
    pub fn for_each_slot(&self, mut f: impl FnMut(CacheSlotRef<'_, K, V>)) {
        match &self.inner {
            Inner::Bucketed(c) => c.iter().for_each(&mut f),
            Inner::Full(c) => c
                .nodes
                .iter()
                .filter_map(|n| {
                    n.as_ref().map(|n| CacheSlotRef {
                        key: &n.entry.key,
                        value: &n.entry.value,
                        first_seen: n.entry.first_seen,
                        last_seen: n.entry.last_seen,
                    })
                })
                .for_each(&mut f),
        }
    }
}

// ---------------------------------------------------------------------------
// Bucketed implementation (n buckets × m ways, struct-of-arrays layout)
// ---------------------------------------------------------------------------

/// Exact-discriminant flag in a slot word's low half: set when the 64-bit
/// discriminant losslessly encodes the key (see [`SlotKey`]).
const EXACT_BIT: u64 = 1 << 63;
/// The arena-index field of a slot word's low half (`arena + 1`; a low
/// half of 0 marks an empty slot).
const INDEX_MASK: u64 = 0x00ff_ffff;

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
    /// Back-pointer into the slot table (`bucket · ways + way`), so arena
    /// compaction on `remove` can re-point the moved entry's slot.
    back: u32,
}

/// Fig. 4's cache as a split tag store + parallel data arrays.
///
/// The *geometry-fixed* side is one flat array of 128-bit slot words — a
/// 64-bit key discriminant plus an exact flag and a 24-bit data-way index
/// (0 = empty) — and the per-bucket occupancy counts, so building a cache
/// of any capacity is one lazily-zeroed allocation per array (no per-slot
/// initialization; SRAM is pre-provisioned, construction does O(1) work
/// per page). The *entry* side is two parallel flat arrays — keys, and
/// values fused with their residency timestamps/recency counters — indexed
/// by the slot word's low bits, dense (no holes), and only as long as the
/// resident population.
///
/// Slots fill compactly from index 0 within each bucket (`lens[b]` counts
/// the occupied prefix; `remove` back-fills the hole with the bucket's last
/// slot), which keeps every victim scan a dense forward walk and makes slot
/// index dynamics identical to the previous packed-`u32` layout — the
/// differential suite pins hit/miss/eviction streams byte-for-byte.
/// Eviction swaps the incoming entry into the victim's arena slot with
/// `mem::replace`: no clone, no allocation, no free-list churn. The arenas
/// are pre-reserved up to 2^20 resident pairs, so caches up to that
/// population never reallocate after construction; beyond it, arena growth
/// is amortized doubling that settles during warm-up.
#[derive(Debug, Clone)]
struct BucketedCache<K, V> {
    /// Packed slot words, one `u128` per slot (geometry-fixed): the high
    /// 64 bits are the [`SlotKey`] discriminant, the low 64 bits are
    /// `EXACT_BIT? | (arena index + 1)` with a low half of 0 = empty. The
    /// discriminant is the flat tag array — one-word keys are *confirmed*
    /// right here — and the low bits are the data-way pointer, so the
    /// probe's filter load is the index load.
    slots: Vec<u128>,
    /// Occupied-prefix length per bucket (geometry-fixed).
    lens: Vec<u32>,
    /// Resident keys (dense arena), consulted only on inexact-discriminant
    /// match.
    keys: Vec<K>,
    /// Fold state + residency timestamps + recency, parallel to `keys`.
    state: Vec<Stamped<V>>,
    buckets: usize,
    ways: usize,
    seed: u64,
    seq: u64,
}

impl<K: Eq + Hash + Clone + SlotKey, V> BucketedCache<K, V> {
    fn new(geometry: CacheGeometry, seed: u64) -> Self {
        let (buckets, ways) = (geometry.buckets, geometry.ways);
        let capacity = buckets * ways;
        assert!(
            capacity < (1 << 24),
            "bucketed cache capacity limited to 16M pairs (24-bit slot words)"
        );
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
            ways,
            seed,
            seq: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn bucket_of(&self, h: u64) -> usize {
        (h % self.buckets as u64) as usize
    }

    /// Pack a slot word: discriminant high, `EXACT_BIT? | arena+1` low.
    #[inline]
    fn pack(disc: u64, exact: bool, arena: usize) -> u128 {
        let low = (arena as u64 + 1) | if exact { EXACT_BIT } else { 0 };
        (u128::from(disc) << 64) | u128::from(low)
    }

    /// The arena index behind an occupied slot.
    #[inline]
    fn entry_of(&self, b: usize, slot: usize) -> usize {
        let e = self.slots[b * self.ways + slot] as u64 & INDEX_MASK;
        debug_assert!(e != 0, "occupied slot has an arena entry");
        (e - 1) as usize
    }

    /// The parallel tag compare, with a wide tag: each occupied slot's
    /// 64-bit discriminant is compared against the probe key's. An *exact*
    /// match on both sides decides equality inside the slot word — one-word
    /// keys never load the key arena; an inexact match is a filter (2⁻⁶⁴
    /// false positives per occupied way) confirmed on the full key. Only
    /// the occupied prefix `0..lens[b]` is scanned (the compact-prefix
    /// invariant). Returns `(way, arena index)` of the resident key.
    #[inline]
    fn probe(&self, b: usize, h: u64, key: &K) -> Option<(usize, usize)> {
        let (disc, exact) = key.slot_word(h);
        let base = b * self.ways;
        for slot in 0..self.lens[b] as usize {
            let word = self.slots[base + slot];
            if (word >> 64) as u64 != disc {
                continue;
            }
            let low = word as u64;
            let j = ((low & INDEX_MASK) - 1) as usize;
            if (exact && low & EXACT_BIT != 0) || self.keys[j] == *key {
                return Some((slot, j));
            }
        }
        None
    }

    fn find(&self, key: &K) -> Option<(usize, usize)> {
        let h = hash_key(self.seed, key);
        let b = self.bucket_of(h);
        self.probe(b, h, key).map(|(slot, _)| (b, slot))
    }

    /// Append a new entry to the arena and fill the bucket's next free slot
    /// (compact prefix invariant). Returns the arena index.
    fn fill_slot(
        &mut self,
        b: usize,
        disc: u64,
        exact: bool,
        key: K,
        value: V,
        now: Nanos,
        seq: u64,
    ) -> usize {
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
            back: i as u32,
        });
        self.slots[i] = Self::pack(disc, exact, j);
        self.lens[b] += 1;
        j
    }

    /// Swap the incoming entry into the victim's arena slot via
    /// `mem::replace`, returning the victim. The slot keeps its arena
    /// index; only the discriminant changes.
    #[allow(clippy::too_many_arguments)]
    fn replace_slot(
        &mut self,
        b: usize,
        slot: usize,
        disc: u64,
        exact: bool,
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
                back: (b * self.ways + slot) as u32,
            },
        );
        self.slots[b * self.ways + slot] = Self::pack(disc, exact, j);
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

    fn get_mut(&mut self, key: &K, now: Nanos, refresh: bool) -> Option<&mut V> {
        let h = hash_key(self.seed, key);
        let b = self.bucket_of(h);
        let (_, j) = self.probe(b, h, key)?;
        self.seq += 1;
        let s = &mut self.state[j];
        if refresh {
            s.accessed = self.seq;
        }
        s.last_seen = now;
        Some(&mut s.value)
    }

    fn insert(
        &mut self,
        entry: CacheEntry<K, V>,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> Option<CacheEntry<K, V>> {
        let h = hash_key(self.seed, &entry.key);
        let b = self.bucket_of(h);
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
        let (disc, exact) = key.slot_word(h);
        if (self.lens[b] as usize) < self.ways {
            let j = self.fill_slot(b, disc, exact, key, value, first_seen, seq);
            self.state[j].last_seen = last_seen;
            return None;
        }
        let victim_slot = self.pick_victim(b, policy, rng);
        let (j, victim) =
            self.replace_slot(b, victim_slot, disc, exact, key, value, first_seen, seq);
        self.state[j].last_seen = last_seen;
        Some(victim)
    }

    /// Single-pass lookup-or-insert returning the arena index of the
    /// (now-resident) entry — the index is the [`SlotHandle`] payload, and
    /// it is stable across hit-path touches (only removes/migrations move
    /// arena entries).
    fn upsert_slot(
        &mut self,
        key: K,
        now: Nanos,
        init: impl FnOnce() -> V,
        refresh: bool,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> (usize, UpsertOutcome<K, V>) {
        let h = hash_key(self.seed, &key);
        let b = self.bucket_of(h);
        self.seq += 1;
        let seq = self.seq;
        if let Some((_, j)) = self.probe(b, h, &key) {
            let s = &mut self.state[j];
            if refresh {
                s.accessed = seq;
            }
            s.last_seen = now;
            return (
                j,
                UpsertOutcome {
                    hit: true,
                    victim: None,
                },
            );
        }
        let (disc, exact) = key.slot_word(h);
        if (self.lens[b] as usize) < self.ways {
            let j = self.fill_slot(b, disc, exact, key, init(), now, seq);
            return (
                j,
                UpsertOutcome {
                    hit: false,
                    victim: None,
                },
            );
        }
        let victim_slot = self.pick_victim(b, policy, rng);
        let (j, victim) = self.replace_slot(b, victim_slot, disc, exact, key, init(), now, seq);
        (
            j,
            UpsertOutcome {
                hit: false,
                victim: Some(victim),
            },
        )
    }

    /// Detach `(b, slot)` from the slot table and pull its entry out of the
    /// arena (compacting both), returning the entry.
    fn take_slot(&mut self, b: usize, slot: usize) -> CacheEntry<K, V> {
        let base = b * self.ways;
        let j = self.entry_of(b, slot);
        // Keep the bucket's occupied prefix compact: back-fill the hole with
        // the bucket's last slot (the SoA spelling of `Vec::swap_remove`).
        let last = self.lens[b] as usize - 1;
        if slot != last {
            let moved_word = self.slots[base + last];
            self.slots[base + slot] = moved_word;
            let moved = (moved_word as u64 & INDEX_MASK) as usize - 1;
            self.state[moved].back = (base + slot) as u32;
        }
        self.slots[base + last] = 0;
        self.lens[b] -= 1;
        self.detach_arena(j)
    }

    /// Pull arena entry `j` out, keeping the arena dense: `swap_remove` both
    /// parallel arrays and re-point the moved (formerly last) entry's slot
    /// word at its new index. The moved entry is always live — callers
    /// detach entries only after unlinking them from the slot table.
    fn detach_arena(&mut self, j: usize) -> CacheEntry<K, V> {
        let key = self.keys.swap_remove(j);
        let state = self.state.swap_remove(j);
        if j < self.keys.len() {
            // Rewrite only the arena-index field; the moved entry's
            // discriminant and exact bit are properties of its key and
            // stay put.
            let back = self.state[j].back as usize;
            let w = self.slots[back];
            self.slots[back] = (w & !u128::from(INDEX_MASK)) | u128::from(j as u64 + 1);
        }
        CacheEntry {
            key,
            value: state.value,
            first_seen: state.first_seen,
            last_seen: state.last_seen,
        }
    }

    fn remove(&mut self, key: &K) -> Option<CacheEntry<K, V>> {
        let (b, slot) = self.find(key)?;
        Some(self.take_slot(b, slot))
    }

    fn drain_into(&mut self, mut sink: impl FnMut(CacheEntry<K, V>)) {
        // Emit in bucket-major, slot-ascending order — the exact order the
        // old `Vec<Vec<Slot>>` drain produced (the differential suite pins
        // the sequence). Arena holes never form: the entry swapped in from
        // the arena's end always belongs to a not-yet-drained slot (drained
        // slots give up their entries immediately), so re-pointing its slot
        // word keeps every later `entry_of` resolution live.
        for b in 0..self.buckets {
            let len = std::mem::replace(&mut self.lens[b], 0) as usize;
            for slot in 0..len {
                let j = self.entry_of(b, slot);
                let entry = self.detach_arena(j);
                sink(entry);
            }
            self.clear_bucket_slots(b);
        }
        debug_assert!(self.keys.is_empty(), "drain empties the arena");
    }

    /// Detach every slot whose entry went idle before `cutoff`. Slots scan
    /// in *descending* order within each bucket: `take_slot` back-fills the
    /// hole with the bucket's last slot, which a descending walk has already
    /// examined, so no occupied slot is skipped and nothing allocates.
    fn evict_idle_into(&mut self, cutoff: Nanos, mut sink: impl FnMut(CacheEntry<K, V>)) {
        for b in 0..self.buckets {
            for slot in (0..self.lens[b] as usize).rev() {
                if self.state[self.entry_of(b, slot)].last_seen < cutoff {
                    let entry = self.take_slot(b, slot);
                    sink(entry);
                }
            }
        }
    }

    /// Zero one bucket's slot words (all slots empty).
    #[inline]
    fn clear_bucket_slots(&mut self, b: usize) {
        let base = b * self.ways;
        for w in &mut self.slots[base..base + self.ways] {
            *w = 0;
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

#[derive(Debug, Clone)]
struct FullLruCache<K, V> {
    map: HashMap<K, usize, crate::hash::SeededBuildHasher>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> FullLruCache<K, V> {
    fn new(capacity: usize) -> Self {
        FullLruCache {
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), crate::hash::SeededBuildHasher),
            nodes: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.nodes[idx].as_ref().expect("linked node exists");
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev].as_mut().expect("prev exists").next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].as_mut().expect("next exists").prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let n = self.nodes[idx].as_mut().expect("node exists");
            n.prev = NIL;
            n.next = self.head;
        }
        if self.head != NIL {
            self.nodes[self.head].as_mut().expect("head exists").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get_mut(&mut self, key: &K, now: Nanos, refresh: bool) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        if refresh {
            self.unlink(idx);
            self.push_front(idx);
        }
        let n = self.nodes[idx].as_mut().expect("indexed node exists");
        n.entry.last_seen = now;
        Some(&mut n.entry.value)
    }

    fn insert(
        &mut self,
        entry: CacheEntry<K, V>,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> Option<CacheEntry<K, V>> {
        let mut victim = None;
        if self.free.is_empty() {
            let victim_idx = match policy {
                EvictionPolicy::Lru | EvictionPolicy::Fifo => self.tail,
                EvictionPolicy::Random { .. } => {
                    // All slots are occupied when the cache is full.
                    rng.pick(self.nodes.len())
                }
            };
            self.unlink(victim_idx);
            let node = self.nodes[victim_idx].take().expect("victim exists");
            self.map.remove(&node.entry.key);
            self.free.push(victim_idx);
            victim = Some(node.entry);
        }
        let idx = self.free.pop().expect("slot freed above or available");
        self.map.insert(entry.key.clone(), idx);
        self.nodes[idx] = Some(Node {
            entry,
            prev: NIL,
            next: NIL,
        });
        self.push_front(idx);
        victim
    }

    /// Single-pass lookup-or-insert returning the node index of the
    /// (now-resident) entry — stable across hit-path touches (the LRU list
    /// relinks around a node without moving it).
    fn upsert_slot(
        &mut self,
        key: K,
        now: Nanos,
        init: impl FnOnce() -> V,
        refresh: bool,
        policy: EvictionPolicy,
        rng: &mut VictimRng,
    ) -> (usize, UpsertOutcome<K, V>) {
        if let Some(&idx) = self.map.get(&key) {
            if refresh {
                self.unlink(idx);
                self.push_front(idx);
            }
            let n = self.nodes[idx].as_mut().expect("indexed node exists");
            n.entry.last_seen = now;
            return (
                idx,
                UpsertOutcome {
                    hit: true,
                    victim: None,
                },
            );
        }
        let entry = CacheEntry {
            key,
            value: init(),
            first_seen: now,
            last_seen: now,
        };
        let victim = self.insert(entry, policy, rng);
        (
            self.head,
            UpsertOutcome {
                hit: false,
                victim,
            },
        )
    }

    fn remove(&mut self, key: &K) -> Option<CacheEntry<K, V>> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let node = self.nodes[idx].take().expect("indexed node exists");
        self.free.push(idx);
        Some(node.entry)
    }

    fn drain_into(&mut self, mut sink: impl FnMut(CacheEntry<K, V>)) {
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            if let Some(node) = slot.take() {
                self.free.push(i);
                sink(node.entry);
            }
        }
    }

    /// Unlink and hand off every node idle since before `cutoff`. The free
    /// list was sized for the full capacity at construction, so `push` never
    /// reallocates, and `map.remove` frees in place — the sweep allocates
    /// nothing.
    fn evict_idle_into(&mut self, cutoff: Nanos, mut sink: impl FnMut(CacheEntry<K, V>)) {
        for idx in 0..self.nodes.len() {
            let stale = self.nodes[idx]
                .as_ref()
                .map_or(false, |n| n.entry.last_seen < cutoff);
            if stale {
                self.unlink(idx);
                let node = self.nodes[idx].take().expect("checked stale above");
                self.map.remove(&node.entry.key);
                self.free.push(idx);
                sink(node.entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(geom: CacheGeometry, policy: EvictionPolicy) -> SramCache<u64, u64> {
        SramCache::new(geom, policy, 42)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = cache(CacheGeometry::set_associative(8, 2), EvictionPolicy::Lru);
        assert!(c.get_mut(&1, Nanos(0)).is_none());
        assert!(c.insert(1, 100, Nanos(0)).is_none());
        assert_eq!(*c.get_mut(&1, Nanos(5)).unwrap(), 100);
        *c.get_mut(&1, Nanos(6)).unwrap() += 1;
        assert_eq!(*c.get_mut(&1, Nanos(7)).unwrap(), 101);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_lru_evicts_least_recently_used() {
        let mut c = cache(CacheGeometry::fully_associative(3), EvictionPolicy::Lru);
        c.insert(1, 1, Nanos(1));
        c.insert(2, 2, Nanos(2));
        c.insert(3, 3, Nanos(3));
        // Touch 1 so 2 becomes LRU.
        c.get_mut(&1, Nanos(4));
        let victim = c.insert(4, 4, Nanos(5)).expect("eviction");
        assert_eq!(victim.key, 2);
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        assert!(c.contains(&4));
    }

    #[test]
    fn full_fifo_ignores_touches() {
        let mut c = cache(CacheGeometry::fully_associative(3), EvictionPolicy::Fifo);
        c.insert(1, 1, Nanos(1));
        c.insert(2, 2, Nanos(2));
        c.insert(3, 3, Nanos(3));
        c.get_mut(&1, Nanos(4)); // should NOT refresh under FIFO
        let victim = c.insert(4, 4, Nanos(5)).expect("eviction");
        assert_eq!(victim.key, 1);
    }

    #[test]
    fn bucketed_lru_within_bucket() {
        // One bucket of 2 ways → behaves as a 2-entry LRU.
        let mut c: SramCache<u64, u64> =
            SramCache::new(CacheGeometry::new(1, 2), EvictionPolicy::Lru, 7);
        c.insert(10, 1, Nanos(1));
        c.insert(20, 2, Nanos(2));
        c.get_mut(&10, Nanos(3));
        let victim = c.insert(30, 3, Nanos(4)).expect("eviction");
        assert_eq!(victim.key, 20);
    }

    #[test]
    fn hash_table_evicts_on_collision() {
        // m=1: inserting a colliding key evicts the old occupant.
        let mut c = cache(CacheGeometry::hash_table(16), EvictionPolicy::Lru);
        let mut evicted = 0;
        for k in 0..64u64 {
            if c.insert(k, k, Nanos(k)).is_some() {
                evicted += 1;
            }
        }
        assert!(evicted >= 64 - 16);
        assert!(c.len() <= 16);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c = cache(CacheGeometry::set_associative(8, 4), EvictionPolicy::Lru);
        c.insert(5, 50, Nanos(1));
        let e = c.remove(&5).unwrap();
        assert_eq!(e.value, 50);
        assert!(!c.contains(&5));
        assert!(c.insert(5, 51, Nanos(2)).is_none());
        assert_eq!(*c.get_mut(&5, Nanos(3)).unwrap(), 51);
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        for geom in [
            CacheGeometry::fully_associative(8),
            CacheGeometry::set_associative(8, 2),
        ] {
            let mut c = cache(geom, EvictionPolicy::Lru);
            for k in 0..6u64 {
                c.insert(k, k * 10, Nanos(k));
            }
            let mut drained = Vec::new();
            c.drain_into(|e| drained.push(e));
            assert_eq!(drained.len(), 6.min(c.capacity()));
            assert!(c.is_empty());
            // Reusable after drain.
            c.insert(99, 1, Nanos(100));
            assert!(c.contains(&99));
        }
    }

    #[test]
    fn residency_timestamps_track_first_and_last() {
        let mut c = cache(CacheGeometry::fully_associative(4), EvictionPolicy::Lru);
        c.insert(1, 0, Nanos(10));
        c.get_mut(&1, Nanos(25));
        c.get_mut(&1, Nanos(40));
        let e = c.remove(&1).unwrap();
        assert_eq!(e.first_seen, Nanos(10));
        assert_eq!(e.last_seen, Nanos(40));
    }

    #[test]
    fn full_cache_len_never_exceeds_capacity() {
        let mut c = cache(CacheGeometry::fully_associative(16), EvictionPolicy::Lru);
        for k in 0..1000u64 {
            if !c.contains(&(k % 40)) {
                c.insert(k % 40, k, Nanos(k));
            } else {
                c.get_mut(&(k % 40), Nanos(k));
            }
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c: SramCache<u64, u64> = SramCache::new(
                CacheGeometry::fully_associative(8),
                EvictionPolicy::Random { seed: 5 },
                42,
            );
            let mut victims = Vec::new();
            for k in 0..100u64 {
                if let Some(v) = c.insert(k, k, Nanos(k)) {
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
            c.insert(k, k, Nanos(k));
        }
        let mut keys: Vec<u64> = Vec::new();
        c.for_each_slot(|e| keys.push(*e.key));
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
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
                SramCache::new(CacheGeometry::fully_associative(8), EvictionPolicy::Lru, 3);
            let mut model = ModelLru { cap: 8, map: StdMap::new(), order: Vec::new() };
            for (i, (k, v)) in ops.into_iter().enumerate() {
                let now = Nanos(i as u64);
                let model_evicted = model.access(k, v);
                let cache_evicted = if let Some(slot) = cache.get_mut(&k, now) {
                    *slot = v;
                    None
                } else {
                    cache.insert(k, v, now).map(|e| e.key)
                };
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
            let mut cache: SramCache<u64, u64> = SramCache::new(geom, EvictionPolicy::Lru, 11);
            let mut resident = std::collections::HashSet::new();
            for (i, (k, v)) in ops.into_iter().enumerate() {
                let now = Nanos(i as u64);
                if cache.get_mut(&k, now).map(|slot| *slot = v).is_none() {
                    if let Some(victim) = cache.insert(k, v, now) {
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
    }
}
