//! Differential pin of the split store's memory-layout rewrite.
//!
//! The SoA bucketed cache (packed tag words + slot table + parallel entry
//! arenas) and the open-addressed backing store must be **behaviorally
//! invisible**: byte-identical hit/miss/eviction streams and Fig. 5 hit
//! rates against the previous implementations. Those previous
//! implementations — the `Vec<Vec<Slot>>` bucketed cache and the
//! `HashMap`-backed store — live on here as executable reference models,
//! ported verbatim, and every test drives both sides with one op stream.
//!
//! Covered: all three eviction policies, every bucketed `CacheGeometry`
//! shape (hash table `m = 1`, multiple set-associative shapes including
//! `ways > 8` so multi-word tag buckets are exercised), the single-stream
//! eviction protocol (Fig. 5's hit/eviction rates), the backing store's
//! three absorption modes plus `remove`'s backward-shift delete, and the
//! sharded `absorb_store` drain.

use perfq_kvstore::policy::VictimRng;
use perfq_kvstore::{
    BackingStore, CacheGeometry, CounterOps, EvictionPolicy, MergeMode, SplitStore, SramCache,
};
use perfq_packet::Nanos;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Reference model 1: the previous BucketedCache (Vec<Vec<Slot>>), verbatim.
// ---------------------------------------------------------------------------

struct RefSlot {
    key: u64,
    value: u64,
    first_seen: Nanos,
    last_seen: Nanos,
    /// Full 64-bit key hash — the old "tag".
    tag: u64,
    accessed: u64,
    inserted: u64,
}

struct RefCache {
    buckets: Vec<Vec<RefSlot>>,
    ways: usize,
    seed: u64,
    seq: u64,
    len: usize,
    policy: EvictionPolicy,
    rng: VictimRng,
}

/// `(hit, victim)` — the observable outcome of one upsert.
type Outcome = (bool, Option<(u64, u64, Nanos, Nanos)>);

impl RefCache {
    fn new(geometry: CacheGeometry, policy: EvictionPolicy, seed: u64) -> Self {
        assert!(geometry.buckets > 1, "bucketed path only");
        let rng_seed = match policy {
            EvictionPolicy::Random { seed } => seed,
            _ => 1,
        };
        RefCache {
            buckets: (0..geometry.buckets).map(|_| Vec::new()).collect(),
            ways: geometry.ways,
            seed,
            seq: 0,
            len: 0,
            policy,
            rng: VictimRng::new(rng_seed),
        }
    }

    fn pick_victim(&mut self, b: usize) -> usize {
        let bucket = &self.buckets[b];
        match self.policy {
            EvictionPolicy::Lru => {
                let mut idx = 0;
                for (i, s) in bucket.iter().enumerate() {
                    if s.accessed < bucket[idx].accessed {
                        idx = i;
                    }
                }
                idx
            }
            EvictionPolicy::Fifo => {
                let mut idx = 0;
                for (i, s) in bucket.iter().enumerate() {
                    if s.inserted < bucket[idx].inserted {
                        idx = i;
                    }
                }
                idx
            }
            EvictionPolicy::Random { .. } => self.rng.pick(bucket.len()),
        }
    }

    /// The old closure-style upsert, specialized to `u64` values with an
    /// add update: hit → `value += delta`, miss → insert `delta`.
    fn upsert_add(&mut self, key: u64, delta: u64, now: Nanos) -> Outcome {
        let refresh = !matches!(self.policy, EvictionPolicy::Fifo);
        let h = perfq_kvstore::hash::hash_key(self.seed, &key);
        let b = (h % self.buckets.len() as u64) as usize;
        self.seq += 1;
        let seq = self.seq;
        if let Some(i) = self.buckets[b]
            .iter()
            .position(|s| s.tag == h && s.key == key)
        {
            let slot = &mut self.buckets[b][i];
            if refresh {
                slot.accessed = seq;
            }
            slot.last_seen = now;
            slot.value += delta;
            return (true, None);
        }
        let slot = RefSlot {
            key,
            value: delta,
            first_seen: now,
            last_seen: now,
            tag: h,
            accessed: seq,
            inserted: seq,
        };
        if self.buckets[b].len() < self.ways {
            self.buckets[b].push(slot);
            self.len += 1;
            return (false, None);
        }
        let victim_idx = self.pick_victim(b);
        let victim = std::mem::replace(&mut self.buckets[b][victim_idx], slot);
        (
            false,
            Some((victim.key, victim.value, victim.first_seen, victim.last_seen)),
        )
    }

    fn remove(&mut self, key: &u64) -> Option<(u64, u64, Nanos, Nanos)> {
        let h = perfq_kvstore::hash::hash_key(self.seed, key);
        let b = (h % self.buckets.len() as u64) as usize;
        let i = self.buckets[b]
            .iter()
            .position(|s| s.tag == h && s.key == *key)?;
        self.len -= 1;
        let s = self.buckets[b].swap_remove(i);
        (s.key == *key).then_some((s.key, s.value, s.first_seen, s.last_seen))
    }

    /// Drain in the old implementation's emission order: bucket-major,
    /// slots front to back.
    fn drain_in_order(&mut self) -> Vec<(u64, u64, Nanos, Nanos)> {
        self.len = 0;
        let mut out = Vec::new();
        for bucket in &mut self.buckets {
            for s in bucket.drain(..) {
                out.push((s.key, s.value, s.first_seen, s.last_seen));
            }
        }
        out
    }

    fn drain_sorted(&mut self) -> Vec<(u64, u64, Nanos, Nanos)> {
        let mut out = self.drain_in_order();
        out.sort_unstable();
        out
    }
}

/// Drive `SramCache` with the same add-upsert the reference uses.
fn sram_upsert_add(cache: &mut SramCache<u64, u64>, key: u64, delta: u64, now: Nanos) -> Outcome {
    let (slot, outcome) = cache.upsert_slot(key, now, || 0);
    *cache.slot_value_mut(slot) += delta;
    (
        outcome.hit,
        outcome
            .victim
            .map(|v| (v.key, v.value, v.first_seen, v.last_seen)),
    )
}

/// Deterministic op-stream generator (xorshift64*).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::Lru,
    EvictionPolicy::Fifo,
    EvictionPolicy::Random { seed: 77 },
];

/// Every bucketed geometry shape the cache supports: the paper's hash table
/// (`m = 1`), narrow/wide set-associative (including `ways > 8`, which
/// exercises multi-word tag buckets), and non-power-of-two bucket counts.
const GEOMETRIES: [(usize, usize); 6] = [(64, 1), (4, 2), (8, 4), (16, 8), (4, 16), (7, 3)];

#[test]
fn upsert_streams_are_byte_identical() {
    for (buckets, ways) in GEOMETRIES {
        for policy in POLICIES {
            let geom = CacheGeometry::new(buckets, ways);
            let mut new = SramCache::<u64, u64>::new(geom, policy, 42);
            let mut reference = RefCache::new(geom, policy, 42);
            let mut rng = Lcg(0x5eed ^ (buckets * 31 + ways) as u64);
            // Key space ~2× capacity so hits, misses and evictions all occur.
            let key_space = (geom.capacity() as u64 * 2).max(8);
            for i in 0..4000u64 {
                let key = rng.next() % key_space;
                let delta = rng.next() % 100;
                let now = Nanos(i);
                let got = sram_upsert_add(&mut new, key, delta, now);
                let want = reference.upsert_add(key, delta, now);
                assert_eq!(
                    got, want,
                    "op {i}: key {key} under {geom} / {}",
                    policy.name()
                );
                assert_eq!(new.len(), reference.len, "len after op {i}");
            }
            // Final resident sets agree entry-for-entry.
            let mut got: Vec<(u64, u64, Nanos, Nanos)> = Vec::new();
            new.for_each_slot(|e| got.push((*e.key, *e.value, e.first_seen, e.last_seen)));
            got.sort_unstable();
            assert_eq!(got, reference.drain_sorted(), "{geom} / {}", policy.name());
        }
    }
}

#[test]
fn remove_and_drain_match_reference() {
    for (buckets, ways) in GEOMETRIES {
        let geom = CacheGeometry::new(buckets, ways);
        let mut new = SramCache::<u64, u64>::new(geom, EvictionPolicy::Lru, 9);
        let mut reference = RefCache::new(geom, EvictionPolicy::Lru, 9);
        let mut rng = Lcg(0xfeed + ways as u64);
        let key_space = (geom.capacity() as u64 * 2).max(8);
        for i in 0..3000u64 {
            let now = Nanos(i);
            match rng.next() % 4 {
                // 3:1 upserts to removes.
                0 => {
                    let key = rng.next() % key_space;
                    let got = new.remove(&key).map(|e| (e.key, e.value, e.first_seen, e.last_seen));
                    let want = reference.remove(&key);
                    assert_eq!(got, want, "remove {key} at op {i} under {geom}");
                }
                _ => {
                    let key = rng.next() % key_space;
                    let got = sram_upsert_add(&mut new, key, 1, now);
                    let want = reference.upsert_add(key, 1, now);
                    assert_eq!(got, want, "upsert {key} at op {i} under {geom}");
                }
            }
            assert_eq!(new.len(), reference.len);
        }
        // The drain itself is pinned in emission order, not just as a set:
        // bucket-major, slots front to back, exactly like the old layout.
        let mut drained: Vec<(u64, u64, Nanos, Nanos)> = Vec::new();
        new.drain_into(|e| drained.push((e.key, e.value, e.first_seen, e.last_seen)));
        assert_eq!(drained, reference.drain_in_order(), "drain order under {geom}");
        assert!(new.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Reference model 2: the previous BackingStore (HashMap), verbatim.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
struct RefEpoch {
    value: u64,
    first_seen: Nanos,
    last_seen: Nanos,
}

#[derive(Clone, Debug, PartialEq)]
struct RefEntry {
    epochs: Vec<RefEpoch>,
    writes: u32,
}

struct RefBacking {
    entries: HashMap<u64, RefEntry>,
    mode: MergeMode,
}

impl RefBacking {
    fn new(mode: MergeMode) -> Self {
        RefBacking {
            entries: HashMap::new(),
            mode,
        }
    }

    fn absorb(&mut self, key: u64, value: u64, first_seen: Nanos, last_seen: Nanos) {
        let epoch = RefEpoch {
            value,
            first_seen,
            last_seen,
        };
        let existing = match self.entries.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(RefEntry {
                    epochs: vec![epoch],
                    writes: 1,
                });
                return;
            }
            std::collections::hash_map::Entry::Occupied(slot) => slot.into_mut(),
        };
        existing.writes += 1;
        match self.mode {
            MergeMode::Merge => {
                let standing = existing.epochs.last_mut().unwrap();
                standing.value += epoch.value;
                standing.last_seen = epoch.last_seen;
                standing.first_seen = standing.first_seen.min(epoch.first_seen);
            }
            MergeMode::Overwrite => {
                let standing = existing.epochs.last_mut().unwrap();
                let first = standing.first_seen.min(epoch.first_seen);
                *standing = epoch;
                standing.first_seen = first;
            }
            MergeMode::Epochs => existing.epochs.push(epoch),
        }
    }

    fn snapshot(&self) -> Vec<(u64, Vec<(u64, Nanos, Nanos)>, u32)> {
        let mut rows: Vec<_> = self
            .entries
            .iter()
            .map(|(k, e)| {
                (
                    *k,
                    e.epochs
                        .iter()
                        .map(|ep| (ep.value, ep.first_seen, ep.last_seen))
                        .collect::<Vec<_>>(),
                    e.writes,
                )
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

fn backing_snapshot(store: &BackingStore<u64, u64>) -> Vec<(u64, Vec<(u64, Nanos, Nanos)>, u32)> {
    let mut rows: Vec<_> = store
        .iter()
        .map(|(k, e)| {
            (
                *k,
                e.epochs
                    .iter()
                    .map(|ep| (ep.value, ep.first_seen, ep.last_seen))
                    .collect::<Vec<_>>(),
                e.writes,
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn backing_absorb_matches_hashmap_reference_in_every_mode() {
    for mode in [MergeMode::Merge, MergeMode::Overwrite, MergeMode::Epochs] {
        let mut new: BackingStore<u64, u64> = BackingStore::new(mode);
        let mut reference = RefBacking::new(mode);
        let mut rng = Lcg(0xbac0 + mode as u64);
        let mut t = 0u64;
        for i in 0..5000u64 {
            let key = rng.next() % 200;
            let value = rng.next() % 1000;
            let (first, last) = (Nanos(t), Nanos(t + rng.next() % 50));
            t += 1 + rng.next() % 10;
            new.absorb(key, value, first, last, |s, e| *s += e);
            reference.absorb(key, value, first, last);
            if i % 611 == 0 {
                assert_eq!(backing_snapshot(&new), reference.snapshot(), "mode {mode:?}");
            }
            assert_eq!(new.len(), reference.entries.len());
        }
        assert_eq!(backing_snapshot(&new), reference.snapshot(), "mode {mode:?}");
        let ref_valid = reference
            .entries
            .values()
            .filter(|e| e.epochs.len() == 1)
            .count();
        assert_eq!(new.valid_keys(), ref_valid);
    }
}

#[test]
fn backing_remove_backward_shift_preserves_probe_runs() {
    // Small key domain over many inserts forces long, colliding probe runs;
    // interleaved removes then stress the backward-shift delete. After every
    // op, every surviving key must still be findable (a tombstone-free table
    // that breaks a probe run loses keys silently).
    let mut new: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
    let mut reference = RefBacking::new(MergeMode::Merge);
    let mut rng = Lcg(0xdead);
    for i in 0..4000u64 {
        let key = rng.next() % 150;
        if rng.next() % 3 == 0 {
            let got = new.remove(&key).map(|e| e.writes);
            let want = reference.entries.remove(&key).map(|e| e.writes);
            assert_eq!(got, want, "remove {key} at op {i}");
        } else {
            let now = Nanos(i);
            new.absorb(key, 1, now, now, |s, e| *s += e);
            reference.absorb(key, 1, now, now);
        }
        assert_eq!(new.len(), reference.entries.len(), "len at op {i}");
        if i % 97 == 0 {
            for k in reference.entries.keys() {
                assert!(new.get(k).is_some(), "key {k} lost after op {i}");
            }
        }
    }
    assert_eq!(backing_snapshot(&new), reference.snapshot());
}

// ---------------------------------------------------------------------------
// Fig. 5 protocol: full split-store runs + the sharded absorb_store drain.
// ---------------------------------------------------------------------------

/// The previous full store: reference cache + reference backing, running the
/// single-stream eviction protocol exactly as `SplitStore::observe` does.
struct RefSplit {
    cache: RefCache,
    backing: RefBacking,
    packets: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    flush_writes: u64,
}

impl RefSplit {
    fn new(geometry: CacheGeometry, policy: EvictionPolicy, seed: u64) -> Self {
        RefSplit {
            cache: RefCache::new(geometry, policy, seed),
            backing: RefBacking::new(MergeMode::Merge),
            packets: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            flush_writes: 0,
        }
    }

    fn observe(&mut self, key: u64, now: Nanos) {
        self.packets += 1;
        let (hit, victim) = self.cache.upsert_add(key, 1, now);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if let Some((k, v, first, last)) = victim {
                self.evictions += 1;
                self.backing.absorb(k, v, first, last);
            }
        }
    }

    fn flush(&mut self) {
        for (k, v, first, last) in self.cache.drain_sorted() {
            self.flush_writes += 1;
            self.backing.absorb(k, v, first, last);
        }
    }
}

/// A zipfish deterministic key stream: small set of heavy hitters over a
/// long tail, like the Fig. 5 trace's flow-size skew.
fn fig5_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            if rng.next() % 10 < 7 {
                rng.next() % 64 // heavy hitters: 70% of packets
            } else {
                64 + rng.next() % 4000 // the tail
            }
        })
        .collect()
}

#[test]
fn fig5_hit_and_eviction_rates_are_identical() {
    let keys = fig5_keys(30_000, 0xf15);
    for (buckets, ways) in [(256, 1), (32, 8), (16, 16)] {
        for policy in POLICIES {
            let geom = CacheGeometry::new(buckets, ways);
            let mut new: SplitStore<u64, CounterOps> = SplitStore::new(geom, policy, 0xf15, CounterOps);
            let mut reference = RefSplit::new(geom, policy, 0xf15);
            for (i, k) in keys.iter().enumerate() {
                new.observe(*k, &(), Nanos(i as u64));
                reference.observe(*k, Nanos(i as u64));
            }
            new.flush();
            reference.flush();
            let st = new.stats();
            assert_eq!(
                (st.packets, st.hits, st.misses, st.evictions, st.flush_writes),
                (
                    reference.packets,
                    reference.hits,
                    reference.misses,
                    reference.evictions,
                    reference.flush_writes
                ),
                "stats under {geom} / {}",
                policy.name()
            );
            assert_eq!(
                backing_snapshot(new.backing()),
                reference.backing.snapshot(),
                "backing contents under {geom} / {}",
                policy.name()
            );
        }
    }
}

#[test]
fn sharded_absorb_store_drain_matches_reference() {
    // Shard the Fig. 5 stream by key parity (a pure key function, like the
    // sharded runtime's key-hash router), run one store per shard, drain
    // with absorb_store, and pin the merged result against the reference
    // pair drained through the reference merge.
    let keys = fig5_keys(20_000, 0x5a5d);
    let geom = CacheGeometry::new(32, 4);
    let mk = || SplitStore::<u64, CounterOps>::new(geom, EvictionPolicy::Lru, 3, CounterOps);
    let mut shard0 = mk();
    let mut shard1 = mk();
    let mut ref0 = RefSplit::new(geom, EvictionPolicy::Lru, 3);
    let mut ref1 = RefSplit::new(geom, EvictionPolicy::Lru, 3);
    for (i, k) in keys.iter().enumerate() {
        let now = Nanos(i as u64);
        if k % 2 == 0 {
            shard0.observe(*k, &(), now);
            ref0.observe(*k, now);
        } else {
            shard1.observe(*k, &(), now);
            ref1.observe(*k, now);
        }
    }
    // The sharded drain: shard 1 collapses into shard 0.
    shard0.absorb_store(shard1);
    // Reference drain: flush both, then absorb shard 1's standing entries
    // through the merge (entry-wise addition — the same fold merge).
    ref0.flush();
    ref1.flush();
    for (k, entry) in ref1.backing.entries {
        for ep in entry.epochs {
            ref0.backing.absorb(k, ep.value, ep.first_seen, ep.last_seen);
        }
    }
    // Values (the measurement results) must agree exactly with an oracle
    // count and with the reference drain.
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for k in &keys {
        *truth.entry(*k).or_insert(0) += 1;
    }
    for (k, want) in &truth {
        let got = *shard0
            .result(k)
            .unwrap_or_else(|| panic!("key {k} missing after drain"))
            .value()
            .unwrap();
        assert_eq!(got, *want, "count for key {k}");
        let ref_got = ref0.backing.entries[k].epochs.last().unwrap().value;
        assert_eq!(got, ref_got, "reference disagreement for key {k}");
    }
    assert_eq!(shard0.backing().len(), truth.len());
    assert!((shard0.backing().accuracy() - 1.0).abs() < 1e-12);
}
