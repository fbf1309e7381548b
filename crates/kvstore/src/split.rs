//! The split key-value store: SRAM cache + DRAM backing store (Fig. 3).
//!
//! This composes [`SramCache`] and [`BackingStore`] behind the paper's
//! per-packet protocol:
//!
//! ```text
//! packet → lookup key in cache
//!            hit  → update value in place            (1 op/cycle)
//!            miss → initialize value, insert;        (1 op/cycle)
//!                   a full bucket evicts its victim → backing store
//! ```
//!
//! The store is generic over [`ValueOps`], which supplies the initialize /
//! update / merge semantics. `perfq-core` implements `ValueOps` for compiled
//! fold IR (with the ΠA-matrix merge correction); this crate ships simple
//! counter/sum ops used by the Fig. 5 benchmark and tests.

use crate::backing::{BackingEntry, BackingStore, MergeMode};
use crate::cache::{CacheEntry, Run, SlotKey, SramCache};
use crate::geometry::CacheGeometry;
use crate::policy::EvictionPolicy;
use crate::spill::{SpillConfig, SpillStats, SpillTier};
use crate::stats::StoreStats;
use crate::wal::{Persist, SharedBackend};
use perfq_packet::Nanos;
use std::hash::Hash;
use std::io;

/// Value semantics for a split store.
pub trait ValueOps {
    /// The per-key aggregated state.
    type Value: Clone;
    /// The per-packet input the update consumes.
    type Input: ?Sized;

    /// State for a key's first packet (before `update` is applied to it).
    fn init(&self) -> Self::Value;

    /// Fold one packet into the state.
    fn update(&self, value: &mut Self::Value, input: &Self::Input);

    /// Merge an evicted value into the standing backing-store value
    /// (only called in [`MergeMode::Merge`]).
    fn merge(&self, standing: &mut Self::Value, evicted: Self::Value);

    /// Which absorption mode this fold requires.
    fn merge_mode(&self) -> MergeMode;
}

/// The split key-value store.
#[derive(Debug, Clone)]
pub struct SplitStore<K: SlotKey, O: ValueOps> {
    cache: SramCache<K, O::Value>,
    backing: BackingStore<K, O::Value>,
    ops: O,
    stats: StoreStats,
    /// Optional durable spill tier ([`SpillTier`]): evictions of keys with
    /// no standing in-RAM record past the tier's high-water mark append to
    /// its WAL instead of growing the backing table. `None` (the default)
    /// keeps every path exactly as before.
    spill: Option<SpillTier<K, O::Value>>,
}

impl<K: Eq + Hash + Clone + SlotKey, O: ValueOps> SplitStore<K, O> {
    /// Build a store with the given cache configuration, its cache packing
    /// keys by the key type's default layout.
    #[must_use]
    pub fn new(geometry: CacheGeometry, policy: EvictionPolicy, hash_seed: u64, ops: O) -> Self {
        Self::with_key_layout(geometry, policy, hash_seed, K::Layout::default(), ops)
    }

    /// Build a store whose cache packs keys by `key_layout` (a compiled
    /// aggregation's [`crate::KeyLayout`]; see [`SlotKey`]).
    #[must_use]
    pub fn with_key_layout(
        geometry: CacheGeometry,
        policy: EvictionPolicy,
        hash_seed: u64,
        key_layout: K::Layout,
        ops: O,
    ) -> Self {
        let backing = BackingStore::new(ops.merge_mode());
        SplitStore {
            cache: SramCache::with_layout(geometry, policy, hash_seed, key_layout),
            backing,
            ops,
            stats: StoreStats::default(),
            spill: None,
        }
    }

    /// Observe one packet for `key` at time `now`, as a run of its own.
    pub fn observe(&mut self, key: K, input: &O::Input, now: Nanos) {
        self.observe_run(&mut Run::default(), key, input, now);
    }

    /// Observe one packet for `key` at time `now` — the per-packet protocol
    /// itself: a lookup-or-insert continuing `run` ([`SramCache::upsert`]:
    /// the key packed once, no hash and no probe when it is the run's held
    /// key), hit/miss/eviction accounting, victim absorption, fold update.
    /// Returns the key's folded state. Counters and state are byte-identical
    /// to [`SplitStore::observe`] per packet; a caller that wants one probe
    /// per packet passes a fresh [`Run`] each time.
    #[inline]
    pub fn observe_run(
        &mut self,
        run: &mut Run,
        key: K,
        input: &O::Input,
        now: Nanos,
    ) -> &O::Value {
        let SplitStore {
            cache,
            backing,
            ops,
            stats,
            spill,
        } = self;
        stats.packets += 1;
        let (value, hit) = cache.upsert(
            run,
            key,
            now,
            || ops.init(),
            |victim| {
                stats.evictions += 1;
                stats.backing_writes += 1;
                route_entry(backing, spill, ops, victim);
            },
        );
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        ops.update(value, input);
        value
    }

    /// Evict every resident entry to the backing store (end of a measurement
    /// window, or a checkpoint). Reading results is only
    /// correct from the backing store — §3.2: "the correct value at any time
    /// only resides in the backing store".
    ///
    /// Entries leave in the cache's arena order ([`SramCache::drain_into`]),
    /// the one absorption order [`SplitStore::snapshot`] uses too, so a
    /// flush and a poll frame build the same table record for record.
    pub fn flush(&mut self) {
        let SplitStore {
            cache,
            backing,
            ops,
            stats,
            spill,
            ..
        } = self;
        cache.drain_into(|entry| {
            stats.flush_writes += 1;
            stats.backing_writes += 1;
            route_entry(backing, spill, ops, entry);
        });
    }

    /// Rehash resident state into a new cache geometry — the live-migration
    /// step of online re-provisioning, run between batches while the rest of
    /// the dataplane keeps ingesting.
    ///
    /// A fresh cache is built at `new_geometry` with the store's original
    /// eviction policy and hash seed, and every resident entry moves across
    /// with its `first_seen`/`last_seen` interval intact, so no key's
    /// residency is split into extra epochs by the move. When the slice
    /// **shrinks** and an entry no longer fits, the overflow is absorbed
    /// into the backing store through the usual merge machinery and counted
    /// as an eviction (`evictions`/`backing_writes`), preserving the stats
    /// identity `backing_writes == evictions + flush_writes`. The backing
    /// store — the truth (§3.2) — is untouched, so results are unaffected.
    /// Entries re-insert in the old cache's arena order (the
    /// [`SramCache::drain_into`] order), which decides which of them
    /// overflow a smaller cache.
    ///
    /// A migration to the current geometry is a no-op.
    pub fn migrate_geometry(&mut self, new_geometry: CacheGeometry) {
        if self.cache.geometry() == new_geometry {
            return;
        }
        let SplitStore {
            cache,
            backing,
            ops,
            stats,
            spill,
        } = self;
        cache.migrate(new_geometry, |victim| {
            stats.evictions += 1;
            stats.backing_writes += 1;
            route_entry(backing, spill, ops, victim);
        });
    }

    /// Drain another store of the same configuration into this one — the
    /// merge-on-drain step of the sharded dataplane, where each worker
    /// core's private store shard collapses into one result store.
    ///
    /// Both caches are flushed first (the backing stores alone hold the
    /// truth, §3.2), then `other`'s backing entries are absorbed through
    /// this store's fold merge machinery
    /// ([`crate::BackingStore::absorb_entry`]) and its statistics are
    /// summed. After the call, `self` reads exactly like a store that
    /// observed both input streams — bit-identical whenever every key was
    /// confined to one of the two stores (the sharded runtime's partitioning
    /// invariant) or the fold merge is order-free (additive folds).
    pub fn absorb_store(&mut self, mut other: SplitStore<K, O>) {
        self.materialize_spill()
            .expect("spill-tier read during drain");
        other
            .materialize_spill()
            .expect("spill-tier read during drain");
        self.flush();
        other.flush();
        let ops = &self.ops;
        self.backing.merge_from(other.backing, |standing, evicted| {
            ops.merge(standing, evicted);
        });
        self.stats.absorb(&other.stats);
    }

    /// Copy another store's **results** — backing store and statistics —
    /// into this one, leaving the (geometry-fixed, untouched) cache alone.
    ///
    /// This is the collect side of cross-query store dedup: an alias store
    /// that never ran adopts the owning store's state after the owner's
    /// flush, when the backing store alone holds the truth (§3.2). Cloning
    /// only the backing table costs O(distinct keys), not O(cache
    /// geometry) — the multi-MB SRAM arenas are never copied.
    ///
    /// # Panics
    ///
    /// Panics if the owning store still holds cache-resident entries (call
    /// after `flush`).
    pub fn adopt_results_from(&mut self, owner: &SplitStore<K, O>) {
        assert!(
            owner.cache.is_empty(),
            "adopt_results_from requires a flushed owner store"
        );
        assert!(
            owner.spill.as_ref().is_none_or(|t| !t.is_dirty()),
            "adopt_results_from requires a materialized owner store"
        );
        self.backing = owner.backing.clone();
        self.stats = owner.stats;
    }

    /// Take a consistent read-only frame of this store's current results —
    /// the one read every poll face goes through. Equivalent to cloning the
    /// store and calling [`SplitStore::flush`] on the clone, without copying
    /// the SRAM arenas or mutating the live store — and built that way: the
    /// same records and, with the whole truth in RAM, in the same order. With
    /// the whole truth in RAM the backing table is cloned with room for the
    /// cache (arena in order, index words re-placed — no hash, no probe per
    /// standing key); with part of it on disk (a dirty spill tier) the frame
    /// is what [`SplitStore::materialize_spill`] would leave: the durable
    /// frames replayed into a fresh table, then every standing RAM record
    /// *replacing* its own snapshot frames (it is the complete truth for its
    /// key — the two are composites of the same history, so copy, never
    /// merge). Either way every cache residency is then absorbed exactly as
    /// `flush` absorbs it, and in the same arena order; the cache keeps at
    /// most one residency per key, so per-key results would not depend on
    /// that order anyway.
    ///
    /// # Errors
    ///
    /// The I/O error of a dirty spill tier that cannot be read; the live
    /// store is untouched either way.
    pub fn snapshot(&self) -> io::Result<StoreSnapshot<K, O::Value>> {
        let ops = &self.ops;
        let mut backing = match &self.spill {
            Some(tier) if tier.is_dirty() => {
                let mut disk = replay_spill(tier, ops, self.backing.len() + self.cache.len())?;
                for (key, entry) in self.backing.iter() {
                    disk.replace_entry(key.clone(), entry.clone());
                }
                disk
            }
            _ => self.backing.clone_with_room(self.cache.len()),
        };
        self.cache.for_each_slot(|slot| {
            backing.absorb(
                slot.key.clone(),
                slot.value.clone(),
                slot.first_seen,
                slot.last_seen,
                |standing, evicted| ops.merge(standing, evicted),
            );
        });
        // The counters a clone-and-flush of this store would read.
        let mut stats = self.stats;
        stats.flush_writes += self.cache.len() as u64;
        stats.backing_writes += self.cache.len() as u64;
        Ok(StoreSnapshot { backing, stats })
    }

    /// Overwrite `snap` with [`SplitStore::snapshot`] — a frame is never
    /// refreshed in place.
    ///
    /// # Panics
    ///
    /// Panics when a dirty spill tier cannot be read; call
    /// [`SplitStore::snapshot`] to get that error instead.
    pub fn snapshot_into(&self, snap: &mut StoreSnapshot<K, O::Value>) {
        *snap = self.snapshot().expect("spill-tier read");
    }

    /// Merge a consistent frame of this store **into** `snap` — the
    /// cross-shard poll step, where per-worker stores combine into one frame
    /// without pausing longer than a queue drain. The first shard fills the
    /// frame with [`SplitStore::snapshot`]; every other shard's
    /// backing entries and cache residencies are then absorbed through the
    /// same order-normalized machinery the sharded drain uses
    /// ([`crate::BackingStore::absorb_entry`]), so the result matches
    /// [`SplitStore::absorb_store`] over clones of the workers.
    ///
    /// # Errors
    ///
    /// As [`SplitStore::snapshot`]; `snap` is untouched then.
    pub fn snapshot_merge_into(&self, snap: &mut StoreSnapshot<K, O::Value>) -> io::Result<()> {
        // In-shard combination first (a cache residency joins *this* store's
        // standing entry exactly as flush() would), then the cross-shard
        // entry absorption — the same two-step order `absorb_store` uses, so
        // interval unions, latest-residency picks and epoch sorting see the
        // same operand grouping and the frame is bit-identical to draining
        // worker clones.
        let frame = self.snapshot()?;
        let ops = &self.ops;
        snap.backing.merge_from(frame.backing, |standing, evicted| {
            ops.merge(standing, evicted);
        });
        snap.stats.absorb(&frame.stats);
        Ok(())
    }

    /// Enable the durable spill tier: evictions of keys with no standing
    /// in-RAM record past `cfg.high_water` append to a WAL under `prefix`
    /// on `backend` instead of growing the backing table. The `Persist`
    /// bounds live here only — the per-packet paths stay bound-free (the
    /// tier captures the codecs as function pointers).
    pub fn enable_spill(
        &mut self,
        backend: SharedBackend,
        prefix: &str,
        cfg: SpillConfig,
    ) -> io::Result<()>
    where
        K: Persist,
        O::Value: Persist,
    {
        let tier = SpillTier::open(backend, prefix, self.ops.merge_mode(), cfg)?;
        self.spill = Some(tier);
        Ok(())
    }

    /// Checkpoint this store's full state to the spill tier: flush the
    /// cache (through spill routing), dump every in-RAM backing record as a
    /// [snapshot frame](crate::wal::TAG_SNAPSHOT), write a
    /// [checkpoint frame](crate::wal::TAG_CHECKPOINT) for `record_index`,
    /// and group-commit. The RAM table stays authoritative: a standing RAM
    /// record *supersedes* its own snapshot frames, which exist solely for a
    /// crashed-and-recovered deployment to resume from. Snapshots replace at
    /// replay rather than merging, because a standing record is already a
    /// composite and fold-state merges are only exact when the incoming
    /// operand is a fresh cache residency.
    ///
    /// # Panics
    ///
    /// Panics if the spill tier is not enabled.
    pub fn persist(&mut self, record_index: u64) -> io::Result<()> {
        self.flush();
        let SplitStore { backing, spill, .. } = self;
        let tier = spill
            .as_mut()
            .expect("persist requires an enabled spill tier");
        for (key, entry) in backing.iter() {
            tier.append_snapshot(key, entry);
        }
        tier.checkpoint(record_index)
    }

    /// Compact the spill tier ([`SpillTier::compact`]): its WAL folds into
    /// its segment once it has outgrown it. Call only directly after a
    /// manifested [`SplitStore::persist`] — see the tier's
    /// crash-consistency contract. A no-op without a tier.
    pub fn compact_spill(&mut self) -> io::Result<()> {
        let SplitStore { ops, spill, .. } = self;
        if let Some(tier) = spill {
            tier.compact(|standing, evicted| ops.merge(standing, evicted))?;
        }
        Ok(())
    }

    /// Re-attach and repair the spill tier after a crash
    /// ([`SpillTier::recover`] against the deployment `manifest`), then
    /// materialize the repaired durable truth back into the in-RAM backing
    /// table. Every recovered key thereby becomes a standing RAM record —
    /// the supersession invariant's anchor — so post-recovery ingest merges
    /// into composites exactly as an uncrashed run would, and the next
    /// [`SplitStore::persist`] re-snapshots them over their stale frames.
    /// The tier stays attached and dirty; ingest resumes at the manifest's
    /// record index.
    pub fn recover_spill(
        &mut self,
        backend: SharedBackend,
        prefix: &str,
        cfg: SpillConfig,
        manifest: Option<u64>,
    ) -> io::Result<()>
    where
        K: Persist,
        O::Value: Persist,
    {
        let mut tier = SpillTier::open(backend, prefix, self.ops.merge_mode(), cfg)?;
        tier.recover(manifest)?;
        self.backing.clear();
        let SplitStore { backing, ops, .. } = self;
        tier.materialize_into(backing, |standing, evicted| {
            ops.merge(standing, evicted);
        })?;
        self.spill = Some(tier);
        Ok(())
    }

    /// Fold the spill tier's durable truth back into the in-RAM backing
    /// table — the collect step of a durable store. Replays disk into a
    /// fresh table first (per-key chains of fresh spill frames, snapshot
    /// replacements, and tombstones), then lets the standing in-RAM records
    /// *replace* their disk counterparts: a live RAM record is the complete
    /// truth for its key and supersedes every snapshot frame it ever wrote.
    /// Keys confined to disk keep the replayed fold. Idempotent, and a drain
    /// point: the tier is retired afterwards — a clean one too, or the
    /// flush that follows would route cache-resident keys past the
    /// high-water mark into the WAL, where a drained read never looks.
    pub fn materialize_spill(&mut self) -> io::Result<()> {
        let SplitStore {
            backing,
            ops,
            spill,
            cache,
            ..
        } = self;
        let Some(tier) = spill else { return Ok(()) };
        if tier.is_dirty() {
            let disk = replay_spill(tier, ops, backing.len() + cache.len())?;
            let ram = std::mem::replace(backing, disk);
            backing.replace_from(ram);
        }
        tier.retire();
        Ok(())
    }

    /// Remove a key's merged record — from the in-RAM backing table *and*,
    /// via a tombstone frame, from the durable tier. Removing only the RAM
    /// record would let the key resurrect out of older WAL/segment frames
    /// at the next compaction or materialization
    /// (`tests/durability_property.rs` pins the regression).
    pub fn remove_key(&mut self, key: &K) -> Option<BackingEntry<O::Value>> {
        let SplitStore { backing, spill, .. } = self;
        let removed = backing.remove(key);
        if let Some(tier) = spill {
            if tier.is_dirty() {
                tier.tombstone(key);
            }
        }
        removed
    }

    /// The spill tier's counters, when one is enabled.
    #[must_use]
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill.as_ref().map(SpillTier::stats)
    }

    /// The spill tier, when one is enabled.
    #[must_use]
    pub fn spill(&self) -> Option<&SpillTier<K, O::Value>> {
        self.spill.as_ref()
    }

    /// Run counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The backing store (results side).
    #[must_use]
    pub fn backing(&self) -> &BackingStore<K, O::Value> {
        &self.backing
    }

    /// The cache (occupancy inspection).
    #[must_use]
    pub fn cache(&self) -> &SramCache<K, O::Value> {
        &self.cache
    }

    /// The cache geometry this store is currently provisioned at.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.cache.geometry()
    }

    /// The value ops.
    #[must_use]
    pub fn ops(&self) -> &O {
        &self.ops
    }

    /// Look up a key's final record after a flush.
    #[must_use]
    pub fn result(&self, key: &K) -> Option<&BackingEntry<O::Value>> {
        self.backing.get(key)
    }
}

/// A consistent read-only frame of a [`SplitStore`]'s current results —
/// cache and backing combined exactly as a flush would combine them — taken
/// by [`SplitStore::snapshot`] without mutating the live store.
///
/// This is the storage half of the concurrent read path: a poller takes a
/// fresh frame per store between batches while the dataplane keeps
/// ingesting into the live cache. Sharded deployments merge per-worker
/// frames into one with [`SplitStore::snapshot_merge_into`].
#[derive(Debug, Clone)]
pub struct StoreSnapshot<K, V> {
    backing: BackingStore<K, V>,
    stats: StoreStats,
}

impl<K: Eq + Hash, V> StoreSnapshot<K, V> {
    /// An empty frame with the given absorption mode — a placeholder for
    /// [`SplitStore::snapshot_into`] to overwrite (any mode works).
    #[must_use]
    pub fn new(mode: MergeMode) -> Self {
        StoreSnapshot {
            backing: BackingStore::new(mode),
            stats: StoreStats::default(),
        }
    }

    /// The frame's combined results, keyed like the live backing store.
    #[must_use]
    pub fn backing(&self) -> &BackingStore<K, V> {
        &self.backing
    }

    /// The live store's counters as of the frame, stated as if the cache had
    /// been flushed (so they satisfy the same
    /// `backing_writes == evictions + flush_writes` identity a drained
    /// store's do).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of distinct keys in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backing.len()
    }

    /// True when the frame holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backing.is_empty()
    }
}

impl<K: Eq + Hash, V> Default for StoreSnapshot<K, V> {
    fn default() -> Self {
        StoreSnapshot::new(MergeMode::Merge)
    }
}

// A dirty spill tier's durable frames replayed into a fresh table, presized
// for them and `room` more keys: the disk half of the truth, in which
// `snapshot` and `materialize_spill` then let every standing RAM record
// replace its own frames.
fn replay_spill<K: Eq + Hash, O: ValueOps>(
    tier: &SpillTier<K, O::Value>,
    ops: &O,
    room: usize,
) -> io::Result<BackingStore<K, O::Value>> {
    let mut disk = BackingStore::with_capacity(ops.merge_mode(), tier.segment_keys() + room);
    tier.materialize_into(&mut disk, |standing, evicted| ops.merge(standing, evicted))?;
    Ok(disk)
}

// Route an evicted entry into the collection tier with the fold's merge.
// Free-standing (takes the already-split fields) so the eviction, flush and
// migration paths — some of which hold other borrows of the store — share
// one implementation. Tier confinement: a victim whose key has a standing
// in-RAM record always merges there (keeping each key's durable frames
// temporally ordered and older than any RAM record); a new key spills past
// the high-water mark and — the latch — for as long as the tier holds
// frames, so a table shrunk by `remove_key` can never grow a RAM record
// that would shadow the key's own entry frames at `replace_from`.
fn route_entry<K: Eq + Hash, O: ValueOps>(
    backing: &mut BackingStore<K, O::Value>,
    spill: &mut Option<SpillTier<K, O::Value>>,
    ops: &O,
    entry: CacheEntry<K, O::Value>,
) {
    if let Some(tier) = spill {
        if !tier.is_retired()
            && (backing.len() >= tier.high_water() || tier.is_dirty())
            && backing.get(&entry.key).is_none()
        {
            tier.offer_victim(&entry.key, &entry.value, entry.first_seen, entry.last_seen);
            return;
        }
    }
    backing.absorb(
        entry.key,
        entry.value,
        entry.first_seen,
        entry.last_seen,
        |standing, evicted| ops.merge(standing, evicted),
    );
}

// ---------------------------------------------------------------------------
// Simple ValueOps implementations
// ---------------------------------------------------------------------------

/// Packet counter: the paper's Fig. 5 query `SELECT COUNT GROUPBY 5tuple`.
/// Linear in state (A = 1, B = 1) so the merge is plain addition.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterOps;

impl ValueOps for CounterOps {
    type Value = u64;
    type Input = ();

    fn init(&self) -> u64 {
        0
    }

    fn update(&self, value: &mut u64, _input: &()) {
        *value += 1;
    }

    fn merge(&self, standing: &mut u64, evicted: u64) {
        *standing += evicted;
    }

    fn merge_mode(&self) -> MergeMode {
        MergeMode::Merge
    }
}

/// Byte (or arbitrary quantity) accumulator: `SUM(pkt_len)`-style.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumOps;

impl ValueOps for SumOps {
    type Value = u64;
    type Input = u64;

    fn init(&self) -> u64 {
        0
    }

    fn update(&self, value: &mut u64, input: &u64) {
        *value += *input;
    }

    fn merge(&self, standing: &mut u64, evicted: u64) {
        *standing += evicted;
    }

    fn merge_mode(&self) -> MergeMode {
        MergeMode::Merge
    }
}

/// A deliberately non-linear fold (running maximum) for exercising the
/// epoch/invalid machinery that Fig. 6 measures.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxOps;

impl ValueOps for MaxOps {
    type Value = u64;
    type Input = u64;

    fn init(&self) -> u64 {
        0
    }

    fn update(&self, value: &mut u64, input: &u64) {
        *value = (*value).max(*input);
    }

    fn merge(&self, _standing: &mut u64, _evicted: u64) {
        unreachable!("MaxOps uses MergeMode::Epochs; merge is never called");
    }

    fn merge_mode(&self) -> MergeMode {
        MergeMode::Epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_store(capacity: usize) -> SplitStore<u64, CounterOps> {
        SplitStore::new(
            CacheGeometry::fully_associative(capacity),
            EvictionPolicy::Lru,
            1,
            CounterOps,
        )
    }

    #[test]
    fn counts_without_eviction() {
        let mut s = counter_store(8);
        for _ in 0..5 {
            s.observe(1, &(), Nanos(0));
        }
        s.observe(2, &(), Nanos(1));
        s.flush();
        assert_eq!(*s.result(&1).unwrap().value().unwrap(), 5);
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 1);
        let st = s.stats();
        assert_eq!(st.packets, 6);
        assert_eq!(st.hits, 4);
        assert_eq!(st.misses, 2);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.flush_writes, 2);
    }

    #[test]
    fn counts_survive_eviction_exactly() {
        // Cache of 2, three interleaved keys → constant eviction churn; the
        // merged backing counts must still be exact.
        let mut s = counter_store(2);
        let pattern = [1u64, 2, 3, 1, 2, 3, 1, 2, 3, 1];
        for (i, k) in pattern.iter().enumerate() {
            s.observe(*k, &(), Nanos(i as u64));
        }
        s.flush();
        assert_eq!(*s.result(&1).unwrap().value().unwrap(), 4);
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 3);
        assert_eq!(*s.result(&3).unwrap().value().unwrap(), 3);
        assert!(s.stats().evictions > 0);
    }

    #[test]
    fn sum_ops_accumulate_across_evictions() {
        let mut s: SplitStore<u64, SumOps> = SplitStore::new(
            CacheGeometry::fully_associative(1),
            EvictionPolicy::Lru,
            1,
            SumOps,
        );
        // Alternate keys so every observation of the other key evicts.
        s.observe(1, &10, Nanos(0));
        s.observe(2, &100, Nanos(1));
        s.observe(1, &20, Nanos(2));
        s.observe(2, &200, Nanos(3));
        s.flush();
        assert_eq!(*s.result(&1).unwrap().value().unwrap(), 30);
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 300);
    }

    #[test]
    fn nonlinear_ops_mark_reinserted_keys_invalid() {
        let mut s: SplitStore<u64, MaxOps> = SplitStore::new(
            CacheGeometry::fully_associative(1),
            EvictionPolicy::Lru,
            1,
            MaxOps,
        );
        s.observe(1, &5, Nanos(0));
        s.observe(2, &7, Nanos(1)); // evicts 1 (epoch 1)
        s.observe(1, &9, Nanos(2)); // evicts 2; key 1 re-enters
        s.flush();
        // Key 1 has two epochs → invalid; key 2 has one → valid.
        assert!(!s.result(&1).unwrap().is_valid());
        assert!(s.result(&2).unwrap().is_valid());
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 7);
        // Epoch values are each correct over their interval.
        let epochs = &s.result(&1).unwrap().epochs;
        assert_eq!(epochs[0].value, 5);
        assert_eq!(epochs[1].value, 9);
        assert!((s.backing().accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_store_merges_disjoint_and_shared_keys() {
        // Two shards with churn: shared keys sum, disjoint keys carry over,
        // stats add up.
        let mut a = counter_store(2);
        let mut b = counter_store(2);
        for (i, k) in [1u64, 2, 3, 1, 2, 3].iter().enumerate() {
            a.observe(*k, &(), Nanos(i as u64));
        }
        for (i, k) in [3u64, 4, 3, 4, 3].iter().enumerate() {
            b.observe(*k, &(), Nanos(100 + i as u64));
        }
        let (pa, pb) = (a.stats().packets, b.stats().packets);
        a.absorb_store(b);
        assert_eq!(*a.result(&1).unwrap().value().unwrap(), 2);
        assert_eq!(*a.result(&2).unwrap().value().unwrap(), 2);
        assert_eq!(*a.result(&3).unwrap().value().unwrap(), 5);
        assert_eq!(*a.result(&4).unwrap().value().unwrap(), 2);
        assert_eq!(a.stats().packets, pa + pb);
        assert_eq!(a.backing().len(), 4);
    }

    #[test]
    fn stats_identity_packets_equals_hits_plus_misses() {
        let mut s = counter_store(4);
        for i in 0..100u64 {
            s.observe(i % 7, &(), Nanos(i));
        }
        let st = s.stats();
        assert_eq!(st.packets, st.hits + st.misses);
        assert_eq!(st.backing_writes, st.evictions + st.flush_writes);
    }

    #[test]
    fn migrate_grow_keeps_every_resident_and_leaves_backing_alone() {
        let mut s = counter_store(2);
        for (i, k) in [1u64, 2, 3, 1, 2].iter().enumerate() {
            s.observe(*k, &(), Nanos(i as u64));
        }
        let backing_before = s.backing().len();
        let resident = s.cache().len();
        s.migrate_geometry(CacheGeometry::fully_associative(16));
        assert_eq!(s.geometry(), CacheGeometry::fully_associative(16));
        assert_eq!(s.cache().len(), resident, "grow never spills");
        assert_eq!(s.backing().len(), backing_before);
        s.flush();
        assert_eq!(*s.result(&1).unwrap().value().unwrap(), 2);
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 2);
        assert_eq!(*s.result(&3).unwrap().value().unwrap(), 1);
    }

    #[test]
    fn migrate_shrink_spills_overflow_and_keeps_results_exact() {
        let mut s = counter_store(8);
        for (i, k) in [1u64, 2, 3, 4, 5, 1, 2, 3].iter().enumerate() {
            s.observe(*k, &(), Nanos(i as u64));
        }
        assert_eq!(s.cache().len(), 5);
        s.migrate_geometry(CacheGeometry::fully_associative(2));
        assert_eq!(s.cache().len(), 2, "shrink spills down to capacity");
        let st = s.stats();
        assert_eq!(st.evictions, 3, "spilled entries count as evictions");
        assert_eq!(st.backing_writes, st.evictions + st.flush_writes);
        s.observe(1, &(), Nanos(100));
        s.flush();
        for (k, want) in [(1u64, 3u64), (2, 2), (3, 2), (4, 1), (5, 1)] {
            assert_eq!(*s.result(&k).unwrap().value().unwrap(), want, "key {k}");
        }
    }

    #[test]
    fn migrate_does_not_split_residency_epochs() {
        // An epoch-mode key resident across a migration must stay one epoch:
        // the rehash preserves first_seen/last_seen instead of re-inserting.
        let mut s: SplitStore<u64, MaxOps> =
            SplitStore::new(CacheGeometry::new(4, 2), EvictionPolicy::Lru, 1, MaxOps);
        s.observe(1, &5, Nanos(0));
        s.migrate_geometry(CacheGeometry::fully_associative(8));
        s.observe(1, &9, Nanos(10));
        s.flush();
        let res = s.result(&1).unwrap();
        assert!(res.is_valid(), "migration must not open a second epoch");
        assert_eq!(*res.value().unwrap(), 9);
    }

    #[test]
    fn migrate_to_same_geometry_is_a_noop() {
        let mut s = counter_store(4);
        s.observe(1, &(), Nanos(0));
        let stats = s.stats();
        s.migrate_geometry(CacheGeometry::fully_associative(4));
        assert_eq!(s.stats(), stats);
        assert!(s.cache().contains(&1));
    }

    /// Frame must equal clone-and-flush: same key set, same entries, same
    /// (as-if-flushed) stats.
    fn assert_frame_is_clone_flush<O: ValueOps + Clone>(
        live: &SplitStore<u64, O>,
        snap: &StoreSnapshot<u64, O::Value>,
    ) where
        O::Value: PartialEq + std::fmt::Debug,
    {
        let mut reference = live.clone();
        reference.flush();
        assert_eq!(snap.len(), reference.backing().len());
        for (k, want) in reference.backing().iter() {
            assert_eq!(snap.backing().get(k), Some(want), "key {k}");
        }
        assert_eq!(snap.stats(), reference.stats());
    }

    #[test]
    fn snapshot_equals_clone_flush_and_leaves_live_store_alone() {
        let mut s = counter_store(2);
        for (i, k) in [1u64, 2, 3, 1, 2, 3, 1].iter().enumerate() {
            s.observe(*k, &(), Nanos(i as u64));
        }
        let stats_before = s.stats();
        let cache_before = s.cache().len();
        let snap = s.snapshot().unwrap();
        assert_frame_is_clone_flush(&s, &snap);
        // The live store never noticed.
        assert_eq!(s.stats(), stats_before);
        assert_eq!(s.cache().len(), cache_before);
        // Ingest continues unaffected and the final flush is still exact.
        for (i, k) in [1u64, 2, 3].iter().enumerate() {
            s.observe(*k, &(), Nanos(100 + i as u64));
        }
        s.flush();
        assert_eq!(*s.result(&1).unwrap().value().unwrap(), 4);
        assert_eq!(*s.result(&2).unwrap().value().unwrap(), 3);
        assert_eq!(*s.result(&3).unwrap().value().unwrap(), 3);
    }

    #[test]
    fn snapshot_into_refreshes_a_warmed_frame() {
        let mut s = counter_store(2);
        let mut snap = StoreSnapshot::new(MergeMode::Overwrite); // wrong mode on purpose
        for round in 0..5u64 {
            for (i, k) in [1u64, 2, 3, 4, 1, 2].iter().enumerate() {
                s.observe(*k, &(), Nanos(round * 100 + i as u64));
            }
            s.snapshot_into(&mut snap);
            assert_frame_is_clone_flush(&s, &snap);
        }
        assert_eq!(*snap.backing().get(&1).unwrap().value().unwrap(), 10);
    }

    #[test]
    fn snapshot_epoch_mode_matches_flush_including_invalid_keys() {
        let mut s: SplitStore<u64, MaxOps> = SplitStore::new(
            CacheGeometry::fully_associative(1),
            EvictionPolicy::Lru,
            1,
            MaxOps,
        );
        s.observe(1, &5, Nanos(0));
        s.observe(2, &7, Nanos(1)); // evicts 1 (epoch 1)
        s.observe(1, &9, Nanos(2)); // evicts 2; key 1 re-enters
        let snap = s.snapshot().unwrap();
        assert_frame_is_clone_flush(&s, &snap);
        assert!(!snap.backing().get(&1).unwrap().is_valid());
        assert!(snap.backing().get(&2).unwrap().is_valid());
        assert!((snap.backing().accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spill_round_trip_counters_match_in_ram_reference() {
        use crate::spill::SpillConfig;
        use crate::wal::{shared, MemBackend};
        let cfg = SpillConfig {
            high_water: 2,
            group_commit_bytes: 64,
        };
        let backend = shared(MemBackend::new());
        let mut s = counter_store(2);
        s.enable_spill(backend.clone(), "t_", cfg).unwrap();
        let mut reference = counter_store(2);
        for i in 0..200u64 {
            let k = i % 9;
            s.observe(k, &(), Nanos(i));
            reference.observe(k, &(), Nanos(i));
        }
        assert!(
            s.spill_stats().unwrap().spilled_frames > 0,
            "tier exercised"
        );
        s.persist(200).unwrap();
        s.compact_spill().unwrap();
        // A fresh store recovers the durable truth and reads identically.
        let mut r = counter_store(2);
        r.recover_spill(backend, "t_", cfg, Some(200)).unwrap();
        r.materialize_spill().unwrap();
        reference.flush();
        assert_eq!(r.backing().len(), reference.backing().len());
        for (k, want) in reference.backing().iter() {
            assert_eq!(r.backing().get(k), Some(want), "key {k}");
        }
    }

    /// The paper's favourable regime with durability on: the working set
    /// fits the cache, so nothing was evicted and the tier is still clean at
    /// the drain. The drain point must retire it all the same, or the flush
    /// routes every key past the high-water mark into the WAL and the read
    /// sees only the first `high_water` of them.
    #[test]
    fn drain_over_a_clean_tier_keeps_every_cache_resident_key() {
        use crate::spill::SpillConfig;
        use crate::wal::{shared, MemBackend};
        let cfg = SpillConfig {
            high_water: 2,
            group_commit_bytes: 64,
        };
        let mut s = counter_store(8);
        s.enable_spill(shared(MemBackend::new()), "t_", cfg)
            .unwrap();
        for k in 0..6u64 {
            s.observe(k, &(), Nanos(k));
        }
        assert_eq!(s.snapshot().unwrap().len(), 6, "the poll reads all six");
        s.materialize_spill().unwrap();
        s.flush();
        assert_eq!(s.backing().len(), 6, "the drain must too");
        assert_eq!(s.spill_stats().unwrap().spilled_frames, 0);
    }

    #[test]
    fn snapshot_merge_into_matches_absorb_store() {
        let mut a = counter_store(2);
        let mut b = counter_store(2);
        for (i, k) in [1u64, 2, 3, 1, 2, 3].iter().enumerate() {
            a.observe(*k, &(), Nanos(i as u64));
        }
        for (i, k) in [3u64, 4, 3, 4, 3].iter().enumerate() {
            b.observe(*k, &(), Nanos(100 + i as u64));
        }
        let mut snap = a.snapshot().unwrap();
        b.snapshot_merge_into(&mut snap).unwrap();
        let mut reference = a.clone();
        reference.absorb_store(b.clone());
        assert_eq!(snap.len(), reference.backing().len());
        for (k, want) in reference.backing().iter() {
            assert_eq!(snap.backing().get(k), Some(want), "key {k}");
        }
        assert_eq!(snap.stats(), reference.stats());
        // Neither source store was touched.
        assert!(!a.cache().is_empty());
        assert!(!b.cache().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::key::{InlineKey, KeyLayout};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// An order-sensitive fold whose absorption mode is the test's to pick.
    #[derive(Debug, Clone, Copy)]
    struct ModeOps(MergeMode);

    impl ValueOps for ModeOps {
        type Value = u64;
        type Input = u64;

        fn init(&self) -> u64 {
            1
        }

        fn update(&self, value: &mut u64, input: &u64) {
            *value = value.wrapping_mul(31).wrapping_add(*input);
        }

        fn merge(&self, standing: &mut u64, evicted: u64) {
            *standing = standing.wrapping_mul(17).wrapping_add(evicted);
        }

        fn merge_mode(&self) -> MergeMode {
            self.0
        }
    }

    /// A frame is the flushed clone record for record **and in order**: a
    /// flush drains the cache in the arena order `snapshot` absorbs it in,
    /// in every absorption mode, on two bucketed shapes, under every policy.
    #[test]
    fn flush_builds_the_snapshot_table_in_order() {
        let policies = [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Random { seed: 3 },
        ];
        let records = |b: &BackingStore<u64, u64>| -> Vec<_> {
            b.iter().map(|(k, e)| (*k, e.clone())).collect()
        };
        for mode in [MergeMode::Merge, MergeMode::Overwrite, MergeMode::Epochs] {
            for (buckets, ways) in [(4, 2), (7, 4)] {
                for policy in policies {
                    let geom = CacheGeometry::new(buckets, ways);
                    let mut s = SplitStore::new(geom, policy, 5, ModeOps(mode));
                    let mut x = 0x9e37_79b9_7f4a_7c15u64;
                    for now in 0..400u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        s.observe(x % 40, &now, Nanos(now));
                    }
                    assert!(!s.cache().is_empty() && !s.backing().is_empty());
                    let mut flushed = s.clone();
                    flushed.flush();
                    assert_eq!(
                        records(s.snapshot().unwrap().backing()),
                        records(flushed.backing()),
                        "{mode:?} / {geom} / {}",
                        policy.name()
                    );
                }
            }
        }
    }

    proptest! {
        /// Counter results are EXACT for any key sequence, geometry and
        /// policy — the linear-in-state merge guarantee.
        #[test]
        fn merged_counts_always_exact(
            keys in prop::collection::vec(0u64..50, 1..600),
            ways in 1usize..5,
            buckets in 1usize..6,
            policy_sel in 0u8..3,
        ) {
            let policy = match policy_sel {
                0 => EvictionPolicy::Lru,
                1 => EvictionPolicy::Fifo,
                _ => EvictionPolicy::Random { seed: 7 },
            };
            let geom = CacheGeometry::new(buckets, ways);
            let mut s: SplitStore<u64, CounterOps> = SplitStore::new(geom, policy, 3, CounterOps);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                s.observe(*k, &(), Nanos(i as u64));
                *truth.entry(*k).or_insert(0) += 1;
            }
            s.flush();
            for (k, want) in truth {
                let got = *s.result(&k).unwrap().value().unwrap();
                prop_assert_eq!(got, want, "key {}", k);
            }
        }

        /// A frame is its definition — clone the store, flush the clone —
        /// entry for entry (epochs, writes, intervals) and counter for
        /// counter, in every absorption mode, at every point of a random run
        /// that evicts, flushes and removes under the poller; and
        /// `snapshot_into` leaves nothing of the frame it overwrites (an
        /// older population, another mode).
        #[test]
        fn every_frame_equals_clone_then_flush(
            ops in prop::collection::vec((0u8..16, 0u64..24, 0u64..1000), 1..300),
            mode_sel in 0usize..3,
            ways in 1usize..4,
        ) {
            let mode = [MergeMode::Merge, MergeMode::Overwrite, MergeMode::Epochs][mode_sel];
            let geom = CacheGeometry::new(3, ways);
            let mut s = SplitStore::new(geom, EvictionPolicy::Lru, 5, ModeOps(mode));
            let mut reused = StoreSnapshot::new(MergeMode::Merge);
            let entries = |b: &BackingStore<u64, u64>| {
                let mut v: Vec<_> = b.iter().map(|(k, e)| (*k, e.clone())).collect();
                v.sort_by_key(|(k, _)| *k);
                v
            };
            for (now, (op, key, input)) in ops.into_iter().enumerate() {
                let now = now as u64;
                match op {
                    0..=10 => s.observe(key, &input, Nanos(now)),
                    11 => s.flush(),
                    12 => drop(s.remove_key(&key)),
                    _ => {
                        let mut reference = s.clone();
                        reference.flush();
                        let want = entries(reference.backing());
                        let fresh = s.snapshot().unwrap();
                        s.snapshot_into(&mut reused);
                        for (what, frame) in [("fresh", &fresh), ("reused", &reused)] {
                            prop_assert_eq!(&entries(frame.backing()), &want, "{} frame, {:?}", what, mode);
                            prop_assert_eq!(frame.stats(), reference.stats(), "{} frame, {:?}", what, mode);
                            for (k, e) in &want {
                                prop_assert_eq!(frame.backing().get(k), Some(e), "{} frame get({})", what, k);
                            }
                        }
                    }
                }
            }
        }

        /// In epoch mode, the number of epochs equals the number of cache
        /// residencies, and at most one residency is live at a time.
        #[test]
        fn epoch_counts_match_residencies(
            keys in prop::collection::vec(0u64..10, 1..300),
        ) {
            let geom = CacheGeometry::fully_associative(3);
            let mut s: SplitStore<u64, MaxOps> =
                SplitStore::new(geom, EvictionPolicy::Lru, 3, MaxOps);
            let mut insertions: HashMap<u64, u64> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                if !s.cache().contains(k) {
                    *insertions.entry(*k).or_insert(0) += 1;
                }
                s.observe(*k, &(i as u64), Nanos(i as u64));
            }
            s.flush();
            for (k, want) in insertions {
                let got = s.result(&k).unwrap().epochs.len() as u64;
                prop_assert_eq!(got, want, "key {}", k);
            }
        }
    }

    /// One record of a run-equivalence script: the key's index in the pool,
    /// whether the caller starts a fresh [`Run`] before it, and its time.
    type Step = (usize, bool, Nanos);

    /// Feed `script` to two identically built stores — one through
    /// [`SplitStore::observe_run`] with a carried run, reset where the script
    /// says, the other with one [`SplitStore::observe`] per record — and
    /// require them equal after every record: the folded state returned,
    /// the counters and the backing table in arena order (so every victim
    /// is absorbed at the same record, in the same order), then the cache
    /// in arena order, and both drains.
    fn runs_match_per_record<K>(
        pool: &[K],
        layout: &K::Layout,
        script: &[Step],
        geom: CacheGeometry,
        policy: EvictionPolicy,
        mode: MergeMode,
    ) -> Result<(), TestCaseError>
    where
        K: Eq + Hash + Clone + SlotKey + std::fmt::Debug,
    {
        let build = || SplitStore::with_key_layout(geom, policy, 9, layout.clone(), ModeOps(mode));
        let (mut runs, mut fresh) = (build(), build());
        let backing = |s: &SplitStore<K, ModeOps>| -> Vec<(K, BackingEntry<u64>)> {
            s.backing()
                .iter()
                .map(|(k, e)| (k.clone(), e.clone()))
                .collect()
        };
        let cache = |s: &SplitStore<K, ModeOps>| {
            let mut slots = Vec::new();
            s.cache().for_each_slot(|e| {
                slots.push((e.key.clone(), *e.value, e.first_seen, e.last_seen));
            });
            slots
        };
        let mut run = Run::default();
        for (i, &(k, reset, now)) in script.iter().enumerate() {
            let (key, input) = (&pool[k], i as u64);
            if reset {
                run = Run::default();
            }
            let got = *runs.observe_run(&mut run, key.clone(), &input, now);
            fresh.observe(key.clone(), &input, now);
            let want = cache(&fresh).into_iter().find(|e| e.0 == *key).map(|e| e.1);
            prop_assert_eq!(Some(got), want, "state of {:?} at record {}", key, i);
            prop_assert_eq!(runs.stats(), fresh.stats(), "counters at record {}", i);
            prop_assert_eq!(backing(&runs), backing(&fresh), "backing at record {}", i);
        }
        prop_assert_eq!(cache(&runs), cache(&fresh));
        runs.flush();
        fresh.flush();
        prop_assert_eq!(runs.stats(), fresh.stats());
        prop_assert_eq!(backing(&runs), backing(&fresh));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Flow-run coalescing is invisible: a stream of equal-key runs fed
        /// through `observe_run` — with the run reset at random, as the
        /// runtime does per row when coalescing is off — equals the stream
        /// fed one `observe` per record. Keys: `u64`; `u128` on both sides
        /// of 2^104; two-word `InlineKey`s under a layout they all fit, and
        /// under one that half of them overflow (runs cross between packed
        /// and unpacked keys). Every policy and absorption mode, on a
        /// one-way, two bucketed (one with a set count that is not a power
        /// of two) and a fully-associative cache; times that sit at 0 or
        /// `u64::MAX` and that go backwards.
        #[test]
        fn observe_run_equals_one_observe_per_record(
            groups in prop::collection::vec((0usize..12, 1usize..6, 0u8..3, 0u8..4, 0u64..=u64::MAX), 1..80),
            family in 0u8..4,
            shape in 0usize..4,
            policy_sel in 0u8..3,
            mode_sel in 0usize..3,
        ) {
            // A group is one key's run: `len` records, the run reset before
            // every record (0), before the first (1) or never (2).
            let mut script: Vec<Step> = Vec::new();
            for (k, len, reset, clock, raw) in groups {
                for r in 0..len {
                    let now = match clock {
                        0 => 0,
                        1 => u64::MAX,
                        2 => raw.wrapping_sub(r as u64),
                        _ => raw.wrapping_add(r as u64),
                    };
                    script.push((k, reset == 0 || (reset == 1 && r == 0), Nanos(now)));
                }
            }
            let geom = [(8, 1), (4, 2), (3, 4), (1, 6)][shape];
            let geom = CacheGeometry::new(geom.0, geom.1);
            let policy = match policy_sel {
                0 => EvictionPolicy::Lru,
                1 => EvictionPolicy::Fifo,
                _ => EvictionPolicy::Random { seed: 13 },
            };
            let mode = [MergeMode::Merge, MergeMode::Overwrite, MergeMode::Epochs][mode_sel];
            let edge = 1u128 << 104;
            match family {
                0 => {
                    let pool: Vec<u64> = (0..12u64)
                        .map(|i| [i, u64::MAX - i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)][i as usize % 3])
                        .collect();
                    runs_match_per_record(&pool, &(), &script, geom, policy, mode)?;
                }
                1 => {
                    let pool: Vec<u128> = (0..12u128)
                        .map(|i| [edge - 1 - i, edge + i, u128::MAX - i][i as usize % 3])
                        .collect();
                    runs_match_per_record(&pool, &(), &script, geom, policy, mode)?;
                }
                _ => {
                    // Even keys fit 4-bit words. Odd keys sit at the top of
                    // a 32-bit word under the layout they all fit (2), and
                    // past 32 bits or negative under the 4-bit layout (3).
                    let odd = |i: i64| match family {
                        2 => [(1 << 32) - 1 - i, i],
                        _ => [1 << 32 | i, -1 - i],
                    };
                    let pool: Vec<InlineKey> = (0..12i64)
                        .map(|i| match i % 2 {
                            0 => InlineKey::from_slice(&[i, 15 - i]),
                            _ => InlineKey::from_slice(&odd(i)),
                        })
                        .collect();
                    let layout = KeyLayout::new(if family == 2 { &[32, 32] } else { &[4, 4] });
                    prop_assert_eq!(
                        pool.iter().filter(|k| k.pack(&layout).is_some()).count(),
                        if family == 2 { 12 } else { 6 }
                    );
                    runs_match_per_record(&pool, &layout, &script, geom, policy, mode)?;
                }
            }
        }
    }
}
