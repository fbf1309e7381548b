//! # perfq-kvstore
//!
//! The paper's central hardware proposal: a **programmable key-value store**
//! for line-rate aggregation, implemented as a split memory hierarchy
//! (Fig. 3) — a small, fast on-chip SRAM cache laid out as `n` hash buckets
//! of `m`-slot LRUs (Fig. 4), backed by a large off-chip store that absorbs
//! evictions.
//!
//! * [`geometry`] — cache shapes (hash table / k-way / fully associative);
//! * [`policy`] — LRU (the paper's), FIFO and random eviction (ablations);
//! * [`cache`] — the SRAM cache, with an O(1) true-LRU implementation for
//!   the fully-associative configuration;
//! * [`backing`] — the DRAM store with the three absorption modes (merge /
//!   overwrite / per-epoch with invalid marking);
//! * [`split`] — [`SplitStore`] tying both together behind the [`ValueOps`]
//!   trait, plus counter/sum/max ops;
//! * [`stats`] — the eviction/hit counters Fig. 5 is computed from;
//! * [`area`] — §3.3/§4's chip-area and workload arithmetic, and the SRAM
//!   area planner dividing one budget across installed queries;
//! * [`sketch`] — a count-min sketch baseline for the §5 comparison;
//! * [`hash`] — deterministic seeded hashing.
//!
//! # Cross-query sharing
//!
//! When several installed queries maintain *structurally identical*
//! aggregation state (the paper's own set does: the loss-rate program's
//! `R1 = SELECT COUNT GROUPBY 5tuple` is the §4 running-example counter
//! verbatim), the multi-query dataplane in `perfq-core` collapses them
//! into **one** physical [`SplitStore`]. This crate supplies both halves
//! of that optimization's contract:
//!
//! * **Provisioning** — [`StoreDemand::dedup`] tags a group of demands as
//!   one physical store; [`CachePlanner::plan`] charges the group's SRAM
//!   once, every later member becomes a zero-cost alias mirroring the
//!   canonical geometry, and the reclaimed baseline slices are
//!   redistributed equally across all physical stores — the same §4 budget
//!   buys strictly larger caches (fewer evictions) when queries overlap.
//! * **Collection** — [`SplitStore::adopt_results_from`] lets the alias
//!   store adopt the owner's backing table + statistics after the owner's
//!   flush (when the backing store alone holds the truth, §3.2), at
//!   O(distinct keys) cost.
//!
//! *When may two stores legally dedup?* Only when they would hold
//! byte-identical state on every input: identical key schema and fold
//! semantics (decided structurally by `perfq-lang`'s fingerprints over the
//! param-folded IR), identical filtered input streams, **and** identical
//! physical configuration — same [`CacheGeometry`], same
//! [`EvictionPolicy`], same placement hash seed. Geometry/policy/seed are
//! part of the rule because eviction *timing* is observable: non-linear
//! folds record per-residency epochs, overwrite-mode folds keep only the
//! last residency, and composed queries stream cache-resident running
//! values — all of which differ the moment two caches evict differently.
//! The sharded drain stays exact for deduplicated stores because the shard
//! of a key is a pure function of the key: the owner's merged backing
//! store equals the one the alias would have drained itself (audited
//! statically per program by `perfq-core`'s `ShardSpec::is_exact`).
//!
//! # Memory layout
//!
//! Both halves of the split store are laid out the way the hardware is, not
//! the way a convenience container would be:
//!
//! * **Cache — split tag/data arrays (Fig. 4).** A real cache way keeps an
//!   SRAM tag array separate from the data array and compares *every* tag
//!   in a set against the probe tag in one cycle. The bucketed cache
//!   mirrors that with a *wide* tag: a geometry-fixed flat array of 128-bit
//!   slot words, each a 64-bit key discriminant (the [`cache::SlotKey`]
//!   projection: the key itself for one-word keys, its seeded hash
//!   otherwise) plus an exact flag and a 24-bit data-way index. One-word
//!   keys are confirmed *inside* the slot word — a hit touches one cache
//!   line before the state array and never loads the key arena; wider keys
//!   filter on the hash discriminant (2⁻⁶⁴ per-way false positives) and
//!   confirm on the full key. A probe is one hash, at most `m` 64-bit
//!   compares and (for wide keys) ~one key confirm; eviction moves the
//!   victim out by `mem::replace`. See [`cache`]'s module docs for the
//!   diagram.
//! * **Backing store — dense arena behind a compact index.** Evictions
//!   land in a `Vec` of records addressed through a seeded SplitMix
//!   linear-probe index of 8-byte words (tombstone-free backward-shift
//!   deletes), so a probe, a delete or a growth walks index words instead
//!   of record-sized slots, drains and checkpoints walk the records
//!   densely — and absorbing a key, known or first-seen, allocates nothing
//!   beyond amortized table growth.
//!
//! The layout is behaviorally invisible — `tests/store_differential.rs`
//! pins hit/miss/eviction streams and Fig. 5 hit rates byte-identical to
//! the previous `Vec<Vec<Slot>>` / `HashMap` implementations — but it makes
//! cache construction O(1) work per page instead of O(capacity) (SRAM is
//! provisioned, not initialized), keeps the resident population dense in
//! two arrays, and leaves the steady-state per-packet path allocation-free
//! (`tests/alloc_discipline.rs`).
//!
//! # Area-budgeted provisioning
//!
//! §3.3's fixed SRAM slice (~32 Mbit, < 2.5 % of a 200 mm² die) is shared
//! by every concurrently-installed query — so cache geometries are
//! *planned*, not picked per query. [`CachePlanner`] divides a budget in
//! bits across queries (weighted shares), across each query's stores, and
//! across dataplane shards at `1/N` per shard (constant total area), fitting
//! the largest power-of-two-row geometry under every slice:
//!
//! ```text
//!   budget ──┬─ query slice = budget·w/Σw ──┬─ store slice = slice/n_stores
//!            │                              └─ geometry: pairs = slice/pair_bits,
//!            │                                 rows ⌊pow2⌋ at the demanded ways
//!            └─ shard split: store slice / N per shard (Σ shards ≤ slice)
//! ```
//!
//! A plan can under-use the budget (power-of-two rounding slack) but never
//! exceed it; `tests/area_plan.rs` fuzzes that invariant and pins the §4
//! numbers. `perfq-core` applies plans to compiled programs, turning the
//! paper's back-of-the-envelope arithmetic into the geometries the
//! multi-query dataplane actually runs. See [`area`] for the arithmetic.
//!
//! # Durability & recovery
//!
//! The backing tier can optionally spill past a configurable in-RAM
//! high-water mark to a WAL-style log on an [`IoBackend`] (ROADMAP item 4:
//! the paper's §3.2 software collection tier must outlive any single
//! collection pass). Three modules implement it:
//!
//! * [`wal`] — the byte substrate: CRC-framed log format, [`Persist`]
//!   codecs, and the [`IoBackend`] abstraction with a real filesystem
//!   backend plus in-memory and fault-injecting test doubles;
//! * [`spill`] — [`SpillTier`]: tier-confined victim routing, group-commit
//!   batching, checkpoint frames, and generation-numbered compaction that
//!   folds the WAL into the segment only once the WAL has outgrown it;
//! * [`recover`] — the deployment manifest and
//!   [`BackingStore::recover`][crate::backing::BackingStore::recover].
//!
//! Every durable file starts with `[magic u32][generation u64]` and then
//! carries self-describing frames:
//!
//! ```text
//!   ┌─────────┬─────────┬────────────────────────────────────────────┐
//!   │ len u32 │ crc u32 │ payload (len bytes, CRC-32 over payload)   │
//!   └─────────┴─────────┴────────────────────────────────────────────┘
//!   payload := tag u8 ++ body
//!     tag 1 ENTRY      key ++ writes u32 ++ n u32 ++ n × (first u64,
//!                      last u64, value)        — one spilled residency
//!     tag 2 TOMBSTONE  key                     — key deleted as of here
//!     tag 3 CHECKPOINT record_index u64        — all records ≤ index are
//!                                                durably folded below
//!     tag 4 SNAPSHOT   same body as ENTRY      — full standing record;
//!                                                replaces, never merges
//! ```
//!
//! **Recovery = absorb.** A WAL entry frame is exactly the argument of one
//! [`BackingStore::absorb_entry`][crate::backing::BackingStore::absorb_entry]
//! call, and `absorb_entry` is *order-normalized*: merge-mode folds apply
//! per-epoch with `min(first_seen)` / `max(last_seen)` bookkeeping,
//! overwrite mode keeps the greatest `last_seen` epoch, and epoch mode
//! sorts the concatenation by `(first_seen, last_seen)` — so replaying any
//! interleaving of a key's frames (log vs. compacted segment, one shard's
//! file vs. another's) reaches the same merged record the live store would
//! have held. Non-commutative linear folds (EWMA's `merge` is
//! order-sensitive) are covered by two invariants. *Tier confinement*: a
//! victim spills only when its key has no in-RAM record — and, once the
//! tier holds frames, *every* such victim spills until the tier is folded
//! back (a latch, not a per-victim size test) — so a disk-confined key's
//! entry frames are temporally ordered on disk, fold exactly, and are never
//! shadowed by a later RAM record of the same key.
//! *Snapshot supersession*: a standing RAM record is already a composite,
//! and a fold-state merge is only exact when the incoming operand is a
//! fresh cache residency — so checkpoints dump RAM records as SNAPSHOT
//! frames that **replace** older frames at replay rather than merging, and
//! a live RAM record in turn supersedes (replaces) its own snapshots at
//! materialization. No composite is ever the evicted side of a merge. Crash
//! atomicity comes from the frame CRCs (a torn tail scans as garbage and
//! is truncated), the manifest (checkpoints commit before it advances, and
//! uncovered frames are cut because the resumed deployment re-ingests
//! them), and generation numbers (a compaction that crashed between its
//! two atomic file replacements leaves a WAL older than the segment, which
//! readers skip as already-folded). A checkpoint compacts only when the
//! bytes logged since the last fold reach the segment's size: replay reads
//! segment + WAL whether or not it folded, so skipping a fold changes no
//! durable truth, and rewrite work stays proportional to the bytes logged
//! instead of re-encoding the whole table at every checkpoint. A failed
//! group commit cuts the WAL back to its committed length and keeps its
//! buffer, so a retry in the same process appends it exactly once; a
//! compaction whose segment landed but whose WAL replacement failed adopts
//! the segment, and the next commit replaces the stale WAL before it
//! appends. `tests/durability_crash.rs` pins all
//! of this differentially against never-crashed references;
//! `tests/durability_property.rs` pins the order/geometry-independence
//! claim property-style.
//!
//! # Example: the Fig. 5 query
//!
//! ```
//! use perfq_kvstore::{CacheGeometry, CounterOps, EvictionPolicy, SplitStore};
//! use perfq_packet::Nanos;
//!
//! // SELECT COUNT GROUPBY 5tuple on an 8-way cache.
//! let mut store: SplitStore<u128, CounterOps> = SplitStore::new(
//!     CacheGeometry::set_associative(1 << 10, 8),
//!     EvictionPolicy::Lru,
//!     0xfeed,
//!     CounterOps,
//! );
//! for (i, flow) in [1u128, 2, 1, 3, 1].iter().enumerate() {
//!     store.observe(*flow, &(), Nanos(i as u64));
//! }
//! store.flush();
//! assert_eq!(*store.result(&1).unwrap().value().unwrap(), 3);
//! println!("eviction fraction: {}", store.stats().eviction_fraction());
//! ```

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod backing;
pub mod cache;
pub mod geometry;
pub mod hash;
pub mod key;
pub mod policy;
pub mod recover;
pub mod sketch;
pub mod spill;
pub mod split;
pub mod stats;
pub mod wal;

pub use area::{
    AreaPlan, CachePlanner, PlanError, QueryAllocation, QueryDemand, StoreAllocation, StoreDemand,
};
pub use backing::{BackingEntry, BackingStore, Epoch, EpochList, MergeMode};
pub use cache::{CacheEntry, CacheSlotRef, SlotHandle, SlotKey, SramCache};
pub use geometry::CacheGeometry;
pub use key::{InlineKey, INLINE_KEY_WORDS};
pub use policy::EvictionPolicy;
pub use recover::{read_manifest, write_manifest};
pub use sketch::CountMinSketch;
pub use spill::{SpillConfig, SpillStats, SpillTier};
pub use split::{CounterOps, MaxOps, SplitStore, StoreSnapshot, SumOps, ValueOps};
pub use stats::StoreStats;
pub use wal::{
    shared, DiskBackend, FaultBackend, IoBackend, MemBackend, Persist, SharedBackend,
};
