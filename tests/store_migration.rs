//! Property suite for live store migration (vendored proptest): the
//! dynamic-lifecycle replan rehashes resident SRAM state into a new cache
//! geometry *between batches* ([`SplitStore::migrate_geometry`]), and the
//! whole lifecycle's exactness rests on three store-level facts pinned
//! here over random resident states and random shrink/grow geometry pairs:
//!
//! 1. Migration conserves the merged truth: flushing a migrated store
//!    yields byte-identical backing contents to flushing the original —
//!    for the mergeable (linear-in-state) folds *and* for the
//!    epoch-correction class, whose residency intervals must move intact.
//! 2. For mergeable folds the final merged results are independent of the
//!    store's entire geometry *history* — any mid-stream migration chain
//!    collects exactly like a never-migrated store (§3.2: linear folds
//!    merge losslessly across evictions, hence across forced evictions).
//! 3. Timestamps survive the move: after a migration that overflows
//!    nothing, a flush closes every epoch at exactly the
//!    `first_seen`/`last_seen` interval a flush in place closes it at.

use perfq::prelude::*;
use perfq_kvstore::{BackingEntry, CounterOps, MaxOps, SumOps, ValueOps};
use perfq_packet::Nanos;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One observation: a key drawn from a small space (to force bucket
/// collisions and evictions) and a value payload.
type Obs = (u64, u64);

fn obs_strategy() -> impl Strategy<Value = Vec<Obs>> {
    prop::collection::vec((0u64..48, 1u64..1000), 1..600)
}

/// Random geometries from tiny (heavy eviction) to roomy (all-resident),
/// mixing set-associative shapes and degenerate single-bucket caches.
fn geometry_strategy() -> impl Strategy<Value = CacheGeometry> {
    (0u32..6, 1usize..9).prop_map(|(log_buckets, ways)| CacheGeometry::new(1 << log_buckets, ways))
}

fn store<O: ValueOps + Default>(g: CacheGeometry) -> SplitStore<u64, O> {
    SplitStore::new(g, EvictionPolicy::Lru, 0x7e7e_55aa, O::default())
}

/// Feed `obs[range]` into the store, timestamping each observation with
/// its stream index so LRU order and residency intervals are deterministic.
fn feed<O: ValueOps<Input = u64>>(s: &mut SplitStore<u64, O>, obs: &[Obs], base: usize) {
    for (i, (key, val)) in obs.iter().enumerate() {
        s.observe(*key, val, Nanos((base + i) as u64));
    }
}

/// The merged truth: flush the cache and snapshot the backing store.
fn flushed<O: ValueOps>(mut s: SplitStore<u64, O>) -> BTreeMap<u64, BackingEntry<O::Value>>
where
    O::Value: Clone,
{
    s.flush();
    s.backing().iter().map(|(k, e)| (*k, e.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fact 1, mergeable class: migrating a live store (shrink or grow)
    /// and then flushing reads byte-identically to flushing it in place.
    #[test]
    fn migration_conserves_the_merged_truth_for_sums(
        obs in obs_strategy(), from in geometry_strategy(), to in geometry_strategy()
    ) {
        let mut s = store::<SumOps>(from);
        feed(&mut s, &obs, 0);
        let mut migrated = s.clone();
        migrated.migrate_geometry(to);
        prop_assert_eq!(migrated.geometry(), to);
        prop_assert_eq!(flushed(migrated), flushed(s));
    }

    /// Fact 1, epoch-correction class: residency intervals move intact, so
    /// even the non-mergeable fold's epoch list is unchanged by the move.
    #[test]
    fn migration_conserves_epoch_intervals_for_max(
        obs in obs_strategy(), from in geometry_strategy(), to in geometry_strategy()
    ) {
        let mut s = store::<MaxOps>(from);
        feed(&mut s, &obs, 0);
        let mut migrated = s.clone();
        migrated.migrate_geometry(to);
        prop_assert_eq!(flushed(migrated), flushed(s));
    }

    /// Fact 2: a chain of mid-stream migrations changes nothing a
    /// mergeable fold can observe — the final merged counts and sums equal
    /// a never-migrated store's, wherever the stream is split and whatever
    /// geometries the chain visits.
    #[test]
    fn mergeable_folds_are_geometry_history_independent(
        obs in obs_strategy(),
        geoms in prop::collection::vec(geometry_strategy(), 2..4),
        cuts in prop::collection::vec(0usize..1000, 1..3),
    ) {
        // Split the stream at the sampled per-mille fractions.
        let mut splits: Vec<usize> = cuts.iter().map(|f| f * obs.len() / 1000).collect();
        splits.sort_unstable();

        let mut never = store::<CounterOps>(geoms[0]);
        let mut churned = store::<CounterOps>(geoms[0]);
        let mut sums_never = store::<SumOps>(geoms[0]);
        let mut sums_churned = store::<SumOps>(geoms[0]);

        let mut start = 0usize;
        for (leg, end) in splits.iter().chain([obs.len()].iter()).enumerate() {
            let end = (*end).min(obs.len());
            for (i, (key, val)) in obs[start..end].iter().enumerate() {
                let now = Nanos((start + i) as u64);
                never.observe(*key, &(), now);
                churned.observe(*key, &(), now);
                sums_never.observe(*key, val, now);
                sums_churned.observe(*key, val, now);
            }
            start = end;
            let g = geoms[(leg + 1) % geoms.len()];
            churned.migrate_geometry(g);
            sums_churned.migrate_geometry(g);
        }

        let counts = |m: BTreeMap<u64, BackingEntry<u64>>| -> BTreeMap<u64, u64> {
            m.into_iter().map(|(k, e)| (k, *e.latest())).collect()
        };
        prop_assert_eq!(counts(flushed(churned)), counts(flushed(never)));
        prop_assert_eq!(counts(flushed(sums_churned)), counts(flushed(sums_never)));
    }

    /// Fact 3: `first_seen`/`last_seen` survive the move — after migrating
    /// to a geometry roomy enough that nothing overflows, flushing both
    /// stores closes every key's epochs at the same intervals. The
    /// epoch-correction fold keeps one epoch per residency, each with its
    /// own interval, so a timestamp lost in transit would show.
    #[test]
    fn flushes_see_the_same_timestamps_after_a_grow_migration(
        obs in obs_strategy(), from in geometry_strategy()
    ) {
        let mut s = store::<MaxOps>(from);
        feed(&mut s, &obs, 0);
        let mut migrated = s.clone();
        // Roomy enough for every resident entry: nothing overflows.
        migrated.migrate_geometry(CacheGeometry::fully_associative(1024));
        prop_assert_eq!(migrated.stats(), s.stats());
        let intervals = |m: BTreeMap<u64, BackingEntry<u64>>| -> BTreeMap<u64, Vec<(Nanos, Nanos)>> {
            m.into_iter()
                .map(|(k, e)| (k, e.epochs.iter().map(|ep| (ep.first_seen, ep.last_seen)).collect()))
                .collect()
        };
        prop_assert_eq!(intervals(flushed(migrated)), intervals(flushed(s)));
    }

    /// Migrating to the current geometry is a guaranteed no-op, so the
    /// lifecycle replan may call it unconditionally between batches.
    #[test]
    fn migration_to_the_same_geometry_is_a_no_op(
        obs in obs_strategy(), g in geometry_strategy()
    ) {
        let mut s = store::<MaxOps>(g);
        feed(&mut s, &obs, 0);
        let stats = s.stats();
        let mut migrated = s.clone();
        migrated.migrate_geometry(g);
        prop_assert_eq!(migrated.stats(), stats);
        prop_assert_eq!(flushed(migrated), flushed(s));
    }
}
