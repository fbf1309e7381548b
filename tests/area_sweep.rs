//! Constant-area Fig. 5 sweep: the §3.3 area argument must hold for the
//! *sharded* dataplane too. Splitting one SRAM slice across N shard caches
//! (each sized at 1/N by the planner — total area constant) must leave the
//! aggregate eviction rate within a pinned envelope of the single-stream
//! rate, for every Fig. 4 geometry class. Without this, sharding would
//! silently buy its speedup with N× the cache area.

use perfq_kvstore::hash::shard_of_words;
use perfq_kvstore::{
    CachePlanner, CounterOps, EvictionPolicy, QueryDemand, SplitStore, StoreDemand, StoreStats,
};
use perfq_packet::Nanos;

/// The same zipfish key stream shape as `tests/store_differential.rs`:
/// 64 heavy hitters carrying 70 % of packets over a ~4000-flow tail.
fn fig5_keys(n: usize, seed: u64) -> Vec<u64> {
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            if rng.next() % 10 < 7 {
                rng.next() % 64
            } else {
                64 + rng.next() % 4000
            }
        })
        .collect()
}

fn run_store(
    geometry: perfq_kvstore::CacheGeometry,
    keys: impl Iterator<Item = u64>,
) -> StoreStats {
    let mut store: SplitStore<u64, CounterOps> =
        SplitStore::new(geometry, EvictionPolicy::Lru, 0xf15, CounterOps);
    for (i, k) in keys.enumerate() {
        store.observe(k, &(), Nanos(i as u64));
    }
    store.flush();
    store.stats()
}

/// Eviction fraction of N shard stores fed the hash-partitioned stream.
fn sharded_eviction_fraction(
    geoms: &[perfq_kvstore::CacheGeometry],
    keys: &[u64],
    seed: u64,
) -> f64 {
    let shards = geoms.len();
    let mut stores: Vec<SplitStore<u64, CounterOps>> = geoms
        .iter()
        .map(|g| SplitStore::new(*g, EvictionPolicy::Lru, 0xf15, CounterOps))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let s = shard_of_words(seed, &[*k as i64], shards);
        stores[s].observe(*k, &(), Nanos(i as u64));
    }
    let (mut ev, mut pkts) = (0u64, 0u64);
    for mut st in stores {
        st.flush();
        let s = st.stats();
        ev += s.evictions;
        pkts += s.packets;
    }
    assert_eq!(pkts as usize, keys.len(), "no record lost in the split");
    ev as f64 / pkts as f64
}

#[test]
fn sharded_eviction_rate_stays_in_the_single_stream_envelope() {
    const PAIR_BITS: u32 = 128;
    // A 1024-pair budget against ~4k flows: the sweep's interesting regime,
    // same pressure ratio as the paper's 3.8M flows against 2^16..2^21.
    let budget: u64 = 1024 * u64::from(PAIR_BITS);
    let keys = fig5_keys(30_000, 0xf15);

    // The three Fig. 4 geometry classes, as planner demands. Measured
    // single-stream eviction fractions on this stream: hash-table 0.247,
    // 8-way 0.201, fully-associative 0.201 — the Fig. 5 ordering (higher
    // associativity evicts less, 8-way ≈ full LRU).
    let mut single_rates = Vec::new();
    for (label, ways) in [("hash-table", 1usize), ("8-way", 8), ("fully-assoc", 0)] {
        let plan = CachePlanner::new(budget)
            .plan(&[QueryDemand::new(
                label,
                vec![StoreDemand::new(PAIR_BITS, ways)],
            )])
            .unwrap();
        let store = plan.queries[0].stores[0];
        assert!(store.bits() <= budget);
        let single = run_store(store.geometry, keys.iter().copied());
        let single_rate = single.eviction_fraction();
        assert!(single.evictions > 0, "{label}: sweep must churn the cache");

        for shards in [2usize, 4, 8] {
            let geom = store.shard_geometry(shards).unwrap();
            let geoms = vec![geom; shards];
            // Constant total area: the N shard caches fit the same slice.
            let total_bits: u64 = geoms.iter().map(|g| g.sram_bits(PAIR_BITS)).sum();
            assert!(
                total_bits <= store.slice_bits,
                "{label}/{shards}: {total_bits} bits exceed the slice"
            );
            let agg = sharded_eviction_fraction(&geoms, &keys, 0x5ca1e);
            let ratio = agg / single_rate;
            println!(
                "{label:<12} shards={shards}  single={single_rate:.4}  aggregate={agg:.4}  ratio={ratio:.3}"
            );
            // The pinned envelope: measured ratios sit in [0.99, 1.08]
            // (hash-partitioned keys splay evenly, so per-shard pressure
            // matches the single stream); [0.85, 1.20] leaves room for key
            // mix drift without letting an area regression hide. A broken
            // constant-area split (replicated full-size caches, or caches
            // 1/N² small) lands far outside.
            assert!(
                (0.85..=1.20).contains(&ratio),
                "{label}/{shards}: aggregate {agg:.4} vs single {single_rate:.4} (ratio {ratio:.3})"
            );
        }
        single_rates.push((label, single_rate));
    }
    // Fig. 5's geometry ordering must survive the sweep: the plain hash
    // table evicts strictly most; 8-way tracks the full LRU closely.
    let rate = |l: &str| single_rates.iter().find(|(n, _)| *n == l).unwrap().1;
    assert!(rate("hash-table") > rate("8-way") * 1.1);
    assert!((rate("8-way") - rate("fully-assoc")).abs() < 0.02);
}
