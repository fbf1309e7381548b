//! Hardware-design invariants: the structural properties behind the paper's
//! Fig. 5 and Fig. 6 curves, tested at small scale so they run in CI, plus
//! property-based merge-correctness checks on randomly generated workloads.

use perfq::prelude::*;
use perfq_kvstore::{CounterOps, MaxOps};
use proptest::prelude::*;

fn eviction_fraction(keys: &[u64], geometry: CacheGeometry) -> f64 {
    let mut store: SplitStore<u64, CounterOps> =
        SplitStore::new(geometry, EvictionPolicy::Lru, 9, CounterOps);
    for (i, k) in keys.iter().enumerate() {
        store.observe(*k, &(), Nanos(i as u64));
    }
    store.stats().eviction_fraction()
}

/// A miniature heavy-tailed key stream (hot head + long tail).
fn workload(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 10 < 7 {
                x % 64 // hot set
            } else {
                1000 + x % 4096 // tail
            }
        })
        .collect()
}

#[test]
fn fig5_shape_eviction_rate_decreases_with_cache_size() {
    let keys = workload(60_000, 5);
    let mut prev = f64::INFINITY;
    for pairs in [64usize, 128, 256, 512, 1024] {
        let frac = eviction_fraction(&keys, CacheGeometry::set_associative(pairs, 8));
        assert!(
            frac <= prev + 1e-9,
            "eviction rate must not grow with cache size ({pairs} pairs: {frac} > {prev})"
        );
        prev = frac;
    }
}

#[test]
fn fig5_shape_geometry_ordering() {
    // Full LRU ≤ 8-way ≤ hash table, at equal capacity (the paper's Fig. 5
    // ordering; small slack since hashing is randomized).
    let keys = workload(60_000, 6);
    for pairs in [128usize, 256, 512] {
        let hash = eviction_fraction(&keys, CacheGeometry::hash_table(pairs));
        let way8 = eviction_fraction(&keys, CacheGeometry::set_associative(pairs, 8));
        let full = eviction_fraction(&keys, CacheGeometry::fully_associative(pairs));
        assert!(
            full <= way8 * 1.05 + 1e-9,
            "{pairs} pairs: full {full} vs 8-way {way8}"
        );
        assert!(
            way8 <= hash + 1e-9,
            "{pairs} pairs: 8-way {way8} vs hash {hash}"
        );
    }
}

#[test]
fn fig5_paper_claim_8way_close_to_full_lru() {
    // "using just an 8-way associative cache comes within 2% of this
    // optimum" — with margin for our smaller workload.
    let keys = workload(120_000, 7);
    let pairs = 512;
    let way8 = eviction_fraction(&keys, CacheGeometry::set_associative(pairs, 8));
    let full = eviction_fraction(&keys, CacheGeometry::fully_associative(pairs));
    let gap = (way8 - full).abs();
    assert!(
        gap < 0.05,
        "8-way within a few percent of full LRU (gap {gap})"
    );
}

#[test]
fn fig6_shape_accuracy_monotone_in_cache_size_and_run_length() {
    let keys = workload(60_000, 8);
    // One run over `run` on a fresh store: (valid keys, keys).
    let replay = |pairs: usize, run: &[u64]| -> (usize, usize) {
        let mut store: SplitStore<u64, MaxOps> = SplitStore::new(
            CacheGeometry::set_associative(pairs, 8),
            EvictionPolicy::Lru,
            3,
            MaxOps,
        );
        for (i, k) in run.iter().enumerate() {
            store.observe(*k, &(i as u64), Nanos(i as u64));
        }
        store.flush();
        (store.backing().valid_keys(), store.backing().len())
    };
    let accuracy = |pairs: usize, upto: usize| -> f64 {
        let (valid, total) = replay(pairs, &keys[..upto]);
        valid as f64 / total as f64
    };
    // Larger cache → higher accuracy.
    let a_small = accuracy(64, keys.len());
    let a_big = accuracy(1024, keys.len());
    assert!(a_big >= a_small, "{a_big} vs {a_small}");
    // Shorter run → higher accuracy (at a size with real pressure).
    let a_short = accuracy(128, keys.len() / 5);
    let a_long = accuracy(128, keys.len());
    assert!(a_short >= a_long, "{a_short} vs {a_long}");
    // Five tumbling windows, a fresh store each, weighted by key count:
    // every reset leaves fewer chances to re-insert a key than one full run.
    let (valid, total) = (keys.chunks(keys.len() / 5))
        .map(|w| replay(128, w))
        .fold((0, 0), |(v, t), (wv, wt)| (v + wv, t + wt));
    let a_windows = valid as f64 / total as f64;
    assert!(a_windows >= a_long, "{a_windows} vs {a_long}");
}

#[test]
fn key_value_store_is_exact_where_sketches_err() {
    // The §5 claim behind ablation B, in miniature.
    let keys = workload(50_000, 11);
    let mut store: SplitStore<u64, CounterOps> = SplitStore::new(
        CacheGeometry::set_associative(256, 8),
        EvictionPolicy::Lru,
        13,
        CounterOps,
    );
    let mut sketch = perfq_kvstore::CountMinSketch::new(256, 4, 17);
    let mut truth = std::collections::HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        store.observe(*k, &(), Nanos(i as u64));
        sketch.add(k, 1);
        *truth.entry(*k).or_insert(0u64) += 1;
    }
    store.flush();
    let mut sketch_errs = 0u64;
    for (k, want) in &truth {
        let got = *store.result(k).unwrap().value().unwrap();
        assert_eq!(got, *want, "kv store must be exact for key {k}");
        if sketch.estimate(k) != *want {
            sketch_errs += 1;
        }
    }
    assert!(
        sketch_errs > truth.len() as u64 / 10,
        "undersized sketch should err on many keys (erred on {sketch_errs}/{})",
        truth.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merge correctness as a property over random workloads, cache shapes
    /// and policies: compiled COUNT+SUM results always equal a direct fold.
    #[test]
    fn compiled_counters_always_exact(
        keys in prop::collection::vec(0u64..40, 50..400),
        ways in 1usize..5,
        buckets in 1usize..5,
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => EvictionPolicy::Lru,
            1 => EvictionPolicy::Fifo,
            _ => EvictionPolicy::Random { seed: 3 },
        };
        let compiled = compile_query(
            "SELECT COUNT, SUM(pkt_len) GROUPBY srcport",
            &fig2::default_params(),
            CompileOptions {
                cache_pairs: buckets * ways,
                ways,
                policy,
                ..Default::default()
            },
        ).unwrap();
        let mut rt = Runtime::new(compiled);
        let mut truth: std::collections::HashMap<u64, (i64, i64)> = Default::default();
        for (i, k) in keys.iter().enumerate() {
            let len = 60 + (k * 13 % 1400);
            let pkt = PacketBuilder::udp()
                .src(std::net::Ipv4Addr::new(10, 0, 0, 1), 10_000 + *k as u16)
                .dst(std::net::Ipv4Addr::new(172, 16, 0, 1), 53)
                .payload_len(len as u16)
                .uniq(i as u64)
                .build();
            let rec = perfq_switch::QueueRecord {
                packet: pkt,
                qid: 0,
                tin: Nanos(i as u64 * 100),
                tout: Nanos(i as u64 * 100 + 50),
                qsize: 0,
                qout: 0,
                path: 0,
            };
            rt.process_record(&rec);
            let e = truth.entry(10_000 + k).or_insert((0, 0));
            e.0 += 1;
            e.1 += i64::from(pkt.wire_len);
        }
        rt.finish();
        let rs = rt.collect();
        let t = &rs.tables[0];
        let (ci, si, ki) = (
            t.schema.index_of("COUNT").unwrap(),
            t.schema.index_of("SUM(pkt_len)").unwrap(),
            t.schema.index_of("srcport").unwrap(),
        );
        prop_assert_eq!(t.rows.len(), truth.len());
        for row in &t.rows {
            let key = row.values[ki].as_i64() as u64;
            let (want_count, want_sum) = truth[&key];
            prop_assert_eq!(row.values[ci].as_i64(), want_count);
            prop_assert_eq!(row.values[si].as_i64(), want_sum);
        }
    }

    /// The EWMA merge identity from §3.2:
    /// `s_correct = s_new + (1-α)^N (s_d − s_0)`, checked against brute force
    /// for random latency sequences and eviction points.
    #[test]
    fn ewma_merge_identity(
        lats in prop::collection::vec(0i64..1_000_000, 2..60),
        at in 1usize..50,
        alpha_pct in 1u32..99,
    ) {
        let split = at.min(lats.len() - 1);
        let alpha = f64::from(alpha_pct) / 100.0;
        let ewma = |start: f64, xs: &[i64]| -> f64 {
            xs.iter().fold(start, |s, x| (1.0 - alpha) * s + alpha * (*x as f64))
        };
        // Backing value: fold of the prefix. Cache: fold of the suffix from 0.
        let s_d = ewma(0.0, &lats[..split]);
        let s_new = ewma(0.0, &lats[split..]);
        let n = (lats.len() - split) as i32;
        let merged = s_new + (1.0 - alpha).powi(n) * (s_d - 0.0);
        let direct = ewma(0.0, &lats);
        prop_assert!((merged - direct).abs() <= 1e-9 * (1.0 + direct.abs()),
            "merged {merged} vs direct {direct}");
    }
}
