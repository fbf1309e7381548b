//! The hardware prediction as the reference under eviction pressure:
//! [`Oracle::predict`] models every store's cache as a set-associative
//! residency schedule and shares no code with the runtime's executor, store
//! or fold bytecode. Every table — validity bits included — and every
//! store's counters of a [`Runtime`] fed any batching of an evicting trace
//! must equal the prediction — on every Fig. 2 query, a composed query
//! whose non-linear downstream fold reads residency-local upstream values
//! and a packet-window fold, at every cache shape and eviction policy.

use perfq::prelude::*;
use perfq_core::{diff_tables, Prediction};
use perfq_lang::FoldClass;
use perfq_switch::QueueRecord;

/// A trace with drops, TCP anomalies and multi-queue records.
fn records(n: usize) -> Vec<QueueRecord> {
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    });
    net.run_collect(SyntheticTrace::new(TraceConfig::test_small(21)).take(n))
}

/// A linear per-flow counter streamed into a non-linear per-source MAX:
/// the downstream store folds the counter's residency-local running values.
const COMPOSED: &str = "\
R1 = SELECT srcip, dstip, COUNT GROUPBY srcip, dstip
R2 = SELECT srcip, MAX(COUNT) FROM R1 GROUPBY srcip
";

/// A packet-window fold (its state is the last packet's alone): the
/// backing store keeps the latest residency, valid.
const LAST_LATENCY: &str = "\
def last (lat, (tin, tout)):
    lat = tout - tin

SELECT 5tuple, last GROUPBY 5tuple
";

/// Every Fig. 2 query, then [`COMPOSED`] and [`LAST_LATENCY`].
fn queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    (fig2::ALL.iter().map(|q| (q.name, q.source)))
        .chain([("composed", COMPOSED), ("last latency", LAST_LATENCY)])
}

fn compiled(src: &str, opts: CompileOptions) -> CompiledProgram {
    perfq_core::compile_query(src, &fig2::default_params(), opts).expect("query compiles")
}

/// `recs` cut into batches of 1..=max records, the cut points drawn from a
/// seeded SplitMix64 stream.
fn chunkings(recs: &[QueueRecord], seed: u64, max: u64) -> Vec<&[QueueRecord]> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = Vec::new();
    let mut rest = recs;
    while !rest.is_empty() {
        let n = ((1 + next() % max) as usize).min(rest.len());
        let (part, tail) = rest.split_at(n);
        out.push(part);
        rest = tail;
    }
    out
}

/// A finished runtime against its prediction: every table within
/// `diff_tables`' float tolerance with the validity bits exact, and every
/// store's counters equal. Returns the invalid rows seen.
fn assert_predicted(rt: &Runtime, want: &Prediction, what: &str) -> usize {
    let got = rt.collect();
    assert_eq!(got.tables.len(), want.results.tables.len(), "{what}");
    let mut invalid = 0;
    for (a, b) in got.tables.iter().zip(&want.results.tables) {
        if let Some(d) = diff_tables(a, b, 1e-9) {
            panic!("{what}: {d}");
        }
        let valid = |t: &ResultTable| t.rows.iter().map(|r| r.valid).collect::<Vec<_>>();
        assert_eq!(valid(a), valid(b), "{what}: validity of {}", a.name);
        invalid += a.rows.iter().filter(|r| !r.valid).count();
    }
    for (i, stats) in want.stats.iter().enumerate() {
        assert_eq!(rt.store_stats(i), *stats, "{what}: store {i}");
    }
    invalid
}

/// The cache shapes at a capacity the trace's keys overflow: a hash table
/// (one way), 4-way sets, 16-way sets (buckets wider than one tag word),
/// one fully-associative set, and 4-way sets over a set count that is not
/// a power of two (6), where the cache picks its bucket by `%` rather than
/// by mask while the oracle always takes `% sets`.
const SHAPES: [(&str, usize, usize); 5] = [
    ("hash table", 32, 1),
    ("4-way", 32, 4),
    ("16-way", 64, 16),
    ("one set", 24, 0),
    ("4-way, 6 sets", 24, 4),
];

const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::Lru,
    EvictionPolicy::Fifo,
    EvictionPolicy::Random { seed: 7 },
];

#[test]
fn every_shape_and_policy_matches_the_residency_prediction() {
    let class = |src: &str, q: usize| {
        let c = compiled(src, CompileOptions::default());
        c.program.queries[q].fold().map(|f| f.class)
    };
    assert_eq!(class(COMPOSED, 1), Some(FoldClass::NonLinear));
    assert_eq!(
        class(LAST_LATENCY, 0),
        Some(FoldClass::PureWindow { window: 1 })
    );
    let recs = records(1_500);
    let mut nonlinear_invalid = 0;
    let mut seed = 0;
    for (shape, cache_pairs, ways) in SHAPES {
        for policy in POLICIES {
            let opts = CompileOptions {
                cache_pairs,
                ways,
                policy,
                ..Default::default()
            };
            let mut evictions = 0;
            for (name, src) in queries() {
                let c = compiled(src, opts);
                let want = Oracle::predict(c.clone(), &recs);
                let mut rt = Runtime::new(c);
                seed += 1;
                for part in chunkings(&recs, seed, 40) {
                    rt.process_batch(part);
                }
                rt.finish();
                let what = format!("{name} on {shape} / {}", policy.name());
                let invalid = assert_predicted(&rt, &want, &what);
                if name == fig2::TCP_NON_MONOTONIC.name {
                    nonlinear_invalid += invalid;
                }
                evictions += (want.stats.iter().flatten())
                    .map(|s| s.evictions)
                    .sum::<u64>();
            }
            let policy = policy.name();
            assert!(evictions > 0, "{shape} / {policy}: the trace must evict");
        }
    }
    assert!(
        nonlinear_invalid > 0,
        "eviction pressure must invalidate some non-linear keys"
    );
}

/// Nothing evicted, nothing to model: with a cache the trace fits in, the
/// prediction is the exact truth and every key is valid.
#[test]
fn without_evictions_the_prediction_is_the_exact_truth() {
    let recs = records(1_500);
    for (name, src) in queries() {
        let c = compiled(src, CompileOptions::default());
        let want = Oracle::predict(c.clone(), &recs);
        let exact = Oracle::run(c, recs.iter().cloned());
        for (a, b) in want.results.tables.iter().zip(&exact.tables) {
            if let Some(d) = diff_tables(a, b, 1e-9) {
                panic!("{name}: {d}");
            }
            assert!(a.rows.iter().all(|r| r.valid), "{name}: {}", a.name);
        }
        for stats in want.stats.iter().flatten() {
            assert_eq!(stats.evictions, 0, "{name}");
            assert_eq!(stats.packets, stats.hits + stats.misses, "{name}");
            assert_eq!(stats.flush_writes, stats.misses, "{name}");
        }
    }
}
