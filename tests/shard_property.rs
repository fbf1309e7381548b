//! Property suite for the sharded dataplane (vendored proptest): random
//! record batches and shard counts, asserting
//!
//! * sharded-vs-oracle equivalence for every fold class (additive counter,
//!   constant-A EWMA, windowed linear with replay aux, non-linear), and
//! * the partitioning invariant — shard assignment is a pure function of
//!   the group key, so no key ever lands on two shards, and no record is
//!   lost or duplicated.

use perfq::prelude::*;
use perfq_core::{diff_tables, ShardRouter, ShardSpec};
use perfq_switch::QueueRecord;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One synthetic observation, compact enough for a proptest strategy.
type RecSpec = (u8, u8, u16, u32, bool, u32);

fn record((src, dst, port, seq, dropped, jitter): RecSpec, i: usize) -> QueueRecord {
    let t = 500 * i as u64;
    QueueRecord {
        packet: PacketBuilder::tcp()
            .src(Ipv4Addr::new(10, 0, 0, src), 1000 + port)
            .dst(Ipv4Addr::new(172, 16, 0, dst), 80)
            .seq(seq)
            .payload_len(100)
            .uniq(i as u64)
            .build(),
        qid: 1,
        tin: Nanos(t),
        tout: if dropped {
            Nanos::INFINITY
        } else {
            Nanos(t + 100 + u64::from(jitter))
        },
        qsize: jitter % 64,
        qout: 0,
        path: 1,
    }
}

/// The fold-class coverage matrix: additive, constant-A (EWMA), windowed
/// linear with aux replay, and non-linear (epoch mode).
const QUERIES: [&str; 4] = [
    "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
    "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n",
    "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple\n",
    "def nonmt ((maxseq, nm_count), tcpseq):\n    if maxseq > tcpseq:\n        nm_count = nm_count + 1\n    maxseq = max(maxseq, tcpseq)\n\nSELECT 5tuple, nonmt GROUPBY 5tuple\n",
];

fn rec_strategy() -> impl Strategy<Value = Vec<RecSpec>> {
    prop::collection::vec(
        (
            0u8..6,
            0u8..4,
            0u16..3,
            0u32..5000,
            prop_oneof![Just(false), Just(false), Just(false), Just(true)],
            0u32..900,
        ),
        1..400,
    )
}

/// Run-structured streams: each spec repeats as a run of consecutive
/// same-flow records (varying times/depths within the run), so the
/// vectorized sweep's flow-run coalescing engages on real multi-record
/// runs — including runs that straddle chunk boundaries.
fn bursty_strategy() -> impl Strategy<Value = Vec<(RecSpec, u8)>> {
    prop::collection::vec(
        (
            (
                0u8..6,
                0u8..4,
                0u16..3,
                0u32..5000,
                prop_oneof![Just(false), Just(false), Just(false), Just(true)],
                0u32..900,
            ),
            1u8..12,
        ),
        1..80,
    )
}

fn expand_runs(specs: &[(RecSpec, u8)]) -> Vec<QueueRecord> {
    let mut recs = Vec::new();
    for (spec, run_len) in specs {
        for _ in 0..*run_len {
            let i = recs.len();
            let mut r = record(*spec, i);
            // Vary the fold inputs inside the run so every packet of it
            // folds a different contribution.
            r.qsize = (r.qsize + i as u32) % 64;
            recs.push(r);
        }
    }
    recs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Run-coalescing under sharding: bursty run-structured streams equal
    /// the unbounded-state oracle for every fold class, at any shard
    /// count, with eviction pressure from a deliberately small cache —
    /// runs interrupted by evictions, all-equal-key stretches, and runs
    /// straddling epoch (residency) boundaries all included.
    #[test]
    fn bursty_sharded_equals_oracle(
        specs in bursty_strategy(),
        shards in 1usize..9,
        qsel in 0usize..4,
        tiny_cache in prop_oneof![Just(false), Just(true)],
    ) {
        let recs = expand_runs(&specs);
        // Eviction pressure is only legal for the merge-exact classes:
        // non-linear folds (qsel 3) go to epoch mode, whose evicted
        // residencies genuinely cannot be merged back to the oracle's
        // unbounded state (the paper's §3.2 linear-in-state argument).
        let opts = if tiny_cache && qsel != 3 {
            CompileOptions { cache_pairs: 8, ways: 2, ..Default::default() }
        } else {
            CompileOptions::default()
        };
        let c = perfq_core::compile_query(QUERIES[qsel], &fig2::default_params(), opts)
            .expect("coverage queries compile");
        let want = Oracle::run(c.clone(), recs.iter().cloned());
        let mut sh = ShardedRuntime::new(c, shards);
        sh.process_batch(&recs);
        let merged = sh.finish();
        prop_assert_eq!(merged.records(), recs.len() as u64, "no record lost or duplicated");
        let got = merged.collect();
        prop_assert_eq!(got.tables.len(), want.tables.len());
        for (a, b) in got.tables.iter().zip(&want.tables) {
            if let Some(d) = diff_tables(a, b, 1e-9) {
                return Err(TestCaseError::fail(format!(
                    "bursty query {qsel}, {shards} shards (tiny_cache {tiny_cache}): {d}"
                )));
            }
        }
    }

    /// Sharded execution equals the unbounded-state oracle for every fold
    /// class, at any shard count.
    #[test]
    fn sharded_equals_oracle(specs in rec_strategy(), shards in 1usize..9, qsel in 0usize..4) {
        let recs: Vec<QueueRecord> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| record(*s, i))
            .collect();
        let c = perfq_core::compile_query(
            QUERIES[qsel],
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .expect("coverage queries compile");
        let want = Oracle::run(c.clone(), recs.iter().cloned());
        let mut sh = ShardedRuntime::new(c, shards);
        sh.process_batch(&recs);
        let merged = sh.finish();
        prop_assert_eq!(merged.records(), recs.len() as u64, "no record lost or duplicated");
        let got = merged.collect();
        prop_assert_eq!(got.tables.len(), want.tables.len());
        for (a, b) in got.tables.iter().zip(&want.tables) {
            if let Some(d) = diff_tables(a, b, 1e-9) {
                return Err(TestCaseError::fail(format!(
                    "query {qsel}, {shards} shards: {d}"
                )));
            }
        }
    }

    /// The partitioning invariant: shard assignment depends only on the
    /// group-key column values — equal keys always co-locate.
    #[test]
    fn shard_assignment_is_pure_in_the_group_key(
        specs in rec_strategy(),
        shards in 1usize..9,
    ) {
        let c = perfq_core::compile_query(
            "SELECT COUNT GROUPBY srcip, dstip",
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap();
        let mut router = ShardRouter::new(ShardSpec::from_compiled(&c), shards);
        let mut key_to_shard: HashMap<(Ipv4Addr, Ipv4Addr), usize> = HashMap::new();
        for (i, s) in specs.iter().enumerate() {
            let r = record(*s, i);
            let shard = router.route(&r);
            prop_assert!(shard < shards);
            let key = (r.packet.headers.ipv4.src, r.packet.headers.ipv4.dst);
            if let Some(prev) = key_to_shard.insert(key, shard) {
                prop_assert_eq!(prev, shard, "key {:?} landed on two shards", key);
            }
        }
    }
}
