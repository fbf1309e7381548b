//! Referee tests for the sharded multi-core dataplane: partitioning records
//! by group key across N worker shards and merging fold state on drain must
//! be indistinguishable from the single-stream engine — for every Fig. 2
//! query, at every shard count, including capture totals and network drop
//! counters — and deterministic run to run.

use perfq::prelude::*;
use perfq_core::diff_tables;
use perfq_switch::QueueRecord;

/// A trace with drops, TCP anomalies and multi-queue records.
fn records(n: usize) -> Vec<QueueRecord> {
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    });
    net.run_collect(SyntheticTrace::new(TraceConfig::test_small(21)).take(n))
}

fn compiled(src: &str, opts: CompileOptions) -> CompiledProgram {
    perfq_core::compile_query(src, &fig2::default_params(), opts).expect("fig2 queries compile")
}

fn sorted(mut rs: ResultSet) -> ResultSet {
    rs.sort();
    rs
}

/// The differential pin: for every Fig. 2 query, the same trace through
/// (a) record-at-a-time, (b) `process_batch`, and (c) `ShardedRuntime` at
/// 1/2/4/8 shards produces identical result sets (sorted by key) and
/// identical record counts. Capture totals (`total_matched`) ride along in
/// the table equality.
#[test]
fn sharded_matches_single_and_batched_on_fig2() {
    let recs = records(4_000);
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());
        let mut single = Runtime::new(c.clone());
        let mut batched = Runtime::new(c.clone());
        for r in &recs {
            single.process_record(r);
        }
        for part in recs.chunks(256) {
            batched.process_batch(part);
        }
        single.finish();
        batched.finish();
        let want = sorted(single.collect());
        assert_eq!(
            want,
            sorted(batched.collect()),
            "{}: batch baseline",
            q.name
        );
        assert!(
            ShardSpec::from_compiled(&c).is_exact(),
            "{}: static exactness",
            q.name
        );
        for shards in [1usize, 2, 4, 8] {
            let mut sh = ShardedRuntime::new(c.clone(), shards);
            for part in recs.chunks(512) {
                sh.process_batch(part);
            }
            let merged = sh.finish();
            assert_eq!(
                merged.records(),
                single.records(),
                "{} ({shards} shards): record count",
                q.name
            );
            let got = sorted(merged.collect());
            assert_eq!(got, want, "{} ({shards} shards)", q.name);
            // Capture totals are asserted by table equality; make the drop
            // counter explicit too: the drop rows a query sees are the same.
            for (a, b) in got.tables.iter().zip(&want.tables) {
                assert_eq!(a.total_matched, b.total_matched, "{}: matched", q.name);
            }
        }
    }
}

/// Feeding the shards straight from the network producer
/// (`Network::run_sharded` over SPSC queues) is equivalent to feeding the
/// collected record vector, and the network's drop counters agree with the
/// single-stream run of the same packets.
#[test]
fn network_producer_path_matches_collected_records() {
    let packets: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(21))
        .take(3_000)
        .collect();
    let cfg = NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    };
    for q in [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::PER_FLOW_LOSS_RATE,
    ] {
        let c = compiled(q.source, CompileOptions::default());
        let mut net = Network::new(cfg);
        let mut single = Runtime::new(c.clone());
        let recs = net.run_collect(packets.clone().into_iter());
        let drops_single = net.total_drops();
        for r in &recs {
            single.process_record(r);
        }
        single.finish();
        let want = sorted(single.collect());

        let mut sh = ShardedRuntime::new(c, 4);
        let (mut router, senders) = sh.take_feeds();
        let routed = net.run_sharded(
            packets.clone().into_iter(),
            |r| router.route(r),
            senders,
            128,
        );
        assert_eq!(
            net.total_drops(),
            drops_single,
            "{}: reused network must reproduce the same drops",
            q.name
        );
        assert_eq!(
            routed.iter().sum::<u64>() as usize,
            recs.len(),
            "{}",
            q.name
        );
        assert_eq!(sorted(sh.finish().collect()), want, "{}", q.name);
    }
}

/// Merge-on-drain is exact for every *linear* fold class even under heavy
/// eviction churn inside each shard (tiny caches): additive counters,
/// constant-A EWMA, and the windowed out-of-sequence fold with replay aux
/// all agree with the ground-truth oracle.
#[test]
fn sharded_linear_folds_survive_eviction_pressure() {
    let recs = records(3_000);
    let opts = CompileOptions {
        cache_pairs: 16,
        ways: 4,
        ..Default::default()
    };
    for q in fig2::ALL {
        if !q.paper_linear {
            continue;
        }
        let c = compiled(q.source, opts);
        // Downstream stages legitimately observe cache-local running values
        // under eviction (§3.2), so compare the base aggregation table only
        // — same stance as the single-stream oracle tests.
        let verdict_is_base = matches!(
            c.program.query(q.verdict_query).unwrap().input,
            perfq_lang::QueryInput::Base
        );
        if !verdict_is_base {
            continue;
        }
        let want = Oracle::run(c.clone(), recs.iter().cloned());
        for shards in [2usize, 4] {
            let mut sh = ShardedRuntime::new(c.clone(), shards);
            sh.process_batch(&recs);
            let got = sh.finish().collect();
            let (a, b) = (
                got.table(q.verdict_query).unwrap(),
                want.table(q.verdict_query).unwrap(),
            );
            if let Some(d) = diff_tables(a, b, 1e-9) {
                panic!("{} ({shards} shards): {}", q.name, d);
            }
        }
    }
}

/// Seeded determinism: two sharded runs over the same synthetic trace (same
/// seed, same shard count) drain byte-identical output — catching any
/// nondeterminism in worker scheduling leaking into merge order.
#[test]
fn sharded_drain_is_deterministic() {
    let run = || {
        let recs = records(3_000);
        let c = compiled(fig2::LATENCY_EWMA.source, CompileOptions::default());
        let mut sh = ShardedRuntime::new(c, 4);
        // Route through the batched producer path with an odd chunk size so
        // queue hand-off timing varies between runs; the drain must not.
        for part in recs.chunks(97) {
            sh.process_batch(part);
        }
        let merged = sh.finish();
        let mut rs = merged.collect();
        rs.sort();
        (merged.records(), format!("{rs:?}"))
    };
    let (records_a, bytes_a) = run();
    let (records_b, bytes_b) = run();
    assert_eq!(records_a, records_b);
    assert_eq!(bytes_a, bytes_b, "drained output must be byte-identical");
}

/// The documented bounded-capture caveat, pinned: when a base selection
/// matches more rows than the capture limit, the sharded drain retains the
/// same NUMBER of rows and the same exact total as single-stream, but the
/// retained sample is shard-biased (per-shard prefixes, not the global
/// stream prefix) — the one stream-order divergence sharding permits.
#[test]
fn capture_overflow_keeps_counts_and_totals_exact() {
    let recs = records(2_000);
    let opts = CompileOptions {
        capture_limit: 50,
        ..Default::default()
    };
    let c = compiled("SELECT srcip, dstip FROM T", opts);
    let mut single = Runtime::new(c.clone());
    for r in &recs {
        single.process_record(r);
    }
    single.finish();
    let want = single.collect();
    let mut sh = ShardedRuntime::new(c, 4);
    sh.process_batch(&recs);
    let got = sh.finish().collect();
    assert!(want.tables[0].total_matched > 50, "must overflow the limit");
    assert_eq!(got.tables[0].total_matched, want.tables[0].total_matched);
    assert_eq!(got.tables[0].rows.len(), want.tables[0].rows.len());
    assert_eq!(got.tables[0].rows.len(), 50);
}

/// Store statistics roll up across shards: per-store packet counts sum to
/// the single-stream count (hits/misses differ by design — each shard has
/// its own cache — but no record is lost or double-counted).
#[test]
fn sharded_store_packet_counts_sum() {
    let recs = records(2_000);
    let c = compiled(fig2::PER_FLOW_COUNTERS.source, CompileOptions::default());
    let mut single = Runtime::new(c.clone());
    for r in &recs {
        single.process_record(r);
    }
    single.finish();
    let mut sh = ShardedRuntime::new(c, 4);
    sh.process_batch(&recs);
    let merged = sh.finish();
    assert_eq!(
        merged.store_stats(0).unwrap().packets,
        single.store_stats(0).unwrap().packets
    );
}
