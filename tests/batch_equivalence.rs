//! Referee tests for the optimized dataplane: results must not depend on
//! how a stream is cut into batches (one-record batches included), and the
//! whole bytecode/plan engine must reproduce the tree-walking oracle bit for
//! bit (within float tolerance) on every Fig. 2 query — the exact truth
//! without evictions, the residency prediction ([`Oracle::predict`]) under
//! eviction pressure.

use perfq::prelude::*;
use perfq_core::{diff_tables, Prediction};
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

/// A finished runtime against the oracle's residency prediction: tables
/// within float tolerance, validity bits and store counters exact.
fn assert_predicted(rt: &Runtime, want: &Prediction, what: &str) {
    let got = rt.collect();
    assert_eq!(got.tables.len(), want.results.tables.len(), "{what}");
    for (a, b) in got.tables.iter().zip(&want.results.tables) {
        if let Some(d) = diff_tables(a, b, 1e-9) {
            panic!("{what}: {d}");
        }
        let valid = |t: &ResultTable| t.rows.iter().map(|r| r.valid).collect::<Vec<_>>();
        assert_eq!(valid(a), valid(b), "{what}: validity of {}", a.name);
    }
    for (i, stats) in want.stats.iter().enumerate() {
        assert_eq!(rt.store_stats(i), *stats, "{what}: store {i}");
    }
}

/// `process_batch` (any chunking) and `process_record` produce identical
/// result sets and identical hardware statistics.
#[test]
fn batch_and_single_record_processing_are_identical() {
    let recs = records(4_000);
    for q in fig2::ALL {
        for chunk in [1usize, 7, 256, 4_096] {
            let c = compiled(q.source, CompileOptions::default());
            let mut single = Runtime::new(c.clone());
            let mut batched = Runtime::new(c);
            for r in &recs {
                single.process_record(r);
            }
            for part in recs.chunks(chunk) {
                batched.process_batch(part);
            }
            single.finish();
            batched.finish();
            assert_eq!(single.records(), batched.records(), "{}", q.name);
            let idx_count = single.compiled().program.queries.len();
            for i in 0..idx_count {
                assert_eq!(
                    single.store_stats(i),
                    batched.store_stats(i),
                    "{} store {i}",
                    q.name
                );
            }
            assert_eq!(
                single.collect(),
                batched.collect(),
                "{} (chunk {chunk})",
                q.name
            );
        }
    }
}

/// Under eviction pressure the equivalence must still hold exactly — the
/// batching may not change hit/miss/eviction behaviour — and both runs
/// must report what the residency prediction says.
#[test]
fn batch_equivalence_survives_eviction_pressure() {
    let recs = records(3_000);
    let opts = CompileOptions {
        cache_pairs: 16,
        ways: 4,
        ..Default::default()
    };
    for q in fig2::ALL {
        let c = compiled(q.source, opts);
        let want = Oracle::predict(c.clone(), &recs);
        let mut single = Runtime::new(c.clone());
        let mut batched = Runtime::new(c);
        for r in &recs {
            single.process_record(r);
        }
        batched.process_batch(&recs);
        single.finish();
        batched.finish();
        assert_eq!(single.collect(), batched.collect(), "{}", q.name);
        assert_predicted(&single, &want, &format!("{} (single)", q.name));
        assert_predicted(&batched, &want, &format!("{} (batched)", q.name));
    }
}

/// The optimized engine (flat plan + bytecode + inline keys) against the
/// ground-truth oracle (tree-walking interpreter, unbounded state): with an
/// eviction-free cache every Fig. 2 query must agree on every table.
#[test]
fn optimized_engine_matches_oracle_on_fig2() {
    let recs = records(4_000);
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());
        let mut rt = Runtime::new(c.clone());
        let mut oracle = Oracle::new(c);
        for part in recs.chunks(128) {
            rt.process_batch(part);
        }
        for r in &recs {
            oracle.process_record(r);
        }
        rt.finish();
        let got = rt.collect();
        let want = oracle.collect();
        assert_eq!(got.tables.len(), want.tables.len(), "{}", q.name);
        for (a, b) in got.tables.iter().zip(&want.tables) {
            if let Some(d) = diff_tables(a, b, 1e-9) {
                panic!("{}: {}", q.name, d);
            }
        }
    }
}

/// Survivor-bitmask edge case: batch lengths that are not a multiple of the
/// mask word (64) or of the internal chunk width — including length-1
/// batches and a ragged mixed-size split of the same stream. The partial
/// final mask word (`lane_mask(n)` for `n < 64`) must not admit phantom
/// lanes or drop real ones.
#[test]
fn ragged_batch_lengths_are_identical() {
    let recs = records(1_000);
    let sizes = [1usize, 15, 17, 3, 63, 65, 2, 100, 31, 16];
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());
        let mut single = Runtime::new(c.clone());
        let mut batched = Runtime::new(c);
        for r in &recs {
            single.process_record(r);
        }
        let mut rest = &recs[..];
        let mut i = 0;
        while !rest.is_empty() {
            let n = sizes[i % sizes.len()].min(rest.len());
            let (part, tail) = rest.split_at(n);
            batched.process_batch(part);
            rest = tail;
            i += 1;
        }
        single.finish();
        batched.finish();
        assert_eq!(single.records(), batched.records(), "{}", q.name);
        assert_eq!(single.collect(), batched.collect(), "{}", q.name);
    }
}

/// Survivor-bitmask edge case: batches whose filter verdict is uniform —
/// one batch where every record passes `proto == TCP` and one where every
/// record fails it (all-ones and all-zeros survivor masks). The filtered
/// queries must drop the non-TCP batch entirely, and every query must match
/// record-at-a-time over the same concatenated stream.
#[test]
fn all_pass_and_all_drop_batches_are_identical() {
    let recs = records(2_000);
    let tcp_val = Value::Int(6);
    let (tcp, non_tcp): (Vec<_>, Vec<_>) =
        recs.iter().cloned().partition(|r| r.to_row()[4] == tcp_val);
    assert!(
        !tcp.is_empty() && !non_tcp.is_empty(),
        "trace must carry both TCP and non-TCP records"
    );
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());
        let mut single = Runtime::new(c.clone());
        let mut batched = Runtime::new(c);
        for r in tcp.iter().chain(&non_tcp) {
            single.process_record(r);
        }
        batched.process_batch(&tcp);
        batched.process_batch(&non_tcp);
        single.finish();
        batched.finish();
        assert_eq!(single.collect(), batched.collect(), "{}", q.name);
    }
}

/// Sort each 64-record chunk by source address so flow runs form inside
/// the vectorized sweep's lane chunks — the shape the run-coalescing fast
/// path exists for.
fn burstify(recs: &[QueueRecord]) -> Vec<QueueRecord> {
    let mut out = recs.to_vec();
    for chunk in out.chunks_mut(64) {
        chunk.sort_by_key(|r| u32::from(r.packet.headers.ipv4.src));
    }
    out
}

/// Flow-run coalescing: a bursty stream (long equal-key runs inside every
/// chunk) must be byte-identical — results *and* store statistics — to
/// record-at-a-time processing, with coalescing on and off, for every
/// Fig. 2 query (covering counters, constant-A EWMA, and window/epoch
/// folds alike).
#[test]
fn bursty_runs_coalesce_identically() {
    let recs = burstify(&records(4_000));
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());
        let mut single = Runtime::new(c.clone());
        let mut coalesced = Runtime::new(c.clone());
        let mut uncoalesced = Runtime::new(c);
        uncoalesced.set_run_coalescing(false);
        for r in &recs {
            single.process_record(r);
        }
        for part in recs.chunks(256) {
            coalesced.process_batch(part);
            uncoalesced.process_batch(part);
        }
        single.finish();
        coalesced.finish();
        uncoalesced.finish();
        for i in 0..single.compiled().program.queries.len() {
            assert_eq!(
                single.store_stats(i),
                coalesced.store_stats(i),
                "{} store {i} (coalesced)",
                q.name
            );
            assert_eq!(
                single.store_stats(i),
                uncoalesced.store_stats(i),
                "{} store {i} (uncoalesced)",
                q.name
            );
        }
        let want = single.collect();
        assert_eq!(want, coalesced.collect(), "{} (coalesced)", q.name);
        assert_eq!(want, uncoalesced.collect(), "{} (uncoalesced)", q.name);
    }
}

/// Coalescing under eviction pressure: with a tiny cache, a run's first
/// packet may evict a victim mid-chunk while later packets of the same run
/// ride the held slot. Hit/miss/eviction streams and results must still be
/// byte-identical to one-at-a-time processing, and equal the prediction.
#[test]
fn bursty_runs_survive_eviction_pressure_identically() {
    let recs = burstify(&records(3_000));
    let opts = CompileOptions {
        cache_pairs: 16,
        ways: 4,
        ..Default::default()
    };
    for q in fig2::ALL {
        let c = compiled(q.source, opts);
        let want = Oracle::predict(c.clone(), &recs);
        let mut single = Runtime::new(c.clone());
        let mut batched = Runtime::new(c);
        for r in &recs {
            single.process_record(r);
        }
        batched.process_batch(&recs);
        single.finish();
        batched.finish();
        for i in 0..single.compiled().program.queries.len() {
            assert_eq!(
                single.store_stats(i),
                batched.store_stats(i),
                "{} store {i}",
                q.name
            );
        }
        assert_eq!(single.collect(), batched.collect(), "{}", q.name);
        assert_predicted(&batched, &want, q.name);
    }
}

/// Degenerate run shapes: a whole stream of one flow (every chunk is a
/// single maximal run: one probe per chunk), and a strict two-flow
/// alternation (every run has length 1, the coalescer's worst case). Both
/// must match record-at-a-time exactly.
#[test]
fn all_equal_key_and_alternating_chunks_are_identical() {
    let base = records(64);
    let one = &base[0];
    let two = base
        .iter()
        .find(|r| r.packet.headers.ipv4.src != one.packet.headers.ipv4.src)
        .expect("trace has at least two source addresses");
    // One flow, varying fold inputs (times, depths) across the run.
    let single_flow: Vec<QueueRecord> = (0..500u64)
        .map(|i| QueueRecord {
            tin: Nanos(1_000 * i),
            tout: Nanos(1_000 * i + 80 + 13 * (i % 7)),
            qsize: (i % 11) as u32,
            qout: (i % 3) as u32,
            ..one.clone()
        })
        .collect();
    // Strict A/B/A/B alternation: runs never exceed one record.
    let alternating: Vec<QueueRecord> = (0..500u64)
        .map(|i| {
            let proto = if i % 2 == 0 { one } else { two };
            QueueRecord {
                tin: Nanos(1_000 * i),
                tout: Nanos(1_000 * i + 90 + 17 * (i % 5)),
                ..proto.clone()
            }
        })
        .collect();
    for stream in [&single_flow, &alternating] {
        for q in fig2::ALL {
            let c = compiled(q.source, CompileOptions::default());
            let mut single = Runtime::new(c.clone());
            let mut batched = Runtime::new(c);
            for r in stream.iter() {
                single.process_record(r);
            }
            batched.process_batch(stream);
            single.finish();
            batched.finish();
            for i in 0..single.compiled().program.queries.len() {
                assert_eq!(
                    single.store_stats(i),
                    batched.store_stats(i),
                    "{} store {i}",
                    q.name
                );
            }
            assert_eq!(single.collect(), batched.collect(), "{}", q.name);
        }
    }
}
