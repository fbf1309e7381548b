//! Referee tests for the incremental read path: polling a live deployment
//! must be **non-perturbing** and **exact**.
//!
//! Two properties pin every poll entry point
//! (`Runtime::poll_results`, `ShardedRuntime::poll_results`,
//! `MultiRuntime::poll`, `MultiSharded::poll`):
//!
//! 1. *Non-perturbation* — a replay interrupted by any schedule of polls
//!    drains byte-identical to a never-polled replay of the same records.
//! 2. *Exactness* — every mid-stream poll equals `finish()` + `collect()`
//!    on a **fresh deployment fed exactly the records routed so far** (the
//!    cloned-deployment oracle, realized as a prefix replay).
//!
//! The delta layer (`Runtime::poll_delta` / `DeltaCursor`) is pinned
//! against set-differences of consecutive frames, the sharded poll is
//! additionally stressed with workers mid-ingest on their own threads
//! (snapshot-during-ingest: the reader must never observe a torn frame),
//! and a durable runtime's polls are held to a durable twin's drain, so the
//! read through the spill tier is pinned too.

use perfq::prelude::*;
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

/// The cloned-deployment oracle: what `finish()` + `collect()` reports on a
/// fresh runtime fed exactly `prefix`.
fn prefix_replay(c: &CompiledProgram, prefix: &[QueueRecord]) -> ResultSet {
    let mut rt = Runtime::new(c.clone());
    rt.process_batch(prefix);
    rt.finish();
    sorted(rt.collect())
}

/// Single-stream pin over every Fig. 2 query: polls at several cadences are
/// exact at each instant and invisible to the final drain.
#[test]
fn single_stream_polls_are_exact_and_non_perturbing() {
    let recs = records(3_000);
    for q in fig2::ALL {
        let c = compiled(q.source, CompileOptions::default());

        let mut never_polled = Runtime::new(c.clone());
        for part in recs.chunks(256) {
            never_polled.process_batch(part);
        }
        never_polled.finish();
        let want = sorted(never_polled.collect());

        for every in [1usize, 4] {
            let mut polled = Runtime::new(c.clone());
            let mut seen = 0usize;
            for (i, part) in recs.chunks(256).enumerate() {
                polled.process_batch(part);
                seen += part.len();
                if (i + 1) % every == 0 {
                    let frame = sorted(polled.poll_results());
                    assert_eq!(
                        frame,
                        prefix_replay(&c, &recs[..seen]),
                        "{}: poll after {seen} records (every {every} batches)",
                        q.name
                    );
                }
            }
            polled.finish();
            assert_eq!(
                sorted(polled.collect()),
                want,
                "{}: polled replay must drain identically (every {every})",
                q.name
            );
        }
    }
}

/// Polling a store-less program (pure selection with capture buffers) goes
/// through the capture path, not the snapshot path — pin it too.
#[test]
fn selection_captures_poll_exactly() {
    let recs = records(2_000);
    let c = compiled(
        "SELECT srcip, dstip, tin FROM T WHERE proto == TCP",
        CompileOptions::default(),
    );
    let mut rt = Runtime::new(c.clone());
    rt.process_batch(&recs[..1_000]);
    assert_eq!(sorted(rt.poll_results()), prefix_replay(&c, &recs[..1_000]));
    rt.process_batch(&recs[1_000..]);
    rt.finish();
    assert_eq!(sorted(rt.collect()), prefix_replay(&c, &recs));
}

/// Sharded pin at 1/2/4 shards: polls pause the workers between batches,
/// merge per-shard frames, and resume — exact at each instant, invisible
/// to the drain, across fold classes (additive, EWMA, epoch-mode).
#[test]
fn sharded_polls_are_exact_and_non_perturbing() {
    let recs = records(3_000);
    for q in [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::TCP_NON_MONOTONIC,
    ] {
        let c = compiled(q.source, CompileOptions::default());
        for shards in [1usize, 2, 4] {
            let mut baseline = ShardedRuntime::new(c.clone(), shards);
            for part in recs.chunks(512) {
                baseline.process_batch(part);
            }
            let want = sorted(baseline.finish_collect());

            let mut polled = ShardedRuntime::new(c.clone(), shards);
            let mut seen = 0usize;
            for (i, part) in recs.chunks(512).enumerate() {
                polled.process_batch(part);
                seen += part.len();
                if i % 2 == 0 {
                    assert_eq!(
                        sorted(polled.poll_results()),
                        prefix_replay(&c, &recs[..seen]),
                        "{} ({shards} shards): poll after {seen} records",
                        q.name
                    );
                }
            }
            assert_eq!(
                sorted(polled.finish_collect()),
                want,
                "{} ({shards} shards): polled plane must drain identically",
                q.name
            );
        }
    }
}

/// Snapshot-during-ingest stress: workers run on their own threads with
/// records still in flight through the SPSC rings and staged in producer
/// buffers when the poll lands. `poll_results` must quiesce the plane and
/// report *exactly* the records routed so far — a torn frame (partial
/// batch, half-merged shard, cache/backing double count) shows up as a
/// diff against the prefix oracle.
#[test]
fn sharded_poll_mid_ingest_never_tears() {
    let recs = records(4_000);
    let c = compiled(fig2::PER_FLOW_LOSS_RATE.source, CompileOptions::default());
    let mut plane = ShardedRuntime::new(c.clone(), 4);
    let mut fed = 0usize;
    // Ragged, non-batch-aligned feeding keeps records staged in the
    // producer buffers and resident in the rings at every poll point.
    for (i, chunk) in recs.chunks(313).enumerate() {
        plane.process_batch(chunk);
        fed += chunk.len();
        if i % 3 == 1 {
            assert_eq!(
                sorted(plane.poll_results()),
                prefix_replay(&c, &recs[..fed]),
                "poll with {fed} records routed and workers mid-ingest"
            );
        }
    }
    assert_eq!(sorted(plane.finish_collect()), prefix_replay(&c, &recs));
}

/// Delta layer: `poll_delta` emits exactly the rows that differ from the
/// previous frame (computed independently as a set difference), an
/// unchanged store yields an empty delta, and delta emission never
/// perturbs the frames themselves.
#[test]
fn poll_delta_streams_exactly_the_changed_rows() {
    let recs = records(2_400);
    let c = compiled(fig2::PER_FLOW_COUNTERS.source, CompileOptions::default());
    let mut rt = Runtime::new(c.clone());
    let mut prev = ResultSet::default();
    let mut epochs = Vec::new();
    for part in recs.chunks(400) {
        rt.process_batch(part);
        let frame = sorted(rt.poll_results());
        let mut emitted: Vec<(String, perfq_core::ResultRow)> = Vec::new();
        let epoch = rt.poll_delta(|d| emitted.push((d.table.to_string(), d.row.clone())));
        epochs.push(epoch);
        // Independent diff: rows of the new frame absent from the old one.
        let expect: Vec<(String, perfq_core::ResultRow)> = frame
            .tables
            .iter()
            .zip(prev.tables.iter().map(Some).chain(std::iter::repeat(None)))
            .flat_map(|(cur, old)| {
                cur.rows
                    .iter()
                    .filter(move |r| !old.is_some_and(|o| o.rows.contains(r)))
                    .map(|r| (cur.name.clone(), r.clone()))
            })
            .collect();
        assert_eq!(emitted, expect, "delta == set difference of frames");
        prev = frame;
    }
    assert_eq!(epochs, (1..=epochs.len() as u64).collect::<Vec<_>>());
    // No records between polls: the delta must be empty.
    let n = rt.poll_delta(|_| panic!("unchanged store emitted a delta row"));
    assert_eq!(n, epochs.len() as u64 + 1);
    rt.finish();
    assert_eq!(sorted(rt.collect()), prefix_replay(&c, &recs));
}

/// Multi-program pin, single-stream plane: polling one installed program —
/// including programs whose stores are deduplicated aliases of another
/// program's store — equals a fresh solo replay of the prefix, and the
/// deployment drains as if never polled.
#[test]
fn multi_runtime_poll_matches_solo_prefix_replays() {
    let recs = records(2_400);
    // COUNT-5tuple is duplicated inside the loss-rate program: sharing
    // dedups stores across these, so polls exercise alias redirection.
    let sources = [
        fig2::PER_FLOW_COUNTERS.source,
        fig2::PER_FLOW_LOSS_RATE.source,
        fig2::LATENCY_EWMA.source,
    ];
    let programs: Vec<CompiledProgram> = sources
        .iter()
        .map(|s| compiled(s, CompileOptions::default()))
        .collect();
    let mut multi = MultiRuntime::new(programs.clone());
    let ids = multi.ids().to_vec();
    let mut seen = 0usize;
    for part in recs.chunks(600) {
        multi.process_batch(part);
        seen += part.len();
        for (id, src) in ids.iter().zip(&sources) {
            let frame = sorted(multi.poll(*id).expect("installed id"));
            let c = compiled(src, CompileOptions::default());
            assert_eq!(
                frame,
                prefix_replay(&c, &recs[..seen]),
                "program {src:?} polled after {seen} records"
            );
        }
    }
    assert!(multi.poll(999).is_none(), "unknown id");
    multi.finish();
    let polled_final = multi.collect();
    let mut reference = MultiRuntime::new(programs);
    reference.process_batch(&recs);
    reference.finish();
    for (a, b) in polled_final.into_iter().zip(reference.collect()) {
        assert_eq!(sorted(a), sorted(b), "polls must not perturb the drain");
    }
}

/// Multi-program pin, sharded plane (2 shards): `MultiSharded::poll`
/// quiesces only the involved dataplanes, redirects deduplicated aliases
/// to their owner's live workers, and resumes everything.
#[test]
fn multi_sharded_poll_matches_solo_prefix_replays() {
    let recs = records(2_400);
    let sources = [
        fig2::PER_FLOW_COUNTERS.source,
        fig2::PER_FLOW_LOSS_RATE.source,
    ];
    let programs: Vec<CompiledProgram> = sources
        .iter()
        .map(|s| compiled(s, CompileOptions::default()))
        .collect();
    let mut multi = MultiSharded::new(programs.clone(), 2);
    let ids = multi.ids().to_vec();
    let mut seen = 0usize;
    for (i, part) in recs.chunks(500).enumerate() {
        multi.process_batch(part);
        seen += part.len();
        if i % 2 == 1 {
            for (id, src) in ids.iter().zip(&sources) {
                let frame = sorted(multi.poll(*id).expect("installed id"));
                let c = compiled(src, CompileOptions::default());
                assert_eq!(
                    frame,
                    prefix_replay(&c, &recs[..seen]),
                    "program {src:?} polled after {seen} records (2 shards)"
                );
            }
        }
    }
    let polled_final: Vec<ResultSet> = multi.finish_collect();
    let reference = MultiSharded::new(programs, 2);
    let mut reference = reference;
    reference.process_batch(&recs);
    for (a, b) in polled_final.into_iter().zip(reference.finish_collect()) {
        assert_eq!(sorted(a), sorted(b), "polls must not perturb the drain");
    }
}

/// A durable runtime over a fresh in-memory backend: a 64-pair cache and a
/// high-water mark of 8, so this trace evicts and spills from early on and
/// part of every later read sits in the WAL or its group-commit buffer.
fn durable_runtime(c: &CompiledProgram) -> Runtime {
    let mut rt = Runtime::new(c.clone());
    rt.enable_durability(
        Durability::new(shared(MemBackend::new())).with_spill(SpillConfig {
            high_water: 8,
            group_commit_bytes: 256,
        }),
    )
    .expect("in-memory attach");
    rt
}

/// Polls read through the spill tier: on a durable runtime every poll —
/// before the first eviction (a still-clean tier), over spilled frames, and
/// across a mid-stream `persist()` — equals `finish()` + `collect()` of a
/// fresh durable twin fed the same prefix on the same persist schedule, and
/// the polled runtime drains like the never-polled one. The oracle has to be
/// durable itself: a checkpoint regroups an EWMA's float merges, so against
/// a plain replay `LATENCY_EWMA` is one ulp off in a few rows after the
/// `persist()` (and bit-identical before it).
#[test]
fn durable_polls_read_through_the_spill_tier() {
    const BATCH: usize = 256;
    const PERSIST_AFTER: usize = 5;
    let recs = records(3_000);
    // `batches` batches of the stream into a fresh durable runtime,
    // checkpointing where the polled runtime does, then drained.
    let twin = |c: &CompiledProgram, batches: usize| {
        let mut rt = durable_runtime(c);
        for (i, part) in recs.chunks(BATCH).take(batches).enumerate() {
            rt.process_batch(part);
            if i + 1 == PERSIST_AFTER {
                rt.persist().expect("in-memory persist");
            }
        }
        rt.finish();
        sorted(rt.collect())
    };
    let opts = CompileOptions {
        cache_pairs: 64,
        ..CompileOptions::default()
    };
    let mut spilling = 0;
    for q in fig2::ALL {
        let c = compiled(q.source, opts);
        let mut polled = durable_runtime(&c);
        for (i, part) in recs.chunks(BATCH).enumerate() {
            polled.process_batch(part);
            if i + 1 == PERSIST_AFTER {
                polled.persist().expect("in-memory persist");
            }
            assert_eq!(
                sorted(polled.poll_results()),
                twin(&c, i + 1),
                "{}: durable poll after {} batches",
                q.name,
                i + 1
            );
        }
        // Evictions far past the high-water mark: the reads above crossed
        // the tier (the few-key percentile query is the one that never does).
        spilling += usize::from(polled.store_stats(0).is_some_and(|s| s.evictions > 100));
        polled.finish();
        assert_eq!(
            sorted(polled.collect()),
            twin(&c, usize::MAX),
            "{}: the polled durable runtime must drain identically",
            q.name
        );
    }
    assert!(spilling >= 6, "only {spilling} queries spilled");
}
