//! Crash-injection differential harness for the durable tier
//! ([`perfq_kvstore::spill`], [`perfq_core::durable`]).
//!
//! The oracle is a **never-crashed reference**: the same trace through the
//! same deployment with durability enabled and the same persist schedule,
//! on a healthy backend. The harness then re-runs that exact schedule on a
//! [`FaultBackend`] armed to die at the `i`-th mutating I/O operation —
//! for **every** `i` in the reference run's operation count, so every WAL
//! frame boundary, every group commit, the manifest write, and every
//! mid-compaction segment replace each get their own crash — "restarts"
//! the process ([`FaultBackend::heal`] keeps the surviving bytes exactly
//! as the crash left them), recovers, re-ingests the stream from the
//! returned resume index, and requires the final drain to be identical to
//! the reference. Torn appends ride along: each armed fault applies a
//! different prefix of its payload before dying.
//!
//! Covered planes: the single-stream [`Runtime`] (small group-commit
//! threshold, so crashes also land mid-ingest inside group commits), the
//! [`ShardedRuntime`] dataplane (deterministic key routing makes the
//! resumed re-ingest reproduce each shard's exact sub-stream), the
//! multi-program [`MultiRuntime`] (two programs sharing one deduplicated
//! store; the sharing analysis is deterministic, so the recovered plane
//! reproduces aliases and `p<id>_` file names), and the K × N
//! [`MultiSharded`] plane (the same two programs on two shards each, one
//! manifest over every `p<id>_s<i>_` worker). Every recovered drain must
//! also report the records the whole stream holds — the checkpointed
//! prefix plus the re-ingested suffix — not only what it saw since the
//! restart. Uninstall's retired results read back byte-identically on
//! both multi-program planes. A dense checkpoint
//! schedule sweeps the single-stream plane across compactions that skip
//! the fold (the WAL had not outgrown the segment). A torn-tail
//! suite chops every suffix off a live WAL, and a double-crash suite
//! injects a second fault *during recovery itself* — repair is repair-only
//! and idempotent, so recovering again after a crashed recovery must still
//! converge to the reference.

use perfq::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Records 150 and 300 checkpoint; 400 total.
const PERSIST_AT: [usize; 2] = [150, 300];
const TOTAL: usize = 400;

/// A trace with drops, TCP anomalies and multi-queue records.
fn records(n: usize) -> Vec<QueueRecord> {
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    });
    net.run_collect(SyntheticTrace::new(TraceConfig::test_small(21)).take(n))
}

/// Tight cache geometry: evictions (and with a low high-water mark, spill
/// traffic) on a few hundred records.
fn compiled(src: &str) -> CompiledProgram {
    let opts = CompileOptions {
        cache_pairs: 16,
        ways: 4,
        ..Default::default()
    };
    perfq_core::compile_query(src, &fig2::default_params(), opts).expect("fig2 compiles")
}

/// The concrete fault handle and its type-erased alias for the runtime.
fn fault_pair() -> (Arc<Mutex<FaultBackend>>, SharedBackend) {
    let handle = Arc::new(Mutex::new(FaultBackend::new()));
    let backend: SharedBackend = handle.clone();
    (handle, backend)
}

/// Spill config for the single-stream sweeps: a low high-water mark and a
/// small group-commit threshold, so ingest itself appends to the WAL and
/// crashes land inside group commits, not only inside `persist`.
fn durable_small(backend: &SharedBackend) -> Durability {
    Durability::new(backend.clone()).with_spill(SpillConfig {
        high_water: 8,
        group_commit_bytes: 96,
    })
}

/// Spill config for the sharded sweeps: same high-water mark, but a
/// group-commit threshold no ingest reaches — worker threads buffer their
/// frames in RAM and every backend operation happens on the harness
/// thread (inside `persist`, workers quiesced), where an injected fault
/// surfaces as an `Err` instead of a cross-thread panic.
fn durable_buffered(backend: &SharedBackend) -> Durability {
    Durability::new(backend.clone()).with_spill(SpillConfig {
        high_water: 8,
        group_commit_bytes: 1 << 20,
    })
}

/// Default spill config for the failed-call test: a high-water mark far
/// above this trace's key count, so every key keeps its standing in-RAM
/// record (checkpoints only add snapshot frames, which that record
/// supersedes) and no row can be stranded on a backend that failed.
fn durable_resident(backend: &SharedBackend) -> Durability {
    Durability::new(backend.clone())
}

/// A multi-variable constant-A linear fold (`A = [[1, 1], [0, 1]]`): not
/// additive and not kernel-shaped, so it merges through the general tier's
/// per-key `ΠA`. It rides the single-stream and sharded sweeps beside
/// [`fig2::ALL`] because recovery makes a *fresh* `FoldOps` merge two
/// persisted frames of one key before it has folded a packet — the merge
/// must need nothing an instance learns from traffic.
const CROSS_COUPLED: fig2::Fig2Query = fig2::Fig2Query {
    name: "Cross-coupled constant-A",
    source: "def cpl ((u, v), (pkt_len)):\n    u = u + v\n    v = v + pkt_len\n\nSELECT 5tuple, cpl GROUPBY 5tuple\n",
    description: "Two coupled accumulators per 5-tuple.",
    paper_linear: true,
    verdict_query: "__q0",
};

/// The swept queries: every Fig. 2 row plus [`CROSS_COUPLED`].
fn swept() -> impl Iterator<Item = &'static fig2::Fig2Query> {
    fig2::ALL.into_iter().chain([&CROSS_COUPLED])
}

fn sorted(mut rs: ResultSet) -> ResultSet {
    rs.sort();
    rs
}

/// The full schedule on a single-stream runtime: ingest, checkpoint at
/// each persist point, drain.
fn run_single(
    src: &str,
    recs: &[QueueRecord],
    backend: &SharedBackend,
    persist_at: &[usize],
) -> std::io::Result<ResultSet> {
    let mut rt = Runtime::new(compiled(src));
    rt.enable_durability(durable_small(backend))?;
    let mut fed = 0;
    for &p in persist_at {
        rt.process_batch(&recs[fed..p]);
        fed = p;
        rt.persist()?;
    }
    rt.process_batch(&recs[fed..]);
    rt.finish();
    Ok(rt.collect())
}

/// Recover a crashed single-stream deployment and finish the schedule:
/// re-ingest from the resume index, re-persisting at every remaining
/// persist point, then drain.
fn recover_single(
    src: &str,
    recs: &[QueueRecord],
    backend: &SharedBackend,
    persist_at: &[usize],
) -> std::io::Result<ResultSet> {
    let (mut rt, resume) = Runtime::recover(compiled(src), durable_small(backend))?;
    let mut fed = resume as usize;
    for &p in persist_at {
        if p > fed {
            rt.process_batch(&recs[fed..p]);
            fed = p;
            rt.persist()?;
        }
    }
    rt.process_batch(&recs[fed..]);
    rt.finish();
    Ok(rt.collect())
}

/// A drained runtime's sorted results and the records its drain covers.
fn drained(rt: &Runtime) -> (ResultSet, u64) {
    (sorted(rt.collect()), rt.records())
}

/// The same schedule on the sharded dataplane.
fn run_sharded(
    src: &str,
    recs: &[QueueRecord],
    backend: &SharedBackend,
    shards: usize,
) -> std::io::Result<(ResultSet, u64)> {
    let mut plane = ShardedRuntime::new(compiled(src), shards);
    plane.enable_durability(durable_buffered(backend))?;
    let mut fed = 0;
    for &p in &PERSIST_AT {
        plane.process_batch(&recs[fed..p]);
        fed = p;
        plane.persist()?;
    }
    plane.process_batch(&recs[fed..]);
    Ok(drained(&plane.finish()))
}

fn recover_sharded(
    src: &str,
    recs: &[QueueRecord],
    backend: &SharedBackend,
    shards: usize,
) -> std::io::Result<(ResultSet, u64)> {
    let (mut plane, resume) =
        ShardedRuntime::recover(compiled(src), shards, durable_buffered(backend))?;
    let mut fed = resume as usize;
    for &p in &PERSIST_AT {
        if p > fed {
            plane.process_batch(&recs[fed..p]);
            fed = p;
            plane.persist()?;
        }
    }
    plane.process_batch(&recs[fed..]);
    Ok(drained(&plane.finish()))
}

/// The multi-program deployment under test: the §4 counter and the
/// loss-rate program, whose `R1` is that counter verbatim — K = 2 with one
/// deduplicated alias store.
fn multi_programs() -> Vec<CompiledProgram> {
    vec![
        compiled("SELECT COUNT GROUPBY 5tuple\n"),
        compiled(fig2::PER_FLOW_LOSS_RATE.source),
    ]
}

/// The same schedule on the multi-program plane (no mid-stream lifecycle
/// events — [`MultiRuntime::recover`]'s documented scope). Each program's
/// drain, as [`drained`] reports it.
fn run_multi(
    recs: &[QueueRecord],
    backend: &SharedBackend,
) -> std::io::Result<Vec<(ResultSet, u64)>> {
    let mut multi = MultiRuntime::new(multi_programs());
    assert_eq!(multi.sharing().stores.len(), 1, "R1 aliases the counter");
    multi.enable_durability(durable_small(backend))?;
    let mut fed = 0;
    for &p in &PERSIST_AT {
        multi.process_batch(&recs[fed..p]);
        fed = p;
        multi.persist()?;
    }
    multi.process_batch(&recs[fed..]);
    multi.finish();
    Ok(multi.runtimes().iter().map(drained).collect())
}

fn recover_multi(
    recs: &[QueueRecord],
    backend: &SharedBackend,
) -> std::io::Result<Vec<(ResultSet, u64)>> {
    let (mut multi, resume) = MultiRuntime::recover(multi_programs(), durable_small(backend))?;
    let mut fed = resume as usize;
    for &p in &PERSIST_AT {
        if p > fed {
            multi.process_batch(&recs[fed..p]);
            fed = p;
            multi.persist()?;
        }
    }
    multi.process_batch(&recs[fed..]);
    multi.finish();
    Ok(multi.runtimes().iter().map(drained).collect())
}

/// The same schedule on the K × N plane: [`multi_programs`] on two shards
/// each, [`durable_buffered`] so every backend operation happens on the
/// harness thread with the workers quiesced.
fn run_multi_sharded(
    recs: &[QueueRecord],
    backend: &SharedBackend,
) -> std::io::Result<Vec<(ResultSet, u64)>> {
    let mut plane = MultiSharded::new(multi_programs(), 2);
    assert_eq!(plane.sharing().stores.len(), 1, "R1 aliases the counter");
    plane.enable_durability(durable_buffered(backend))?;
    let mut fed = 0;
    for &p in &PERSIST_AT {
        plane.process_batch(&recs[fed..p]);
        fed = p;
        plane.persist()?;
    }
    plane.process_batch(&recs[fed..]);
    Ok(plane.finish().iter().map(drained).collect())
}

fn recover_multi_sharded(
    recs: &[QueueRecord],
    backend: &SharedBackend,
) -> std::io::Result<Vec<(ResultSet, u64)>> {
    let (mut plane, resume) =
        MultiSharded::recover(multi_programs(), 2, durable_buffered(backend))?;
    let mut fed = resume as usize;
    for &p in &PERSIST_AT {
        if p > fed {
            plane.process_batch(&recs[fed..p]);
            fed = p;
            plane.persist()?;
        }
    }
    plane.process_batch(&recs[fed..]);
    Ok(plane.finish().iter().map(drained).collect())
}

/// Run `schedule` with a fault armed at operation `fail_at`; report
/// whether the injected fault actually fired. Faults inside ingest-time
/// group commits surface as panics (the dataplane treats a dead durable
/// tier as fatal), faults inside `persist` as `Err` — both count.
fn crash_at<T>(
    handle: &Arc<Mutex<FaultBackend>>,
    fail_at: u64,
    torn_bytes: usize,
    schedule: impl FnOnce() -> std::io::Result<T>,
) -> Option<T> {
    handle.lock().expect("fault mutex").arm(fail_at, torn_bytes);
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcome = panic::catch_unwind(AssertUnwindSafe(schedule));
    panic::set_hook(hook);
    let died = handle.lock().expect("fault mutex").died();
    handle.lock().expect("fault mutex").heal();
    match outcome {
        Ok(Ok(rs)) if !died => Some(rs),
        _ => None,
    }
}

/// Crash `run` at **every** mutating I/O operation of its healthy twin's
/// schedule, restart, `recover`, and hold every drain to the never-crashed
/// reference, which is returned.
fn sweep<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: impl Fn(&SharedBackend) -> std::io::Result<T>,
    recover: impl Fn(&SharedBackend) -> std::io::Result<T>,
) -> T {
    let (handle, backend) = fault_pair();
    let reference = run(&backend).expect("healthy run");
    let total_ops = handle.lock().expect("fault mutex").ops();
    assert!(total_ops > 0, "{what}: schedule never touched the backend");
    for fail_at in 0..total_ops {
        let (h, b) = fault_pair();
        if let Some(rs) = crash_at(&h, fail_at, fail_at as usize % 23, || run(&b)) {
            assert_eq!(rs, reference, "{what} fail_at={fail_at}: uncrashed");
            continue;
        }
        let got = recover(&b)
            .unwrap_or_else(|e| panic!("{what} fail_at={fail_at}: recovery failed: {e}"));
        assert_eq!(got, reference, "{what} fail_at={fail_at}");
    }
    reference
}

/// Single-stream sweep: crash at **every** mutating I/O boundary of the
/// reference schedule — WAL group commits mid-ingest, checkpoint frames,
/// capture files, the manifest write, and the two mid-compaction segment /
/// WAL replaces — then recover, re-ingest, and hold the drain to the
/// never-crashed reference. Also pins durability transparency: the
/// durable reference itself equals a plain in-RAM run.
#[test]
fn single_stream_recovers_at_every_io_boundary() {
    let recs = records(TOTAL);
    for q in swept() {
        let mut plain_rt = Runtime::new(compiled(q.source));
        plain_rt.process_batch(&recs);
        plain_rt.finish();
        let plain = plain_rt.collect();

        let (handle, backend) = fault_pair();
        let reference = run_single(q.source, &recs, &backend, &PERSIST_AT).expect("healthy run");
        if q.paper_linear {
            assert_eq!(plain, reference, "{}: durability must be transparent", q.name);
        } else {
            // A checkpoint flushes the cache — an eviction barrier. The
            // paper's non-linear folds are invalidated by re-eviction
            // (§3.2), so checkpointing may additionally invalidate keys
            // whose residency spans a persist point; it must never change
            // the key population, and any row valid under both schedules
            // must be bit-identical.
            assert_eq!(plain.tables.len(), reference.tables.len(), "{}", q.name);
            for (pt, rt) in plain.tables.iter().zip(&reference.tables) {
                assert_eq!(pt.rows.len(), rt.rows.len(), "{}: key population", q.name);
                for (pr, rr) in pt.rows.iter().zip(&rt.rows) {
                    if pr.valid && rr.valid {
                        assert_eq!(pr, rr, "{}: row valid in both schedules", q.name);
                    }
                }
            }
        }
        let total_ops = handle.lock().expect("fault mutex").ops();
        assert!(total_ops > 0, "{}: schedule never touched the backend", q.name);

        for fail_at in 0..total_ops {
            let (h, b) = fault_pair();
            let survived = crash_at(&h, fail_at, fail_at as usize % 23, || {
                run_single(q.source, &recs, &b, &PERSIST_AT)
            });
            if let Some(rs) = survived {
                assert_eq!(rs, reference, "{} fail_at={fail_at}: uncrashed", q.name);
                continue;
            }
            let got = recover_single(q.source, &recs, &b, &PERSIST_AT)
                .unwrap_or_else(|e| panic!("{} fail_at={fail_at}: recovery failed: {e}", q.name));
            assert_eq!(got, reference, "{} fail_at={fail_at}", q.name);
        }
    }
}

/// A checkpoint every 40 records: once the first fold has written the
/// table to the segment, most intervals log less than the segment holds,
/// so most compactions skip the fold and the WAL carries several
/// checkpoints.
const DENSE_PERSIST_AT: [usize; 9] = [40, 80, 120, 160, 200, 240, 280, 320, 360];

/// Skipped-compaction sweep: the single-stream contract on
/// [`DENSE_PERSIST_AT`], where some checkpoints fold and some leave the WAL
/// growing past earlier checkpoint frames — a crash at every I/O boundary,
/// on either side of a skipped fold, recovers to the never-crashed
/// reference. The reference must skip at least one fold (its segments'
/// generations count the folds), or this sweep would silently stop covering
/// the skipped path.
#[test]
fn skipped_compactions_recover_at_every_io_boundary() {
    let recs = records(TOTAL);
    for q in [fig2::PER_FLOW_COUNTERS, fig2::LATENCY_EWMA] {
        let (handle, backend) = fault_pair();
        let reference =
            run_single(q.source, &recs, &backend, &DENSE_PERSIST_AT).expect("healthy run");
        let (stores, compactions) = {
            let mut guard = handle.lock().expect("fault mutex");
            let names = guard.mem().names();
            let stores = names.iter().filter(|n| n.ends_with("_wal")).count();
            let compactions: u64 = names
                .iter()
                .filter(|n| n.ends_with("_seg"))
                .filter_map(|n| {
                    guard
                        .mem()
                        .bytes(n)
                        .and_then(perfq_kvstore::wal::read_header)
                })
                .sum();
            (stores, compactions)
        };
        let checkpoints = (stores * DENSE_PERSIST_AT.len()) as u64;
        assert!(
            0 < compactions && compactions < checkpoints,
            "{}: {compactions} folds over {checkpoints} store checkpoints",
            q.name
        );

        let total_ops = handle.lock().expect("fault mutex").ops();
        for fail_at in 0..total_ops {
            let (h, b) = fault_pair();
            let survived = crash_at(&h, fail_at, fail_at as usize % 23, || {
                run_single(q.source, &recs, &b, &DENSE_PERSIST_AT)
            });
            if let Some(rs) = survived {
                assert_eq!(rs, reference, "{} fail_at={fail_at}: uncrashed", q.name);
                continue;
            }
            let got = recover_single(q.source, &recs, &b, &DENSE_PERSIST_AT)
                .unwrap_or_else(|e| panic!("{} fail_at={fail_at}: recovery failed: {e}", q.name));
            assert_eq!(got, reference, "{} fail_at={fail_at}", q.name);
        }
    }
}

/// Sharded sweep: same contract on the two-shard dataplane. Routing is a
/// pure function of the key, so the recovered plane re-ingesting from the
/// resume index reproduces each shard's exact sub-stream, and its drain
/// counts every record of the stream.
#[test]
fn sharded_recovers_at_every_io_boundary() {
    let recs = records(TOTAL);
    for q in swept() {
        let (_, records) = sweep(
            q.name,
            |b| run_sharded(q.source, &recs, b, 2),
            |b| recover_sharded(q.source, &recs, b, 2),
        );
        assert_eq!(records, recs.len() as u64, "{}", q.name);
    }
}

/// Multi-program sweep: same contract on [`MultiRuntime`] — every program's
/// `p<id>_` stores behind the one deployment manifest, the deduplicated
/// alias reading its owner's recovered store. The durable reference also
/// equals a never-durable run (both programs are linear).
#[test]
fn multi_program_recovers_at_every_io_boundary() {
    let recs = records(TOTAL);
    let reference = sweep(
        "multi",
        |b| run_multi(&recs, b),
        |b| recover_multi(&recs, b),
    );
    assert_eq!(
        reference,
        plain_multi(&recs),
        "durability must be transparent"
    );
}

/// Every program's drain on a never-durable [`MultiRuntime`]: the whole
/// stream, each program counting every record of it.
fn plain_multi(recs: &[QueueRecord]) -> Vec<(ResultSet, u64)> {
    let mut plain = MultiRuntime::new(multi_programs());
    plain.process_batch(recs);
    plain.finish();
    let drains: Vec<_> = plain.runtimes().iter().map(drained).collect();
    assert!(drains.iter().all(|(_, n)| *n == recs.len() as u64));
    drains
}

/// K × N sweep: the two-program deployment on two shards per program —
/// every `p<id>_s<i>_` worker behind the one manifest, the alias reading
/// its owner's recovered per-shard stores. Both programs are linear, so
/// the durable sharded reference also equals the never-durable inline
/// plane, record counts included.
#[test]
fn multi_sharded_recovers_at_every_io_boundary() {
    let recs = records(TOTAL);
    let reference = sweep(
        "multi-sharded",
        |b| run_multi_sharded(&recs, b),
        |b| recover_multi_sharded(&recs, b),
    );
    assert_eq!(
        reference,
        plain_multi(&recs),
        "durability and sharding must be transparent"
    );
}

/// The two multi-program planes behind one face.
#[allow(clippy::large_enum_variant)] // one lives per iteration; size is irrelevant
enum Plane {
    Inline(MultiRuntime),
    Sharded(MultiSharded),
}

impl Plane {
    /// The two-program deployment under `d`, inline or on `shards` shards.
    fn durable(shards: Option<usize>, d: Durability) -> Plane {
        let mut plane = match shards {
            None => Plane::Inline(MultiRuntime::new(multi_programs())),
            Some(n) => Plane::Sharded(MultiSharded::new(multi_programs(), n)),
        };
        match &mut plane {
            Plane::Inline(m) => m.enable_durability(d),
            Plane::Sharded(m) => m.enable_durability(d),
        }
        .expect("enable");
        plane
    }

    fn process_batch(&mut self, recs: &[QueueRecord]) {
        match self {
            Plane::Inline(m) => m.process_batch(recs),
            Plane::Sharded(m) => m.process_batch(recs),
        }
    }

    fn uninstall(&mut self, id: u64) -> Option<ResultSet> {
        match self {
            Plane::Inline(m) => m.uninstall(id),
            Plane::Sharded(m) => m.uninstall(id),
        }
    }

    fn retired(&self, id: u64) -> std::io::Result<Option<ResultSet>> {
        match self {
            Plane::Inline(m) => m.retired(id),
            Plane::Sharded(m) => m.retired(id),
        }
    }
}

/// An uninstall under durability publishes the departing program's final
/// results: `retired(id)` reads back byte-for-byte what `uninstall`
/// returned — for the owner of a shared store and, after the handoff, for
/// its promoted alias — and knows nothing of ids that never left. Pinned
/// on the inline plane and on the two-shard plane alike.
#[test]
fn retired_results_read_back_what_uninstall_returned() {
    let recs = records(TOTAL);
    for shards in [None, Some(2)] {
        let (_, backend) = fault_pair();
        let mut plane = Plane::durable(shards, durable_small(&backend));
        for (id, upto) in [(0u64, PERSIST_AT[0]), (1, PERSIST_AT[1])] {
            plane.process_batch(&recs[upto - PERSIST_AT[0]..upto]);
            let live = plane.retired(id).expect("read");
            assert!(live.is_none(), "{shards:?}: id {id} is live");
            let left = plane.uninstall(id).expect("id is live");
            let saw = left.tables.iter().any(|t| !t.rows.is_empty());
            assert!(saw, "{shards:?}: id {id} saw records");
            let back = plane.retired(id).expect("read");
            let back = back.expect("published on uninstall");
            assert_eq!(
                perfq_core::encode_results(&back),
                perfq_core::encode_results(&left),
                "{shards:?}: retired({id})"
            );
        }
        let never = plane.retired(7).expect("read");
        assert!(never.is_none(), "{shards:?}: id 7 never existed");
    }
}

/// A retired file that is present but does not decode is an error, not
/// "never retired": flip the top bit of `retired_0`'s table count after the
/// uninstall, and `retired(0)` must fail with `InvalidData` on both planes.
#[test]
fn corrupt_retired_file_is_an_error() {
    let recs = records(TOTAL);
    for shards in [None, Some(2)] {
        let (handle, backend) = fault_pair();
        let d = durable_small(&backend);
        let name = d.retired_name(0);
        let mut plane = Plane::durable(shards, d);
        plane.process_batch(&recs[..PERSIST_AT[0]]);
        plane.uninstall(0).expect("id is live");
        handle.lock().unwrap().mem().flip_bit(&name, 31);
        let err = plane.retired(0).expect_err("a corrupt file must not read");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{shards:?}");
    }
}

/// Torn tail: stop a deployment between checkpoints (live WAL frames past
/// the manifested one), then chop every possible suffix off every WAL —
/// from one byte to several whole frames. The scanner must stop at the
/// torn frame and recovery must roll back to the manifested checkpoint,
/// whatever the chop.
#[test]
fn torn_wal_tail_rolls_back_to_the_checkpoint() {
    let recs = records(TOTAL);
    for q in fig2::ALL {
        let (_, backend) = fault_pair();
        let reference = run_single(q.source, &recs, &backend, &PERSIST_AT).expect("healthy run");

        // Find how many bytes the largest WAL carries so the chop sweep
        // covers several frames without quadratic blowup.
        for chop in 1..64usize {
            let (h, b) = fault_pair();
            {
                // Ingest past the last checkpoint, then "crash" by drop.
                let mut rt = Runtime::new(compiled(q.source));
                rt.enable_durability(durable_small(&b)).expect("enable");
                let mut fed = 0;
                for &p in &PERSIST_AT {
                    rt.process_batch(&recs[fed..p]);
                    fed = p;
                    rt.persist().expect("persist");
                }
                rt.process_batch(&recs[fed..]);
                // No finish: the post-checkpoint WAL frames stay live.
            }
            let mut guard = h.lock().expect("fault mutex");
            let wals: Vec<(String, usize)> = guard
                .mem()
                .names()
                .into_iter()
                .filter(|n| n.ends_with("_wal"))
                .map(|n| {
                    let len = guard.mem().bytes(&n).expect("live wal").len();
                    (n, len)
                })
                .collect();
            assert!(!wals.is_empty(), "{}: no WAL files", q.name);
            for (name, len) in wals {
                guard
                    .mem()
                    .truncate(&name, len.saturating_sub(chop) as u64)
                    .expect("chop tail");
            }
            drop(guard);
            let got = recover_single(q.source, &recs, &b, &PERSIST_AT).expect("recovery after torn tail");
            assert_eq!(got, reference, "{} chop={chop}", q.name);
        }
    }
}

/// Double crash: die mid-schedule, then die **again at every I/O boundary
/// of the recovery itself** (file repair, re-ingest commits, the re-run
/// checkpoints). Repair only ever discards unreachable suffixes, so a
/// third, clean recovery must still land on the reference.
#[test]
fn crashed_recovery_recovers() {
    let recs = records(TOTAL);
    let q = fig2::PER_FLOW_LOSS_RATE;
    let (handle, backend) = fault_pair();
    let reference = run_single(q.source, &recs, &backend, &PERSIST_AT).expect("healthy run");
    let total_ops = handle.lock().expect("fault mutex").ops();

    // First crash points: a spread across the schedule (every 7th op).
    for fail_at in (0..total_ops).step_by(7) {
        for second in (0..24u64).step_by(3) {
            let (h, b) = fault_pair();
            if crash_at(&h, fail_at, fail_at as usize % 23, || {
                run_single(q.source, &recs, &b, &PERSIST_AT)
            })
            .is_some()
            {
                continue;
            }
            // Second crash, during recovery + re-ingest.
            let survived = crash_at(&h, second, second as usize % 17, || {
                recover_single(q.source, &recs, &b, &PERSIST_AT)
            });
            if let Some(rs) = survived {
                assert_eq!(rs, reference, "fail_at={fail_at} second={second}: uncrashed");
                continue;
            }
            // Third attempt, healed: must converge.
            let got = recover_single(q.source, &recs, &b, &PERSIST_AT).unwrap_or_else(|e| {
                panic!("fail_at={fail_at} second={second}: recovery failed: {e}")
            });
            assert_eq!(got, reference, "fail_at={fail_at} second={second}");
        }
    }
}

/// A failed durable-tier call on the sharded plane is a typed error, not the
/// end of the plane: `enable_durability` and `persist` quiesce the workers,
/// and an `Err` from the backend must still resume them with every in-RAM
/// row intact. After the injected failure the plane ingests, polls and
/// drains normally, and the drain equals a never-durable single-stream run
/// (a linear query, so durable, sharded and plain executions agree exactly;
/// [`durable_resident`], so the in-RAM state is the whole truth). What a
/// later `persist` on the healed backend returns is the spill tier's
/// business; it only must not panic.
#[test]
fn sharded_plane_survives_a_failed_durable_call() {
    let recs = records(TOTAL);
    let q = fig2::PER_FLOW_COUNTERS;
    let mut plain = Runtime::new(compiled(q.source));
    plain.process_batch(&recs);
    plain.finish();
    let want = sorted(plain.collect());
    let mid = PERSIST_AT[0];

    // The rest of the schedule after the healed failure.
    let carry_on = |mut plane: ShardedRuntime, what: &str| {
        plane.process_batch(&recs[mid..PERSIST_AT[1]]);
        let polled = plane.poll_results();
        assert!(!polled.tables[0].rows.is_empty(), "{what}: poll sees the ingested rows");
        plane.process_batch(&recs[PERSIST_AT[1]..]);
        assert_eq!(sorted(plane.finish().collect()), want, "{what}");
    };

    // Fault on the first backend operation of `enable_durability`.
    let (h, b) = fault_pair();
    let mut plane = ShardedRuntime::new(compiled(q.source), 2);
    plane.process_batch(&recs[..mid]);
    h.lock().expect("fault mutex").arm(0, 0);
    assert!(plane.enable_durability(durable_resident(&b)).is_err());
    assert!(h.lock().expect("fault mutex").died(), "the fault fired");
    h.lock().expect("fault mutex").heal();
    carry_on(plane, "failed enable_durability");

    // Fault on every backend operation of the first `persist`.
    let (h, b) = fault_pair();
    let mut healthy = ShardedRuntime::new(compiled(q.source), 2);
    healthy.enable_durability(durable_resident(&b)).expect("enable");
    healthy.process_batch(&recs[..mid]);
    let before = h.lock().expect("fault mutex").ops();
    healthy.persist().expect("healthy persist");
    let after = h.lock().expect("fault mutex").ops();
    drop(healthy);
    assert!(after > before, "persist touches the backend");
    for fail_at in before..after {
        let (h, b) = fault_pair();
        let mut plane = ShardedRuntime::new(compiled(q.source), 2);
        plane.enable_durability(durable_resident(&b)).expect("enable");
        plane.process_batch(&recs[..mid]);
        h.lock().expect("fault mutex").arm(fail_at, fail_at as usize % 23);
        assert!(plane.persist().is_err(), "fail_at={fail_at}");
        h.lock().expect("fault mutex").heal();
        let _ = plane.persist();
        carry_on(plane, &format!("failed persist, fail_at={fail_at}"));
    }
}
