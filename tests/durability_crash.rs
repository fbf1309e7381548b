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
//! resumed re-ingest reproduce each shard's exact sub-stream; its
//! per-shard file names are pinned), and the multi-program
//! [`MultiRuntime`] (two programs sharing one deduplicated store; the
//! sharing analysis is deterministic, so the recovered plane reproduces
//! aliases and `p<id>_` file names). Every recovered drain must
//! also report the records the whole stream holds — the checkpointed
//! prefix plus the re-ingested suffix — not only what it saw since the
//! restart. Uninstall's retired results read back byte-identically, and a
//! failed publish of them is an error that moves nothing. A dense checkpoint
//! schedule sweeps the single-stream plane across compactions that skip
//! the fold (the WAL had not outgrown the segment). A torn-tail
//! suite chops every suffix off a live WAL, and a double-crash suite
//! injects a second fault *during recovery itself* — repair is repair-only
//! and idempotent, so recovering again after a crashed recovery must still
//! converge to the reference.

use perfq::prelude::*;
use perfq_core::Error;
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
/// thread (inside `persist`, workers quiesced), so the `i`-th operation
/// is the same one in every run, whatever the workers' interleaving.
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

/// The I/O error kind of a failed durable call.
fn io_kind(err: &Error) -> std::io::ErrorKind {
    match err {
        Error::Io(e) => e.kind(),
        other => panic!("not an I/O error: {other}"),
    }
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
) -> Result<ResultSet, Error> {
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
) -> Result<ResultSet, Error> {
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
) -> Result<(ResultSet, u64), Error> {
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
) -> Result<(ResultSet, u64), Error> {
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
) -> Result<Vec<(ResultSet, u64)>, Error> {
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
) -> Result<Vec<(ResultSet, u64)>, Error> {
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

/// Run `schedule` with a fault armed at operation `fail_at`; report
/// whether the injected fault actually fired. A fault inside `persist`
/// surfaces as its `Err`, and so does one inside an ingest-time group
/// commit, which the spill tier defers to the next `persist`; a read
/// through the dead tier before that (the drain after the last
/// checkpoint) panics. Every outcome counts.
fn crash_at<T>(
    handle: &Arc<Mutex<FaultBackend>>,
    fail_at: u64,
    torn_bytes: usize,
    schedule: impl FnOnce() -> Result<T, Error>,
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
    run: impl Fn(&SharedBackend) -> Result<T, Error>,
    recover: impl Fn(&SharedBackend) -> Result<T, Error>,
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
            assert_eq!(
                plain, reference,
                "{}: durability must be transparent",
                q.name
            );
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
        assert!(
            total_ops > 0,
            "{}: schedule never touched the backend",
            q.name
        );

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

/// The two-program deployment under `d`.
fn durable_multi(d: Durability) -> MultiRuntime {
    let mut multi = MultiRuntime::new(multi_programs());
    multi.enable_durability(d).expect("enable");
    multi
}

/// An uninstall under durability publishes the departing program's final
/// results: `retired(id)` reads back byte-for-byte what `uninstall`
/// returned — for the owner of a shared store and, after the handoff, for
/// its promoted alias — and knows nothing of ids that never left.
#[test]
fn retired_results_read_back_what_uninstall_returned() {
    let recs = records(TOTAL);
    let (_, backend) = fault_pair();
    let mut multi = durable_multi(durable_small(&backend));
    for (id, upto) in [(0u64, PERSIST_AT[0]), (1, PERSIST_AT[1])] {
        multi.process_batch(&recs[upto - PERSIST_AT[0]..upto]);
        let live = multi.retired(id).expect("read");
        assert!(live.is_none(), "id {id} is live");
        let left = multi.uninstall(id).expect("publish");
        let saw = left.tables.iter().any(|t| !t.rows.is_empty());
        assert!(saw, "id {id} saw records");
        let back = multi.retired(id).expect("read");
        let back = back.expect("published on uninstall");
        assert_eq!(
            perfq_core::encode_results(&back),
            perfq_core::encode_results(&left),
            "retired({id})"
        );
    }
    let never = multi.retired(7).expect("read");
    assert!(never.is_none(), "id 7 never existed");
}

/// A retired file that is present but does not decode is an error, not
/// "never retired": flip the top bit of `retired_0`'s table count after the
/// uninstall, and `retired(0)` must fail with `InvalidData`.
#[test]
fn corrupt_retired_file_is_an_error() {
    let recs = records(TOTAL);
    let (handle, backend) = fault_pair();
    let d = durable_small(&backend);
    let name = d.retired_name(0);
    let mut multi = durable_multi(d);
    multi.process_batch(&recs[..PERSIST_AT[0]]);
    multi.uninstall(0).expect("publish");
    handle.lock().unwrap().mem().flip_bit(&name, 31);
    let err = multi.retired(0).expect_err("a corrupt file must not read");
    assert_eq!(io_kind(&err), std::io::ErrorKind::InvalidData);
}

/// A durable call on a plane that never enabled durability, and an install
/// id that is not installed, are typed errors, not panics.
#[test]
fn calls_without_a_tier_or_an_id_are_errors() {
    let src = fig2::PER_FLOW_COUNTERS.source;
    let mut rt = Runtime::new(compiled(src));
    assert!(matches!(rt.persist(), Err(Error::NotDurable)));
    let mut plane = ShardedRuntime::new(compiled(src), 2);
    assert!(matches!(plane.persist(), Err(Error::NotDurable)));
    let mut multi = MultiRuntime::new(multi_programs());
    assert!(matches!(multi.persist(), Err(Error::NotDurable)));
    assert!(matches!(multi.retired(0), Err(Error::NotDurable)));
    assert!(matches!(multi.uninstall(7), Err(Error::UnknownProgram(7))));
    assert!(matches!(multi.poll(7), Err(Error::UnknownProgram(7))));
    assert_eq!(multi.ids(), &[0, 1]);
}

/// Everything a failed uninstall must leave as it was: the install ids, the
/// sharing report and every program's poll.
fn shape(multi: &mut MultiRuntime) -> (Vec<u64>, String, Vec<ResultSet>) {
    let ids = multi.ids().to_vec();
    let polls = ids.iter().map(|id| multi.poll(*id).expect("live id"));
    let polls = polls.collect();
    (ids, format!("{:?}", multi.sharing()), polls)
}

/// A failed publish of the retired results is an error from `uninstall`,
/// not a panic, and it moves nothing. Uninstall the owner of the shared
/// store with a fault armed at each backend operation of the publish: the
/// call returns `Err`, the program stays installed with its stores and its
/// sharing, and after `heal()` the retried uninstall returns the results a
/// never-faulted twin's returned, `retired(id)` reads them back, and the
/// survivor drains like the twin's ([`durable_resident`], so no ingest
/// touches the backend and every armed fault lands in the publish).
#[test]
fn a_failed_retired_publish_leaves_the_program_installed() {
    let recs = records(TOTAL);
    let mid = PERSIST_AT[0];
    let (h, b) = fault_pair();
    let mut twin = durable_multi(durable_resident(&b));
    twin.process_batch(&recs[..mid]);
    let before = h.lock().expect("fault mutex").ops();
    let departed = twin.uninstall(0).expect("healthy publish");
    let after = h.lock().expect("fault mutex").ops();
    assert!(after > before, "the publish touches the backend");
    twin.process_batch(&recs[mid..]);
    twin.finish();
    let survivors = twin.collect();

    for fail_at in before..after {
        let what = format!("fail_at={fail_at}");
        let (h, b) = fault_pair();
        let mut multi = durable_multi(durable_resident(&b));
        multi.process_batch(&recs[..mid]);
        let was = shape(&mut multi);
        h.lock()
            .expect("fault mutex")
            .arm(fail_at, fail_at as usize % 23);
        assert!(multi.uninstall(0).is_err(), "{what}");
        assert!(
            h.lock().expect("fault mutex").died(),
            "{what}: the fault fired"
        );
        h.lock().expect("fault mutex").heal();
        assert_eq!(shape(&mut multi), was, "{what}: a failed uninstall moved");
        let left = multi.uninstall(0).expect("healed publish");
        assert_eq!(left, departed, "{what}");
        let back = multi.retired(0).expect("read");
        assert_eq!(back.as_ref(), Some(&departed), "{what}: retired(0)");
        multi.process_batch(&recs[mid..]);
        multi.finish();
        assert_eq!(multi.collect(), survivors, "{what}: survivor drain");
    }
}

/// The sharded plane's durable file names are its on-disk format, which
/// files written by an earlier build must still recover under: shard `i`
/// of its one program persists under `p0_s<i>_`, beside one manifest.
#[test]
fn sharded_files_are_named_per_shard_beside_one_manifest() {
    let recs = records(TOTAL);
    let handle = Arc::new(Mutex::new(MemBackend::new()));
    let backend: SharedBackend = handle.clone();
    let d = durable_buffered(&backend);
    let mut plane = ShardedRuntime::new(compiled(fig2::PER_FLOW_COUNTERS.source), 2);
    plane.enable_durability(d.clone()).expect("enable");
    plane.process_batch(&recs[..PERSIST_AT[0]]);
    plane.persist().expect("persist");
    let mut names = handle.lock().expect("mem mutex").names();
    names.sort();
    let want = [
        "MANIFEST",
        "p0_s0_q0_seg",
        "p0_s0_q0_wal",
        "p0_s1_q0_seg",
        "p0_s1_q0_wal",
    ];
    assert_eq!(names, want);
    drop(plane);
    let (_, resume) = ShardedRuntime::recover(compiled(fig2::PER_FLOW_COUNTERS.source), 2, d)
        .expect("the named files recover");
    assert_eq!(resume, PERSIST_AT[0] as u64);
}

/// Checkpoint a single-stream runtime once at `PERSIST_AT[0]` and stop it
/// there, leaving the durable files as a crash would.
fn checkpoint_once(src: &str, recs: &[QueueRecord], backend: &SharedBackend) {
    let mut rt = Runtime::new(compiled(src));
    rt.enable_durability(durable_small(backend))
        .expect("enable");
    rt.process_batch(&recs[..PERSIST_AT[0]]);
    rt.persist().expect("checkpoint");
}

/// A manifest that is present but fails its check is corruption, not
/// "never checkpointed": resuming from record 0 would count again every
/// record the first checkpoint compacted into the segments. Every single
/// bit flipped in the manifest must make recovery fail with `InvalidData`;
/// the healthy manifest still resumes at the checkpoint.
#[test]
fn corrupt_manifest_is_an_error() {
    let recs = records(TOTAL);
    let src = fig2::PER_FLOW_COUNTERS.source;
    let (handle, backend) = fault_pair();
    checkpoint_once(src, &recs, &backend);
    let name = durable_small(&backend).manifest_name();
    let len = handle
        .lock()
        .unwrap()
        .mem()
        .bytes(&name)
        .expect("manifest")
        .len();
    for bit in 0..len * 8 {
        handle.lock().unwrap().mem().flip_bit(&name, bit);
        let err = Runtime::recover(compiled(src), durable_small(&backend))
            .expect_err("a corrupt manifest must not recover");
        assert_eq!(io_kind(&err), std::io::ErrorKind::InvalidData, "bit {bit}");
        handle.lock().unwrap().mem().flip_bit(&name, bit);
    }
    let (_, resume) = Runtime::recover(compiled(src), durable_small(&backend)).expect("healthy");
    assert_eq!(resume, PERSIST_AT[0] as u64);
}

/// Persist writes a base selection's capture file before the manifest
/// names its index, so a manifested capture that is missing or truncated
/// is corruption: recovery must fail with `InvalidData`, not resume with
/// an empty capture.
#[test]
fn missing_or_truncated_capture_is_an_error() {
    let recs = records(TOTAL);
    let src = "SELECT srcip, dstip, tin FROM T WHERE proto == TCP";
    let (handle, backend) = fault_pair();
    checkpoint_once(src, &recs, &backend);
    let name = format!("cap0_{}", PERSIST_AT[0]);
    let bytes = handle
        .lock()
        .unwrap()
        .mem()
        .bytes(&name)
        .expect("capture")
        .to_vec();
    for len in (0..bytes.len()).rev() {
        handle
            .lock()
            .unwrap()
            .mem()
            .truncate(&name, len as u64)
            .unwrap();
        let err = Runtime::recover(compiled(src), durable_small(&backend))
            .expect_err("a truncated capture must not recover");
        assert_eq!(
            io_kind(&err),
            std::io::ErrorKind::InvalidData,
            "{len} bytes"
        );
    }
    handle.lock().unwrap().mem().remove(&name).unwrap();
    let err = Runtime::recover(compiled(src), durable_small(&backend))
        .expect_err("a missing capture must not recover");
    assert_eq!(io_kind(&err), std::io::ErrorKind::InvalidData);
    handle
        .lock()
        .unwrap()
        .mem()
        .write_atomic(&name, &bytes)
        .unwrap();
    let (rt, resume) = Runtime::recover(compiled(src), durable_small(&backend)).expect("healthy");
    assert_eq!(resume, PERSIST_AT[0] as u64);
    assert!(
        !rt.poll_results().expect("poll").tables[0].rows.is_empty(),
        "the capture reads back"
    );
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
            let got =
                recover_single(q.source, &recs, &b, &PERSIST_AT).expect("recovery after torn tail");
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
                assert_eq!(
                    rs, reference,
                    "fail_at={fail_at} second={second}: uncrashed"
                );
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

/// A checkpoint flushes the cache and recovery builds a fresh one, so a
/// drained cache must pick its next victims exactly as a just-built one
/// would — the `Random` policy's victim stream restarts and the
/// fully-associative free list returns to construction order. Stop every
/// Fig. 2 query right after the second checkpoint, recover, re-ingest the
/// tail: on the 4-way and the fully-associative cache, under every policy,
/// the drain and its record count equal the never-crashed run's.
#[test]
fn recovery_after_a_checkpoint_equals_the_never_crashed_run_under_every_policy() {
    let recs = records(TOTAL);
    let policies = [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::Random { seed: 5 },
    ];
    for q in fig2::ALL {
        for (ways, policy) in [4, 0].into_iter().flat_map(|w| policies.map(|p| (w, p))) {
            let what = format!("{} / ways {ways} / {}", q.name, policy.name());
            let program = || {
                let opts = CompileOptions {
                    cache_pairs: 16,
                    ways,
                    policy,
                    ..Default::default()
                };
                perfq_core::compile_query(q.source, &fig2::default_params(), opts)
                    .expect("fig2 compiles")
            };
            let ingest = |b: &SharedBackend| {
                let mut rt = Runtime::new(program());
                rt.enable_durability(durable_resident(b)).expect("enable");
                let mut fed = 0;
                for &p in &PERSIST_AT {
                    rt.process_batch(&recs[fed..p]);
                    fed = p;
                    rt.persist().expect("persist");
                }
                rt
            };
            let (_, backend) = fault_pair();
            let mut rt = ingest(&backend);
            rt.process_batch(&recs[PERSIST_AT[1]..]);
            rt.finish();
            let reference = drained(&rt);

            let (_, backend) = fault_pair();
            drop(ingest(&backend));
            let (mut rt, resume) =
                Runtime::recover(program(), durable_resident(&backend)).expect("recover");
            assert_eq!(resume as usize, PERSIST_AT[1], "{what}");
            rt.process_batch(&recs[PERSIST_AT[1]..]);
            rt.finish();
            assert_eq!(drained(&rt), reference, "{what}");
            assert_eq!(reference.1, recs.len() as u64, "{what}");
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
/// business; it only must not panic. Last, the read: on a plane with a low
/// high-water mark ([`durable_small`]) an ingest-time commit kills the
/// backend, and the poll that reads the dirty spill tier returns `Err`,
/// resumes the workers, and after `heal()` equals a never-faulted twin's
/// poll; the drain still equals the plain run.
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
        let polled = plane.poll_results().expect("poll on the healed backend");
        assert!(
            !polled.tables[0].rows.is_empty(),
            "{what}: poll sees the ingested rows"
        );
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
    healthy
        .enable_durability(durable_resident(&b))
        .expect("enable");
    healthy.process_batch(&recs[..mid]);
    let before = h.lock().expect("fault mutex").ops();
    healthy.persist().expect("healthy persist");
    let after = h.lock().expect("fault mutex").ops();
    drop(healthy);
    assert!(after > before, "persist touches the backend");
    for fail_at in before..after {
        let (h, b) = fault_pair();
        let mut plane = ShardedRuntime::new(compiled(q.source), 2);
        plane
            .enable_durability(durable_resident(&b))
            .expect("enable");
        plane.process_batch(&recs[..mid]);
        h.lock()
            .expect("fault mutex")
            .arm(fail_at, fail_at as usize % 23);
        assert!(plane.persist().is_err(), "fail_at={fail_at}");
        h.lock().expect("fault mutex").heal();
        let _ = plane.persist();
        carry_on(plane, &format!("failed persist, fail_at={fail_at}"));
    }

    // A dead backend under the poll's read of the spill tier.
    let late = PERSIST_AT[1];
    let spilling = |b: &SharedBackend| {
        let mut plane = ShardedRuntime::new(compiled(q.source), 2);
        plane.enable_durability(durable_small(b)).expect("enable");
        plane.process_batch(&recs[..mid]);
        plane.persist().expect("healthy checkpoint");
        plane
    };
    let (_, tb) = fault_pair();
    let mut twin = spilling(&tb);
    twin.process_batch(&recs[mid..late]);
    let (h, b) = fault_pair();
    let mut plane = spilling(&b);
    let at = h.lock().expect("fault mutex").ops();
    h.lock().expect("fault mutex").arm(at, 0);
    plane.process_batch(&recs[mid..late]);
    let err = plane
        .poll_results()
        .expect_err("a poll on the dead backend");
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert!(h.lock().expect("fault mutex").died(), "the fault fired");
    h.lock().expect("fault mutex").heal();
    assert_eq!(
        plane.poll_results().expect("poll after heal"),
        twin.poll_results().expect("never-faulted poll"),
        "healed poll"
    );
    plane.process_batch(&recs[late..]);
    assert_eq!(sorted(plane.finish().collect()), want, "failed poll");
}

/// A poll whose read of a dirty spill tier fails is an error, not a panic,
/// on the single-stream and the multi-program plane: a low high-water mark
/// ([`durable_small`]) keeps the tier dirty, and the first backend
/// operation after a checkpoint — an ingest-time commit — kills the
/// backend. While it is dead every poll returns `Err`; after `heal()` a
/// second poll equals a never-faulted twin's, and the drain equals the
/// twin's drain.
#[test]
fn a_poll_on_a_dead_backend_is_an_error_until_healed() {
    let recs = records(TOTAL);
    let [mid, late] = PERSIST_AT;
    let runtime = |b: &SharedBackend| {
        let mut rt = Runtime::new(compiled(fig2::PER_FLOW_COUNTERS.source));
        rt.enable_durability(durable_small(b)).expect("enable");
        rt.process_batch(&recs[..mid]);
        rt.persist().expect("healthy checkpoint");
        rt
    };
    let (_, tb) = fault_pair();
    let mut twin = runtime(&tb);
    let (h, b) = fault_pair();
    let mut rt = runtime(&b);
    let at = h.lock().expect("fault mutex").ops();
    h.lock().expect("fault mutex").arm(at, 0);
    rt.process_batch(&recs[mid..late]);
    twin.process_batch(&recs[mid..late]);
    assert!(
        h.lock().expect("fault mutex").died(),
        "an ingest commit faulted"
    );
    let err = rt.poll_results().expect_err("a poll on the dead backend");
    assert!(matches!(err, Error::Io(_)), "{err}");
    h.lock().expect("fault mutex").heal();
    let want = twin.poll_results().expect("never-faulted poll");
    assert_eq!(rt.poll_results().expect("poll after heal"), want);
    for plane in [&mut rt, &mut twin] {
        plane.process_batch(&recs[late..]);
        plane.finish();
    }
    assert_eq!(drained(&rt), drained(&twin), "single-stream drain");

    let deployment = |b: &SharedBackend| {
        let mut multi = durable_multi(durable_small(b));
        multi.process_batch(&recs[..mid]);
        multi.persist().expect("healthy checkpoint");
        multi
    };
    let (_, tb) = fault_pair();
    let mut twin = deployment(&tb);
    let (h, b) = fault_pair();
    let mut multi = deployment(&b);
    let at = h.lock().expect("fault mutex").ops();
    h.lock().expect("fault mutex").arm(at, 0);
    multi.process_batch(&recs[mid..late]);
    twin.process_batch(&recs[mid..late]);
    assert!(
        h.lock().expect("fault mutex").died(),
        "an ingest commit faulted"
    );
    for id in multi.ids().to_vec() {
        let err = multi.poll(id).expect_err("a poll on the dead backend");
        assert!(matches!(err, Error::Io(_)), "program {id}: {err}");
    }
    h.lock().expect("fault mutex").heal();
    for id in multi.ids().to_vec() {
        let want = twin.poll(id).expect("never-faulted poll");
        assert_eq!(
            multi.poll(id).expect("poll after heal"),
            want,
            "program {id}"
        );
    }
    for plane in [&mut multi, &mut twin] {
        plane.process_batch(&recs[late..]);
        plane.finish();
    }
    assert_eq!(multi.collect(), twin.collect(), "multi-program drain");
}

/// An uninstall whose final read of a dirty spill tier fails returns the
/// error and moves nothing, as a failed publish does: the program stays
/// installed with its stores and its sharing, and after `heal()` the
/// retried uninstall returns what a never-faulted twin's returned, its
/// retired file reads back, and the survivor drains like the twin's.
#[test]
fn a_failed_final_read_leaves_the_program_installed() {
    let recs = records(TOTAL);
    let [mid, late] = PERSIST_AT;
    let deployment = |b: &SharedBackend| {
        let mut multi = durable_multi(durable_small(b));
        multi.process_batch(&recs[..mid]);
        multi.persist().expect("healthy checkpoint");
        multi
    };
    let (_, tb) = fault_pair();
    let mut twin = deployment(&tb);
    twin.process_batch(&recs[mid..late]);
    let was = shape(&mut twin);
    let departed = twin.uninstall(0).expect("healthy uninstall");
    twin.process_batch(&recs[late..]);
    twin.finish();
    let survivors = twin.collect();

    let (h, b) = fault_pair();
    let mut multi = deployment(&b);
    let at = h.lock().expect("fault mutex").ops();
    h.lock().expect("fault mutex").arm(at, 0);
    multi.process_batch(&recs[mid..late]);
    assert!(
        h.lock().expect("fault mutex").died(),
        "an ingest commit faulted"
    );
    let err = multi
        .uninstall(0)
        .expect_err("a final read on the dead backend");
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert_eq!(multi.ids(), &[0, 1], "the program stays installed");
    h.lock().expect("fault mutex").heal();
    assert_eq!(shape(&mut multi), was, "a failed uninstall moved");
    assert_eq!(multi.uninstall(0).expect("healed uninstall"), departed);
    let back = multi.retired(0).expect("read");
    assert_eq!(back.as_ref(), Some(&departed), "retired(0)");
    multi.process_batch(&recs[late..]);
    multi.finish();
    assert_eq!(multi.collect(), survivors, "survivor drain");
}

/// A failed group commit during ingest is no panic on any plane: the
/// spill tier keeps the frames buffered and the next `persist` returns the
/// error. Fault the first backend operation after a checkpoint — an
/// ingest-time commit on the single-stream runtime and on a two-shard
/// plane's worker threads ([`durable_small`]: a low high-water mark and a
/// small group-commit threshold) — and ingest carries on, `persist` fails
/// while the backend is dead and succeeds once healed, and both the live
/// plane's drain and a recovery from a copy of the healed checkpoint's
/// files equal a never-durable run.
#[test]
fn a_failed_ingest_commit_surfaces_at_the_next_persist() {
    let recs = records(TOTAL);
    let q = fig2::PER_FLOW_COUNTERS;
    let mut plain = Runtime::new(compiled(q.source));
    plain.process_batch(&recs);
    plain.finish();
    let want = (sorted(plain.collect()), recs.len() as u64);
    let [mid, late] = PERSIST_AT;
    // The files as the healed checkpoint left them, on a backend of their own.
    let copy = |h: &Arc<Mutex<FaultBackend>>| -> SharedBackend {
        let files = h.lock().expect("fault mutex").mem().clone();
        Arc::new(Mutex::new(files))
    };

    let (h, b) = fault_pair();
    let mut rt = Runtime::new(compiled(q.source));
    rt.enable_durability(durable_small(&b)).expect("enable");
    rt.process_batch(&recs[..mid]);
    rt.persist().expect("healthy checkpoint");
    let at = h.lock().expect("fault mutex").ops();
    h.lock().expect("fault mutex").arm(at, 0);
    rt.process_batch(&recs[mid..late]);
    assert!(
        h.lock().expect("fault mutex").died(),
        "an ingest commit faulted"
    );
    assert!(rt.persist().is_err(), "persist on the dead backend");
    h.lock().expect("fault mutex").heal();
    rt.persist().expect("persist after heal");
    let (mut back, resume) =
        Runtime::recover(compiled(q.source), durable_small(&copy(&h))).expect("recover");
    assert_eq!(resume, late as u64);
    back.process_batch(&recs[late..]);
    back.finish();
    assert_eq!(drained(&back), want, "single-stream recovery");
    rt.process_batch(&recs[late..]);
    rt.finish();
    assert_eq!(drained(&rt), want, "single-stream drain");

    // Premise: the workers commit during this interval of ingest.
    let (h, b) = fault_pair();
    let mut twin = ShardedRuntime::new(compiled(q.source), 2);
    twin.enable_durability(durable_small(&b)).expect("enable");
    twin.process_batch(&recs[..mid]);
    twin.persist().expect("healthy checkpoint");
    let at = h.lock().expect("fault mutex").ops();
    twin.process_batch(&recs[mid..late]);
    drop(twin.finish());
    assert!(
        h.lock().expect("fault mutex").ops() > at,
        "no ingest commit"
    );

    let (h, b) = fault_pair();
    let mut plane = ShardedRuntime::new(compiled(q.source), 2);
    plane.enable_durability(durable_small(&b)).expect("enable");
    plane.process_batch(&recs[..mid]);
    plane.persist().expect("healthy checkpoint");
    h.lock().expect("fault mutex").arm(at, 0);
    plane.process_batch(&recs[mid..late]);
    assert!(plane.persist().is_err(), "persist on the dead backend");
    h.lock().expect("fault mutex").heal();
    plane.persist().expect("persist after heal");
    let (mut back, resume) =
        ShardedRuntime::recover(compiled(q.source), 2, durable_small(&copy(&h))).expect("recover");
    assert_eq!(resume, late as u64);
    back.process_batch(&recs[late..]);
    assert_eq!(drained(&back.finish()), want, "sharded recovery");
    plane.process_batch(&recs[late..]);
    assert_eq!(drained(&plane.finish()), want, "sharded drain");
}
