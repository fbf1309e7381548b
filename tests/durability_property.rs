//! Property suite for the durable tier (vendored proptest + exhaustive
//! corruption sweeps):
//!
//! * **conservation** — random record streams, random checkpoint schedules
//!   and random tier geometries (high-water mark, group-commit threshold)
//!   leave the drained results of a durable deployment equal to a plain
//!   in-RAM run, for every linear fold class (additive, constant-A EWMA,
//!   windowed linear with replay aux);
//! * **recovery idempotence** — repair is repair-only: recovering a
//!   deployment whose *recovery* was itself abandoned converges to the
//!   same drain as recovering once;
//! * **CRC corruption** — flipping any single bit of a live WAL's frame
//!   region is detected: repair truncates at a frame boundary at or before
//!   the corrupted frame, never absorbing garbage, and corruption past the
//!   manifest-covered prefix leaves the recovered drain bit-identical to a
//!   clean recovery;
//! * **remove vs. resurrection** — a removed key stays dead across
//!   compaction and materialization (the tombstone regression: removing
//!   only the RAM record would let older WAL/segment frames resurrect the
//!   key);
//! * **tier confinement is a latch** — once the tier holds frames, a key
//!   without a RAM record keeps spilling even after `remove_key` shrank
//!   the table below the high-water mark, so no RAM record ever shadows
//!   its own key's entry frames at materialization;
//! * **file counts** — a `persist` → `compact` → `recover` round trip over
//!   a fixed input writes exactly the frames and bytes the fat-slot table
//!   wrote (arena iteration changes frame order, never frame counts).

use perfq::prelude::*;
use perfq_core::diff_tables;
use perfq_kvstore::{CounterOps, SplitStore};
use perfq_switch::QueueRecord;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

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

/// The linear fold classes: additive, constant-A (EWMA), windowed linear
/// with aux replay. Non-linear folds are excluded by design — a checkpoint
/// flush is an eviction barrier, and the paper's non-linear folds are
/// invalidated by re-eviction (`tests/durability_crash.rs` pins their
/// weaker contract).
const LINEAR_QUERIES: [&str; 3] = [
    "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
    "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n",
    "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple\n",
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
        4..300,
    )
}

fn compiled(src: &str) -> CompiledProgram {
    let opts = CompileOptions {
        cache_pairs: 8,
        ways: 2,
        ..Default::default()
    };
    perfq_core::compile_query(src, &fig2::default_params(), opts).expect("queries compile")
}

/// A shared in-memory filesystem plus its type-erased runtime alias.
fn mem_pair() -> (Arc<Mutex<MemBackend>>, SharedBackend) {
    let handle = Arc::new(Mutex::new(MemBackend::new()));
    let backend: SharedBackend = handle.clone();
    (handle, backend)
}

/// Fork the filesystem: an independent deployment over a byte-for-byte
/// copy of the current durable state (the property-test stand-in for
/// "restart the process on the same disk").
fn fork(handle: &Arc<Mutex<MemBackend>>) -> (Arc<Mutex<MemBackend>>, SharedBackend) {
    let copy = handle.lock().expect("mem mutex").clone();
    let fork = Arc::new(Mutex::new(copy));
    let backend: SharedBackend = fork.clone();
    (fork, backend)
}

fn durable(backend: &SharedBackend, high_water: usize, group_commit: usize) -> Durability {
    Durability::new(backend.clone()).with_spill(SpillConfig {
        high_water,
        group_commit_bytes: group_commit,
    })
}

/// Ingest with checkpoints at each index of `persist_at` (sorted, deduped,
/// in range), then drain.
fn run_durable(
    src: &str,
    recs: &[QueueRecord],
    d: Durability,
    persist_at: &[usize],
) -> Result<ResultSet, perfq_core::Error> {
    let mut rt = Runtime::new(compiled(src));
    rt.enable_durability(d)?;
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

/// Recover and complete the schedule: re-ingest from the resume index,
/// re-persisting at every remaining checkpoint, then drain.
fn recover_and_finish(
    src: &str,
    recs: &[QueueRecord],
    d: Durability,
    persist_at: &[usize],
) -> Result<ResultSet, perfq_core::Error> {
    let (mut rt, resume) = Runtime::recover(compiled(src), d)?;
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

/// Turn two percentage cuts into a sorted, deduped checkpoint schedule.
fn schedule(len: usize, cuts: (usize, usize)) -> Vec<usize> {
    let mut at: Vec<usize> = [cuts.0, cuts.1]
        .iter()
        .map(|c| c * len / 100)
        .filter(|&p| p > 0 && p < len)
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Conservation: for any stream, checkpoint schedule and tier geometry,
    /// a durable deployment drains to the plain in-RAM run's results —
    /// spilled fresh residencies fold exactly (tier confinement) and
    /// checkpoint snapshots replace rather than re-merge (snapshot
    /// supersession), so no fold class loses or double-counts anything.
    #[test]
    fn durable_drain_conserves_the_plain_run(
        specs in rec_strategy(),
        qsel in 0usize..3,
        high_water in 0usize..12,
        gc_shift in 6u32..13,
        cuts in (1usize..99, 1usize..99),
    ) {
        let recs: Vec<QueueRecord> =
            specs.iter().enumerate().map(|(i, s)| record(*s, i)).collect();
        let src = LINEAR_QUERIES[qsel];

        let mut plain = Runtime::new(compiled(src));
        plain.process_batch(&recs);
        plain.finish();
        let want = plain.collect();

        let (_, backend) = mem_pair();
        let d = durable(&backend, high_water, 1 << gc_shift);
        let got = run_durable(src, &recs, d, &schedule(recs.len(), cuts))
            .expect("healthy backend");

        prop_assert_eq!(got.tables.len(), want.tables.len());
        for (a, b) in got.tables.iter().zip(&want.tables) {
            if let Some(diff) = diff_tables(a, b, 1e-9) {
                return Err(TestCaseError::fail(format!(
                    "query {qsel}, hw {high_water}, gc 2^{gc_shift}: {diff}"
                )));
            }
        }
    }

    /// Recovery idempotence + conservation under a crash: abandoning a
    /// deployment right after a checkpoint and recovering converges to the
    /// plain run; abandoning the *recovery* and recovering again converges
    /// to the same drain bit-for-bit (repair is repair-only).
    #[test]
    fn recovery_is_idempotent_and_conserves(
        specs in rec_strategy(),
        qsel in 0usize..3,
        high_water in 0usize..12,
        cuts in (1usize..99, 1usize..99),
    ) {
        let recs: Vec<QueueRecord> =
            specs.iter().enumerate().map(|(i, s)| record(*s, i)).collect();
        let src = LINEAR_QUERIES[qsel];
        let persist_at = schedule(recs.len(), cuts);
        if persist_at.is_empty() {
            return Ok(());
        }

        let mut plain = Runtime::new(compiled(src));
        plain.process_batch(&recs);
        plain.finish();
        let want = plain.collect();

        // Crash: ingest up to the first checkpoint, persist, drop the
        // runtime without finishing.
        let (handle, backend) = mem_pair();
        {
            let mut rt = Runtime::new(compiled(src));
            rt.enable_durability(durable(&backend, high_water, 1 << 7)).expect("enable");
            rt.process_batch(&recs[..persist_at[0]]);
            rt.persist().expect("checkpoint");
        }

        // Fork A recovers once and completes the schedule.
        let (_, fa) = fork(&handle);
        let a = recover_and_finish(src, &recs, durable(&fa, high_water, 1 << 7), &persist_at)
            .expect("recover A");

        // Fork B abandons its first recovery mid-flight, then recovers
        // again and completes the schedule.
        let (hb, fb) = fork(&handle);
        {
            let _ = Runtime::recover(compiled(src), durable(&fb, high_water, 1 << 7))
                .expect("recover B, abandoned");
        }
        let (_, fb2) = fork(&hb);
        let b = recover_and_finish(src, &recs, durable(&fb2, high_water, 1 << 7), &persist_at)
            .expect("recover B again");

        prop_assert_eq!(&a, &b, "double recovery must equal single recovery");
        prop_assert_eq!(a.tables.len(), want.tables.len());
        for (x, y) in a.tables.iter().zip(&want.tables) {
            if let Some(diff) = diff_tables(x, y, 1e-9) {
                return Err(TestCaseError::fail(format!(
                    "query {qsel}, hw {high_water}: {diff}"
                )));
            }
        }
    }
}

/// Frame start offsets of a WAL image (past the `[magic][generation]`
/// header), by walking the length prefixes.
fn frame_starts(wal: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 12;
    while pos + 8 <= wal.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 8 + len;
    }
    starts
}

/// Exhaustive single-bit corruption sweep over a live WAL's frame region.
///
/// For **every** bit: repair must complete, and the surviving WAL must be a
/// byte-identical prefix of the uncorrupted image cut at a frame boundary
/// at or before the corrupted frame — CRC-32 detects any single-bit error,
/// so a flipped frame (and everything behind it) is discarded, never
/// absorbed. For bits past the manifest-covered checkpoint the recovered
/// drain is additionally bit-identical to a clean recovery, because repair
/// cuts the uncovered suffix either way.
#[test]
fn every_wal_bit_flip_is_detected_and_cut_at_a_frame_boundary() {
    let recs: Vec<QueueRecord> = (0..160)
        .map(|i| {
            record(
                (
                    i as u8 % 6,
                    i as u8 % 4,
                    i as u16 % 3,
                    i as u32 * 37,
                    false,
                    i as u32 % 900,
                ),
                i,
            )
        })
        .collect();
    let src = LINEAR_QUERIES[0];

    // Live deployment: checkpoint at 80, keep ingesting (group commits
    // append uncovered frames), crash before the next checkpoint.
    let (handle, backend) = mem_pair();
    let covered_len;
    {
        let mut rt = Runtime::new(compiled(src));
        rt.enable_durability(durable(&backend, 4, 1 << 6))
            .expect("enable");
        rt.process_batch(&recs[..80]);
        rt.persist().expect("checkpoint");
        covered_len = wal_len(&handle);
        rt.process_batch(&recs[80..]);
    }

    let wal_name = wal_name(&handle);
    let original = handle
        .lock()
        .expect("mem mutex")
        .bytes(&wal_name)
        .expect("wal exists")
        .to_vec();
    assert!(
        original.len() > covered_len,
        "crash must leave uncovered frames"
    );
    let starts = frame_starts(&original);
    let boundaries: Vec<usize> = std::iter::once(12)
        .chain(starts.windows(2).map(|w| w[1]))
        .chain(std::iter::once(original.len()))
        .collect();

    // Clean-recovery reference for the uncovered-suffix equality leg.
    let (_, clean) = fork(&handle);
    let reference =
        recover_and_finish(src, &recs, durable(&clean, 4, 1 << 6), &[80]).expect("clean recovery");

    for bit in (12 * 8)..(original.len() * 8) {
        let byte = bit / 8;
        let frame_start = *starts
            .iter()
            .rev()
            .find(|&&s| s <= byte)
            .expect("byte is past the header");

        let (hf, fb) = fork(&handle);
        hf.lock().expect("mem mutex").flip_bit(&wal_name, bit);
        let got = recover_and_finish(src, &recs, durable(&fb, 4, 1 << 6), &[80])
            .unwrap_or_else(|e| panic!("bit {bit}: repair must complete: {e}"));

        let surviving = hf
            .lock()
            .expect("mem mutex")
            .bytes(&wal_name)
            .expect("wal survives repair")
            .to_vec();
        assert!(
            surviving.len() <= frame_start.max(12),
            "bit {bit}: repair kept bytes past the corrupted frame"
        );
        assert!(
            boundaries.contains(&surviving.len()),
            "bit {bit}: repair cut mid-frame at {}",
            surviving.len()
        );
        assert_eq!(
            surviving,
            original[..surviving.len()],
            "bit {bit}: surviving WAL is not a prefix of the original"
        );
        if byte >= covered_len {
            assert_eq!(
                got, reference,
                "bit {bit}: uncovered corruption must be invisible"
            );
        }
    }
}

fn wal_name(handle: &Arc<Mutex<MemBackend>>) -> String {
    let names = handle.lock().expect("mem mutex").names();
    let mut wals: Vec<String> = names.into_iter().filter(|n| n.ends_with("wal")).collect();
    assert_eq!(wals.len(), 1, "one aggregation, one WAL");
    wals.pop().expect("one wal")
}

fn wal_len(handle: &Arc<Mutex<MemBackend>>) -> usize {
    let name = wal_name(handle);
    handle
        .lock()
        .expect("mem mutex")
        .bytes(&name)
        .map_or(0, <[u8]>::len)
}

/// The tombstone regression: removing a key must kill it in the durable
/// tier too. With only the RAM-side remove, the key's older WAL/segment
/// frames would resurrect it at the next compaction or materialization.
#[test]
fn removed_key_stays_dead_across_compaction() {
    let (_, backend) = mem_pair();
    let mut store: SplitStore<u128, CounterOps> = SplitStore::new(
        CacheGeometry::set_associative(4, 2),
        EvictionPolicy::Lru,
        0xfeed,
        CounterOps,
    );
    // high_water 0: every flushed key is disk-confined.
    store
        .enable_spill(
            backend.clone(),
            "t_",
            SpillConfig {
                high_water: 0,
                group_commit_bytes: 32,
            },
        )
        .expect("enable spill");
    for i in 0..6u128 {
        store.observe(i, &(), Nanos(i as u64));
    }
    store.persist(6).expect("checkpoint");
    store.compact_spill().expect("compact");

    // The victim is now segment-resident. Remove it, then try both
    // resurrection routes: compaction folds the tombstone into the next
    // segment, and materialization replays it over the segment entry. A
    // compaction folds only a WAL that has outgrown the segment, so keep
    // checkpointing new disk-confined keys until one does.
    assert!(
        store.backing().get(&3).is_none(),
        "disk-confined before drain"
    );
    store.remove_key(&3);
    let mut next = 6u128;
    while store.spill_stats().expect("tier enabled").compactions < 2 {
        assert!(next < 64, "the WAL never outgrew the segment");
        store.observe(next, &(), Nanos(next as u64));
        next += 1;
        store.persist(next as u64).expect("checkpoint");
        store.compact_spill().expect("compact after remove");
    }
    store.materialize_spill().expect("drain");
    assert!(store.backing().get(&3).is_none(), "removed key resurrected");
    for i in (0..next).filter(|&i| i != 3) {
        assert!(store.backing().get(&i).is_some(), "unrelated key {i} lost");
    }
}

/// The tier-confinement regression (ROADMAP "tier-1 is red"): the spill
/// decision used to re-test `backing.len() >= high_water` per victim, so
/// after `remove_key` shrank the table a disk-confined key got a fresh RAM
/// record, and `materialize_spill`'s `replace_from` — whose premise is
/// "a RAM record is the complete truth for its key" — threw its older
/// entry frames away.
#[test]
fn disk_confined_key_survives_table_shrink() {
    let (_, backend) = mem_pair();
    let mut s: SplitStore<u64, CounterOps> = SplitStore::new(
        CacheGeometry::fully_associative(1),
        EvictionPolicy::Lru,
        1,
        CounterOps,
    );
    let cfg = SpillConfig {
        high_water: 2,
        group_commit_bytes: 16,
    };
    s.enable_spill(backend, "t_", cfg).expect("enable spill");
    // Fill backing to the high-water mark (2 keys), then spill key 3.
    s.observe(1, &(), Nanos(0));
    s.observe(2, &(), Nanos(1)); // evicts 1 -> RAM
    s.observe(3, &(), Nanos(2)); // evicts 2 -> RAM (len 2 = HW)
    s.observe(4, &(), Nanos(3)); // evicts 3 -> spilled to WAL (count 1)
    s.observe(5, &(), Nanos(4)); // evicts 4 -> spilled

    // Shrink the RAM table below the high-water mark.
    s.remove_key(&1);
    s.remove_key(&2);
    // Key 3 returns and is evicted again: the latch keeps it on disk.
    s.observe(3, &(), Nanos(5));
    s.observe(6, &(), Nanos(6)); // evicts 3 (count 1)
    assert!(
        s.backing().get(&3).is_none(),
        "a RAM record would shadow key 3's frames"
    );
    s.materialize_spill().expect("drain");
    s.flush();
    // Truth: key 3 observed twice.
    assert_eq!(
        *s.result(&3).expect("key 3").value().expect("valid"),
        2,
        "key 3 count"
    );
    for gone in [1u64, 2] {
        assert!(s.result(&gone).is_none(), "removed key {gone} resurrected");
    }
}

/// The parent commit's counts for the fixed input below: `(spilled_frames,
/// commits, checkpoints, compactions)` and `(file bytes, frames)`.
const PARENT_STATS: (u64, u64, u64, u64) = (1637, 820, 2, 1);
const PARENT_WAL_1: (usize, usize) = (40013, 817);
const PARENT_SEG_1: (usize, usize) = (3148, 64);
const PARENT_WAL_2: (usize, usize) = (40258, 822);
const PARENT_SEG_2: (usize, usize) = (3148, 64);

/// File-count pin for the arena table: records now iterate in insertion
/// order, so frame *order* inside the WAL and the segment may differ from
/// the fat-slot table's — but a `persist` → `compact` → `recover` round
/// trip must write exactly as many frames and bytes as before. The counts
/// are the parent commit's (PR 13) for this fixed input.
#[test]
fn persist_compact_recover_writes_the_same_frames_and_bytes() {
    let cfg = SpillConfig {
        high_water: 8,
        group_commit_bytes: 64,
    };
    let fresh = || -> SplitStore<u64, CounterOps> {
        SplitStore::new(
            CacheGeometry::set_associative(4, 2),
            EvictionPolicy::Lru,
            0xfeed,
            CounterOps,
        )
    };
    // 64 keys, LCG-ordered: the table passes the high-water mark long
    // before the first checkpoint, so victims spill throughout.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut feed = |s: &mut SplitStore<u64, CounterOps>, from: u64, to: u64| {
        for i in from..to {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            s.observe((x >> 33) % 64, &(), Nanos(i));
        }
    };
    // (file bytes, frames) of one durable file.
    let shape = |h: &Arc<Mutex<MemBackend>>, name: &str| -> (usize, usize) {
        let be = h.lock().expect("mem mutex");
        let bytes = be.bytes(name).expect("file exists");
        (
            bytes.len(),
            perfq_kvstore::wal::FrameScanner::new(bytes).count(),
        )
    };

    let (handle, backend) = mem_pair();
    let mut s = fresh();
    s.enable_spill(backend, "t_", cfg).expect("enable spill");
    feed(&mut s, 0, 1000);
    s.persist(1000).expect("checkpoint 1");
    let wal_before_compact = shape(&handle, "t_wal");
    s.compact_spill().expect("compact 1");
    feed(&mut s, 1000, 2000);
    s.persist(2000).expect("checkpoint 2");
    let stats = s.spill_stats().expect("tier enabled");
    assert_eq!(
        (
            stats.spilled_frames,
            stats.commits,
            stats.checkpoints,
            stats.compactions
        ),
        PARENT_STATS,
        "frames / commits / checkpoints / compactions"
    );
    assert_eq!(
        wal_before_compact, PARENT_WAL_1,
        "WAL (bytes, frames) at checkpoint 1"
    );
    assert_eq!(
        shape(&handle, "t_seg"),
        PARENT_SEG_1,
        "segment (bytes, frames) after compaction 1"
    );
    assert_eq!(
        shape(&handle, "t_wal"),
        PARENT_WAL_2,
        "WAL (bytes, frames) at checkpoint 2"
    );

    // Crash here; recover on a fork, finish the stream, checkpoint again.
    let (forked, fb) = fork(&handle);
    let mut r = fresh();
    r.recover_spill(fb, "t_", cfg, Some(2000)).expect("recover");
    assert_eq!(r.backing().len(), 64, "every key recovered into RAM");
    feed(&mut r, 2000, 2500);
    r.persist(2500).expect("checkpoint 3");
    r.compact_spill().expect("compact 2");
    assert_eq!(
        shape(&forked, "t_seg"),
        PARENT_SEG_2,
        "segment (bytes, frames) after recovery"
    );
    assert_eq!(
        shape(&forked, "t_wal"),
        (12, 0),
        "compaction leaves an empty WAL"
    );
    r.materialize_spill().expect("drain");
    r.flush();
    let total: u64 = (0..64)
        .map(|k| *r.result(&k).expect("key").value().expect("valid"))
        .sum();
    assert_eq!(total, 2500, "every observation counted once");
}
