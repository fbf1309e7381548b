//! The durable spill tier: WAL-backed overflow for a [`BackingStore`]
//! past a configurable in-RAM high-water mark, with segment compaction.
//!
//! A [`SpillTier`] owns two files on a [`SharedBackend`]:
//!
//! * `<prefix>wal` — the append-only log. Evictions that would grow the
//!   in-RAM backing table past [`SpillConfig::high_water`] encode as
//!   [`TAG_ENTRY`] frames into a reusable group-commit buffer and reach the
//!   backend in batched `append` + `sync` pairs, so the warm ingest path
//!   performs no per-eviction I/O and no steady-state allocation.
//! * `<prefix>seg` — the compacted segment: the order-free fold
//!   ([`BackingStore::absorb_entry`]) of every WAL frame up to the last
//!   checkpoint that folded, republished atomically with a bumped
//!   generation number.
//!
//! **Compaction is amortized.** A checkpoint's [`SpillTier::compact`] folds
//! only once the WAL has outgrown the segment (bytes committed since the
//! last fold ≥ the segment's size); otherwise the WAL keeps its frames,
//! checkpoint frames included, and readers replay segment + WAL as always.
//! Folding never changes what is durable — it only shortens replay — so
//! rewrite work is O(bytes logged) rather than O(table) per checkpoint, and
//! the files never hold more than the segment, a WAL no larger than it, and
//! one checkpoint's commits.
//!
//! **Tier confinement invariant.** A key with a standing in-RAM record
//! always merges there. A victim whose key has none is routed to the WAL
//! when the RAM table is at the high-water mark — and from then on the
//! decision is a *latch*: while the tier holds frames
//! ([`SpillTier::is_dirty`]), every victim without a RAM record spills,
//! also after [`crate::SplitStore::remove_key`] shrank the table below the
//! mark, until a final materialization folds the disk back and retires the
//! tier. Hence entry frames on disk ⇒ no RAM record for that key: a
//! disk-confined key's frames are written in temporal order and fold
//! exactly, fresh residency by fresh residency, and a RAM record never
//! shadows older entry frames of its own key (`tests/durability_property.rs`
//! pins the table-shrink case).
//!
//! **Snapshot supersession invariant.** Checkpoints
//! ([`crate::SplitStore::persist`]) dump standing RAM records as
//! [`TAG_SNAPSHOT`] frames. A standing record is already a composite, and a
//! fold-state merge is only exact when the incoming operand is a fresh
//! cache residency — so a snapshot *replaces* whatever older frames folded
//! to at replay, and the live RAM record in turn replaces its own snapshots
//! at materialization ([`BackingStore::replace_from`]). Between the two
//! invariants no composite is ever the evicted side of a merge, which is
//! what keeps recovery exact for non-commutative linear folds like EWMA.
//!
//! See the crate docs ("Durability & recovery") for the full frame format
//! and the recovery-equals-absorb argument.

use crate::backing::{BackingEntry, BackingStore, Epoch, EpochList, MergeMode};
use crate::wal::{
    begin_frame, end_frame, put_header, read_header, ByteReader, ByteWriter as _, FrameScanner,
    Persist, SharedBackend, HEADER_LEN, TAG_CHECKPOINT, TAG_ENTRY, TAG_SNAPSHOT, TAG_TOMBSTONE,
};
use perfq_packet::Nanos;
use std::hash::Hash;
use std::io;

/// Tuning knobs for a [`SpillTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// In-RAM backing-table population above which evictions of *new* keys
    /// spill to the WAL instead of growing the table.
    pub high_water: usize,
    /// Group-commit threshold: buffered frame bytes are appended + synced
    /// once the buffer reaches this size (and at every flush/checkpoint).
    pub group_commit_bytes: usize,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            high_water: 1 << 16,
            group_commit_bytes: 64 * 1024,
        }
    }
}

/// Operation counters for a [`SpillTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Entry + snapshot frames written (victim spills + checkpoint dumps).
    pub spilled_frames: u64,
    /// Tombstone frames written.
    pub tombstones: u64,
    /// Group commits (backend `append`+`sync` pairs).
    pub commits: u64,
    /// Checkpoint frames written.
    pub checkpoints: u64,
    /// Compactions that folded the WAL into the segment (a checkpoint whose
    /// WAL had not outgrown the segment is not one).
    pub compactions: u64,
}

fn encode_of<T: Persist>(v: &T, out: &mut Vec<u8>) {
    v.encode(out);
}

fn decode_of<T: Persist>(r: &mut ByteReader<'_>) -> Option<T> {
    T::decode(r)
}

/// The bytes of an empty WAL at `generation`.
fn empty_wal(generation: u64) -> Vec<u8> {
    let mut hdr = Vec::with_capacity(HEADER_LEN);
    put_header(&mut hdr, generation);
    hdr
}

/// The durable spill tier of one store.
///
/// Generic over key and value but **bound-free on the hot path**: the
/// `Persist` codecs are captured as plain function pointers at
/// construction ([`SpillTier::open`]), so routing a victim needs no trait
/// bounds and monomorphizes to direct calls.
///
/// Cloning shares the backend (`Arc`) and file names — clones of a durable
/// store alias the same durable state. The runtime layers only clone
/// stores for lifecycle bookkeeping before any spilling has happened.
#[derive(Debug, Clone)]
pub struct SpillTier<K, V> {
    backend: SharedBackend,
    wal: String,
    seg: String,
    cfg: SpillConfig,
    mode: MergeMode,
    /// Generation of the current WAL/segment pair (bumped per compaction).
    generation: u64,
    /// Reusable group-commit buffer of encoded, not-yet-committed frames.
    buf: Vec<u8>,
    /// True when the tier holds durable frames (WAL body or segment).
    dirty: bool,
    /// Set once the tier's durable truth has been folded back into RAM by a
    /// final materialization — further reads must not re-apply it.
    retired: bool,
    /// Keys the last compaction folded into the segment (0 when this tier
    /// has not folded) — replay tables are presized from it.
    segment_keys: usize,
    /// WAL file length as of the last successful commit: a failed commit
    /// cuts back to it, reads never look past it, and `wal_len - HEADER_LEN`
    /// is what was logged since the last fold.
    wal_len: u64,
    /// Segment file length (0 when there is none).
    seg_len: u64,
    /// A failed commit could not cut the WAL back to `wal_len` (the backend
    /// was dead): the next commit cuts first.
    wal_torn: bool,
    /// A compaction published its segment but could not replace the WAL:
    /// the file on disk is older than the segment (reads skip it as
    /// folded), and the next commit replaces it with an empty log at
    /// `generation` before it appends.
    wal_stale: bool,
    stats: SpillStats,
    enc_key: fn(&K, &mut Vec<u8>),
    dec_key: fn(&mut ByteReader<'_>) -> Option<K>,
    enc_val: fn(&V, &mut Vec<u8>),
    dec_val: fn(&mut ByteReader<'_>) -> Option<V>,
}

impl<K: Persist, V: Persist> SpillTier<K, V> {
    /// Open (creating if absent) the tier's files under `prefix` on
    /// `backend`. Existing files are adopted as-is — crash *repair* is a
    /// separate, explicit step ([`SpillTier::recover`]).
    pub fn open(
        backend: SharedBackend,
        prefix: &str,
        mode: MergeMode,
        cfg: SpillConfig,
    ) -> io::Result<Self> {
        let mut tier = SpillTier {
            backend,
            wal: format!("{prefix}wal"),
            seg: format!("{prefix}seg"),
            cfg,
            mode,
            generation: 0,
            buf: Vec::with_capacity(cfg.group_commit_bytes + 1024),
            dirty: false,
            retired: false,
            segment_keys: 0,
            wal_len: HEADER_LEN as u64,
            seg_len: 0,
            wal_torn: false,
            wal_stale: false,
            stats: SpillStats::default(),
            enc_key: encode_of::<K>,
            dec_key: decode_of::<K>,
            enc_val: encode_of::<V>,
            dec_val: decode_of::<V>,
        };
        let mut be = tier.backend.lock().expect("backend mutex");
        let seg = be.read(&tier.seg)?;
        let seg_gen = seg.as_deref().and_then(read_header);
        tier.seg_len = seg.map_or(0, |b| b.len() as u64);
        let wal = be.read(&tier.wal)?;
        match wal.as_deref().and_then(read_header) {
            Some(gen) => {
                tier.generation = gen.max(seg_gen.unwrap_or(0));
                tier.wal_len = wal.map_or(0, |b| b.len() as u64);
            }
            None => {
                tier.generation = seg_gen.unwrap_or(0);
                be.write_atomic(&tier.wal, &empty_wal(tier.generation))?;
            }
        }
        drop(be);
        tier.dirty = tier.seg_len > HEADER_LEN as u64 || tier.wal_len > HEADER_LEN as u64;
        Ok(tier)
    }
}

impl<K, V> SpillTier<K, V> {
    /// The configured in-RAM high-water mark.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.cfg.high_water
    }

    /// True when durable or buffered frames exist that a read must merge.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        !self.retired && (self.dirty || !self.buf.is_empty())
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Current WAL/segment generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Keys the last fold wrote to the segment (0 before this tier's
    /// first fold): the presize hint for a replay table.
    pub(crate) fn segment_keys(&self) -> usize {
        self.segment_keys
    }

    /// Spill one evicted cache residency as an entry frame (`writes = 1`,
    /// a single epoch). Buffered; committed by group-commit policy.
    pub fn offer_victim(&mut self, key: &K, value: &V, first_seen: Nanos, last_seen: Nanos) {
        let s = begin_frame(&mut self.buf);
        self.buf.put_u8(TAG_ENTRY);
        (self.enc_key)(key, &mut self.buf);
        self.buf.put_u32(1); // writes
        self.buf.put_u32(1); // epochs
        self.buf.put_u64(first_seen.0);
        self.buf.put_u64(last_seen.0);
        (self.enc_val)(value, &mut self.buf);
        end_frame(&mut self.buf, s);
        self.stats.spilled_frames += 1;
        self.retired = false;
        if self.buf.len() >= self.cfg.group_commit_bytes {
            self.commit().expect("spill-tier commit failed");
        }
    }

    /// Write a snapshot frame: the key's full standing RAM record as of a
    /// checkpoint. At replay a snapshot *replaces* whatever older frames
    /// folded to for this key — a standing record is already a composite,
    /// and composites cannot sit on the evicted side of a fold-state merge
    /// without losing their merge bookkeeping (see [`TAG_SNAPSHOT`]). The
    /// live RAM record in turn supersedes its own snapshots at
    /// materialization time.
    pub fn append_snapshot(&mut self, key: &K, entry: &BackingEntry<V>) {
        let s = begin_frame(&mut self.buf);
        self.buf.put_u8(TAG_SNAPSHOT);
        (self.enc_key)(key, &mut self.buf);
        self.buf.put_u32(entry.writes);
        self.buf.put_u32(entry.epochs.len() as u32);
        for e in entry.epochs.iter() {
            self.buf.put_u64(e.first_seen.0);
            self.buf.put_u64(e.last_seen.0);
            (self.enc_val)(&e.value, &mut self.buf);
        }
        end_frame(&mut self.buf, s);
        self.stats.spilled_frames += 1;
        self.retired = false;
        if self.buf.len() >= self.cfg.group_commit_bytes {
            self.commit().expect("spill-tier commit failed");
        }
    }

    /// Append a tombstone: the key's merged durable record is deleted as of
    /// this point in the log. This is what keeps
    /// [`BackingStore::remove`] honest under the tier — removing the RAM
    /// record alone would let the key resurrect out of older WAL/segment
    /// frames at the next compaction or materialization.
    pub fn tombstone(&mut self, key: &K) {
        let s = begin_frame(&mut self.buf);
        self.buf.put_u8(TAG_TOMBSTONE);
        (self.enc_key)(key, &mut self.buf);
        end_frame(&mut self.buf, s);
        self.stats.tombstones += 1;
        self.retired = false;
        if self.buf.len() >= self.cfg.group_commit_bytes {
            self.commit().expect("spill-tier commit failed");
        }
    }

    /// Append a checkpoint frame — every record up to `record_index` is
    /// durably folded below this point — and commit the buffer.
    pub fn checkpoint(&mut self, record_index: u64) -> io::Result<()> {
        let s = begin_frame(&mut self.buf);
        self.buf.put_u8(TAG_CHECKPOINT);
        self.buf.put_u64(record_index);
        end_frame(&mut self.buf, s);
        self.stats.checkpoints += 1;
        self.commit()
    }

    /// Flush the group-commit buffer: one backend `append` + `sync`.
    ///
    /// Transactional against its own failures: when the `append` or the
    /// `sync` fails, whatever part of the buffer reached the file is cut
    /// back to the last committed length (at the next commit, if the
    /// backend cannot truncate now), and the buffer is kept — so a retry
    /// appends it exactly once, behind no garbage.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut be = self.backend.lock().expect("backend mutex");
        if self.wal_stale {
            be.write_atomic(&self.wal, &empty_wal(self.generation))?;
            self.wal_stale = false;
        } else if self.wal_torn {
            be.truncate(&self.wal, self.wal_len)?;
            self.wal_torn = false;
        }
        let written = be.append(&self.wal, &self.buf);
        if let Err(e) = written.and_then(|()| be.sync(&self.wal)) {
            self.wal_torn = be.truncate(&self.wal, self.wal_len).is_err();
            return Err(e);
        }
        drop(be);
        self.wal_len += self.buf.len() as u64;
        self.buf.clear();
        self.dirty = true;
        self.stats.commits += 1;
        Ok(())
    }

    /// Replay the tier's durable truth — segment, then the committed WAL,
    /// then any uncommitted buffered frames, in write order — into `out`
    /// through the order-free merge machinery. Entry frames absorb
    /// ([`BackingStore::absorb_entry`]); tombstones remove. Does not modify
    /// the files.
    pub fn materialize_into(
        &self,
        out: &mut BackingStore<K, V>,
        merge: impl Fn(&mut V, V),
    ) -> io::Result<()>
    where
        K: Eq + Hash,
    {
        if self.retired {
            return Ok(());
        }
        let mut be = self.backend.lock().expect("backend mutex");
        let seg = be.read(&self.seg)?;
        let wal = be.read(&self.wal)?;
        drop(be);
        let seg_gen = seg.as_deref().and_then(read_header);
        if let Some(bytes) = &seg {
            self.replay(FrameScanner::new(bytes), out, &merge);
        }
        if let Some(bytes) = &wal {
            // A WAL older than the segment was already folded into it by a
            // compaction whose final WAL replacement didn't land.
            let stale = match (read_header(bytes), seg_gen) {
                (Some(w), Some(s)) => w < s,
                _ => false,
            };
            if !stale {
                // Past the committed length lie only the remains of a failed
                // commit, whose frames are still in the buffer.
                let committed = &bytes[..bytes.len().min(self.wal_len as usize)];
                self.replay(FrameScanner::new(committed), out, &merge);
            }
        }
        self.replay(FrameScanner::frames(&self.buf), out, &merge);
        Ok(())
    }

    /// Decode and apply a stream of frames to `out`.
    fn replay(
        &self,
        frames: FrameScanner<'_>,
        out: &mut BackingStore<K, V>,
        merge: &impl Fn(&mut V, V),
    ) where
        K: Eq + Hash,
    {
        for (_, payload) in frames {
            let mut r = ByteReader::new(payload);
            match r.u8() {
                Some(TAG_ENTRY) => {
                    let Some((key, entry)) = self.decode_entry(&mut r) else {
                        break;
                    };
                    out.absorb_entry(key, entry, merge);
                }
                Some(TAG_SNAPSHOT) => {
                    let Some((key, entry)) = self.decode_entry(&mut r) else {
                        break;
                    };
                    out.replace_entry(key, entry);
                }
                Some(TAG_TOMBSTONE) => {
                    let Some(key) = (self.dec_key)(&mut r) else {
                        break;
                    };
                    out.remove(&key);
                }
                Some(TAG_CHECKPOINT) | None => {}
                Some(_) => break,
            }
        }
    }

    fn decode_entry(&self, r: &mut ByteReader<'_>) -> Option<(K, BackingEntry<V>)> {
        let key = (self.dec_key)(r)?;
        let writes = r.u32()?;
        let n = r.u32()?;
        if n == 0 {
            return None; // a record has ≥ 1 epoch: the frame is garbage
        }
        let mut epoch = || {
            let first_seen = Nanos(r.u64()?);
            let last_seen = Nanos(r.u64()?);
            let value = (self.dec_val)(r)?;
            Some(Epoch {
                value,
                first_seen,
                last_seen,
            })
        };
        let mut epochs = EpochList::one(epoch()?);
        for _ in 1..n {
            epochs.push(epoch()?);
        }
        Some((key, BackingEntry { epochs, writes }))
    }

    /// Commit, then fold the WAL into the segment once it has outgrown it
    /// (bytes committed since the last fold ≥ the segment's size; a WAL
    /// still smaller keeps its frames and the files are left alone). A fold
    /// re-publishes the durable truth as one entry frame per key in a fresh
    /// segment file (generation + 1), then replaces the WAL with an empty
    /// log at the same generation. Both replacements are atomic; a crash
    /// between them leaves a WAL whose generation is older than the
    /// segment's, which recovery and materialization ignore as
    /// already-folded. A failed WAL replacement is survivable in-process
    /// too: once the segment has landed the tier adopts it, and its next
    /// commit replaces the stale WAL before appending.
    ///
    /// Folding only shortens replay — segment + WAL read the same either
    /// way — so the rule bounds rewrite work by the bytes logged, not by
    /// the table, at the price of at most one segment-sized WAL on disk.
    ///
    /// Only crash-consistent when every WAL frame is covered by the last
    /// manifested checkpoint — the runtime layers run compaction directly
    /// after a successful checkpoint, where that holds by construction.
    pub fn compact(&mut self, merge: impl Fn(&mut V, V)) -> io::Result<()>
    where
        K: Eq + Hash,
    {
        self.commit()?;
        if self.wal_len < self.seg_len {
            return Ok(());
        }
        let mut truth = BackingStore::with_capacity(self.mode, self.segment_keys);
        self.materialize_into(&mut truth, &merge)?;
        let next_gen = self.generation + 1;
        let mut seg = Vec::new();
        put_header(&mut seg, next_gen);
        for (key, entry) in truth.iter() {
            let s = begin_frame(&mut seg);
            seg.put_u8(TAG_ENTRY);
            (self.enc_key)(key, &mut seg);
            seg.put_u32(entry.writes);
            seg.put_u32(entry.epochs.len() as u32);
            for e in entry.epochs.iter() {
                seg.put_u64(e.first_seen.0);
                seg.put_u64(e.last_seen.0);
                (self.enc_val)(&e.value, &mut seg);
            }
            end_frame(&mut seg, s);
        }
        let mut be = self.backend.lock().expect("backend mutex");
        be.write_atomic(&self.seg, &seg)?;
        let replaced = be.write_atomic(&self.wal, &empty_wal(next_gen));
        drop(be);
        self.generation = next_gen;
        self.segment_keys = truth.len();
        self.seg_len = seg.len() as u64;
        self.wal_len = HEADER_LEN as u64;
        self.wal_stale = replaced.is_err();
        self.dirty = !truth.is_empty();
        self.stats.compactions += 1;
        replaced
    }

    /// Crash repair: reconcile generations and truncate the WAL to the
    /// last checkpoint covered by the deployment manifest.
    ///
    /// * A WAL whose generation trails the segment's was already folded in
    ///   by a compaction that crashed before its final WAL replacement —
    ///   it is replaced with a fresh empty log at the segment's generation.
    /// * Otherwise the WAL is scanned (CRC-validating, stopping at the
    ///   first torn frame) and truncated to end at the last
    ///   [`TAG_CHECKPOINT`] frame whose record index is `<= manifest` —
    ///   frames past that point cover records the resumed deployment will
    ///   re-ingest, and a torn tail is cut with them.
    ///
    /// The durable truth itself stays on disk; reads merge it via
    /// [`SpillTier::materialize_into`]. Pass `manifest = None` when no
    /// manifest was ever committed (resume from record 0, nothing kept).
    pub fn recover(&mut self, manifest: Option<u64>) -> io::Result<()> {
        self.buf.clear();
        self.retired = false;
        self.wal_torn = false;
        self.wal_stale = false;
        let mut be = self.backend.lock().expect("backend mutex");
        let seg = be.read(&self.seg)?;
        let seg_gen = seg.as_deref().and_then(read_header);
        self.seg_len = seg.map_or(0, |b| b.len() as u64);
        let seg_dirty = self.seg_len > HEADER_LEN as u64;
        let wal = be.read(&self.wal)?;
        let wal_gen = wal.as_deref().and_then(read_header);
        let stale = match (wal_gen, seg_gen) {
            (Some(w), Some(s)) => w < s,
            (None, _) => true,
            _ => false,
        };
        if stale {
            self.generation = seg_gen.unwrap_or(0);
            be.write_atomic(&self.wal, &empty_wal(self.generation))?;
            self.wal_len = HEADER_LEN as u64;
            self.dirty = seg_dirty;
            return Ok(());
        }
        self.generation = wal_gen.expect("non-stale WAL has a header");
        let bytes = wal.as_deref().unwrap_or(&[]);
        let mut cutoff = HEADER_LEN.min(bytes.len());
        if let Some(limit) = manifest {
            for (end, payload) in FrameScanner::new(bytes) {
                let mut r = ByteReader::new(payload);
                if r.u8() == Some(TAG_CHECKPOINT) && r.u64().is_some_and(|i| i <= limit) {
                    cutoff = end;
                }
            }
        }
        be.truncate(&self.wal, cutoff as u64)?;
        be.sync(&self.wal)?;
        self.wal_len = cutoff as u64;
        self.dirty = seg_dirty || cutoff > HEADER_LEN;
        Ok(())
    }

    /// Mark the tier consumed after a final materialization: its durable
    /// truth has been folded into RAM and must not be applied again.
    pub fn retire(&mut self) {
        self.retired = true;
    }

    /// True once a final materialization consumed the tier. Eviction
    /// routing stops spilling to a retired tier — after the fold-back the
    /// RAM table alone is the truth and drain reads bypass the tier.
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FaultBackend, IoBackend, MemBackend};
    use crate::{CacheGeometry, CounterOps, EvictionPolicy, SplitStore};
    use std::sync::{Arc, Mutex};

    /// A low high-water mark and a group-commit threshold no interval
    /// reaches: every commit is a checkpoint's.
    const CHECKPOINT_COMMITS: SpillConfig = SpillConfig {
        high_water: 4,
        group_commit_bytes: 1 << 20,
    };

    fn store(backend: SharedBackend, cfg: SpillConfig) -> SplitStore<u64, CounterOps> {
        let mut s = SplitStore::new(
            CacheGeometry::set_associative(4, 2),
            EvictionPolicy::Lru,
            0xfeed,
            CounterOps,
        );
        s.enable_spill(backend, "t_", cfg).expect("enable spill");
        s
    }

    /// Observations `from..to` of a scrambled stream over `keys` keys.
    fn feed(s: &mut SplitStore<u64, CounterOps>, keys: u64, from: u64, to: u64) {
        for i in from..to {
            let k = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % keys;
            s.observe(k, &(), Nanos(i));
        }
    }

    fn counts<'a>(rows: impl Iterator<Item = (&'a u64, &'a BackingEntry<u64>)>) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = rows
            .map(|(k, e)| (*k, *e.value().expect("counters stay valid")))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Fold the tier back, flush, and read every key's count.
    fn drained(mut s: SplitStore<u64, CounterOps>) -> Vec<(u64, u64)> {
        s.materialize_spill().expect("drain");
        s.flush();
        counts(s.backing().iter())
    }

    /// True when every byte of the WAL image past its header is a valid frame.
    fn no_garbage(wal: &[u8]) -> bool {
        let mut scan = FrameScanner::new(wal);
        scan.by_ref().count();
        scan.pos() == wal.len()
    }

    /// A failed group commit is survivable in-process: fault the
    /// checkpoint's commit at its append (torn to nothing, half, all of the
    /// buffer) or at its sync, read, heal, commit again, drain — the reads
    /// and the drain are the never-faulted run's, the WAL holds no garbage
    /// and no victim twice.
    #[test]
    fn a_failed_commit_is_retried_exactly_once() {
        // `fault` = (mutating op of the checkpoint at 600, torn bytes):
        // op 0 is the commit's append, op 1 its sync.
        let run = |fault: Option<(u64, usize)>| {
            let handle = Arc::new(Mutex::new(FaultBackend::new()));
            let mut s = store(handle.clone(), CHECKPOINT_COMMITS);
            let wal_len = || {
                handle
                    .lock()
                    .unwrap()
                    .mem()
                    .bytes("t_wal")
                    .map_or(0, <[u8]>::len)
            };
            feed(&mut s, 48, 0, 300);
            s.persist(300).expect("healthy checkpoint");
            feed(&mut s, 48, 300, 600);
            let before = wal_len();
            if let Some((op, torn)) = fault {
                let at = handle.lock().unwrap().ops() + op;
                handle.lock().unwrap().arm(at, torn);
                assert!(s.persist(600).is_err(), "the armed fault fires");
                handle.lock().unwrap().heal();
                let polled: u64 = counts(s.snapshot().backing().iter())
                    .iter()
                    .map(|r| r.1)
                    .sum();
                assert_eq!(polled, 600, "a read between failure and retry");
            }
            s.persist(600).expect("retry after heal");
            let commit_len = wal_len() - before;
            feed(&mut s, 48, 600, 900);
            s.persist(900).expect("healthy checkpoint");
            let wal = handle
                .lock()
                .unwrap()
                .mem()
                .bytes("t_wal")
                .unwrap()
                .to_vec();
            (drained(s), wal, commit_len)
        };
        let (want, wal, commit_len) = run(None);
        assert_eq!(want.iter().map(|r| r.1).sum::<u64>(), 900);
        assert!(no_garbage(&wal));
        for fault in [(0, 0), (0, commit_len / 2), (0, usize::MAX), (1, 0)] {
            let (got, wal, _) = run(Some(fault));
            assert_eq!(got, want, "fault {fault:?}");
            assert!(no_garbage(&wal), "fault {fault:?}: garbage left mid-WAL");
        }
    }

    /// A failed compaction is survivable in-process: the segment replace
    /// lands, the WAL replace fails, heal, ingest, checkpoint again — the
    /// tier's durable truth, a cold recovery from its files and the drain
    /// are the never-faulted twin's. A tier that kept its old generation
    /// would append every later frame to a WAL older than the segment,
    /// which reads skip as already folded.
    #[test]
    fn a_failed_compaction_is_survived_in_process() {
        let run = |fault: bool| {
            let handle = Arc::new(Mutex::new(FaultBackend::new()));
            let mut s = store(handle.clone(), CHECKPOINT_COMMITS);
            feed(&mut s, 48, 0, 300);
            s.persist(300).expect("checkpoint");
            if fault {
                // The compaction's mutating ops: segment replace, WAL replace.
                let at = handle.lock().unwrap().ops() + 1;
                handle.lock().unwrap().arm(at, 0);
                assert!(s.compact_spill().is_err(), "the armed fault fires");
                handle.lock().unwrap().heal();
            } else {
                s.compact_spill().expect("compact");
            }
            feed(&mut s, 48, 300, 600);
            s.persist(600).expect("checkpoint after heal");
            s.compact_spill().expect("compact after heal");
            feed(&mut s, 48, 600, 900);
            s.persist(900).expect("checkpoint");
            let mut tier = BackingStore::new(MergeMode::Merge);
            let tier_of = |s: &SplitStore<u64, CounterOps>| s.spill().unwrap().clone();
            tier_of(&s)
                .materialize_into(&mut tier, |a, b| *a += b)
                .expect("materialize");
            let mut cold = SpillTier::<u64, u64>::open(
                handle.clone(),
                "t_",
                MergeMode::Merge,
                CHECKPOINT_COMMITS,
            )
            .expect("open");
            cold.recover(Some(900)).expect("recover");
            let mut recovered = BackingStore::new(MergeMode::Merge);
            cold.materialize_into(&mut recovered, |a, b| *a += b)
                .expect("materialize");
            (counts(tier.iter()), counts(recovered.iter()), drained(s))
        };
        let want = run(false);
        assert_eq!(want.2.iter().map(|r| r.1).sum::<u64>(), 900);
        assert_eq!(run(true), want);
    }

    /// A backend whose next append tears and fails but which stays alive —
    /// a full disk rather than a dead process.
    #[derive(Debug, Default)]
    struct TearOnce {
        inner: MemBackend,
        tear: Option<usize>,
    }

    impl IoBackend for TearOnce {
        fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            match self.tear.take() {
                Some(n) => {
                    self.inner.append(name, &bytes[..n.min(bytes.len())])?;
                    Err(io::Error::other("disk full"))
                }
                None => self.inner.append(name, bytes),
            }
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            self.inner.truncate(name, len)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            self.inner.sync(name)
        }
        fn remove(&mut self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    /// On a backend that can still truncate, the failed commit cuts its
    /// torn bytes at once: the WAL is back at its committed length before
    /// the retry.
    #[test]
    fn a_torn_commit_is_cut_back_while_the_backend_lives() {
        let drain_after = |tear: Option<usize>| {
            let handle = Arc::new(Mutex::new(TearOnce::default()));
            let mut s = store(handle.clone(), CHECKPOINT_COMMITS);
            let wal_len = || {
                handle
                    .lock()
                    .unwrap()
                    .inner
                    .bytes("t_wal")
                    .map_or(0, <[u8]>::len)
            };
            feed(&mut s, 48, 0, 300);
            s.persist(300).expect("healthy checkpoint");
            feed(&mut s, 48, 300, 600);
            if tear.is_some() {
                let before = wal_len();
                handle.lock().unwrap().tear = tear;
                assert!(s.persist(600).is_err(), "the tear fires");
                assert_eq!(wal_len(), before, "torn bytes cut at once");
            }
            s.persist(600).expect("checkpoint");
            drained(s)
        };
        assert_eq!(drain_after(Some(100)), drain_after(None));
    }

    /// The compaction rule's disk bound and both of its outcomes: after
    /// each checkpoint the WAL body holds at most the segment plus what
    /// that checkpoint's interval committed; a compaction folds only a WAL
    /// that has outgrown the segment and otherwise leaves both files alone;
    /// the drain counts every observation once.
    #[test]
    fn the_wal_outgrows_the_segment_by_at_most_one_checkpoint() {
        let handle = Arc::new(Mutex::new(MemBackend::new()));
        let cfg = SpillConfig {
            high_water: 4,
            group_commit_bytes: 256,
        };
        let mut s = store(handle.clone(), cfg);
        let file = |name: &str| handle.lock().unwrap().bytes(name).map(<[u8]>::to_vec);
        let len = |name: &str| file(name).map_or(0, |b| b.len());
        let (mut folds, mut skips) = (0, 0);
        let mut wal_since_compact = len("t_wal");
        for round in 1..=24u64 {
            feed(&mut s, 512, (round - 1) * 100, round * 100);
            s.persist(round * 100).expect("checkpoint");
            let (wal, seg) = (len("t_wal"), len("t_seg"));
            let committed = wal - wal_since_compact;
            assert!(
                wal - HEADER_LEN <= seg + committed,
                "round {round}: WAL {wal} > segment {seg} + this checkpoint's {committed}"
            );
            let seg_bytes = file("t_seg");
            let before = s.spill_stats().unwrap().compactions;
            s.compact_spill().expect("compact");
            if s.spill_stats().unwrap().compactions > before {
                folds += 1;
                assert!(
                    wal >= seg,
                    "round {round}: folded a WAL smaller than the segment"
                );
                assert_eq!(
                    len("t_wal"),
                    HEADER_LEN,
                    "round {round}: a fold empties the WAL"
                );
            } else {
                skips += 1;
                assert!(
                    wal < seg,
                    "round {round}: skipped a WAL as large as the segment"
                );
                assert_eq!(len("t_wal"), wal, "round {round}: a skip keeps the WAL");
                assert_eq!(file("t_seg"), seg_bytes, "round {round}: and the segment");
            }
            wal_since_compact = len("t_wal");
        }
        assert!(folds >= 2 && skips >= 2, "{folds} folds, {skips} skips");
        assert_eq!(drained(s).iter().map(|r| r.1).sum::<u64>(), 2400);
    }
}
