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
//!   checkpoint, republished atomically with a bumped generation number.
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
    /// Compactions (WAL folded into the segment).
    pub compactions: u64,
}

fn encode_of<T: Persist>(v: &T, out: &mut Vec<u8>) {
    v.encode(out);
}

fn decode_of<T: Persist>(r: &mut ByteReader<'_>) -> Option<T> {
    T::decode(r)
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
    /// Keys the last compaction folded into the segment — the next one's
    /// table is presized from it.
    segment_keys: usize,
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
            stats: SpillStats::default(),
            enc_key: encode_of::<K>,
            dec_key: decode_of::<K>,
            enc_val: encode_of::<V>,
            dec_val: decode_of::<V>,
        };
        let mut be = tier.backend.lock().expect("backend mutex");
        let seg_gen = be.read(&tier.seg)?.as_deref().and_then(read_header);
        let wal = be.read(&tier.wal)?;
        match wal.as_deref().and_then(read_header) {
            Some(gen) => tier.generation = gen.max(seg_gen.unwrap_or(0)),
            None => {
                tier.generation = seg_gen.unwrap_or(0);
                let mut hdr = Vec::with_capacity(HEADER_LEN);
                put_header(&mut hdr, tier.generation);
                be.write_atomic(&tier.wal, &hdr)?;
            }
        }
        tier.dirty = seg_gen.is_some_and(|_| true)
            && be.read(&tier.seg)?.map_or(false, |b| b.len() > HEADER_LEN)
            || wal.map_or(false, |b| b.len() > HEADER_LEN);
        drop(be);
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
    pub fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut be = self.backend.lock().expect("backend mutex");
        be.append(&self.wal, &self.buf)?;
        be.sync(&self.wal)?;
        drop(be);
        self.buf.clear();
        self.dirty = true;
        self.stats.commits += 1;
        Ok(())
    }

    /// Replay the tier's durable truth — segment, then WAL, then any
    /// uncommitted buffered frames, in write order — into `out` through the
    /// order-free merge machinery. Entry frames absorb
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
                self.replay(FrameScanner::new(bytes), out, &merge);
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

    /// Fold the WAL into the segment: the durable truth is re-published as
    /// one entry frame per key in a fresh segment file (generation + 1),
    /// then the WAL is replaced with an empty log at the same generation.
    /// Both replacements are atomic; a crash between them leaves a WAL
    /// whose generation is older than the segment's, which recovery and
    /// materialization ignore as already-folded.
    ///
    /// Only crash-consistent when every WAL frame is covered by the last
    /// manifested checkpoint — the runtime layers run compaction directly
    /// after a successful checkpoint, where that holds by construction.
    pub fn compact(&mut self, merge: impl Fn(&mut V, V)) -> io::Result<()>
    where
        K: Eq + Hash,
    {
        self.commit()?;
        let mut truth = BackingStore::with_capacity(self.mode, self.segment_keys);
        self.materialize_into(&mut truth, &merge)?;
        self.segment_keys = truth.len();
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
        let mut wal = Vec::with_capacity(HEADER_LEN);
        put_header(&mut wal, next_gen);
        let mut be = self.backend.lock().expect("backend mutex");
        be.write_atomic(&self.seg, &seg)?;
        be.write_atomic(&self.wal, &wal)?;
        drop(be);
        self.generation = next_gen;
        self.dirty = !truth.is_empty();
        self.stats.compactions += 1;
        Ok(())
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
        let mut be = self.backend.lock().expect("backend mutex");
        let seg = be.read(&self.seg)?;
        let seg_gen = seg.as_deref().and_then(read_header);
        let seg_dirty = seg.as_ref().map_or(false, |b| b.len() > HEADER_LEN);
        let wal = be.read(&self.wal)?;
        let wal_gen = wal.as_deref().and_then(read_header);
        let stale = match (wal_gen, seg_gen) {
            (Some(w), Some(s)) => w < s,
            (None, _) => true,
            _ => false,
        };
        if stale {
            self.generation = seg_gen.unwrap_or(0);
            let mut hdr = Vec::with_capacity(HEADER_LEN);
            put_header(&mut hdr, self.generation);
            be.write_atomic(&self.wal, &hdr)?;
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
