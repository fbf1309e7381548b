//! Crash recovery's commit point: the deployment manifest.
//!
//! A *manifest* is one tiny atomically-replaced file per deployment
//! recording the highest record index whose state is durably checkpointed
//! across **all** of the deployment's stores. Per-store checkpoint frames
//! land first (each store's WAL `append` + `sync`), and only then is the
//! manifest advanced — so a manifest value is a promise that every store
//! holds a covered checkpoint, and recovery can truncate each WAL to its
//! last covered checkpoint and resume ingest from the manifest index.
//!
//! Recovery itself is deliberately thin
//! ([`SplitStore::recover_spill`](crate::SplitStore::recover_spill)):
//! repair the files ([`SpillTier::recover`](crate::SpillTier::recover))
//! against the manifest, then replay them through the same order-free
//! [`BackingStore::absorb_entry`](crate::BackingStore::absorb_entry) fold
//! that built them. There is no separate recovery interpretation of a
//! frame — replay *is* the merge machinery, which is what makes it exact
//! for every mergeable fold class.

use crate::wal::{crc32, ByteReader, ByteWriter as _, SharedBackend};
use std::io;

/// Magic number leading a manifest file (`"PQMF"` little-endian).
pub const MANIFEST_MAGIC: u32 = 0x5051_4d46;

/// Atomically publish `record_index` as the deployment's committed
/// checkpoint. Layout: `[magic u32][crc32 u32][record_index u64]`, CRC over
/// the index bytes.
pub fn write_manifest(backend: &SharedBackend, name: &str, record_index: u64) -> io::Result<()> {
    let mut payload = Vec::with_capacity(8);
    payload.put_u64(record_index);
    let mut bytes = Vec::with_capacity(16);
    bytes.put_u32(MANIFEST_MAGIC);
    bytes.put_u32(crc32(&payload));
    bytes.extend_from_slice(&payload);
    let mut be = backend.lock().expect("backend mutex");
    be.write_atomic(name, &bytes)?;
    be.sync(name)
}

/// Read a manifest. `Ok(None)` when the file is absent — no checkpoint was
/// ever durably committed, and recovery must resume from record 0. A file
/// that is present but fails its magic, CRC or length check is an
/// `InvalidData` error: atomic replace never tears a manifest, so a bad one
/// is corruption, and resuming from 0 would re-count every record the
/// compacted segments already hold.
pub fn read_manifest(backend: &SharedBackend, name: &str) -> io::Result<Option<u64>> {
    let mut be = backend.lock().expect("backend mutex");
    let Some(bytes) = be.read(name)? else {
        return Ok(None);
    };
    drop(be);
    let mut r = ByteReader::new(&bytes);
    let (magic, crc) = (r.u32(), r.u32());
    let payload = bytes.get(8..).unwrap_or_default();
    if magic != Some(MANIFEST_MAGIC) || payload.len() != 8 || crc != Some(crc32(payload)) {
        let msg = format!("manifest {name} is corrupt");
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    Ok(ByteReader::new(payload).u64())
}
