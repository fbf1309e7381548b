//! Write-ahead-log substrate for the durable spill tier: an [`IoBackend`]
//! abstraction over a directory of named append-only files, CRC-framed
//! record encoding, and the [`Persist`] serialization trait.
//!
//! # Frame format
//!
//! Every durable file (WAL and segment alike) starts with a 12-byte header
//! and continues as a sequence of length-prefixed, CRC-checked frames:
//!
//! ```text
//! file   := header frame*
//! header := magic:u32le  generation:u64le
//! frame  := len:u32le  crc32:u32le  payload[len]
//! payload:= tag:u8  body
//!           tag 1 = Entry      body = key  writes:u32  n:u32  epoch[n]
//!                              epoch = first_seen:u64  last_seen:u64  value
//!           tag 2 = Tombstone  body = key
//!           tag 3 = Checkpoint body = record_index:u64
//! ```
//!
//! The CRC covers the payload only, so a torn tail (a partially-applied
//! append) is detected by either a short read against `len` or a CRC
//! mismatch — scanning stops at the first bad frame and everything before
//! it is trusted. The `generation` header disambiguates a WAL from the
//! segment it was compacted into: recovery ignores a WAL whose generation
//! is older than the segment's (its frames are already folded in).
//!
//! All multi-byte integers are little-endian. Keys and values serialize
//! through [`Persist`], which this crate implements for the primitive types
//! and [`InlineKey`]; `perfq-core` implements it for its fold state.

use crate::key::InlineKey;
use perfq_packet::Nanos;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic number opening every durable file.
pub const FILE_MAGIC: u32 = 0x5051_574c; // "PQWL"
/// Size of the file header (magic + generation).
pub const HEADER_LEN: usize = 12;

/// Frame payload tags.
pub const TAG_ENTRY: u8 = 1;
/// Tombstone frame: the key's merged record is deleted as of this point.
pub const TAG_TOMBSTONE: u8 = 2;
/// Checkpoint frame: every record up to `record_index` is durably folded.
pub const TAG_CHECKPOINT: u8 = 3;
/// Snapshot frame: the key's full merged record as of this point — at
/// replay it **replaces** whatever earlier frames folded to, rather than
/// merging into it. Checkpoints dump the in-RAM table as snapshots:
/// fold-state merges are only exact when the incoming operand is a fresh
/// cache residency (its merge bookkeeping — packet counts, window replay
/// logs — is consumed by the first merge), so a standing composite can be
/// *stored* and *replaced* but never re-merged.
pub const TAG_SNAPSHOT: u8 = 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, slicing-by-16)
// ---------------------------------------------------------------------------

/// `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes, so sixteen
/// independent lookups fold a whole 16-byte block.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC-32 (IEEE) of `bytes`, sliced by 16: one step folds a 16-byte block
/// through sixteen table lookups, the tail goes byte by byte.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let w0 = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(w0 & 0xff) as usize]
            ^ t[14][((w0 >> 8) & 0xff) as usize]
            ^ t[13][((w0 >> 16) & 0xff) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &byte in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// IoBackend: a directory of named files, swappable for fault injection
// ---------------------------------------------------------------------------

/// Storage substrate for the spill tier: a flat namespace of files
/// supporting append, atomic whole-file replacement, truncation and sync.
///
/// The trait exists so the crash-injection harness can substitute a
/// deterministic in-memory double ([`FaultBackend`]) that fails, tears or
/// kills writes at an exact operation index — the production implementation
/// is [`DiskBackend`]. Implementations take `&mut self`; shared access goes
/// through [`SharedBackend`]'s mutex.
pub trait IoBackend: fmt::Debug + Send {
    /// Read a file's full contents; `None` when it does not exist.
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Append bytes to a file, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Replace a file's contents atomically (all-or-nothing on crash).
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Shorten a file to `len` bytes (no-op if already shorter or missing).
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Make preceding writes to the file durable.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Delete a file (no error if missing).
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

/// A backend shared between every store of a deployment (and its manifest),
/// so one fault-injected "filesystem" observes a single global operation
/// order. `Send` because sharded deployments move their worker runtimes —
/// tiers included — into threads.
pub type SharedBackend = Arc<Mutex<dyn IoBackend>>;

/// Wrap a backend for sharing.
pub fn shared(backend: impl IoBackend + 'static) -> SharedBackend {
    Arc::new(Mutex::new(backend))
}

/// Production backend: files under a root directory via `std::fs`.
///
/// Appends reopen the file per call — the tier's group commit amortizes
/// this over many frames. Atomic replacement goes through a `.tmp` sibling
/// and `rename`, the standard crash-safe publication idiom.
#[derive(Debug, Clone)]
pub struct DiskBackend {
    root: PathBuf,
}

impl DiskBackend {
    /// Open (creating if needed) a backend rooted at `root`.
    pub fn create(root: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(DiskBackend {
            root: root.as_ref().to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl IoBackend for DiskBackend {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))?;
        f.write_all(bytes)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        fs::write(&tmp, bytes)?;
        fs::File::open(&tmp)?.sync_all()?;
        fs::rename(&tmp, self.path(name))
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        match fs::OpenOptions::new().write(true).open(self.path(name)) {
            Ok(f) => {
                if f.metadata()?.len() > len {
                    f.set_len(len)?;
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        match fs::File::open(self.path(name)) {
            Ok(f) => f.sync_all(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// In-memory backend: a map of byte vectors. The substrate under
/// [`FaultBackend`] and the unit tests.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemBackend {
    /// An empty in-memory filesystem.
    #[must_use]
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Direct (non-faulting) view of a file's bytes, for test assertions.
    #[must_use]
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Flip one bit of a file in place — the corruption primitive behind
    /// the CRC property tests. `bit` indexes from the start of the file.
    pub fn flip_bit(&mut self, name: &str, bit: usize) {
        if let Some(f) = self.files.get_mut(name) {
            if bit / 8 < f.len() {
                f[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Names of all files, for test assertions.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

impl IoBackend for MemBackend {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.get(name).cloned())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        if let Some(f) = self.files.get_mut(name) {
            f.truncate(len as usize);
        }
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.files.remove(name);
        Ok(())
    }
}

/// Deterministic failing/truncating/torn-write test double: an in-memory
/// backend that counts every **mutating** operation and, at a chosen index,
/// applies only a prefix of that write (a torn append), leaves the old
/// contents in place (a failed atomic replace), and then refuses every
/// subsequent operation — modeling a process that died mid-I/O. The harness
/// sweeps the fault index across a reference run's full operation count to
/// crash a deployment at every I/O boundary.
#[derive(Debug, Default)]
pub struct FaultBackend {
    inner: MemBackend,
    /// Mutating operations performed so far.
    ops: u64,
    /// Operation index at which to inject the fault (`ops == fail_at`).
    fail_at: Option<u64>,
    /// Bytes of the faulted append actually applied (the torn prefix).
    torn_bytes: usize,
    /// Set after the fault fires: the "process" is dead until `heal`.
    dead: bool,
}

impl FaultBackend {
    /// A healthy backend with no fault armed.
    #[must_use]
    pub fn new() -> Self {
        FaultBackend::default()
    }

    /// Arm a fault: the `fail_at`-th mutating operation (0-based) applies
    /// only `torn_bytes` of its payload (appends) or nothing (everything
    /// else), returns an error, and kills the backend.
    pub fn arm(&mut self, fail_at: u64, torn_bytes: usize) {
        self.fail_at = Some(fail_at);
        self.torn_bytes = torn_bytes;
        self.dead = false;
    }

    /// Clear any armed or fired fault — the "restart": the surviving bytes
    /// stay exactly as the crash left them.
    pub fn heal(&mut self) {
        self.fail_at = None;
        self.dead = false;
    }

    /// Mutating operations performed (healthy runs use this to size the
    /// fault sweep).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once an armed fault has fired.
    #[must_use]
    pub fn died(&self) -> bool {
        self.dead
    }

    /// The in-memory filesystem, for direct inspection/corruption.
    pub fn mem(&mut self) -> &mut MemBackend {
        &mut self.inner
    }

    /// Count one mutating op; `true` when this op is the armed fault.
    fn tick(&mut self) -> io::Result<bool> {
        if self.dead {
            return Err(io::Error::other("backend dead after injected fault"));
        }
        let fault = self.fail_at == Some(self.ops);
        self.ops += 1;
        if fault {
            self.dead = true;
        }
        Ok(fault)
    }
}

impl IoBackend for FaultBackend {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        if self.dead {
            return Err(io::Error::other("backend dead after injected fault"));
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.tick()? {
            let torn = self.torn_bytes.min(bytes.len());
            self.inner.append(name, &bytes[..torn])?;
            return Err(io::Error::other("injected torn append"));
        }
        self.inner.append(name, bytes)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.tick()? {
            // Atomic replace is all-or-nothing: the old contents survive.
            return Err(io::Error::other("injected failed replace"));
        }
        self.inner.write_atomic(name, bytes)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        if self.tick()? {
            return Err(io::Error::other("injected failed truncate"));
        }
        self.inner.truncate(name, len)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        if self.tick()? {
            return Err(io::Error::other("injected failed sync"));
        }
        self.inner.sync(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        if self.tick()? {
            return Err(io::Error::other("injected failed remove"));
        }
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------------
// Byte-level encode/decode
// ---------------------------------------------------------------------------

/// Bounded little-endian reader over a byte slice. Every accessor returns
/// `None` on underrun, so a truncated body can never read past its frame.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next little-endian `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// Next little-endian `f64` (bit pattern).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// Little-endian write helpers for the reusable encode buffer.
pub trait ByteWriter {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append a little-endian `i64`.
    fn put_i64(&mut self, v: i64);
    /// Append a little-endian `f64` bit pattern.
    fn put_f64(&mut self, v: f64);
}

impl ByteWriter for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Self-describing binary serialization for spill-tier keys and values.
///
/// Implementations must round-trip exactly (`decode(encode(x)) == x`) and
/// be self-delimiting — `decode` consumes precisely the bytes `encode`
/// produced, so frames concatenate without separators.
pub trait Persist: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value, consuming its bytes; `None` on malformed input.
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;
}

impl Persist for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Persist for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_i64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.i64()
    }
}

impl Persist for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(*self as u64);
        out.put_u64((*self >> 64) as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let lo = r.u64()?;
        let hi = r.u64()?;
        Some(u128::from(lo) | (u128::from(hi) << 64))
    }
}

impl Persist for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.f64()
    }
}

impl Persist for Nanos {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.u64().map(Nanos)
    }
}

impl Persist for InlineKey {
    fn encode(&self, out: &mut Vec<u8>) {
        let words = self.as_slice();
        out.put_u8(words.len() as u8);
        for w in words {
            out.put_i64(*w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let len = usize::from(r.u8()?);
        let mut words = [0i64; 16];
        if len > words.len() {
            return None;
        }
        for w in words.iter_mut().take(len) {
            *w = r.i64()?;
        }
        Some(InlineKey::from_slice(&words[..len]))
    }
}

// ---------------------------------------------------------------------------
// Frame encode/scan
// ---------------------------------------------------------------------------

/// Begin a frame in `buf`: reserves the `len`+`crc` slots and returns the
/// frame's start offset for [`end_frame`].
#[must_use]
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    start
}

/// Finish the frame started at `start`: backfills the payload length and
/// CRC now that the payload is in place.
pub fn end_frame(buf: &mut [u8], start: usize) {
    let payload_len = buf.len() - start - 8;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Append a file header (magic + generation) to `buf`.
pub fn put_header(buf: &mut Vec<u8>, generation: u64) {
    buf.put_u32(FILE_MAGIC);
    buf.put_u64(generation);
}

/// Parse a file header, returning the generation; `None` when the file is
/// too short or the magic mismatches.
#[must_use]
pub fn read_header(bytes: &[u8]) -> Option<u64> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != FILE_MAGIC {
        return None;
    }
    r.u64()
}

/// Iterator over the valid frames of a durable file's body, yielding
/// `(end_offset, payload)` where `end_offset` is the absolute file offset
/// just past the frame. Scanning stops — without error — at the first
/// torn or corrupt frame: a WAL's trustworthy prefix is exactly the frames
/// this yields, and the first `end_offset` not reached is the repair
/// truncation point.
#[derive(Debug)]
pub struct FrameScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// Scan the frames of `bytes`, starting after the header.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameScanner {
            bytes,
            pos: HEADER_LEN.min(bytes.len()),
        }
    }

    /// Scan a headerless run of frames (e.g. an uncommitted group-commit
    /// buffer), starting at offset 0.
    #[must_use]
    pub fn frames(bytes: &'a [u8]) -> Self {
        FrameScanner { bytes, pos: 0 }
    }

    /// Absolute offset of the scan cursor (= end of the last valid frame).
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<(usize, &'a [u8])> {
        let hdr = self.bytes.get(self.pos..self.pos + 8)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(hdr[4..].try_into().unwrap());
        let payload = self.bytes.get(self.pos + 8..self.pos + 8 + len)?;
        if crc32(payload) != want_crc || payload.is_empty() {
            return None;
        }
        self.pos += 8 + len;
        Some((self.pos, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook byte-at-a-time loop the sliced kernel must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| {
            CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
        })
    }

    /// xorshift64 bytes: a fixed pseudo-random buffer.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        // Every length across several blocks, at every alignment of a block.
        let buf = noise(300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset}, len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MiB buffer");
    }

    #[test]
    fn frames_round_trip_and_scanning_stops_at_torn_tail() {
        let mut buf = Vec::new();
        put_header(&mut buf, 3);
        for payload in [b"alpha".as_slice(), b"beta", b"gamma"] {
            let s = begin_frame(&mut buf);
            buf.extend_from_slice(payload);
            end_frame(&mut buf, s);
        }
        assert_eq!(read_header(&buf), Some(3));
        let frames: Vec<&[u8]> = FrameScanner::new(&buf).map(|(_, p)| p).collect();
        assert_eq!(frames, vec![b"alpha".as_slice(), b"beta", b"gamma"]);

        // Tear the last frame: the scan yields only the intact prefix and
        // parks the cursor at the torn frame's start (the repair point).
        let torn = &buf[..buf.len() - 2];
        let mut sc = FrameScanner::new(torn);
        assert_eq!(sc.by_ref().count(), 2);
        let second_end = FrameScanner::new(&buf).nth(1).unwrap().0;
        assert_eq!(sc.pos(), second_end);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut buf = Vec::new();
        put_header(&mut buf, 0);
        let s = begin_frame(&mut buf);
        buf.put_u8(TAG_ENTRY);
        buf.put_u64(0xdead_beef);
        end_frame(&mut buf, s);
        let n_ok = FrameScanner::new(&buf).count();
        assert_eq!(n_ok, 1);
        for bit in (HEADER_LEN * 8)..(buf.len() * 8) {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let survives = FrameScanner::new(&bad).any(|(_, p)| p == &buf[HEADER_LEN + 8..]);
            assert!(
                !survives,
                "bit {bit}: a corrupted frame scanned as the original"
            );
        }
    }

    #[test]
    fn fault_backend_tears_the_armed_append_and_dies() {
        let mut be = FaultBackend::new();
        be.append("w", b"0123456789").unwrap();
        be.arm(1, 4);
        assert!(be.append("w", b"abcdef").is_err());
        assert!(be.died());
        assert!(be.append("w", b"zz").is_err(), "dead until healed");
        be.heal();
        assert_eq!(be.mem().bytes("w").unwrap(), b"0123456789abcd");
    }

    #[test]
    fn fault_backend_atomic_replace_is_all_or_nothing() {
        let mut be = FaultBackend::new();
        be.write_atomic("m", b"old").unwrap();
        be.arm(1, 0);
        assert!(be.write_atomic("m", b"new").is_err());
        be.heal();
        assert_eq!(be.mem().bytes("m").unwrap(), b"old");
    }

    #[test]
    fn persist_round_trips() {
        let mut out = Vec::new();
        42u64.encode(&mut out);
        (-7i64).encode(&mut out);
        (u128::MAX - 5).encode(&mut out);
        1.5f64.encode(&mut out);
        Nanos(99).encode(&mut out);
        InlineKey::from_slice(&[1, -2, 3]).encode(&mut out);
        let mut r = ByteReader::new(&out);
        assert_eq!(u64::decode(&mut r), Some(42));
        assert_eq!(i64::decode(&mut r), Some(-7));
        assert_eq!(u128::decode(&mut r), Some(u128::MAX - 5));
        assert_eq!(f64::decode(&mut r), Some(1.5));
        assert_eq!(Nanos::decode(&mut r), Some(Nanos(99)));
        assert_eq!(
            InlineKey::decode(&mut r),
            Some(InlineKey::from_slice(&[1, -2, 3]))
        );
        assert_eq!(r.pos, out.len(), "every byte consumed");
    }

    #[test]
    fn disk_backend_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("perfq_wal_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut be = DiskBackend::create(&dir).unwrap();
        assert_eq!(be.read("w").unwrap(), None);
        be.append("w", b"ab").unwrap();
        be.append("w", b"cd").unwrap();
        be.sync("w").unwrap();
        assert_eq!(be.read("w").unwrap().unwrap(), b"abcd");
        be.truncate("w", 3).unwrap();
        assert_eq!(be.read("w").unwrap().unwrap(), b"abc");
        be.write_atomic("w", b"xyz").unwrap();
        assert_eq!(be.read("w").unwrap().unwrap(), b"xyz");
        be.remove("w").unwrap();
        assert_eq!(be.read("w").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
