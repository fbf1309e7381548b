//! A counting [`IoBackend`] owned by the benchmark: sandbox memory, not a
//! device. It forwards every call to a [`MemBackend`] unchanged and counts
//! what crossed, so byte counts are exact and filesystem noise is out.

use perfq_kvstore::wal::{IoBackend, MemBackend};
use std::io;
use std::sync::{Arc, Mutex};

/// What crossed the backend boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `append` calls.
    pub appends: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `write_atomic` calls.
    pub atomic_writes: u64,
    /// Bytes passed to `append` + `write_atomic`.
    pub bytes: u64,
}

/// [`MemBackend`] plus [`IoCounts`].
#[derive(Debug, Default)]
pub struct CountingBackend {
    inner: MemBackend,
    counts: IoCounts,
}

/// A typed handle to a shared [`CountingBackend`]: a clone coerces to the
/// type-erased `SharedBackend` the engine takes, and the benchmark keeps
/// this one to read the counts back and fork the bytes.
pub type CountingHandle = Arc<Mutex<CountingBackend>>;

impl CountingBackend {
    /// A fresh, empty backend behind a typed handle.
    #[must_use]
    pub fn handle() -> CountingHandle {
        Arc::new(Mutex::new(CountingBackend::default()))
    }

    /// The counts so far.
    #[must_use]
    pub fn counts(&self) -> IoCounts {
        self.counts
    }

    /// A copy of the bytes written so far — a restart on the same disk.
    #[must_use]
    pub fn fork(&self) -> MemBackend {
        self.inner.clone()
    }
}

impl IoBackend for CountingBackend {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.counts.appends += 1;
        self.counts.bytes += bytes.len() as u64;
        self.inner.append(name, bytes)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.counts.atomic_writes += 1;
        self.counts.bytes += bytes.len() as u64;
        self.inner.write_atomic(name, bytes)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.counts.syncs += 1;
        self.inner.sync(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}
