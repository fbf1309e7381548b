//! The off-chip backing store (right half of Fig. 3).
//!
//! Evicted key-value pairs land here. Three absorption modes correspond to
//! the fold classes the language analysis derives:
//!
//! * **merge** — linear-in-state folds: the evicted value is merged into the
//!   existing value so the backing store always holds the exact aggregate
//!   (§3.2, "The merge operation");
//! * **overwrite** — pure packet-window folds: the evicted value alone is
//!   already correct, the previous value is stale;
//! * **epochs** — non-linear folds: each cache residency contributes one
//!   epoch; keys with more than one epoch are *invalid* because no merge
//!   function can reconcile them (§3.2, "Operations that are not linear in
//!   state"). Fig. 6's accuracy metric is the fraction of valid keys.
//!
//! The table is a **dense entry arena behind a compact index**. Records
//! live in a `Vec` in insertion order; a power-of-two `Vec<u64>` of index
//! words (`low 32 bits of the key's seeded SplitMix hash << 32 | arena
//! index`, `u64::MAX` = empty) is linear-probed at ≤ 7/8 load. A probe walks
//! 8-byte words — eight per cache line — and touches the arena only on a
//! 32-bit tag match; growth rebuilds the index from its own words (a word
//! carries its home position) and never moves a record. Deletion is
//! tombstone-free: a backward shift over index words, then `swap_remove` on
//! the arena and one re-point of the moved record's word — so iteration is
//! insertion order until a removal moves the last record into the hole.
//! Result order never depends on it (results are sorted by key words).
//! The first epoch of every record is stored inline ([`EpochList`]), so
//! absorbing a first-seen key allocates nothing beyond amortized arena and
//! index growth. At most `u32::MAX − 1` records fit one table.

use crate::hash::hash_key;
use perfq_packet::Nanos;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};

/// How evicted values are absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Merge evicted state into the standing value (linear-in-state folds).
    Merge,
    /// Replace the standing value (pure-window folds).
    Overwrite,
    /// Keep one value per cache residency (non-linear folds).
    Epochs,
}

/// One cache residency's final value (used in [`MergeMode::Epochs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch<V> {
    /// Value at eviction.
    pub value: V,
    /// First packet of the residency.
    pub first_seen: Nanos,
    /// Last packet of the residency.
    pub last_seen: Nanos,
}

/// A record's per-residency values: never empty, the first epoch stored
/// inline, a `Vec` only once a [`MergeMode::Epochs`] key has a second
/// residency. Derefs to `[Epoch<V>]` and compares by contents.
#[derive(Debug, Clone)]
pub struct EpochList<V>(Repr<V>);

#[derive(Debug, Clone)]
enum Repr<V> {
    One(Epoch<V>),
    Many(Vec<Epoch<V>>),
}

impl<V> EpochList<V> {
    /// A list holding exactly `epoch`.
    #[must_use]
    pub fn one(epoch: Epoch<V>) -> Self {
        EpochList(Repr::One(epoch))
    }

    /// Append a later residency.
    pub fn push(&mut self, epoch: Epoch<V>) {
        if let Repr::Many(v) = &mut self.0 {
            return v.push(epoch);
        }
        let Repr::One(first) = std::mem::replace(&mut self.0, Repr::Many(Vec::new())) else {
            unreachable!("the spilled case returned above")
        };
        self.0 = Repr::Many(vec![first, epoch]);
    }

    /// Consume the epochs in order, without the `Vec` a by-value iterator
    /// over the inline case would need.
    fn for_each(self, mut f: impl FnMut(Epoch<V>)) {
        match self.0 {
            Repr::One(e) => f(e),
            Repr::Many(v) => v.into_iter().for_each(f),
        }
    }
}

impl<V> Deref for EpochList<V> {
    type Target = [Epoch<V>];

    fn deref(&self) -> &[Epoch<V>] {
        match &self.0 {
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Many(v) => v,
        }
    }
}

impl<V> DerefMut for EpochList<V> {
    fn deref_mut(&mut self) -> &mut [Epoch<V>] {
        match &mut self.0 {
            Repr::One(e) => std::slice::from_mut(e),
            Repr::Many(v) => v,
        }
    }
}

impl<V: PartialEq> PartialEq for EpochList<V> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A key's standing record in the backing store.
#[derive(Debug, Clone, PartialEq)]
pub struct BackingEntry<V> {
    /// Per-residency values. In `Merge`/`Overwrite` modes this always has
    /// exactly one element; in `Epochs` mode it grows per eviction.
    pub epochs: EpochList<V>,
    /// Number of times this key was written back.
    pub writes: u32,
}

impl<V> BackingEntry<V> {
    /// The record a key's first write-back creates.
    fn first(epoch: Epoch<V>) -> Self {
        BackingEntry {
            epochs: EpochList::one(epoch),
            writes: 1,
        }
    }

    /// A key is valid when a single correct value can be produced for it —
    /// always true for merged/overwritten keys, and true for non-linear keys
    /// with exactly one epoch.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.epochs.len() == 1
    }

    /// The (single) value, if the key is valid.
    #[must_use]
    pub fn value(&self) -> Option<&V> {
        if self.is_valid() {
            self.epochs.first().map(|e| &e.value)
        } else {
            None
        }
    }

    /// The most recent epoch's value regardless of validity (each epoch is
    /// still "correct over a specific time interval", §3.2).
    #[must_use]
    pub fn latest(&self) -> &V {
        &self.epochs.last().expect("entries have ≥1 epoch").value
    }
}

/// Seed of the store's SplitMix probe hash (the same fixed seed the old
/// `SeededBuildHasher`-backed map used; the backing store is software-side
/// state, so — unlike the cache — its placement does not model hardware and
/// needs no per-store seed).
const PROBE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The empty index word (no record has arena index `u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// The index word of arena slot `i` for a key hashing to `hash`: the low 32
/// hash bits (tag *and* home position) above the arena index.
#[inline]
fn index_word(hash: u64, i: usize) -> u64 {
    hash << 32 | i as u64
}

/// The low 32 hash bits an index word carries.
#[inline]
fn tag(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Index capacity for `keys` records at ≤ 7/8 load (0 for an empty table).
fn index_capacity(keys: usize) -> usize {
    if keys == 0 {
        return 0;
    }
    (keys * 8).div_ceil(7).next_power_of_two().max(16)
}

/// `words` re-placed into a fresh index of `cap` words, each by the home
/// position it carries — no key is hashed and no record is touched.
fn place_words(words: &[u64], cap: usize) -> Vec<u64> {
    let mut index = vec![EMPTY; cap];
    for &word in words.iter().filter(|w| **w != EMPTY) {
        let mut pos = tag(word) as usize & (cap - 1);
        while index[pos] != EMPTY {
            pos = (pos + 1) & (cap - 1);
        }
        index[pos] = word;
    }
    index
}

/// One arena record.
#[derive(Debug, Clone)]
struct TableSlot<K, V> {
    key: K,
    entry: BackingEntry<V>,
}

/// The DRAM-side store: an open-addressing map with merge semantics.
///
/// The simulator keeps it in-process; the paper's deployment options (switch
/// CPU memory, scale-out Memcached/Redis) only change *where* the writes go,
/// and the evaluation consumes the write **rate**, tracked by `StoreStats`.
#[derive(Debug, Clone)]
pub struct BackingStore<K, V> {
    /// The records, densely, in insertion order (until a removal swaps the
    /// last one into the hole).
    entries: Vec<TableSlot<K, V>>,
    /// Power-of-two linear-probe index of [`index_word`]s over `entries`
    /// (empty until the first absorb).
    index: Vec<u64>,
    mode: MergeMode,
}

impl<K: Eq + Hash, V> BackingStore<K, V> {
    /// Create an empty store with the given absorption mode.
    #[must_use]
    pub fn new(mode: MergeMode) -> Self {
        Self::with_capacity(mode, 0)
    }

    /// An empty store sized to take `keys` records without growing.
    pub(crate) fn with_capacity(mode: MergeMode, keys: usize) -> Self {
        BackingStore {
            entries: Vec::with_capacity(keys),
            index: vec![EMPTY; index_capacity(keys)],
            mode,
        }
    }

    /// The absorption mode.
    #[must_use]
    pub fn mode(&self) -> MergeMode {
        self.mode
    }

    /// Number of distinct keys ever written back.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been written back.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Home position of an index word (or a hash) under the current mask.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        debug_assert!(self.index.len().is_power_of_two());
        tag as usize & (self.index.len() - 1)
    }

    /// Locate `key`: `Ok((index position, arena index))` of its record, or
    /// `Err(index position)` of the empty word that terminates its probe run
    /// (the insertion point). Requires a non-empty index.
    #[inline]
    fn find(&self, hash: u64, key: &K) -> Result<(usize, usize), usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(hash as u32);
        loop {
            let word = self.index[pos];
            if word == EMPTY {
                return Err(pos);
            }
            let i = word as u32 as usize;
            if tag(word) == hash as u32 && self.entries[i].key == *key {
                return Ok((pos, i));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// [`BackingStore::find`] for the upsert paths: one probe, and only a
    /// vacant key that would push the index past 7/8 load grows it and
    /// probes again (an existing key's merge never changes the population,
    /// so it never triggers a rehash).
    #[inline]
    fn probe(&mut self, hash: u64, key: &K) -> Result<(usize, usize), usize> {
        if !self.index.is_empty() {
            match self.find(hash, key) {
                Err(_) if (self.entries.len() + 1) * 8 > self.index.len() * 7 => {}
                found => return found,
            }
        }
        self.grow();
        self.find(hash, key)
    }

    /// Double the index, re-placing every word by the home position it
    /// carries — the arena is not touched.
    fn grow(&mut self) {
        self.index = place_words(&self.index, (self.index.len() * 2).max(16));
    }

    /// A copy of this table that takes `room` more records before its arena
    /// or its index grows: the arena is cloned in order and the index words
    /// are re-placed into an index of the final width, so a copy costs no
    /// hash and no probe per key.
    pub(crate) fn clone_with_room(&self, room: usize) -> Self
    where
        K: Clone,
        V: Clone,
    {
        let keys = self.entries.len() + room;
        let mut entries = Vec::with_capacity(keys);
        entries.extend_from_slice(&self.entries);
        BackingStore {
            entries,
            index: place_words(&self.index, index_capacity(keys).max(self.index.len())),
            mode: self.mode,
        }
    }

    /// Append a record to the arena and point the vacant index word `pos`
    /// (from [`BackingStore::probe`]) at it.
    #[inline]
    fn insert_at(&mut self, pos: usize, hash: u64, key: K, entry: BackingEntry<V>) {
        let i = self.entries.len();
        assert!(
            i < (u32::MAX - 1) as usize,
            "a backing table holds at most u32::MAX - 1 records (32-bit arena indices)"
        );
        self.index[pos] = index_word(hash, i);
        self.entries.push(TableSlot { key, entry });
    }

    /// Absorb an evicted value. `merge_fn` reconciles the evicted value with
    /// the standing one in [`MergeMode::Merge`] (it receives
    /// `(standing, evicted)` and must update `standing` in place).
    pub fn absorb(
        &mut self,
        key: K,
        value: V,
        first_seen: Nanos,
        last_seen: Nanos,
        merge_fn: impl FnOnce(&mut V, V),
    ) {
        let epoch = Epoch {
            value,
            first_seen,
            last_seen,
        };
        let mode = self.mode;
        let hash = hash_key(PROBE_SEED, &key);
        match self.probe(hash, &key) {
            Err(pos) => self.insert_at(pos, hash, key, BackingEntry::first(epoch)),
            Ok((_, i)) => {
                let existing = &mut self.entries[i].entry;
                existing.writes += 1;
                match mode {
                    MergeMode::Merge => {
                        let standing = existing.epochs.last_mut().expect("≥1 epoch");
                        merge_fn(&mut standing.value, epoch.value);
                        standing.last_seen = epoch.last_seen;
                        standing.first_seen = standing.first_seen.min(epoch.first_seen);
                    }
                    MergeMode::Overwrite => {
                        let standing = existing.epochs.last_mut().expect("≥1 epoch");
                        let first = standing.first_seen.min(epoch.first_seen);
                        *standing = epoch;
                        standing.first_seen = first;
                    }
                    MergeMode::Epochs => existing.epochs.push(epoch),
                }
            }
        }
    }

    /// Absorb a whole standing entry from **another** backing store — the
    /// merge-on-drain step of the sharded dataplane, where per-shard stores
    /// collapse into one result store. Unlike [`BackingStore::absorb`]
    /// (which absorbs evictions in temporal order from one stream), shard
    /// entries cover *interleaved* time ranges, so:
    ///
    /// * **merge** — `merge_fn` reconciles the values; the interval becomes
    ///   the union (`min(first_seen)`, `max(last_seen)`). Exact whenever the
    ///   fold is additive or the key was confined to one shard (the sharded
    ///   runtime's key-hash partitioning guarantees the latter for every
    ///   store whose key determines the shard);
    /// * **overwrite** — the temporally-latest residency wins
    ///   (`last_seen`), matching single-stream semantics where the final
    ///   flush of the key's only shard holds the current value;
    /// * **epochs** — epoch lists concatenate and re-sort by interval, so a
    ///   key split across shards is marked invalid (≥ 2 epochs) exactly
    ///   like a key with two cache residencies — no merge function exists.
    pub fn absorb_entry(&mut self, key: K, entry: BackingEntry<V>, merge_fn: impl Fn(&mut V, V)) {
        let mode = self.mode;
        let hash = hash_key(PROBE_SEED, &key);
        match self.probe(hash, &key) {
            Err(pos) => self.insert_at(pos, hash, key, entry),
            Ok((_, i)) => {
                let existing = &mut self.entries[i].entry;
                existing.writes += entry.writes;
                match mode {
                    MergeMode::Merge => {
                        let standing = existing.epochs.last_mut().expect("≥1 epoch");
                        entry.epochs.for_each(|epoch| {
                            merge_fn(&mut standing.value, epoch.value);
                            standing.first_seen = standing.first_seen.min(epoch.first_seen);
                            standing.last_seen = standing.last_seen.max(epoch.last_seen);
                        });
                    }
                    MergeMode::Overwrite => {
                        let standing = existing.epochs.last_mut().expect("≥1 epoch");
                        // Interval start unions over every residency — also
                        // the ones whose (stale) values are skipped —
                        // matching absorb()'s unconditional min.
                        let mut first = standing.first_seen;
                        entry.epochs.for_each(|epoch| {
                            first = first.min(epoch.first_seen);
                            if epoch.last_seen > standing.last_seen {
                                *standing = epoch;
                            }
                        });
                        standing.first_seen = first;
                    }
                    MergeMode::Epochs => {
                        entry.epochs.for_each(|epoch| existing.epochs.push(epoch));
                        existing.epochs.sort_by_key(|e| (e.first_seen, e.last_seen));
                    }
                }
            }
        }
    }

    /// Drain `other` into this store via [`BackingStore::absorb_entry`].
    /// Iteration order over `other` is immaterial: entry absorption is
    /// keyed, and per-key combination is order-normalized (interval union /
    /// latest-residency / sorted epochs), so the drain is deterministic.
    pub fn merge_from(&mut self, other: BackingStore<K, V>, merge_fn: impl Fn(&mut V, V)) {
        debug_assert_eq!(self.mode, other.mode, "stores must share a merge mode");
        for slot in other.entries {
            self.absorb_entry(slot.key, slot.entry, &merge_fn);
        }
    }

    /// Drain `other` into this store with *supersession* semantics: each of
    /// `other`'s records replaces the record standing here wholesale rather
    /// than merging into it. This is the materialization drain for a durable
    /// tier running under checkpoints — a live RAM record is the complete
    /// truth for its key and supersedes every snapshot frame the disk replay
    /// folded to, and re-merging the two composites would double-count.
    pub fn replace_from(&mut self, other: BackingStore<K, V>) {
        debug_assert_eq!(self.mode, other.mode, "stores must share a merge mode");
        for slot in other.entries {
            self.replace_entry(slot.key, slot.entry);
        }
    }

    /// By-value upsert with supersession semantics: `entry` becomes the
    /// standing record for `key`, whatever stood there before
    /// ([`BackingStore::replace_from`], snapshot frames at replay, standing
    /// RAM records over a poll frame's replayed disk).
    pub(crate) fn replace_entry(&mut self, key: K, entry: BackingEntry<V>) {
        let hash = hash_key(PROBE_SEED, &key);
        match self.probe(hash, &key) {
            Err(pos) => self.insert_at(pos, hash, key, entry),
            Ok((_, i)) => self.entries[i].entry = entry,
        }
    }

    /// Look up a key's standing record.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&BackingEntry<V>> {
        if self.entries.is_empty() {
            return None;
        }
        let (_, i) = self.find(hash_key(PROBE_SEED, key), key).ok()?;
        Some(&self.entries[i].entry)
    }

    /// Remove a key's standing record. Deletion is tombstone-free: the probe
    /// run past the hole is backward-shifted over index words (each
    /// displaced word moves into the hole when the home position it carries
    /// permits), so later probes stay short no matter how many keys have
    /// come and gone; the arena stays dense by swapping its last record into
    /// the freed slot and re-pointing that record's index word.
    pub fn remove(&mut self, key: &K) -> Option<BackingEntry<V>> {
        if self.entries.is_empty() {
            return None;
        }
        let (removed_at, i) = self.find(hash_key(PROBE_SEED, key), key).ok()?;
        let mask = self.index.len() - 1;
        let mut hole = removed_at;
        let mut pos = (removed_at + 1) & mask;
        while self.index[pos] != EMPTY {
            let home = self.home(tag(self.index[pos]));
            // Shift back unless the word already sits within [home, pos)'s
            // probe run without passing the hole (cyclic distance test).
            let dist_from_home = pos.wrapping_sub(home) & mask;
            let dist_from_hole = pos.wrapping_sub(hole) & mask;
            if dist_from_home >= dist_from_hole {
                self.index[hole] = self.index[pos];
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.index[hole] = EMPTY;
        let removed = self.entries.swap_remove(i);
        if let Some(moved) = self.entries.get(i) {
            // The former last record now lives at `i`: find the word that
            // still names its old arena index and re-point it.
            let was = self.entries.len();
            let mut pos = self.home(hash_key(PROBE_SEED, &moved.key) as u32);
            while self.index[pos] as u32 as usize != was {
                pos = (pos + 1) & mask;
            }
            self.index[pos] = index_word(tag(self.index[pos]).into(), i);
        }
        Some(removed.entry)
    }

    /// Iterate over all records.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &BackingEntry<V>)> + Clone {
        self.entries.iter().map(|s| (&s.key, &s.entry))
    }

    /// Count of valid keys (Fig. 6's numerator).
    #[must_use]
    pub fn valid_keys(&self) -> usize {
        self.iter().filter(|(_, e)| e.is_valid()).count()
    }

    /// Fraction of valid keys (Fig. 6's accuracy metric). Returns 1.0 for an
    /// empty store (no keys ⇒ nothing is wrong).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.is_empty() {
            1.0
        } else {
            self.valid_keys() as f64 / self.len() as f64
        }
    }

    /// Drop all records (start of a new measurement window). Keeps the arena
    /// and index capacity so a reused store re-fills allocation-free.
    pub fn clear(&mut self) {
        self.index.fill(EMPTY);
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(standing: &mut u64, evicted: u64) {
        *standing += evicted;
    }

    #[test]
    fn merge_mode_accumulates() {
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
        b.absorb(1, 10, Nanos(0), Nanos(5), add);
        b.absorb(1, 7, Nanos(10), Nanos(15), add);
        let e = b.get(&1).unwrap();
        assert!(e.is_valid());
        assert_eq!(*e.value().unwrap(), 17);
        assert_eq!(e.writes, 2);
        assert_eq!(e.epochs[0].first_seen, Nanos(0));
        assert_eq!(e.epochs[0].last_seen, Nanos(15));
    }

    #[test]
    fn overwrite_mode_keeps_latest() {
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Overwrite);
        b.absorb(1, 10, Nanos(0), Nanos(5), add);
        b.absorb(1, 7, Nanos(10), Nanos(15), add);
        let e = b.get(&1).unwrap();
        assert!(e.is_valid());
        assert_eq!(*e.value().unwrap(), 7);
    }

    #[test]
    fn epoch_mode_invalidates_on_second_eviction() {
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Epochs);
        b.absorb(1, 10, Nanos(0), Nanos(5), add);
        assert!(b.get(&1).unwrap().is_valid());
        b.absorb(1, 7, Nanos(10), Nanos(15), add);
        let e = b.get(&1).unwrap();
        assert!(!e.is_valid());
        assert_eq!(e.value(), None);
        assert_eq!(*e.latest(), 7);
        assert_eq!(e.epochs.len(), 2);
    }

    #[test]
    fn accuracy_counts_valid_fraction() {
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Epochs);
        b.absorb(1, 1, Nanos(0), Nanos(1), add);
        b.absorb(2, 1, Nanos(0), Nanos(1), add);
        b.absorb(2, 1, Nanos(2), Nanos(3), add); // key 2 invalid
        b.absorb(3, 1, Nanos(0), Nanos(1), add);
        b.absorb(4, 1, Nanos(0), Nanos(1), add);
        assert_eq!(b.valid_keys(), 3);
        assert!((b.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_store_is_fully_accurate() {
        let b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Epochs);
        assert_eq!(b.accuracy(), 1.0);
        assert!(b.is_empty());
    }

    #[test]
    fn absorb_entry_merges_values_and_intervals() {
        let mut a: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
        a.absorb(1, 10, Nanos(5), Nanos(20), add);
        b.absorb(1, 7, Nanos(0), Nanos(9), add);
        b.absorb(2, 3, Nanos(1), Nanos(2), add);
        a.merge_from(b, add);
        let e = a.get(&1).unwrap();
        assert_eq!(*e.value().unwrap(), 17);
        // Interval is the union even though the incoming entry is older.
        assert_eq!(e.epochs[0].first_seen, Nanos(0));
        assert_eq!(e.epochs[0].last_seen, Nanos(20));
        assert_eq!(e.writes, 2);
        assert_eq!(*a.get(&2).unwrap().value().unwrap(), 3);
    }

    #[test]
    fn absorb_entry_overwrite_latest_residency_wins() {
        let mut a: BackingStore<u64, u64> = BackingStore::new(MergeMode::Overwrite);
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Overwrite);
        a.absorb(1, 100, Nanos(5), Nanos(50), add);
        b.absorb(1, 200, Nanos(0), Nanos(30), add); // older residency
        a.merge_from(b, add);
        let e = a.get(&1).unwrap();
        assert_eq!(*e.value().unwrap(), 100);
        // A skipped (stale) residency still contributes its interval start,
        // exactly as single-stream absorb() would have.
        assert_eq!(e.epochs[0].first_seen, Nanos(0));
        let mut c: BackingStore<u64, u64> = BackingStore::new(MergeMode::Overwrite);
        c.absorb(1, 300, Nanos(60), Nanos(90), add); // newer residency
        a.merge_from(c, add);
        let e = a.get(&1).unwrap();
        assert_eq!(*e.value().unwrap(), 300);
        assert_eq!(e.epochs[0].first_seen, Nanos(0), "interval start preserved");
    }

    #[test]
    fn absorb_entry_epochs_concatenate_in_time_order() {
        let mut a: BackingStore<u64, u64> = BackingStore::new(MergeMode::Epochs);
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Epochs);
        a.absorb(1, 5, Nanos(10), Nanos(20), add);
        b.absorb(1, 9, Nanos(0), Nanos(5), add);
        a.merge_from(b, add);
        let e = a.get(&1).unwrap();
        assert!(
            !e.is_valid(),
            "a key split across stores has no single value"
        );
        assert_eq!(e.epochs.len(), 2);
        assert_eq!(e.epochs[0].value, 9, "epochs sorted by interval");
        assert_eq!(e.epochs[1].value, 5);
    }

    #[test]
    fn clear_resets() {
        let mut b: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
        b.absorb(1, 1, Nanos(0), Nanos(1), add);
        b.clear();
        assert!(b.is_empty());
        assert!(b.get(&1).is_none());
    }
}

/// Model-based test of the arena + index table: random operation sequences
/// against a `HashMap` reference that shares none of the table's code, with
/// the index's structural invariants checked after every step.
#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    type RefEpochs = Vec<(u64, Nanos, Nanos)>;

    /// The reference record: plain vectors, semantics restated from the
    /// method docs.
    #[derive(Debug, Clone, PartialEq)]
    struct RefEntry {
        epochs: RefEpochs,
        writes: u32,
    }

    struct Model {
        mode: MergeMode,
        map: HashMap<u64, RefEntry>,
    }

    impl Model {
        fn absorb_entry(&mut self, key: u64, entry: RefEntry) {
            let Some(existing) = self.map.get_mut(&key) else {
                self.map.insert(key, entry);
                return;
            };
            existing.writes += entry.writes;
            match self.mode {
                MergeMode::Merge => {
                    let standing = existing.epochs.last_mut().unwrap();
                    for (v, first, last) in entry.epochs {
                        standing.0 += v;
                        standing.1 = standing.1.min(first);
                        standing.2 = standing.2.max(last);
                    }
                }
                MergeMode::Overwrite => {
                    let standing = existing.epochs.last_mut().unwrap();
                    let first = entry
                        .epochs
                        .iter()
                        .map(|e| e.1)
                        .min()
                        .unwrap()
                        .min(standing.1);
                    for e in entry.epochs {
                        if e.2 > standing.2 {
                            *standing = e;
                        }
                    }
                    standing.1 = first;
                }
                MergeMode::Epochs => {
                    existing.epochs.extend(entry.epochs);
                    existing.epochs.sort_by_key(|e| (e.1, e.2));
                }
            }
        }

        /// `absorb` differs from a one-epoch `absorb_entry` only in trusting
        /// temporal order: the evicted residency's `last_seen` is taken as is
        /// and the value always replaces in overwrite mode.
        fn absorb(&mut self, key: u64, epoch: (u64, Nanos, Nanos)) {
            let mode = self.mode;
            match self.map.get_mut(&key) {
                Some(existing) if mode != MergeMode::Epochs => {
                    existing.writes += 1;
                    let standing = existing.epochs.last_mut().unwrap();
                    let first = standing.1.min(epoch.1);
                    let value = match mode {
                        MergeMode::Merge => standing.0 + epoch.0,
                        _ => epoch.0,
                    };
                    *standing = (value, first, epoch.2);
                }
                _ => self.absorb_entry(
                    key,
                    RefEntry {
                        epochs: vec![epoch],
                        writes: 1,
                    },
                ),
            }
        }
    }

    fn as_ref_entry(e: &BackingEntry<u64>) -> RefEntry {
        RefEntry {
            epochs: e
                .epochs
                .iter()
                .map(|ep| (ep.value, ep.first_seen, ep.last_seen))
                .collect(),
            writes: e.writes,
        }
    }

    fn as_entry(e: &RefEntry) -> BackingEntry<u64> {
        let mut epochs = e
            .epochs
            .iter()
            .map(|&(value, first_seen, last_seen)| Epoch {
                value,
                first_seen,
                last_seen,
            });
        let mut list = EpochList::one(epochs.next().expect("≥1 epoch"));
        epochs.for_each(|ep| list.push(ep));
        BackingEntry {
            epochs: list,
            writes: e.writes,
        }
    }

    /// Every index word names the arena record whose hash it carries, every
    /// record is named exactly once, and the load stays ≤ 7/8.
    fn check_index(t: &BackingStore<u64, u64>) {
        assert!(t.index.is_empty() || t.index.len().is_power_of_two());
        assert!(t.entries.len() * 8 <= t.index.len() * 7, "load factor");
        let mut named = vec![false; t.entries.len()];
        for &word in t.index.iter().filter(|w| **w != EMPTY) {
            let i = word as u32 as usize;
            assert!(
                i < t.entries.len(),
                "word names arena slot {i} past the end"
            );
            assert!(
                !std::mem::replace(&mut named[i], true),
                "slot {i} named twice"
            );
            let hash = hash_key(PROBE_SEED, &t.entries[i].key);
            assert_eq!(tag(word), hash as u32, "word carries another key's hash");
        }
        assert!(named.iter().all(|n| *n), "a record lost its index word");
    }

    /// `len`, `get` over the whole key domain (present and absent keys) and
    /// the `iter()` set agree with the reference.
    fn check_against(t: &BackingStore<u64, u64>, m: &Model, domain: u64) {
        check_index(t);
        assert_eq!(t.len(), m.map.len());
        assert_eq!(t.is_empty(), m.map.is_empty());
        for k in 0..domain {
            assert_eq!(
                t.get(&k).map(as_ref_entry).as_ref(),
                m.map.get(&k),
                "get({k})"
            );
        }
        let mut seen: Vec<(u64, RefEntry)> = t.iter().map(|(k, e)| (*k, as_ref_entry(e))).collect();
        seen.sort_by_key(|(k, _)| *k);
        let mut want: Vec<(u64, RefEntry)> = m.map.iter().map(|(k, e)| (*k, e.clone())).collect();
        want.sort_by_key(|(k, _)| *k);
        assert_eq!(seen, want, "iter() set");
    }

    fn add(standing: &mut u64, evicted: u64) {
        *standing += evicted;
    }

    const MODES: [MergeMode; 3] = [MergeMode::Merge, MergeMode::Overwrite, MergeMode::Epochs];
    /// Wide enough to cross the 16 → 32 → 64 index growths.
    const DOMAIN: u64 = 48;

    /// A small side table for the `merge_from` / `replace_from` steps,
    /// built identically on both sides.
    fn side_tables(mode: MergeMode, seed: u64, t0: u64) -> (BackingStore<u64, u64>, Model) {
        let mut t = BackingStore::new(mode);
        let mut m = Model {
            mode,
            map: HashMap::new(),
        };
        for j in 0..(seed % 7) {
            let key = (seed * 7 + j * 5) % DOMAIN;
            let (first, last) = (Nanos(t0 + j), Nanos(t0 + j + seed % 3));
            t.absorb(key, seed + j, first, last, add);
            m.absorb(key, (seed + j, first, last));
        }
        (t, m)
    }

    proptest! {
        #[test]
        fn random_ops_match_hashmap_reference(
            ops in prop::collection::vec((0u8..20, 0u64..DOMAIN, 0u64..1000, 0u64..40), 1..400),
            mode_sel in 0usize..3,
        ) {
            let mode = MODES[mode_sel];
            let mut t: BackingStore<u64, u64> = BackingStore::new(mode);
            let mut m = Model { mode, map: HashMap::new() };
            let mut now = 0u64;
            for (op, key, value, dt) in ops {
                now += 1 + dt;
                let (first, last) = (Nanos(now), Nanos(now + dt));
                match op {
                    0..=6 => {
                        t.absorb(key, value, first, last, add);
                        m.absorb(key, (value, first, last));
                    }
                    7..=8 => {
                        // A two-residency entry from "another shard", its
                        // interval interleaved with what stands here.
                        let early = Nanos(now.saturating_sub(2 * dt));
                        let entry = RefEntry {
                            epochs: vec![(value, early, first), (value + 1, first, last)],
                            writes: 2,
                        };
                        let entry = if mode == MergeMode::Epochs { entry } else {
                            RefEntry { epochs: vec![entry.epochs[0]], writes: 1 }
                        };
                        t.absorb_entry(key, as_entry(&entry), add);
                        m.absorb_entry(key, entry);
                    }
                    9..=11 => {
                        let entry = RefEntry { epochs: vec![(value, first, last)], writes: 3 };
                        t.replace_entry(key, as_entry(&entry));
                        m.map.insert(key, entry);
                    }
                    12..=16 => {
                        let got = t.remove(&key).as_ref().map(as_ref_entry);
                        prop_assert_eq!(got, m.map.remove(&key), "remove({})", key);
                    }
                    17 => {
                        let (other, other_m) = side_tables(mode, value, now);
                        t.merge_from(other, add);
                        for (k, e) in other_m.map {
                            m.absorb_entry(k, e);
                        }
                    }
                    18 => {
                        let (other, other_m) = side_tables(mode, value, now);
                        t.replace_from(other);
                        m.map.extend(other_m.map);
                    }
                    _ => {
                        if value % 8 == 0 {
                            t.clear();
                            m.map.clear();
                        }
                    }
                }
                check_against(&t, &m, DOMAIN);
            }
        }
    }

    /// The `swap_remove` re-point, forced: remove the first, the last and
    /// the only record, at populations on both sides of every growth
    /// boundary of a small table.
    #[test]
    fn removing_first_last_and_only_record_repoints_the_moved_word() {
        for n in [1u64, 2, 13, 14, 15, 16, 28, 29, 30] {
            for victim in [0, n - 1, n / 2] {
                let mut t: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
                let mut m = Model {
                    mode: MergeMode::Merge,
                    map: HashMap::new(),
                };
                for k in 0..n {
                    t.absorb(k, k, Nanos(k), Nanos(k), add);
                    m.absorb(k, (k, Nanos(k), Nanos(k)));
                }
                // Arena order is insertion order: key `victim` is record `victim`.
                assert_eq!(t.iter().nth(victim as usize).map(|(k, _)| *k), Some(victim));
                assert_eq!(
                    t.remove(&victim).as_ref().map(as_ref_entry),
                    m.map.remove(&victim)
                );
                check_against(&t, &m, n + 1);
                // Drain the rest front to back: every removal but the last
                // moves the tail record.
                for k in (0..n).filter(|k| *k != victim) {
                    assert!(
                        t.remove(&k).is_some(),
                        "key {k} lost (n {n}, victim {victim})"
                    );
                    m.map.remove(&k);
                    check_against(&t, &m, n + 1);
                }
                assert!(t.is_empty() && t.remove(&victim).is_none());
                // A drained table re-fills in place.
                t.absorb(victim, 1, Nanos(0), Nanos(0), add);
                m.absorb(victim, (1, Nanos(0), Nanos(0)));
                check_against(&t, &m, n + 1);
            }
        }
    }
}
