//! Isolated per-layer replays: each times or counts one crate's public API
//! over the workload's own records and keys, outside any pass.
//!
//! These are estimates of shares *inside* the `core.ingest` span, not spans:
//! a layer replayed alone keeps its working set in cache, so the parts sum
//! to less than the whole. They exist to say which layer a change moved.

use crate::iocount::CountingBackend;
use crate::workload::{Setup, Workload, BATCH};
use perfq_core::result::value_key;
use perfq_core::{ShardRouter, ShardSpec};
use perfq_kvstore::hash::hash_key;
use perfq_kvstore::{
    shared, write_manifest, CounterOps, InlineKey, SharedBackend, SplitStore, StoreSnapshot,
};
use perfq_lang::Value;
use perfq_packet::Nanos;
use perfq_switch::spsc;
use perfq_switch::{Network, NetworkConfig, QueueRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed replay; the median is reported.
const REPS: usize = 3;

/// Median wall time of `REPS` calls of `f`, in ns.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0; REPS];
    for s in &mut samples {
        let t = Instant::now();
        f();
        *s = t.elapsed().as_nanos() as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Run every isolated replay that lies on `setup`'s path and return the
/// metrics by name. Layers idle on this workload report 0.
#[must_use]
pub fn measure(setup: &Setup) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let n = setup.records as f64;

    m.insert(
        "trace.gen_ns_per_packet",
        setup.gen_ns as f64 / setup.packets.len() as f64,
    );
    let mut compile: Vec<f64> = setup.compile_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    compile.sort_by(f64::total_cmp);
    m.insert("lang.compile_us", compile[compile.len() / 2]);

    // switch: the event loop alone, then the records it produces.
    let mut net = Network::new(NetworkConfig::default());
    let run = median_ns(|| {
        let mut count = 0u64;
        net.run(setup.packets.iter().copied(), |_| count += 1);
        black_box(count);
    });
    m.insert("switch.run_ns_per_record", run / n);
    m.insert("switch.records_per_packet", n / setup.packets.len() as f64);
    m.insert("switch.drops", net.total_drops() as f64);
    let records = net.run_collect(setup.packets.iter().copied());

    let mut row: Vec<Value> = Vec::new();
    let write_row = median_ns(|| {
        let mut acc = 0i64;
        for r in &records {
            r.write_row_masked(&mut row, u64::MAX);
            acc = acc.wrapping_add(row[0].as_i64());
        }
        black_box(acc);
    });
    m.insert("switch.write_row_ns_per_record", write_row / n);

    let sharded = setup.workload == Workload::ShardedHandoff;
    m.insert(
        "switch.ring_ns_per_record",
        if sharded { ring_ns(&records) / n } else { 0.0 },
    );
    let spec = ShardSpec::from_compiled(&setup.programs[0]);
    m.insert(
        "core.route_ns_per_record",
        if sharded {
            let mut router = ShardRouter::new(spec.clone(), setup.shards);
            median_ns(|| {
                let mut acc = 0usize;
                for r in &records {
                    acc = acc.wrapping_add(router.route(r));
                }
                black_box(acc);
            }) / n
        } else {
            0.0
        },
    );

    // kvstore: the first program's group-key stream against a bare store at
    // the compiled geometry, policy and seed.
    let keys = KeyStream::extract(&records, spec.columns());
    drop(records);
    let plan = setup.programs[0]
        .stores
        .iter()
        .flatten()
        .next()
        .expect("every workload's first program aggregates");
    let key_hash = median_ns(|| {
        let mut acc = 0u64;
        for words in keys.words.chunks_exact(keys.width) {
            acc = acc.wrapping_add(hash_key(plan.hash_seed, &InlineKey::from_slice(words)));
        }
        black_box(acc);
    });
    m.insert("kvstore.key_hash_ns", key_hash / n);

    let new_store = || -> SplitStore<InlineKey, CounterOps> {
        SplitStore::new(plan.geometry, plan.policy, plan.hash_seed, CounterOps)
    };
    let mut observe = [0.0; REPS];
    let mut snapshot = [0.0; REPS];
    let mut flush = [0.0; REPS];
    for rep in 0..REPS {
        let mut store = new_store();
        let t = Instant::now();
        keys.replay(|key, now| store.observe(key, &(), now));
        observe[rep] = t.elapsed().as_nanos() as f64;

        let mut frame = StoreSnapshot::new(store.backing().mode());
        store.snapshot_into(&mut frame);
        let t = Instant::now();
        store.snapshot_into(&mut frame);
        snapshot[rep] = t.elapsed().as_nanos() as f64;
        black_box(frame.len());

        let t = Instant::now();
        store.flush();
        flush[rep] = t.elapsed().as_nanos() as f64;

        if rep + 1 == REPS {
            let stats = store.stats();
            m.insert("kvstore.hit_rate", stats.hit_rate());
            m.insert("kvstore.eviction_fraction", stats.eviction_fraction());
            m.insert("kvstore.backing_keys", store.backing().len() as f64);
        }
    }
    for s in [&mut observe, &mut snapshot, &mut flush] {
        s.sort_by(f64::total_cmp);
    }
    m.insert("kvstore.observe_ns_per_key", observe[REPS / 2] / n);
    m.insert("kvstore.snapshot_ms", snapshot[REPS / 2] / 1e6);
    m.insert("kvstore.flush_ms", flush[REPS / 2] / 1e6);

    let durable = setup.workload == Workload::DurableSpill;
    let spilled = durable.then(|| spill_replay(setup, &keys, new_store));
    let s = spilled.unwrap_or_default();
    m.insert("kvstore.spilled_frames", s.spilled_frames);
    m.insert("kvstore.commits", s.commits);
    m.insert("kvstore.checkpoints", s.checkpoints);
    m.insert("kvstore.compactions", s.compactions);
    m.insert("kvstore.recover_pairs_per_s", s.recover_pairs_per_s);
    m
}

/// The group-key words and store timestamps of a record stream, flat.
struct KeyStream {
    width: usize,
    words: Vec<i64>,
    times: Vec<Nanos>,
}

impl KeyStream {
    fn extract(records: &[QueueRecord], cols: &[usize]) -> KeyStream {
        let mask = cols.iter().fold(0u64, |m, c| m | 1 << c);
        let mut row: Vec<Value> = Vec::new();
        let mut words = Vec::with_capacity(records.len() * cols.len());
        let mut times = Vec::with_capacity(records.len());
        for r in records {
            r.write_row_masked(&mut row, mask);
            words.extend(cols.iter().map(|c| value_key(&row[*c])));
            times.push(r.observed_at());
        }
        KeyStream {
            width: cols.len(),
            words,
            times,
        }
    }

    fn replay(&self, mut f: impl FnMut(InlineKey, Nanos)) {
        for (words, now) in self.words.chunks_exact(self.width).zip(&self.times) {
            f(InlineKey::from_slice(words), *now);
        }
    }
}

/// Records through the lock-free ring into a consumer thread that only
/// counts them: the price of the handoff without the worker's fold.
fn ring_ns(records: &[QueueRecord]) -> f64 {
    median_ns(|| {
        let (tx, rx) = spsc::channel::<QueueRecord>(perfq_core::sharded::DEFAULT_QUEUE_CAPACITY);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let mut out = Vec::with_capacity(BATCH);
                let mut seen = 0usize;
                while rx.recv_many(&mut out, BATCH) > 0 {
                    seen += out.len();
                    out.clear();
                }
                seen
            });
            let mut batch = Vec::with_capacity(BATCH);
            for part in records.chunks(BATCH) {
                batch.extend_from_slice(part);
                tx.send_all(&mut batch).expect("consumer alive");
            }
            drop(tx);
            let seen = consumer.join().expect("consumer thread");
            assert_eq!(seen, records.len(), "ring lost records");
        });
    })
}

#[derive(Default)]
struct SpillReplay {
    spilled_frames: f64,
    commits: f64,
    checkpoints: f64,
    compactions: f64,
    recover_pairs_per_s: f64,
}

/// `durable_spill`: the key stream against a bare store with the spill tier
/// on the pass's schedule, then `recover_spill` on a fork of its disk.
fn spill_replay(
    setup: &Setup,
    keys: &KeyStream,
    new_store: impl Fn() -> SplitStore<InlineKey, CounterOps>,
) -> SpillReplay {
    let cfg = setup.sizing.spill_config();
    const PREFIX: &str = "iso_";
    const MANIFEST: &str = "iso_MANIFEST";
    let handle = CountingBackend::handle();
    let backend: SharedBackend = handle.clone();
    let mut store = new_store();
    store
        .enable_spill(backend.clone(), PREFIX, cfg)
        .expect("memory backend never fails");
    let every = setup.sizing.persist_every_batches * BATCH;
    let mut seen = 0usize;
    let mut checkpoint = None;
    keys.replay(|key, now| {
        store.observe(key, &(), now);
        seen += 1;
        if seen.is_multiple_of(every) {
            let at = seen as u64;
            store.persist(at).expect("memory backend never fails");
            write_manifest(&backend, MANIFEST, at).expect("memory backend never fails");
            store.compact_spill().expect("memory backend never fails");
            checkpoint = Some(at);
        }
    });
    let stats = store.spill_stats().expect("tier enabled above");
    let disk = handle.lock().expect("backend mutex").fork();

    let mut forks = vec![disk; REPS];
    let mut pairs = 0usize;
    let recover = median_ns(|| {
        let fork = forks.pop().expect("one fork per repetition");
        let mut cold = new_store();
        cold.recover_spill(shared(fork), PREFIX, cfg, checkpoint)
            .expect("recovery from a clean checkpoint");
        pairs = cold.backing().len();
    });
    SpillReplay {
        spilled_frames: stats.spilled_frames as f64,
        commits: stats.commits as f64,
        checkpoints: stats.checkpoints as f64,
        compactions: stats.compactions as f64,
        recover_pairs_per_s: pairs as f64 / (recover / 1e9),
    }
}
