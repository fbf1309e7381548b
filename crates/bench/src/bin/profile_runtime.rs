//! Decompose per-record dataplane cost: row materialization, key build,
//! store update (probe vs fold vs ring handoff), full pipeline — plus an
//! end-to-end decomposition of the full replay (trace generation vs switch
//! event loop vs store vs query execution time shares), so ingest-path
//! regressions are attributable to a stage rather than a single opaque
//! number.
//!
//! ```sh
//! cargo run --release -p perfq-bench --bin profile_runtime
//! cargo run --release -p perfq-bench --bin profile_runtime -- --csv
//! ```
//!
//! `--csv` switches the report to machine-readable rows
//! (`stage,ns_per_record,mrecords_per_sec,derived`) with section headers as
//! `#` comments, for diffing runs across commits.

use perfq_core::{compile_query, MultiRuntime, Runtime};
use perfq_lang::fig2;
use perfq_lang::Value;
use perfq_switch::{Network, NetworkConfig, QueueRecord};
use perfq_trace::{SyntheticTrace, TraceConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// `--csv` flag, set once at startup before any measurement prints.
static CSV: AtomicBool = AtomicBool::new(false);

fn csv() -> bool {
    CSV.load(Ordering::Relaxed)
}

/// Print a section header (`#`-prefixed comment in CSV mode).
fn section(title: &str) {
    if csv() {
        println!("# {title}");
    } else {
        println!("\n{title}");
    }
}

/// Emit one measurement row in the active output format.
fn emit(label: &str, ns: f64, mps: f64, is_derived: bool) {
    if csv() {
        println!("{label},{ns:.2},{mps:.2},{}", u8::from(is_derived));
    } else {
        println!(
            "{label:<40} {ns:>10.2} ns/record {mps:>10.2} M/s{}",
            if is_derived { "  (derived)" } else { "" }
        );
    }
}

fn time(label: &str, n: usize, mut f: impl FnMut()) -> f64 {
    // One warmup, then best-of-3. Returns the best wall time so callers can
    // derive phase differences (e.g. fold = full − filter-only).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    emit(label, best * 1e9 / n as f64, n as f64 / best / 1e6, false);
    best
}

/// Print a derived (subtracted) phase share in the same format as [`time`].
fn derived(label: &str, n: usize, secs: f64) {
    let secs = secs.max(0.0);
    emit(
        label,
        secs * 1e9 / n as f64,
        if secs > 0.0 { n as f64 / secs / 1e6 } else { f64::INFINITY },
        true,
    );
}

fn main() {
    if std::env::args().any(|a| a == "--csv") {
        CSV.store(true, Ordering::Relaxed);
        println!("stage,ns_per_record,mrecords_per_sec,derived");
    }
    let mut net = Network::new(NetworkConfig::default());
    let records: Vec<QueueRecord> =
        net.run_collect(SyntheticTrace::new(TraceConfig::test_small(7)).take(20_000));
    let n = records.len();
    if csv() {
        println!("# {n} records");
    } else {
        println!("{n} records\n");
    }

    // Row materialization alone.
    let mut row: Vec<Value> = Vec::new();
    time("write_row", n, || {
        let mut acc = 0i64;
        for r in &records {
            r.write_row(&mut row);
            acc = acc.wrapping_add(row[0].as_i64());
        }
        black_box(acc);
    });

    // Key build + inline key + seeded hash.
    use perfq_kvstore::hash::hash_key;
    use perfq_kvstore::{CacheGeometry, CounterOps, EvictionPolicy, InlineKey, SplitStore};
    let key_cols = [0usize, 1, 2, 3, 4];
    let mut key_buf: Vec<i64> = Vec::new();
    let keybuild = time("row + key build + hash", n, || {
        let mut acc = 0u64;
        for r in &records {
            r.write_row(&mut row);
            key_buf.clear();
            for c in &key_cols {
                key_buf.push(row[*c].as_i64());
            }
            let k = InlineKey::from_slice(&key_buf);
            acc = acc.wrapping_add(hash_key(1, &k));
        }
        black_box(acc);
    });

    // Store with a trivial counter fold over the same keys.
    time("row + key + counter store", n, || {
        let mut store: SplitStore<InlineKey, CounterOps> = SplitStore::new(
            CacheGeometry::set_associative(1 << 16, 8),
            EvictionPolicy::Lru,
            1,
            CounterOps,
        );
        for r in &records {
            r.write_row(&mut row);
            key_buf.clear();
            for c in &key_cols {
                key_buf.push(row[*c].as_i64());
            }
            store.observe(InlineKey::from_slice(&key_buf), &(), r.tin);
        }
        black_box(store.stats().packets);
    });

    // ---- store decomposition: probe vs fold vs handoff -------------------
    // The fused-upsert handle API separates the probe (hash + tag compare +
    // victim/LRU bookkeeping in `upsert_slot`) from the fold (the value
    // write through the held handle); the difference against the key-build
    // baseline isolates each. "Handoff" is the third hot-path component the
    // sharded dataplane adds on top: a record crossing the bounded SPSC
    // queue (moved into and out of a mutex-guarded ring, one lock per
    // batch), measured single-threaded in 256-record batches so the number
    // is the per-record protocol cost, not cross-core cache traffic.
    section("store decomposition (probe vs fold vs handoff):");
    let mut cache: perfq_kvstore::SramCache<InlineKey, u64> = perfq_kvstore::SramCache::new(
        CacheGeometry::set_associative(1 << 16, 8),
        EvictionPolicy::Lru,
        1,
    );
    let probe_t = time("store: row+key+probe (upsert_slot)", n, || {
        let mut acc = 0u64;
        for r in &records {
            r.write_row(&mut row);
            key_buf.clear();
            for c in &key_cols {
                key_buf.push(row[*c].as_i64());
            }
            let (h, _) = cache.upsert_slot(InlineKey::from_slice(&key_buf), r.tin, || 0u64);
            acc = acc.wrapping_add(*cache.slot_value_mut(h));
        }
        black_box(acc);
    });
    let fold_t = time("store: row+key+probe+fold (handle)", n, || {
        for r in &records {
            r.write_row(&mut row);
            key_buf.clear();
            for c in &key_cols {
                key_buf.push(row[*c].as_i64());
            }
            let (h, _) = cache.upsert_slot(InlineKey::from_slice(&key_buf), r.tin, || 0u64);
            *cache.slot_value_mut(h) += 1;
        }
        black_box(cache.len());
    });
    derived("store: probe share", n, probe_t - keybuild);
    derived("store: fold share", n, fold_t - probe_t);
    {
        use perfq_switch::spsc::channel;
        let (tx, rx) = channel::<QueueRecord>(512);
        let mut batch: Vec<QueueRecord> = Vec::with_capacity(256);
        let mut out: Vec<QueueRecord> = Vec::with_capacity(256);
        time("store: ring handoff (mutex spsc)", n, || {
            let mut acc = 0u64;
            for part in records.chunks(256) {
                batch.extend_from_slice(part);
                tx.send_all(&mut batch).expect("receiver held open");
                rx.recv_many(&mut out, 256);
                acc = acc.wrapping_add(out.len() as u64);
                out.clear();
            }
            black_box(acc);
        });
    }

    for q in [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::TCP_NON_MONOTONIC,
    ] {
        let compiled =
            compile_query(q.source, &fig2::default_params(), Default::default()).unwrap();
        let mut rt = Runtime::new(compiled.clone());
        time(&format!("pipeline warm: {}", q.name), n, || {
            for r in &records {
                rt.process_record(black_box(r));
            }
        });
        time(&format!("setup (clone+new): {}", q.name), n, || {
            black_box(Runtime::new(compiled.clone()));
        });
        time(&format!("pipeline cold+finish: {}", q.name), n, || {
            let mut rt = Runtime::new(compiled.clone());
            for r in &records {
                rt.process_record(black_box(r));
            }
            rt.finish();
            black_box(rt.records());
        });
    }

    // ---- vectorized path: filter phase vs fold phase ---------------------
    // The batched engine runs node-at-a-time over survivor bitmasks, so its
    // two phases are separable with public API alone: a replay of a stream
    // the base filter drops entirely costs exactly the materialize+filter
    // share (every node sees an empty mask and is skipped), and the fold/
    // store share is the difference from the full replay. For unfiltered
    // queries the filter phase is zero and the materialize-only loop below
    // is the subtrahend.
    section("vectorized batch decomposition (chunk lanes + survivor masks):");
    let mut lane_rows: Vec<Vec<Value>> = vec![Vec::new(); 16];
    let mat = time("vec: lane materialize only", n, || {
        let mut acc = 0i64;
        for chunk in records.chunks(16) {
            for (r, lane) in chunk.iter().zip(lane_rows.iter_mut()) {
                r.write_row_masked(lane, u64::MAX);
            }
            acc = acc.wrapping_add(lane_rows[0][0].as_i64());
        }
        black_box(acc);
    });
    // A clone of the trace no `proto == TCP` filter passes.
    let dropped: Vec<QueueRecord> = records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.packet.headers.ipv4.proto = perfq_packet::IpProto::Icmp;
            r
        })
        .collect();
    for (q, has_filter) in [
        (&fig2::PER_FLOW_COUNTERS, false),
        (&fig2::LATENCY_EWMA, false),
        (&fig2::TCP_NON_MONOTONIC, true),
    ] {
        let compiled =
            compile_query(q.source, &fig2::default_params(), Default::default()).unwrap();
        let mut rt = Runtime::new(compiled.clone());
        let full = time(&format!("vec: full batched: {}", q.name), n, || {
            for part in records.chunks(256) {
                rt.process_batch(part);
            }
            black_box(rt.records());
        });
        if has_filter {
            let mut drop_rt = Runtime::new(compiled.clone());
            let filt = time(
                &format!("vec: materialize+filter: {}", q.name),
                n,
                || {
                    for part in dropped.chunks(256) {
                        drop_rt.process_batch(part);
                    }
                    black_box(drop_rt.records());
                },
            );
            derived(&format!("vec: filter phase: {}", q.name), n, filt - mat);
            derived(&format!("vec: fold phase: {}", q.name), n, full - filt);
        } else {
            derived(&format!("vec: fold phase: {}", q.name), n, full - mat);
        }
    }

    // ---- end-to-end decomposition: where does a full replay spend time? --
    section("end-to-end replay decomposition (packets through Network into the engine):");
    let packets: Vec<perfq_packet::Packet> =
        SyntheticTrace::new(TraceConfig::test_small(7)).take(20_000).collect();

    // Stage 1: trace generation alone (regenerated per pass).
    time("e2e: trace generation", n, || {
        let mut count = 0usize;
        for p in SyntheticTrace::new(TraceConfig::test_small(7)).take(20_000) {
            count += usize::from(p.wire_len > 0);
        }
        black_box(count);
    });

    // Stage 2: the switch substrate (event loop, queues, release path).
    time("e2e: switch event loop", n, || {
        let mut count = 0usize;
        net.run(packets.iter().copied(), |_| count += 1);
        black_box(count);
    });

    // Stage 3: switch + split store (5-tuple counter — the kvstore share
    // without plan compilation or bytecode).
    time("e2e: switch + counter store", n, || {
        let mut store: SplitStore<InlineKey, CounterOps> = SplitStore::new(
            CacheGeometry::set_associative(1 << 16, 8),
            EvictionPolicy::Lru,
            1,
            CounterOps,
        );
        let mut row: Vec<Value> = Vec::new();
        let mut key_buf: Vec<i64> = Vec::new();
        net.run(packets.iter().copied(), |r| {
            r.write_row(&mut row);
            key_buf.clear();
            for c in [0usize, 1, 2, 3, 4] {
                key_buf.push(row[c].as_i64());
            }
            let now = r.observed_at();
            store.observe(InlineKey::from_slice(&key_buf), &(), now);
        });
        black_box(store.stats().packets);
    });

    // Stage 4: the full pipeline per Fig. 2 query (batched). Exec share =
    // this minus the switch share minus the store share.
    for q in [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::TCP_NON_MONOTONIC,
    ] {
        let compiled =
            compile_query(q.source, &fig2::default_params(), Default::default()).unwrap();
        time(&format!("e2e: full replay: {}", q.name), n, || {
            let mut rt = Runtime::new(compiled.clone());
            net.run_batched(packets.iter().copied(), 256, |chunk| {
                rt.process_batch(chunk);
            });
            rt.finish();
            black_box(rt.records());
        });
    }

    // ---- multi-query: one shared ingest pass vs K full replays ----------
    // The shared pass saves (K-1) ingest passes and (K-1) row
    // materializations per record; the per-program plan execution cannot be
    // shared, so the attainable speedup is K·(ingest+exec̅)/(ingest+K·exec̅).
    section("multi-query (K=3 Fig. 2 queries, batched):");
    let programs: Vec<_> = [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::TCP_NON_MONOTONIC,
    ]
    .iter()
    .map(|q| compile_query(q.source, &fig2::default_params(), Default::default()).unwrap())
    .collect();
    let mut best = [f64::INFINITY; 2];
    for (slot, label) in [(0usize, "3 sequential replays"), (1, "one shared replay")] {
        // Inline best-of-3 so the two variants' times are capturable for
        // the ratio line below.
        let mut run = |programs: &Vec<perfq_core::CompiledProgram>| match slot {
            0 => {
                for c in programs {
                    let mut rt = Runtime::new(c.clone());
                    rt.process_network(&mut net, packets.iter().copied(), 256);
                    rt.finish();
                    black_box(rt.records());
                }
            }
            _ => {
                let mut multi = MultiRuntime::new(programs.clone());
                multi.process_network(&mut net, packets.iter().copied(), 256);
                multi.finish();
                black_box(multi.records());
            }
        };
        run(&programs);
        for _ in 0..3 {
            let t = Instant::now();
            run(&programs);
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
        }
        emit(
            &format!("multi: {label}"),
            best[slot] * 1e9 / n as f64,
            n as f64 / best[slot] / 1e6,
            false,
        );
    }
    if csv() {
        println!("# multi: shared-ingest speedup = {:.2}x", best[0] / best[1]);
    } else {
        println!(
            "multi: shared-ingest speedup            {:>10.2}x",
            best[0] / best[1]
        );
    }
}
