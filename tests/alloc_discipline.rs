//! Allocation discipline of the batched replay path.
//!
//! The end-to-end pipeline — packets through the network event loop, queue
//! records through `Runtime::process_batch` — must perform **zero heap
//! allocations per record in steady state**: every buffer it needs (event
//! heap, route scratch, batch buffer, lane rows, per-node output lanes,
//! bytecode stack, cache arenas, backing-store table) is either pooled on a
//! long-lived struct or sized during warm-up. The vectorized path's survivor
//! bitmasks are plain `u64` words (`lane_live` / the shared `pass_masks`),
//! so filtering a chunk costs no memory at all. A counting global allocator
//! proves it: after one full warm-up replay, a second replay of the same
//! trace through the same runtime must not move the allocation counter at
//! all — at any chunking, including ragged chunk sizes that force partial
//! mask words.

use perfq_core::{compile_query, Durability, MultiRuntime, Oracle, Runtime};
use perfq_kvstore::{
    BackingStore, CacheGeometry, CounterOps, EvictionPolicy, MemBackend, MergeMode, SharedBackend,
    SpillConfig, SplitStore,
};
use perfq_lang::fig2;
use perfq_packet::Nanos;
use perfq_switch::{Network, NetworkConfig, Topology};
use perfq_trace::{SyntheticTrace, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts every allocation-path entry (alloc, alloc_zeroed, realloc); frees
/// are not counted — the assertion is about *acquiring* memory.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One test fn (not several) so no concurrently-running sibling test can
/// touch the global counter inside a measurement window.
#[test]
fn steady_state_batched_replay_allocates_nothing() {
    let packets: Vec<_> = SyntheticTrace::new(TraceConfig::test_small(7))
        .take(10_000)
        .collect();
    // Single topology exercises the heap-free merge fast path; the
    // leaf-spine fabric exercises the pooled event heap and the multi-hop
    // route scratch (3-hop routes, internal next-hop events).
    let topologies = [
        NetworkConfig::default(),
        NetworkConfig {
            topology: Topology::LeafSpine {
                leaves: 4,
                spines: 2,
            },
            ..Default::default()
        },
    ];

    for cfg in topologies {
        let mut net = Network::new(cfg);
        for q in [
            &fig2::PER_FLOW_COUNTERS,
            &fig2::LATENCY_EWMA,
            &fig2::TCP_NON_MONOTONIC,
        ] {
            let compiled =
                compile_query(q.source, &fig2::default_params(), Default::default()).unwrap();
            let mut rt = Runtime::new(compiled);

            // Warm-up replay: all flows enter the caches, every pooled
            // buffer (event heap, route/batch scratch, row buffers, arenas,
            // backing table) reaches its steady-state capacity.
            net.run_batched(packets.iter().copied(), 256, |chunk| {
                rt.process_batch(chunk);
            });
            let processed_warmup = rt.records();
            assert!(processed_warmup > 0, "warm-up processed records");

            // Steady state: the identical record window again, through the
            // same network and runtime. Zero allocations per record means
            // zero allocations total.
            let before = allocs();
            net.run_batched(packets.iter().copied(), 256, |chunk| {
                rt.process_batch(chunk);
            });
            let after = allocs();
            assert_eq!(
                after - before,
                0,
                "{} over {:?}: steady-state batched replay allocated {} times over {} records",
                q.name,
                cfg.topology,
                after - before,
                rt.records() - processed_warmup,
            );
            assert_eq!(rt.records(), processed_warmup * 2, "second replay ran fully");
        }
    }

    // The multi-query dataplane inherits the discipline: all three Fig. 2
    // queries installed concurrently behind ONE shared ingest pass (one
    // union-mask row materialization per record, K plan dispatches) must
    // also run allocation-free once warmed — the shared row buffer, every
    // program's node buffers and stores, and the network scratch are all
    // pooled.
    let mut net = Network::new(NetworkConfig::default());
    let programs: Vec<_> = [
        &fig2::PER_FLOW_COUNTERS,
        &fig2::LATENCY_EWMA,
        &fig2::TCP_NON_MONOTONIC,
    ]
    .iter()
    .map(|q| compile_query(q.source, &fig2::default_params(), Default::default()).unwrap())
    .collect();
    let mut multi = MultiRuntime::new(programs);
    multi.process_network(&mut net, packets.iter().copied(), 256);
    let processed_warmup = multi.records();
    assert!(processed_warmup > 0, "warm-up processed records");

    let before = allocs();
    multi.process_network(&mut net, packets.iter().copied(), 256);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "multi-query steady-state batched replay allocated {} times over {} records",
        after - before,
        multi.records() - processed_warmup,
    );
    assert_eq!(multi.records(), processed_warmup * 2, "second replay ran fully");

    // Cross-query sharing keeps the discipline: install a set with real
    // overlap — the §4 running-example counter (deduped against loss-rate
    // R1), the loss-rate program, and the latency EWMA — and the warmed
    // deduplicated batched replay must still allocate **zero** bytes per
    // batch: the shared row buffers and every store are pooled; store
    // substitution happens only at finish, outside the steady-state loop.
    let mut net = Network::new(NetworkConfig::default());
    let sources = [
        "SELECT COUNT GROUPBY 5tuple\n",
        fig2::PER_FLOW_LOSS_RATE.source,
        fig2::LATENCY_EWMA.source,
    ];
    let programs: Vec<_> = sources
        .iter()
        .map(|src| compile_query(src, &fig2::default_params(), Default::default()).unwrap())
        .collect();
    let mut multi = MultiRuntime::new(programs);
    assert!(
        !multi.sharing().stores.is_empty(),
        "the overlap set must exercise store dedup: {:?}",
        multi.sharing(),
    );
    multi.process_network(&mut net, packets.iter().copied(), 256);
    let processed_warmup = multi.records();

    let before = allocs();
    multi.process_network(&mut net, packets.iter().copied(), 256);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "deduplicated steady-state replay allocated {} times over {} records",
        after - before,
        multi.records() - processed_warmup,
    );
    assert_eq!(multi.records(), processed_warmup * 2, "second replay ran fully");

    // The vectorized sweep's scratch (lane rows, per-node output lanes,
    // survivor-mask words) must stay
    // capacity-stable under *ragged* batch lengths too — chunk sizes that
    // are not a multiple of the internal chunk width leave partial mask
    // words and shorter lane prefixes, and none of that may reallocate.
    let mut net = Network::new(NetworkConfig::default());
    let recs = net.run_collect(packets.iter().copied());
    let sizes = [97usize, 1, 255, 64, 13];
    let ragged = |rt: &mut Runtime| {
        let mut rest = &recs[..];
        for size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let n = (*size).min(rest.len());
            let (part, tail) = rest.split_at(n);
            rt.process_batch(part);
            rest = tail;
        }
    };
    for q in [&fig2::LATENCY_EWMA, &fig2::TCP_NON_MONOTONIC] {
        let compiled =
            compile_query(q.source, &fig2::default_params(), Default::default()).unwrap();
        let mut rt = Runtime::new(compiled);
        ragged(&mut rt);
        let processed_warmup = rt.records();

        let before = allocs();
        ragged(&mut rt);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "{}: warmed ragged-chunk vectorized replay allocated {} times",
            q.name,
            after - before,
        );
        assert_eq!(rt.records(), processed_warmup * 2, "second replay ran fully");
    }

    // The exact oracle: once every key has been seen, feeding the same
    // records again to an `Oracle::new` over a root-only aggregation
    // allocates nothing. The key is built into one reused buffer and
    // copied to the heap only on its first sighting, and no output row is
    // built for a query without children.
    {
        let compiled = compile_query(
            fig2::PER_FLOW_COUNTERS.source,
            &fig2::default_params(),
            Default::default(),
        )
        .unwrap();
        let mut oracle = Oracle::new(compiled);
        recs.iter().for_each(|r| oracle.process_record(r));

        let before = allocs();
        recs.iter().for_each(|r| oracle.process_record(r));
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "warmed oracle allocated {} times over {} records",
            after - before,
            recs.len(),
        );
    }

    // The periodic freshness sweep (`Runtime::refresh_backing` →
    // `SplitStore::evict_idle_since`) is part of the service's steady-state
    // loop, so it obeys the same discipline: the sweep walks the cache's
    // slot structures in place — no key list is materialised — and for a
    // mergeable fold every write-back merges into a standing backing entry.
    // Warm one full evict-everything sweep (the backing table reaches its
    // final size), re-warm the cache with the same records, and the second
    // full sweep must not allocate at all.
    {
        let compiled = compile_query(
            fig2::PER_FLOW_COUNTERS.source,
            &fig2::default_params(),
            Default::default(),
        )
        .unwrap();
        let mut rt = Runtime::new(compiled);
        let sweep_all = Nanos(u64::MAX);
        rt.process_batch(&recs);
        rt.refresh_backing(sweep_all);
        rt.process_batch(&recs);

        let before = allocs();
        rt.refresh_backing(sweep_all);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "warmed idle sweep allocated {} times",
            after - before,
        );
    }

    // Same pin on the bare store, on the fully-associative geometry whose
    // eviction path (global LRU list surgery) differs from the
    // set-associative one.
    {
        let mut store: SplitStore<u64, CounterOps> = SplitStore::new(
            CacheGeometry::fully_associative(64),
            EvictionPolicy::Lru,
            7,
            CounterOps,
        );
        let feed = |s: &mut SplitStore<u64, CounterOps>| {
            for i in 0..4096u64 {
                s.observe(i % 256, &(), Nanos(i));
            }
        };
        feed(&mut store);
        store.evict_idle_since(Nanos(u64::MAX));
        feed(&mut store);

        let before = allocs();
        store.evict_idle_since(Nanos(u64::MAX));
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "warmed fully-associative sweep allocated {} times",
            after - before,
        );
    }

    // The incremental read path: every poll face takes a fresh frame
    // (`SplitStore::snapshot`) — the backing table cloned with room for the
    // cache, then the cache absorbed. For a store whose keys and values own
    // no heap, that is the arena and the index, however many keys there
    // are. Only the result-row materialization above the frame (which
    // `collect` pays identically) allocates per row.
    {
        let mut store: SplitStore<u64, CounterOps> = SplitStore::new(
            CacheGeometry::set_associative(64, 4),
            EvictionPolicy::Lru,
            11,
            CounterOps,
        );
        for i in 0..8192u64 {
            store.observe(i % 512, &(), Nanos(i));
        }
        let before = allocs();
        let frame = store.snapshot();
        let after = allocs();
        assert!(
            after - before <= 4,
            "snapshot of {} keys allocated {} times",
            frame.len(),
            after - before,
        );
        assert_eq!(frame.len(), 512, "frame holds the full keyset");
    }

    // Durability enabled but idle: with the spill tier attached and the
    // backing table below its high-water mark, the ingest path takes one
    // extra branch (the spill-routing gate) and nothing else — no frame
    // encoding, no group-commit buffer traffic, no backend I/O. A warmed
    // durable runtime must therefore match the plain runtime's discipline
    // exactly: zero allocations in steady state. (Above the high-water
    // mark, spilled frames legitimately extend the backend's file — that
    // cost is the WAL-on/WAL-off ratio pinned by the durability benches.)
    {
        let backend: SharedBackend = Arc::new(Mutex::new(MemBackend::new()));
        let compiled = compile_query(
            fig2::PER_FLOW_COUNTERS.source,
            &fig2::default_params(),
            Default::default(),
        )
        .unwrap();
        let mut rt = Runtime::new(compiled);
        rt.enable_durability(Durability::new(backend).with_spill(SpillConfig {
            high_water: 1 << 20,
            group_commit_bytes: 64 * 1024,
        }))
        .unwrap();
        rt.process_batch(&recs);
        let processed_warmup = rt.records();

        let before = allocs();
        rt.process_batch(&recs);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "durable-below-high-water steady-state replay allocated {} times",
            after - before,
        );
        assert_eq!(rt.records(), processed_warmup * 2, "second replay ran fully");
    }

    // The warmed 4-shard drain. `ShardedRuntime::finish` joins the workers
    // and funnels every shard through `Runtime::absorb_finished` — the
    // `absorb_store` → `merge_from` → `FoldOps::merge` chain. Once the
    // merged runtime's backing holds the full keyset and the merge scratch
    // (exec stack, pooled ΠA delta buffer) is warm, a drain round must not
    // allocate: every shard entry merges into a *standing* backing entry,
    // the §3.2 correction is straight arithmetic over inline state vectors,
    // and windowed folds replay their log through the pooled bytecode
    // stack. Covered classes: additive (counter), constant-A fast kernel
    // (EWMA), and windowed-linear with aux replay (out-of-sequence) — the
    // generic path whose delta buffer is pooled on `Scratch`. Epoch-mode
    // folds are excluded: their evicted residencies legitimately append to
    // the standing epoch list, which is a real (and wanted) allocation.
    {
        let outofseq = "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple\n";
        for (name, src) in [
            ("counter", fig2::PER_FLOW_COUNTERS.source),
            ("ewma", fig2::LATENCY_EWMA.source),
            ("outofseq", outofseq),
        ] {
            let c = compile_query(src, &fig2::default_params(), Default::default()).unwrap();
            // Four finished shard runtimes over a strided split of the
            // trace — every flow straddles all four shards, so each drain
            // round exercises real cross-shard merges on every key.
            let shard_set = || -> Vec<Runtime> {
                (0..4)
                    .map(|s| {
                        let mut rt = Runtime::new(c.clone());
                        for (i, r) in recs.iter().enumerate() {
                            if i % 4 == s {
                                rt.process_record(r);
                            }
                        }
                        rt.finish();
                        rt
                    })
                    .collect()
            };
            let mut main = Runtime::new(c.clone());
            main.process_batch(&recs);
            main.finish();
            // Warm round: populates the merged backing with the full
            // keyset and sizes every piece of merge scratch.
            for sh in shard_set() {
                main.absorb_finished(sh);
            }
            // Rebuild identical finished shards OUTSIDE the window — shard
            // construction and flushing allocate by design; the *drain*
            // may not.
            let shards = shard_set();
            let records_before = main.records();
            let before = allocs();
            for sh in shards {
                main.absorb_finished(sh);
            }
            let after = allocs();
            assert_eq!(
                after - before,
                0,
                "{name}: warmed 4-shard drain allocated {} times",
                after - before,
            );
            assert_eq!(
                main.records(),
                records_before + recs.len() as u64,
                "drain absorbed every shard record"
            );
        }
    }

    // The read path. `Runtime::collect()` builds every row straight from
    // the backing arena and sorts compact key records in the rows' stead,
    // so an N-key table costs the one `values` vector each `ResultRow` owns
    // plus a constant (the row vector, the sort records, the permutation,
    // the column plan, the table's name and schema) — never a second
    // allocation per row.
    {
        let compiled = compile_query(
            fig2::PER_FLOW_COUNTERS.source,
            &fig2::default_params(),
            Default::default(),
        )
        .unwrap();
        let mut rt = Runtime::new(compiled);
        rt.process_batch(&recs);
        rt.finish();
        let before = allocs();
        let results = rt.collect();
        let after = allocs();
        let rows = results.tables[0].rows.len() as u64;
        assert!(
            rows > 200,
            "the pin needs a table worth counting: {rows} rows"
        );
        assert!(
            after - before <= rows + 32,
            "collect() of {rows} rows allocated {} times",
            after - before,
        );
    }

    // The write path. A first-seen key's record — key, first epoch, write
    // count — lives inline in the backing arena, so absorbing N new keys in
    // merge mode allocates only when the arena or its index doubles:
    // O(log N) times, not N.
    {
        const KEYS: u64 = 10_000;
        let mut table: BackingStore<u64, u64> = BackingStore::new(MergeMode::Merge);
        let before = allocs();
        for k in 0..KEYS {
            table.absorb(k, 1, Nanos(k), Nanos(k), |standing, evicted| {
                *standing += evicted
            });
        }
        let after = allocs();
        assert_eq!(table.len() as u64, KEYS);
        // Two growth sequences (arena, index) of at most log2(N) + 1 steps.
        let bound = 2 * (u64::from(KEYS.ilog2()) + 2);
        assert!(
            after - before <= bound,
            "absorbing {KEYS} first-seen keys allocated {} times (bound {bound})",
            after - before,
        );
    }
}
