//! Determinism and workload-shape tests at a reduced size: the workloads
//! must be what their names say, and the same seed must give the same
//! inputs and the same counts.

use perfq_benchmark::pass::Harness;
use perfq_benchmark::run::{run, Options, Outcome};
use perfq_benchmark::trace::Tracer;
use perfq_benchmark::workload::{Setup, Sizing, Workload, BATCH};
use perfq_core::{Durability, Runtime};
use perfq_kvstore::{shared, MemBackend};
use perfq_switch::{Network, NetworkConfig};

/// Packets, key population and cache all divided by 2^3: 375 k packets
/// against 8192 pairs.
const SHIFT: u32 = 3;

fn reduced(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload,
        sizing: Sizing::reduced(workload, SHIFT),
        seed,
        seconds: 0.0,
        trace,
        trace_out: None,
    })
}

#[test]
fn same_seed_same_packets_different_seed_different_packets() {
    for w in [Workload::ResidentCounters, Workload::EvictCounters] {
        let sizing = Sizing::reduced(w, SHIFT);
        let a = Setup::build(w, sizing, 42).packet_digest();
        let b = Setup::build(w, sizing, 42).packet_digest();
        let c = Setup::build(w, sizing, 43).packet_digest();
        assert_eq!(a, b, "{}: seed 42 twice", w.name());
        assert_ne!(a, c, "{}: seed 42 vs 43", w.name());
    }
}

#[test]
fn counts_repeat_exactly_across_runs() {
    const COUNTS: &[&str] = &[
        "switch.records_per_packet",
        "switch.drops",
        "kvstore.hit_rate",
        "kvstore.eviction_fraction",
        "kvstore.backing_keys",
        "kvstore.wal_appends",
        "kvstore.wal_syncs",
        "kvstore.wal_bytes",
        "kvstore.spilled_frames",
        "kvstore.commits",
        "kvstore.checkpoints",
        "kvstore.compactions",
        "core.deduped_stores",
        "wal_bytes_per_record",
        "rows_checked",
        "rows_wrong",
    ];
    for w in Workload::ALL {
        let (a, b) = (reduced(w, 42, true), reduced(w, 42, true));
        assert!(a.correct && b.correct, "{}", w.name());
        for name in COUNTS {
            assert_eq!(a.value(name), b.value(name), "{} {name}", w.name());
        }
        let (a, b) = (reduced(w, 42, false), reduced(w, 42, false));
        assert!(a.correct && a.verdict.rows_checked > 0, "{}", w.name());
        assert_eq!(
            a.value("backing_writes_per_krecord"),
            b.value("backing_writes_per_krecord"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn resident_counters_fits_the_cache() {
    let out = reduced(Workload::ResidentCounters, 42, true);
    let pairs = Sizing::reduced(Workload::ResidentCounters, SHIFT).cache_pairs as f64;
    assert_eq!(out.value("kvstore.eviction_fraction"), 0.0);
    assert!(
        out.value("kvstore.backing_keys") <= pairs / 8.0,
        "{} distinct keys against {pairs} pairs",
        out.value("kvstore.backing_keys")
    );
}

#[test]
fn evict_counters_overflows_the_cache_in_the_papers_regime() {
    let out = reduced(Workload::EvictCounters, 42, true);
    let pairs = Sizing::reduced(Workload::EvictCounters, SHIFT).cache_pairs as f64;
    let keys = out.value("kvstore.backing_keys");
    let evictions = out.value("kvstore.eviction_fraction");
    assert!(
        keys >= 1.5 * pairs,
        "{keys} distinct keys against {pairs} pairs"
    );
    assert!(
        (0.02..=0.10).contains(&evictions),
        "eviction fraction {evictions}"
    );
}

#[test]
fn the_isolated_store_replay_sees_what_the_engine_sees() {
    // The per-layer kvstore numbers are only worth reading if the bare
    // store, fed the extracted key stream, behaves like the engine's store.
    let traced = reduced(Workload::EvictCounters, 42, true);
    let setup = Setup::build(
        Workload::EvictCounters,
        Sizing::reduced(Workload::EvictCounters, SHIFT),
        42,
    );
    let engine = Harness::new(&setup).pass(&mut Tracer::off()).stats;
    assert_eq!(
        traced.value("kvstore.eviction_fraction"),
        engine.eviction_fraction()
    );
    assert_eq!(traced.value("kvstore.hit_rate"), engine.hit_rate());
}

#[test]
fn counting_backend_drains_like_a_bare_mem_backend() {
    let w = Workload::DurableSpill;
    let setup = Setup::build(w, Sizing::reduced(w, SHIFT), 42);
    let counted = Harness::new(&setup).pass(&mut Tracer::off());
    assert_eq!(counted.io_errors, 0);
    assert!(counted.io.expect("durable pass counts I/O").bytes > 0);
    assert!(
        counted.persist_ns.len() >= 2,
        "the schedule persists mid-pass"
    );

    let mut rt = Runtime::new(setup.programs[0].clone());
    rt.enable_durability(
        Durability::new(shared(MemBackend::new())).with_spill(setup.sizing.spill_config()),
    )
    .unwrap();
    let mut batch_no = 0usize;
    Network::new(NetworkConfig::default()).run_batched(
        setup.packets.iter().copied(),
        BATCH,
        |chunk| {
            rt.process_batch(chunk);
            batch_no += 1;
            if batch_no.is_multiple_of(setup.sizing.persist_every_batches) {
                rt.persist().unwrap();
            }
        },
    );
    rt.finish();
    assert_eq!(counted.results, vec![rt.collect()]);
}
