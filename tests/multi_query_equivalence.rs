//! Referee tests for the multi-query dataplane: K programs behind one
//! shared ingest pass must be **byte-identical** to K independent
//! sequential replays of the same trace with the same geometries — on the
//! single-stream, batched, and 1/2/4/8-shard paths — including capture
//! totals and network drop counters. The shared pass changes when rows
//! materialize (once, with the union of the programs' column masks), never
//! what any program observes.
//!
//! Cross-query store sharing (structurally-identical stores collapsed into
//! one) is held to the same standard: sharing enabled must be byte-identical to
//! sharing disabled — and to sequential replays — on every combination of
//! Fig. 2 programs, every path, and under area provisioning (where the
//! deduplicated store is also charged to the budget once).

use perfq::prelude::*;
use perfq_switch::QueueRecord;

/// The §4 running example — verbatim the loss-rate program's `R1`, so
/// installing it beside `PER_FLOW_LOSS_RATE` exercises store dedup.
const FIVE_TUPLE_COUNTER: &str = "SELECT COUNT GROUPBY 5tuple\n";

/// A trace with drops, TCP anomalies and multi-queue records.
fn records(n: usize) -> Vec<QueueRecord> {
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    });
    net.run_collect(SyntheticTrace::new(TraceConfig::test_small(21)).take(n))
}

fn compiled_all(opts: CompileOptions) -> Vec<CompiledProgram> {
    fig2::ALL
        .iter()
        .map(|q| {
            perfq_core::compile_query(q.source, &fig2::default_params(), opts)
                .expect("fig2 queries compile")
        })
        .collect()
}

/// Sequential baseline: one independent full replay per program.
fn sequential(programs: &[CompiledProgram], recs: &[QueueRecord]) -> Vec<ResultSet> {
    programs
        .iter()
        .map(|c| {
            let mut rt = Runtime::new(c.clone());
            for r in recs {
                rt.process_record(r);
            }
            rt.finish();
            rt.collect()
        })
        .collect()
}

fn sorted(mut rs: ResultSet) -> ResultSet {
    rs.sort();
    rs
}

/// Single-stream and batched shared passes over all seven Fig. 2 programs
/// at once are byte-identical (no sorting applied) to seven sequential
/// replays.
#[test]
fn multi_matches_sequential_byte_identical() {
    let recs = records(4_000);
    let programs = compiled_all(CompileOptions::default());
    let want = sequential(&programs, &recs);

    let mut by_record = MultiRuntime::new(programs.clone());
    for r in &recs {
        by_record.process_record(r);
    }
    by_record.finish();
    assert_eq!(by_record.records(), recs.len() as u64);
    let got = by_record.collect();
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{} (record-at-a-time)", fig2::ALL[i].name);
    }

    let mut batched = MultiRuntime::new(programs);
    for part in recs.chunks(256) {
        batched.process_batch(part);
    }
    batched.finish();
    for (i, (a, b)) in batched.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{} (batched)", fig2::ALL[i].name);
    }
}

/// The shared network replay (`MultiRuntime::process_network`, one event
/// loop for K programs) matches K per-program `run_batched` replays, and
/// the network's drop counters agree run for run — on a congested
/// configuration where drops actually occur.
#[test]
fn shared_network_replay_matches_per_program_replays() {
    let packets: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(33))
        .take(3_000)
        .collect();
    let cfg = NetworkConfig {
        switch: SwitchConfig {
            ports: 1,
            port_rate_bps: 1e8, // slow port: the workload overloads it
            queue_capacity: 4,
        },
        ..Default::default()
    };
    let programs = compiled_all(CompileOptions::default());
    let mut net = Network::new(cfg);

    // Per-program sequential replays, each its own pass over the network.
    let mut want = Vec::new();
    let mut drops_want = None;
    for c in &programs {
        let mut rt = Runtime::new(c.clone());
        rt.process_network(&mut net, packets.iter().copied(), 256);
        rt.finish();
        let drops = net.total_drops();
        assert!(drops > 0, "workload must overload the port");
        if let Some(d) = drops_want {
            assert_eq!(d, drops, "replays must drop identically");
        }
        drops_want = Some(drops);
        want.push(rt.collect());
    }

    // One shared pass for all programs.
    let mut multi = MultiRuntime::new(programs);
    multi.process_network(&mut net, packets.iter().copied(), 256);
    multi.finish();
    assert_eq!(Some(net.total_drops()), drops_want, "shared pass drops");
    for (i, (a, b)) in multi.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{}", fig2::ALL[i].name);
    }
}

/// The sharded multi-query dataplane at 1/2/4/8 shards matches the
/// sequential single-stream baseline for every program (sorted by key, as
/// the sharded drain is key-ordered not stream-ordered).
#[test]
fn multi_sharded_matches_sequential_at_every_shard_count() {
    let recs = records(3_000);
    let programs = compiled_all(CompileOptions::default());
    let want: Vec<ResultSet> = sequential(&programs, &recs)
        .into_iter()
        .map(sorted)
        .collect();
    for shards in [1usize, 2, 4, 8] {
        let mut multi = MultiSharded::new(programs.clone(), shards);
        assert_eq!(multi.len(), programs.len());
        assert_eq!(multi.shards(), shards);
        for part in recs.chunks(512) {
            multi.process_batch(part);
        }
        let merged = multi.finish();
        for (i, (rt, b)) in merged.iter().zip(&want).enumerate() {
            assert_eq!(rt.records(), recs.len() as u64, "{shards} shards");
            assert_eq!(
                sorted(rt.collect()),
                *b,
                "{} ({shards} shards)",
                fig2::ALL[i].name
            );
        }
    }
}

/// The one-pass multi-program network producer
/// (`Network::run_multi_sharded` feeding every program's shard queues)
/// matches the collected-record path, with consistent routed counts and
/// drop counters.
#[test]
fn multi_sharded_network_producer_matches_collected_records() {
    let packets: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(21))
        .take(3_000)
        .collect();
    let cfg = NetworkConfig {
        topology: Topology::Linear(2),
        ..Default::default()
    };
    let programs = compiled_all(CompileOptions::default());
    let mut net = Network::new(cfg);
    let recs = net.run_collect(packets.clone().into_iter());
    let drops_want = net.total_drops();
    let want: Vec<ResultSet> = sequential(&programs, &recs)
        .into_iter()
        .map(sorted)
        .collect();

    let mut multi = MultiSharded::new(programs.clone(), 4);
    let routed = multi.run_network(&mut net, packets.into_iter(), 128);
    assert_eq!(net.total_drops(), drops_want, "shared pass drops");
    assert_eq!(routed.len(), programs.len());
    for (i, per_shard) in routed.iter().enumerate() {
        assert_eq!(
            per_shard.iter().sum::<u64>() as usize,
            recs.len(),
            "program {i} must see every record once"
        );
    }
    for (i, (got, b)) in multi.finish_collect().iter().zip(&want).enumerate() {
        assert_eq!(sorted(got.clone()), *b, "{}", fig2::ALL[i].name);
    }
}

/// Compile the seven Fig. 2 programs plus the §4 running-example counter —
/// the install set with real cross-program overlap (the counter dedups with
/// loss-rate R1).
fn compiled_all_plus_counter(opts: CompileOptions) -> (Vec<CompiledProgram>, Vec<&'static str>) {
    let mut programs = vec![perfq_core::compile_query(
        FIVE_TUPLE_COUNTER,
        &fig2::default_params(),
        opts,
    )
    .expect("the running example compiles")];
    programs.extend(compiled_all(opts));
    let mut names = vec!["5-tuple counter"];
    names.extend(fig2::ALL.iter().map(|q| q.name));
    (programs, names)
}

/// Cross-query sharing is a pure optimization: with the full overlapping
/// install set (all seven Fig. 2 programs + the running-example counter),
/// the sharing pass must actually fire — store dedup — and both the
/// record-at-a-time and batched shared passes
/// must stay byte-identical to sequential replays and to the unshared
/// multi-runtime.
#[test]
fn sharing_is_byte_identical_on_the_full_overlapping_set() {
    let recs = records(4_000);
    let (programs, names) = compiled_all_plus_counter(CompileOptions::default());
    let want = sequential(&programs, &recs);

    let mut shared = MultiRuntime::new(programs.clone());
    let report = shared.sharing().clone();
    assert!(
        !report.stores.is_empty(),
        "loss-rate R1 must dedup against the counter"
    );
    assert!(
        report.stores.iter().any(|s| s.alias.1 == "R1" && s.owner.0 == 0),
        "the alias is loss-rate's R1, owned by program 0: {report:?}"
    );
    for r in &recs {
        shared.process_record(r);
    }
    shared.finish();
    for (i, (a, b)) in shared.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{} (shared, record-at-a-time)", names[i]);
    }

    let mut batched = MultiRuntime::new(programs.clone());
    for part in recs.chunks(256) {
        batched.process_batch(part);
    }
    batched.finish();
    for (i, (a, b)) in batched.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{} (shared, batched)", names[i]);
    }

    let mut unshared = MultiRuntime::new_unshared(programs);
    assert!(!unshared.sharing().any());
    for part in recs.chunks(256) {
        unshared.process_batch(part);
    }
    unshared.finish();
    for (i, (a, b)) in unshared.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{} (unshared baseline)", names[i]);
    }
}

/// Every pair of installable programs (the seven Fig. 2 programs + the
/// counter, including a program paired with its own copy) runs shared vs
/// unshared byte-identically on the batched path. Self-pairs are the
/// maximal dedup case: the duplicate program's every store aliases the
/// first copy's.
#[test]
fn sharing_is_byte_identical_on_all_fig2_pairs() {
    let recs = records(1_500);
    let (programs, names) = compiled_all_plus_counter(CompileOptions::default());
    for i in 0..programs.len() {
        for j in i..programs.len() {
            let pair = vec![programs[i].clone(), programs[j].clone()];
            let mut shared = MultiRuntime::new(pair.clone());
            if i == j {
                // A program installed twice dedups its stores: every Fig. 2
                // program ends in a non-emitting aggregation (even p99's R1
                // stops emitting once its unconsumed R2 projection is
                // dead-output-eliminated), so at least one store aliases.
                assert!(
                    !shared.sharing().stores.is_empty(),
                    "self-pair must dedup for {}",
                    names[i]
                );
            }
            let mut unshared = MultiRuntime::new_unshared(pair);
            for part in recs.chunks(512) {
                shared.process_batch(part);
                unshared.process_batch(part);
            }
            shared.finish();
            unshared.finish();
            assert_eq!(
                shared.collect(),
                unshared.collect(),
                "{} + {}",
                names[i],
                names[j]
            );
        }
    }
}

/// Identical query text at different positions in its program gets a
/// different per-store hash seed — physically a different store, so dedup
/// must NOT fire, and execution must still be byte-identical.
#[test]
fn seed_mismatch_blocks_dedup_but_not_equivalence() {
    let recs = records(1_500);
    let shifted = perfq_core::compile_query(
        // The counter sits at query index 1 here → different placement seed.
        "R0 = SELECT srcip FROM T WHERE proto == 17\nR1 = SELECT COUNT GROUPBY 5tuple\n",
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let counter = perfq_core::compile_query(
        FIVE_TUPLE_COUNTER,
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let programs = vec![counter, shifted];
    let mut shared = MultiRuntime::new(programs.clone());
    assert!(
        shared.sharing().stores.is_empty(),
        "different placement seeds must block dedup"
    );
    let want = sequential(&programs, &recs);
    for part in recs.chunks(256) {
        shared.process_batch(part);
    }
    shared.finish();
    for (got, b) in shared.collect().iter().zip(&want) {
        assert_eq!(got, b);
    }
}

/// The sharded multi-query dataplane with dedup active (counter + loss
/// rate + EWMA) matches sequential replays at 1/2/4/8 shards, and matches
/// the unshared sharded dataplane.
#[test]
fn sharded_dedup_matches_sequential_at_every_shard_count() {
    let recs = records(3_000);
    let programs = vec![
        perfq_core::compile_query(
            FIVE_TUPLE_COUNTER,
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap(),
        perfq_core::compile_query(
            fig2::PER_FLOW_LOSS_RATE.source,
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap(),
        perfq_core::compile_query(
            fig2::LATENCY_EWMA.source,
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap(),
    ];
    let want: Vec<ResultSet> = sequential(&programs, &recs)
        .into_iter()
        .map(sorted)
        .collect();
    for shards in [1usize, 2, 4, 8] {
        let mut multi = MultiSharded::new(programs.clone(), shards);
        assert_eq!(
            multi.sharing().stores.len(),
            1,
            "loss-rate R1 dedups in the sharded plane too"
        );
        for part in recs.chunks(512) {
            multi.process_batch(part);
        }
        for (i, (rt, b)) in multi.finish().iter().zip(&want).enumerate() {
            assert_eq!(sorted(rt.collect()), *b, "program {i} ({shards} shards)");
        }

        let mut unshared = MultiSharded::new_unshared(programs.clone(), shards);
        for part in recs.chunks(512) {
            unshared.process_batch(part);
        }
        for (i, (rt, b)) in unshared.finish().iter().zip(&want).enumerate() {
            assert_eq!(
                sorted(rt.collect()),
                *b,
                "program {i} unshared ({shards} shards)"
            );
        }
    }
}

/// The acceptance pin: under the **default 32 Mbit plan**, installing the
/// per-flow (5-tuple) counter beside the loss-rate program actually dedups
/// the duplicated store — charged once by the planner, collapsed at run
/// time — and the provisioned shared execution matches sequential replays
/// of the same provisioned programs.
#[test]
fn loss_rate_r1_dedups_under_the_default_32mbit_plan() {
    const MBIT: u64 = 1024 * 1024;
    let recs = records(3_000);
    let mut programs = vec![
        perfq_core::compile_query(
            FIVE_TUPLE_COUNTER,
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap(),
        perfq_core::compile_query(
            fig2::PER_FLOW_LOSS_RATE.source,
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap(),
    ];
    let plan = perfq_core::provision(&mut programs, 32 * MBIT).unwrap();
    assert_eq!(plan.deduped_stores(), 1, "R1 charged once");
    assert!(plan.reclaimed_bits() > 0);
    assert!(plan.allocated_bits() <= 32 * MBIT);
    // The shared store's geometry is identical in both programs, and
    // strictly larger than an even three-way split would have granted.
    let counter_store = programs[0].stores[0].as_ref().unwrap();
    let r1_store = programs[1].stores[0].as_ref().unwrap();
    assert_eq!(counter_store.geometry, r1_store.geometry);

    let want = sequential(&programs, &recs);
    let mut multi = MultiRuntime::new(programs);
    assert_eq!(multi.sharing().stores.len(), 1);
    for part in recs.chunks(256) {
        multi.process_batch(part);
    }
    multi.finish();
    for (i, (a, b)) in multi.collect().iter().zip(&want).enumerate() {
        assert_eq!(a, b, "program {i} (provisioned + deduped)");
    }
}

/// Equivalence survives area provisioning: under one shared SRAM budget
/// (including a small one that forces eviction churn), the provisioned
/// multi-runtime is byte-identical to sequential replays of the *same
/// provisioned programs* — the planner changes the geometries, not the
/// execution semantics.
#[test]
fn provisioned_multi_matches_sequential_with_same_geometries() {
    const MBIT: u64 = 1024 * 1024;
    let recs = records(4_000);
    for budget in [32 * MBIT, 256 * 1024] {
        let mut programs = compiled_all(CompileOptions::default());
        let plan = perfq_core::provision(&mut programs, budget).unwrap();
        assert!(plan.allocated_bits() <= budget);
        let want = sequential(&programs, &recs);
        let mut multi = MultiRuntime::new(programs);
        for part in recs.chunks(256) {
            multi.process_batch(part);
        }
        multi.finish();
        for (i, (a, b)) in multi.collect().iter().zip(&want).enumerate() {
            assert_eq!(a, b, "{} (budget {budget})", fig2::ALL[i].name);
        }
        // The small budget must actually churn the caches, or the case
        // proves nothing.
        if budget < MBIT {
            let stats = multi
                .runtimes()
                .iter()
                .filter_map(|rt| rt.store_stats(0))
                .fold(0u64, |acc, s| acc + s.evictions);
            assert!(stats > 0, "small budget must force evictions");
        }
    }
}
