//! End-to-end integration: query text → compiler → switch records → split
//! key-value stores → results, validated against the ground-truth oracle.

use perfq::prelude::*;
use perfq_core::diff_tables;
use perfq_switch::QueueRecord;

/// A congested single-switch record stream with TCP dynamics and drops.
fn records(seed: u64, packets: usize) -> Vec<QueueRecord> {
    let cfg = TraceConfig {
        duration: Nanos::from_secs(1),
        ..TraceConfig::test_small(seed)
    };
    let mut net = Network::new(NetworkConfig {
        switch: SwitchConfig {
            ports: 1,
            port_rate_bps: 80e6,
            queue_capacity: 64,
        },
        ..Default::default()
    });
    let recs = net.run_collect(SyntheticTrace::new(cfg).take(packets));
    assert!(net.total_drops() > 0, "workload must exercise drops");
    recs
}

fn run_both(source: &str, records: &[QueueRecord], opts: CompileOptions) -> (ResultSet, ResultSet) {
    let compiled = compile_query(source, &fig2::default_params(), opts).expect("compiles");
    let mut rt = Runtime::new(compiled.clone());
    let mut oracle = Oracle::new(compiled);
    for r in records {
        rt.process_record(r);
        oracle.process_record(r);
    }
    rt.finish();
    (rt.collect(), oracle.collect())
}

/// A GROUPBY key keeps its input column's type: the boolean key `late`
/// reads back as a boolean, so a downstream `WHERE late` compiles, and the
/// runtime's drain equals the oracle's.
#[test]
fn boolean_groupby_keys_stay_boolean_downstream() {
    let src = "R1 = SELECT tout > tin AS late FROM T\n\
               R2 = SELECT late, COUNT FROM R1 GROUPBY late\n\
               R3 = SELECT * FROM R2 WHERE late\n";
    let compiled = compile_query(src, &fig2::default_params(), CompileOptions::default())
        .expect("a boolean key filters downstream");
    let recs = records(3, 10_000);
    let mut rt = Runtime::new(compiled.clone());
    rt.process_batch(&recs);
    rt.finish();
    let got = rt.collect();
    assert_eq!(got, Oracle::run(compiled, recs.iter().cloned()));
    let late = &got.tables[2];
    assert!(!late.rows.is_empty(), "some packets leave late");
    assert!(late.rows.iter().all(|r| r.values[0] == Value::Bool(true)));
}

#[test]
fn all_fig2_queries_match_oracle_with_ample_cache() {
    let recs = records(1, 20_000);
    for q in fig2::ALL {
        let (got, want) = run_both(q.source, &recs, CompileOptions::default());
        for (a, b) in got.tables.iter().zip(&want.tables) {
            if let Some(d) = diff_tables(a, b, 1e-9) {
                panic!("{}: {}", q.name, d);
            }
        }
    }
}

#[test]
fn linear_fig2_queries_exact_under_severe_eviction() {
    let recs = records(2, 20_000);
    let opts = CompileOptions {
        cache_pairs: 64,
        ways: 4,
        ..Default::default()
    };
    for q in fig2::ALL {
        if !q.paper_linear {
            continue;
        }
        let compiled = compile_query(q.source, &fig2::default_params(), opts).expect("compiles");
        // Only base-table aggregations carry the exactness guarantee under
        // eviction; downstream stages see cache-local values (§3.2).
        let vq = compiled.program.query(q.verdict_query).unwrap();
        if !matches!(vq.input, perfq_lang::QueryInput::Base) {
            continue;
        }
        let (got, want) = run_both(q.source, &recs, opts);
        let (a, b) = (
            got.table(q.verdict_query).unwrap(),
            want.table(q.verdict_query).unwrap(),
        );
        if let Some(d) = diff_tables(a, b, 1e-9) {
            panic!("{} (evicting cache): {}", q.name, d);
        }
        // Every row must be valid: linear folds never invalidate keys.
        assert!(a.rows.iter().all(|r| r.valid), "{}", q.name);
    }
}

#[test]
fn nonlinear_query_accuracy_degrades_gracefully() {
    let recs = records(3, 20_000);
    let tight = CompileOptions {
        cache_pairs: 128,
        ways: 8,
        ..Default::default()
    };
    let ample = CompileOptions::default();
    let (got_tight, _) = run_both(fig2::TCP_NON_MONOTONIC.source, &recs, tight);
    let (got_ample, want) = run_both(fig2::TCP_NON_MONOTONIC.source, &recs, ample);
    let acc_tight = got_tight.tables[0].accuracy();
    let acc_ample = got_ample.tables[0].accuracy();
    assert!(acc_tight < 1.0, "tight cache must invalidate some keys");
    assert!(
        acc_ample > acc_tight,
        "bigger cache must be at least as accurate ({acc_ample} vs {acc_tight})"
    );
    // With no eviction at all, the nonlinear query is also exact.
    assert!(diff_tables(&got_ample.tables[0], &want.tables[0], 1e-9).is_none());
}

#[test]
fn loss_rates_match_queue_truth() {
    // The query's measured loss rates must agree with the queue model's own
    // drop accounting.
    let cfg = TraceConfig {
        duration: Nanos::from_millis(300),
        ..TraceConfig::test_small(4)
    };
    let mut net = Network::new(NetworkConfig {
        switch: SwitchConfig {
            ports: 1,
            port_rate_bps: 50e6,
            queue_capacity: 32,
        },
        ..Default::default()
    });
    let recs = net.run_collect(SyntheticTrace::new(cfg));
    let drops_truth: u64 = net.total_drops();

    let src = "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT srcip, srcport, R2.COUNT AS drops, R1.COUNT AS total FROM R1 JOIN R2 ON 5tuple\n";
    let (got, _) = run_both(src, &recs, CompileOptions::default());
    let r3 = got.table("R3").unwrap();
    let drops_idx = r3.schema.index_of("drops").unwrap();
    let measured: i64 = r3.rows.iter().map(|r| r.values[drops_idx].as_i64()).sum();
    assert_eq!(measured as u64, drops_truth);
}

#[test]
fn multi_hop_latency_sums_via_pkt_uniq() {
    // On a 3-switch chain with no congestion, each packet's end-to-end
    // latency is exactly 3 store-and-forward delays; the composed R1 query
    // must reproduce that per packet.
    let mut net = Network::new(NetworkConfig {
        topology: Topology::Linear(3),
        ..Default::default()
    });
    let pkts: Vec<Packet> = (0..200u64)
        .map(|i| {
            PacketBuilder::tcp()
                .src(std::net::Ipv4Addr::new(10, 0, 0, 1), 1000)
                .dst(std::net::Ipv4Addr::new(172, 16, 0, (i % 4) as u8), 80)
                .payload_len(946) // 1000-byte wire size → 800 ns at 10 Gbit/s
                .uniq(i + 1)
                .arrival(Nanos(i * 100_000)) // spaced out: no queueing
                .build()
        })
        .collect();
    let recs = net.run_collect(pkts.into_iter());
    assert_eq!(recs.len(), 600);

    let src = "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq\n";
    let (got, want) = run_both(src, &recs, CompileOptions::default());
    assert!(diff_tables(&got.tables[0], &want.tables[0], 1e-9).is_none());
    let t = &got.tables[0];
    let sum_idx = t.schema.index_of("SUM(tout-tin)").unwrap();
    for row in &t.rows {
        assert_eq!(
            row.values[sum_idx].as_i64(),
            2400,
            "3 hops × 800 ns store-and-forward"
        );
    }
}

/// §3.2: the correct value at any time resides only in the backing store.
/// A reader that wants fresh results mid-window polls (backing ⊕ cache)
/// instead of evicting, and each poll reads exactly what the oracle has
/// seen so far.
#[test]
fn periodic_polls_read_fresh_exact_results() {
    let recs = records(5, 15_000);
    let compiled = compile_query(
        "SELECT COUNT GROUPBY srcip",
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let mut rt = Runtime::new(compiled.clone());
    let mut oracle = Oracle::new(compiled);
    for (i, r) in recs.iter().enumerate() {
        rt.process_record(r);
        oracle.process_record(r);
        if i % 2_000 == 1_999 {
            assert!(
                diff_tables(
                    &rt.poll_results().expect("no spill tier").tables[0],
                    &oracle.collect().tables[0],
                    1e-9
                )
                .is_none(),
                "poll after {} records",
                i + 1
            );
        }
    }
    rt.finish();
    assert!(
        diff_tables(&rt.collect().tables[0], &oracle.collect().tables[0], 1e-9).is_none(),
        "polls must not disturb linear results"
    );
}

#[test]
fn two_independent_queries_share_one_record_stream() {
    let recs = records(6, 10_000);
    let compiled_a = compile_query(
        "SELECT COUNT GROUPBY srcip",
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let compiled_b = compile_query(
        "SELECT MAX(qsize) GROUPBY qid",
        &fig2::default_params(),
        CompileOptions::default(),
    )
    .unwrap();
    let mut rt_a = Runtime::new(compiled_a);
    let mut rt_b = Runtime::new(compiled_b);
    for r in &recs {
        rt_a.process_record(r);
        rt_b.process_record(r);
    }
    rt_a.finish();
    rt_b.finish();
    let a = rt_a.collect();
    let b = rt_b.collect();
    let total: i64 = a.tables[0]
        .rows
        .iter()
        .map(|r| r.values[a.tables[0].schema.index_of("COUNT").unwrap()].as_i64())
        .sum();
    assert_eq!(total as usize, recs.len());
    assert!(!b.tables[0].rows.is_empty());
}
