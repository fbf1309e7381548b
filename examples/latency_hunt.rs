//! Latency hunting across a multi-hop fabric.
//!
//! ```sh
//! cargo run --release --example latency_hunt
//! ```
//!
//! Uses query *composition* — the paper's distinctive language feature — to
//! find flows whose packets accumulate high end-to-end latency across
//! multiple queues, then drills into per-queue EWMA latencies to find which
//! hop is responsible. Demonstrates that per-packet observations from
//! different switches aggregate coherently via `pkt_uniq`.

use perfq::prelude::*;

fn main() {
    // Three switches in a chain; the middle one has a slow port.
    let mut network = Network::new(NetworkConfig {
        topology: Topology::Linear(3),
        switch: SwitchConfig {
            ports: 4,
            port_rate_bps: 3.5e7, // 35 Mbit/s ports: hot ports congest
            queue_capacity: 256,
        },
        ..Default::default()
    });

    let cfg = TraceConfig {
        duration: Nanos::from_millis(400),
        flows_per_sec: 4_000.0,
        ..TraceConfig::test_small(23)
    };
    println!(
        "workload: {}\n",
        TraceStats::from_packets(SyntheticTrace::new(cfg.clone())).summary()
    );

    // Composed query: per-packet end-to-end latency, re-aggregated per flow
    // (Fig. 2, "Per-flow high latency packets") — plus a per-queue EWMA for
    // the drill-down.
    let query = "\
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple
     WHERE SUM(tout-tin) > L

QLAT = SELECT qid, ewma GROUPBY qid
";
    let mut params = fig2::default_params();
    params.insert("L".to_string(), Value::Int(3_000_000)); // 3 ms end-to-end
    params.insert("alpha".to_string(), Value::Float(0.05));

    let compiled = compile_query(query, &params, CompileOptions::default()).expect("compiles");
    let mut runtime = Runtime::new(compiled);
    runtime.process_network(&mut network, SyntheticTrace::new(cfg), 256);
    runtime.finish();

    let results = runtime.collect();

    // Which flows accumulated > 3 ms across the chain?
    let slow = results.table("R2").expect("R2 defined");
    println!(
        "flows with packets exceeding 3 ms end-to-end latency: {}",
        slow.rows.len()
    );
    for row in slow.rows.iter().take(6) {
        let src = row.values[slow.schema.index_of("srcip").unwrap()].as_i64() as u32;
        let dst = row.values[slow.schema.index_of("dstip").unwrap()].as_i64() as u32;
        println!(
            "  {} → {}",
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::from(dst)
        );
    }

    // Which queue is the bottleneck?
    let qlat = results.table("QLAT").expect("QLAT defined");
    let mut rows = qlat.rows.clone();
    let ewma_col = qlat.schema.index_of("lat_est").unwrap();
    let qid_col = qlat.schema.index_of("qid").unwrap();
    rows.sort_by(|a, b| {
        b.values[ewma_col]
            .as_f64()
            .total_cmp(&a.values[ewma_col].as_f64())
    });
    println!("\nper-queue EWMA latency (worst first):");
    for row in rows.iter().take(6) {
        let qid = row.values[qid_col].as_i64();
        let lat_us = row.values[ewma_col].as_f64() / 1e3;
        println!("  switch {} port {}: {:.1} µs", qid / 64, qid % 64, lat_us);
    }
    println!(
        "\ncomposition at work: R1 aggregates each packet's latency over all\n\
         queues it visited (keyed by pkt_uniq), R2 re-aggregates R1's stream\n\
         per flow — two cascaded key-value stores in the data plane."
    );
}
