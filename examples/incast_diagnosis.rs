//! Incast diagnosis: the paper's motivating scenario for switch-side
//! measurement.
//!
//! ```sh
//! cargo run --release --example incast_diagnosis
//! ```
//!
//! §5 argues endpoint telemetry cannot answer "which applications contribute
//! to TCP incast at a particular queue" — the needed data is scattered over
//! endpoints, and dropped packets take their telemetry with them. Here we
//! build the scenario: many servers answer one client simultaneously inside
//! a leaf–spine fabric, the client's leaf port melts, and two queries
//! localize the hot queue and rank the contributing flows — from switch
//! records alone.

use perfq::prelude::*;
use perfq::trace::incast;

fn main() {
    // ------------------------------------------------------------------
    // The workload: 40-way incast bursts on top of light background load.
    // ------------------------------------------------------------------
    let incast_cfg = IncastConfig {
        servers: 40,
        burst_pkts: 48,
        rounds: 6,
        ..Default::default()
    };
    let background = SyntheticTrace::new(TraceConfig {
        duration: Nanos::from_millis(60),
        ..TraceConfig::test_small(3)
    });
    let packets = incast::merge_with_background(incast::generate(&incast_cfg), background);
    println!(
        "workload: {} packets ({} incast flows fanning into one client)\n",
        packets.len(),
        incast_cfg.servers
    );

    // A 2-leaf / 2-spine fabric with modest ports: the incast victim's
    // leaf port will congest.
    let mut network = Network::new(NetworkConfig {
        topology: Topology::LeafSpine {
            leaves: 2,
            spines: 2,
        },
        switch: SwitchConfig {
            ports: 8,
            port_rate_bps: 1e9,
            queue_capacity: 48,
        },
        ..Default::default()
    });

    // ------------------------------------------------------------------
    // Query 1: where is the standing queue? (Fig. 2's percentile query)
    // ------------------------------------------------------------------
    let q1 = "\
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc groupby qid
R2 = SELECT * from R1 WHERE perc.high/perc.tot > 0.05
";
    // Query 2: who fills it? Per-flow drop counts at the network.
    let q2 = "\
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT srcip, R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple
";
    let mut params = fig2::default_params();
    params.insert("K".to_string(), Value::Int(24)); // "deep queue" threshold

    let mut rt_queues =
        Runtime::new(compile_query(q1, &params, CompileOptions::default()).expect("compiles"));
    let mut rt_flows =
        Runtime::new(compile_query(q2, &params, CompileOptions::default()).expect("compiles"));

    network.run(packets.into_iter(), |record| {
        rt_queues.process_record(&record);
        rt_flows.process_record(&record);
    });
    rt_queues.finish();
    rt_flows.finish();
    println!("network: {} packets dropped\n", network.total_drops());

    // ------------------------------------------------------------------
    // Diagnosis.
    // ------------------------------------------------------------------
    let queues = rt_queues.collect();
    let hot = queues.table("R2").expect("R2 defined");
    println!("queues with persistently high occupancy (qin > 24 more than 5% of the time):");
    for row in &hot.rows {
        let qid = row.values[hot.schema.index_of("qid").unwrap()].as_i64();
        let high = row.values[hot.schema.index_of("high").unwrap()].as_i64();
        let tot = row.values[hot.schema.index_of("tot").unwrap()].as_i64();
        println!(
            "  qid {qid} (switch {}, port {}): deep on {high}/{tot} packets",
            qid / 64,
            qid % 64
        );
    }

    let flows = rt_flows.collect();
    let mut lossy = flows.table("R3").expect("R3 defined").clone();
    let ratio_col = lossy.schema.index_of("R2.COUNT/R1.COUNT").unwrap_or(
        lossy.schema.len() - 1, // last column is the ratio
    );
    lossy.rows.sort_by(|a, b| {
        b.values[ratio_col]
            .as_f64()
            .total_cmp(&a.values[ratio_col].as_f64())
    });
    println!(
        "\ntop contributing connections by loss rate ({} lossy flows total):",
        lossy.rows.len()
    );
    for row in lossy.rows.iter().take(8) {
        let src = row.values[lossy.schema.index_of("srcip").unwrap()].as_i64() as u32;
        let loss = row.values[ratio_col].as_f64();
        println!(
            "  {} → client: {:.1}% loss",
            std::net::Ipv4Addr::from(src),
            loss * 100.0
        );
    }
    println!(
        "\nAll of this came from switch records: the endpoints never saw the \
         dropped packets at all."
    );
}
