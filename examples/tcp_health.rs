//! TCP health monitoring: sequence-number anomalies per connection.
//!
//! ```sh
//! cargo run --release --example tcp_health
//! ```
//!
//! Runs the paper's two TCP-anomaly queries side by side on flows with
//! injected loss and reordering, and shows the practical consequence of the
//! linear-in-state boundary: `outofseq` (linear, window-1) stays **exact**
//! under cache pressure, while `nonmt` (non-linear) degrades to per-epoch
//! values with invalid keys — exactly the trade §3.2 describes.

use perfq::prelude::*;
use perfq::trace::TcpDynamics;

fn main() {
    // A TCP-heavy trace with elevated anomaly rates.
    let cfg = TraceConfig {
        tcp_fraction: 1.0,
        tcp_dynamics: TcpDynamics::lossy(),
        duration: Nanos::from_secs(1),
        ..TraceConfig::test_small(11)
    };
    let stats = TraceStats::from_packets(SyntheticTrace::new(cfg.clone()));
    println!("workload: {}\n", stats.summary());

    let both = "\
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq:
        oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

def nonmt ((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

OOS = SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP
NMT = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
";

    // A deliberately small cache: ~6% of flows fit.
    let opts = CompileOptions {
        cache_pairs: 128,
        ways: 8,
        ..Default::default()
    };
    let compiled = compile_query(both, &fig2::default_params(), opts).expect("compiles");
    println!(
        "fold classes: outofseq = {} | nonmt = {}\n",
        perfq::core::foldops::describe_class(
            compiled.program.query("OOS").unwrap().fold().unwrap()
        ),
        perfq::core::foldops::describe_class(
            compiled.program.query("NMT").unwrap().fold().unwrap()
        ),
    );

    let mut network = Network::new(NetworkConfig::default());
    let mut runtime = Runtime::new(compiled.clone());
    let mut oracle = Oracle::new(compiled);
    network.run(SyntheticTrace::new(cfg), |r| {
        runtime.process_record(&r);
        oracle.process_record(&r);
    });
    runtime.finish();

    let got = runtime.collect();
    let want = oracle.collect();

    for name in ["OOS", "NMT"] {
        let g = got.table(name).expect("table");
        let w = want.table(name).expect("table");
        let count_col = g.schema.len() - 1; // the anomaly counter
        let total: i64 = g.rows.iter().map(|r| r.values[count_col].as_i64()).sum();
        let truth: i64 = w.rows.iter().map(|r| r.values[count_col].as_i64()).sum();
        let stats = match name {
            "OOS" => runtime.store_stats(0),
            _ => runtime.store_stats(1),
        }
        .expect("store");
        println!(
            "{name}: {} flows, {} anomalies (oracle: {})",
            g.rows.len(),
            total,
            truth
        );
        println!(
            "     cache: {:.1}% hits, {} evictions | valid keys: {:.1}%",
            stats.hit_rate() * 100.0,
            stats.evictions,
            g.accuracy() * 100.0
        );
        match perfq::core::diff_tables(g, w, 1e-9) {
            None => println!("     == matches the oracle exactly (linear-in-state merge)\n"),
            Some(_) => println!(
                "     != diverges from the oracle: non-linear folds cannot be merged;\n     \
                 invalid keys keep per-epoch values that are each correct over\n     \
                 their own interval (§3.2)\n"
            ),
        }
    }
    println!(
        "takeaway: rewriting a monitoring question in linear-in-state form\n\
         (as outofseq does with its lastseq window variable) buys exactness\n\
         under any cache pressure; nonmt pays with invalid keys instead."
    );
}
