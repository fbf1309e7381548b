//! Fig. 2 — the example-query table.
//!
//! For each of the paper's seven example queries, verbatim from Fig. 2:
//!
//! 1. parse + resolve the query text;
//! 2. report the **derived** linear-in-state verdict next to the paper's
//!    printed column (they must agree);
//! 3. audit the fold against the Banzai-like stateful-ALU budget (§3.3);
//! 4. execute end-to-end — trace → network → compiled runtime — and compare
//!    against the ground-truth oracle (exact for linear queries; accuracy
//!    reported for the non-linear one).

use perfq_bench::Table;
use perfq_core::{compile_program, CompileOptions, Oracle, Runtime};
use perfq_lang::fig2;
use perfq_switch::{AluSpec, Network, NetworkConfig};
use perfq_trace::{SyntheticTrace, TraceConfig};

fn main() {
    println!("Fig. 2 reproduction: example queries, linearity verdicts, and");
    println!("hardware-vs-oracle agreement\n");

    // A short trace with TCP dynamics, run through a deliberately
    // under-provisioned switch (slow ports) so records carry real queueing
    // delays, occupancy, and drops — the phenomena the queries measure.
    let trace_cfg = TraceConfig {
        duration: perfq_packet::Nanos::from_secs(1),
        ..TraceConfig::test_small(perfq_bench::seed())
    };
    let mut net = Network::new(NetworkConfig {
        switch: perfq_switch::SwitchConfig {
            ports: 1,
            port_rate_bps: 80e6, // one oversubscribed port: queueing + drops
            queue_capacity: 64,
        },
        ..Default::default()
    });
    let records = net.run_collect(SyntheticTrace::new(trace_cfg));
    println!(
        "workload: {} records through an oversubscribed switch port ({} drops)\n",
        records.len(),
        net.total_drops()
    );

    let table = Table::new(&[32, 8, 8, 8, 10, 24]);
    table.row(&[
        "query".into(),
        "paper".into(),
        "derived".into(),
        "alu".into(),
        "keys".into(),
        "vs oracle".into(),
    ]);
    table.sep();

    let mut all_ok = true;
    for q in fig2::ALL {
        let prog = match fig2::compile(q) {
            Ok(p) => p,
            Err(e) => {
                println!("{}: COMPILE FAILED: {}", q.name, e);
                all_ok = false;
                continue;
            }
        };
        let derived = fig2::derived_linear(&prog, q).expect("verdict query aggregates");
        let verdict_match = derived == q.paper_linear;
        all_ok &= verdict_match;

        let compiled = compile_program(prog, CompileOptions::default());
        let alu_ok = compiled.alu.iter().flatten().all(|r| r.is_ok());
        let mut rt = Runtime::new(compiled.clone());
        let mut oracle = Oracle::new(compiled);
        for r in &records {
            rt.process_record(r);
            oracle.process_record(r);
        }
        rt.finish();
        let got = rt.collect();
        let want = oracle.collect();

        let vq = q.verdict_query;
        let (gt, wt) = (
            got.table(vq).expect("table"),
            want.table(vq).expect("table"),
        );
        let comparison = if q.paper_linear {
            match perfq_core::diff_tables(gt, wt, 1e-9) {
                None => "exact match".to_string(),
                Some(d) => {
                    all_ok = false;
                    format!("MISMATCH: {d}")
                }
            }
        } else {
            format!("{:.1}% keys valid", gt.accuracy() * 100.0)
        };
        table.row(&[
            q.name.into(),
            if q.paper_linear { "Yes" } else { "No" }.into(),
            if derived { "Yes" } else { "No" }.into(),
            if alu_ok { "fits" } else { "over" }.into(),
            format!("{}", gt.rows.len()),
            comparison,
        ]);
    }
    table.sep();

    // The ALU budget used for the audit.
    let spec = AluSpec::banzai();
    println!(
        "\nALU budget: {} state regs, {} ops/cycle, depth-{} predication, \
         multiplier: {}, {}-packet window",
        spec.max_state_vars,
        spec.max_ops,
        spec.max_branch_depth,
        spec.has_multiplier,
        spec.max_window
    );
    println!(
        "\nresult: {}",
        if all_ok {
            "all derived verdicts match the paper's table; linear queries \
             reproduce the oracle exactly"
        } else {
            "DISCREPANCIES FOUND (see above)"
        }
    );
    std::process::exit(i32::from(!all_ok));
}
