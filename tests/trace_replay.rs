//! Determinism: the generated trace and everything downstream of it are
//! bit-stable across runs given a seed, and differ across seeds.

use perfq::prelude::*;

fn run_query_on(packets: Vec<Packet>, source: &str) -> ResultSet {
    let compiled = compile_query(source, &fig2::default_params(), CompileOptions::default())
        .expect("compiles");
    let mut net = Network::new(NetworkConfig::default());
    let mut rt = Runtime::new(compiled);
    net.run(packets.into_iter(), |r| rt.process_record(&r));
    rt.finish();
    rt.collect()
}

#[test]
fn whole_pipeline_is_deterministic_given_seed() {
    let run = || {
        let packets: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(77))
            .take(6_000)
            .collect();
        let rs = run_query_on(packets, fig2::LATENCY_EWMA.source);
        let mut t = rs.tables[0].clone();
        t.sort();
        t
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_workloads() {
    let a: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(1))
        .take(100)
        .collect();
    let b: Vec<Packet> = SyntheticTrace::new(TraceConfig::test_small(2))
        .take(100)
        .collect();
    assert_ne!(a, b);
}
