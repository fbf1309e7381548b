//! The seven example queries of the paper's Fig. 2, embedded verbatim.
//!
//! These are conformance fixtures: each must parse, resolve, and receive the
//! exact "Linear in state?" verdict the paper's table prints. The benchmark
//! binary `fig2` and several integration tests iterate over [`ALL`].

use crate::ir::FoldClass;
use crate::resolve::{resolve, ResolvedProgram};
use crate::types::Value;
use crate::LangResult;
use std::collections::HashMap;

/// One Fig. 2 row.
#[derive(Debug, Clone)]
pub struct Fig2Query {
    /// Row label as printed in the paper.
    pub name: &'static str,
    /// The query source, as printed (modulo whitespace normalization).
    pub source: &'static str,
    /// The paper's description column.
    pub description: &'static str,
    /// The paper's "Linear in state?" column.
    pub paper_linear: bool,
    /// Name of the query whose fold carries the verdict (the last GROUPBY).
    pub verdict_query: &'static str,
}

/// Per-flow packet and byte counters.
pub const PER_FLOW_COUNTERS: Fig2Query = Fig2Query {
    name: "Per-flow counters",
    source: "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip\n",
    description: "Count packets and bytes for each src-dst IP pair.",
    paper_linear: true,
    verdict_query: "__q0",
};

/// EWMA of queueing latency per 5-tuple.
pub const LATENCY_EWMA: Fig2Query = Fig2Query {
    name: "Latency EWMA",
    source: "\
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
",
    description: "Maintain a per-flow EWMA over queueing latencies of packets.",
    paper_linear: true,
    verdict_query: "__q0",
};

/// Out-of-sequence TCP packet counter.
pub const TCP_OUT_OF_SEQUENCE: Fig2Query = Fig2Query {
    name: "TCP out of sequence",
    source: "\
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq:
        oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP
",
    description: "Count packets with non-consecutive sequence numbers in each TCP stream.",
    paper_linear: true,
    verdict_query: "__q0",
};

/// Non-monotonic TCP sequence counter (retransmissions / reorderings).
pub const TCP_NON_MONOTONIC: Fig2Query = Fig2Query {
    name: "TCP non-monotonic",
    source: "\
def nonmt ((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
",
    description: "Count packet retransmissions and reorderings in each TCP stream.",
    paper_linear: false,
    verdict_query: "__q0",
};

/// Flows with many high end-to-end-latency packets.
pub const PER_FLOW_HIGH_LATENCY: Fig2Query = Fig2Query {
    name: "Per-flow high latency packets",
    source: "\
R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple
     WHERE SUM(tout-tin) > L
",
    description: "Count packets with high end-to-end latency per flow.",
    paper_linear: true,
    verdict_query: "R2",
};

/// Per-flow loss rate via a join of two counters.
pub const PER_FLOW_LOSS_RATE: Fig2Query = Fig2Query {
    name: "Per-flow loss rate",
    source: "\
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple
",
    description: "Determine loss rates per flow.",
    paper_linear: true,
    verdict_query: "R1",
};

/// Queues whose 99th-percentile occupancy exceeds a threshold.
pub const HIGH_P99_QUEUE_SIZE: Fig2Query = Fig2Query {
    name: "High 99th percentile queue size",
    source: "\
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc groupby qid
R2 = SELECT * from R1 WHERE perc.high/perc.tot > 0.01
",
    description: "Identify queues with a 99th percentile queue size higher than a threshold K.",
    paper_linear: true,
    verdict_query: "R1",
};

/// All seven rows, in the paper's order.
pub const ALL: [&Fig2Query; 7] = [
    &PER_FLOW_COUNTERS,
    &LATENCY_EWMA,
    &TCP_OUT_OF_SEQUENCE,
    &TCP_NON_MONOTONIC,
    &PER_FLOW_HIGH_LATENCY,
    &PER_FLOW_LOSS_RATE,
    &HIGH_P99_QUEUE_SIZE,
];

/// Default parameter bindings for the free names the Fig. 2 queries use:
/// `alpha` (EWMA weight), `L` (latency threshold), `K` (queue-size
/// threshold), and `TCP` (the protocol number, usable as a bare name).
#[must_use]
pub fn default_params() -> HashMap<String, Value> {
    let mut p = HashMap::new();
    p.insert("alpha".to_string(), Value::Float(0.125));
    p.insert("L".to_string(), Value::Int(1_000_000)); // 1 ms
    p.insert("K".to_string(), Value::Int(50)); // packets in queue
    p.insert("TCP".to_string(), Value::Int(6));
    p.insert("UDP".to_string(), Value::Int(17));
    p
}

/// Compile one Fig. 2 query with [`default_params`].
pub fn compile(q: &Fig2Query) -> LangResult<ResolvedProgram> {
    let program = crate::parser::parse(q.source)?;
    resolve(&program, &default_params())
}

/// The derived linear-in-state verdict for the row's headline fold.
pub fn derived_linear(prog: &ResolvedProgram, q: &Fig2Query) -> Option<bool> {
    let rq = prog.query(q.verdict_query)?;
    let fold = rq.fold()?;
    Some(!matches!(fold.class, FoldClass::NonLinear))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fig2_queries_compile() {
        for q in ALL {
            if let Err(e) = compile(q) {
                panic!("{} failed to compile: {}\n{}", q.name, e, q.source);
            }
        }
    }

    #[test]
    fn derived_verdicts_match_paper_table() {
        for q in ALL {
            let prog = compile(q).unwrap();
            let got = derived_linear(&prog, q)
                .unwrap_or_else(|| panic!("{}: verdict query has no fold", q.name));
            assert_eq!(
                got, q.paper_linear,
                "{}: paper says linear={}, analysis says {}",
                q.name, q.paper_linear, got
            );
        }
    }

    #[test]
    fn loss_rate_produces_three_queries() {
        let prog = compile(&PER_FLOW_LOSS_RATE).unwrap();
        assert_eq!(prog.queries.len(), 3);
        assert!(prog.queries[2].collect_only);
    }

    #[test]
    fn high_latency_uses_window_free_linear_folds() {
        let prog = compile(&PER_FLOW_HIGH_LATENCY).unwrap();
        let r1 = prog.query("R1").unwrap().fold().unwrap();
        assert_eq!(r1.class, FoldClass::Linear { window: 0 });
    }
}
