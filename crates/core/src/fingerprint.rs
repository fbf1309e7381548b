//! Store-identity verdicts. A store's fingerprint is what the identity rule
//! in [`crate::multi`] compares over the plans that run: the compiled filter,
//! the key columns, the physical store plan and the upstream chain. Each test
//! is a table of `(case, a, query, b, query, same store?, same stream?)`
//! rows over the paper's overlaps and their near misses, the stream verdict
//! (output layout included) where it is pinned.

#[cfg(test)]
mod tests {
    use crate::compile_query;
    use crate::compiler::{CompileOptions, CompiledProgram};
    use crate::multi::{same_node, same_store};
    use crate::plan::ExecPlan;
    use perfq_lang::{fig2, Value};

    type Case<'a> = (
        &'a str,
        &'a CompiledProgram,
        usize,
        &'a CompiledProgram,
        usize,
        bool,
        Option<bool>,
    );

    fn compiled(src: &str) -> CompiledProgram {
        compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap()
    }

    /// Both verdicts of every row, each way round: the strict store rule,
    /// and the stream rule where the row pins it.
    fn check(cases: &[Case]) {
        for &(what, a, ai, b, bi, store, stream) in cases {
            let (pa, pb) = (ExecPlan::build(&a.program), ExecPlan::build(&b.program));
            let got = same_store((a, &pa), ai, (b, &pb), bi, true);
            assert_eq!(got, store, "{what}: store");
            let got = same_store((b, &pb), bi, (a, &pa), ai, true);
            assert_eq!(got, store, "{what}: store, swapped");
            if let Some(stream) = stream {
                let got = same_node((a, &pa), ai, (b, &pb), bi, true, true);
                assert_eq!(got, stream, "{what}: stream");
            }
        }
    }

    #[test]
    fn identical_programs_fingerprint_equal() {
        let counter = compiled("SELECT COUNT GROUPBY 5tuple\n");
        check(&[(
            "identical programs",
            &counter,
            0,
            &counter.clone(),
            0,
            true,
            Some(true),
        )]);
    }

    #[test]
    fn loss_rate_r1_matches_the_running_example_counter() {
        // The §4 running example appears verbatim as the loss-rate query's
        // R1 — the headline cross-program dedup opportunity — but R2
        // filters on drops: a different filter, a different store.
        let counter = compiled("SELECT COUNT GROUPBY 5tuple\n");
        let loss = compiled(fig2::PER_FLOW_LOSS_RATE.source);
        #[rustfmt::skip]
        let cases: [Case; 2] = [
            ("loss-rate R1 is the §4 counter", &counter, 0, &loss, 0, true, None),
            ("loss-rate R2 filters on drops", &counter, 0, &loss, 1, false, None),
        ];
        check(&cases);
    }

    #[test]
    fn param_folding_erases_parameter_identity() {
        // The plans bind parameters: `proto == TCP` with TCP bound to 6 is a
        // literal `proto == 6`, and TCP bound to 17 is another predicate.
        let mut udp_tcp = fig2::default_params();
        udp_tcp.insert("TCP".into(), Value::Int(17));
        let src = "SELECT COUNT GROUPBY 5tuple WHERE proto == TCP\n";
        let tcp = compiled(src);
        let six = compiled("SELECT COUNT GROUPBY 5tuple WHERE proto == 6\n");
        let tcp_17 = compile_query(src, &udp_tcp, CompileOptions::default()).unwrap();
        #[rustfmt::skip]
        let cases: [Case; 2] = [
            ("a bound parameter is its value", &tcp, 0, &six, 0, true, Some(true)),
            ("TCP bound to 17 is another predicate", &six, 0, &tcp_17, 0, false, Some(false)),
        ];
        check(&cases);
    }

    #[test]
    fn aliases_do_not_change_store_identity_but_keys_do() {
        let pair = compiled("SELECT COUNT GROUPBY srcip, dstip\n");
        let aliased = compiled("SELECT COUNT AS pkts GROUPBY srcip, dstip\n");
        let swapped = compiled("SELECT COUNT GROUPBY dstip, srcip\n");
        #[rustfmt::skip]
        let cases: [Case; 2] = [
            ("an output alias is cosmetic", &pair, 0, &aliased, 0, true, Some(true)),
            ("key order is store layout", &pair, 0, &swapped, 0, false, None),
        ];
        check(&cases);
    }

    #[test]
    fn fold_bodies_distinguish_stores() {
        let count = compiled("SELECT COUNT GROUPBY 5tuple\n");
        let sum = compiled("SELECT SUM(pkt_len) GROUPBY 5tuple\n");
        check(&[("COUNT is not SUM", &count, 0, &sum, 0, false, Some(false))]);
    }

    #[test]
    fn composed_chains_compare_recursively() {
        let hi = compiled(fig2::PER_FLOW_HIGH_LATENCY.source);
        // The same R2 over a *different* R1: a filter upstream diverges the
        // downstream store with it.
        let other = compiled(
            "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq WHERE proto == 6\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n",
        );
        #[rustfmt::skip]
        let cases: [Case; 3] = [
            ("identical composed chains", &hi, 1, &hi.clone(), 1, true, None),
            ("a diverged upstream chain", &hi, 1, &other, 1, false, None),
            ("a diverged upstream filter alone", &hi, 0, &other, 0, false, None),
        ];
        check(&cases);
    }
}
