//! Store-identity verdicts. A store's fingerprint is what the identity rule
//! in [`crate::multi`] compares over the plans that run: a base-table
//! source, the compiled filter, the key columns, the demanded associativity
//! and the physical store plan. Each test is a table of
//! `(case, a, query, b, query, same store?)` rows over the paper's overlaps
//! and their near misses.

#[cfg(test)]
mod tests {
    use crate::compile_query;
    use crate::compiler::{CompileOptions, CompiledProgram};
    use crate::multi::same_store;
    use crate::plan::ExecPlan;
    use perfq_kvstore::{CachePlanner, QueryDemand, StoreDemand};
    use perfq_lang::{fig2, Value};

    type Case<'a> = (
        &'a str,
        &'a CompiledProgram,
        usize,
        &'a CompiledProgram,
        usize,
        bool,
    );

    fn compiled(src: &str) -> CompiledProgram {
        compile_query(src, &fig2::default_params(), CompileOptions::default()).unwrap()
    }

    /// The strict store rule on every row, each way round.
    fn check(cases: &[Case]) {
        for &(what, a, ai, b, bi, store) in cases {
            let (pa, pb) = (ExecPlan::build(&a.program), ExecPlan::build(&b.program));
            let got = same_store((a, &pa), ai, (b, &pb), bi, true);
            assert_eq!(got, store, "{what}: store");
            let got = same_store((b, &pb), bi, (a, &pa), ai, true);
            assert_eq!(got, store, "{what}: store, swapped");
        }
    }

    #[test]
    fn identical_programs_fingerprint_equal() {
        let counter = compiled("SELECT COUNT GROUPBY 5tuple\n");
        check(&[("identical programs", &counter, 0, &counter.clone(), 0, true)]);
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
            ("loss-rate R1 is the §4 counter", &counter, 0, &loss, 0, true),
            ("loss-rate R2 filters on drops", &counter, 0, &loss, 1, false),
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
            ("a bound parameter is its value", &tcp, 0, &six, 0, true),
            ("TCP bound to 17 is another predicate", &six, 0, &tcp_17, 0, false),
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
            ("an output alias is cosmetic", &pair, 0, &aliased, 0, true),
            ("key order is store layout", &pair, 0, &swapped, 0, false),
        ];
        check(&cases);
    }

    #[test]
    fn fold_bodies_distinguish_stores() {
        let count = compiled("SELECT COUNT GROUPBY 5tuple\n");
        let sum = compiled("SELECT SUM(pkt_len) GROUPBY 5tuple\n");
        check(&[("COUNT is not SUM", &count, 0, &sum, 0, false)]);
    }

    #[test]
    fn composed_stores_are_never_the_same_store() {
        // R2 streams R1's residency-local values: identical chains still
        // keep private stores, and a filter upstream changes R1 itself.
        let hi = compiled(fig2::PER_FLOW_HIGH_LATENCY.source);
        let other = compiled(
            "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq WHERE proto == 6\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n",
        );
        #[rustfmt::skip]
        let cases: [Case; 4] = [
            ("identical composed chains", &hi, 1, &hi.clone(), 1, false),
            ("a diverged upstream chain", &hi, 1, &other, 1, false),
            ("an identical base-rooted R1", &hi, 0, &hi.clone(), 0, true),
            ("a diverged upstream filter alone", &hi, 0, &other, 0, false),
        ];
        check(&cases);
    }

    #[test]
    fn demanded_associativity_is_store_identity() {
        // A three-pair slice clamps an 8-way and a 4-way demand to one
        // geometry, but the planner sizes the two apart at the next replan,
        // so they are not one store.
        let at_three_pairs = |ways: usize| {
            let options = CompileOptions {
                ways,
                ..Default::default()
            };
            let src = "SELECT COUNT GROUPBY 5tuple\n";
            let mut c = compile_query(src, &fig2::default_params(), options).unwrap();
            let store = c.stores[0].as_mut().unwrap();
            let demand = QueryDemand::new("q", vec![StoreDemand::new(store.pair_bits(), ways)]);
            let budget = 3 * u64::from(store.pair_bits());
            let plan = CachePlanner::new(budget).plan(&[demand]).unwrap();
            store.geometry = plan.queries[0].stores[0].geometry;
            c
        };
        let (eight, four) = (at_three_pairs(8), at_three_pairs(4));
        let geometry = |c: &CompiledProgram| c.stores[0].as_ref().unwrap().geometry;
        assert_eq!(
            geometry(&eight),
            geometry(&four),
            "premise: one clamped geometry"
        );
        #[rustfmt::skip]
        let cases: [Case; 2] = [
            ("8-way against 4-way at one clamped geometry", &eight, 0, &four, 0, false),
            ("8-way against 8-way at one clamped geometry", &eight, 0, &eight.clone(), 0, true),
        ];
        check(&cases);
    }
}
