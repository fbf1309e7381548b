//! Grammar and semantics conformance against Fig. 1 and §2 of the paper.
//!
//! Every production of the published grammar is exercised with a compiling
//! example; the §2 prose queries are embedded verbatim; restrictions the
//! paper states (join keys, compilation rules) are enforced as errors.

use perfq_lang::{compile, fig2, FoldClass, QueryInput, ResolvedKind};
use std::collections::HashMap;

fn params() -> HashMap<String, perfq_lang::Value> {
    fig2::default_params()
}

fn ok(src: &str) -> perfq_lang::ResolvedProgram {
    match compile(src, &params()) {
        Ok(p) => p,
        Err(e) => panic!("should compile:\n{src}\nerror: {e}"),
    }
}

fn err(src: &str) -> perfq_lang::LangError {
    match compile(src, &params()) {
        Ok(_) => panic!("should NOT compile:\n{src}"),
        Err(e) => e,
    }
}

// ---- Fig. 1 productions ----

#[test]
fn select_clause_with_field_list() {
    ok("SELECT srcip, dstip, qid FROM T");
}

#[test]
fn select_clause_with_expressions() {
    let p = ok("SELECT tout - tin AS delay, pkt_len FROM T");
    assert!(p.queries[0].schema.contains("delay"));
}

#[test]
fn where_clause_boolean_predicates() {
    ok("SELECT srcip FROM T WHERE tout - tin > 1ms and proto == TCP");
    ok("SELECT srcip FROM T WHERE not (qsize > 10 or qsize < 2)");
}

#[test]
fn group_query_with_agg_fun() {
    let p = ok("def f (s, (pkt_len)):\n    s = s + pkt_len\n\nSELECT srcip, f GROUPBY srcip");
    assert!(matches!(p.queries[0].kind, ResolvedKind::GroupBy(_)));
}

#[test]
fn group_query_field_exprs() {
    // group_field := field | agg_fun per Fig. 1.
    ok("SELECT qid, COUNT GROUPBY qid");
}

#[test]
fn join_query_on_key_list() {
    let p = ok("R1 = SELECT COUNT GROUPBY srcip, dstip\nR2 = SELECT SUM(pkt_len) GROUPBY srcip, dstip\nR3 = SELECT R1.COUNT, R2.SUM(pkt_len) FROM R1 JOIN R2 ON srcip, dstip\n");
    assert!(matches!(p.queries[2].input, QueryInput::Join { .. }));
}

#[test]
fn fold_if_then_else_form() {
    // The grammar's `if pred then code else code`.
    ok("def f (s, (pkt_len)):\n    if pkt_len > 100 then s = s + 1 else s = s + 0\n\nSELECT srcip, f GROUPBY srcip");
}

// ---- §2 prose queries, verbatim ----

#[test]
fn prose_high_latency_select() {
    // "SELECT srcip, qid FROM T WHERE tout - tin > 1ms"
    let p = ok("SELECT srcip, qid FROM T WHERE tout - tin > 1ms");
    assert_eq!(p.queries[0].schema.len(), 2);
}

#[test]
fn prose_sumlen_groupby() {
    // "def sumlen (result, (pkt_len)): result = result + pkt_len"
    let p = ok("def sumlen (result, (pkt_len)): result = result + pkt_len\n\nSELECT srcip, dstip, sumlen GROUPBY srcip, dstip");
    let fold = p.queries[0].fold().unwrap();
    assert_eq!(fold.class, FoldClass::Linear { window: 0 });
}

#[test]
fn prose_composed_latency_query() {
    let src = "def sum_lat(lat, (tin, tout)): lat = lat + tout - tin\n\nR1 = SELECT pkt_uniq, sum_lat GROUPBY pkt_uniq\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE lat > L\n";
    let p = ok(src);
    assert_eq!(p.queries.len(), 2);
    assert!(matches!(p.queries[1].input, QueryInput::Table(0)));
}

#[test]
fn all_fig2_rows_verbatim() {
    for q in fig2::ALL {
        let prog = fig2::compile(q).unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
        assert_eq!(
            fig2::derived_linear(&prog, q),
            Some(q.paper_linear),
            "{}",
            q.name
        );
    }
}

// ---- restrictions the paper states ----

#[test]
fn join_key_must_uniquely_identify_rows() {
    // §2 footnote 3: checked by the compiler. Keys must equal both GROUPBY keys.
    let e = err("R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip, dstip\nR3 = SELECT R1.COUNT FROM R1 JOIN R2 ON srcip\n");
    assert!(e.message.contains("uniquely"), "{}", e.message);
}

#[test]
fn self_join_on_packets_rejected() {
    // "T JOIN T ON pkt_5tuple" is inherently expensive and unsupported.
    assert!(compile("SELECT srcip FROM T JOIN T ON 5tuple", &params()).is_err());
}

#[test]
fn groupby_cannot_consume_join_output() {
    let e = err("R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT srcip, R1.COUNT FROM R1 JOIN R2 ON srcip\nR4 = SELECT COUNT FROM R3 GROUPBY srcip\n");
    assert!(e.message.contains("JOIN"), "{}", e.message);
}

#[test]
fn where_must_reference_input_columns() {
    let e = err("SELECT COUNT GROUPBY srcip WHERE no_such > 3");
    assert!(e.message.contains("no_such"), "{}", e.message);
}

// ---- diagnostics quality ----

#[test]
fn errors_carry_line_numbers() {
    let src = "SELECT srcip FROM T\nSELECT bogus FROM T\n";
    let e = err(src);
    assert_eq!(e.span.unwrap().line, 2);
    assert!(e.to_string().starts_with("line 2: "), "{e}");
}

#[test]
fn reserved_base_table_name() {
    let e = err("T = SELECT srcip FROM T");
    assert!(e.message.contains("base table"), "{}", e.message);
}

#[test]
fn duplicate_definitions_rejected() {
    assert!(compile(
        "R1 = SELECT COUNT GROUPBY srcip\nR1 = SELECT COUNT GROUPBY dstip\n",
        &params()
    )
    .is_err());
    assert!(compile(
        "def f (s, (pkt_len)):\n    s = s + 1\n\ndef f (s, (pkt_len)):\n    s = s + 2\n\nSELECT srcip, f GROUPBY srcip",
        &params()
    )
    .is_err());
}

// ---- language features beyond the minimum ----

#[test]
fn const_declarations_and_duration_literals() {
    let p = ok("const limit = 2ms\nSELECT srcip FROM T WHERE tout - tin > limit");
    assert!(p.queries[0].pre_filter.is_some());
}

#[test]
fn aliases_rename_aggregates() {
    let p = ok("SELECT COUNT AS packets, SUM(pkt_len) AS bytes GROUPBY srcip");
    let q = &p.queries[0];
    assert!(q.schema.contains("packets"));
    assert!(q.schema.contains("bytes"));
}

#[test]
fn elif_chains() {
    let p = ok("def bucket ((small, mid, big), (pkt_len)):\n    if pkt_len < 100:\n        small = small + 1\n    elif pkt_len < 1000:\n        mid = mid + 1\n    else:\n        big = big + 1\n\nSELECT srcip, bucket GROUPBY srcip");
    let fold = p.queries[0].fold().unwrap();
    assert_eq!(fold.state.len(), 3);
    assert_eq!(fold.class, FoldClass::Linear { window: 0 });
}

#[test]
fn comments_are_allowed() {
    ok("# count per source\nSELECT COUNT GROUPBY srcip // trailing\n");
}

#[test]
fn case_insensitive_keywords_verbatim_from_paper() {
    // Fig. 2 mixes `groupby`, `from`, `WHERE` freely.
    ok("R1 = SELECT qid, COUNT groupby qid\nR2 = SELECT * from R1 WHERE COUNT > 5\n");
}

#[test]
fn qsize_qin_aliases_agree() {
    let a = ok("SELECT qsize FROM T WHERE qsize > 5");
    let b = ok("SELECT qin FROM T WHERE qin > 5");
    assert_eq!(a.queries[0].pre_filter, b.queries[0].pre_filter);
}
