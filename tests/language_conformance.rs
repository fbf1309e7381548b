//! Grammar and semantics conformance against Fig. 1 and §2 of the paper.
//!
//! Every production of the published grammar is exercised with a compiling
//! example; the §2 prose queries are embedded verbatim; restrictions the
//! paper states (join keys, compilation rules) are enforced as errors.

use perfq_lang::{compile, fig2, FoldClass, QueryInput, ResolvedKind};
use proptest::prelude::*;
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

// ---- malformed text is an error, never a panic ----

#[test]
fn builtin_arity_is_checked_at_compile_time() {
    // A builtin with the wrong number of arguments is refused when the query
    // compiles, not when the first record reaches it.
    for src in [
        "SELECT max() FROM T",
        "SELECT abs(pkt_len, 2) FROM T",
        "SELECT srcip FROM T WHERE abs() > 1",
        "SELECT COUNT GROUPBY srcip WHERE max() > 0",
    ] {
        let e = err(src);
        assert!(e.message.contains("argument"), "{src}: {}", e.message);
        assert!(e.span.is_some(), "{src}: no span");
    }
    ok("SELECT abs(pkt_len), max(pkt_len), min(tin, tout, qsize) FROM T");
}

#[test]
fn duplicate_groupby_outputs_are_an_error() {
    let fold = "def f (s, (pkt_len)):\n    s = s + pkt_len\n\n";
    for src in [
        "SELECT COUNT, COUNT GROUPBY srcip".to_string(),
        "SELECT COUNT, COUNT, COUNT GROUPBY srcip".to_string(),
        "SELECT SUM(pkt_len), SUM(pkt_len), SUM(pkt_len) GROUPBY srcip".to_string(),
        format!("{fold}SELECT f, f, f GROUPBY srcip"),
        // A key field and an aggregate, and an alias of a key field.
        "SELECT COUNT AS srcip GROUPBY srcip".to_string(),
        "SELECT COUNT AS qin GROUPBY qsize".to_string(),
    ] {
        let e = err(&src);
        assert!(
            e.message.contains("duplicate output column"),
            "{src}: {}",
            e.message
        );
    }
    let p = ok("SELECT COUNT AS a, COUNT AS b GROUPBY srcip");
    assert_eq!(p.queries[0].schema.len(), 3);
}

/// Parentheses are part of an aggregate's column name wherever they change
/// the expression: `SUM((tout-tin)-qsize)` and `SUM(tout-(tin-qsize))` are
/// two columns, and a downstream WHERE reads the one its own text names —
/// or fails to resolve when its upstream has no such column.
#[test]
fn parenthesized_aggregates_name_distinct_columns() {
    let both = "R1 = SELECT SUM((tout-tin)-qsize), SUM(tout-(tin-qsize)) GROUPBY srcip\n";
    let p = ok(both);
    let names: Vec<&str> = (p.queries[0].schema.columns.iter())
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["srcip", "SUM(tout-tin-qsize)", "SUM(tout-(tin-qsize))"]
    );
    for (filter, col) in [("SUM((tout-tin)-qsize)", 1), ("SUM(tout-(tin-qsize))", 2)] {
        let p = ok(&format!(
            "{both}R2 = SELECT srcip FROM R1 WHERE {filter} > 0\n"
        ));
        let Some(perfq_lang::RExpr::Binary(_, lhs, _)) = &p.queries[1].pre_filter else {
            panic!("{filter}: a comparison filter");
        };
        assert_eq!(**lhs, perfq_lang::RExpr::Input(col), "{filter}");
    }
    let e = err("R1 = SELECT SUM((tout-tin)-qsize) GROUPBY srcip\n\
         R2 = SELECT srcip FROM R1 WHERE SUM(tout-(tin-qsize)) > 0\n");
    assert!(
        e.message
            .contains("unknown function or column `SUM(tout-(tin-qsize))`"),
        "{}",
        e.message
    );
}

#[test]
fn projections_refuse_an_output_name_and_its_alias() {
    // The same rule as GROUPBY: `qin` names `qsize`, so the second column
    // could never be read by name.
    let e = err("SELECT qsize, srcip AS qin FROM T");
    assert!(
        e.message.contains("duplicate output column"),
        "{}",
        e.message
    );
}

#[test]
fn a_table_joined_with_itself() {
    // With non-key columns, both sides' qualified columns would collide.
    let e = err("R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT * FROM R1 JOIN R1 ON srcip\n");
    assert!(e.message.contains("with itself"), "{}", e.message);
    // A distinct-keys table has none, and joins with itself as before.
    ok("R1 = SELECT srcip GROUPBY srcip\nR2 = SELECT * FROM R1 JOIN R1 ON srcip\n");
}

/// The token alphabet of the hostile-text property: keywords, names,
/// numbers and durations, operators, parentheses, `.`, `,`, newlines and
/// indentation.
const TOKENS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUPBY",
    "JOIN",
    "ON",
    "AS",
    "def",
    "if",
    "elif",
    "else",
    "then",
    "and",
    "or",
    "not",
    "const",
    "true",
    "false",
    "infinity",
    "T",
    "R1",
    "R2",
    "srcip",
    "dstip",
    "qin",
    "qsize",
    "pkt_len",
    "tin",
    "tout",
    "COUNT",
    "SUM",
    "MAX",
    "max",
    "min",
    "abs",
    "f",
    "s",
    "alpha",
    "K",
    "5tuple",
    "pkt_uniq",
    "0",
    "1",
    "42",
    "2.5",
    "1e3",
    "9223372036854775807",
    "1ms",
    "20us",
    "3s",
    "+",
    "-",
    "*",
    "/",
    "%",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "(",
    ")",
    ".",
    ",",
    ":",
    "\n",
    "\n    ",
    "\n        ",
];

fn token_text(ix: &[usize]) -> String {
    ix.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" ")
}

/// `compile` returns (`Ok` or `Err`) without panicking.
fn compiles_or_errs(src: &str) -> bool {
    let src = src.to_string();
    std::panic::catch_unwind(move || compile(&src, &params())).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_token_sequences_get_an_error_not_a_panic(
        prefix in 0usize..3,
        ix in prop::collection::vec(0usize..TOKENS.len(), 1..48),
    ) {
        let head = ["", "SELECT ", "def f (s, (pkt_len)):\n    s = "][prefix];
        let src = format!("{head}{}\n", token_text(&ix));
        prop_assert!(compiles_or_errs(&src), "compile panicked on:\n{src}");
    }
}

proptest! {
    // A compile takes tens of microseconds, so 8192 cases cost a fraction
    // of a second; the rarer shapes, such as an aggregate selected three
    // times, need thousands of cases to turn up.
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn spliced_fig2_texts_get_an_error_not_a_panic(
        row in 0usize..fig2::ALL.len(),
        edits in prop::collection::vec((0u8..4, 0usize..64, 0usize..64, 0usize..TOKENS.len()), 1..6),
    ) {
        // Splice the row's words (a comma is a word of its own): insert an
        // alphabet token, repeat a run of one to three words two or three
        // times (a repeated select item, key or list), overwrite a word with
        // another of the row's words (one table or field for another), or
        // delete a word.
        let source = fig2::ALL[row].source.replace(',', " , ");
        let mut words: Vec<&str> = source.split(' ').collect();
        for (kind, at, from, tok) in edits {
            let (at, from) = (at % words.len(), from % words.len());
            match kind {
                0 => words.insert(at, TOKENS[tok]),
                1 => {
                    let run = words[at..(at + 1 + tok % 3).min(words.len())].to_vec();
                    for _ in 0..1 + tok % 2 {
                        words.splice(at..at, run.iter().copied());
                    }
                }
                2 => words[at] = words[from],
                _ if words.len() > 1 => {
                    words.remove(at);
                }
                _ => {}
            }
        }
        let src = words.join(" ");
        prop_assert!(compiles_or_errs(&src), "compile panicked on:\n{src}");
    }
}
