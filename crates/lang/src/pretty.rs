//! Pretty-printing: format a parsed [`Program`] back to query text.
//!
//! The printer emits canonical source — normalized keyword case, four-space
//! indentation, explicit `FROM T` — that re-parses to a structurally equal
//! AST. That round-trip property (checked here and by property tests) keeps
//! the printer honest and gives tools a way to display installed queries.

use crate::ast::{Expr, FoldDef, Item, Program, Query, SelectItem, Stmt, UnaryOp};
use std::fmt::Write;

/// Render a full program.
#[must_use]
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for (i, item) in p.items.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match item {
            Item::Const(name, value, _) => {
                let _ = writeln!(out, "const {name} = {}", expr(value));
            }
            Item::Fold(fd) => out.push_str(&fold(fd)),
            Item::NamedQuery(name, q, _) => {
                let _ = writeln!(out, "{name} = {}", query(q));
            }
            Item::BareQuery(q) => {
                let _ = writeln!(out, "{}", query(q));
            }
        }
    }
    out
}

/// Render a fold definition.
#[must_use]
pub fn fold(fd: &FoldDef) -> String {
    let state = if fd.state_params.len() == 1 {
        fd.state_params[0].clone()
    } else {
        format!("({})", fd.state_params.join(", "))
    };
    let mut out = format!(
        "def {} ({}, ({})):\n",
        fd.name,
        state,
        fd.packet_params.join(", ")
    );
    for s in &fd.body {
        stmt(&mut out, s, 1);
    }
    out
}

fn stmt(out: &mut String, s: &Stmt, depth: usize) {
    let pad = "    ".repeat(depth);
    match s {
        Stmt::Assign(name, value, _) => {
            let _ = writeln!(out, "{pad}{name} = {}", expr(value));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if {}:", expr(cond));
            for t in then_body {
                stmt(out, t, depth + 1);
            }
            if !else_body.is_empty() {
                let _ = writeln!(out, "{pad}else:");
                for e in else_body {
                    stmt(out, e, depth + 1);
                }
            }
        }
    }
}

/// Render a query.
#[must_use]
pub fn query(q: &Query) -> String {
    match q {
        Query::Select(sq) => {
            let mut out = format!("SELECT {}", select_list(&sq.select));
            let _ = write!(out, " FROM {}", sq.from.as_deref().unwrap_or("T"));
            if let Some(fields) = &sq.group_by {
                let names: Vec<String> = fields.iter().map(expr).collect();
                let _ = write!(out, " GROUPBY {}", names.join(", "));
            }
            if let Some(w) = &sq.where_clause {
                let _ = write!(out, " WHERE {}", expr(w));
            }
            out
        }
        Query::Join(jq) => {
            let mut out = format!(
                "SELECT {} FROM {} JOIN {} ON {}",
                select_list(&jq.select),
                jq.left,
                jq.right,
                jq.on.iter().map(expr).collect::<Vec<_>>().join(", ")
            );
            if let Some(w) = &jq.where_clause {
                let _ = write!(out, " WHERE {}", expr(w));
            }
            out
        }
    }
}

fn select_list(items: &[SelectItem]) -> String {
    items
        .iter()
        .map(|i| match i {
            SelectItem::Star => "*".to_string(),
            SelectItem::Expr { expr: e, alias } => match alias {
                Some(a) => format!("{} AS {a}", expr(e)),
                None => expr(e),
            },
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render an expression with minimal parentheses (precedence-aware).
#[must_use]
pub fn expr(e: &Expr) -> String {
    expr_prec(e, 0)
}

fn expr_prec(e: &Expr, parent: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            // Keep the decimal point so the literal re-parses as a float.
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Duration(ns) => format_duration(*ns),
        Expr::Bool(b) => b.to_string(),
        Expr::Infinity => "infinity".into(),
        Expr::Name(n, _) => n.clone(),
        Expr::Qualified(a, b, _) => format!("{a}.{b}"),
        Expr::FiveTuple(_) => "5tuple".into(),
        Expr::Call(f, args, _) => {
            let inner: Vec<String> = args.iter().map(|a| expr_prec(a, 0)).collect();
            format!("{f}({})", inner.join(", "))
        }
        Expr::Unary(UnaryOp::Neg, inner) => format!("-{}", expr_prec(inner, 6)),
        Expr::Unary(UnaryOp::Not, inner) => {
            let s = format!("not {}", expr_prec(inner, 3));
            if parent > 2 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Binary(op, l, r) => {
            let p = op.precedence();
            // Left-associative: the right child needs a strictly higher level.
            let s = format!("{} {} {}", expr_prec(l, p), op, expr_prec(r, p + 1));
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

/// Nanoseconds back to the most natural duration literal.
fn format_duration(ns: i64) -> String {
    if ns != 0 && ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns != 0 && ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns != 0 && ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strip spans so ASTs compare structurally.
    fn normalize(p: &Program) -> String {
        // Pretty output is itself a canonical form: compare by re-printing.
        program(p)
    }

    fn round_trips(src: &str) {
        let once = parse(src).unwrap_or_else(|e| panic!("{}", e));
        let printed = program(&once);
        let twice = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {}\nprinted:\n{printed}", e));
        assert_eq!(
            normalize(&once),
            normalize(&twice),
            "printed form must be a fixpoint:\n{printed}"
        );
    }

    #[test]
    fn fig2_queries_round_trip() {
        for q in crate::fig2::ALL {
            round_trips(q.source);
        }
    }

    #[test]
    fn operators_keep_precedence() {
        round_trips("SELECT srcip FROM T WHERE a + b * c == d and not e > f\n");
        round_trips("SELECT srcip FROM T WHERE (a + b) * c > d - e - f\n");
        round_trips("SELECT srcip FROM T WHERE a - (b - c) > 0\n");
    }

    #[test]
    fn left_associativity_preserved() {
        // a - b - c  ≠  a - (b - c): printing must keep the distinction.
        let p1 = parse("SELECT x FROM T WHERE a - b - c > 0").unwrap();
        let p2 = parse("SELECT x FROM T WHERE a - (b - c) > 0").unwrap();
        assert_ne!(program(&p1), program(&p2));
    }

    #[test]
    fn durations_render_naturally() {
        assert_eq!(format_duration(1_000_000), "1ms");
        assert_eq!(format_duration(3_000_000_000), "3s");
        assert_eq!(format_duration(20_000), "20us");
        assert_eq!(format_duration(17), "17ns");
        round_trips("SELECT srcip FROM T WHERE tout - tin > 2ms\n");
    }

    #[test]
    fn floats_keep_their_point() {
        round_trips("const alpha = 0.125\nSELECT srcip FROM T WHERE qsize > alpha\n");
        let p = parse("SELECT x FROM T WHERE y > 2.0").unwrap();
        assert!(program(&p).contains("2.0"), "{}", program(&p));
    }

    #[test]
    fn folds_with_else_and_nesting() {
        round_trips(
            "def f ((a, b), (x, y)):\n    if x > y:\n        a = a + 1\n    else:\n        if x == 0:\n            b = b + 1\n\nSELECT srcip, f GROUPBY srcip\n",
        );
    }

    #[test]
    fn join_and_aliases() {
        round_trips("R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT AS drops GROUPBY 5tuple WHERE tout == infinity\nSELECT R2.drops, R1.COUNT FROM R1 JOIN R2 ON 5tuple\n");
    }

    #[test]
    fn star_and_qualified() {
        round_trips("def perc ((tot, high), qin):\n    if qin > K: high = high + 1\n    tot = tot + 1\n\nR1 = SELECT qid, perc groupby qid\nR2 = SELECT * from R1 WHERE perc.high/perc.tot > 0.01\n");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::BinOp;
    use crate::parser::parse;
    use crate::token::Span;
    use proptest::prelude::*;

    /// Random arithmetic/boolean expressions over schema fields.
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0i64..1000).prop_map(Expr::Int),
            prop_oneof![
                Just("qsize"),
                Just("pkt_len"),
                Just("tin"),
                Just("tout"),
                Just("srcport")
            ]
            .prop_map(|n| Expr::Name(n.to_string(), Span::default())),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    prop_oneof![
                        Just(BinOp::Add),
                        Just(BinOp::Sub),
                        Just(BinOp::Mul),
                        Just(BinOp::Mod)
                    ]
                )
                    .prop_map(|(l, r, op)| Expr::Binary(
                        op,
                        Box::new(l),
                        Box::new(r)
                    )),
                inner
                    .clone()
                    .prop_map(|e| Expr::Unary(crate::ast::UnaryOp::Neg, Box::new(e))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Printing then parsing any expression reaches a fixpoint.
        #[test]
        fn printed_expressions_reparse(e in arb_expr()) {
            let src = format!("SELECT srcip FROM T WHERE {} > 0\n", expr(&e));
            let p1 = parse(&src).unwrap();
            let printed = program(&p1);
            let p2 = parse(&printed).unwrap();
            prop_assert_eq!(program(&p1), program(&p2), "printed:\n{}", printed);
        }
    }
}
