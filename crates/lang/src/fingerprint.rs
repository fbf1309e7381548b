//! Structural identity of resolved subplans — the front half of cross-query
//! store dedup.
//!
//! When several compiled programs are installed on one switch, some of
//! their stores are textually different but *structurally identical*: two
//! programs both maintaining `SELECT COUNT GROUPBY 5tuple` (the §4 running
//! example appears verbatim as the loss-rate query's `R1`), or the same
//! predicate spelled with different parameter tables. The multi-query
//! dataplane in `perfq-core` binds structurally-identical stores to **one**
//! physical key-value store — but only when the subplans are provably the
//! same computation.
//!
//! This module supplies the identity notion, and it is one comparison:
//! [`stream_equivalent`] / [`store_equivalent`] walk two subplans'
//! **canonical param-folded forms** with `PartialEq`. Parameter references
//! are substituted with their bound values and closed subtrees folded
//! ([`crate::bytecode::bind_params`]), so two programs that spell the same
//! predicate with different parameter tables (`Param(0)` in one, `Param(2)`
//! in the other, or a literal `6` vs a bound `TCP`) compare equal. What is
//! compared:
//!
//! * the `WHERE` predicate;
//! * the `GROUPBY` key tuple (column indices, order-sensitive: the key is
//!   positional in the store);
//! * the per-key fold body: state variable types + initial values (names
//!   are cosmetic and excluded), the param-folded update statements, and
//!   the linearity classification;
//! * the whole upstream chain, recursively. A **stream** is a query's
//!   *output record stream* (input chain + filter + operator, including a
//!   `GROUPBY`'s output layout); a **store** is what a `GROUPBY`'s
//!   key-value store *contains* (input chain + filter + key + fold, output
//!   layout excluded — two stores with different SELECT orderings still hold
//!   identical state).
//!
//! There is no hash in front of the comparison: the sharing pass runs at
//! install time over a handful of programs, and the comparison is the proof
//! a hash match would have to be followed by anyway. `perfq-core`'s sharing
//! pass additionally requires the *physical* store configurations —
//! geometry, eviction policy, hash seed — to match before two stores dedup;
//! that half of the legality rule lives with the compiled plans, not the
//! language.

use crate::bytecode::bind_params;
use crate::ir::{FoldIr, RStmt};
use crate::resolve::{QueryInput, ResolvedKind, ResolvedProgram, ResolvedQuery};
use crate::types::Value;

/// Two queries' **output streams** are the same computation: identical
/// input chains (recursively), identical param-folded filters, and
/// identical operators — including a `GROUPBY`'s output layout, since
/// downstream consumers read rows positionally.
/// Purely structural: physical store configuration (geometry/policy/seed),
/// which also shapes the emitted running values of an aggregation, must be
/// checked by the caller against the compiled plans.
#[must_use]
pub fn stream_equivalent(
    a: &ResolvedProgram,
    ai: usize,
    b: &ResolvedProgram,
    bi: usize,
) -> bool {
    let (qa, qb) = (&a.queries[ai], &b.queries[bi]);
    if !inputs_equivalent(a, qa, b, qb) || !filters_equal(a, qa, b, qb) {
        return false;
    }
    let (pa, pb) = (a.param_values(), b.param_values());
    match (&qa.kind, &qb.kind) {
        (ResolvedKind::Project(ca), ResolvedKind::Project(cb)) => {
            ca.len() == cb.len()
                && ca.iter().zip(cb).all(|(x, y)| {
                    bind_params(&x.expr, &pa) == bind_params(&y.expr, &pb)
                })
        }
        (ResolvedKind::GroupBy(ga), ResolvedKind::GroupBy(gb)) => {
            ga.key_cols == gb.key_cols
                && ga.output == gb.output
                && folds_equivalent(&ga.fold, &pa, &gb.fold, &pb)
        }
        _ => false,
    }
}

/// Two `GROUPBY` queries' **stores** hold the same contents: identical
/// input chains, filters, key tuples and fold semantics. Output layout is
/// deliberately ignored — each program formats its own results from the
/// shared `(key, state)` pairs. Returns `false` when either query is not an
/// aggregation.
#[must_use]
pub fn store_equivalent(
    a: &ResolvedProgram,
    ai: usize,
    b: &ResolvedProgram,
    bi: usize,
) -> bool {
    let (qa, qb) = (&a.queries[ai], &b.queries[bi]);
    let (ResolvedKind::GroupBy(ga), ResolvedKind::GroupBy(gb)) = (&qa.kind, &qb.kind) else {
        return false;
    };
    inputs_equivalent(a, qa, b, qb)
        && filters_equal(a, qa, b, qb)
        && ga.key_cols == gb.key_cols
        && folds_equivalent(&ga.fold, &a.param_values(), &gb.fold, &b.param_values())
}

/// Input chains match: both base, or both the same (recursively equivalent)
/// upstream stream. Joins never participate (collect-only).
fn inputs_equivalent(
    a: &ResolvedProgram,
    qa: &ResolvedQuery,
    b: &ResolvedProgram,
    qb: &ResolvedQuery,
) -> bool {
    match (&qa.input, &qb.input) {
        (QueryInput::Base, QueryInput::Base) => true,
        (QueryInput::Table(x), QueryInput::Table(y)) => stream_equivalent(a, *x, b, *y),
        _ => false,
    }
}

fn filters_equal(
    a: &ResolvedProgram,
    qa: &ResolvedQuery,
    b: &ResolvedProgram,
    qb: &ResolvedQuery,
) -> bool {
    match (&qa.pre_filter, &qb.pre_filter) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            bind_params(x, &a.param_values()) == bind_params(y, &b.param_values())
        }
        _ => false,
    }
}

/// Fold semantics match: same state variable types and initial values
/// (names are cosmetic), same param-folded update program, same per-variable
/// and whole-fold linearity classes.
fn folds_equivalent(a: &FoldIr, pa: &[Value], b: &FoldIr, pb: &[Value]) -> bool {
    a.state.len() == b.state.len()
        && a.state
            .iter()
            .zip(&b.state)
            .all(|(x, y)| x.ty == y.ty && x.init == y.init)
        && a.var_classes == b.var_classes
        && a.class == b.class
        && a.body.len() == b.body.len()
        && a.body
            .iter()
            .zip(&b.body)
            .all(|(x, y)| bound_stmts_equal(x, pa, y, pb))
}

fn bound_stmts_equal(a: &RStmt, pa: &[Value], b: &RStmt, pb: &[Value]) -> bool {
    match (a, b) {
        (RStmt::Assign(i, x), RStmt::Assign(j, y)) => {
            i == j && bind_params(x, pa) == bind_params(y, pb)
        }
        (
            RStmt::If {
                cond: ca,
                then_body: ta,
                else_body: ea,
            },
            RStmt::If {
                cond: cb,
                then_body: tb,
                else_body: eb,
            },
        ) => {
            bind_params(ca, pa) == bind_params(cb, pb)
                && ta.len() == tb.len()
                && ea.len() == eb.len()
                && ta.iter().zip(tb).all(|(x, y)| bound_stmts_equal(x, pa, y, pb))
                && ea.iter().zip(eb).all(|(x, y)| bound_stmts_equal(x, pa, y, pb))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve;
    use std::collections::HashMap;

    fn resolved(src: &str) -> ResolvedProgram {
        resolved_with(src, crate::fig2::default_params())
    }

    fn resolved_with(src: &str, params: HashMap<String, Value>) -> ResolvedProgram {
        resolve(&parse(src).unwrap(), &params).unwrap()
    }

    #[test]
    fn identical_programs_fingerprint_equal() {
        let a = resolved("SELECT COUNT GROUPBY 5tuple\n");
        let b = resolved("SELECT COUNT GROUPBY 5tuple\n");
        assert!(store_equivalent(&a, 0, &b, 0));
        assert!(stream_equivalent(&a, 0, &b, 0));
    }

    #[test]
    fn loss_rate_r1_matches_the_running_example_counter() {
        // The §4 running example appears verbatim as the loss-rate query's
        // R1 — the headline cross-program dedup opportunity.
        let counter = resolved("SELECT COUNT GROUPBY 5tuple\n");
        let loss = crate::fig2::compile(&crate::fig2::PER_FLOW_LOSS_RATE).unwrap();
        assert!(
            store_equivalent(&counter, 0, &loss, 0),
            "R1 holds the same store"
        );
        // …but R2 filters on drops: different filter, different store.
        assert!(!store_equivalent(&counter, 0, &loss, 1));
    }

    #[test]
    fn param_folding_erases_parameter_identity() {
        // `proto == TCP` with TCP bound to 6 equals a literal `proto == 6`:
        // the canonical form substitutes the parameter.
        let a = resolved("SELECT COUNT GROUPBY 5tuple WHERE proto == TCP\n");
        let b = resolved("SELECT COUNT GROUPBY 5tuple WHERE proto == 6\n");
        assert!(store_equivalent(&a, 0, &b, 0));
        assert!(stream_equivalent(&a, 0, &b, 0));
        // A different bound value is a different predicate.
        let mut params = crate::fig2::default_params();
        params.insert("TCP".into(), Value::Int(17));
        let c = resolved_with("SELECT COUNT GROUPBY 5tuple WHERE proto == TCP\n", params);
        assert!(!store_equivalent(&a, 0, &c, 0));
        assert!(!stream_equivalent(&a, 0, &c, 0));
    }

    #[test]
    fn aliases_do_not_change_store_identity_but_keys_do() {
        let a = resolved("SELECT COUNT GROUPBY srcip, dstip\n");
        let b = resolved("SELECT COUNT AS pkts GROUPBY srcip, dstip\n");
        let c = resolved("SELECT COUNT GROUPBY dstip, srcip\n");
        assert!(store_equivalent(&a, 0, &b, 0), "aliases are cosmetic");
        assert!(stream_equivalent(&a, 0, &b, 0), "…to the stream as well");
        assert!(
            !store_equivalent(&a, 0, &c, 0),
            "key order is positional store layout"
        );
    }

    #[test]
    fn fold_bodies_distinguish_stores() {
        let count = resolved("SELECT COUNT GROUPBY 5tuple\n");
        let sum = resolved("SELECT SUM(pkt_len) GROUPBY 5tuple\n");
        assert!(!store_equivalent(&count, 0, &sum, 0));
        assert!(!stream_equivalent(&count, 0, &sum, 0));
    }

    #[test]
    fn composed_chains_compare_recursively() {
        let hi = crate::fig2::compile(&crate::fig2::PER_FLOW_HIGH_LATENCY).unwrap();
        let hi2 = crate::fig2::compile(&crate::fig2::PER_FLOW_HIGH_LATENCY).unwrap();
        assert!(store_equivalent(&hi, 1, &hi2, 1), "identical chains match");
        // The same R2 shape over a *different* R1 must not match: add a
        // filter upstream and the downstream store diverges with it.
        let other = resolved(
            "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq WHERE proto == 6\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n",
        );
        assert!(!store_equivalent(&hi, 1, &other, 1));
    }
}
