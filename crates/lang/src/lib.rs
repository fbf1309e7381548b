//! # perfq-lang
//!
//! The declarative performance query language of *"Hardware-Software
//! Co-Design for Network Performance Measurement"* (HotNets 2016): a SQL-like
//! language over an abstract table of per-packet, per-queue observations,
//! with order-dependent user-defined aggregation functions.
//!
//! The pipeline is:
//!
//! ```text
//! source ──lex──▶ tokens ──parse──▶ AST ──resolve──▶ ResolvedProgram
//!                                                      │
//!                        (per GROUPBY)  FoldIr ◀───────┘
//!                                          │
//!                              linearity::analyze  →  FoldClass
//! ```
//!
//! * [`lexer`] / [`parser`] — Fig. 1's grammar, extended only where the
//!   paper's own examples demand it (indentation blocks, `5tuple`, duration
//!   literals, wrapped clauses, case-insensitive keywords).
//! * [`schema`] — the `(pkt_hdr, qid, tin, tout, qsize, pkt_path)` schema.
//! * [`resolve`] — name resolution + type checking to positional IR.
//! * [`ir`] — the fold IR shared by the switch ALU, the merge engine and the
//!   ground-truth oracle.
//! * [`linearity`] — the linear-in-state analysis of §3.2, deriving Fig. 2's
//!   "Linear in state?" column.
//! * [`fingerprint`] — structural comparison of resolved subplans (the
//!   identity notion behind cross-query execution sharing in `perfq-core`).
//! * [`fig2`] — the paper's seven example queries, embedded verbatim.
//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use perfq_lang::{compile, fig2};
//!
//! let prog = compile(
//!     "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
//!     &fig2::default_params(),
//! ).unwrap();
//! let fold = prog.queries[0].fold().unwrap();
//! assert_eq!(fold.class.paper_verdict(), "Yes"); // linear in state
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod error;
pub mod fig2;
pub mod fingerprint;
pub mod ir;
pub mod lexer;
pub mod linearity;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod schema;
pub mod token;
pub mod types;

pub use error::{LangError, LangResult};
pub use ir::{FoldClass, FoldIr, RExpr, RStmt, VarClass};
pub use resolve::{
    GroupBySpec, GroupOutput, ProjCol, QueryInput, ResolvedKind, ResolvedProgram, ResolvedQuery,
    StoreWidth,
};
pub use schema::{base_schema, Schema};
pub use types::{Value, ValueType, INFINITY_NS};

use std::collections::HashMap;

/// Parse and resolve a query program in one step.
pub fn compile(source: &str, params: &HashMap<String, Value>) -> LangResult<ResolvedProgram> {
    let program = parser::parse(source)?;
    resolve::resolve(&program, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_end_to_end() {
        let prog = compile(
            "SELECT srcip, qid FROM T WHERE tout - tin > 1ms",
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(prog.queries.len(), 1);
    }

    #[test]
    fn compile_reports_errors_with_location() {
        let err = compile("SELECT nosuch FROM T", &HashMap::new()).unwrap_err();
        assert!(err.span.is_some());
    }
}
