//! The flat query execution plan.
//!
//! The runtime used to walk the query DAG recursively per record, cloning
//! the root list and each node's child vector along the way. Queries are
//! resolved in definition order and can only read tables defined *earlier*,
//! so the dataflow DAG is already topologically sorted by query index: the
//! whole recursion flattens into a single indexed pass. [`ExecPlan`]
//! precomputes, per query:
//!
//! * where its input row comes from ([`RowSource`]: the base table or an
//!   upstream node's output slot);
//! * whether it participates in streaming at all (collect-only queries —
//!   joins and their descendants — are skipped by the dataplane);
//! * its filter and projection expressions compiled to [`bytecode`]
//!   programs;
//! * for GROUPBYs, the key columns and output layout.
//!
//! Per chunk of records the runtime then runs `for node in plan` with no
//! recursion, no clones, and no allocation: each node writes its output
//! rows into a reusable per-node lane buffer that downstream nodes read by
//! index.

use perfq_lang::ast::BinOp;
use perfq_lang::bytecode::{self, EvalStack, Op, Program};
use perfq_lang::resolve::GroupOutput;
use perfq_lang::{QueryInput, ResolvedKind, ResolvedProgram, Value};

/// Maximum lanes per survivor-mask word in the vectorized batch path: one
/// `u64` holds a whole chunk's filter verdicts (`Runtime::process_lanes`).
pub(crate) const LANES: usize = 64;

/// Records per vectorized chunk. At most [`LANES`] (one mask word); held
/// below it so a chunk's lane rows (~16 × the 30-column base row ≈ 8 KB)
/// stay L1-resident across the materialize → filter → per-node store
/// sweeps — at 64 lanes the random store probes evict the early rows
/// before their node sweep reads them back, measurably costing the
/// fold-heavy queries their batching win.
pub(crate) const CHUNK: usize = 16;

/// The full survivor mask for a chunk of `n ≤ 64` lanes (bit `i` = record
/// `i` of the chunk).
#[inline]
pub(crate) fn lane_mask(n: usize) -> u64 {
    debug_assert!(n <= LANES, "a chunk is at most one mask word");
    if n == LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Where a plan node's input row comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowSource {
    /// The base packet table (this node is a root).
    Base,
    /// The output slot of an upstream node (always a smaller index).
    Node(usize),
}

/// A compiled `WHERE` predicate. The single-comparison shape that dominates
/// the paper's queries (`proto == TCP`, `tout == infinity`) gets a direct
/// evaluation path that never touches the stack machine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Filter {
    /// `input[col] op const`.
    InputConst(BinOp, usize, Value),
    /// Anything else, as a bytecode program.
    General(Program),
}

impl Filter {
    fn from_program(p: Program) -> Filter {
        if let [Op::FusedPushInputConstBinary(op, col, v)] = p.ops() {
            Filter::InputConst(*op, *col as usize, *v)
        } else {
            Filter::General(p)
        }
    }

    /// Evaluate against an input row.
    pub fn pass(&self, stack: &mut EvalStack, input: &[Value], params: &[Value]) -> bool {
        match self {
            Filter::InputConst(op, col, v) => Value::binop(*op, input[*col], *v)
                .expect("type-checked filter cannot fail")
                .truthy(),
            Filter::General(p) => p
                .eval(stack, &[], input, params)
                .expect("type-checked filter cannot fail")
                .truthy(),
        }
    }
}

/// What a node computes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeKind {
    /// Projection: evaluate each column program into the output row.
    Project {
        /// Compiled column expressions.
        cols: Vec<Program>,
    },
    /// Aggregation: build the group key, update the store, emit key/state.
    GroupBy {
        /// Input columns forming the key, in declaration order.
        key_cols: Vec<usize>,
        /// Output layout (key positions and state variables).
        output: Vec<GroupOutput>,
    },
}

/// One query, compiled for streaming execution.
#[derive(Debug, Clone)]
pub(crate) struct NodePlan {
    /// Input row source.
    pub source: RowSource,
    /// False for collect-only queries (joins and their descendants): the
    /// dataplane skips them entirely.
    pub active: bool,
    /// True when some consumer reads this node's per-record output row — a
    /// downstream streaming query, or the capture buffer of a base
    /// projection. When false the row is never materialized (dead-output
    /// elimination); stores still update.
    pub emits: bool,
    /// Compiled `WHERE` predicate.
    pub filter: Option<Filter>,
    /// The node body.
    pub kind: NodeKind,
}

/// The flattened plan: one node per query, in topological (definition)
/// order.
#[derive(Debug, Clone)]
pub(crate) struct ExecPlan {
    pub nodes: Vec<NodePlan>,
    /// Bitmap of base-schema columns any active base-rooted query reads
    /// (filters, projections, group keys, fold inputs). The runtime
    /// materializes only these columns per record.
    pub base_cols: u64,
}

impl ExecPlan {
    /// Flatten a resolved program.
    pub fn build(program: &ResolvedProgram) -> ExecPlan {
        let params = program.param_values();
        let mut nodes: Vec<NodePlan> = Vec::with_capacity(program.queries.len());
        for (idx, q) in program.queries.iter().enumerate() {
            let (source, active) = match &q.input {
                QueryInput::Base => (RowSource::Base, !q.collect_only),
                QueryInput::Table(src) => {
                    assert!(*src < idx, "resolved queries reference earlier tables only");
                    (RowSource::Node(*src), !q.collect_only && nodes[*src].active)
                }
                // Joins run at collect time; give them a harmless source.
                QueryInput::Join { .. } => (RowSource::Base, false),
            };
            let filter = if active {
                q.pre_filter
                    .as_ref()
                    .map(|f| Filter::from_program(bytecode::compile_expr(f, &params)))
            } else {
                None
            };
            let kind = match &q.kind {
                ResolvedKind::Project(cols) => NodeKind::Project {
                    cols: cols
                        .iter()
                        .map(|c| bytecode::compile_expr(&c.expr, &params))
                        .collect(),
                },
                ResolvedKind::GroupBy(g) => NodeKind::GroupBy {
                    key_cols: g.key_cols.clone(),
                    output: g.output.clone(),
                },
            };
            nodes.push(NodePlan {
                source,
                active,
                // Filled in below once all consumers are known.
                emits: false,
                filter,
                kind,
            });
        }
        // A node emits when a later active node streams from it, or when it
        // captures rows (base projections). A projection that emits nothing
        // does nothing at all per record (its collect-time table is rebuilt
        // from the source table), so it drops out of the streaming pass —
        // GROUPBYs stay active regardless, their store updates are the
        // result. Walking in reverse order lets deactivation cascade up
        // projection chains: consumers are finalized before their producer's
        // emits is computed.
        for idx in (0..nodes.len()).rev() {
            let q = &program.queries[idx];
            let captures = matches!(
                (&q.kind, &q.input),
                (ResolvedKind::Project(_), QueryInput::Base)
            );
            let consumed = nodes
                .iter()
                .skip(idx + 1)
                .any(|n| n.active && n.source == RowSource::Node(idx));
            nodes[idx].emits = nodes[idx].active && (captures || consumed);
            if !nodes[idx].emits && matches!(nodes[idx].kind, NodeKind::Project { .. }) {
                nodes[idx].active = false;
            }
        }
        let base_cols = base_cols_of(&nodes, program);
        ExecPlan { nodes, base_cols }
    }

    /// Recompute the pruned base-column mask after a node leaves or rejoins
    /// the streaming pass (`Runtime::set_streaming`: a deduplicated
    /// aggregation's columns must stop charging this program's
    /// materialization mask, and a promoted one's charge it again).
    pub fn recompute_base_cols(&mut self, program: &ResolvedProgram) {
        self.base_cols = base_cols_of(&self.nodes, program);
    }
}

/// Which base columns does the streaming pass actually read?
fn base_cols_of(nodes: &[NodePlan], program: &ResolvedProgram) -> u64 {
    let mut base_cols = 0u64;
    let mut need = |col: usize| base_cols |= 1u64 << col;
    for (idx, q) in program.queries.iter().enumerate() {
        if !nodes[idx].active || nodes[idx].source != RowSource::Base {
            continue;
        }
        if let Some(f) = &q.pre_filter {
            for c in f.input_columns() {
                need(c);
            }
        }
        match &q.kind {
            ResolvedKind::Project(cols) => {
                for c in cols {
                    for i in c.expr.input_columns() {
                        need(i);
                    }
                }
            }
            ResolvedKind::GroupBy(g) => {
                for c in &g.key_cols {
                    need(*c);
                }
                for c in &g.fold.used_inputs {
                    need(*c);
                }
            }
        }
    }
    base_cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_lang::{compile as lang_compile, fig2};

    fn plan(src: &str) -> ExecPlan {
        ExecPlan::build(&lang_compile(src, &fig2::default_params()).unwrap())
    }

    #[test]
    fn base_queries_are_active_roots() {
        let p = plan("SELECT COUNT GROUPBY srcip");
        assert_eq!(p.nodes.len(), 1);
        assert!(p.nodes[0].active);
        assert_eq!(p.nodes[0].source, RowSource::Base);
        assert!(matches!(p.nodes[0].kind, NodeKind::GroupBy { .. }));
    }

    #[test]
    fn composition_chains_node_sources() {
        let p = plan(
            "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n",
        );
        assert!(p.nodes[1].active);
        assert_eq!(p.nodes[1].source, RowSource::Node(0));
        assert!(p.nodes[1].filter.is_some());
    }

    #[test]
    fn dead_projection_chains_cascade_out_of_the_streaming_pass() {
        // R2 streams from R1 but nothing consumes R2 (its table is rebuilt
        // at collect time): R2 deactivates, and R1 must then stop emitting.
        let p = plan("R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT FROM R1\n");
        assert!(
            !p.nodes[1].active,
            "unconsumed projection leaves the dataplane"
        );
        assert!(p.nodes[0].active, "groupby still updates its store");
        assert!(
            !p.nodes[0].emits,
            "producer of a dead projection must not materialize rows"
        );
    }

    #[test]
    fn joins_and_descendants_are_collect_only() {
        let p = plan(
            "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n",
        );
        assert!(p.nodes[0].active && p.nodes[1].active);
        assert!(!p.nodes[2].active, "join is collect-time");
        assert!(p.nodes[2].filter.is_none());
    }
}
