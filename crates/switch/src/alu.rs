//! Stateful-ALU feasibility model.
//!
//! §3.3 argues each value update fits in one clock cycle: linear-in-state
//! updates map to a fused multiply-add, others to the small combinational
//! circuits of Domino/Banzai ("Packet Transactions", SIGCOMM 2016). Real
//! stateful ALUs are tiny — a handful of adders, one multiplier, a mux tree
//! of limited depth — so not every fold the *language* accepts is realizable
//! at line rate.
//!
//! [`AluSpec::check`] audits a compiled fold against such a budget and
//! reports the resources it needs; the compiler records, per aggregation,
//! whether a fold would close timing at 1 GHz on a Banzai-like atom.

use perfq_lang::ir::{FoldIr, RExpr, RStmt};
use perfq_lang::FoldClass;
use std::fmt;

/// Resource budget of one stateful ALU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AluSpec {
    /// Maximum state variables (hardware registers) per key.
    pub max_state_vars: usize,
    /// Maximum arithmetic/compare operations in one update.
    pub max_ops: usize,
    /// Maximum depth of nested conditionals (predication mux depth).
    pub max_branch_depth: usize,
    /// Whether a multiplier is available (needed by EWMA-style folds; plain
    /// counters only need adders).
    pub has_multiplier: bool,
    /// Maximum packet-history window supported (registers latching recent
    /// packet fields).
    pub max_window: u32,
}

impl AluSpec {
    /// A Banzai-like stateful atom: pairs of state registers, a small op
    /// budget, one multiplier, depth-2 predication.
    #[must_use]
    pub fn banzai() -> Self {
        AluSpec {
            max_state_vars: 4,
            max_ops: 16,
            max_branch_depth: 2,
            has_multiplier: true,
            max_window: 2,
        }
    }

    /// Audit a fold against this budget.
    pub fn check(&self, fold: &FoldIr) -> Result<AluReport, AluViolation> {
        let usage = measure(fold);
        if usage.state_vars > self.max_state_vars {
            return Err(AluViolation::TooManyStateVars {
                needed: usage.state_vars,
                available: self.max_state_vars,
            });
        }
        if usage.ops > self.max_ops {
            return Err(AluViolation::TooManyOps {
                needed: usage.ops,
                available: self.max_ops,
            });
        }
        if usage.branch_depth > self.max_branch_depth {
            return Err(AluViolation::BranchTooDeep {
                needed: usage.branch_depth,
                available: self.max_branch_depth,
            });
        }
        if usage.uses_multiplier && !self.has_multiplier {
            return Err(AluViolation::NeedsMultiplier);
        }
        if usage.window > self.max_window {
            return Err(AluViolation::WindowTooDeep {
                needed: usage.window,
                available: self.max_window,
            });
        }
        Ok(usage)
    }
}

/// Measured resource usage of a fold (also the success report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluReport {
    /// State registers required.
    pub state_vars: usize,
    /// Arithmetic/compare/mux operations per update.
    pub ops: usize,
    /// Deepest conditional nesting.
    pub branch_depth: usize,
    /// Whether any multiply/divide appears.
    pub uses_multiplier: bool,
    /// Packet-history window required.
    pub window: u32,
}

/// A budget violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluViolation {
    /// More state registers than the ALU provides.
    TooManyStateVars {
        /// Registers the fold needs.
        needed: usize,
        /// Registers available.
        available: usize,
    },
    /// More operations than fit in a cycle.
    TooManyOps {
        /// Ops the fold needs.
        needed: usize,
        /// Ops available.
        available: usize,
    },
    /// Conditional nesting exceeds the mux tree.
    BranchTooDeep {
        /// Depth needed.
        needed: usize,
        /// Depth available.
        available: usize,
    },
    /// The fold multiplies but the ALU has no multiplier.
    NeedsMultiplier,
    /// Packet-history window exceeds the latch registers.
    WindowTooDeep {
        /// Window needed.
        needed: u32,
        /// Window available.
        available: u32,
    },
}

impl fmt::Display for AluViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AluViolation::TooManyStateVars { needed, available } => write!(
                f,
                "fold needs {needed} state registers, ALU provides {available}"
            ),
            AluViolation::TooManyOps { needed, available } => {
                write!(f, "fold needs {needed} ops/cycle, ALU provides {available}")
            }
            AluViolation::BranchTooDeep { needed, available } => write!(
                f,
                "fold nests conditionals {needed} deep, ALU muxes support {available}"
            ),
            AluViolation::NeedsMultiplier => {
                write!(f, "fold multiplies, but the ALU has no multiplier")
            }
            AluViolation::WindowTooDeep { needed, available } => write!(
                f,
                "fold needs a {needed}-packet history window, ALU latches {available}"
            ),
        }
    }
}

impl std::error::Error for AluViolation {}

/// Measure a fold's resource usage.
#[must_use]
pub fn measure(fold: &FoldIr) -> AluReport {
    let mut ops = 0usize;
    let mut uses_mul = false;
    fn expr_ops(e: &RExpr, ops: &mut usize, mul: &mut bool) {
        match e {
            RExpr::Const(_) | RExpr::Input(_) | RExpr::State(_) | RExpr::Param(_) => {}
            RExpr::Unary(_, x) => {
                *ops += 1;
                expr_ops(x, ops, mul);
            }
            RExpr::Binary(op, l, r) => {
                *ops += 1;
                if matches!(
                    op,
                    perfq_lang::ast::BinOp::Mul
                        | perfq_lang::ast::BinOp::Div
                        | perfq_lang::ast::BinOp::Mod
                ) {
                    *mul = true;
                }
                expr_ops(l, ops, mul);
                expr_ops(r, ops, mul);
            }
            RExpr::Call(_, args) => {
                *ops += 1;
                for a in args {
                    expr_ops(a, ops, mul);
                }
            }
        }
    }
    fn stmt_ops(
        stmts: &[RStmt],
        ops: &mut usize,
        mul: &mut bool,
        depth: usize,
        max_depth: &mut usize,
    ) {
        for s in stmts {
            match s {
                RStmt::Assign(_, e) => expr_ops(e, ops, mul),
                RStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    *ops += 1; // the select mux
                    expr_ops(cond, ops, mul);
                    *max_depth = (*max_depth).max(depth + 1);
                    stmt_ops(then_body, ops, mul, depth + 1, max_depth);
                    stmt_ops(else_body, ops, mul, depth + 1, max_depth);
                }
            }
        }
    }
    let mut branch_depth = 0usize;
    stmt_ops(&fold.body, &mut ops, &mut uses_mul, 0, &mut branch_depth);
    let window = match fold.class {
        FoldClass::Linear { window } | FoldClass::PureWindow { window } => window,
        FoldClass::NonLinear => 0,
    };
    AluReport {
        state_vars: fold.state.len(),
        ops,
        branch_depth,
        uses_multiplier: uses_mul,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_lang::fig2;

    fn fold_of(q: &fig2::Fig2Query) -> FoldIr {
        let prog = fig2::compile(q).unwrap();
        prog.query(q.verdict_query)
            .unwrap()
            .fold()
            .expect("verdict query aggregates")
            .clone()
    }

    #[test]
    fn all_fig2_folds_fit_a_banzai_alu() {
        let spec = AluSpec::banzai();
        for q in fig2::ALL {
            let fold = fold_of(q);
            let report = spec.check(&fold);
            assert!(
                report.is_ok(),
                "{}: {:?}",
                q.name,
                report.expect_err("checked is_ok above")
            );
        }
    }

    #[test]
    fn ewma_needs_the_multiplier() {
        let fold = fold_of(&fig2::LATENCY_EWMA);
        let report = measure(&fold);
        assert!(report.uses_multiplier);
        let no_mul = AluSpec {
            has_multiplier: false,
            ..AluSpec::banzai()
        };
        assert_eq!(no_mul.check(&fold), Err(AluViolation::NeedsMultiplier));
    }

    #[test]
    fn counter_does_not_need_multiplier() {
        let fold = fold_of(&fig2::PER_FLOW_COUNTERS);
        assert!(!measure(&fold).uses_multiplier);
    }

    #[test]
    fn out_of_seq_needs_one_packet_window() {
        let fold = fold_of(&fig2::TCP_OUT_OF_SEQUENCE);
        assert_eq!(measure(&fold).window, 1);
        let no_window = AluSpec {
            max_window: 0,
            ..AluSpec::banzai()
        };
        assert!(matches!(
            no_window.check(&fold),
            Err(AluViolation::WindowTooDeep { needed: 1, .. })
        ));
    }

    #[test]
    fn tight_op_budget_rejects() {
        let fold = fold_of(&fig2::LATENCY_EWMA);
        let tiny = AluSpec {
            max_ops: 1,
            ..AluSpec::banzai()
        };
        assert!(matches!(
            tiny.check(&fold),
            Err(AluViolation::TooManyOps { .. })
        ));
    }

    #[test]
    fn state_budget_rejects() {
        let fold = fold_of(&fig2::TCP_OUT_OF_SEQUENCE);
        let tiny = AluSpec {
            max_state_vars: 1,
            ..AluSpec::banzai()
        };
        assert!(matches!(
            tiny.check(&fold),
            Err(AluViolation::TooManyStateVars {
                needed: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn violations_display() {
        let v = AluViolation::TooManyOps {
            needed: 20,
            available: 16,
        };
        assert!(v.to_string().contains("20"));
    }
}
