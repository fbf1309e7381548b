//! Resolved intermediate representation of expressions and fold bodies.
//!
//! After name resolution every reference is positional: `Input(i)` indexes
//! the input record, `State(i)` the fold's state vector, `Param(i)` the query
//! parameter vector. The same IR is interpreted in three places: the
//! switch's stateful ALU (cache update), the merge engine (replaying logged
//! packets), and the ground-truth oracle — guaranteeing all three share one
//! semantics.

use crate::ast::{BinOp, UnaryOp};
use crate::types::{TypeError, Value, ValueType};
use std::fmt;

/// Built-in scalar functions usable inside fold bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `max(a, b, …)`
    Max,
    /// `min(a, b, …)`
    Min,
    /// `abs(a)`
    Abs,
}

impl Builtin {
    /// Look up by (lower-cased) source name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Builtin> {
        match name.to_ascii_lowercase().as_str() {
            "max" => Some(Builtin::Max),
            "min" => Some(Builtin::Min),
            "abs" => Some(Builtin::Abs),
            _ => None,
        }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Builtin::Max => write!(f, "max"),
            Builtin::Min => write!(f, "min"),
            Builtin::Abs => write!(f, "abs"),
        }
    }
}

/// A resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A literal or folded constant.
    Const(Value),
    /// Input-record column `i`.
    Input(usize),
    /// Fold state variable `i`.
    State(usize),
    /// Query parameter `i`.
    Param(usize),
    /// Unary operation.
    Unary(UnaryOp, Box<RExpr>),
    /// Binary operation.
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// Built-in scalar function call.
    Call(Builtin, Vec<RExpr>),
}

impl RExpr {
    /// Walk the expression tree, invoking `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&RExpr)) {
        f(self);
        match self {
            RExpr::Unary(_, e) => e.visit(f),
            RExpr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            RExpr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Collect the set of input columns referenced (sorted, deduplicated).
    #[must_use]
    pub fn input_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let RExpr::Input(i) = e {
                cols.push(*i);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// True if the expression references any fold state.
    #[must_use]
    pub fn uses_state(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, RExpr::State(_)) {
                found = true;
            }
        });
        found
    }
}

/// A resolved statement of a fold body.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// `state[i] = expr`
    Assign(usize, RExpr),
    /// Conditional execution.
    If {
        /// Condition.
        cond: RExpr,
        /// True branch.
        then_body: Vec<RStmt>,
        /// False branch.
        else_body: Vec<RStmt>,
    },
}

/// A fold state variable.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVar {
    /// Variable name: its output column, or `__seen_<i>` for the hidden
    /// first-packet flag of a MAX/MIN aggregate.
    pub name: String,
    /// Inferred type.
    pub ty: ValueType,
    /// Initial value on key insertion (the type's zero).
    pub init: Value,
}

/// Classification of one state variable by the linearity analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// The variable's value is a function of the most recent `k` packets
    /// only ("packet history" in the paper's footnote 4).
    Window(u32),
    /// The update is linear in state: `S' = A·S + B` with `A`, `B` functions
    /// of a bounded packet window.
    Linear,
    /// Neither — merging evicted values is impossible in general
    /// (the paper's "TCP non-monotonic" case).
    NonLinear,
}

/// Whole-fold classification — determines the backing-store merge strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldClass {
    /// Every variable is `Window`: the evicted value is correct on its own;
    /// the backing store simply overwrites (no correction needed).
    PureWindow {
        /// Maximum window depth across variables.
        window: u32,
    },
    /// Every variable is `Window` or `Linear`: mergeable with the paper's
    /// `S_corrected = S_new + ΠA·(S_backing − S_init)` scheme (generalized
    /// to a matrix for vector state, plus replay of the first `window`
    /// packets after insertion, as the Marple follow-on formalizes).
    Linear {
        /// Maximum window depth across variables (packets to log+replay).
        window: u32,
    },
    /// At least one variable is `NonLinear`: the backing store keeps one
    /// value per cache residency epoch and keys with >1 epoch are invalid.
    NonLinear,
}

impl FoldClass {
    /// True when eviction merging preserves exact results.
    #[must_use]
    pub fn is_mergeable(&self) -> bool {
        !matches!(self, FoldClass::NonLinear)
    }

    /// The paper's Fig. 2 "Linear in state?" column.
    #[must_use]
    pub fn paper_verdict(&self) -> &'static str {
        if self.is_mergeable() {
            "Yes"
        } else {
            "No"
        }
    }
}

/// A compiled fold function: the value-update program of one key-value store.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIr {
    /// State variables, in layout order.
    pub state: Vec<StateVar>,
    /// The update program, run once per matching record.
    pub body: Vec<RStmt>,
    /// Input columns the body reads (the record fields the cache must latch).
    pub used_inputs: Vec<usize>,
    /// Per-variable linearity classification.
    pub var_classes: Vec<VarClass>,
    /// Whole-fold classification.
    pub class: FoldClass,
}

impl FoldIr {
    /// Initial state vector for a fresh key.
    #[must_use]
    pub fn init_state(&self) -> Vec<Value> {
        self.state.iter().map(|v| v.init).collect()
    }

    /// Apply the fold to `state` for one input record.
    pub fn update(
        &self,
        state: &mut [Value],
        input: &[Value],
        params: &[Value],
    ) -> Result<(), TypeError> {
        exec_stmts(&self.body, state, input, params)?;
        // Keep state types stable: a branch may assign an Int expression to a
        // Float variable; normalize so downstream linear algebra sees floats.
        for (i, var) in self.state.iter().enumerate() {
            state[i] = state[i].coerce(var.ty);
        }
        Ok(())
    }

    /// Indices of `Linear`-classified variables (the mergeable vector).
    #[must_use]
    pub fn linear_vars(&self) -> Vec<usize> {
        self.var_classes
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, VarClass::Linear))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Evaluate a resolved expression.
pub fn eval(
    expr: &RExpr,
    state: &[Value],
    input: &[Value],
    params: &[Value],
) -> Result<Value, TypeError> {
    match expr {
        RExpr::Const(v) => Ok(*v),
        RExpr::Input(i) => input
            .get(*i)
            .copied()
            .ok_or_else(|| TypeError(format!("input column {i} out of range"))),
        RExpr::State(i) => state
            .get(*i)
            .copied()
            .ok_or_else(|| TypeError(format!("state variable {i} out of range"))),
        RExpr::Param(i) => params
            .get(*i)
            .copied()
            .ok_or_else(|| TypeError(format!("parameter {i} out of range"))),
        RExpr::Unary(op, e) => Value::unop(*op, eval(e, state, input, params)?),
        RExpr::Binary(op, l, r) => {
            // Short-circuit logical operators.
            match op {
                BinOp::And => {
                    let lv = eval(l, state, input, params)?;
                    if !lv.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(eval(r, state, input, params)?.truthy()));
                }
                BinOp::Or => {
                    let lv = eval(l, state, input, params)?;
                    if lv.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(eval(r, state, input, params)?.truthy()));
                }
                _ => {}
            }
            let lv = eval(l, state, input, params)?;
            let rv = eval(r, state, input, params)?;
            Value::binop(*op, lv, rv)
        }
        RExpr::Call(builtin, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, state, input, params)?);
            }
            eval_builtin(*builtin, &vals)
        }
    }
}

/// Apply a builtin to already-evaluated arguments (shared with the bytecode
/// evaluator).
pub fn eval_builtin(b: Builtin, args: &[Value]) -> Result<Value, TypeError> {
    match b {
        Builtin::Abs => {
            let [v] = args else {
                return Err(TypeError("abs takes exactly one argument".into()));
            };
            match v {
                Value::Int(x) => Ok(Value::Int(x.wrapping_abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                Value::Bool(_) => Err(TypeError("abs of a boolean".into())),
            }
        }
        Builtin::Max | Builtin::Min => {
            // Two integer arguments is the overwhelmingly common dataplane
            // shape (`max(maxseq, tcpseq)`); skip the generic scans.
            if let [Value::Int(x), Value::Int(y)] = args {
                return Ok(Value::Int(match b {
                    Builtin::Max => *x.max(y),
                    _ => *x.min(y),
                }));
            }
            if args.is_empty() {
                return Err(TypeError(format!("{b} needs at least one argument")));
            }
            let any_float = args.iter().any(|v| matches!(v, Value::Float(_)));
            if args.iter().any(|v| matches!(v, Value::Bool(_))) {
                return Err(TypeError(format!("{b} of a boolean")));
            }
            if any_float {
                let it = args.iter().map(Value::as_f64);
                let out = match b {
                    Builtin::Max => it.fold(f64::NEG_INFINITY, f64::max),
                    _ => it.fold(f64::INFINITY, f64::min),
                };
                Ok(Value::Float(out))
            } else {
                let it = args.iter().map(Value::as_i64);
                let out = match b {
                    Builtin::Max => it.max().expect("nonempty"),
                    _ => it.min().expect("nonempty"),
                };
                Ok(Value::Int(out))
            }
        }
    }
}

/// Execute a statement list against mutable state.
pub fn exec_stmts(
    stmts: &[RStmt],
    state: &mut [Value],
    input: &[Value],
    params: &[Value],
) -> Result<(), TypeError> {
    for s in stmts {
        match s {
            RStmt::Assign(idx, expr) => {
                let v = eval(expr, state, input, params)?;
                state[*idx] = v;
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if eval(cond, state, input, params)?.truthy() {
                    exec_stmts(then_body, state, input, params)?;
                } else {
                    exec_stmts(else_body, state, input, params)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_fold() -> FoldIr {
        FoldIr {
            state: vec![StateVar {
                name: "COUNT".into(),
                ty: ValueType::Int,
                init: Value::Int(0),
            }],
            body: vec![RStmt::Assign(
                0,
                RExpr::Binary(
                    BinOp::Add,
                    Box::new(RExpr::State(0)),
                    Box::new(RExpr::Const(Value::Int(1))),
                ),
            )],
            used_inputs: vec![],
            var_classes: vec![VarClass::Linear],
            class: FoldClass::Linear { window: 0 },
        }
    }

    #[test]
    fn counter_counts() {
        let fold = counter_fold();
        let mut state = fold.init_state();
        for _ in 0..5 {
            fold.update(&mut state, &[], &[]).unwrap();
        }
        assert_eq!(state[0], Value::Int(5));
    }

    #[test]
    fn conditional_update() {
        // if input[0] > 10: s += 1
        let fold = FoldIr {
            state: vec![StateVar {
                name: "n".into(),
                ty: ValueType::Int,
                init: Value::Int(0),
            }],
            body: vec![RStmt::If {
                cond: RExpr::Binary(
                    BinOp::Gt,
                    Box::new(RExpr::Input(0)),
                    Box::new(RExpr::Const(Value::Int(10))),
                ),
                then_body: vec![RStmt::Assign(
                    0,
                    RExpr::Binary(
                        BinOp::Add,
                        Box::new(RExpr::State(0)),
                        Box::new(RExpr::Const(Value::Int(1))),
                    ),
                )],
                else_body: vec![],
            }],
            used_inputs: vec![0],
            var_classes: vec![VarClass::Linear],
            class: FoldClass::Linear { window: 0 },
        };
        let mut state = fold.init_state();
        for x in [5, 15, 25, 3] {
            fold.update(&mut state, &[Value::Int(x)], &[]).unwrap();
        }
        assert_eq!(state[0], Value::Int(2));
    }

    #[test]
    fn ewma_matches_closed_form() {
        // s = (1-α)·s + α·x, α as param 0.
        let alpha = RExpr::Param(0);
        let fold = FoldIr {
            state: vec![StateVar {
                name: "s".into(),
                ty: ValueType::Float,
                init: Value::Float(0.0),
            }],
            body: vec![RStmt::Assign(
                0,
                RExpr::Binary(
                    BinOp::Add,
                    Box::new(RExpr::Binary(
                        BinOp::Mul,
                        Box::new(RExpr::Binary(
                            BinOp::Sub,
                            Box::new(RExpr::Const(Value::Float(1.0))),
                            Box::new(alpha.clone()),
                        )),
                        Box::new(RExpr::State(0)),
                    )),
                    Box::new(RExpr::Binary(
                        BinOp::Mul,
                        Box::new(alpha),
                        Box::new(RExpr::Input(0)),
                    )),
                ),
            )],
            used_inputs: vec![0],
            var_classes: vec![VarClass::Linear],
            class: FoldClass::Linear { window: 0 },
        };
        let a = 0.25f64;
        let xs = [10.0, 20.0, 30.0];
        let mut state = fold.init_state();
        let mut expect = 0.0;
        for x in xs {
            fold.update(&mut state, &[Value::Float(x)], &[Value::Float(a)])
                .unwrap();
            expect = (1.0 - a) * expect + a * x;
        }
        match state[0] {
            Value::Float(got) => assert!((got - expect).abs() < 1e-12),
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn builtins() {
        assert_eq!(
            eval_builtin(Builtin::Max, &[Value::Int(3), Value::Int(9)]).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            eval_builtin(Builtin::Min, &[Value::Float(1.5), Value::Int(2)]).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            eval_builtin(Builtin::Abs, &[Value::Int(-4)]).unwrap(),
            Value::Int(4)
        );
        assert!(eval_builtin(Builtin::Abs, &[Value::Bool(true)]).is_err());
        assert!(eval_builtin(Builtin::Max, &[]).is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // false and (bool + int) — rhs would be a type error if evaluated.
        let e = RExpr::Binary(
            BinOp::And,
            Box::new(RExpr::Const(Value::Bool(false))),
            Box::new(RExpr::Binary(
                BinOp::Add,
                Box::new(RExpr::Const(Value::Bool(true))),
                Box::new(RExpr::Const(Value::Int(1))),
            )),
        );
        assert_eq!(eval(&e, &[], &[], &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn input_columns_collection() {
        let e = RExpr::Binary(
            BinOp::Sub,
            Box::new(RExpr::Input(7)),
            Box::new(RExpr::Binary(
                BinOp::Add,
                Box::new(RExpr::Input(2)),
                Box::new(RExpr::Input(7)),
            )),
        );
        assert_eq!(e.input_columns(), vec![2, 7]);
        assert!(!e.uses_state());
    }

    #[test]
    fn state_type_normalization() {
        // Float-typed var assigned an Int expression keeps Float type.
        let fold = FoldIr {
            state: vec![StateVar {
                name: "s".into(),
                ty: ValueType::Float,
                init: Value::Float(0.0),
            }],
            body: vec![RStmt::Assign(0, RExpr::Const(Value::Int(3)))],
            used_inputs: vec![],
            var_classes: vec![VarClass::Window(1)],
            class: FoldClass::PureWindow { window: 1 },
        };
        let mut state = fold.init_state();
        fold.update(&mut state, &[], &[]).unwrap();
        assert_eq!(state[0], Value::Float(3.0));
    }
}
