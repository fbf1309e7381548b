//! Flat postfix bytecode for resolved expressions and fold bodies.
//!
//! The tree-walking [`eval`](crate::ir::eval) interpreter chases a `Box` per
//! node and recurses per sub-expression — fine for collect-time evaluation,
//! too slow for the per-record dataplane. This module compiles [`RExpr`]
//! trees and [`RStmt`] bodies once, at query-compile time, into a flat
//! instruction vector evaluated with an explicit value stack:
//!
//! * no recursion and no pointer chasing per record — one linear pass over a
//!   contiguous `Vec<Op>`;
//! * no allocation per evaluation — the caller owns a reusable stack
//!   ([`EvalStack`]) that reaches steady-state capacity after the first
//!   record;
//! * short-circuit `and`/`or` lower to conditional jumps, preserving the
//!   interpreter's semantics exactly (the right operand is *not* evaluated
//!   when the left decides).
//!
//! The interpreter in `ir.rs` remains the executable specification: the
//! ground-truth oracle keeps using it, and differential tests pin this
//! bytecode against it.

use crate::ast::{BinOp, UnaryOp};
use crate::ir::{eval_builtin, Builtin, RExpr, RStmt};
use crate::types::{TypeError, Value};

/// One instruction. Operand indices are pre-resolved positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push an inline constant.
    Const(Value),
    /// Push input-record column `i`.
    Input(u32),
    /// Push fold state variable `i`.
    State(u32),
    /// Push query parameter `i`.
    Param(u32),
    /// Pop one, apply, push.
    Unary(UnaryOp),
    /// Pop two (rhs on top), apply, push.
    Binary(BinOp),
    /// Pop `argc` arguments, apply the builtin, push.
    Call(Builtin, u32),
    /// Pop the condition; if falsy, jump to the absolute target.
    JumpIfFalse(u32),
    /// Unconditional jump to the absolute target.
    Jump(u32),
    /// Pop the left operand of `and`: if falsy, push `false` and jump to the
    /// target (skipping the right operand); otherwise fall through.
    AndShortCircuit(u32),
    /// Pop the left operand of `or`: if truthy, push `true` and jump.
    OrShortCircuit(u32),
    /// Pop a value, push its truthiness as a `Bool` (normalizes the result
    /// of a non-short-circuited `and`/`or` right operand).
    Truthy,
    /// Pop a value into state variable `i` (statement programs only).
    Store(u32),
    // -- Superinstructions -----------------------------------------------
    // The peephole pass fuses the statement shapes that dominate fold
    // bodies (guarded counters, accumulators, sequence trackers) into
    // single stack-free instructions.
    /// `state[dst] = state[src] op const`.
    FusedStateConstStore(BinOp, u32, Value, u32),
    /// `state[dst] = state[src] op input[j]`.
    FusedStateInputStore(BinOp, u32, u32, u32),
    /// `state[dst] = input[a] op input[b]`.
    FusedInputInputStore(BinOp, u32, u32, u32),
    /// `state[dst] = input[j]`.
    FusedInputStore(u32, u32),
    /// `state[dst] = const`.
    FusedConstStore(Value, u32),
    /// `if !(state[i] op input[j]) jump target` — a guard condition.
    FusedStateInputBranch(BinOp, u32, u32, u32),
    /// `state[dst] = builtin(state[i], input[j])` (2-argument call).
    FusedStateInputCallStore(Builtin, u32, u32, u32),
    /// Push `input[j] op const` (the dominant filter shape, e.g.
    /// `proto == TCP`).
    FusedPushInputConstBinary(BinOp, u32, Value),
    /// Push `input[a] op input[b]` (e.g. `tout - tin`).
    FusedPushInputInputBinary(BinOp, u32, u32),
}

/// A compiled program: expression (leaves one value) or statement body
/// (leaves the stack empty, mutates state).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    ops: Vec<Op>,
    /// Stack slots the evaluation needs (reserved up front by the stack).
    max_stack: usize,
}

/// A reusable evaluation stack. One per execution context; cleared (not
/// shrunk) between evaluations so the hot path never allocates after the
/// first record.
#[derive(Debug, Clone, Default)]
pub struct EvalStack(Vec<Value>);

impl EvalStack {
    /// New empty stack.
    #[must_use]
    pub fn new() -> Self {
        EvalStack(Vec::new())
    }
}

/// Read (and, for statement programs, write) access to fold state during a
/// program run. Monomorphized so the dispatch loop pays nothing for the
/// abstraction.
trait StateAccess {
    fn load(&self, i: u32) -> Result<Value, TypeError>;
    fn store(&mut self, i: u32, v: Value) -> Result<(), TypeError>;
}

impl StateAccess for &[Value] {
    #[inline]
    fn load(&self, i: u32) -> Result<Value, TypeError> {
        fetch(self, i, "state variable")
    }
    fn store(&mut self, i: u32, _v: Value) -> Result<(), TypeError> {
        Err(TypeError(format!(
            "store to state {i} in an expression context"
        )))
    }
}

impl StateAccess for &mut [Value] {
    #[inline]
    fn load(&self, i: u32) -> Result<Value, TypeError> {
        fetch(self, i, "state variable")
    }
    #[inline]
    fn store(&mut self, i: u32, v: Value) -> Result<(), TypeError> {
        *self
            .get_mut(i as usize)
            .ok_or_else(|| TypeError(format!("state variable {i} out of range")))? = v;
        Ok(())
    }
}

impl Program {
    /// The instruction stream (for audits and tests).
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Evaluate an expression program to its value.
    pub fn eval(
        &self,
        stack: &mut EvalStack,
        state: &[Value],
        input: &[Value],
        params: &[Value],
    ) -> Result<Value, TypeError> {
        self.run(stack, state, input, params)?;
        debug_assert_eq!(stack.0.len(), 1, "expression leaves exactly one value");
        stack
            .0
            .pop()
            .ok_or_else(|| TypeError("expression left an empty stack".into()))
    }

    /// Execute a statement program against mutable state.
    pub fn exec(
        &self,
        stack: &mut EvalStack,
        state: &mut [Value],
        input: &[Value],
        params: &[Value],
    ) -> Result<(), TypeError> {
        self.run(stack, state, input, params)
    }

    /// Core dispatch loop.
    fn run<S: StateAccess>(
        &self,
        stack: &mut EvalStack,
        mut state: S,
        input: &[Value],
        params: &[Value],
    ) -> Result<(), TypeError> {
        let stack = &mut stack.0;
        stack.clear();
        stack.reserve(self.max_stack);
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match self.ops[pc] {
                Op::Const(v) => stack.push(v),
                Op::Input(i) => stack.push(fetch(input, i, "input column")?),
                Op::State(i) => stack.push(state.load(i)?),
                Op::Param(i) => stack.push(fetch(params, i, "parameter")?),
                Op::Unary(op) => {
                    let v = pop(stack)?;
                    stack.push(Value::unop(op, v)?);
                }
                Op::Binary(op) => {
                    let r = pop(stack)?;
                    let l = pop(stack)?;
                    stack.push(Value::binop(op, l, r)?);
                }
                Op::Call(b, argc) => {
                    let argc = argc as usize;
                    if stack.len() < argc {
                        return Err(TypeError("stack underflow in call".into()));
                    }
                    let at = stack.len() - argc;
                    let v = eval_builtin(b, &stack[at..])?;
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::JumpIfFalse(target) => {
                    if !pop(stack)?.truthy() {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump(target) => {
                    pc = target as usize;
                    continue;
                }
                Op::AndShortCircuit(target) => {
                    if !pop(stack)?.truthy() {
                        stack.push(Value::Bool(false));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::OrShortCircuit(target) => {
                    if pop(stack)?.truthy() {
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Truthy => {
                    let v = pop(stack)?;
                    stack.push(Value::Bool(v.truthy()));
                }
                Op::Store(i) => {
                    let v = pop(stack)?;
                    state.store(i, v)?;
                }
                Op::FusedStateConstStore(op, src, v, dst) => {
                    let l = state.load(src)?;
                    state.store(dst, Value::binop(op, l, v)?)?;
                }
                Op::FusedStateInputStore(op, src, j, dst) => {
                    let l = state.load(src)?;
                    let r = fetch(input, j, "input column")?;
                    state.store(dst, Value::binop(op, l, r)?)?;
                }
                Op::FusedInputInputStore(op, a, b, dst) => {
                    let l = fetch(input, a, "input column")?;
                    let r = fetch(input, b, "input column")?;
                    state.store(dst, Value::binop(op, l, r)?)?;
                }
                Op::FusedInputStore(j, dst) => {
                    let v = fetch(input, j, "input column")?;
                    state.store(dst, v)?;
                }
                Op::FusedConstStore(v, dst) => {
                    state.store(dst, v)?;
                }
                Op::FusedStateInputBranch(op, i, j, target) => {
                    let l = state.load(i)?;
                    let r = fetch(input, j, "input column")?;
                    if !Value::binop(op, l, r)?.truthy() {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::FusedStateInputCallStore(b, i, j, dst) => {
                    let args = [state.load(i)?, fetch(input, j, "input column")?];
                    state.store(dst, eval_builtin(b, &args)?)?;
                }
                Op::FusedPushInputConstBinary(op, j, v) => {
                    let l = fetch(input, j, "input column")?;
                    stack.push(Value::binop(op, l, v)?);
                }
                Op::FusedPushInputInputBinary(op, a, b) => {
                    let l = fetch(input, a, "input column")?;
                    let r = fetch(input, b, "input column")?;
                    stack.push(Value::binop(op, l, r)?);
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

#[inline]
fn fetch(slice: &[Value], i: u32, what: &str) -> Result<Value, TypeError> {
    slice
        .get(i as usize)
        .copied()
        .ok_or_else(|| TypeError(format!("{what} {i} out of range")))
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Result<Value, TypeError> {
    stack
        .pop()
        .ok_or_else(|| TypeError("stack underflow".into()))
}

/// Compile one expression with parameter values bound: `Param(i)` becomes a
/// constant and constant subtrees fold, which both shortens programs and
/// exposes more superinstruction fusions.
#[must_use]
pub fn compile_expr(expr: &RExpr, params: &[Value]) -> Program {
    let mut c = Compiler::default();
    c.expr(&bind_params(expr, params));
    c.finish()
}

/// Compile a statement body (fold update program) with parameter values
/// bound, as [`compile_expr`] does.
#[must_use]
pub fn compile_stmts(stmts: &[RStmt], params: &[Value]) -> Program {
    let mut c = Compiler::default();
    c.stmts(
        &stmts
            .iter()
            .map(|s| bind_stmt(s, params))
            .collect::<Vec<_>>(),
    );
    c.finish()
}

/// Substitute bound parameters and fold constant subtrees. All expression
/// operators are pure, so evaluating a closed subtree at compile time is
/// exactly what the interpreter would do at run time — except that a
/// subtree whose evaluation *errors* (e.g. a type error guarded by a
/// short-circuit) is left in place for the runtime to handle.
fn bind_params(expr: &RExpr, params: &[Value]) -> RExpr {
    let e = match expr {
        RExpr::Param(i) => match params.get(*i) {
            Some(v) => RExpr::Const(*v),
            None => expr.clone(),
        },
        RExpr::Unary(op, inner) => RExpr::Unary(*op, Box::new(bind_params(inner, params))),
        RExpr::Binary(op, l, r) => RExpr::Binary(
            *op,
            Box::new(bind_params(l, params)),
            Box::new(bind_params(r, params)),
        ),
        RExpr::Call(b, args) => {
            RExpr::Call(*b, args.iter().map(|a| bind_params(a, params)).collect())
        }
        RExpr::Const(_) | RExpr::Input(_) | RExpr::State(_) => expr.clone(),
    };
    fold_if_closed(e)
}

fn bind_stmt(stmt: &RStmt, params: &[Value]) -> RStmt {
    match stmt {
        RStmt::Assign(idx, e) => RStmt::Assign(*idx, bind_params(e, params)),
        RStmt::If {
            cond,
            then_body,
            else_body,
        } => RStmt::If {
            cond: bind_params(cond, params),
            then_body: then_body.iter().map(|s| bind_stmt(s, params)).collect(),
            else_body: else_body.iter().map(|s| bind_stmt(s, params)).collect(),
        },
    }
}

fn fold_if_closed(e: RExpr) -> RExpr {
    fn is_closed(e: &RExpr) -> bool {
        let mut closed = true;
        e.visit(&mut |n| {
            if matches!(n, RExpr::Input(_) | RExpr::State(_) | RExpr::Param(_)) {
                closed = false;
            }
        });
        closed
    }
    if matches!(e, RExpr::Const(_)) || !is_closed(&e) {
        return e;
    }
    match crate::ir::eval(&e, &[], &[], &[]) {
        Ok(v) => RExpr::Const(v),
        Err(_) => e,
    }
}

/// Fuse common instruction windows into superinstructions, remapping jump
/// targets. A window is only fused when no jump lands inside it.
fn peephole(ops: Vec<Op>) -> Vec<Op> {
    fn jump_target(op: &Op) -> Option<u32> {
        match op {
            Op::JumpIfFalse(t)
            | Op::Jump(t)
            | Op::AndShortCircuit(t)
            | Op::OrShortCircuit(t)
            | Op::FusedStateInputBranch(_, _, _, t) => Some(*t),
            _ => None,
        }
    }
    let mut is_target = vec![false; ops.len() + 1];
    for op in &ops {
        if let Some(t) = jump_target(op) {
            is_target[t as usize] = true;
        }
    }
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    let mut map = vec![0u32; ops.len() + 1];
    let mut i = 0;
    while i < ops.len() {
        let here = out.len() as u32;
        let fused = try_fuse(&ops[i..], &is_target[i..]);
        let len = match fused {
            Some((op, len)) => {
                out.push(op);
                len
            }
            None => {
                out.push(ops[i]);
                1
            }
        };
        for slot in &mut map[i..i + len] {
            *slot = here;
        }
        i += len;
    }
    map[ops.len()] = out.len() as u32;
    for op in &mut out {
        match op {
            Op::JumpIfFalse(t)
            | Op::Jump(t)
            | Op::AndShortCircuit(t)
            | Op::OrShortCircuit(t)
            | Op::FusedStateInputBranch(_, _, _, t) => *t = map[*t as usize],
            _ => {}
        }
    }
    out
}

/// Try to fuse the window starting at `ops[0]`; `blocked[1..len]` must all
/// be false (no jump lands mid-window). Returns the fused op and the window
/// length.
fn try_fuse(ops: &[Op], blocked: &[bool]) -> Option<(Op, usize)> {
    let clear = |len: usize| blocked[1..len].iter().all(|b| !b);
    match ops {
        [Op::State(i), Op::Const(v), Op::Binary(op), Op::Store(d), ..] if clear(4) => {
            Some((Op::FusedStateConstStore(*op, *i, *v, *d), 4))
        }
        [Op::State(i), Op::Input(j), Op::Binary(op), Op::Store(d), ..] if clear(4) => {
            Some((Op::FusedStateInputStore(*op, *i, *j, *d), 4))
        }
        [Op::Input(a), Op::Input(b), Op::Binary(op), Op::Store(d), ..] if clear(4) => {
            Some((Op::FusedInputInputStore(*op, *a, *b, *d), 4))
        }
        [Op::State(i), Op::Input(j), Op::Call(b, 2), Op::Store(d), ..] if clear(4) => {
            Some((Op::FusedStateInputCallStore(*b, *i, *j, *d), 4))
        }
        [Op::State(i), Op::Input(j), Op::Binary(op), Op::JumpIfFalse(t), ..]
            if clear(4) && is_comparison(*op) =>
        {
            Some((Op::FusedStateInputBranch(*op, *i, *j, *t), 4))
        }
        [Op::Input(j), Op::Const(v), Op::Binary(op), ..] if clear(3) => {
            Some((Op::FusedPushInputConstBinary(*op, *j, *v), 3))
        }
        [Op::Input(a), Op::Input(b), Op::Binary(op), ..] if clear(3) => {
            Some((Op::FusedPushInputInputBinary(*op, *a, *b), 3))
        }
        [Op::Input(j), Op::Store(d), ..] if clear(2) => Some((Op::FusedInputStore(*j, *d), 2)),
        [Op::Const(v), Op::Store(d), ..] if clear(2) => Some((Op::FusedConstStore(*v, *d), 2)),
        _ => None,
    }
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

#[derive(Default)]
struct Compiler {
    ops: Vec<Op>,
    depth: usize,
    max_depth: usize,
}

impl Compiler {
    fn push_op(&mut self, op: Op, net: isize) {
        self.ops.push(op);
        self.depth = (self.depth as isize + net).max(0) as usize;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::JumpIfFalse(t) | Op::Jump(t) | Op::AndShortCircuit(t) | Op::OrShortCircuit(t) => {
                *t = target
            }
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn expr(&mut self, e: &RExpr) {
        match e {
            RExpr::Const(v) => self.push_op(Op::Const(*v), 1),
            RExpr::Input(i) => self.push_op(Op::Input(*i as u32), 1),
            RExpr::State(i) => self.push_op(Op::State(*i as u32), 1),
            RExpr::Param(i) => self.push_op(Op::Param(*i as u32), 1),
            RExpr::Unary(op, inner) => {
                self.expr(inner);
                self.push_op(Op::Unary(*op), 0);
            }
            RExpr::Binary(BinOp::And, l, r) => {
                self.expr(l);
                let guard = self.ops.len();
                // The guard pops the left value; the jump path re-pushes one,
                // so fall-through accounting is -1 (the re-push is covered by
                // the right operand's own +1 on the other path).
                self.push_op(Op::AndShortCircuit(0), -1);
                self.expr(r);
                self.push_op(Op::Truthy, 0);
                let end = self.here();
                self.patch(guard, end);
            }
            RExpr::Binary(BinOp::Or, l, r) => {
                self.expr(l);
                let guard = self.ops.len();
                self.push_op(Op::OrShortCircuit(0), -1);
                self.expr(r);
                self.push_op(Op::Truthy, 0);
                let end = self.here();
                self.patch(guard, end);
            }
            RExpr::Binary(op, l, r) => {
                self.expr(l);
                self.expr(r);
                self.push_op(Op::Binary(*op), -1);
            }
            RExpr::Call(b, args) => {
                for a in args {
                    self.expr(a);
                }
                self.push_op(Op::Call(*b, args.len() as u32), 1 - args.len() as isize);
            }
        }
    }

    fn stmts(&mut self, stmts: &[RStmt]) {
        for s in stmts {
            match s {
                RStmt::Assign(idx, e) => {
                    self.expr(e);
                    self.push_op(Op::Store(*idx as u32), -1);
                }
                RStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.expr(cond);
                    let to_else = self.ops.len();
                    self.push_op(Op::JumpIfFalse(0), -1);
                    self.stmts(then_body);
                    if else_body.is_empty() {
                        let end = self.here();
                        self.patch(to_else, end);
                    } else {
                        let to_end = self.ops.len();
                        self.push_op(Op::Jump(0), 0);
                        let else_at = self.here();
                        self.patch(to_else, else_at);
                        self.stmts(else_body);
                        let end = self.here();
                        self.patch(to_end, end);
                    }
                }
            }
        }
    }

    fn finish(self) -> Program {
        Program {
            ops: peephole(self.ops),
            // One extra slot covers the short-circuit jump paths, which
            // re-push a Bool after their pop was already accounted.
            max_stack: self.max_depth + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::eval;

    fn b(op: BinOp, l: RExpr, r: RExpr) -> RExpr {
        RExpr::Binary(op, Box::new(l), Box::new(r))
    }

    /// The compiler without parameter binding or constant folding, for tests
    /// whose subject is the unfolded program (`Param` loads, short-circuit
    /// jumps over constant operands).
    fn unfolded(e: &RExpr) -> Program {
        let mut c = Compiler::default();
        c.expr(e);
        c.finish()
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        // (input[0] + 3) * param[0] - state[1]
        let e = b(
            BinOp::Sub,
            b(
                BinOp::Mul,
                b(BinOp::Add, RExpr::Input(0), RExpr::Const(Value::Int(3))),
                RExpr::Param(0),
            ),
            RExpr::State(1),
        );
        let p = unfolded(&e);
        let mut stack = EvalStack::new();
        let state = [Value::Int(0), Value::Int(7)];
        let input = [Value::Int(10)];
        let params = [Value::Int(2)];
        let got = p.eval(&mut stack, &state, &input, &params).unwrap();
        let want = eval(&e, &state, &input, &params).unwrap();
        assert_eq!(got, want);
        assert_eq!(got, Value::Int(19));
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // false and (true + 1) — rhs is a type error if evaluated.
        let e = b(
            BinOp::And,
            RExpr::Const(Value::Bool(false)),
            b(
                BinOp::Add,
                RExpr::Const(Value::Bool(true)),
                RExpr::Const(Value::Int(1)),
            ),
        );
        let p = unfolded(&e);
        let mut stack = EvalStack::new();
        assert_eq!(
            p.eval(&mut stack, &[], &[], &[]).unwrap(),
            Value::Bool(false)
        );
        // or mirrors it.
        let e = b(
            BinOp::Or,
            RExpr::Const(Value::Bool(true)),
            b(
                BinOp::Add,
                RExpr::Const(Value::Bool(true)),
                RExpr::Const(Value::Int(1)),
            ),
        );
        let p = unfolded(&e);
        assert_eq!(
            p.eval(&mut stack, &[], &[], &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn non_short_circuit_rhs_normalizes_to_bool() {
        // true and 7 → Bool(true); false or 0 → Bool(false).
        let e = b(
            BinOp::And,
            RExpr::Const(Value::Bool(true)),
            RExpr::Const(Value::Int(7)),
        );
        let mut stack = EvalStack::new();
        assert_eq!(
            unfolded(&e).eval(&mut stack, &[], &[], &[]).unwrap(),
            Value::Bool(true)
        );
        let e = b(
            BinOp::Or,
            RExpr::Const(Value::Bool(false)),
            RExpr::Const(Value::Int(0)),
        );
        assert_eq!(
            unfolded(&e).eval(&mut stack, &[], &[], &[]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn builtin_calls() {
        let e = RExpr::Call(
            Builtin::Max,
            vec![
                RExpr::Input(0),
                RExpr::Input(1),
                RExpr::Const(Value::Int(5)),
            ],
        );
        let p = compile_expr(&e, &[]);
        let mut stack = EvalStack::new();
        let got = p
            .eval(&mut stack, &[], &[Value::Int(3), Value::Int(9)], &[])
            .unwrap();
        assert_eq!(got, Value::Int(9));
    }

    #[test]
    fn stmt_program_runs_conditionals() {
        // if input[0] > 10 { s0 = s0 + 1 } else { s1 = s1 + input[0] }
        let body = vec![RStmt::If {
            cond: b(BinOp::Gt, RExpr::Input(0), RExpr::Const(Value::Int(10))),
            then_body: vec![RStmt::Assign(
                0,
                b(BinOp::Add, RExpr::State(0), RExpr::Const(Value::Int(1))),
            )],
            else_body: vec![RStmt::Assign(
                1,
                b(BinOp::Add, RExpr::State(1), RExpr::Input(0)),
            )],
        }];
        let p = compile_stmts(&body, &[]);
        let mut stack = EvalStack::new();
        let mut state = [Value::Int(0), Value::Int(0)];
        for x in [5i64, 15, 25, 3] {
            p.exec(&mut stack, &mut state, &[Value::Int(x)], &[])
                .unwrap();
        }
        assert_eq!(state, [Value::Int(2), Value::Int(8)]);
    }

    #[test]
    fn store_in_expression_context_is_rejected() {
        let p = compile_stmts(&[RStmt::Assign(0, RExpr::Const(Value::Int(1)))], &[]);
        let mut stack = EvalStack::new();
        // eval() routes state as a shared slice: Store must error, not panic.
        assert!(p.eval(&mut stack, &[Value::Int(0)], &[], &[]).is_err());
    }

    #[test]
    fn stack_never_exceeds_reported_max() {
        let e = b(
            BinOp::Add,
            b(BinOp::Mul, RExpr::Input(0), RExpr::Input(1)),
            b(
                BinOp::Mul,
                b(BinOp::Add, RExpr::Input(0), RExpr::Input(1)),
                RExpr::Input(0),
            ),
        );
        let p = compile_expr(&e, &[]);
        assert!(p.max_stack >= 3);
    }
}
