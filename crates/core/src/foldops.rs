//! Fold-backed value operations for the split key-value store.
//!
//! This is where the paper's merge theory (§3.2) becomes executable for
//! *arbitrary* compiled folds:
//!
//! * **Linear-in-state folds** (`S' = A·S + B`). The cache value carries
//!   auxiliary state: the running coefficient product `Π A` (a k×k matrix
//!   over the linear variables) accumulated since the key's (re)insertion,
//!   plus — for folds whose `A`/`B` read a `w`-packet history window — a log
//!   of the first `w` input rows and a state snapshot taken after them. The
//!   merge then computes
//!
//!   ```text
//!   S_true_after_w = replay(logged rows, from backing value)
//!   S_corrected    = S_evicted + ΠA · (S_true_after_w − S_snapshot)
//!   ```
//!
//!   which reduces to the paper's EWMA formula
//!   `s_corrected = s_new + (1−α)^N (s_backing − s_0)` when k = 1 and w = 0.
//!
//! * **Pure-window folds** — the evicted value alone is correct; overwrite.
//! * **Non-linear folds** — per-epoch values, invalid on re-eviction.
//!
//! A linear fold merges one of **three** ways, chosen structurally in
//! [`FoldOps::new`] (the first that fits wins):
//!
//! 1. **Constant-A kernel** (`ConstAKernel`) — a windowless fold whose k
//!    statements each update their own variable as `s_i ← [c_i·]s_i [± B_i]`
//!    with a constant `c_i` (EWMA, `COUNT, SUM(…)`): closed-form update,
//!    `A = diag(a_i)`, and the merge needs only the packet count,
//!    `ΠA = diag(a_iⁿ)`, kept inline in [`FoldState::packets`].
//! 2. **Additive** — every linear variable has `A = I` but the body is not
//!    kernel-shaped (guarded counters): `ΠA` stays the identity, the
//!    correction is `standing − init`, and windowless folds carry no aux
//!    box at all.
//! 3. **General** — everything else: the per-packet `A` matrix is extracted
//!    numerically (with the window variables pinned at their actual values
//!    the update restricted to the linear variables is affine, so
//!    evaluating the body at the zero vector and at each basis vector
//!    yields `B` and the columns of `A`) and accumulated into the per-key
//!    `ΠA` of [`LinearAux`], which travels with the value into the backing
//!    store and the durable tier.
//!
//! Constant `A` is recognised structurally only (tier 1), never learnt
//! from traffic: a merge must not depend on what a `FoldOps` *instance*
//! has seen, because a recovered runtime merges persisted values with a
//! fresh instance before it has folded a single packet. A constant-A fold
//! that is not kernel-shaped (say, two cross-coupled variables) takes the
//! general tier, whose `ΠA` is per key and persisted.

use crate::durable::{get_value, get_values, put_values};
use perfq_kvstore::wal::{ByteReader, ByteWriter as _};
use perfq_kvstore::{MergeMode, Persist, ValueOps};
use perfq_lang::bytecode::{self, EvalStack, Program};
use perfq_lang::ir::{FoldIr, RExpr, RStmt};
use perfq_lang::{FoldClass, Value};
use std::cell::RefCell;

/// Auxiliary merge state carried alongside the fold variables in the cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinearAux {
    /// Packets folded since (re)insertion.
    pub packets: u64,
    /// The first `window` input rows after insertion (replayed at merge).
    pub window_log: Vec<Vec<Value>>,
    /// State snapshot after the first `window` packets.
    pub snapshot: Vec<Value>,
    /// Row-major ΠA over the linear variables, accumulated after the
    /// snapshot point. Empty when the fold is additive (ΠA = I).
    pub prod: Vec<f64>,
}

/// How many state variables live inline in [`StateVec`]. Every Fig. 2 fold
/// fits (the largest uses two variables).
pub const INLINE_STATE_VARS: usize = 2;

/// The per-key state vector. Small folds (the common case) keep their
/// variables inline in the cache slot itself, so the per-packet update
/// touches no second heap line; wider folds spill to a `Vec`.
#[derive(Debug, Clone)]
pub enum StateVec {
    /// Up to [`INLINE_STATE_VARS`] variables, zero-padded past `len`.
    Inline {
        /// Number of meaningful variables.
        len: u8,
        /// The variables; `vals[len..]` is `Int(0)`.
        vals: [Value; INLINE_STATE_VARS],
    },
    /// Wider state spills to the heap.
    Heap(Vec<Value>),
}

impl StateVec {
    /// Build canonically from a slice (inline iff it fits).
    #[must_use]
    pub fn from_slice(vals: &[Value]) -> Self {
        if vals.len() <= INLINE_STATE_VARS {
            let mut inline = [Value::Int(0); INLINE_STATE_VARS];
            inline[..vals.len()].copy_from_slice(vals);
            StateVec::Inline {
                len: vals.len() as u8,
                vals: inline,
            }
        } else {
            StateVec::Heap(vals.to_vec())
        }
    }

    /// Copy out as a plain vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Value> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[Value] {
        match self {
            StateVec::Inline { len, vals } => &vals[..usize::from(*len)],
            StateVec::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Value] {
        match self {
            StateVec::Inline { len, vals } => &mut vals[..usize::from(*len)],
            StateVec::Heap(v) => v,
        }
    }
}

impl std::ops::Deref for StateVec {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for StateVec {
    fn deref_mut(&mut self) -> &mut [Value] {
        self.as_mut_slice()
    }
}

impl PartialEq for StateVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A fold's state as stored in the split store.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldState {
    /// The state variables, in `FoldIr::state` order.
    pub vars: StateVec,
    /// Packets folded since (re)insertion — maintained inline (no aux box)
    /// by the `ConstAKernel` fast path, whose merge needs only this one
    /// exponent, shared by all k of its variables (`a_iⁿ`). A merge resets
    /// it to 0. Every other fold leaves it 0: a [`LinearAux`] tracks packets
    /// there, and additive or epoch folds need no count.
    pub packets: u64,
    /// Merge bookkeeping (only for linear folds outside the fast path).
    pub aux: Option<Box<LinearAux>>,
}

/// The compiled constant-A fast kernel over k state variables.
///
/// A windowless linear fold whose body is k assignments, each to a
/// distinct state variable and each affine in that variable alone with a
/// *constant* coefficient — `s_i ← [c_i·] s_i ± B_i` — needs none of the
/// generic machinery on the observe path: no `RefCell` scratch, no bytecode
/// dispatch, no numeric `A` extraction, no per-key aux box. EWMA's
/// `s' = (1−α)·s + α·(tout−tin)` is the canonical k = 1 case; `COUNT,
/// SUM(pkt_len)` is k = 2 with every `c_i = 1`. Because statement i reads
/// only `s_i` and no `B_i` reads state, `A` is the constant diagonal
/// `diag(a_i)`.
///
/// Each statement keeps its decomposed update (state term, combining
/// operator, state-free `B_i`) and evaluates it directly with the same
/// [`Value`] operator semantics the bytecode engine uses — `bytecode::compile_stmts`
/// folds closed subtrees with exactly these ops, so the kernel's results
/// are bit-identical to the compiled program's. The merge correction is the
/// scalar §3.2 formula per variable,
/// `corrected_i = evicted_i + a_i^n · (standing_i − init_i)`, every variable
/// sharing the one exponent `n` read from the inline
/// [`FoldState::packets`] counter; an additive fold has every `a_i = 1`, so
/// this is exactly the additive correction.
#[derive(Debug, Clone, PartialEq)]
struct ConstAKernel {
    /// One update per state variable, in body order.
    stmts: Vec<KernelStmt>,
}

/// One kernel statement, `s_var ← combine([c·] s_var, B)`.
#[derive(Debug, Clone, PartialEq)]
struct KernelStmt {
    /// The state variable this statement assigns (and alone reads).
    var: usize,
    /// Coefficient on the state term (`None` = the bare state), paired
    /// with `true` when the coefficient is the left operand — the source
    /// operand order is preserved for bit-exactness.
    coeff: Option<(Value, bool)>,
    /// How the state term combines with `B`: operator, `true` when the
    /// state term is the left operand, and the state-free `B` term.
    /// `None` = the update has no `B` term.
    combine: Option<(perfq_lang::ast::BinOp, bool, BTerm)>,
    /// The signed scalar `a` (coefficient value, negated for `B − c·s`).
    a: f64,
    /// The state variable's type — the post-update coercion target.
    ty: perfq_lang::ValueType,
    /// The state variable's initial value (the merge baseline).
    init: Value,
}

/// A kernel statement's state-free `B`, lowered as far as its shape allows.
#[derive(Debug, Clone, PartialEq)]
enum BTerm {
    /// Literals and parameters only: folded once at build time.
    Const(Value),
    /// One input column, read as is.
    Input(usize),
    /// Any other `Call`-free expression over inputs and parameters,
    /// evaluated per packet (params still symbolic).
    Expr(RExpr),
}

impl KernelStmt {
    /// One packet: `s ← combine(A-term(s), B(input))`, coerced to the
    /// variable's type — operand order and ops exactly as the generic
    /// engine would apply them.
    #[inline]
    fn apply(&self, vars: &mut [Value], input: &[Value], params: &[Value]) {
        use perfq_lang::ast::BinOp;
        let s = vars[self.var];
        let s_term = match &self.coeff {
            Some((c, true)) => Value::binop(BinOp::Mul, *c, s),
            Some((c, false)) => Value::binop(BinOp::Mul, s, *c),
            None => Ok(s),
        }
        .expect("type-checked fold body cannot fail at runtime");
        let out = match &self.combine {
            Some((op, state_first, b)) => {
                let bv = match b {
                    BTerm::Const(v) => *v,
                    BTerm::Input(i) => input[*i],
                    BTerm::Expr(e) => perfq_lang::ir::eval(e, &[], input, params)
                        .expect("state-free B term evaluates"),
                };
                if *state_first {
                    Value::binop(*op, s_term, bv)
                } else {
                    Value::binop(*op, bv, s_term)
                }
                .expect("type-checked fold body cannot fail at runtime")
            }
            None => s_term,
        };
        vars[self.var] = out.coerce(self.ty);
    }
}

impl ConstAKernel {
    /// One packet through every statement, in body order. Statement i
    /// reads only `s_i`, so the order is the engine's and immaterial.
    #[inline]
    fn update(&self, vars: &mut [Value], input: &[Value], params: &[Value]) {
        for stmt in &self.stmts {
            stmt.apply(vars, input, params);
        }
    }
}

/// Structurally decompose a fold into a [`ConstAKernel`], or `None` when it
/// doesn't fit: a windowless linear fold whose body is one assignment per
/// state variable, each of the shape `[c ·] s_i [± B_i]` (either operand
/// order) over its own variable, with a constant coefficient and a
/// state-free, `Call`-free `B_i`.
fn const_a_kernel(fold: &FoldIr, params: &[Value]) -> Option<ConstAKernel> {
    if fold.class != (FoldClass::Linear { window: 0 }) || fold.body.len() != fold.state.len() {
        return None;
    }
    let init = fold.init_state();
    let mut assigned = vec![false; fold.state.len()];
    let mut stmts = Vec::with_capacity(fold.body.len());
    for stmt in &fold.body {
        let RStmt::Assign(var, e) = stmt else {
            return None;
        };
        if std::mem::replace(&mut assigned[*var], true) {
            return None;
        }
        stmts.push(kernel_stmt(
            *var,
            e,
            fold.state[*var].ty,
            init[*var],
            params,
        )?);
    }
    Some(ConstAKernel { stmts })
}

/// Decompose `s_var ← e` into a [`KernelStmt`], or `None` when `e` is not
/// `[c ·] s_var [± B]` with a constant `c` and a state-free, `Call`-free `B`.
fn kernel_stmt(
    var: usize,
    e: &RExpr,
    ty: perfq_lang::ValueType,
    init: Value,
    params: &[Value],
) -> Option<KernelStmt> {
    use perfq_lang::ast::BinOp;
    /// True when no node of `e` is one of the `banned` kinds.
    fn none_of(e: &RExpr, banned: fn(&RExpr) -> bool) -> bool {
        let mut ok = true;
        e.visit(&mut |n| ok &= !banned(n));
        ok
    }
    // State-free, input-allowed, `Call`-free (a builtin call would
    // allocate its argument vector per packet).
    let plain_b = |e: &RExpr| none_of(e, |n| matches!(n, RExpr::State(_) | RExpr::Call(..)));
    // Only literals and parameters (no inputs or state).
    let is_const = |e: &RExpr| {
        none_of(e, |n| {
            matches!(n, RExpr::Input(_) | RExpr::State(_) | RExpr::Call(..))
        })
    };
    let (state_term, combine) = match e {
        RExpr::Binary(op, l, r) if matches!(op, BinOp::Add | BinOp::Sub) => {
            match (l.uses_state(), r.uses_state()) {
                (true, false) if plain_b(r) => (l.as_ref(), Some((*op, true, r.as_ref()))),
                (false, true) if plain_b(l) => (r.as_ref(), Some((*op, false, l.as_ref()))),
                _ => return None,
            }
        }
        other if other.uses_state() => (other, None),
        _ => return None,
    };
    let own = |s: &RExpr| matches!(s, RExpr::State(v) if *v == var);
    let coeff = match state_term {
        s if own(s) => None,
        RExpr::Binary(BinOp::Mul, c, s) if is_const(c) && own(s) => {
            Some((perfq_lang::ir::eval(c, &[], &[], params).ok()?, true))
        }
        RExpr::Binary(BinOp::Mul, s, c) if own(s) && is_const(c) => {
            Some((perfq_lang::ir::eval(c, &[], &[], params).ok()?, false))
        }
        _ => return None,
    };
    let combine = match combine {
        Some((op, state_first, b)) => {
            let b = match b {
                RExpr::Input(i) => BTerm::Input(*i),
                b if is_const(b) => BTerm::Const(perfq_lang::ir::eval(b, &[], &[], params).ok()?),
                b => BTerm::Expr(b.clone()),
            };
            Some((op, state_first, b))
        }
        None => None,
    };
    let mut a = coeff.map_or(1.0, |(c, _)| c.as_f64());
    if matches!(combine, Some((BinOp::Sub, false, _))) {
        // `B − c·s`: the state coefficient enters negated.
        a = -a;
    }
    Some(KernelStmt {
        var,
        coeff,
        combine,
        a,
        ty,
        init,
    })
}

/// Reusable per-update working memory. One instance per store (not per
/// key): the dataplane update path allocates nothing after warm-up.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Bytecode value stack.
    stack: EvalStack,
    /// `extract_a` state with linear vars zeroed.
    base: Vec<Value>,
    /// `extract_a` zero-probe result (the `B` vector).
    f0: Vec<Value>,
    /// `extract_a` basis-probe buffer.
    probe: Vec<Value>,
    /// Extracted per-packet `A` matrix (row-major k×k).
    a: Vec<f64>,
    /// Matrix-multiply temporary.
    mat_tmp: Vec<f64>,
    /// Merge-time `replayed − snapshot` vector over the linear variables —
    /// pooled so the sharded drain's merge storm allocates nothing warm.
    delta: Vec<f64>,
}

/// [`ValueOps`] implementation driving a compiled [`FoldIr`].
///
/// The fold body is compiled once into flat [`bytecode`] and executed with a
/// reusable stack; the tree-walking interpreter is used only by the oracle.
#[derive(Debug, Clone)]
pub struct FoldOps {
    fold: FoldIr,
    /// The fold body compiled to postfix bytecode.
    program: Program,
    params: Vec<Value>,
    /// Indices of `Linear`-classified variables (the mergeable vector).
    linear_vars: Vec<usize>,
    /// Window depth to log + replay.
    window: u32,
    /// True when every linear variable's update has `A = I` (pure
    /// accumulation), so `ΠA` tracking is unnecessary.
    additive: bool,
    /// The constant-A fast kernel, when the fold fits it. Takes
    /// precedence over the generic aux/scratch machinery on every path
    /// (init/update/merge) — see [`ConstAKernel`].
    fast: Option<ConstAKernel>,
    /// The initial state vector, materialised once: the per-miss `init`
    /// and the per-eviction additive merge correction both read it without
    /// rebuilding it, keeping the cache-miss and eviction paths
    /// allocation-free for inline-width folds.
    init: StateVec,
    mode: MergeMode,
    /// Single-threaded working memory (the switch pipeline is one stream).
    scratch: RefCell<Scratch>,
}

impl FoldOps {
    /// Build ops for a compiled fold with bound parameter values.
    #[must_use]
    pub fn new(fold: FoldIr, params: Vec<Value>) -> Self {
        let (mode, window) = match fold.class {
            FoldClass::Linear { window } => (MergeMode::Merge, window),
            FoldClass::PureWindow { .. } => (MergeMode::Overwrite, 0),
            FoldClass::NonLinear => (MergeMode::Epochs, 0),
        };
        let linear_vars = fold.linear_vars();
        let additive = mode == MergeMode::Merge
            && linear_vars
                .iter()
                .all(|v| is_additive_in(&fold.body, *v, &linear_vars));
        let program = bytecode::compile_stmts(&fold.body, &params);
        let fast = const_a_kernel(&fold, &params);
        let init = StateVec::from_slice(&fold.init_state());
        FoldOps {
            fold,
            init,
            program,
            params,
            linear_vars,
            window,
            additive,
            fast,
            mode,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// The underlying fold.
    #[must_use]
    pub fn fold(&self) -> &FoldIr {
        &self.fold
    }

    /// Whether the additive fast path (ΠA = I) is active.
    #[must_use]
    pub fn is_additive(&self) -> bool {
        self.additive
    }

    /// True when two ops drive **byte-identical** store state on identical
    /// input streams: same compiled (param-folded) update bytecode, same
    /// state layout (variable types and initial values — names are
    /// cosmetic), same per-variable linearity classes, and therefore the
    /// same merge machinery. This is the fold half of the multi-query
    /// store-dedup legality rule; the physical half (geometry, eviction
    /// policy, hash seed) is compared on the [`crate::StorePlan`]s.
    #[must_use]
    pub fn dataplane_identical(&self, other: &FoldOps) -> bool {
        self.program == other.program
            && self.fast == other.fast
            && self.mode == other.mode
            && self.window == other.window
            && self.additive == other.additive
            && self.linear_vars == other.linear_vars
            && self.fold.class == other.fold.class
            && self.fold.var_classes == other.fold.var_classes
            && self.fold.state.len() == other.fold.state.len()
            && self
                .fold
                .state
                .iter()
                .zip(&other.fold.state)
                .all(|(a, b)| a.ty == b.ty && a.init == b.init)
    }

    fn k(&self) -> usize {
        self.linear_vars.len()
    }

    /// Run the fold body once (panics only on internal IR inconsistencies,
    /// which resolution has excluded).
    fn exec(&self, state: &mut [Value], input: &[Value]) {
        let mut scratch = self.scratch.borrow_mut();
        self.exec_with(&mut scratch.stack, state, input);
    }

    /// Run the fold body with an explicitly borrowed stack (lets callers
    /// holding the scratch split its fields without re-borrowing the cell).
    fn exec_with(&self, stack: &mut EvalStack, state: &mut [Value], input: &[Value]) {
        self.program
            .exec(stack, state, input, &self.params)
            .expect("type-checked fold body cannot fail at runtime");
        // Keep state types stable: a branch may assign an Int expression to a
        // Float variable; normalize so downstream linear algebra sees floats.
        for (i, var) in self.fold.state.iter().enumerate() {
            state[i] = state[i].coerce(var.ty);
        }
    }

    /// Extract this packet's `A` matrix over the linear variables, with
    /// window variables pinned to their current values.
    ///
    /// Numerical care: a unit basis probe would lose `A` entirely whenever
    /// `B` is large (e.g. EWMA over a dropped packet's latency, where
    /// `B = α·(∞ − tin) ≈ 10¹⁸` swamps `A·1` below f64 resolution). We
    /// therefore probe with a basis scaled to dominate `|B|` and divide the
    /// difference back down: the error in each coefficient is then
    /// `O(ε·(1 + |A|))` regardless of `B`. Integer-typed variables use exact
    /// integer probes (their coefficients are integers).
    fn extract_a_into(&self, state: &[Value], input: &[Value], s: &mut Scratch) {
        let k = self.k();
        s.base.clear();
        s.base.extend_from_slice(state);
        for &v in &self.linear_vars {
            s.base[v] = Value::zero(self.fold.state[v].ty);
        }
        s.f0.clear();
        s.f0.extend_from_slice(&s.base);
        {
            let Scratch { stack, f0, .. } = s;
            self.exec_with(stack, f0, input);
        }
        // Scale the float probe past the largest |B| component.
        let b_max = self
            .linear_vars
            .iter()
            .map(|&v| s.f0[v].as_f64().abs())
            .fold(1.0_f64, f64::max);
        let float_m = (b_max * 1048576.0).max(1048576.0); // |B|·2^20
        const INT_M: i64 = 1 << 20;
        s.a.clear();
        s.a.resize(k * k, 0.0);
        for (col, &vj) in self.linear_vars.iter().enumerate() {
            s.probe.clear();
            s.probe.extend_from_slice(&s.base);
            let m = match self.fold.state[vj].ty {
                perfq_lang::ValueType::Float => {
                    s.probe[vj] = Value::Float(float_m);
                    float_m
                }
                _ => {
                    s.probe[vj] = Value::Int(INT_M);
                    INT_M as f64
                }
            };
            {
                let Scratch { stack, probe, .. } = s;
                self.exec_with(stack, probe, input);
            }
            for (row, &vi) in self.linear_vars.iter().enumerate() {
                s.a[row * k + col] = (s.probe[vi].as_f64() - s.f0[vi].as_f64()) / m;
            }
        }
    }

    /// Extract into a fresh vector (test/report convenience; the dataplane
    /// uses [`FoldOps::extract_a_into`] with pooled buffers).
    #[cfg(test)]
    fn extract_a(&self, state: &[Value], input: &[Value]) -> Vec<f64> {
        let mut s = self.scratch.borrow_mut();
        self.extract_a_into(state, input, &mut s);
        s.a.clone()
    }
}

/// `prod ← a · prod` (row-major k×k), using `tmp` as working memory.
fn matmul_into(prod: &mut [f64], a: &[f64], k: usize, tmp: &mut Vec<f64>) {
    tmp.clear();
    tmp.resize(k * k, 0.0);
    for i in 0..k {
        for j in 0..k {
            let mut acc = 0.0;
            for t in 0..k {
                acc += a[i * k + t] * prod[t * k + j];
            }
            tmp[i * k + j] = acc;
        }
    }
    prod.copy_from_slice(tmp);
}

fn identity(k: usize) -> Vec<f64> {
    let mut m = vec![0.0; k * k];
    for i in 0..k {
        m[i * k + i] = 1.0;
    }
    m
}

/// `a^n` by binary exponentiation; exactly 1 for an additive `a = 1`
/// without the loop (every counter and sum merges through here).
fn scalar_pow(mut base: f64, mut n: u64) -> f64 {
    if base == 1.0 {
        return 1.0;
    }
    let mut acc = 1.0;
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        n >>= 1;
        if n > 0 {
            base *= base;
        }
    }
    acc
}

impl ValueOps for FoldOps {
    type Value = FoldState;
    type Input = [Value];

    fn init(&self) -> FoldState {
        // Fast-kernel folds keep their merge exponent in the inline
        // `packets` counter: no per-key aux box at all, so (re)insertion
        // under eviction churn allocates nothing.
        if self.fast.is_some() {
            return FoldState {
                vars: self.init.clone(),
                packets: 0,
                aux: None,
            };
        }
        // Additive windowless folds (COUNT, SUM, guarded counters) need no
        // merge bookkeeping at all: the correction is `standing − init`,
        // computable from the values alone. Skip the per-key aux box and the
        // per-packet aux branch entirely.
        let aux = if self.mode == MergeMode::Merge && !(self.additive && self.window == 0) {
            Some(Box::new(LinearAux {
                packets: 0,
                window_log: Vec::new(),
                snapshot: Vec::new(),
                // Additive folds keep ΠA = I implicitly and track no
                // per-key matrix.
                prod: if self.additive {
                    Vec::new()
                } else {
                    identity(self.k())
                },
            }))
        } else {
            None
        };
        FoldState {
            vars: self.init.clone(),
            packets: 0,
            aux,
        }
    }

    fn update(&self, value: &mut FoldState, input: &[Value]) {
        // The constant-A fast path: count the packet, apply the decomposed
        // affine updates in place. No RefCell borrow, no aux-box line, no
        // bytecode dispatch — the EWMA or `COUNT, SUM` observe path
        // collapses to a handful of `Value` ops per variable.
        if let Some(k) = &self.fast {
            value.packets += 1;
            k.update(&mut value.vars, input, &self.params);
            return;
        }
        if let Some(aux) = value.aux.as_deref_mut() {
            if aux.packets < u64::from(self.window) {
                // Still inside the logged window: record the row; ΠA stays
                // untouched (it accumulates only after the snapshot).
                aux.window_log.push(input.to_vec());
            } else if !self.additive {
                let mut scratch = self.scratch.borrow_mut();
                let s = &mut *scratch;
                self.extract_a_into(&value.vars, input, s);
                matmul_into(&mut aux.prod, &s.a, self.k(), &mut s.mat_tmp);
            }
            aux.packets += 1;
            // Execute the real update, then snapshot right after the window
            // fills (window vars are settled from this point on).
            self.exec(&mut value.vars, input);
            if aux.packets == u64::from(self.window) {
                aux.snapshot = value.vars.to_vec();
            }
            return;
        }
        self.exec(&mut value.vars, input);
    }

    fn merge(&self, standing: &mut FoldState, evicted: FoldState) {
        // Fast-kernel merge: the §3.2 correction per variable,
        // `corrected_i = evicted_i + a_i^n · (standing_i − init_i)`, with
        // the one `n` from the inline packets counter. Resetting `packets`
        // to 0 marks the composite: a later cross-shard merge of this value
        // degrades to the additive correction (`A^0 = I`), exactly the
        // consumed-aux semantics of the generic path below.
        if let Some(k) = &self.fast {
            let mut corrected = evicted.vars;
            for st in &k.stmts {
                let adj = scalar_pow(st.a, evicted.packets)
                    * (standing.vars[st.var].as_f64() - st.init.as_f64());
                let v = corrected[st.var];
                corrected[st.var] = match st.ty {
                    perfq_lang::ValueType::Float => Value::Float(v.as_f64() + adj),
                    _ => Value::Int(v.as_i64() + adj.round() as i64),
                };
            }
            standing.vars = corrected;
            standing.packets = 0;
            standing.aux = None;
            return;
        }
        let Some(aux) = evicted.aux.as_deref() else {
            // Additive, windowless: corrected = evicted + (standing − init),
            // component-wise over the linear variables; window-class
            // variables keep the evicted (most recent) values.
            //
            // Single-stream evictions always carry aux for non-additive or
            // windowed folds, but the sharded drain can legitimately present
            // an aux-less evicted value: a shard-local eviction merge
            // consumes the aux box, and if that key later turns out to
            // straddle shards (only possible when the shard key does not
            // determine the store key — the partitioning prevents it for
            // every `ShardSpec::is_exact` configuration), no exact
            // correction exists. Degrade to the additive correction (ΠA
            // treated as I, window replay skipped) rather than failing —
            // the paper's best-effort stance for cross-switch merges of
            // non-linear state. Deliberate trade-off: this call site cannot
            // distinguish that case from a hypothetical engine bug that
            // dropped aux on the single-stream path, so the old
            // debug_assert would make legitimate inexact-sharded drains
            // panic in debug builds; the single-stream invariant is instead
            // pinned behaviourally by the oracle differential suites.
            let init = &self.init;
            let mut corrected = evicted.vars.clone();
            for &v in &self.linear_vars {
                let adj = standing.vars[v].as_f64() - init[v].as_f64();
                corrected[v] = match self.fold.state[v].ty {
                    perfq_lang::ValueType::Float => Value::Float(evicted.vars[v].as_f64() + adj),
                    _ => Value::Int(evicted.vars[v].as_i64() + adj.round() as i64),
                };
            }
            standing.vars = corrected;
            standing.aux = None;
            return;
        };
        if aux.packets <= u64::from(self.window) {
            // The entire residency is inside the log: replay it directly on
            // the standing value — exact by construction.
            for row in &aux.window_log {
                self.exec(&mut standing.vars, row);
            }
            return;
        }
        // 1. Replay the logged window on the standing value.
        let mut replayed = standing.vars.clone();
        for row in &aux.window_log {
            self.exec(&mut replayed, row);
        }
        // 2. Correct the linear components:
        //    corrected = evicted + ΠA · (replayed − snapshot).
        let k = self.k();
        let snapshot: &[Value] = if self.window == 0 {
            // No window: the "snapshot" is the initial state.
            &self.init
        } else {
            &aux.snapshot
        };
        // All remaining work is straight arithmetic (no fold-body execution),
        // so one scratch borrow covers it; the pooled `delta` buffer keeps
        // the warmed merge path — the sharded drain's inner loop —
        // allocation-free.
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        s.delta.clear();
        s.delta.resize(k, 0.0);
        for (i, &v) in self.linear_vars.iter().enumerate() {
            s.delta[i] = replayed[v].as_f64() - snapshot[v].as_f64();
        }
        let mut corrected = evicted.vars.clone();
        for (i, &v) in self.linear_vars.iter().enumerate() {
            let adj: f64 = if self.additive {
                s.delta[i]
            } else {
                (0..k).map(|j| aux.prod[i * k + j] * s.delta[j]).sum()
            };
            corrected[v] = match self.fold.state[v].ty {
                perfq_lang::ValueType::Float => Value::Float(evicted.vars[v].as_f64() + adj),
                _ => Value::Int(evicted.vars[v].as_i64() + adj.round() as i64),
            };
        }
        // Window variables: the evicted copy saw the most recent packets, so
        // its values are the correct current ones (already in `corrected`).
        standing.vars = corrected;
        standing.aux = None;
    }

    fn merge_mode(&self) -> MergeMode {
        self.mode
    }
}

/// Structural check: every assignment to `var` (on any path) has the shape
/// `var ± state-free-expr` (or is absent), and no *other* variable's
/// assignment reads `var`… the latter is unnecessary for A=I of row `var`,
/// but cross-reads would put `var` into another row's coefficients, so we
/// require that none of the tracked linear variables is read by a different
/// variable's assignment. Conditions may read window state freely (they
/// contribute to `B`'s window dependence, not to `A`).
fn is_additive_in(body: &[RStmt], var: usize, linear_vars: &[usize]) -> bool {
    fn expr_reads_state(e: &RExpr, vars: &[usize]) -> bool {
        let mut found = false;
        e.visit(&mut |n| {
            if let RExpr::State(i) = n {
                if vars.contains(i) {
                    found = true;
                }
            }
        });
        found
    }
    fn check(stmts: &[RStmt], var: usize, linear_vars: &[usize]) -> bool {
        for s in stmts {
            match s {
                RStmt::Assign(target, e) => {
                    if *target == var {
                        // Must be State(var) + f or State(var) - f with f
                        // reading no linear state; or f alone (A row = 0).
                        let ok = match e {
                            RExpr::Binary(
                                perfq_lang::ast::BinOp::Add | perfq_lang::ast::BinOp::Sub,
                                l,
                                r,
                            ) => {
                                matches!(l.as_ref(), RExpr::State(i) if *i == var)
                                    && !expr_reads_state(r, linear_vars)
                            }
                            other => !expr_reads_state(other, linear_vars),
                        };
                        if !ok {
                            return false;
                        }
                    } else if expr_reads_state(e, &[var]) {
                        // Another variable reads `var`: cross coefficient.
                        return false;
                    }
                }
                RStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if expr_reads_state(cond, linear_vars) {
                        return false;
                    }
                    if !check(then_body, var, linear_vars) || !check(else_body, var, linear_vars) {
                        return false;
                    }
                }
            }
        }
        true
    }
    // `x = x + f` keeps A=I only if assigned at most once per packet on any
    // path; nested duplicates (x = x+1; x = x+2) still have A=I, so the
    // per-assignment check above suffices.
    check(body, var, linear_vars)
}

/// Classification summary used by reports.
#[must_use]
pub fn describe_class(fold: &FoldIr) -> String {
    match fold.class {
        FoldClass::Linear { window: 0 } => "linear-in-state".to_string(),
        FoldClass::Linear { window } => format!("linear-in-state (window {window})"),
        FoldClass::PureWindow { window } => format!("packet-window({window})"),
        FoldClass::NonLinear => "non-linear (epoch mode)".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Durable spill-tier codec
// ---------------------------------------------------------------------------

/// [`FoldState`] round-trips through the spill tier's WAL byte-exactly:
/// floats persist as their bit patterns and [`StateVec`] decodes into the
/// canonical shape [`StateVec::from_slice`] builds, so a recovered fold
/// state compares equal to the never-spilled original for every fold class
/// — including the linear-merge bookkeeping in [`LinearAux`].
impl Persist for FoldState {
    fn encode(&self, out: &mut Vec<u8>) {
        put_values(&self.vars, out);
        out.put_u64(self.packets);
        match &self.aux {
            None => out.put_u8(0),
            Some(aux) => {
                out.put_u8(1);
                out.put_u64(aux.packets);
                out.put_u32(aux.window_log.len() as u32);
                for row in &aux.window_log {
                    put_values(row, out);
                }
                put_values(&aux.snapshot, out);
                out.put_u32(aux.prod.len() as u32);
                for x in &aux.prod {
                    out.put_f64(*x);
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let vars = get_state(r)?;
        let packets = r.u64()?;
        let aux = match r.u8()? {
            0 => None,
            1 => {
                let aux_packets = r.u64()?;
                let n_rows = r.u32()? as usize;
                let mut window_log = Vec::with_capacity(n_rows.min(1024));
                for _ in 0..n_rows {
                    window_log.push(get_values(r)?);
                }
                let snapshot = get_values(r)?;
                let n_prod = r.u32()? as usize;
                let mut prod = Vec::with_capacity(n_prod.min(1024));
                for _ in 0..n_prod {
                    prod.push(r.f64()?);
                }
                Some(Box::new(LinearAux {
                    packets: aux_packets,
                    window_log,
                    snapshot,
                    prod,
                }))
            }
            _ => return None,
        };
        Some(FoldState { vars, packets, aux })
    }
}

/// Decode a [`put_values`] row straight into its canonical [`StateVec`] —
/// inline iff it fits, as [`StateVec::from_slice`] builds it — without a
/// temporary vector per frame.
fn get_state(r: &mut ByteReader<'_>) -> Option<StateVec> {
    let n = r.u32()? as usize;
    if n > INLINE_STATE_VARS {
        let mut vals = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            vals.push(get_value(r)?);
        }
        return Some(StateVec::Heap(vals));
    }
    let mut vals = [Value::Int(0); INLINE_STATE_VARS];
    for v in &mut vals[..n] {
        *v = get_value(r)?;
    }
    Some(StateVec::Inline { len: n as u8, vals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfq_kvstore::{CacheGeometry, EvictionPolicy, SplitStore};
    use perfq_lang::ir::exec_stmts;
    use perfq_lang::ResolvedKind;
    use perfq_lang::{compile, fig2};
    use perfq_packet::Nanos;

    fn fold_of(src: &str) -> (FoldIr, Vec<Value>) {
        let prog = compile(src, &fig2::default_params()).unwrap();
        let q = prog
            .queries
            .iter()
            .find(|q| q.fold().is_some())
            .expect("has a groupby");
        match &q.kind {
            ResolvedKind::GroupBy(g) => (g.fold.clone(), prog.param_values()),
            ResolvedKind::Project(_) => unreachable!("found fold above"),
        }
    }

    /// Per-key fold states, sorted by key.
    type KeyedStates = Vec<(u64, Vec<Value>)>;

    /// Drive a tiny 1-entry cache so every key alternation evicts, then
    /// compare against a direct (uncached) fold over the same inputs.
    fn run_split_and_oracle(
        fold: FoldIr,
        params: Vec<Value>,
        inputs: &[(u64, Vec<Value>)],
    ) -> (KeyedStates, KeyedStates) {
        let ops = FoldOps::new(fold.clone(), params.clone());
        let mut store: SplitStore<u64, FoldOps> = SplitStore::new(
            CacheGeometry::fully_associative(1),
            EvictionPolicy::Lru,
            1,
            ops,
        );
        let mut oracle: std::collections::HashMap<u64, Vec<Value>> = Default::default();
        for (i, (key, row)) in inputs.iter().enumerate() {
            store.observe(*key, row.as_slice(), Nanos(i as u64));
            let state = oracle.entry(*key).or_insert_with(|| fold.init_state());
            exec_stmts(&fold.body, state, row, &params).unwrap();
            for (j, var) in fold.state.iter().enumerate() {
                state[j] = state[j].coerce(var.ty);
            }
        }
        store.flush();
        let mut got: Vec<(u64, Vec<Value>)> = store
            .backing()
            .iter()
            .map(|(k, e)| (*k, e.value().expect("linear keys stay valid").vars.to_vec()))
            .collect();
        got.sort_by_key(|(k, _)| *k);
        let mut want: Vec<(u64, Vec<Value>)> = oracle.into_iter().collect();
        want.sort_by_key(|(k, _)| *k);
        (got, want)
    }

    #[test]
    fn counter_uses_additive_fast_path_and_is_exact() {
        let (fold, params) = fold_of("SELECT COUNT GROUPBY srcip");
        let ops = FoldOps::new(fold.clone(), params.clone());
        assert!(ops.is_additive());
        let inputs: Vec<(u64, Vec<Value>)> =
            (0..100).map(|i| (i % 3, vec![Value::Int(0); 22])).collect();
        let (got, want) = run_split_and_oracle(fold, params, &inputs);
        assert_eq!(got, want);
    }

    #[test]
    fn ewma_merge_matches_oracle_exactly() {
        let src = "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n";
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold.clone(), params.clone());
        assert!(!ops.is_additive(), "EWMA has A = 1-α ≠ 1");
        // Rows: tin at schema index of `tin`, tout at index of `tout`.
        let schema = perfq_lang::base_schema();
        let (itin, itout) = (
            schema.index_of("tin").unwrap(),
            schema.index_of("tout").unwrap(),
        );
        let mut inputs = Vec::new();
        for i in 0..60u64 {
            let mut row = vec![Value::Int(0); schema.len()];
            row[itin] = Value::Int(1000 * i as i64);
            row[itout] = Value::Int(1000 * i as i64 + 100 + (i as i64 % 7) * 13);
            inputs.push((i % 2, row));
        }
        let (got, want) = run_split_and_oracle(fold, params, &inputs);
        assert_eq!(got.len(), want.len());
        for ((k1, g), (k2, w)) in got.iter().zip(&want) {
            assert_eq!(k1, k2);
            for (a, b) in g.iter().zip(w) {
                assert!(
                    (a.as_f64() - b.as_f64()).abs() < 1e-9,
                    "key {k1}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_seq_window_replay_is_exact() {
        let src = "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple\n";
        let (fold, params) = fold_of(src);
        assert_eq!(fold.class, FoldClass::Linear { window: 1 });
        let schema = perfq_lang::base_schema();
        let iseq = schema.index_of("tcpseq").unwrap();
        let ilen = schema.index_of("payload_len").unwrap();
        // Two interleaved flows with occasional gaps; cache of 1 forces an
        // eviction on every alternation — the hard case for window replay.
        let mut inputs = Vec::new();
        let mut seqs = [1000i64, 5000i64];
        for i in 0..80u64 {
            let f = (i % 2) as usize;
            let mut row = vec![Value::Int(0); schema.len()];
            // every 7th packet skips ahead (out of sequence)
            if i % 7 == 0 {
                seqs[f] += 500;
            }
            row[iseq] = Value::Int(seqs[f]);
            row[ilen] = Value::Int(100);
            seqs[f] += 100;
            inputs.push((f as u64, row));
        }
        let (got, want) = run_split_and_oracle(fold, params, &inputs);
        assert_eq!(got, want, "windowed linear fold must merge exactly");
    }

    #[test]
    fn sum_with_negative_values_is_exact() {
        let (fold, params) = fold_of("SELECT SUM(tout-tin) GROUPBY srcip");
        let schema = perfq_lang::base_schema();
        let (itin, itout, isrc) = (
            schema.index_of("tin").unwrap(),
            schema.index_of("tout").unwrap(),
            schema.index_of("srcip").unwrap(),
        );
        let mut inputs = Vec::new();
        for i in 0..50u64 {
            let mut row = vec![Value::Int(0); schema.len()];
            row[isrc] = Value::Int((i % 4) as i64);
            row[itin] = Value::Int(10_000);
            row[itout] = Value::Int(10_000 + (i as i64 * 37) % 900);
            inputs.push((i % 4, row));
        }
        let (got, want) = run_split_and_oracle(fold, params, &inputs);
        assert_eq!(got, want);
    }

    #[test]
    fn nonlinear_fold_goes_to_epoch_mode() {
        let src = "def nonmt ((maxseq, nm_count), tcpseq):\n    if maxseq > tcpseq:\n        nm_count = nm_count + 1\n    maxseq = max(maxseq, tcpseq)\n\nSELECT 5tuple, nonmt GROUPBY 5tuple\n";
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold, params);
        assert_eq!(ops.merge_mode(), MergeMode::Epochs);
        let v = ops.init();
        assert!(v.aux.is_none(), "epoch folds carry no merge aux");
    }

    #[test]
    fn zero_state_fold_overwrites() {
        // Distinct-keys query: GROUPBY with no aggregations.
        let prog = compile(
            "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT srcip FROM R1 GROUPBY srcip\n",
            &fig2::default_params(),
        )
        .unwrap();
        let g = match &prog.queries[1].kind {
            ResolvedKind::GroupBy(g) => g,
            _ => panic!("R2 is a groupby"),
        };
        let ops = FoldOps::new(g.fold.clone(), prog.param_values());
        assert_eq!(ops.merge_mode(), MergeMode::Overwrite);
    }

    #[test]
    fn extracted_a_matrix_matches_known_ewma_alpha() {
        let src = "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n";
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold.clone(), params);
        let schema = perfq_lang::base_schema();
        let mut row = vec![Value::Int(0); schema.len()];
        row[schema.index_of("tin").unwrap()] = Value::Int(10);
        row[schema.index_of("tout").unwrap()] = Value::Int(110);
        let state = fold.init_state();
        let a = ops.extract_a(&state, &row);
        assert_eq!(a.len(), 1);
        assert!(
            (a[0] - 0.875).abs() < 1e-12,
            "A = 1-α = 0.875, got {}",
            a[0]
        );
    }

    const EWMA: &str = "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n";
    const COUNT_SUM: &str = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip";
    const TWO_SUMS: &str = "SELECT SUM(pkt_len), SUM(tout - tin) GROUPBY srcip";
    const DECAY_AND_COUNT: &str = "def mix ((s0, s1), (pkt_len)):\n    s0 = 0.5 * s0 + pkt_len\n    s1 = s1 + 1\n\nSELECT srcip, mix GROUPBY srcip\n";
    /// Every kernel shape the tests drive: one variable, two counters, two
    /// sums (one over an expression), a decay beside a counter.
    const KERNEL_FOLDS: [&str; 4] = [EWMA, COUNT_SUM, TWO_SUMS, DECAY_AND_COUNT];

    /// `(a_i, B_i)` per kernel statement, `B_i` as a shape name.
    fn kernel_shape(src: &str) -> Option<Vec<(f64, &'static str)>> {
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold, params);
        let k = ops.fast.as_ref()?;
        assert!(ops.init().aux.is_none(), "fast folds carry no aux box");
        Some(
            k.stmts
                .iter()
                .map(|st| {
                    let b = match &st.combine {
                        None => "none",
                        Some((_, _, BTerm::Const(_))) => "const",
                        Some((_, _, BTerm::Input(_))) => "input",
                        Some((_, _, BTerm::Expr(_))) => "expr",
                    };
                    (st.a, b)
                })
                .collect(),
        )
    }

    #[test]
    fn const_a_kernel_engages_for_ewma_and_counters_only_when_legal() {
        // EWMA: one Float variable, constant A = 1-α.
        let ewma = kernel_shape(EWMA).expect("EWMA fits the constant-A kernel");
        assert_eq!(ewma.len(), 1);
        assert!(
            (ewma[0].0 - 0.875).abs() < 1e-15,
            "A = 1-α = 0.875, got {}",
            ewma[0].0
        );
        assert_eq!(ewma[0].1, "expr");
        // Counters and sums: every a_i = 1, `B` lowered where it can be.
        let count = kernel_shape("SELECT COUNT GROUPBY srcip").expect("COUNT fits");
        assert_eq!(count, [(1.0, "const")]);
        let count_sum = kernel_shape(COUNT_SUM).expect("COUNT, SUM fits");
        assert_eq!(count_sum, [(1.0, "const"), (1.0, "input")]);
        let two_sums = kernel_shape(TWO_SUMS).expect("two SUMs fit");
        assert_eq!(two_sums, [(1.0, "input"), (1.0, "expr")]);
        // A decay beside a counter: A = diag(0.5, 1).
        let (fold, _) = fold_of(DECAY_AND_COUNT);
        assert_eq!(fold.class, FoldClass::Linear { window: 0 });
        let mixed = kernel_shape(DECAY_AND_COUNT).expect("decay + counter fits");
        assert_eq!(mixed, [(0.5, "input"), (1.0, "const")]);

        // Off the kernel, each for its own reason:
        let rejected = [
            // cross-coupled (`u = u + v` reads another variable in `B`);
            "def cpl ((u, v), (pkt_len)):\n    u = u + v\n    v = v + pkt_len\n\nSELECT 5tuple, cpl GROUPBY 5tuple\n",
            // a state term over another variable;
            "def sh ((a, b), (pkt_len)):\n    a = 2 * b + pkt_len\n    b = b + 1\n\nSELECT srcip, sh GROUPBY srcip\n",
            // a guarded counter (a branch);
            fig2::HIGH_P99_QUEUE_SIZE.source,
            // a windowed fold (window 1);
            "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple\n",
            // a non-linear fold (epoch mode).
            "def nonmt ((maxseq, nm_count), tcpseq):\n    if maxseq > tcpseq:\n        nm_count = nm_count + 1\n    maxseq = max(maxseq, tcpseq)\n\nSELECT 5tuple, nonmt GROUPBY 5tuple\n",
        ];
        for src in rejected {
            assert!(kernel_shape(src).is_none(), "{src}");
        }
    }

    /// A row per packet with varied `pkt_len`, `tin` and `tout`.
    fn kernel_rows(n: i64) -> Vec<Vec<Value>> {
        let schema = perfq_lang::base_schema();
        let col = |name| schema.index_of(name).unwrap();
        let (ilen, itin, itout) = (col("pkt_len"), col("tin"), col("tout"));
        (0..n)
            .map(|i| {
                let mut row = vec![Value::Int(0); schema.len()];
                row[ilen] = Value::Int(40 + (i * 37) % 1461);
                row[itin] = Value::Int(1000 * i);
                row[itout] = Value::Int(1000 * i + 50 + (i % 13) * 17);
                row
            })
            .collect()
    }

    #[test]
    fn const_a_kernel_is_bit_identical_to_the_bytecode_path() {
        let rows = kernel_rows(4000);
        for src in KERNEL_FOLDS {
            let (fold, params) = fold_of(src);
            let ops = FoldOps::new(fold.clone(), params.clone());
            let k = ops.fast.as_ref().expect("kernel engages");
            let program = bytecode::compile_stmts(&fold.body, &params);
            let mut fast_vars = StateVec::from_slice(&fold.init_state());
            let mut generic = fold.init_state();
            let mut stack = EvalStack::default();
            for (i, row) in rows.iter().enumerate() {
                k.update(&mut fast_vars, row, &params);
                program
                    .exec(&mut stack, &mut generic, row, &params)
                    .unwrap();
                for (v, var) in generic.iter_mut().zip(&fold.state) {
                    *v = v.coerce(var.ty);
                }
                // Exact equality, packet by packet — not a tolerance check.
                assert_eq!(&fast_vars[..], &generic[..], "{src}: packet {i}");
            }
        }
    }

    /// Through the whole runtime under a two-pair cache that evicts on
    /// nearly every packet, each kernel fold drains to the exact oracle.
    #[test]
    fn const_a_kernel_drains_to_the_oracle_under_eviction() {
        use crate::{compile_program, diff_tables, CompileOptions, Oracle, Runtime};
        use perfq_packet::PacketBuilder;
        use perfq_switch::QueueRecord;
        use std::net::Ipv4Addr;
        let recs: Vec<QueueRecord> = (0..3000u32)
            .map(|i| {
                let tin = u64::from(i) * 1000;
                QueueRecord {
                    packet: PacketBuilder::tcp()
                        .src(Ipv4Addr::new(10, 0, 0, (i * 7 % 5) as u8 + 1), 1000)
                        .dst(Ipv4Addr::new(172, 16, 0, 1), 80)
                        .seq(i)
                        .payload_len((i * 37 % 1400) as u16)
                        .uniq(u64::from(i))
                        .build(),
                    qid: 1,
                    tin: Nanos(tin),
                    tout: Nanos(tin + 50 + u64::from(i % 13) * 17),
                    qsize: 0,
                    qout: 0,
                    path: 0,
                }
            })
            .collect();
        let opts = CompileOptions {
            cache_pairs: 2,
            ways: 0,
            ..Default::default()
        };
        for src in KERNEL_FOLDS {
            let prog = compile(src, &fig2::default_params()).unwrap();
            let compiled = compile_program(prog, opts);
            let mut rt = Runtime::new(compiled.clone());
            for part in recs.chunks(64) {
                rt.process_batch(part);
            }
            rt.finish();
            assert!(rt.store_stats(0).unwrap().evictions > 1000, "{src}");
            let mut got = rt.collect();
            let mut want = Oracle::run(compiled, recs.iter().cloned());
            got.sort();
            want.sort();
            for (a, b) in got.tables.iter().zip(&want.tables) {
                assert!(a.rows.iter().all(|r| r.valid), "{src}");
                if let Some(d) = diff_tables(a, b, 1e-9) {
                    panic!("{src}: {d}");
                }
            }
        }
    }

    #[test]
    fn additivity_detection_rejects_scaled_updates() {
        let src = "def decay (s, (pkt_len)):\n    s = 0.5 * s + pkt_len\n\nSELECT srcip, decay GROUPBY srcip\n";
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold, params);
        assert!(!ops.is_additive());
    }

    #[test]
    fn additivity_detection_accepts_guarded_counter() {
        // perc: if qin > K: high += 1; tot += 1 — both additive.
        let prog = fig2::compile(&fig2::HIGH_P99_QUEUE_SIZE).unwrap();
        let g = match &prog.query("R1").unwrap().kind {
            ResolvedKind::GroupBy(g) => g.fold.clone(),
            _ => panic!("R1 aggregates"),
        };
        let ops = FoldOps::new(g, prog.param_values());
        assert!(ops.is_additive());
    }

    #[test]
    fn cross_coupled_linear_fold_merges_exactly() {
        // u += v; v += pkt_len — triangular A, needs the matrix path.
        let src = "def cpl ((u, v), (pkt_len)):\n    u = u + v\n    v = v + pkt_len\n\nSELECT srcip, cpl GROUPBY srcip\n";
        let (fold, params) = fold_of(src);
        let ops = FoldOps::new(fold.clone(), params.clone());
        assert!(!ops.is_additive(), "cross coupling needs ΠA");
        let schema = perfq_lang::base_schema();
        let ilen = schema.index_of("pkt_len").unwrap();
        let mut inputs = Vec::new();
        for i in 0..60u64 {
            let mut row = vec![Value::Int(0); schema.len()];
            row[ilen] = Value::Int(1 + (i as i64 % 5));
            inputs.push((i % 3, row));
        }
        let (got, want) = run_split_and_oracle(fold, params, &inputs);
        assert_eq!(got, want, "matrix merge must be exact for coupled folds");
    }
}
