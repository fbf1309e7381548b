//! Linear-in-state analysis (§3.2 of the paper).
//!
//! The paper's merge trick works when the fold's state update has the form
//! `S' = A·S + B` where `A` and `B` depend only on "a constant number of
//! packets preceding and including the current packet" (footnote 4). This
//! module *derives* that property from the fold body instead of trusting an
//! annotation — producing the "Linear in state?" column of Fig. 2.
//!
//! The analysis runs in two phases over the resolved body:
//!
//! 1. **Window inference** — a fixpoint that finds state variables whose
//!    value is a function of the most recent `k ≤ MAX_WINDOW` packets only
//!    (e.g. `lastseq = tcpseq + payload_len` in the out-of-sequence query).
//!    Window-ness is closed under arbitrary operations, so this phase ignores
//!    operator semantics entirely.
//! 2. **Affine check** — abstract interpretation in the domain of affine
//!    forms `Σ aᵢ·Sᵢ + b`, where each coefficient is an (abstract) window
//!    function. Multiplying two state-bearing forms, dividing or `max`-ing by
//!    state, or *branching on state-dependent conditions* falls to ⊤
//!    (non-linear). Branching on window conditions stays affine because the
//!    selected coefficients are themselves window functions.
//!
//! The distinction matters in practice: `outofseq` branches on `lastseq`
//! (a window variable) and stays linear; `nonmt` branches on `maxseq`
//! (updated via `max(maxseq, tcpseq)`, not a window function) and is not —
//! exactly the verdicts the paper's Fig. 2 table reports.

use crate::ir::{FoldClass, RExpr, RStmt, VarClass};
use std::collections::{BTreeMap, HashSet};

/// Maximum bounded-packet-history depth the analysis will certify. Deeper
/// dependencies are treated as unbounded (non-window). The paper's examples
/// need depth 1; real hardware (Marple's Banzai machine) supports similarly
/// small windows.
pub const MAX_WINDOW: u32 = 4;

/// Analyze a fold body, returning per-variable classes and the fold class.
#[must_use]
pub fn analyze(body: &[RStmt], n_state: usize) -> (Vec<VarClass>, FoldClass) {
    let windows = infer_windows(body, n_state);
    let affine = check_affine(body, n_state, &windows);

    let mut classes = Vec::with_capacity(n_state);
    for i in 0..n_state {
        let class = match windows[i] {
            Some(d) => VarClass::Window(d),
            None => {
                if affine[i] {
                    VarClass::Linear
                } else {
                    VarClass::NonLinear
                }
            }
        };
        classes.push(class);
    }

    let max_window = classes
        .iter()
        .filter_map(|c| match c {
            VarClass::Window(d) => Some(*d),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let fold_class = if classes.iter().any(|c| matches!(c, VarClass::NonLinear)) {
        FoldClass::NonLinear
    } else if classes.iter().all(|c| matches!(c, VarClass::Window(_))) {
        FoldClass::PureWindow { window: max_window }
    } else {
        FoldClass::Linear { window: max_window }
    };
    (classes, fold_class)
}

// ---------------------------------------------------------------------------
// Phase 1: window inference
// ---------------------------------------------------------------------------

/// Abstract value for phase 1: a window function of bounded depth, or a value
/// mixing in non-window state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Win {
    /// Function of the current packet and at most `d` preceding packets.
    Depth(u32),
    /// Depends on state that is not (known to be) a window function.
    Mix,
}

impl Win {
    fn join(self, other: Win) -> Win {
        match (self, other) {
            (Win::Depth(a), Win::Depth(b)) => Win::Depth(a.max(b)),
            _ => Win::Mix,
        }
    }
}

/// Fixpoint: `Some(d)` = window of depth `d`, `None` = not a window function.
fn infer_windows(body: &[RStmt], n_state: usize) -> Vec<Option<u32>> {
    // Variables never assigned anywhere keep their initial value forever —
    // constants, i.e. windows of depth 0.
    let mut assigned_anywhere = HashSet::new();
    collect_assigned(body, &mut assigned_anywhere);

    // Optimistic start: everything is a depth-0 window; iterate, growing
    // depths; demote to non-window past MAX_WINDOW.
    let mut classes: Vec<Option<u32>> = vec![Some(0); n_state];
    loop {
        let mut env: Vec<Win> = classes
            .iter()
            .map(|c| match c {
                Some(d) => Win::Depth(*d),
                None => Win::Mix,
            })
            .collect();
        let mut touched = HashSet::new();
        exec_win(body, &mut env, &mut touched);

        let mut next = classes.clone();
        for i in 0..n_state {
            if !assigned_anywhere.contains(&i) {
                next[i] = Some(0);
                continue;
            }
            next[i] = match env[i] {
                // One packet later, a depth-d value spans d+1 packets back.
                Win::Depth(d) if d < MAX_WINDOW => Some(d + 1),
                _ => None,
            };
        }
        if next == classes {
            return classes;
        }
        classes = next;
    }
}

fn collect_assigned(body: &[RStmt], out: &mut HashSet<usize>) {
    for s in body {
        match s {
            RStmt::Assign(i, _) => {
                out.insert(*i);
            }
            RStmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, out);
                collect_assigned(else_body, out);
            }
        }
    }
}

fn eval_win(e: &RExpr, env: &[Win]) -> Win {
    match e {
        RExpr::Const(_) | RExpr::Param(_) | RExpr::Input(_) => Win::Depth(0),
        RExpr::State(i) => env[*i],
        RExpr::Unary(_, x) => eval_win(x, env),
        RExpr::Binary(_, l, r) => eval_win(l, env).join(eval_win(r, env)),
        RExpr::Call(_, args) => args
            .iter()
            .map(|a| eval_win(a, env))
            .fold(Win::Depth(0), Win::join),
    }
}

fn exec_win(body: &[RStmt], env: &mut [Win], touched: &mut HashSet<usize>) {
    for s in body {
        match s {
            RStmt::Assign(i, e) => {
                env[*i] = eval_win(e, env);
                touched.insert(*i);
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_win(cond, env);
                let mut env_t = env.to_vec();
                let mut env_f = env.to_vec();
                let mut touched_t = HashSet::new();
                let mut touched_f = HashSet::new();
                exec_win(then_body, &mut env_t, &mut touched_t);
                exec_win(else_body, &mut env_f, &mut touched_f);
                for i in 0..env.len() {
                    if touched_t.contains(&i) || touched_f.contains(&i) {
                        env[i] = c.join(env_t[i].join(env_f[i]));
                        touched.insert(i);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Phase 2: affine check
// ---------------------------------------------------------------------------

/// Abstract value for phase 2: an affine form `Σ aᵢ·Sᵢ + b` over the
/// non-window state variables, where each `aᵢ` and `b` is a window function
/// whose depth we track, or ⊤.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Aff {
    /// `coeffs[i]` is the window depth of variable `i`'s coefficient;
    /// `b` is the window depth of the state-free term.
    Form {
        coeffs: BTreeMap<usize, u32>,
        b: u32,
    },
    /// Not affine.
    Top,
}

impl Aff {
    fn pure(depth: u32) -> Aff {
        Aff::Form {
            coeffs: BTreeMap::new(),
            b: depth,
        }
    }

    fn var(i: usize) -> Aff {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(i, 0);
        Aff::Form { coeffs, b: 0 }
    }

    fn is_pure(&self) -> bool {
        matches!(self, Aff::Form { coeffs, .. } if coeffs.is_empty())
    }

    fn pure_depth(&self) -> Option<u32> {
        match self {
            Aff::Form { coeffs, b } if coeffs.is_empty() => Some(*b),
            _ => None,
        }
    }

    /// Addition / subtraction: union of coefficient maps.
    fn add(&self, other: &Aff) -> Aff {
        match (self, other) {
            (Aff::Form { coeffs: c1, b: b1 }, Aff::Form { coeffs: c2, b: b2 }) => {
                let mut coeffs = c1.clone();
                for (v, d) in c2 {
                    coeffs
                        .entry(*v)
                        .and_modify(|cur| *cur = (*cur).max(*d))
                        .or_insert(*d);
                }
                Aff::Form {
                    coeffs,
                    b: (*b1).max(*b2),
                }
            }
            _ => Aff::Top,
        }
    }

    /// Multiplication: one side must be state-free.
    fn mul(&self, other: &Aff) -> Aff {
        match (self, other) {
            (Aff::Form { .. }, Aff::Form { .. }) => {
                if let Some(d) = self.pure_depth() {
                    other.scale(d)
                } else if let Some(d) = other.pure_depth() {
                    self.scale(d)
                } else {
                    Aff::Top
                }
            }
            _ => Aff::Top,
        }
    }

    fn scale(&self, depth: u32) -> Aff {
        match self {
            Aff::Form { coeffs, b } => Aff::Form {
                coeffs: coeffs.iter().map(|(v, d)| (*v, (*d).max(depth))).collect(),
                b: (*b).max(depth),
            },
            Aff::Top => Aff::Top,
        }
    }

    /// Conditional-select join under a window condition of depth `cond_d`:
    /// `c ? x : y` — coefficients become `c ? a₁ : a₂`, still window functions.
    fn select_join(&self, other: &Aff, cond_d: u32) -> Aff {
        match self.add(other) {
            Aff::Form { coeffs, b } => Aff::Form {
                coeffs: coeffs
                    .into_iter()
                    .map(|(v, d)| (v, d.max(cond_d)))
                    .collect(),
                b: b.max(cond_d),
            },
            Aff::Top => Aff::Top,
        }
    }
}

/// Returns, per state variable, whether its update row is affine.
fn check_affine(body: &[RStmt], n_state: usize, windows: &[Option<u32>]) -> Vec<bool> {
    let mut env: Vec<Aff> = (0..n_state)
        .map(|i| match windows[i] {
            Some(d) => Aff::pure(d),
            None => Aff::var(i),
        })
        .collect();
    let mut touched = HashSet::new();
    exec_aff(body, &mut env, &mut touched);
    env.iter().map(|a| !matches!(a, Aff::Top)).collect()
}

fn eval_aff(e: &RExpr, env: &[Aff]) -> Aff {
    use crate::ast::BinOp::*;
    match e {
        RExpr::Const(_) | RExpr::Param(_) | RExpr::Input(_) => Aff::pure(0),
        RExpr::State(i) => env[*i].clone(),
        RExpr::Unary(_, x) => {
            // Negation preserves affinity; `not` of a pure boolean is pure,
            // `not` of a state-dependent boolean is Top (comparisons already
            // degrade state-bearing operands to Top below).
            eval_aff(x, env)
        }
        RExpr::Binary(op, l, r) => {
            let lv = eval_aff(l, env);
            let rv = eval_aff(r, env);
            match op {
                Add | Sub => lv.add(&rv),
                Mul => lv.mul(&rv),
                Div => {
                    if let Some(d) = rv.pure_depth() {
                        lv.scale(d)
                    } else {
                        Aff::Top
                    }
                }
                Mod => {
                    if lv.is_pure() && rv.is_pure() {
                        lv.add(&rv)
                    } else {
                        Aff::Top
                    }
                }
                Eq | Ne | Lt | Le | Gt | Ge | And | Or => {
                    // Comparisons and logic are arbitrary (non-affine)
                    // functions of their operands: pure in → pure out,
                    // state in → Top.
                    if lv.is_pure() && rv.is_pure() {
                        lv.add(&rv)
                    } else {
                        Aff::Top
                    }
                }
            }
        }
        RExpr::Call(_, args) => {
            // max/min/abs are non-affine: only pure arguments stay pure.
            let mut depth = 0u32;
            for a in args {
                match eval_aff(a, env).pure_depth() {
                    Some(d) => depth = depth.max(d),
                    None => return Aff::Top,
                }
            }
            Aff::pure(depth)
        }
    }
}

fn exec_aff(body: &[RStmt], env: &mut [Aff], touched: &mut HashSet<usize>) {
    for s in body {
        match s {
            RStmt::Assign(i, e) => {
                env[*i] = eval_aff(e, env);
                touched.insert(*i);
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_aff(cond, env);
                let mut env_t = env.to_vec();
                let mut env_f = env.to_vec();
                let mut touched_t = HashSet::new();
                let mut touched_f = HashSet::new();
                exec_aff(then_body, &mut env_t, &mut touched_t);
                exec_aff(else_body, &mut env_f, &mut touched_f);
                match c.pure_depth() {
                    Some(cond_d) => {
                        for (i, slot) in env.iter_mut().enumerate() {
                            if touched_t.contains(&i) || touched_f.contains(&i) {
                                *slot = env_t[i].select_join(&env_f[i], cond_d);
                                touched.insert(i);
                            }
                        }
                    }
                    None => {
                        // Branching on state: every variable written in either
                        // branch becomes non-linear.
                        for (i, slot) in env.iter_mut().enumerate() {
                            if touched_t.contains(&i) || touched_f.contains(&i) {
                                *slot = Aff::Top;
                                touched.insert(i);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::types::Value;

    fn state(i: usize) -> RExpr {
        RExpr::State(i)
    }
    fn input(i: usize) -> RExpr {
        RExpr::Input(i)
    }
    fn int(v: i64) -> RExpr {
        RExpr::Const(Value::Int(v))
    }
    fn bin(op: BinOp, l: RExpr, r: RExpr) -> RExpr {
        RExpr::Binary(op, Box::new(l), Box::new(r))
    }
    fn assign(i: usize, e: RExpr) -> RStmt {
        RStmt::Assign(i, e)
    }

    #[test]
    fn counter_is_linear() {
        // s = s + 1
        let body = vec![assign(0, bin(BinOp::Add, state(0), int(1)))];
        let (classes, fold) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::Linear]);
        assert_eq!(fold, FoldClass::Linear { window: 0 });
        assert_eq!(fold.paper_verdict(), "Yes");
    }

    #[test]
    fn sum_is_linear() {
        // s = s + pkt_len
        let body = vec![assign(0, bin(BinOp::Add, state(0), input(0)))];
        let (_, fold) = analyze(&body, 1);
        assert_eq!(fold, FoldClass::Linear { window: 0 });
    }

    #[test]
    fn ewma_is_linear() {
        // s = (1 - α)·s + α·x   (α is Param(0))
        let a = RExpr::Param(0);
        let body = vec![assign(
            0,
            bin(
                BinOp::Add,
                bin(
                    BinOp::Mul,
                    bin(BinOp::Sub, RExpr::Const(Value::Float(1.0)), a.clone()),
                    state(0),
                ),
                bin(BinOp::Mul, a, input(0)),
            ),
        )];
        let (classes, fold) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::Linear]);
        assert_eq!(fold, FoldClass::Linear { window: 0 });
    }

    #[test]
    fn last_value_is_window() {
        // lastseq = tcpseq + payload_len
        let body = vec![assign(0, bin(BinOp::Add, input(0), input(1)))];
        let (classes, fold) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::Window(1)]);
        assert_eq!(fold, FoldClass::PureWindow { window: 1 });
    }

    #[test]
    fn out_of_seq_is_linear_with_window_1() {
        // state: 0=lastseq, 1=oos_count; inputs: 0=tcpseq, 1=payload_len
        // if lastseq + 1 != tcpseq: oos_count = oos_count + 1
        // lastseq = tcpseq + payload_len
        let body = vec![
            RStmt::If {
                cond: bin(BinOp::Ne, bin(BinOp::Add, state(0), int(1)), input(0)),
                then_body: vec![assign(1, bin(BinOp::Add, state(1), int(1)))],
                else_body: vec![],
            },
            assign(0, bin(BinOp::Add, input(0), input(1))),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes[0], VarClass::Window(1));
        assert_eq!(classes[1], VarClass::Linear);
        assert_eq!(fold, FoldClass::Linear { window: 1 });
        assert_eq!(fold.paper_verdict(), "Yes");
    }

    #[test]
    fn non_monotonic_is_not_linear() {
        // state: 0=maxseq, 1=nm_count; input: 0=tcpseq
        // if maxseq > tcpseq: nm_count = nm_count + 1
        // maxseq = max(maxseq, tcpseq)
        let body = vec![
            RStmt::If {
                cond: bin(BinOp::Gt, state(0), input(0)),
                then_body: vec![assign(1, bin(BinOp::Add, state(1), int(1)))],
                else_body: vec![],
            },
            assign(
                0,
                RExpr::Call(crate::ir::Builtin::Max, vec![state(0), input(0)]),
            ),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes[0], VarClass::NonLinear);
        assert_eq!(classes[1], VarClass::NonLinear);
        assert_eq!(fold, FoldClass::NonLinear);
        assert_eq!(fold.paper_verdict(), "No");
    }

    #[test]
    fn conditional_persistence_is_linear_not_window() {
        // if x > 0: v = x        (v persists when x ≤ 0 → unbounded history,
        //                         but v' = [x>0]·x + [x≤0]·v is affine)
        let body = vec![RStmt::If {
            cond: bin(BinOp::Gt, input(0), int(0)),
            then_body: vec![assign(0, input(0))],
            else_body: vec![],
        }];
        let (classes, fold) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::Linear]);
        assert_eq!(fold, FoldClass::Linear { window: 0 });
    }

    #[test]
    fn state_times_state_is_nonlinear() {
        // s = s * s
        let body = vec![assign(0, bin(BinOp::Mul, state(0), state(0)))];
        let (classes, _) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::NonLinear]);
    }

    #[test]
    fn division_by_state_is_nonlinear() {
        // s = x / s
        let body = vec![assign(0, bin(BinOp::Div, input(0), state(0)))];
        let (classes, _) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::NonLinear]);
    }

    #[test]
    fn division_of_state_by_packet_is_linear() {
        // s = s / x
        let body = vec![assign(0, bin(BinOp::Div, state(0), input(0)))];
        let (classes, _) = analyze(&body, 1);
        assert_eq!(classes, vec![VarClass::Linear]);
    }

    #[test]
    fn cross_variable_affine_is_linear() {
        // u = u + v; v = v + x  — vector-linear (triangular matrix).
        let body = vec![
            assign(0, bin(BinOp::Add, state(0), state(1))),
            assign(1, bin(BinOp::Add, state(1), input(0))),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes, vec![VarClass::Linear, VarClass::Linear]);
        assert!(matches!(fold, FoldClass::Linear { .. }));
    }

    #[test]
    fn linear_var_coupled_to_nonlinear_var_sinks_fold() {
        // u = u + v (affine row) but v = max(v, x) (non-linear row).
        let body = vec![
            assign(0, bin(BinOp::Add, state(0), state(1))),
            assign(
                1,
                RExpr::Call(crate::ir::Builtin::Max, vec![state(1), input(0)]),
            ),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes[0], VarClass::Linear);
        assert_eq!(classes[1], VarClass::NonLinear);
        assert_eq!(fold, FoldClass::NonLinear);
    }

    #[test]
    fn unassigned_variable_is_constant_window() {
        // Only s0 is updated; s1 is never assigned.
        let body = vec![assign(0, bin(BinOp::Add, state(0), int(1)))];
        let (classes, _) = analyze(&body, 2);
        assert_eq!(classes[1], VarClass::Window(0));
    }

    #[test]
    fn window_chain_depth_accumulates() {
        // prev2 = prev1 (entry); prev1 = x — two-deep history, both windows.
        let body = vec![assign(1, state(0)), assign(0, input(0))];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes[0], VarClass::Window(1));
        assert_eq!(classes[1], VarClass::Window(2));
        assert_eq!(fold, FoldClass::PureWindow { window: 2 });
    }

    #[test]
    fn branch_on_linear_state_is_nonlinear() {
        // if s > K: c = c + 1 ; s = s + x   — branching on accumulated state.
        let body = vec![
            RStmt::If {
                cond: bin(BinOp::Gt, state(0), RExpr::Param(0)),
                then_body: vec![assign(1, bin(BinOp::Add, state(1), int(1)))],
                else_body: vec![],
            },
            assign(0, bin(BinOp::Add, state(0), input(0))),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes[0], VarClass::Linear);
        assert_eq!(classes[1], VarClass::NonLinear);
        assert_eq!(fold, FoldClass::NonLinear);
    }

    #[test]
    fn percentile_fold_is_linear() {
        // if qin > K: high = high + 1
        // tot = tot + 1
        let body = vec![
            RStmt::If {
                cond: bin(BinOp::Gt, input(0), RExpr::Param(0)),
                then_body: vec![assign(0, bin(BinOp::Add, state(0), int(1)))],
                else_body: vec![],
            },
            assign(1, bin(BinOp::Add, state(1), int(1))),
        ];
        let (classes, fold) = analyze(&body, 2);
        assert_eq!(classes, vec![VarClass::Linear, VarClass::Linear]);
        assert_eq!(fold, FoldClass::Linear { window: 0 });
    }
}
