//! Abstract syntax of the performance query language (Fig. 1 of the paper).

use crate::token::Span;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always produces a float, like SQL's ratio semantics)
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// True for comparison operators (result type Bool).
    #[must_use]
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for boolean connectives.
    #[must_use]
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Binding strength (higher binds tighter) — the one table both
    /// printers, [`Expr::canonical`] and `pretty::expr`, parenthesize by.
    #[must_use]
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Duration literal, already normalized to nanoseconds.
    Duration(i64),
    /// Boolean literal.
    Bool(bool),
    /// The drop sentinel (`infinity`).
    Infinity,
    /// A bare name: schema field, state variable, fold name, constant or
    /// query parameter — resolution decides which.
    Name(String, Span),
    /// A qualified name: `R1.COUNT`, `perc.high`.
    Qualified(String, String, Span),
    /// The `5tuple` field-list abbreviation (only legal in list contexts).
    FiveTuple(Span),
    /// A function call: `SUM(pkt_len)`, `max(a, b)`. Bare `COUNT` parses as
    /// `Name` and is recognized during resolution.
    Call(String, Vec<Expr>, Span),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The source span of the expression, when it carries one.
    #[must_use]
    pub fn span(&self) -> Option<Span> {
        match self {
            Expr::Name(_, s)
            | Expr::Qualified(_, _, s)
            | Expr::FiveTuple(s)
            | Expr::Call(_, _, s) => Some(*s),
            Expr::Unary(_, e) => e.span(),
            Expr::Binary(_, l, r) => match (l.span(), r.span()) {
                (Some(a), Some(b)) => Some(a.merge(b)),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
            _ => None,
        }
    }

    /// Canonical text of the expression — used to *name* aggregate columns so
    /// that `SUM(tout-tin)` in a downstream `WHERE` resolves to the column a
    /// previous query produced (paper §2, "per-flow high latency packets").
    /// Parentheses stand exactly where `pretty::expr` puts them (the same
    /// [`BinOp::precedence`] table and left-associativity rule), without
    /// spaces, so two different expressions never share a name.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical_within(0)
    }

    /// [`Expr::canonical`] as an operand of an operator of precedence
    /// `parent`.
    fn canonical_within(&self, parent: u8) -> String {
        match self {
            Expr::Int(v) => v.to_string(),
            Expr::Float(v) => format!("{v}"),
            Expr::Duration(ns) => format!("{ns}ns"),
            Expr::Bool(b) => b.to_string(),
            Expr::Infinity => "infinity".into(),
            Expr::Name(n, _) => n.clone(),
            Expr::Qualified(a, b, _) => format!("{a}.{b}"),
            Expr::FiveTuple(_) => "5tuple".into(),
            Expr::Call(f, args, _) => {
                let inner: Vec<String> = args.iter().map(Expr::canonical).collect();
                // Qualified aggregate references keep the table name's case:
                // `R2.sum(x)` canonicalizes to `R2.SUM(x)`.
                let name = match f.rsplit_once('.') {
                    Some((base, func)) => format!("{base}.{}", func.to_uppercase()),
                    None => f.to_uppercase(),
                };
                format!("{}({})", name, inner.join(","))
            }
            Expr::Unary(UnaryOp::Neg, e) => format!("-{}", e.canonical_within(6)),
            Expr::Unary(UnaryOp::Not, e) => {
                let s = format!("not {}", e.canonical_within(3));
                if parent > 2 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Binary(op, l, r) => {
                let p = op.precedence();
                // Left-associative: the right operand needs a strictly
                // higher level.
                let s = format!("{}{op}{}", l.canonical_within(p), r.canonical_within(p + 1));
                if p < parent {
                    format!("({s})")
                } else {
                    s
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => write!(f, "{v}"),
            Expr::Duration(ns) => write!(f, "{ns}ns"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Infinity => write!(f, "infinity"),
            Expr::Name(n, _) => write!(f, "{n}"),
            Expr::Qualified(a, b, _) => write!(f, "{a}.{b}"),
            Expr::FiveTuple(_) => write!(f, "5tuple"),
            Expr::Call(name, args, _) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "(not {e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// A statement inside a fold-function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `x = expr`
    Assign(String, Expr, Span),
    /// `if cond: … [elif …] [else: …]` (also the paper's
    /// `if cond then … else …` form).
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements when true.
        then_body: Vec<Stmt>,
        /// Statements when false (empty when no `else`).
        else_body: Vec<Stmt>,
    },
}

/// A user-defined fold function:
/// `def name(state_params, (packet_params)): body`.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldDef {
    /// Function name.
    pub name: String,
    /// State accumulator names (one or a parenthesized tuple).
    pub state_params: Vec<String>,
    /// Packet argument names. Bodies may also reference schema columns not
    /// listed here (the paper does: `outofseq` uses `payload_len` without
    /// declaring it in one of its two renditions).
    pub packet_params: Vec<String>,
    /// The body.
    pub body: Vec<Stmt>,
    /// Definition location.
    pub span: Span,
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional `AS` alias.
    Expr {
        /// The selected expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT … [FROM t] [GROUPBY fields] [WHERE pred]`
    Select(SelectQuery),
    /// `SELECT … FROM a JOIN b ON fields [WHERE pred]`
    Join(JoinQuery),
}

/// A select / aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// The projection list.
    pub select: Vec<SelectItem>,
    /// Input table (defaults to the packet-observation table `T`).
    pub from: Option<String>,
    /// GROUPBY fields (list items may be `5tuple`/`pkt_uniq` abbreviations).
    pub group_by: Option<Vec<Expr>>,
    /// Filter over the input table's records.
    pub where_clause: Option<Expr>,
    /// Query location.
    pub span: Span,
}

/// A restricted join (§2: the key must uniquely identify records of both
/// sides; the compiler checks both sides are GROUPBYs keyed exactly by `on`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// The projection list (usually with qualified columns).
    pub select: Vec<SelectItem>,
    /// Left input table name.
    pub left: String,
    /// Right input table name.
    pub right: String,
    /// Join key fields.
    pub on: Vec<Expr>,
    /// Filter over the joined records.
    pub where_clause: Option<Expr>,
    /// Query location.
    pub span: Span,
}

/// A top-level program item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `const name = literal`
    Const(String, Expr, Span),
    /// A fold definition.
    Fold(FoldDef),
    /// `Rn = query` — a named, reusable query.
    NamedQuery(String, Query, Span),
    /// A bare query (gets an auto-generated name).
    BareQuery(Query),
}

/// A full parsed program: consts, fold defs and queries in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Iterate over the fold definitions.
    pub fn folds(&self) -> impl Iterator<Item = &FoldDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Fold(fd) => Some(fd),
            _ => None,
        })
    }

    /// Iterate over `(name, query)` pairs; bare queries get `__q{i}` names.
    pub fn queries(&self) -> Vec<(String, &Query)> {
        let mut out = Vec::new();
        let mut anon = 0usize;
        for item in &self.items {
            match item {
                Item::NamedQuery(name, q, _) => out.push((name.clone(), q)),
                Item::BareQuery(q) => {
                    out.push((format!("__q{anon}"), q));
                    anon += 1;
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_strip_spaces() {
        let e = Expr::Call(
            "SUM".into(),
            vec![Expr::Binary(
                BinOp::Sub,
                Box::new(Expr::Name("tout".into(), Span::default())),
                Box::new(Expr::Name("tin".into(), Span::default())),
            )],
            Span::default(),
        );
        assert_eq!(e.canonical(), "SUM(tout-tin)");
    }

    #[test]
    fn canonical_uppercases_function_names() {
        let e = Expr::Call(
            "sum".into(),
            vec![Expr::Name("pkt_len".into(), Span::default())],
            Span::default(),
        );
        assert_eq!(e.canonical(), "SUM(pkt_len)");
    }

    #[test]
    fn display_parenthesizes_binaries() {
        let e = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Float(0.5)),
            Box::new(Expr::Name("x".into(), Span::default())),
        );
        assert_eq!(e.to_string(), "(0.5 * x)");
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }
}
