//! Tokens and source spans for the performance query language.

use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of the start.
    pub line: u32,
}

impl Span {
    /// Create a span.
    #[must_use]
    pub fn new(start: usize, end: usize, line: u32) -> Self {
        Span { start, end, line }
    }

    /// The span covering both `self` and `other`.
    #[must_use]
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

/// The kind of a lexed token.
///
/// SQL-ish keywords (`SELECT`, `GROUPBY`, …) are recognized
/// case-insensitively because the paper itself mixes cases
/// (`GROUPBY` in §2, `groupby` in Fig. 2). Identifiers keep their case.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // ---- keywords ----
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `WHERE`
    Where,
    /// `GROUPBY`
    GroupBy,
    /// `JOIN`
    Join,
    /// `ON`
    On,
    /// `AS`
    As,
    /// `def`
    Def,
    /// `if`
    If,
    /// `elif`
    Elif,
    /// `else`
    Else,
    /// `then`
    Then,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `const`
    Const,
    /// `true`
    True,
    /// `false`
    False,
    /// `infinity` — the paper's drop sentinel (`tout == infinity`)
    Infinity,
    /// The `5tuple` field-list abbreviation from Fig. 2.
    FiveTuple,

    // ---- literals & names ----
    /// An identifier.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A duration literal, normalized to nanoseconds (`1ms` → 1_000_000).
    Duration(i64),

    // ---- punctuation ----
    /// `=`
    Assign,
    /// `==`
    EqEq,
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    PercentSign,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,

    // ---- layout ----
    /// End of a logical line.
    Newline,
    /// Increase of indentation depth.
    Indent,
    /// Decrease of indentation depth.
    Dedent,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True for tokens that can begin a query clause — used by the parser to
    /// join wrapped lines (the paper's figures wrap `WHERE`/`GROUPBY` onto
    /// continuation lines).
    #[must_use]
    pub fn is_clause_keyword(&self) -> bool {
        matches!(
            self,
            TokenKind::Where
                | TokenKind::GroupBy
                | TokenKind::From
                | TokenKind::Join
                | TokenKind::On
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Select => write!(f, "SELECT"),
            TokenKind::From => write!(f, "FROM"),
            TokenKind::Where => write!(f, "WHERE"),
            TokenKind::GroupBy => write!(f, "GROUPBY"),
            TokenKind::Join => write!(f, "JOIN"),
            TokenKind::On => write!(f, "ON"),
            TokenKind::As => write!(f, "AS"),
            TokenKind::Def => write!(f, "def"),
            TokenKind::If => write!(f, "if"),
            TokenKind::Elif => write!(f, "elif"),
            TokenKind::Else => write!(f, "else"),
            TokenKind::Then => write!(f, "then"),
            TokenKind::And => write!(f, "and"),
            TokenKind::Or => write!(f, "or"),
            TokenKind::Not => write!(f, "not"),
            TokenKind::Const => write!(f, "const"),
            TokenKind::True => write!(f, "true"),
            TokenKind::False => write!(f, "false"),
            TokenKind::Infinity => write!(f, "infinity"),
            TokenKind::FiveTuple => write!(f, "5tuple"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Duration(ns) => write!(f, "{ns}ns"),
            TokenKind::Assign => write!(f, "="),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::PercentSign => write!(f, "%"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Newline => write!(f, "<newline>"),
            TokenKind::Indent => write!(f, "<indent>"),
            TokenKind::Dedent => write!(f, "<dedent>"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
}
