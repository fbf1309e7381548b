//! Diagnostics for the query language front-end.

use crate::token::Span;
use std::fmt;

/// A compile-time error with a source location.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// Which phase rejected the program.
    pub phase: Phase,
    /// Human-readable message.
    pub message: String,
    /// Source location, when known.
    pub span: Option<Span>,
}

/// Compiler phase that produced an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Parsing.
    Parse,
    /// Name resolution and type checking.
    Resolve,
}

impl LangError {
    /// A lexer error.
    #[must_use]
    pub fn lex(message: impl Into<String>, span: Span) -> Self {
        LangError {
            phase: Phase::Lex,
            message: message.into(),
            span: Some(span),
        }
    }

    /// A parser error.
    #[must_use]
    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        LangError {
            phase: Phase::Parse,
            message: message.into(),
            span: Some(span),
        }
    }

    /// A resolution / type error.
    #[must_use]
    pub fn resolve(message: impl Into<String>, span: Option<Span>) -> Self {
        LangError {
            phase: Phase::Resolve,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "line {}: {}", span.line, self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for LangError {}

/// Convenience alias used throughout the front-end.
pub type LangResult<T> = Result<T, LangError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_without_span() {
        let err = LangError::resolve("unknown column `x`", None);
        assert_eq!(err.to_string(), "unknown column `x`");
    }
}
