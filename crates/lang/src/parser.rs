//! Recursive-descent parser for the query language.
//!
//! The concrete grammar follows Fig. 1 of the paper, with the liberties the
//! paper's own examples take:
//!
//! * clause keywords are case-insensitive (`groupby` in Fig. 2);
//! * a query may wrap onto following lines when those lines begin with a
//!   clause keyword (`WHERE …` on its own line);
//! * fold bodies are Python-style indented blocks, single-line bodies
//!   (`if qin > K: high = high + 1`), or the grammar's
//!   `if pred then stmt else stmt` form;
//! * `5tuple` and `pkt_uniq` abbreviations are allowed wherever field lists
//!   appear.

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// How deep the parser lets a program nest. One level is a parenthesis or a
/// call argument, an operator application (so a left-associative chain of
/// `n` operators is `n` deep), a prefix `-` or `not`, an `if` or `elif`, and
/// the expression of a clause or statement itself.
///
/// Every later pass (resolution, typing, the linearity analysis, the bytecode
/// compiler, the reference interpreter, `Drop`) recurses over the tree, so an
/// unbounded tree overflows the thread's stack and aborts the process. The
/// value sits between two measurements: the deepest query in the repository
/// (the Fig. 2 folds, the examples, the workloads and the tests) nests 5
/// levels, and the costliest level, a nested call, overflows a 2 MiB thread
/// (the default for spawned threads and tests) at about 180 levels in an
/// unoptimised build, with the whole front end and the bytecode compiler
/// running. 100 is 20x the former and leaves that thread 45 % of its stack.
pub(crate) const MAX_DEPTH: usize = 100;

/// Parse a complete program.
pub fn parse(source: &str) -> LangResult<Program> {
    let tokens = lex(source)?;
    Parser {
        tokens,
        pos: 0,
        suppressed_indents: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Indent tokens swallowed while joining wrapped query lines; the
    /// matching Dedents are silently discarded when encountered.
    suppressed_indents: usize,
    /// Nesting at the current position, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, ahead: usize) -> &TokenKind {
        let idx = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, ctx: &str) -> LangResult<Token> {
        if self.peek() == kind {
            Ok(self.advance())
        } else {
            Err(LangError::parse(
                format!("expected `{kind}` {ctx}, found `{}`", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self, ctx: &str) -> LangResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let sp = self.span();
                self.advance();
                Ok((name, sp))
            }
            other => Err(LangError::parse(
                format!("expected identifier {ctx}, found `{other}`"),
                self.span(),
            )),
        }
    }

    /// Enter one more level of nesting, refusing the program past
    /// [`MAX_DEPTH`]. The caller restores `depth` when the construct ends.
    fn descend(&mut self) -> LangResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(LangError::parse(
                format!("the program nests deeper than {MAX_DEPTH} levels"),
                self.span(),
            ));
        }
        Ok(())
    }

    /// Consume layout noise at item boundaries: extra newlines, plus dedents
    /// that match previously suppressed indents.
    fn eat_layout(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Newline => {
                    self.advance();
                }
                TokenKind::Dedent if self.suppressed_indents > 0 => {
                    self.suppressed_indents -= 1;
                    self.advance();
                }
                _ => break,
            }
        }
    }

    // ---------------- program structure ----------------

    fn program(&mut self) -> LangResult<Program> {
        let mut items = Vec::new();
        loop {
            self.eat_layout();
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Const => items.push(self.const_decl()?),
                TokenKind::Def => items.push(Item::Fold(self.fold_def()?)),
                TokenKind::Select => {
                    let q = self.query()?;
                    items.push(Item::BareQuery(q));
                }
                TokenKind::Ident(_) if *self.peek_at(1) == TokenKind::Assign => {
                    let (name, sp) = self.expect_ident("for named query")?;
                    self.expect(&TokenKind::Assign, "after query name")?;
                    if *self.peek() != TokenKind::Select {
                        return Err(LangError::parse(
                            format!("only queries may be bound at top level; `{name} = …` must be followed by SELECT"),
                            self.span(),
                        ));
                    }
                    let q = self.query()?;
                    items.push(Item::NamedQuery(name, q, sp));
                }
                other => {
                    return Err(LangError::parse(
                        format!("expected `const`, `def`, or a query, found `{other}`"),
                        self.span(),
                    ))
                }
            }
        }
        Ok(Program { items })
    }

    fn const_decl(&mut self) -> LangResult<Item> {
        let sp = self.span();
        self.expect(&TokenKind::Const, "at constant declaration")?;
        let (name, _) = self.expect_ident("as constant name")?;
        self.expect(&TokenKind::Assign, "after constant name")?;
        let value = self.expr()?;
        self.end_of_line()?;
        Ok(Item::Const(name, value, sp))
    }

    fn end_of_line(&mut self) -> LangResult<()> {
        match self.peek() {
            TokenKind::Newline => {
                self.advance();
                Ok(())
            }
            TokenKind::Eof => Ok(()),
            other => Err(LangError::parse(
                format!("expected end of line, found `{other}`"),
                self.span(),
            )),
        }
    }

    // ---------------- fold definitions ----------------

    fn fold_def(&mut self) -> LangResult<FoldDef> {
        let sp = self.span();
        self.expect(&TokenKind::Def, "at fold definition")?;
        let (name, _) = self.expect_ident("as fold name")?;
        self.expect(&TokenKind::LParen, "after fold name")?;
        let state_params = self.param_group()?;
        self.expect(&TokenKind::Comma, "between state and packet parameters")?;
        let packet_params = self.param_group()?;
        self.expect(&TokenKind::RParen, "to close the parameter list")?;
        self.expect(&TokenKind::Colon, "before the fold body")?;
        let body = self.block()?;
        if body.is_empty() {
            return Err(LangError::parse("fold body may not be empty", sp));
        }
        Ok(FoldDef {
            name,
            state_params,
            packet_params,
            body,
            span: sp,
        })
    }

    /// A parameter group: `x` or `(x, y, z)` (empty `()` allowed for folds
    /// that take no packet arguments, e.g. a pure counter).
    fn param_group(&mut self) -> LangResult<Vec<String>> {
        if self.eat(&TokenKind::LParen) {
            if self.eat(&TokenKind::RParen) {
                return Ok(Vec::new());
            }
            let names = self.comma_list(|p| Ok(p.expect_ident("as parameter")?.0))?;
            self.expect(&TokenKind::RParen, "to close the parameter group")?;
            Ok(names)
        } else {
            let (n, _) = self.expect_ident("as parameter")?;
            Ok(vec![n])
        }
    }

    /// A statement block: either an indented suite following a newline, or a
    /// single statement on the same line.
    fn block(&mut self) -> LangResult<Vec<Stmt>> {
        if self.eat(&TokenKind::Newline) {
            self.expect(&TokenKind::Indent, "to open an indented block")?;
            let mut stmts = Vec::new();
            loop {
                if self.eat(&TokenKind::Dedent) {
                    break;
                }
                if *self.peek() == TokenKind::Eof {
                    break;
                }
                stmts.push(self.stmt()?);
                while self.eat(&TokenKind::Newline) {}
            }
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> LangResult<Stmt> {
        match self.peek().clone() {
            TokenKind::If => self.if_stmt(),
            TokenKind::Ident(_) => {
                let (name, sp) = self.expect_ident("at assignment")?;
                self.expect(&TokenKind::Assign, "after assignment target")?;
                let value = self.expr()?;
                Ok(Stmt::Assign(name, value, sp))
            }
            other => Err(LangError::parse(
                format!("expected a statement, found `{other}`"),
                self.span(),
            )),
        }
    }

    fn if_stmt(&mut self) -> LangResult<Stmt> {
        self.expect(&TokenKind::If, "at if statement")?;
        let depth = self.depth;
        self.descend()?;
        let cond = self.expr()?;
        let then_body = if self.eat(&TokenKind::Then) {
            // Paper grammar: `if pred then code else code` — single statement.
            vec![self.stmt()?]
        } else {
            self.expect(&TokenKind::Colon, "after if condition")?;
            self.block()?
        };
        let stmt = self.if_tail(cond, then_body)?;
        self.depth = depth;
        Ok(stmt)
    }

    /// The `elif` / `else` tail of an `if`, after an indented block (the
    /// current token) or on the same line. An `elif` nests as an `if` in the
    /// else branch.
    fn if_tail(&mut self, cond: Expr, then_body: Vec<Stmt>) -> LangResult<Stmt> {
        let else_body = if self.eat(&TokenKind::Elif) {
            self.descend()?;
            let cond = self.expr()?;
            self.expect(&TokenKind::Colon, "after elif condition")?;
            let then_body = self.block()?;
            vec![self.if_tail(cond, then_body)?]
        } else if self.eat(&TokenKind::Else) {
            if self.eat(&TokenKind::Colon) {
                self.block()?
            } else {
                vec![self.stmt()?]
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    // ---------------- queries ----------------

    /// If the current position is a newline and the following meaningful
    /// token begins a query clause, consume the layout and return true —
    /// this joins the paper's wrapped query lines.
    fn continue_clause(&mut self) -> bool {
        if *self.peek() != TokenKind::Newline {
            return self.peek().is_clause_keyword();
        }
        let mut look = self.pos + 1;
        let mut indents = 0usize;
        while look < self.tokens.len() {
            match &self.tokens[look].kind {
                TokenKind::Indent => {
                    indents += 1;
                    look += 1;
                }
                TokenKind::Newline => {
                    look += 1;
                }
                other if other.is_clause_keyword() => {
                    self.pos = look;
                    self.suppressed_indents += indents;
                    return true;
                }
                _ => return false,
            }
        }
        false
    }

    fn query(&mut self) -> LangResult<Query> {
        let sp = self.span();
        self.expect(&TokenKind::Select, "at query start")?;
        let select = self.comma_list(Self::select_item)?;
        let mut from: Option<String> = None;
        let mut group_by: Option<Vec<Expr>> = None;
        let mut where_clause: Option<Expr> = None;
        let mut join: Option<(String, String, Vec<Expr>)> = None;

        while self.continue_clause() {
            match self.peek().clone() {
                TokenKind::From => {
                    self.advance();
                    if from.is_some() || join.is_some() {
                        return Err(LangError::parse("duplicate FROM clause", self.span()));
                    }
                    let (left, _) = self.expect_ident("after FROM")?;
                    if self.eat(&TokenKind::Join) {
                        let (right, _) = self.expect_ident("after JOIN")?;
                        self.expect(&TokenKind::On, "after the joined table")?;
                        let on = self.comma_list(Self::expr)?;
                        join = Some((left, right, on));
                    } else {
                        from = Some(left);
                    }
                }
                TokenKind::GroupBy => {
                    self.advance();
                    if group_by.is_some() {
                        return Err(LangError::parse("duplicate GROUPBY clause", self.span()));
                    }
                    group_by = Some(self.comma_list(Self::expr)?);
                }
                TokenKind::Where => {
                    self.advance();
                    if where_clause.is_some() {
                        return Err(LangError::parse("duplicate WHERE clause", self.span()));
                    }
                    where_clause = Some(self.expr()?);
                }
                TokenKind::Join | TokenKind::On => {
                    return Err(LangError::parse(
                        "JOIN must follow a FROM clause (`FROM a JOIN b ON key`)",
                        self.span(),
                    ));
                }
                _ => break,
            }
        }
        self.end_of_line()?;

        if let Some((left, right, on)) = join {
            if group_by.is_some() {
                return Err(LangError::parse(
                    "JOIN queries may not have a GROUPBY clause",
                    sp,
                ));
            }
            return Ok(Query::Join(JoinQuery {
                select,
                left,
                right,
                on,
                where_clause,
                span: sp,
            }));
        }
        Ok(Query::Select(SelectQuery {
            select,
            from,
            group_by,
            where_clause,
            span: sp,
        }))
    }

    fn select_item(&mut self) -> LangResult<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Star);
        }
        let expr = self.expr()?;
        let alias = if self.eat(&TokenKind::As) {
            Some(self.expect_ident("after AS")?.0)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// One or more `item`s separated by commas.
    fn comma_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> LangResult<T>,
    ) -> LangResult<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat(&TokenKind::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A call's parenthesised argument list, possibly empty.
    fn call_args(&mut self) -> LangResult<Vec<Expr>> {
        self.expect(&TokenKind::LParen, "to open the argument list")?;
        if self.eat(&TokenKind::RParen) {
            return Ok(Vec::new());
        }
        let args = self.comma_list(Self::expr)?;
        self.expect(&TokenKind::RParen, "to close the argument list")?;
        Ok(args)
    }

    // ---------------- expressions ----------------

    /// One expression: a level of nesting of its own (a clause, a statement,
    /// a parenthesis or a call argument).
    fn expr(&mut self) -> LangResult<Expr> {
        let depth = self.depth;
        self.descend()?;
        let e = self.operators(OR)?;
        self.depth = depth;
        Ok(e)
    }

    /// An expression whose operators bind at least as tightly as `min`, by
    /// precedence climbing over Fig. 1's levels: `or` < `and` < prefix `not`
    /// < one non-associative comparison < `+ -` < `* / %` < prefix `-`. Each
    /// operator is one more level of nesting.
    fn operators(&mut self, min: u8) -> LangResult<Expr> {
        let depth = self.depth;
        let (mut lhs, mut lhs_level) = if min <= NOT && self.eat(&TokenKind::Not) {
            self.descend()?;
            let inner = self.operators(NOT)?;
            (Expr::Unary(UnaryOp::Not, Box::new(inner)), NOT)
        } else if self.eat(&TokenKind::Minus) {
            self.descend()?;
            let inner = self.operators(NEG)?;
            (Expr::Unary(UnaryOp::Neg, Box::new(inner)), NEG)
        } else {
            (self.postfix()?, ATOM)
        };
        while let Some((op, level)) = binary_op(self.peek()) {
            // Left-associative: `a - b - c` is `(a - b) - c`; a comparison
            // takes neither another comparison nor anything looser.
            if level < min || lhs_level < level || (level == CMP && lhs_level == CMP) {
                break;
            }
            self.advance();
            self.descend()?;
            let rhs = self.operators(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            lhs_level = level;
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn postfix(&mut self) -> LangResult<Expr> {
        let mut e = self.primary()?;
        while *self.peek() == TokenKind::Dot {
            let dot_span = self.span();
            self.advance();
            let (field, sp) = self.expect_ident("after `.`")?;
            match e {
                Expr::Name(base, base_sp) => {
                    // `R2.SUM(pkt_len)` — a qualified aggregate-column
                    // reference — parses as a call named `R2.SUM`.
                    if *self.peek() == TokenKind::LParen {
                        let args = self.call_args()?;
                        e = Expr::Call(format!("{base}.{field}"), args, base_sp.merge(sp));
                    } else {
                        e = Expr::Qualified(base, field, base_sp.merge(sp));
                    }
                }
                _ => {
                    return Err(LangError::parse(
                        "`.` may only qualify a name (`table.column`)",
                        dot_span,
                    ))
                }
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> LangResult<Expr> {
        let sp = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Float(v))
            }
            TokenKind::Duration(ns) => {
                self.advance();
                Ok(Expr::Duration(ns))
            }
            TokenKind::True => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::Infinity => {
                self.advance();
                Ok(Expr::Infinity)
            }
            TokenKind::FiveTuple => {
                self.advance();
                Ok(Expr::FiveTuple(sp))
            }
            TokenKind::Ident(name) => {
                self.advance();
                if *self.peek() == TokenKind::LParen {
                    Ok(Expr::Call(name, self.call_args()?, sp))
                } else {
                    Ok(Expr::Name(name, sp))
                }
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "to close the parenthesis")?;
                Ok(inner)
            }
            other => Err(LangError::parse(
                format!("expected an expression, found `{other}`"),
                sp,
            )),
        }
    }
}

// Operator levels, loosest first (see `Parser::operators`).
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;
const NEG: u8 = 7;
const ATOM: u8 = 8;

/// The binary operator a token spells, with its level.
fn binary_op(t: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match t {
        TokenKind::Or => (BinOp::Or, OR),
        TokenKind::And => (BinOp::And, AND),
        TokenKind::EqEq => (BinOp::Eq, CMP),
        TokenKind::Ne => (BinOp::Ne, CMP),
        TokenKind::Lt => (BinOp::Lt, CMP),
        TokenKind::Le => (BinOp::Le, CMP),
        TokenKind::Gt => (BinOp::Gt, CMP),
        TokenKind::Ge => (BinOp::Ge, CMP),
        TokenKind::Plus => (BinOp::Add, ADD),
        TokenKind::Minus => (BinOp::Sub, ADD),
        TokenKind::Star => (BinOp::Mul, MUL),
        TokenKind::Slash => (BinOp::Div, MUL),
        TokenKind::PercentSign => (BinOp::Mod, MUL),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {}\nsource:\n{src}", e),
        }
    }

    #[test]
    fn simple_select_where() {
        let p = parse_ok("SELECT srcip, qid FROM T WHERE tout - tin > 1ms\n");
        assert_eq!(p.items.len(), 1);
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => {
                assert_eq!(q.select.len(), 2);
                assert_eq!(q.from.as_deref(), Some("T"));
                assert!(q.where_clause.is_some());
                assert!(q.group_by.is_none());
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn groupby_without_from_defaults() {
        let p = parse_ok("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip");
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => {
                assert!(q.from.is_none());
                assert_eq!(q.group_by.as_ref().unwrap().len(), 2);
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn fold_def_with_indented_body() {
        let src = "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n";
        let p = parse_ok(src);
        let folds: Vec<_> = p.folds().collect();
        assert_eq!(folds.len(), 1);
        assert_eq!(folds[0].name, "ewma");
        assert_eq!(folds[0].state_params, vec!["lat_est"]);
        assert_eq!(folds[0].packet_params, vec!["tin", "tout"]);
        assert_eq!(folds[0].body.len(), 1);
    }

    #[test]
    fn fold_def_tuple_state() {
        let src = "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n";
        let p = parse_ok(src);
        let fd = p.folds().next().unwrap();
        assert_eq!(fd.state_params, vec!["lastseq", "oos_count"]);
        assert_eq!(fd.body.len(), 2);
        assert!(matches!(fd.body[0], Stmt::If { .. }));
        assert!(matches!(fd.body[1], Stmt::Assign(..)));
    }

    #[test]
    fn single_line_if_body() {
        let src =
            "def perc ((tot, high), qin):\n    if qin > K: high = high + 1\n    tot = tot + 1\n";
        let p = parse_ok(src);
        let fd = p.folds().next().unwrap();
        assert_eq!(fd.body.len(), 2);
        match &fd.body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert!(else_body.is_empty());
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn if_then_else_paper_form() {
        let src = "def f (s, (x)):\n    if x > 0 then s = s + 1 else s = s - 1\n";
        let p = parse_ok(src);
        let fd = p.folds().next().unwrap();
        match &fd.body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn if_else_indented() {
        let src =
            "def f (s, (x)):\n    if x > 0:\n        s = s + 1\n    else:\n        s = s - 1\n";
        let p = parse_ok(src);
        let fd = p.folds().next().unwrap();
        match &fd.body[0] {
            Stmt::If { else_body, .. } => assert_eq!(else_body.len(), 1),
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn elif_desugars_to_nested_if() {
        let src = "def f (s, (x)):\n    if x > 10:\n        s = 2\n    elif x > 5:\n        s = 1\n    else:\n        s = 0\n";
        let p = parse_ok(src);
        let fd = p.folds().next().unwrap();
        match &fd.body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn named_queries_and_join() {
        let src = "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n";
        let p = parse_ok(src);
        let queries = p.queries();
        assert_eq!(queries.len(), 3);
        assert_eq!(queries[0].0, "R1");
        match queries[2].1 {
            Query::Join(j) => {
                assert_eq!(j.left, "R1");
                assert_eq!(j.right, "R2");
                assert_eq!(j.on.len(), 1);
                assert!(matches!(j.on[0], Expr::FiveTuple(_)));
            }
            other => panic!("unexpected query {other:?}"),
        }
    }

    #[test]
    fn wrapped_where_clause_joins_lines() {
        let src = "R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple\n    WHERE SUM(tout-tin) > L\nR3 = SELECT COUNT GROUPBY srcip\n";
        let p = parse_ok(src);
        let queries = p.queries();
        assert_eq!(queries.len(), 2);
        match queries[0].1 {
            Query::Select(q) => assert!(q.where_clause.is_some()),
            other => panic!("unexpected query {other:?}"),
        }
    }

    #[test]
    fn wrapped_clause_at_column_zero() {
        let src = "SELECT 5tuple GROUPBY 5tuple\nWHERE proto == 6\n";
        let p = parse_ok(src);
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => assert!(q.where_clause.is_some()),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let src = "R2 = SELECT * from R1 WHERE perc.high/perc.tot > 0.01\n";
        let p = parse_ok(src);
        match p.queries()[0].1 {
            Query::Select(q) => {
                assert!(matches!(q.select[0], SelectItem::Star));
                let w = q.where_clause.as_ref().unwrap();
                assert!(w.canonical().contains("perc.high"));
            }
            other => panic!("unexpected query {other:?}"),
        }
    }

    #[test]
    fn const_declarations() {
        let src = "const alpha = 0.125\nconst L = 10ms\nSELECT srcip\n";
        let p = parse_ok(src);
        assert!(matches!(&p.items[0], Item::Const(n, Expr::Float(_), _) if n == "alpha"));
        assert!(matches!(&p.items[1], Item::Const(n, Expr::Duration(_), _) if n == "L"));
    }

    #[test]
    fn operator_precedence() {
        let src = "SELECT srcip WHERE a + b * c == d and e > f\n";
        let p = parse_ok(src);
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => {
                let w = q.where_clause.as_ref().unwrap();
                // ((a + (b*c)) == d) and (e > f)
                assert_eq!(w.to_string(), "(((a + (b * c)) == d) and (e > f))");
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_not() {
        let src = "SELECT srcip WHERE not -x > 3\n";
        let p = parse_ok(src);
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => {
                assert_eq!(
                    q.where_clause.as_ref().unwrap().to_string(),
                    "(not ((-x) > 3))"
                );
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn duplicate_clause_rejected() {
        assert!(parse("SELECT a WHERE x > 1 WHERE y > 2\n").is_err());
        assert!(parse("SELECT a GROUPBY x GROUPBY y\n").is_err());
    }

    #[test]
    fn join_with_groupby_rejected() {
        assert!(parse("SELECT a FROM R1 JOIN R2 ON k GROUPBY k\n").is_err());
    }

    #[test]
    fn assignment_must_be_query() {
        assert!(parse("x = 1 + 2\n").is_err());
    }

    #[test]
    fn qualified_only_on_names() {
        assert!(parse("SELECT (a + b).c\n").is_err());
    }

    #[test]
    fn empty_fold_body_rejected() {
        assert!(parse("def f(s, (x)):\nSELECT s\n").is_err());
    }

    /// Compile `src` (parse, resolve, type, analyse) in a thread with the
    /// 2 MiB stack that spawned threads and tests get by default. A tree too
    /// deep for that stack aborts the whole process instead of returning.
    fn compile_in_2mib_thread(src: String) -> LangResult<()> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || crate::compile(&src, &crate::fig2::default_params()).map(drop))
            .expect("spawn")
            .join()
            .expect("compile panicked")
    }

    fn assert_too_deep(src: String) {
        let err = compile_in_2mib_thread(src).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
    }

    /// `n` nested calls, the costliest level for the stack: `n + 1` levels
    /// deep (the SELECT item, then one per argument list).
    fn nested_calls(n: usize) -> String {
        format!("SELECT {}pkt_len{} FROM T", "abs(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn nesting_up_to_the_limit_compiles() {
        compile_in_2mib_thread(nested_calls(MAX_DEPTH - 1)).unwrap();
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        assert_too_deep(nested_calls(MAX_DEPTH));
    }

    #[test]
    fn deep_prefix_and_parenthesis_nesting_is_an_error() {
        let n = 10_000;
        assert_too_deep(format!(
            "SELECT srcip FROM T WHERE {}true{}",
            "(".repeat(n),
            ")".repeat(n)
        ));
        assert_too_deep(format!("SELECT {}pkt_len FROM T", "-".repeat(n)));
        assert_too_deep(format!(
            "SELECT srcip FROM T WHERE {}true",
            "not ".repeat(n)
        ));
    }

    #[test]
    fn a_long_operator_chain_is_an_error() {
        // The parser's loop is iterative, but the left-deep tree is not.
        assert_too_deep(format!(
            "SELECT srcip FROM T WHERE {}1 > 0",
            "1+".repeat(200_000)
        ));
    }

    #[test]
    fn a_long_elif_chain_is_an_error() {
        let mut src = String::from("def f (s, (pkt_len)):\n    if pkt_len > 0:\n        s = 0\n");
        for i in 0..10_000 {
            src += &format!("    elif pkt_len > {i}:\n        s = {i}\n");
        }
        src += "\nSELECT f GROUPBY srcip\n";
        assert_too_deep(src);
    }

    #[test]
    fn else_after_elif_takes_the_same_forms_as_after_if() {
        let block = "def f (s, (x)):\n    if x > 10:\n        s = 2\n    elif x > 5:\n        s = 1\n    else:\n        s = 0\n";
        let inline = "def f (s, (x)):\n    if x > 10:\n        s = 2\n    elif x > 5:\n        s = 1\n    else s = 0\n";
        let printed = |src| crate::pretty::program(&parse_ok(src));
        assert_eq!(printed(block), printed(inline));
    }

    #[test]
    fn aliases() {
        let p = parse_ok("SELECT tout - tin AS delay FROM T\n");
        match &p.items[0] {
            Item::BareQuery(Query::Select(q)) => match &q.select[0] {
                SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("delay")),
                other => panic!("unexpected item {other:?}"),
            },
            other => panic!("unexpected item {other:?}"),
        }
    }
}
