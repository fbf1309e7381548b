//! Name resolution and type checking: turns a parsed [`Program`] into a
//! [`ResolvedProgram`] whose queries reference columns, state variables and
//! parameters positionally, with every fold lowered to IR and classified by
//! the linearity analysis.
//!
//! Resolution enforces the paper's restrictions:
//!
//! * `WHERE` predicates filter the *input* table's records (the paper's
//!   examples never need HAVING-style post-filters — they compose queries
//!   instead);
//! * `JOIN`s are only legal between two `GROUPBY` queries keyed exactly by
//!   the `ON` fields, which is the sufficient condition for "key uniquely
//!   identifies records in both tables" (§2, footnote 3);
//! * aggregations (`GROUPBY`) cannot consume a join's output — joins are
//!   evaluated when results are collected, not in the streaming data plane.

use crate::ast::{self, BinOp, Expr, FoldDef, Item, Program, Query, SelectItem};
use crate::error::{LangError, LangResult};
use crate::ir::{Builtin, FoldIr, RExpr, RStmt, StateVar};
use crate::linearity;
use crate::schema::{base_schema, expand_abbreviation, resolve_alias, Schema, BASE_TABLE};
use crate::token::Span;
use crate::types::{Value, ValueType, INFINITY_NS};
use std::collections::HashMap;

/// A named query parameter (e.g. `alpha`, `L`, `K`) with its supplied value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// Source-level name.
    pub name: String,
    /// Value bound at compile time.
    pub value: Value,
}

/// Where a query reads its records from.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryInput {
    /// The base packet-observation table `T`.
    Base,
    /// The output stream of a previously-defined query (by index).
    Table(usize),
    /// A collect-time join of two previous queries on their shared key.
    Join {
        /// Left query index.
        left: usize,
        /// Right query index.
        right: usize,
        /// Canonical names of the join-key columns.
        on: Vec<String>,
    },
}

/// How one output column of a `GROUPBY` query is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOutput {
    /// The i-th GROUPBY key field.
    Key(usize),
    /// The i-th state variable of the combined fold.
    StateVar(usize),
}

/// A resolved aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySpec {
    /// Indices of the key fields in the input schema.
    pub key_cols: Vec<usize>,
    /// Canonical names of the key fields.
    pub key_names: Vec<String>,
    /// The combined fold updating all selected aggregations.
    pub fold: FoldIr,
    /// Output columns in schema order.
    pub output: Vec<GroupOutput>,
}

/// A resolved projection column.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjCol {
    /// Output column name.
    pub name: String,
    /// Expression over the input schema.
    pub expr: RExpr,
    /// Result type.
    pub ty: ValueType,
}

/// The operator a query performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedKind {
    /// Pure projection/filter (`SELECT` without `GROUPBY`).
    Project(Vec<ProjCol>),
    /// Aggregation (`GROUPBY`) — maps to one programmable key-value store.
    GroupBy(GroupBySpec),
}

/// A fully resolved query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedQuery {
    /// Table name (`R1`, … or `__q{i}` for bare queries).
    pub name: String,
    /// Input source.
    pub input: QueryInput,
    /// Filter applied to input records before the operator.
    pub pre_filter: Option<RExpr>,
    /// The operator.
    pub kind: ResolvedKind,
    /// Output schema.
    pub schema: Schema,
    /// True when this query (or an ancestor) contains a join and therefore
    /// only materializes at collection time, not in the streaming plane.
    pub collect_only: bool,
}

impl ResolvedQuery {
    /// The fold, if this is an aggregation.
    #[must_use]
    pub fn fold(&self) -> Option<&FoldIr> {
        match &self.kind {
            ResolvedKind::GroupBy(g) => Some(&g.fold),
            ResolvedKind::Project(_) => None,
        }
    }
}

/// A resolved program: an ordered pipeline of queries over the base table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedProgram {
    /// Queries in definition order (later ones may reference earlier ones).
    pub queries: Vec<ResolvedQuery>,
    /// Parameters referenced by the program, in `Param(i)` index order.
    pub params: Vec<ParamDef>,
    /// The base table schema.
    pub base: Schema,
}

impl ResolvedProgram {
    /// Parameter values in index order (what the executors consume).
    #[must_use]
    pub fn param_values(&self) -> Vec<Value> {
        self.params.iter().map(|p| p.value).collect()
    }

    /// Find a query by name.
    #[must_use]
    pub fn query(&self, name: &str) -> Option<&ResolvedQuery> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Per-query key column widths in bits, in key order (`Some` for
    /// GROUPBYs): an unmodified base column carries its wire width, and a
    /// composed input's column (an upstream table, a join) is a 64-bit
    /// value. The compiled key layout packs keys by these widths, and
    /// [`StoreWidth::key_bits`] is their sum.
    #[must_use]
    pub fn key_widths(&self) -> Vec<Option<Vec<u32>>> {
        self.queries
            .iter()
            .map(|q| {
                let ResolvedKind::GroupBy(g) = &q.kind else {
                    return None;
                };
                let width = |c: usize| match &q.input {
                    QueryInput::Base => crate::schema::base_column_key_bits(c),
                    QueryInput::Table(_) | QueryInput::Join { .. } => 64,
                };
                Some(g.key_cols.iter().map(|c| width(*c)).collect())
            })
            .collect()
    }

    /// Per-query hardware widths of the aggregation state (`Some` for
    /// GROUPBYs): the inputs to the §3.3/§4 chip-area arithmetic, derived
    /// from the resolved key columns and the fold's state variable types.
    /// The running example — `SELECT COUNT GROUPBY 5tuple` — reports the
    /// paper's 104-bit key and 24-bit value (a 128-bit pair).
    #[must_use]
    pub fn store_widths(&self) -> Vec<Option<StoreWidth>> {
        self.queries
            .iter()
            .zip(self.key_widths())
            .map(|(q, key_widths)| {
                let ResolvedKind::GroupBy(g) = &q.kind else {
                    return None;
                };
                let key_bits = key_widths?.iter().sum();
                let value_bits = g
                    .fold
                    .state
                    .iter()
                    .map(|v| match v.ty {
                        ValueType::Float => 32, // fixed-point in hardware
                        ValueType::Int => 32,
                        ValueType::Bool => 1,
                    })
                    .sum::<u32>()
                    .max(24); // the paper's minimum counter width
                Some(StoreWidth {
                    key_bits,
                    value_bits,
                })
            })
            .collect()
    }
}

/// Hardware width of one aggregation's key-value pair, as the §3.3/§4 area
/// arithmetic counts it (see [`ResolvedProgram::store_widths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreWidth {
    /// Key width on the wire, in bits (5-tuple = 104).
    pub key_bits: u32,
    /// Fold state width, in bits (≥ the paper's 24-bit minimum counter).
    pub value_bits: u32,
}

impl StoreWidth {
    /// Bits per key-value pair.
    #[must_use]
    pub fn pair_bits(&self) -> u32 {
        self.key_bits + self.value_bits
    }
}

/// Resolve a parsed program. `params` supplies values for free names such as
/// `alpha`, `L`, `K` (in-language `const` declarations take precedence).
pub fn resolve(program: &Program, params: &HashMap<String, Value>) -> LangResult<ResolvedProgram> {
    let mut r = Resolver {
        consts: HashMap::new(),
        folds: HashMap::new(),
        params_avail: params.clone(),
        params_used: Vec::new(),
        queries: Vec::new(),
        table_names: HashMap::new(),
        base: base_schema(),
    };
    let mut anon = 0usize;
    for item in &program.items {
        match item {
            Item::Const(name, expr, span) => {
                let rexpr = r.lower_const_expr(expr)?;
                let v =
                    crate::ir::eval(&rexpr, &[], &[], &r.param_values_so_far()).map_err(|e| {
                        LangError::resolve(format!("in const `{name}`: {e}"), Some(*span))
                    })?;
                r.consts.insert(name.clone(), v);
            }
            Item::Fold(def) => {
                if r.folds.contains_key(&def.name) {
                    return Err(LangError::resolve(
                        format!("fold `{}` defined twice", def.name),
                        Some(def.span),
                    ));
                }
                r.folds.insert(def.name.clone(), def.clone());
            }
            Item::NamedQuery(name, q, span) => {
                if name == BASE_TABLE {
                    return Err(LangError::resolve(
                        format!("`{BASE_TABLE}` is the base table and cannot be redefined"),
                        Some(*span),
                    ));
                }
                if r.table_names.contains_key(name) {
                    return Err(LangError::resolve(
                        format!("query `{name}` defined twice"),
                        Some(*span),
                    ));
                }
                let rq = r.resolve_query(name.clone(), q)?;
                r.table_names.insert(name.clone(), r.queries.len());
                r.queries.push(rq);
            }
            Item::BareQuery(q) => {
                let name = format!("__q{anon}");
                anon += 1;
                let rq = r.resolve_query(name.clone(), q)?;
                r.table_names.insert(name, r.queries.len());
                r.queries.push(rq);
            }
        }
    }
    if r.queries.is_empty() {
        return Err(LangError::resolve("program contains no query", None));
    }
    Ok(ResolvedProgram {
        queries: r.queries,
        params: r.params_used,
        base: r.base,
    })
}

struct Resolver {
    consts: HashMap<String, Value>,
    folds: HashMap<String, FoldDef>,
    params_avail: HashMap<String, Value>,
    params_used: Vec<ParamDef>,
    queries: Vec<ResolvedQuery>,
    table_names: HashMap<String, usize>,
    base: Schema,
}

impl Resolver {
    fn param_values_so_far(&self) -> Vec<Value> {
        self.params_used.iter().map(|p| p.value).collect()
    }

    fn intern_param(&mut self, name: &str) -> Option<usize> {
        if let Some(pos) = self.params_used.iter().position(|p| p.name == name) {
            return Some(pos);
        }
        let value = *self.params_avail.get(name)?;
        self.params_used.push(ParamDef {
            name: name.to_string(),
            value,
        });
        Some(self.params_used.len() - 1)
    }

    // ------------------------------------------------------------------
    // Expression lowering
    // ------------------------------------------------------------------

    /// Lower a const-declaration expression (literals, consts, params only).
    fn lower_const_expr(&mut self, e: &Expr) -> LangResult<RExpr> {
        let empty = Schema::default();
        self.lower_expr(e, &empty, &[])
    }

    /// Lower an expression against an input schema. `state` names the
    /// enclosing fold's state variables, which shadow input columns (empty
    /// outside a fold body).
    fn lower_expr(&mut self, e: &Expr, input: &Schema, state: &[String]) -> LangResult<RExpr> {
        match e {
            Expr::Int(v) => Ok(RExpr::Const(Value::Int(*v))),
            Expr::Float(v) => Ok(RExpr::Const(Value::Float(*v))),
            Expr::Duration(ns) => Ok(RExpr::Const(Value::Int(*ns))),
            Expr::Bool(b) => Ok(RExpr::Const(Value::Bool(*b))),
            Expr::Infinity => Ok(RExpr::Const(Value::Int(INFINITY_NS))),
            Expr::FiveTuple(span) => Err(LangError::resolve(
                "`5tuple` is a field-list abbreviation; it cannot appear inside an expression",
                Some(*span),
            )),
            Expr::Name(name, span) => self.lower_name(name, *span, input, state),
            Expr::Qualified(base, field, span) => {
                let full = format!("{base}.{field}");
                if let Some(idx) = lookup_column(input, &full) {
                    Ok(RExpr::Input(idx))
                } else {
                    Err(LangError::resolve(
                        format!("unknown column `{full}`"),
                        Some(*span),
                    ))
                }
            }
            Expr::Call(name, args, span) => {
                if let Some(b) = Builtin::by_name(name) {
                    let want = match b {
                        Builtin::Abs if args.len() != 1 => Some("exactly one argument"),
                        Builtin::Max | Builtin::Min if args.is_empty() => {
                            Some("at least one argument")
                        }
                        _ => None,
                    };
                    if let Some(want) = want {
                        return Err(LangError::resolve(
                            format!("`{b}` takes {want}, found {}", args.len()),
                            Some(*span),
                        ));
                    }
                    let mut rargs = Vec::with_capacity(args.len());
                    for a in args {
                        rargs.push(self.lower_expr(a, input, state)?);
                    }
                    return Ok(RExpr::Call(b, rargs));
                }
                // Aggregate-call syntax outside a GROUPBY select list refers
                // to the column a previous aggregation produced (canonical
                // name), e.g. `WHERE SUM(tout-tin) > L` over R1.
                let canonical = e.canonical();
                if let Some(idx) = lookup_column(input, &canonical) {
                    return Ok(RExpr::Input(idx));
                }
                Err(LangError::resolve(
                    format!(
                        "unknown function or column `{canonical}` \
                         (aggregations are only defined in a SELECT…GROUPBY list)"
                    ),
                    Some(*span),
                ))
            }
            Expr::Unary(op, inner) => Ok(RExpr::Unary(
                *op,
                Box::new(self.lower_expr(inner, input, state)?),
            )),
            Expr::Binary(op, l, r) => Ok(RExpr::Binary(
                *op,
                Box::new(self.lower_expr(l, input, state)?),
                Box::new(self.lower_expr(r, input, state)?),
            )),
        }
    }

    fn lower_name(
        &mut self,
        name: &str,
        span: Span,
        input: &Schema,
        state: &[String],
    ) -> LangResult<RExpr> {
        if let Some(idx) = state.iter().position(|n| n == name) {
            return Ok(RExpr::State(idx));
        }
        if let Some(idx) = lookup_column(input, name) {
            return Ok(RExpr::Input(idx));
        }
        if let Some(v) = self.consts.get(name) {
            return Ok(RExpr::Const(*v));
        }
        if let Some(idx) = self.intern_param(name) {
            return Ok(RExpr::Param(idx));
        }
        Err(LangError::resolve(
            format!(
                "unknown name `{name}` — not a column of the input table, a \
                 constant, or a provided parameter"
            ),
            Some(span),
        ))
    }

    // ------------------------------------------------------------------
    // Fold lowering
    // ------------------------------------------------------------------

    /// Lower a fold definition against an input schema, producing its state
    /// variables and body with `State` indices starting at 0.
    fn lower_fold(
        &mut self,
        def: &FoldDef,
        input: &Schema,
    ) -> LangResult<(Vec<StateVar>, Vec<RStmt>)> {
        // Packet params must name input columns (they bind by name — fold
        // "calls" in SELECT lists pass no arguments).
        for p in &def.packet_params {
            if lookup_column(input, p).is_none() {
                return Err(LangError::resolve(
                    format!(
                        "fold `{}`: packet parameter `{p}` is not a column of the input table",
                        def.name
                    ),
                    Some(def.span),
                ));
            }
        }
        let body = self.lower_stmts(&def.body, input, &def.state_params)?;

        // Infer state variable types by fixpoint (Int, widening to Float).
        let n = def.state_params.len();
        let mut types = vec![ValueType::Int; n];
        loop {
            let mut changed = false;
            infer_stmt_types(
                &body,
                input,
                &self.param_values_so_far(),
                &mut types,
                &mut changed,
            )?;
            if !changed {
                break;
            }
        }
        let state: Vec<StateVar> = def
            .state_params
            .iter()
            .zip(&types)
            .map(|(name, ty)| StateVar {
                name: name.clone(),
                ty: *ty,
                init: Value::zero(*ty),
            })
            .collect();
        Ok((state, body))
    }

    fn lower_stmts(
        &mut self,
        stmts: &[ast::Stmt],
        input: &Schema,
        state: &[String],
    ) -> LangResult<Vec<RStmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                ast::Stmt::Assign(name, value, span) => {
                    let idx = state.iter().position(|n| n == name).ok_or_else(|| {
                        LangError::resolve(
                            format!(
                                "assignment to `{name}`, which is not a state parameter of the fold"
                            ),
                            Some(*span),
                        )
                    })?;
                    let rexpr = self.lower_expr(value, input, state)?;
                    out.push(RStmt::Assign(idx, rexpr));
                }
                ast::Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let rcond = self.lower_expr(cond, input, state)?;
                    let rthen = self.lower_stmts(then_body, input, state)?;
                    let relse = self.lower_stmts(else_body, input, state)?;
                    out.push(RStmt::If {
                        cond: rcond,
                        then_body: rthen,
                        else_body: relse,
                    });
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Query resolution
    // ------------------------------------------------------------------

    fn resolve_query(&mut self, name: String, q: &Query) -> LangResult<ResolvedQuery> {
        match q {
            Query::Select(sq) => self.resolve_select(name, sq),
            Query::Join(jq) => self.resolve_join(name, jq),
        }
    }

    fn table_index(&self, name: &str, span: Span) -> LangResult<usize> {
        self.table_names
            .get(name)
            .copied()
            .ok_or_else(|| LangError::resolve(format!("unknown table `{name}`"), Some(span)))
    }

    fn resolve_select(&mut self, name: String, sq: &ast::SelectQuery) -> LangResult<ResolvedQuery> {
        let (input, in_schema, collect_only) = match sq.from.as_deref() {
            None | Some(BASE_TABLE) => (QueryInput::Base, self.base.clone(), false),
            Some(table) => {
                let i = self.table_index(table, sq.span)?;
                let q = &self.queries[i];
                (QueryInput::Table(i), q.schema.clone(), q.collect_only)
            }
        };
        let pre_filter = self.resolve_where(sq.where_clause.as_ref(), &in_schema)?;

        let (kind, schema) = if let Some(group_fields) = &sq.group_by {
            if collect_only {
                return Err(LangError::resolve(
                    "GROUPBY cannot aggregate the output of a JOIN (joins only \
                     materialize when results are collected)",
                    Some(sq.span),
                ));
            }
            let (spec, schema) = self.resolve_groupby(sq, group_fields, &in_schema)?;
            (ResolvedKind::GroupBy(spec), schema)
        } else {
            let (cols, schema) = self.resolve_projection(&sq.select, &in_schema, sq.span)?;
            (ResolvedKind::Project(cols), schema)
        };
        Ok(ResolvedQuery {
            name,
            input,
            pre_filter,
            kind,
            schema,
            collect_only,
        })
    }

    /// Lower an expression over the input record (a filter, a projection
    /// column or an aggregate's argument) and type it; a type error is
    /// reported at `span`.
    fn typed_record_expr(
        &mut self,
        e: &Expr,
        input: &Schema,
        span: Option<Span>,
    ) -> LangResult<(RExpr, ValueType)> {
        let r = self.lower_expr(e, input, &[])?;
        let ty = expr_type(&r, input, &self.param_values_so_far(), &[])
            .map_err(|err| LangError::resolve(err.0, span))?;
        Ok((r, ty))
    }

    /// A WHERE predicate: lowered over the input record and required to be
    /// boolean.
    fn resolve_where(&mut self, w: Option<&Expr>, input: &Schema) -> LangResult<Option<RExpr>> {
        let Some(w) = w else {
            return Ok(None);
        };
        let (f, ty) = self.typed_record_expr(w, input, w.span())?;
        if ty != ValueType::Bool {
            return Err(LangError::resolve(
                format!("WHERE predicate must be boolean, found {ty}"),
                w.span(),
            ));
        }
        Ok(Some(f))
    }

    fn resolve_projection(
        &mut self,
        select: &[SelectItem],
        input: &Schema,
        span: Span,
    ) -> LangResult<(Vec<ProjCol>, Schema)> {
        let mut cols: Vec<ProjCol> = Vec::new();
        let mut schema = Schema::default();
        let mut push = |name: String, expr: RExpr, ty: ValueType| -> LangResult<()> {
            push_output(&mut schema, name.clone(), ty, span)?;
            cols.push(ProjCol { name, expr, ty });
            Ok(())
        };
        for item in select {
            match item {
                SelectItem::Star => {
                    for (i, col) in input.columns.iter().enumerate() {
                        push(col.name.clone(), RExpr::Input(i), col.ty)?;
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some(fields) = expand_fields(expr, false) {
                        for fname in fields {
                            let idx = lookup_column(input, fname).ok_or_else(|| {
                                LangError::resolve(
                                    format!("column `{fname}` not in input table"),
                                    expr.span(),
                                )
                            })?;
                            push(
                                input.name_of(idx).to_string(),
                                RExpr::Input(idx),
                                input.type_of(idx),
                            )?;
                        }
                        continue;
                    }
                    let (r, ty) = self.typed_record_expr(expr, input, expr.span())?;
                    let name = alias.clone().unwrap_or_else(|| {
                        // Plain column references keep their canonical name.
                        match &r {
                            RExpr::Input(i) => input.name_of(*i).to_string(),
                            _ => expr.canonical(),
                        }
                    });
                    push(name, r, ty)?;
                }
            }
        }
        if cols.is_empty() {
            return Err(LangError::resolve("empty SELECT list", Some(span)));
        }
        Ok((cols, schema))
    }

    fn resolve_groupby(
        &mut self,
        sq: &ast::SelectQuery,
        group_fields: &[Expr],
        input: &Schema,
    ) -> LangResult<(GroupBySpec, Schema)> {
        // Expand abbreviations in the GROUPBY list and resolve key columns.
        let mut key_cols = Vec::new();
        for f in group_fields {
            let names = expand_fields(f, true).ok_or_else(|| {
                LangError::resolve(
                    format!(
                        "GROUPBY fields must be column names, found `{}`",
                        f.canonical()
                    ),
                    f.span(),
                )
            })?;
            for n in names {
                let idx = lookup_column(input, n).ok_or_else(|| {
                    LangError::resolve(
                        format!("GROUPBY field `{n}` is not a column of the input table"),
                        f.span(),
                    )
                })?;
                if !key_cols.contains(&idx) {
                    key_cols.push(idx);
                }
            }
        }
        let key_names: Vec<String> = key_cols
            .iter()
            .map(|&c| input.name_of(c).to_string())
            .collect();

        // A GROUPBY result is a *keyed table*: its key fields are always part
        // of the output schema (first, in key order), whether or not the
        // SELECT list names them — downstream JOIN ON and GROUPBY clauses
        // address results by key (e.g. the loss-rate join on a bare
        // `SELECT COUNT GROUPBY 5tuple`). Selected key fields only validate
        // that projected fields are grouped.
        let mut aggs = Aggregates {
            state: Vec::new(),
            body: Vec::new(),
            output: (0..key_cols.len()).map(GroupOutput::Key).collect(),
            // Each key column keeps its input type: a boolean or float key
            // reads back as one (a result row rebuilds it from its key word).
            schema: Schema::new(
                (key_names.iter().zip(&key_cols))
                    .map(|(n, &c)| (n.clone(), input.type_of(c)))
                    .collect(),
            ),
            span: sq.span,
        };
        for item in &sq.select {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(LangError::resolve(
                    "SELECT * is not supported with GROUPBY; list key fields \
                     and aggregations explicitly",
                    Some(sq.span),
                ));
            };
            self.resolve_group_item(expr, alias.as_deref(), input, &key_cols, &mut aggs)?;
        }

        let Aggregates {
            state,
            body,
            output,
            schema,
            ..
        } = aggs;
        let used_inputs = collect_used_inputs(&body);
        let (var_classes, class) = linearity::analyze(&body, state.len());
        let fold = FoldIr {
            state,
            body,
            used_inputs,
            var_classes,
            class,
        };
        let spec = GroupBySpec {
            key_cols,
            key_names,
            fold,
            output,
        };
        Ok((spec, schema))
    }

    /// Resolve one SELECT item of a GROUPBY query into `aggs`.
    fn resolve_group_item(
        &mut self,
        expr: &Expr,
        alias: Option<&str>,
        input: &Schema,
        key_cols: &[usize],
        aggs: &mut Aggregates,
    ) -> LangResult<()> {
        let named = |default: String| alias.map_or(default, str::to_string);
        // Field-list abbreviations select several key fields at once.
        if let Some(fields) = expand_fields(expr, false) {
            for fname in fields {
                let idx = lookup_column(input, fname).ok_or_else(|| {
                    LangError::resolve(format!("column `{fname}` not in input table"), expr.span())
                })?;
                if !key_cols.contains(&idx) {
                    return Err(LangError::resolve(
                        format!("selected field `{fname}` is not in the GROUPBY key"),
                        expr.span(),
                    ));
                }
            }
            return Ok(());
        }
        match expr {
            // A bare name: key field, user fold, or builtin COUNT.
            Expr::Name(n, span) => {
                if lookup_column(input, n).is_some_and(|idx| key_cols.contains(&idx)) {
                    return Ok(());
                }
                if let Some(def) = self.folds.get(n).cloned() {
                    let (vars, fbody) = self.lower_fold(&def, input)?;
                    let offset = aggs.state.len();
                    for v in vars {
                        aggs.add(named(v.name), v.ty, true)?;
                    }
                    aggs.body.extend(shift_state(&fbody, offset));
                    return Ok(());
                }
                if n.eq_ignore_ascii_case("count") {
                    let idx = aggs.add(named("COUNT".into()), ValueType::Int, true)?;
                    aggs.body.push(RStmt::Assign(
                        idx,
                        RExpr::Binary(
                            BinOp::Add,
                            Box::new(RExpr::State(idx)),
                            Box::new(RExpr::Const(Value::Int(1))),
                        ),
                    ));
                    return Ok(());
                }
                Err(LangError::resolve(
                    format!(
                        "`{n}` is neither a GROUPBY key field, a fold function, \
                         nor a builtin aggregation"
                    ),
                    Some(*span),
                ))
            }
            // SUM(e) / MAX(e) / MIN(e)
            Expr::Call(fname, args, span) => {
                let upper = fname.to_ascii_uppercase();
                if !matches!(upper.as_str(), "SUM" | "MAX" | "MIN") {
                    return Err(LangError::resolve(
                        format!(
                            "unknown aggregation `{fname}` (supported: COUNT, SUM, \
                             MAX, MIN, or a user fold defined with `def`)"
                        ),
                        Some(*span),
                    ));
                }
                let [arg] = args.as_slice() else {
                    return Err(LangError::resolve(
                        format!("{upper} takes exactly one argument"),
                        Some(*span),
                    ));
                };
                let (rarg, arg_ty) = self.typed_record_expr(arg, input, Some(*span))?;
                if arg_ty == ValueType::Bool {
                    return Err(LangError::resolve(
                        format!("{upper} of a boolean expression"),
                        Some(*span),
                    ));
                }
                if upper == "SUM" {
                    let idx = aggs.add(named(expr.canonical()), arg_ty, true)?;
                    aggs.body.push(RStmt::Assign(
                        idx,
                        RExpr::Binary(BinOp::Add, Box::new(RExpr::State(idx)), Box::new(rarg)),
                    ));
                    return Ok(());
                }
                // MAX/MIN need a first-packet flag: the value seeds on the
                // first packet, then folds. The flag branch makes these
                // non-linear — which is correct: running max is not
                // mergeable.
                let seen = aggs.add(
                    format!("__seen_{}", aggs.state.len()),
                    ValueType::Int,
                    false,
                )?;
                let val = aggs.add(named(expr.canonical()), arg_ty, true)?;
                let b = if upper == "MAX" {
                    Builtin::Max
                } else {
                    Builtin::Min
                };
                aggs.body.push(RStmt::If {
                    cond: RExpr::Binary(
                        BinOp::Eq,
                        Box::new(RExpr::State(seen)),
                        Box::new(RExpr::Const(Value::Int(0))),
                    ),
                    then_body: vec![
                        RStmt::Assign(val, rarg.clone()),
                        RStmt::Assign(seen, RExpr::Const(Value::Int(1))),
                    ],
                    else_body: vec![RStmt::Assign(
                        val,
                        RExpr::Call(b, vec![RExpr::State(val), rarg]),
                    )],
                });
                Ok(())
            }
            other => Err(LangError::resolve(
                format!(
                    "GROUPBY SELECT items must be key fields or aggregations, \
                     found `{}` — compose queries to post-process aggregates",
                    other.canonical()
                ),
                other.span(),
            )),
        }
    }

    fn resolve_join(&mut self, name: String, jq: &ast::JoinQuery) -> LangResult<ResolvedQuery> {
        let left = self.table_index(&jq.left, jq.span)?;
        let right = self.table_index(&jq.right, jq.span)?;

        // Expand the ON field list.
        let mut on = Vec::new();
        for f in &jq.on {
            let names = expand_fields(f, true).ok_or_else(|| {
                LangError::resolve(
                    format!("ON fields must be column names, found `{}`", f.canonical()),
                    f.span(),
                )
            })?;
            on.extend(names.into_iter().map(|n| resolve_alias(n).to_string()));
        }

        // The paper's restriction: the key must uniquely identify records in
        // both tables — we require both sides to be GROUPBYs keyed by `on`.
        for (side, idx) in [("left", left), ("right", right)] {
            let q = &self.queries[idx];
            match &q.kind {
                ResolvedKind::GroupBy(g) => {
                    let mut want = on.clone();
                    want.sort();
                    let mut have = g.key_names.clone();
                    have.sort();
                    if want != have {
                        return Err(LangError::resolve(
                            format!(
                                "JOIN ON key {:?} must equal the GROUPBY key {:?} of the {side} \
                                 table `{}` (the key must uniquely identify its records)",
                                on, g.key_names, q.name
                            ),
                            Some(jq.span),
                        ));
                    }
                }
                ResolvedKind::Project(_) => {
                    return Err(LangError::resolve(
                        format!(
                            "JOIN requires both sides to be GROUPBY queries; `{}` is a \
                             plain SELECT",
                            q.name
                        ),
                        Some(jq.span),
                    ))
                }
            }
        }

        let in_schema = joined_schema(&self.queries[left], &self.queries[right], &on, jq.span)?;
        let pre_filter = self.resolve_where(jq.where_clause.as_ref(), &in_schema)?;
        let (cols, schema) = self.resolve_projection(&jq.select, &in_schema, jq.span)?;
        Ok(ResolvedQuery {
            name,
            input: QueryInput::Join { left, right, on },
            pre_filter,
            kind: ResolvedKind::Project(cols),
            schema,
            collect_only: true,
        })
    }
}

/// A GROUPBY's SELECT list as it resolves: the combined fold's state and
/// body, and the output (key fields first).
struct Aggregates {
    state: Vec<StateVar>,
    body: Vec<RStmt>,
    output: Vec<GroupOutput>,
    schema: Schema,
    /// The query's span, where a duplicate output name is reported.
    span: Span,
}

impl Aggregates {
    /// Add a state variable initialised to its type's zero, returning its
    /// index; an `output` variable is also an output column.
    fn add(&mut self, name: String, ty: ValueType, output: bool) -> LangResult<usize> {
        let idx = self.state.len();
        if output {
            push_output(&mut self.schema, name.clone(), ty, self.span)?;
            self.output.push(GroupOutput::StateVar(idx));
        }
        self.state.push(StateVar {
            name,
            ty,
            init: Value::zero(ty),
        });
        Ok(idx)
    }
}

/// Append an output column. Every query kind refuses a name that its output
/// already holds, spelled the same or as an alias (`qin` and `qsize`):
/// downstream queries address columns by name, so the second could never be
/// read.
fn push_output(schema: &mut Schema, name: String, ty: ValueType, span: Span) -> LangResult<()> {
    let canonical = resolve_alias(&name);
    if schema
        .columns
        .iter()
        .any(|c| resolve_alias(&c.name) == canonical)
    {
        return Err(LangError::resolve(
            format!("duplicate output column `{name}` (use AS to alias)"),
            Some(span),
        ));
    }
    schema.push(name, ty);
    Ok(())
}

/// Look a column up by name, with alias resolution and qualified-suffix
/// fallback (`high` finds `perc.high` when unambiguous, and vice versa).
fn lookup_column(schema: &Schema, name: &str) -> Option<usize> {
    if let Some(idx) = schema.index_of(name) {
        return Some(idx);
    }
    if let Some((_, bare)) = name.rsplit_once('.') {
        // Qualified name whose bare form exists: `perc.high` → `high`.
        if let Some(idx) = schema.index_of(bare) {
            return Some(idx);
        }
    } else {
        // Bare name matching a unique qualified column: `high` → `perc.high`.
        let suffix = format!(".{name}");
        let matches: Vec<usize> = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.name.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect();
        if matches.len() == 1 {
            return Some(matches[0]);
        }
    }
    None
}

/// The column names one field-list entry stands for: `5tuple` and
/// `pkt_uniq` expand to their fields and, where `bare` allows it, a plain
/// name stands for itself. `None`: the entry is not a field list (an error in
/// GROUPBY and ON lists, an ordinary expression in a SELECT list).
fn expand_fields(e: &Expr, bare: bool) -> Option<Vec<&str>> {
    let name = match e {
        Expr::FiveTuple(_) => "5tuple",
        Expr::Name(n, _) => n,
        _ => return None,
    };
    match expand_abbreviation(name) {
        Some(fields) => Some(fields.to_vec()),
        None if bare => Some(vec![name]),
        None => None,
    }
}

/// Shift all `State(i)` references in a body by `offset` (used when
/// concatenating several folds into one combined update program).
fn shift_state(body: &[RStmt], offset: usize) -> Vec<RStmt> {
    fn shift_expr(e: &RExpr, offset: usize) -> RExpr {
        match e {
            RExpr::State(i) => RExpr::State(i + offset),
            RExpr::Unary(op, x) => RExpr::Unary(*op, Box::new(shift_expr(x, offset))),
            RExpr::Binary(op, l, r) => RExpr::Binary(
                *op,
                Box::new(shift_expr(l, offset)),
                Box::new(shift_expr(r, offset)),
            ),
            RExpr::Call(b, args) => {
                RExpr::Call(*b, args.iter().map(|a| shift_expr(a, offset)).collect())
            }
            other => other.clone(),
        }
    }
    body.iter()
        .map(|s| match s {
            RStmt::Assign(i, e) => RStmt::Assign(i + offset, shift_expr(e, offset)),
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => RStmt::If {
                cond: shift_expr(cond, offset),
                then_body: shift_state(then_body, offset),
                else_body: shift_state(else_body, offset),
            },
        })
        .collect()
}

fn collect_used_inputs(body: &[RStmt]) -> Vec<usize> {
    fn walk(stmts: &[RStmt], out: &mut Vec<usize>) {
        for s in stmts {
            match s {
                RStmt::Assign(_, e) => out.extend(e.input_columns()),
                RStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    out.extend(cond.input_columns());
                    walk(then_body, out);
                    walk(else_body, out);
                }
            }
        }
    }
    let mut cols = Vec::new();
    walk(body, &mut cols);
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Static type of a resolved expression given state variable types.
fn expr_type(
    e: &RExpr,
    input: &Schema,
    params: &[Value],
    state_types: &[ValueType],
) -> Result<ValueType, crate::types::TypeError> {
    use crate::types::TypeError;
    match e {
        RExpr::Const(v) => Ok(v.ty()),
        RExpr::Input(i) => Ok(input.type_of(*i)),
        RExpr::State(i) => state_types
            .get(*i)
            .copied()
            .ok_or_else(|| TypeError(format!("state variable {i} out of range"))),
        RExpr::Param(i) => params
            .get(*i)
            .map(Value::ty)
            .ok_or_else(|| TypeError(format!("parameter {i} out of range"))),
        RExpr::Unary(op, x) => {
            let t = expr_type(x, input, params, state_types)?;
            match op {
                ast::UnaryOp::Neg => {
                    if t == ValueType::Bool {
                        Err(TypeError("cannot negate a boolean".into()))
                    } else {
                        Ok(t)
                    }
                }
                ast::UnaryOp::Not => Ok(ValueType::Bool),
            }
        }
        RExpr::Binary(op, l, r) => {
            let lt = expr_type(l, input, params, state_types)?;
            let rt = expr_type(r, input, params, state_types)?;
            Value::binop_type(*op, lt, rt)
        }
        RExpr::Call(b, args) => {
            let mut any_float = false;
            for a in args {
                let t = expr_type(a, input, params, state_types)?;
                if t == ValueType::Bool {
                    return Err(TypeError(format!("{b} of a boolean")));
                }
                any_float |= t == ValueType::Float;
            }
            Ok(if any_float {
                ValueType::Float
            } else {
                ValueType::Int
            })
        }
    }
}

/// One pass of state-variable type inference over a fold body.
fn infer_stmt_types(
    stmts: &[RStmt],
    input: &Schema,
    params: &[Value],
    types: &mut [ValueType],
    changed: &mut bool,
) -> LangResult<()> {
    for s in stmts {
        match s {
            RStmt::Assign(i, e) => {
                let t = expr_type(e, input, params, types)
                    .map_err(|e| LangError::resolve(e.0, None))?;
                let joined = join_types(types[*i], t);
                if joined != types[*i] {
                    types[*i] = joined;
                    *changed = true;
                }
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let ct = expr_type(cond, input, params, types)
                    .map_err(|e| LangError::resolve(e.0, None))?;
                if ct != ValueType::Bool {
                    return Err(LangError::resolve(
                        format!("if-condition must be boolean, found {ct}"),
                        None,
                    ));
                }
                infer_stmt_types(then_body, input, params, types, changed)?;
                infer_stmt_types(else_body, input, params, types, changed)?;
            }
        }
    }
    Ok(())
}

/// Type lattice join: Bool < Int < Float.
fn join_types(a: ValueType, b: ValueType) -> ValueType {
    use ValueType::*;
    match (a, b) {
        (Float, _) | (_, Float) => Float,
        (Int, _) | (_, Int) => Int,
        (Bool, Bool) => Bool,
    }
}

/// Schema of a collect-time join: key columns once (bare names), then every
/// non-key output column of each side qualified by its table name.
fn joined_schema(
    left: &ResolvedQuery,
    right: &ResolvedQuery,
    on: &[String],
    span: Span,
) -> LangResult<Schema> {
    let mut s = Schema::default();
    for k in on {
        s.push(k.clone(), ValueType::Int);
    }
    for q in [left, right] {
        for col in &q.schema.columns {
            if on.contains(&col.name) {
                continue;
            }
            let name = format!("{}.{}", q.name, col.name);
            if s.contains(&name) {
                return Err(LangError::resolve(
                    format!(
                        "JOIN of `{}` with itself: its column `{name}` would appear twice",
                        q.name
                    ),
                    Some(span),
                ));
            }
            s.push(name, col.ty);
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FoldClass;
    use crate::parser::parse;

    fn resolve_src(src: &str) -> LangResult<ResolvedProgram> {
        let mut params = HashMap::new();
        params.insert("alpha".to_string(), Value::Float(0.125));
        params.insert("L".to_string(), Value::Int(1_000_000));
        params.insert("K".to_string(), Value::Int(100));
        resolve(&parse(src)?, &params)
    }

    fn resolve_ok(src: &str) -> ResolvedProgram {
        match resolve_src(src) {
            Ok(p) => p,
            Err(e) => panic!("resolve failed: {}\nsource:\n{src}", e),
        }
    }

    #[test]
    fn per_flow_counters() {
        let p = resolve_ok("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip\n");
        let q = &p.queries[0];
        match &q.kind {
            ResolvedKind::GroupBy(g) => {
                assert_eq!(g.key_names, vec!["srcip", "dstip"]);
                assert_eq!(g.fold.state.len(), 2);
                assert_eq!(g.fold.state[0].name, "COUNT");
                assert_eq!(g.fold.state[1].name, "SUM(pkt_len)");
                assert_eq!(g.fold.class, FoldClass::Linear { window: 0 });
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert!(q.schema.contains("COUNT"));
        assert!(q.schema.contains("SUM(pkt_len)"));
    }

    #[test]
    fn ewma_fold_resolves_and_is_linear() {
        let src = "def ewma (lat_est, (tin, tout)):\n    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)\n\nSELECT 5tuple, ewma GROUPBY 5tuple\n";
        let p = resolve_ok(src);
        let q = &p.queries[0];
        let fold = q.fold().unwrap();
        assert_eq!(fold.state.len(), 1);
        assert_eq!(fold.state[0].ty, ValueType::Float);
        assert_eq!(fold.class, FoldClass::Linear { window: 0 });
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.params[0].name, "alpha");
        // Output schema: 5 key fields + lat_est.
        assert_eq!(q.schema.len(), 6);
        assert!(q.schema.contains("lat_est"));
    }

    #[test]
    fn out_of_seq_linear_nonmt_not() {
        let oos = "def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):\n    if lastseq + 1 != tcpseq:\n        oos_count = oos_count + 1\n    lastseq = tcpseq + payload_len\n\nSELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == 6\n";
        let p = resolve_ok(oos);
        assert_eq!(
            p.queries[0].fold().unwrap().class,
            FoldClass::Linear { window: 1 }
        );

        let nonmt = "def nonmt ((maxseq, nm_count), tcpseq):\n    if maxseq > tcpseq:\n        nm_count = nm_count + 1\n    maxseq = max(maxseq, tcpseq)\n\nSELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6\n";
        let p = resolve_ok(nonmt);
        assert_eq!(p.queries[0].fold().unwrap().class, FoldClass::NonLinear);
    }

    #[test]
    fn composition_resolves_aggregate_columns() {
        let src = "R1 = SELECT pkt_uniq, SUM(tout-tin) GROUPBY pkt_uniq\nR2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout-tin) > L\n";
        let p = resolve_ok(src);
        assert_eq!(p.queries.len(), 2);
        let r1 = &p.queries[0];
        assert!(r1.schema.contains("SUM(tout-tin)"));
        assert_eq!(r1.schema.len(), 7); // 6 pkt_uniq fields + aggregate
        let r2 = &p.queries[1];
        assert!(matches!(r2.input, QueryInput::Table(0)));
        assert!(r2.pre_filter.is_some());
        match &r2.kind {
            ResolvedKind::GroupBy(g) => {
                assert_eq!(g.key_names.len(), 5);
                assert!(g.fold.state.is_empty()); // distinct-keys query
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn loss_rate_join() {
        let src = "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\nR3 = SELECT R2.COUNT/R1.COUNT FROM R1 JOIN R2 ON 5tuple\n";
        let p = resolve_ok(src);
        let r3 = p.query("R3").unwrap();
        assert!(r3.collect_only);
        match &r3.input {
            QueryInput::Join { on, .. } => assert_eq!(on.len(), 5),
            other => panic!("unexpected input {other:?}"),
        }
        match &r3.kind {
            ResolvedKind::Project(cols) => {
                assert_eq!(cols.len(), 1);
                assert_eq!(cols[0].ty, ValueType::Float);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn join_key_mismatch_rejected() {
        let src = "R1 = SELECT COUNT GROUPBY 5tuple\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT R2.COUNT FROM R1 JOIN R2 ON 5tuple\n";
        assert!(resolve_src(src).is_err());
    }

    #[test]
    fn join_of_project_rejected() {
        let src = "R1 = SELECT srcip FROM T\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT R2.COUNT FROM R1 JOIN R2 ON srcip\n";
        assert!(resolve_src(src).is_err());
    }

    #[test]
    fn groupby_over_join_rejected() {
        let src = "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT R1.COUNT FROM R1 JOIN R2 ON srcip\nR4 = SELECT COUNT FROM R3 GROUPBY srcip\n";
        assert!(resolve_src(src).is_err());
    }

    #[test]
    fn percentile_query_with_qualified_access() {
        let src = "def perc ((tot, high), qin):\n    if qin > K: high = high + 1\n    tot = tot + 1\n\nR1 = SELECT qid, perc groupby qid\nR2 = SELECT * from R1 WHERE perc.high/perc.tot > 0.01\n";
        let p = resolve_ok(src);
        let r1 = p.query("R1").unwrap();
        assert_eq!(r1.fold().unwrap().class, FoldClass::Linear { window: 0 });
        let r2 = p.query("R2").unwrap();
        assert!(r2.pre_filter.is_some());
        assert_eq!(r2.schema.len(), 3); // qid, tot, high
    }

    #[test]
    fn filter_on_base_table() {
        let p = resolve_ok("SELECT srcip, qid FROM T WHERE tout - tin > 1ms\n");
        let q = &p.queries[0];
        assert!(matches!(q.input, QueryInput::Base));
        assert!(q.pre_filter.is_some());
        match &q.kind {
            ResolvedKind::Project(cols) => {
                assert_eq!(cols.len(), 2);
                assert_eq!(cols[0].name, "srcip");
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn where_must_be_boolean() {
        assert!(resolve_src("SELECT srcip WHERE tout - tin\n").is_err());
    }

    #[test]
    fn unknown_name_reported() {
        let err = resolve_src("SELECT bogus_field FROM T\n").unwrap_err();
        assert!(err.message.contains("bogus_field"));
    }

    #[test]
    fn unknown_table_reported() {
        let err = resolve_src("SELECT srcip FROM R9\n").unwrap_err();
        assert!(err.message.contains("R9"));
    }

    #[test]
    fn selected_field_must_be_grouped() {
        assert!(resolve_src("SELECT dstip, COUNT GROUPBY srcip\n").is_err());
    }

    #[test]
    fn const_declaration_overrides_params() {
        let src = "const K = 42\ndef f (n, (qin)):\n    if qin > K: n = n + 1\n\nSELECT qid, f GROUPBY qid\n";
        let p = resolve_ok(src);
        // K came from the const, not the params map: no parameter interned.
        assert!(p.params.is_empty());
    }

    #[test]
    fn missing_param_is_an_error() {
        let src = "def f (n, (qin)):\n    if qin > unknown_threshold: n = n + 1\n\nSELECT qid, f GROUPBY qid\n";
        let err = resolve_src(src).unwrap_err();
        assert!(err.message.contains("unknown_threshold"));
    }

    #[test]
    fn max_min_aggregations_are_nonlinear() {
        let p = resolve_ok("SELECT MAX(qsize), MIN(tin) GROUPBY qid\n");
        let fold = p.queries[0].fold().unwrap();
        assert_eq!(fold.class, FoldClass::NonLinear);
        assert_eq!(fold.state.len(), 4); // two seen flags + two values
    }

    #[test]
    fn state_type_widens_to_float() {
        let src =
            "def f (s, (pkt_len)):\n    s = s + pkt_len * 0.5\n\nSELECT srcip, f GROUPBY srcip\n";
        let p = resolve_ok(src);
        assert_eq!(p.queries[0].fold().unwrap().state[0].ty, ValueType::Float);
    }

    #[test]
    fn two_folds_combine_into_one_store() {
        let src = "def a (x, (pkt_len)):\n    x = x + pkt_len\n\ndef b (y, (pkt_len)):\n    y = y + 1\n\nSELECT srcip, a, b GROUPBY srcip\n";
        let p = resolve_ok(src);
        let fold = p.queries[0].fold().unwrap();
        assert_eq!(fold.state.len(), 2);
        assert_eq!(fold.state[0].name, "x");
        assert_eq!(fold.state[1].name, "y");
        // Both independent linear folds → combined still linear.
        assert_eq!(fold.class, FoldClass::Linear { window: 0 });
    }

    #[test]
    fn assignment_to_non_state_rejected() {
        let src = "def f (s, (pkt_len)):\n    t = pkt_len\n\nSELECT srcip, f GROUPBY srcip\n";
        assert!(resolve_src(src).is_err());
    }

    #[test]
    fn packet_param_must_be_column() {
        let src = "def f (s, (nosuch)):\n    s = s + 1\n\nSELECT srcip, f GROUPBY srcip\n";
        assert!(resolve_src(src).is_err());
    }

    #[test]
    fn alias_renames_aggregate() {
        let p = resolve_ok("SELECT COUNT AS pkts GROUPBY srcip\n");
        assert!(p.queries[0].schema.contains("pkts"));
    }

    #[test]
    fn qin_alias_resolves_to_qsize() {
        let p = resolve_ok("SELECT qsize FROM T WHERE qin > 10\n");
        assert!(p.queries[0].pre_filter.is_some());
    }

    #[test]
    fn infinity_filter() {
        let p = resolve_ok("SELECT COUNT GROUPBY 5tuple WHERE tout == infinity\n");
        let f = p.queries[0].pre_filter.as_ref().unwrap();
        let mut has_inf = false;
        f.visit(&mut |e| {
            if matches!(e, RExpr::Const(Value::Int(v)) if *v == INFINITY_NS) {
                has_inf = true;
            }
        });
        assert!(has_inf);
    }
}
