//! The unified query plan generator (paper Section 4.2).
//!
//! `compile_select` turns a parsed [`SelectStatement`] into a
//! [`CompiledQuery`]: every column reference resolved to a positional index,
//! every window deduplicated, every aggregate call bound and deduplicated.
//! Both execution engines — online request-mode and offline batch — execute
//! this *same* compiled artifact, which is what guarantees online/offline
//! feature consistency (the paper's headline design goal).
//!
//! In the original system this stage lowers to LLVM IR; here it lowers to a
//! pre-resolved expression tree ([`PhysExpr`]) interpreted by
//! `openmldb-exec`. Column offsets, function bindings and window ids are all
//! resolved at compile time, so per-request work is a flat tree walk with no
//! name lookups — the property the JIT design is after.

use std::any::Any;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use openmldb_types::{ColumnDef, DataType, Error, Result, Schema, Value};

use crate::ast::*;
use crate::functions::{self, FunctionDef, FunctionKind};

/// Catalog interface the planner resolves table names against.
pub trait Catalog {
    /// Schema for `name`, or `None` if the table does not exist.
    fn table_schema(&self, name: &str) -> Option<Schema>;
}

/// A compiled, position-resolved expression.
///
/// Equal expressions compute the same thing on every row: `==` compares
/// literals exactly (`Value`'s equality), operators, columns and functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysExpr {
    Literal(Value),
    /// Index into the row the expression is evaluated against.
    Column(usize),
    Binary {
        op: BinaryOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    Not(Box<PhysExpr>),
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    /// Scalar built-in call.
    ScalarCall {
        func: &'static FunctionDef,
        args: Vec<PhysExpr>,
    },
    /// Reference to the result of `CompiledQuery::aggregates[i]`.
    AggRef(usize),
    Case {
        branches: Vec<(PhysExpr, PhysExpr)>,
        else_expr: Option<Box<PhysExpr>>,
    },
}

impl PhysExpr {
    /// Append every column index referenced by this expression to `out`.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            PhysExpr::Column(i) => out.push(*i),
            PhysExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            PhysExpr::Not(e) => e.collect_columns(out),
            PhysExpr::IsNull { expr, .. } => expr.collect_columns(out),
            PhysExpr::ScalarCall { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            PhysExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = else_expr {
                    e.collect_columns(out);
                }
            }
            PhysExpr::Literal(_) | PhysExpr::AggRef(_) => {}
        }
    }
}

/// One bound LAST JOIN step.
#[derive(Debug, Clone)]
pub struct BoundJoin {
    pub table: String,
    pub schema: Schema,
    /// Offset of this table's first column in the combined schema.
    pub offset: usize,
    /// Equality pairs `(combined-row index, right-table index)` extracted
    /// from the ON condition; these drive index lookups.
    pub eq_pairs: Vec<(usize, usize)>,
    /// Right-table column that orders candidates; the *latest* match wins.
    pub order_col: Option<usize>,
    /// Residual non-equi predicate over the combined row, if any.
    pub residual: Option<PhysExpr>,
}

/// A bound, deduplicated window definition.
#[derive(Debug, Clone)]
pub struct BoundWindow {
    /// Canonical name (the first name that introduced this spec).
    pub name: String,
    /// All source names merged into this window (for EXPLAIN / stats).
    pub merged_names: Vec<String>,
    /// Partition columns, as indices into the *base table* schema.
    pub partition_cols: Vec<usize>,
    /// Order column index in the base table schema.
    pub order_col: usize,
    pub order_desc: bool,
    pub frame: Frame,
    pub maxsize: Option<usize>,
    pub exclude_current_row: bool,
    pub instance_not_in_window: bool,
    /// Window-union source tables (paper Section 5.2); each must be
    /// schema-compatible with the base table.
    pub union_tables: Vec<String>,
}

/// One bound aggregate call, evaluated over a window's rows.
///
/// Two bound aggregates are equal when they are the same computation: one
/// function over the same window, of one output type, over equal arguments
/// (`Value`'s `==` is exact, so `2` and `2.0`, or `0.0` and `-0.0`, are
/// different arguments). Cyclic binding shares one state only between
/// equal aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundAggregate {
    pub window_id: usize,
    pub func: &'static FunctionDef,
    /// Argument expressions over the *base table* schema.
    pub args: Vec<PhysExpr>,
    pub output_type: DataType,
}

/// Plan-level statistics exposed for tests and EXPLAIN output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Window definitions merged because their specs were identical
    /// (parsing optimization, Section 4.2).
    pub merged_windows: usize,
    /// Aggregate calls deduplicated across the select list
    /// (cyclic binding shares their state, Section 4.2).
    pub deduped_aggregates: usize,
}

/// One output column of the query.
#[derive(Debug, Clone)]
pub struct OutputColumn {
    pub name: String,
    pub expr: PhysExpr,
    pub data_type: DataType,
}

/// Write-once slot where the execution layer attaches the deploy-time
/// specialized program for this plan (paper Section 4.2's "compiled artifact
/// cached with the plan" — the reproduction's stand-in for cached LLVM IR).
///
/// The slot is type-erased (`dyn Any`) so this crate stays independent of
/// the execution crate that defines the program representation. Clones share
/// the slot, which is what makes the program ride along with the
/// `Arc<CompiledQuery>` handed out by the plan cache: every deployment of a
/// cache-hit plan sees the same compiled program without recompiling.
#[derive(Clone, Default)]
pub struct SpecializationSlot(Arc<OnceLock<Arc<dyn Any + Send + Sync>>>);

impl SpecializationSlot {
    /// The cached program, initializing it with `init` on first access.
    /// Concurrent initializers race benignly; one value wins and is returned
    /// to everyone.
    pub fn get_or_init(
        &self,
        init: impl FnOnce() -> Arc<dyn Any + Send + Sync>,
    ) -> Arc<dyn Any + Send + Sync> {
        self.0.get_or_init(init).clone()
    }

    /// The cached program, if one has been attached.
    pub fn get(&self) -> Option<Arc<dyn Any + Send + Sync>> {
        self.0.get().cloned()
    }
}

impl std::fmt::Debug for SpecializationSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "SpecializationSlot(compiled)"
        } else {
            "SpecializationSlot(unset)"
        })
    }
}

/// The compiled query — the single artifact both engines execute.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub base_table: String,
    pub base_schema: Schema,
    pub joins: Vec<BoundJoin>,
    /// Base schema followed by each join table's schema.
    pub combined_schema: Schema,
    pub windows: Vec<BoundWindow>,
    pub aggregates: Vec<BoundAggregate>,
    /// Filter over the combined row.
    pub where_clause: Option<PhysExpr>,
    pub select: Vec<OutputColumn>,
    pub output_schema: Schema,
    pub limit: Option<usize>,
    pub stats: PlanStats,
    /// Deploy-time specialized program, attached lazily by the execution
    /// layer and shared across every clone of this plan (including the
    /// cached `Arc` in [`crate::cache::PlanCache`]).
    pub specialized: SpecializationSlot,
}

impl CompiledQuery {
    /// Aggregate ids grouped per window, in window order — the unit the
    /// engines evaluate in a single pass (cyclic binding).
    pub fn aggregates_by_window(&self) -> Vec<Vec<usize>> {
        let mut by_window = vec![Vec::new(); self.windows.len()];
        for (i, a) in self.aggregates.iter().enumerate() {
            by_window[a.window_id].push(i);
        }
        by_window
    }

    /// Render a plan tree in the paper's Section 6.1 vocabulary: with more
    /// than one window, independent `WindowAgg` nodes feed a `ConcatJoin`
    /// over a shared `SimpleProject` that carries the synthetic index column.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Project {}", self.output_schema);
        if let Some(_w) = &self.where_clause {
            let _ = writeln!(out, "  Filter <predicate>");
        }
        let indent = if self.windows.len() > 1 {
            let _ = writeln!(out, "  ConcatJoin (LAST JOIN on #index)");
            "    "
        } else {
            "  "
        };
        for (wid, w) in self.windows.iter().enumerate() {
            let aggs = self
                .aggregates
                .iter()
                .filter(|a| a.window_id == wid)
                .map(|a| a.func.name)
                .collect::<Vec<_>>()
                .join(", ");
            let union = if w.union_tables.is_empty() {
                String::new()
            } else {
                format!(" UNION [{}]", w.union_tables.join(", "))
            };
            let _ = writeln!(
                out,
                "{indent}WindowAgg {} [{}]{union} frame={:?}",
                w.name, aggs, w.frame
            );
        }
        if self.windows.len() > 1 {
            let _ = writeln!(out, "    SimpleProject (+#index column)");
        }
        for j in &self.joins {
            let _ = writeln!(out, "  LastJoin {} on {:?}", j.table, j.eq_pairs);
        }
        let _ = writeln!(out, "  TableScan {}", self.base_table);
        out
    }

    /// Index requirements this plan would like the storage layer to satisfy:
    /// `(table, key columns, ts column)` per window and join.
    pub fn index_hints(&self) -> Vec<(String, Vec<String>, Option<String>)> {
        let mut hints = Vec::new();
        for w in &self.windows {
            let keys: Vec<String> = w
                .partition_cols
                .iter()
                .map(|&i| self.base_schema.column(i).name.clone())
                .collect();
            let ts = Some(self.base_schema.column(w.order_col).name.clone());
            hints.push((self.base_table.clone(), keys.clone(), ts.clone()));
            for u in &w.union_tables {
                hints.push((u.clone(), keys.clone(), ts.clone()));
            }
        }
        for j in &self.joins {
            let keys: Vec<String> = j
                .eq_pairs
                .iter()
                .map(|&(_, r)| j.schema.column(r).name.clone())
                .collect();
            let ts = j.order_col.map(|i| j.schema.column(i).name.clone());
            hints.push((j.table.clone(), keys, ts));
        }
        hints
    }
}

// ---------------------------------------------------------------- binder --

/// Scope used to resolve column names to combined-row offsets.
struct Scope {
    /// `(qualifier, schema, offset)` per table in join order; base first.
    tables: Vec<(String, Schema, usize)>,
}

impl Scope {
    fn resolve(&self, c: &ColumnRef) -> Result<(usize, DataType)> {
        match &c.table {
            Some(q) => {
                for (name, schema, off) in &self.tables {
                    if name == q {
                        let i = schema.index_of(&c.column)?;
                        return Ok((off + i, schema.column(i).data_type));
                    }
                }
                Err(Error::Plan(format!(
                    "unknown table qualifier `{q}` in `{c}`"
                )))
            }
            None => {
                let mut found = None;
                for (_, schema, off) in &self.tables {
                    if let Ok(i) = schema.index_of(&c.column) {
                        if found.is_some() {
                            return Err(Error::Plan(format!("ambiguous column `{c}`")));
                        }
                        found = Some((off + i, schema.column(i).data_type));
                    }
                }
                found.ok_or_else(|| Error::Plan(format!("unknown column `{c}`")))
            }
        }
    }
}

/// Compile a SELECT against a catalog.
pub fn compile_select(stmt: &SelectStatement, catalog: &dyn Catalog) -> Result<CompiledQuery> {
    let base_schema = catalog
        .table_schema(&stmt.from.name)
        .ok_or_else(|| Error::Plan(format!("unknown table `{}`", stmt.from.name)))?;

    // Build the combined scope: base table, then each LAST JOIN table.
    let mut scope = Scope {
        tables: vec![(
            stmt.from.effective_name().to_string(),
            base_schema.clone(),
            0,
        )],
    };
    let mut combined_schema = base_schema.clone();
    let mut joins = Vec::with_capacity(stmt.joins.len());
    for j in &stmt.joins {
        let schema = catalog
            .table_schema(&j.right.name)
            .ok_or_else(|| Error::Plan(format!("unknown table `{}`", j.right.name)))?;
        let offset = combined_schema.len();
        combined_schema = combined_schema.concat(&schema)?;
        scope
            .tables
            .push((j.right.effective_name().to_string(), schema.clone(), offset));
        joins.push((j, schema, offset));
    }

    // Bind join conditions now that the full scope exists.
    let bound_joins = joins
        .into_iter()
        .map(|(j, schema, offset)| bind_join(j, schema, offset, &scope))
        .collect::<Result<Vec<_>>>()?;

    // Bind and deduplicate windows (parsing optimization: identical specs
    // merge into one window id regardless of name).
    let mut windows: Vec<BoundWindow> = Vec::new();
    let mut name_to_window = std::collections::HashMap::new();
    let mut merged = 0usize;
    for def in &stmt.windows {
        let bound = bind_window(def, &base_schema, catalog)?;
        if let Some(existing) = windows.iter_mut().find(|w| window_spec_eq(w, &bound)) {
            existing.merged_names.push(def.name.clone());
            let id = name_to_window[&existing.name];
            name_to_window.insert(def.name.clone(), id);
            merged += 1;
        } else {
            name_to_window.insert(def.name.clone(), windows.len());
            windows.push(bound);
        }
    }

    // Compile select items; aggregate calls land in `aggregates` (deduped).
    let mut binder = ExprBinder {
        scope: &scope,
        base_schema: &base_schema,
        windows: &name_to_window,
        aggregates: Vec::new(),
        deduped: 0,
    };
    let mut select = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (qi, (_, schema, off)) in scope.tables.iter().enumerate() {
                    for (i, col) in schema.columns().iter().enumerate() {
                        let name = if qi == 0 {
                            col.name.clone()
                        } else {
                            combined_schema.column(off + i).name.clone()
                        };
                        select.push(OutputColumn {
                            name,
                            expr: PhysExpr::Column(off + i),
                            data_type: col.data_type,
                        });
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let (_, schema, off) = scope
                    .tables
                    .iter()
                    .find(|(n, _, _)| n == q)
                    .ok_or_else(|| Error::Plan(format!("unknown table `{q}` in `{q}.*`")))?;
                for (i, col) in schema.columns().iter().enumerate() {
                    select.push(OutputColumn {
                        name: col.name.clone(),
                        expr: PhysExpr::Column(off + i),
                        data_type: col.data_type,
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                let (phys, dt) = binder.bind(expr)?;
                let name = alias
                    .clone()
                    .unwrap_or_else(|| derive_name(expr, select.len()));
                select.push(OutputColumn {
                    name,
                    expr: phys,
                    data_type: dt,
                });
            }
        }
    }

    // WHERE over the combined row; aggregates are not allowed there.
    let where_clause = match &stmt.where_clause {
        Some(e) => {
            if !e.window_refs().is_empty() {
                return Err(Error::Plan("aggregates are not allowed in WHERE".into()));
            }
            Some(binder.bind(e)?.0)
        }
        None => None,
    };

    // Release the scope/schema borrows; keep only the collected aggregates.
    let ExprBinder {
        aggregates,
        deduped,
        ..
    } = binder;

    // Validate that every aggregate names a known window.
    for a in &aggregates {
        if a.window_id >= windows.len() {
            return Err(Error::Plan("aggregate bound to unknown window".into()));
        }
    }

    let mut names_seen = std::collections::HashSet::new();
    let output_schema = Schema::new(
        select
            .iter()
            .map(|c| {
                let mut name = c.name.clone();
                let mut n = 1;
                while !names_seen.insert(name.clone()) {
                    name = format!("{}_{n}", c.name);
                    n += 1;
                }
                ColumnDef::new(name, c.data_type)
            })
            .collect(),
    )?;

    Ok(CompiledQuery {
        base_table: stmt.from.name.clone(),
        base_schema,
        joins: bound_joins,
        combined_schema,
        aggregates,
        stats: PlanStats {
            merged_windows: merged,
            deduped_aggregates: deduped,
        },
        windows,
        where_clause,
        select,
        output_schema,
        limit: stmt.limit,
        specialized: SpecializationSlot::default(),
    })
}

fn window_spec_eq(a: &BoundWindow, b: &BoundWindow) -> bool {
    a.partition_cols == b.partition_cols
        && a.order_col == b.order_col
        && a.order_desc == b.order_desc
        && a.frame == b.frame
        && a.maxsize == b.maxsize
        && a.exclude_current_row == b.exclude_current_row
        && a.instance_not_in_window == b.instance_not_in_window
        && a.union_tables == b.union_tables
}

fn bind_window(
    def: &WindowDef,
    base_schema: &Schema,
    catalog: &dyn Catalog,
) -> Result<BoundWindow> {
    let partition_cols = def
        .spec
        .partition_by
        .iter()
        .map(|c| base_schema.index_of(&c.column))
        .collect::<Result<Vec<_>>>()?;
    let order_col = base_schema.index_of(&def.spec.order_by.column)?;
    let order_type = base_schema.column(order_col).data_type;
    if !matches!(
        order_type,
        DataType::Timestamp | DataType::Bigint | DataType::Int
    ) {
        return Err(Error::Plan(format!(
            "window `{}` ORDER BY column must be time-ordered (TIMESTAMP/BIGINT/INT), got {}",
            def.name, order_type
        )));
    }
    // Union tables must be schema-compatible with the base table so their
    // tuples can flow through the same window aggregators (Section 5.2).
    let mut union_tables = Vec::new();
    for t in &def.spec.union_tables {
        let s = catalog
            .table_schema(&t.name)
            .ok_or_else(|| Error::Plan(format!("unknown union table `{}`", t.name)))?;
        if s != *base_schema {
            return Err(Error::Plan(format!(
                "window `{}` UNION table `{}` must match the base table schema {base_schema}",
                def.name, t.name
            )));
        }
        union_tables.push(t.name.clone());
    }
    Ok(BoundWindow {
        name: def.name.clone(),
        merged_names: vec![def.name.clone()],
        partition_cols,
        order_col,
        order_desc: def.spec.order_desc,
        frame: def.spec.frame,
        maxsize: def.spec.maxsize,
        exclude_current_row: def.spec.exclude_current_row,
        instance_not_in_window: def.spec.instance_not_in_window,
        union_tables,
    })
}

fn bind_join(j: &LastJoin, schema: Schema, offset: usize, scope: &Scope) -> Result<BoundJoin> {
    let order_col = match &j.order_by {
        Some(c) => Some(schema.index_of(&c.column)?),
        None => None,
    };
    // Split the ON condition into conjuncts; keep `left = right` pairs as
    // index-lookup keys and everything else as a residual predicate.
    let mut eq_pairs = Vec::new();
    let mut residual = Vec::new();
    let mut stack = vec![&j.condition];
    let mut conjuncts = Vec::new();
    while let Some(e) = stack.pop() {
        match e {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                stack.push(left);
                stack.push(right);
            }
            other => conjuncts.push(other),
        }
    }
    let right_range = offset..offset + schema.len();
    for c in conjuncts {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = c
        {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                let (ia, _) = scope.resolve(a)?;
                let (ib, _) = scope.resolve(b)?;
                match (right_range.contains(&ia), right_range.contains(&ib)) {
                    (false, true) => {
                        eq_pairs.push((ia, ib - offset));
                        continue;
                    }
                    (true, false) => {
                        eq_pairs.push((ib, ia - offset));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        residual.push(c.clone());
    }
    if eq_pairs.is_empty() {
        return Err(Error::Plan(format!(
            "LAST JOIN {} requires at least one equality between left and right columns",
            j.right.name
        )));
    }
    let residual = residual
        .into_iter()
        .map(|e| {
            let mut binder = ExprBinder {
                scope,
                base_schema: &schema, // unused for non-aggregate exprs
                windows: &std::collections::HashMap::new(),
                aggregates: Vec::new(),
                deduped: 0,
            };
            binder.bind(&e).map(|(p, _)| p)
        })
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .reduce(|a, b| PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(a),
            right: Box::new(b),
        });
    Ok(BoundJoin {
        table: j.right.name.clone(),
        schema,
        offset,
        eq_pairs,
        order_col,
        residual,
    })
}

/// Expression binder: resolves columns via `scope`, aggregate arguments via
/// `base_schema`, and collects deduplicated aggregate calls.
struct ExprBinder<'a> {
    scope: &'a Scope,
    base_schema: &'a Schema,
    windows: &'a std::collections::HashMap<String, usize>,
    aggregates: Vec<BoundAggregate>,
    deduped: usize,
}

impl ExprBinder<'_> {
    fn bind(&mut self, e: &Expr) -> Result<(PhysExpr, DataType)> {
        Ok(match e {
            Expr::Literal(l) => {
                let v = literal_value(l);
                let dt = v.data_type().unwrap_or(DataType::Double);
                (PhysExpr::Literal(v), dt)
            }
            Expr::Column(c) => {
                let (idx, dt) = self.scope.resolve(c)?;
                (PhysExpr::Column(idx), dt)
            }
            Expr::Binary { op, left, right } => {
                let (l, lt) = self.bind(left)?;
                let (r, rt) = self.bind(right)?;
                let dt = binary_result_type(*op, lt, rt);
                (
                    PhysExpr::Binary {
                        op: *op,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    dt,
                )
            }
            Expr::Not(inner) => {
                let (i, _) = self.bind(inner)?;
                (PhysExpr::Not(Box::new(i)), DataType::Bool)
            }
            Expr::IsNull { expr, negated } => {
                let (i, _) = self.bind(expr)?;
                (
                    PhysExpr::IsNull {
                        expr: Box::new(i),
                        negated: *negated,
                    },
                    DataType::Bool,
                )
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut bound = Vec::with_capacity(branches.len());
                let mut dt = None;
                for (c, v) in branches {
                    let (bc, _) = self.bind(c)?;
                    let (bv, vt) = self.bind(v)?;
                    dt.get_or_insert(vt);
                    bound.push((bc, bv));
                }
                let else_bound = match else_expr {
                    Some(e) => {
                        let (b, _) = self.bind(e)?;
                        Some(Box::new(b))
                    }
                    None => None,
                };
                (
                    PhysExpr::Case {
                        branches: bound,
                        else_expr: else_bound,
                    },
                    dt.unwrap_or(DataType::Double),
                )
            }
            Expr::Call { name, args, over } => self.bind_call(name, args, over.as_deref())?,
        })
    }

    fn bind_call(
        &mut self,
        name: &str,
        args: &[Expr],
        over: Option<&str>,
    ) -> Result<(PhysExpr, DataType)> {
        let def = functions::resolve(name, args.len())?;
        match def.kind {
            FunctionKind::Scalar => {
                if over.is_some() {
                    return Err(Error::Plan(format!(
                        "scalar function `{name}` cannot take an OVER clause"
                    )));
                }
                let mut bound = Vec::with_capacity(args.len());
                let mut arg_types = Vec::with_capacity(args.len());
                for a in args {
                    let (b, t) = self.bind(a)?;
                    arg_types.push(Some(t));
                    bound.push(b);
                }
                let dt = (def.infer)(&arg_types);
                Ok((
                    PhysExpr::ScalarCall {
                        func: def,
                        args: bound,
                    },
                    dt,
                ))
            }
            FunctionKind::Aggregate => {
                let window_name = over.ok_or_else(|| {
                    Error::Plan(format!(
                        "aggregate `{name}` requires an OVER <window> clause"
                    ))
                })?;
                let window_id = *self.windows.get(window_name).ok_or_else(|| {
                    Error::Plan(format!("unknown window `{window_name}` in OVER clause"))
                })?;
                // Aggregate arguments are evaluated over window rows — the
                // base/union table schema, not the joined row.
                let base_scope = Scope {
                    tables: vec![("".into(), self.base_schema.clone(), 0)],
                };
                let mut sub = ExprBinder {
                    scope: &base_scope,
                    base_schema: self.base_schema,
                    windows: self.windows,
                    aggregates: Vec::new(),
                    deduped: 0,
                };
                let mut bound = Vec::with_capacity(args.len());
                let mut arg_types = Vec::with_capacity(args.len());
                for a in args {
                    // Strip qualifiers inside aggregate args: window rows come
                    // from possibly multiple union tables.
                    let stripped = strip_qualifiers(a);
                    let (b, t) = sub.bind(&stripped)?;
                    arg_types.push(Some(t));
                    bound.push(b);
                }
                if !sub.aggregates.is_empty() {
                    return Err(Error::Plan(format!("nested aggregate in `{name}`")));
                }
                let output_type = (def.infer)(&arg_types);
                let candidate = BoundAggregate {
                    window_id,
                    func: def,
                    args: bound,
                    output_type,
                };
                // Cyclic-binding dedup: identical calls share one slot.
                if let Some(i) = self.aggregates.iter().position(|a| *a == candidate) {
                    self.deduped += 1;
                    return Ok((PhysExpr::AggRef(i), output_type));
                }
                self.aggregates.push(candidate);
                Ok((PhysExpr::AggRef(self.aggregates.len() - 1), output_type))
            }
        }
    }
}

/// Remove table qualifiers from every column reference (used for window
/// aggregate arguments, which address window rows positionally).
fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(ColumnRef::unqualified(c.column.clone())),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(strip_qualifiers(left)),
            right: Box::new(strip_qualifiers(right)),
        },
        Expr::Not(i) => Expr::Not(Box::new(strip_qualifiers(i))),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        Expr::Call { name, args, over } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(strip_qualifiers).collect(),
            over: over.clone(),
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (strip_qualifiers(c), strip_qualifiers(v)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(strip_qualifiers(e))),
        },
        Expr::Literal(_) => e.clone(),
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Bigint(*i),
        Literal::Float(f) => Value::Double(*f),
        Literal::Str(s) => Value::string(s.as_str()),
    }
}

fn binary_result_type(op: BinaryOp, lt: DataType, rt: DataType) -> DataType {
    use BinaryOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq | And | Or => DataType::Bool,
        Add | Sub | Mul | Div | Mod => {
            if lt == DataType::Double
                || rt == DataType::Double
                || lt == DataType::Float
                || rt == DataType::Float
                || op == Div
            {
                DataType::Double
            } else {
                DataType::Bigint
            }
        }
    }
}

fn derive_name(e: &Expr, ordinal: usize) -> String {
    match e {
        Expr::Column(c) => c.column.clone(),
        Expr::Call { name, .. } => name.clone(),
        _ => format!("expr_{ordinal}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use std::collections::HashMap;

    struct TestCatalog(HashMap<String, Schema>);

    impl Catalog for TestCatalog {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            self.0.get(name).cloned()
        }
    }

    fn catalog() -> TestCatalog {
        let actions = Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("category", DataType::String),
            ("price", DataType::Double),
            ("quantity", DataType::Int),
            ("ts", DataType::Timestamp),
        ])
        .unwrap();
        let profiles = Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("age", DataType::Int),
            ("updated", DataType::Timestamp),
        ])
        .unwrap();
        let mut m = HashMap::new();
        m.insert("actions".into(), actions.clone());
        m.insert("orders".into(), actions); // union tables share the schema
        m.insert("profiles".into(), profiles);
        TestCatalog(m)
    }

    fn compile(sql: &str) -> CompiledQuery {
        compile_select(&parse_select(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn binds_windows_and_aggregates() {
        let q = compile(
            "SELECT userid, sum(price) OVER w AS total, avg(price) OVER w AS mean \
             FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts \
             ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW)",
        );
        assert_eq!(q.windows.len(), 1);
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.output_schema.len(), 3);
        assert_eq!(q.output_schema.column(1).name, "total");
        assert_eq!(q.output_schema.column(1).data_type, DataType::Double);
        assert_eq!(q.windows[0].partition_cols, vec![0]);
        assert_eq!(q.windows[0].order_col, 4);
    }

    #[test]
    fn identical_windows_merge() {
        let q = compile(
            "SELECT sum(price) OVER w1 AS a, count(price) OVER w2 AS b FROM actions \
             WINDOW w1 AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW), \
                    w2 AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
        );
        assert_eq!(q.windows.len(), 1, "specs identical → merged");
        assert_eq!(q.stats.merged_windows, 1);
        assert_eq!(q.aggregates.len(), 2);
        assert!(q.aggregates.iter().all(|a| a.window_id == 0));
    }

    #[test]
    fn duplicate_aggregates_dedupe() {
        let q = compile(
            "SELECT sum(price) OVER w AS a, sum(price) OVER w AS b, \
                    sum(price) OVER w + 1 AS c FROM actions \
             WINDOW w AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
        );
        assert_eq!(q.aggregates.len(), 1, "one physical sum state");
        assert_eq!(q.stats.deduped_aggregates, 2);
    }

    #[test]
    fn last_join_extracts_eq_pairs() {
        let q = compile(
            "SELECT actions.userid, profiles.age FROM actions \
             LAST JOIN profiles ORDER BY profiles.updated ON actions.userid = profiles.userid",
        );
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].eq_pairs, vec![(0, 0)]);
        assert_eq!(q.joins[0].order_col, Some(2));
        assert!(q.joins[0].residual.is_none());
        assert_eq!(q.combined_schema.len(), 8);
    }

    #[test]
    fn join_residual_predicate_kept() {
        let q = compile(
            "SELECT actions.userid FROM actions \
             LAST JOIN profiles ON actions.userid = profiles.userid AND profiles.age > 18",
        );
        assert!(q.joins[0].residual.is_some());
        assert_eq!(q.joins[0].eq_pairs.len(), 1);
    }

    #[test]
    fn window_union_requires_schema_match() {
        let err = compile_select(
            &parse_select(
                "SELECT count(price) OVER w AS c FROM actions WINDOW w AS (\
                 UNION profiles PARTITION BY userid ORDER BY ts \
                 ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("must match"), "{err}");

        let ok = compile(
            "SELECT count(price) OVER w AS c FROM actions WINDOW w AS (\
             UNION orders PARTITION BY userid ORDER BY ts \
             ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
        );
        assert_eq!(ok.windows[0].union_tables, vec!["orders"]);
    }

    #[test]
    fn aggregate_requires_over() {
        let err = compile_select(
            &parse_select("SELECT sum(price) AS s FROM actions").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("OVER"));
    }

    #[test]
    fn unknown_column_and_table_errors() {
        let c = catalog();
        assert!(compile_select(&parse_select("SELECT x FROM actions").unwrap(), &c).is_err());
        assert!(compile_select(&parse_select("SELECT a FROM missing").unwrap(), &c).is_err());
    }

    #[test]
    fn explain_shows_concat_join_for_multiwindow() {
        let q = compile(
            "SELECT sum(price) OVER w1 AS a, count(price) OVER w2 AS b FROM actions \
             WINDOW w1 AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW), \
                    w2 AS (PARTITION BY category ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
        );
        let plan = q.explain();
        assert!(plan.contains("ConcatJoin"), "{plan}");
        assert!(plan.contains("SimpleProject"), "{plan}");
    }

    #[test]
    fn index_hints_cover_windows_and_joins() {
        let q = compile(
            "SELECT actions.userid, profiles.age, sum(price) OVER w AS s FROM actions \
             LAST JOIN profiles ON actions.userid = profiles.userid \
             WINDOW w AS (UNION orders PARTITION BY userid ORDER BY ts \
             ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)",
        );
        let hints = q.index_hints();
        assert!(hints.contains(&("actions".into(), vec!["userid".into()], Some("ts".into()))));
        assert!(hints.contains(&("orders".into(), vec!["userid".into()], Some("ts".into()))));
        assert!(hints.contains(&("profiles".into(), vec!["userid".into()], None)));
    }

    #[test]
    fn output_name_collisions_get_suffixed() {
        let q = compile("SELECT userid, userid FROM actions");
        assert_eq!(q.output_schema.column(0).name, "userid");
        assert_eq!(q.output_schema.column(1).name, "userid_1");
    }

    #[test]
    fn where_rejects_aggregates() {
        let err = compile_select(
            &parse_select(
                "SELECT userid FROM actions WHERE sum(price) OVER w > 5 \
                 WINDOW w AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("WHERE"));
    }
}
