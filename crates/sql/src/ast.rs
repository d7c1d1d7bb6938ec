//! Abstract syntax tree for OpenMLDB SQL.
//!
//! The dialect covers the operations of the paper's Table 1: window
//! definitions with `UNION`-ed source tables, `ROWS` / `ROWS_RANGE` frames,
//! `LAST JOIN`, the extended function library, plus the DDL/DML statements
//! the system needs (`CREATE TABLE`, `INSERT`, `DEPLOY ... AS SELECT`).

use std::fmt;

use openmldb_types::DataType;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStatement),
    CreateTable(CreateTableStatement),
    Insert(InsertStatement),
    Deploy(DeployStatement),
    /// `EXPLAIN SELECT ...` — renders the compiled plan tree.
    Explain(Box<SelectStatement>),
}

/// `SELECT ... FROM ... [LAST JOIN ...] [WHERE ...] [WINDOW ...] [LIMIT n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    /// Chain of LAST JOINs applied left-to-right.
    pub joins: Vec<LastJoin>,
    pub where_clause: Option<Expr>,
    pub windows: Vec<WindowDef>,
    pub limit: Option<usize>,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
    /// `*`
    Wildcard,
    /// `table.*`
    QualifiedWildcard(String),
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name expressions should use to qualify columns of this table.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// `LAST JOIN right [ORDER BY col] ON condition` — matches at most one (the
/// latest) right-side row per left row (paper Section 4.1, "Stream Join").
#[derive(Debug, Clone, PartialEq)]
pub struct LastJoin {
    pub right: TableRef,
    /// Optional ordering column picking which right row is "last".
    pub order_by: Option<ColumnRef>,
    pub condition: Expr,
}

/// A named window definition from the WINDOW clause.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDef {
    pub name: String,
    pub spec: WindowSpec,
}

/// The window specification — this is the unit the optimizer merges when two
/// names share one spec (paper Section 4.2, "Parsing Optimization").
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Extra tables unioned into the window (`UNION orders, actions`),
    /// the multi-table Window Union of Section 5.2.
    pub union_tables: Vec<TableRef>,
    pub partition_by: Vec<ColumnRef>,
    pub order_by: ColumnRef,
    pub order_desc: bool,
    pub frame: Frame,
    /// Cap on rows kept in the window (MAXSIZE attribute).
    pub maxsize: Option<usize>,
    /// EXCLUDE CURRENT_ROW attribute.
    pub exclude_current_row: bool,
    /// INSTANCE_NOT_IN_WINDOW attribute: the probing row itself joins the
    /// window only as an anchor, not as data.
    pub instance_not_in_window: bool,
}

/// Window frame: either row-count based or time-range based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frame {
    /// `ROWS BETWEEN n PRECEDING AND CURRENT ROW`
    Rows { preceding: u64 },
    /// `ROWS_RANGE BETWEEN <interval> PRECEDING AND CURRENT ROW`,
    /// milliseconds.
    RowsRange { preceding_ms: i64 },
    /// `ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW`
    Unbounded,
}

impl Frame {
    /// Whether a tuple at `ts`/`rank` (0 = current row) is inside the frame
    /// anchored at `anchor_ts`.
    pub fn contains(&self, anchor_ts: i64, ts: i64, rank: u64) -> bool {
        match self {
            Frame::Rows { preceding } => rank <= *preceding,
            Frame::RowsRange { preceding_ms } => {
                anchor_ts.saturating_sub(*preceding_ms) <= ts && ts <= anchor_ts
            }
            Frame::Unbounded => true,
        }
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn unqualified(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Scalar literal in the AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Literal),
    Column(ColumnRef),
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Function call; `over` names the window for aggregate calls
    /// (`sum(price) OVER w1`).
    Call {
        name: String,
        args: Vec<Expr>,
        over: Option<String>,
    },
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// All column references in the expression, in evaluation order.
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Not(e) => e.visit_columns(f),
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit_columns(f);
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.visit_columns(f);
                    v.visit_columns(f);
                }
                if let Some(e) = else_expr {
                    e.visit_columns(f);
                }
            }
            Expr::Literal(_) => {}
        }
    }

    /// Window names referenced by OVER clauses anywhere in the expression.
    pub fn window_refs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_calls(&mut |name, over| {
            let _ = name;
            if let Some(w) = over {
                out.push(w);
            }
        });
        out
    }

    fn visit_calls<'a>(&'a self, f: &mut impl FnMut(&'a str, Option<&'a str>)) {
        match self {
            Expr::Call { name, args, over } => {
                f(name, over.as_deref());
                for a in args {
                    a.visit_calls(f);
                }
            }
            Expr::Binary { left, right, .. } => {
                left.visit_calls(f);
                right.visit_calls(f);
            }
            Expr::Not(e) => e.visit_calls(f),
            Expr::IsNull { expr, .. } => expr.visit_calls(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.visit_calls(f);
                    v.visit_calls(f);
                }
                if let Some(e) = else_expr {
                    e.visit_calls(f);
                }
            }
            Expr::Literal(_) | Expr::Column(_) => {}
        }
    }
}

/// `CREATE TABLE name (col type [NOT NULL], ..., INDEX(KEY=..., TS=..., TTL=...))`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStatement {
    pub name: String,
    pub columns: Vec<(String, DataType, bool)>,
    pub indexes: Vec<IndexDef>,
}

/// Index definition inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    pub key_columns: Vec<String>,
    pub ts_column: Option<String>,
    /// TTL expressed per the index's [`TtlSpec`].
    pub ttl: TtlSpec,
}

/// TTL policies, matching the paper's table types of Section 8.1:
/// `latest` (keep N most recent per key), `absolute` (keep a time range),
/// and the combined forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlSpec {
    /// Keep everything.
    Unlimited,
    /// Keep the latest `n` rows per key (`latest`).
    Latest(u64),
    /// Keep rows younger than this many milliseconds (`absolute`).
    AbsoluteMs(i64),
    /// Keep rows satisfying *both* bounds (`absandlat`).
    AbsAndLat { ms: i64, latest: u64 },
    /// Keep rows satisfying *either* bound (`absorlat`).
    AbsOrLat { ms: i64, latest: u64 },
}

/// `INSERT INTO t VALUES (...), (...)`
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    pub table: String,
    pub rows: Vec<Vec<Literal>>,
}

/// `DEPLOY name [OPTIONS(key="value", ...)] AS SELECT ...`
///
/// The OPTIONS map carries deployment knobs — notably
/// `long_windows="w1:1d"`, which turns on long-window pre-aggregation with
/// the given bucket granularity (paper Section 9.3.1, Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct DeployStatement {
    pub name: String,
    pub options: Vec<(String, String)>,
    pub select: SelectStatement,
}

impl DeployStatement {
    /// Parse the `long_windows` option into `(window, bucket)` pairs.
    /// Format: `"w1:1d,w2:1h"`.
    pub fn long_windows(&self) -> Vec<(String, String)> {
        self.options
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case("long_windows"))
            .flat_map(|(_, v)| {
                v.split(',').filter_map(|part| {
                    let (w, b) = part.split_once(':')?;
                    Some((w.trim().to_string(), b.trim().to_string()))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_contains() {
        let f = Frame::Rows { preceding: 2 };
        assert!(f.contains(0, 0, 0));
        assert!(f.contains(0, 0, 2));
        assert!(!f.contains(0, 0, 3));

        let f = Frame::RowsRange {
            preceding_ms: 3_000,
        };
        assert!(f.contains(10_000, 7_000, 99));
        assert!(!f.contains(10_000, 6_999, 0));
        assert!(!f.contains(10_000, 10_001, 0)); // future tuple excluded
        assert!(Frame::Unbounded.contains(0, -5, 1_000_000));
    }

    #[test]
    fn expr_visitors() {
        let e = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(Expr::Column(ColumnRef::unqualified("a"))),
            right: Box::new(Expr::Call {
                name: "sum".into(),
                args: vec![Expr::Column(ColumnRef::unqualified("b"))],
                over: Some("w1".into()),
            }),
        };
        let cols: Vec<String> = e.column_refs().iter().map(|c| c.column.clone()).collect();
        assert_eq!(cols, vec!["a", "b"]);
        assert_eq!(e.window_refs(), vec!["w1"]);
    }

    #[test]
    fn long_windows_option_parsing() {
        let d = DeployStatement {
            name: "demo".into(),
            options: vec![("long_windows".into(), "w1:1d, w2:1h".into())],
            select: SelectStatement {
                items: vec![SelectItem::Wildcard],
                from: TableRef {
                    name: "t".into(),
                    alias: None,
                },
                joins: vec![],
                where_clause: None,
                windows: vec![],
                limit: None,
            },
        };
        assert_eq!(
            d.long_windows(),
            vec![
                ("w1".to_string(), "1d".to_string()),
                ("w2".to_string(), "1h".to_string())
            ]
        );
    }
}
