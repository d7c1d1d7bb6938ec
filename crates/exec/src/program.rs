//! Deploy-time plan specialization: flat bytecode programs for the online
//! hot path (paper Section 4.2's compiled execution, reproduced without a
//! JIT).
//!
//! At DEPLOY time [`specialize`] lowers a validated [`CompiledQuery`] into a
//! [`Program`]:
//!
//! * **Window kernels** ([`WindowProgram`], `fold`) — every aggregate of a
//!   window lowers to a kernel of one of four families, all folded in the
//!   same single pass over the scanned rows, read where they lie
//!   ([`RowSource`](crate::RowSource): a request's rows lent by the skiplist
//!   under its pin, or an arena). One module per family:
//!   1. `column` — `sum/count/avg/min/max/stddev` over a bare column,
//!      monomorphized by column type, at an offset resolved at deploy time
//!      (`field`: the reader every family shares);
//!   2. `expression` — the same functions over `+ - * / %` trees of
//!      fixed-width numeric columns and literals, a small typed register
//!      program read straight from the encoded bytes;
//!   3. `countmap` — `distinct_count` / `topn_frequency` over a bare column
//!      in a pooled open-addressing table;
//!   4. `generic` — everything else the function registry accepts, run by
//!      the interpreter's own aggregate slots fed from the row view.
//!
//!   Each family module owns one contract — step a row, retract a stored
//!   row where its fold is exactly invertible (the module decides: count
//!   and wrapping `i64` sums, count maps), project its values — and every
//!   engine calls it: the serve loop, the offline sweep and the window
//!   union's stream ([`Sweep`], `sweep`). The request row is one more row
//!   in the same format: encoded once, it is stepped last, as row `n` of
//!   the fold's rows, by the code that steps a stored row.
//!   DESIGN.md §16.2 tabulates the families. Frame bounds (`ROWS n
//!   PRECEDING`, `MAXSIZE`) and the `EXCLUDE CURRENT_ROW` check are hoisted
//!   into precomputed guards ([`WindowProgram::first_in_frame`]).
//! * **Expression programs** ([`ExprProgram`], `vm`) — scalar select/WHERE
//!   expressions flattened into a register-machine program over a reusable
//!   value stack, with constant subtrees folded at compile time and scalar
//!   calls dispatched through a function id (no per-row name lookup).
//!
//! The fold replicates [`WindowAggSet`](crate::WindowAggSet)'s *bit for bit* — including
//! `total_cmp`'s f64-promoted comparisons for integer extrema, the
//! first-seen-wins tie rule, `eval::binary`'s integer-preserving arithmetic
//! with its typed overflow error, and the count maps' `count desc, key asc`
//! projection order — so `WindowAggSet` stays the correctness oracle (the
//! materializing reference executor folds with it). The program is the only
//! thing that serves: a window whose aggregates `WindowAggSet::new` itself
//! rejects ([`Program::fallback_reason`]), or a select/WHERE expression that
//! does not lower (a scalar call outside the builtin dispatch table, a
//! program past the 16-bit jump range), is a refusal DEPLOY reports
//! ([`Program::refusal`]) — nothing is left to interpret at serve time.
//!
//! The program is cached on the plan itself via
//! [`SpecializationSlot`](openmldb_sql::plan::SpecializationSlot), so every
//! deployment of a cache-hit plan shares one compiled artifact.

use std::any::Any;
use std::sync::Arc;

use openmldb_sql::plan::{BoundAggregate, CompiledQuery};
use openmldb_types::{CompactCodec, Error, Result};

mod column;
mod countmap;
mod expression;
mod field;
mod fold;
mod generic;
mod sweep;
mod vm;

pub use fold::{EntryOrder, WindowProgram, WindowState};
pub use sweep::{Sweep, SweepState};
pub use vm::ExprProgram;

/// Per-window compilation outcome.
#[derive(Debug)]
enum WindowUnit {
    /// The window's kernels and their incremental offline sweep, both
    /// lowered once with the plan.
    Compiled(Box<(WindowProgram, Sweep)>),
    /// The window did not lower — its plan holds an aggregate
    /// [`WindowAggSet::new`](crate::WindowAggSet::new) rejects. DEPLOY refuses the plan with this
    /// reason (which names the window).
    Refused(String),
    /// No aggregates bound to this window — nothing to run.
    NoAggs,
}

/// A deployed plan lowered to bytecode: per-window kernels plus flattened
/// select/WHERE expression programs. A window or expression that does not
/// lower is recorded as a refusal ([`Program::refusal`]); a deployment is
/// only ever built from a program without one, so serving never meets an
/// uncompiled window or expression.
#[derive(Debug)]
pub struct Program {
    windows: Vec<WindowUnit>,
    /// Select-list programs, one per output column, or why one did not lower.
    select: std::result::Result<Vec<ExprProgram>, String>,
    /// The WHERE program (`None`: the plan has no WHERE clause).
    where_program: std::result::Result<Option<ExprProgram>, String>,
    /// Per LAST JOIN, its residual predicate's program (`None`: an
    /// equality-only join), or why one did not lower.
    joins: std::result::Result<Vec<Option<ExprProgram>>, String>,
}

impl Program {
    /// Lower `query`. Infallible: whatever does not lower is recorded as a
    /// refusal for DEPLOY to report, never an error here.
    pub fn compile(query: &CompiledQuery) -> Program {
        let codec = CompactCodec::new(query.base_schema.clone());
        let by_window = query.aggregates_by_window();
        let windows = query
            .windows
            .iter()
            .enumerate()
            .map(|(wid, w)| {
                let aggs: Vec<&BoundAggregate> = by_window[wid]
                    .iter()
                    .map(|&i| &query.aggregates[i])
                    .collect();
                if aggs.is_empty() {
                    return WindowUnit::NoAggs;
                }
                let lowered = WindowProgram::compile(w, &aggs, &codec)
                    .and_then(|wp| Ok((wp.sweep(w, false)?, wp)));
                match lowered {
                    Ok((sweep, wp)) => WindowUnit::Compiled(Box::new((wp, sweep))),
                    Err(reason) => WindowUnit::Refused(format!("window `{}`: {reason}", w.name)),
                }
            })
            .collect();
        let select = query
            .select
            .iter()
            .map(|c| {
                ExprProgram::compile(&c.expr)
                    .map_err(|reason| format!("select column `{}`: {reason}", c.name))
            })
            .collect();
        let where_program = query
            .where_clause
            .as_ref()
            .map(|p| ExprProgram::compile(p).map_err(|reason| format!("WHERE clause: {reason}")))
            .transpose();
        let joins = query
            .joins
            .iter()
            .map(|j| {
                let residual = j.residual.as_ref().map(ExprProgram::compile).transpose();
                residual.map_err(|reason| format!("LAST JOIN `{}` condition: {reason}", j.table))
            })
            .collect();
        Program {
            windows,
            select,
            where_program,
            joins,
        }
    }

    /// The compiled kernels for window `wid` (`None`: refused or
    /// aggregate-free).
    pub fn window(&self, wid: usize) -> Option<&WindowProgram> {
        match self.windows.get(wid) {
            Some(WindowUnit::Compiled(both)) => Some(&both.0),
            _ => None,
        }
    }

    /// Window `wid`'s incremental offline sweep, lowered with the plan
    /// (`None`: refused or aggregate-free). The naive oracle's
    /// re-fold-every-frame sweep is lowered on demand
    /// ([`WindowProgram::sweep`]).
    pub fn sweep(&self, wid: usize) -> Option<&Sweep> {
        match self.windows.get(wid) {
            Some(WindowUnit::Compiled(both)) => Some(&both.1),
            _ => None,
        }
    }

    /// Why window `wid` was refused (`None` when compiled or
    /// aggregate-free).
    pub fn fallback_reason(&self, wid: usize) -> Option<&str> {
        match self.windows.get(wid) {
            Some(WindowUnit::Refused(r)) => Some(r),
            _ => None,
        }
    }

    /// The first construct that did not lower — a window, a select column,
    /// the WHERE clause or a LAST JOIN's residual condition — named, with
    /// the reason. DEPLOY refuses a plan whose program has one.
    pub fn refusal(&self) -> Option<&str> {
        (0..self.windows.len())
            .find_map(|wid| self.fallback_reason(wid))
            .or(self.select.as_ref().err().map(String::as_str))
            .or(self.where_program.as_ref().err().map(String::as_str))
            .or(self.joins.as_ref().err().map(String::as_str))
    }

    /// [`Program::refusal`] as the typed error every engine raises for it:
    /// `name` (a deployment, or the offline query) does not compile.
    pub fn accept(&self, name: &str) -> Result<()> {
        match self.refusal() {
            Some(refusal) => Err(Error::Deployment(format!(
                "`{name}` does not compile: {refusal}"
            ))),
            None => Ok(()),
        }
    }

    pub fn compiled_windows(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| matches!(w, WindowUnit::Compiled(..)))
            .count()
    }

    /// Compiled select-list programs, one per output column (`None`: one
    /// was refused).
    pub fn select_programs(&self) -> Option<&[ExprProgram]> {
        self.select.as_deref().ok()
    }

    /// Compiled WHERE program (`None`: no WHERE clause, or it was refused).
    pub fn where_program(&self) -> Option<&ExprProgram> {
        self.where_program.as_ref().ok()?.as_ref()
    }

    /// Compiled residual condition of LAST JOIN `join` (`None`: an
    /// equality-only join, or a refused one).
    pub fn join_residual(&self, join: usize) -> Option<&ExprProgram> {
        self.joins.as_ref().ok()?.get(join)?.as_ref()
    }
}

/// The specialized program for `query`, compiling (and counting) it on first
/// access. The program rides the plan's
/// [`SpecializationSlot`](openmldb_sql::plan::SpecializationSlot), so every
/// deployment of a plan-cache hit shares one artifact and compilation
/// happens once per distinct plan, at deploy time — never on the request
/// path. The counters cover refused plans too: a plan counts once, with the
/// windows of it that lowered.
pub fn specialize(query: &CompiledQuery) -> Arc<Program> {
    let cached = query.specialized.get_or_init(|| {
        let p = Program::compile(query);
        crate::metrics::program_plans().inc();
        crate::metrics::program_windows().add(p.compiled_windows() as u64);
        Arc::new(p) as Arc<dyn Any + Send + Sync>
    });
    // The slot is shared with nothing else; a foreign type can only appear
    // if some other layer claimed it first — recompile locally then.
    Arc::downcast::<Program>(cached).unwrap_or_else(|_| Arc::new(Program::compile(query)))
}

#[cfg(test)]
/// Shared test fixtures of the program modules: a schema with one column of
/// every kernel class, deterministic and edge-case rows, aggregate and
/// expression builders, and the fold of the compiled program next to the
/// interpreter's.
mod testkit {
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, BoundWindow, PhysExpr};
    use openmldb_sql::BinaryOp;
    use openmldb_types::codec::RowCodec;
    use openmldb_types::{ColumnDef, CompactCodec, DataType, Result, Row, Schema, Value};

    use super::{EntryOrder, WindowProgram};
    use crate::scratch::ScanEntry;
    use crate::window::WindowAggSet;

    pub(super) fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::String).not_null(),
            ColumnDef::new("ts", DataType::Timestamp).not_null(),
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("b", DataType::Bigint),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("s", DataType::String),
            ColumnDef::new("e", DataType::Double),
        ])
        .expect("valid schema")
    }

    pub(super) fn agg(name: &str, col: usize, window_id: usize) -> BoundAggregate {
        BoundAggregate {
            window_id,
            func: lookup(name).expect("builtin"),
            args: vec![PhysExpr::Column(col)],
            output_type: DataType::Double,
        }
    }

    pub(super) fn window() -> BoundWindow {
        BoundWindow {
            name: "w".into(),
            merged_names: vec!["w".into()],
            partition_cols: vec![0],
            order_col: 1,
            order_desc: false,
            frame: openmldb_sql::ast::Frame::Unbounded,
            maxsize: None,
            exclude_current_row: false,
            instance_not_in_window: false,
            union_tables: Vec::new(),
        }
    }

    /// Deterministic value mix, including NULLs, negative numbers and
    /// repeated strings (tie coverage for first-seen-wins extrema).
    pub(super) fn row(i: i64) -> Row {
        let s = match i % 5 {
            0 => Value::Null,
            1 => Value::string("pear"),
            2 => Value::string("apple"),
            3 => Value::string("apple"),
            _ => Value::string("zebra"),
        };
        Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(1_000 + i),
            if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int((i * 13 % 97 - 40) as i32)
            },
            Value::Bigint(i * 1_000_003 - 50),
            Value::Float((i as f32) * 0.5 - 3.0),
            if i % 3 == 0 {
                Value::Null
            } else {
                Value::Double((i as f64) * 1.25 - 10.0)
            },
            s,
            Value::Double(0.5 - (i % 11) as f64 * 0.75),
        ])
    }

    /// Fold `rows` (+ `request`) through the interpreted oracle and through
    /// the compiled program; either side may fail (typed errors must agree).
    pub(super) fn try_fold_both(
        aggs: &[BoundAggregate],
        rows: &[Row],
        request: Option<&Row>,
    ) -> (Result<Vec<Value>>, Result<Vec<Value>>) {
        let schema = schema();
        let codec = CompactCodec::new(schema.clone());
        let w = window();
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");

        // Interpreted oracle, fed the way the engine feeds it: stored rows
        // through borrowed views, the request row decoded.
        let encoded: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| codec.encode(r).expect("encode"))
            .collect();
        let expected = (|| {
            let mut set = WindowAggSet::new(&refs)?;
            for bytes in &encoded {
                set.update_view(&codec.view(bytes)?)?;
            }
            if let Some(r) = request {
                set.update(r.values())?;
            }
            Ok(set.outputs())
        })();

        // Compiled: rows in an arena, fed through the kernels.
        let mut arena = Vec::new();
        let mut entries = Vec::new();
        for (i, (r, bytes)) in rows.iter().zip(&encoded).enumerate() {
            let start = arena.len();
            arena.extend_from_slice(bytes);
            entries.push(ScanEntry {
                ts: r.values()[1].as_i64().expect("ts"),
                seq: i,
                start,
                len: bytes.len(),
            });
        }
        let mut state = wp.new_state();
        let req_values = request.map(|r| r.values());
        let mut probe = || Ok(());
        let got = wp
            .run(
                &mut state,
                &entries,
                0,
                EntryOrder::Ascending,
                &arena,
                req_values,
                &codec,
                &mut probe,
            )
            .and_then(|()| {
                let mut got = Vec::new();
                wp.outputs_into(&state, &arena, req_values, &mut got)?;
                Ok(got)
            });
        (expected, got)
    }

    pub(super) fn fold_both(
        aggs: &[BoundAggregate],
        rows: &[Row],
        request: Option<&Row>,
    ) -> (Vec<Value>, Vec<Value>) {
        let (expected, got) = try_fold_both(aggs, rows, request);
        (
            expected.expect("interpreted fold"),
            got.expect("compiled fold"),
        )
    }

    pub(super) fn agg_of(name: &str, args: Vec<PhysExpr>) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(name).expect("builtin"),
            args,
            output_type: DataType::Double,
        }
    }

    pub(super) fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    pub(super) fn lit(v: Value) -> PhysExpr {
        PhysExpr::Literal(v)
    }

    pub(super) fn bin(op: BinaryOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Rows with the float edge cases: -0.0, NaN, infinities, a zero
    /// divisor in every numeric column, NULLs.
    pub(super) fn edge_rows() -> Vec<Row> {
        let doubles = [-0.0, 0.0, f64::NAN, f64::INFINITY, -1.5, 2.25, -0.0, 1e300];
        (0..8i64)
            .map(|i| {
                Row::new(vec![
                    Value::string("k1"),
                    Value::Timestamp(1_000 + i),
                    if i == 3 {
                        Value::Null
                    } else {
                        Value::Int((i - 2) as i32)
                    },
                    Value::Bigint((i - 4) * 1_000_000_007),
                    Value::Float(if i == 5 {
                        f32::NAN
                    } else {
                        i as f32 * 0.5 - 1.0
                    }),
                    if i == 6 {
                        Value::Null
                    } else {
                        Value::Double(doubles[i as usize])
                    },
                    Value::string(["b", "a", "b", "", "c", "a", "b", "d"][i as usize]),
                    Value::Double(doubles[7 - i as usize]),
                ])
            })
            .collect()
    }

    /// `rows` encoded into one arena, in order, as a fold's row source.
    pub(super) fn arena_of(rows: &[Row], codec: &CompactCodec) -> (Vec<ScanEntry>, Vec<u8>) {
        let (mut entries, mut arena) = (Vec::new(), Vec::new());
        for (seq, r) in rows.iter().enumerate() {
            let bytes = codec.encode(r).expect("encode");
            let (ts, start, len) = (
                r.values()[1].as_i64().expect("ts"),
                arena.len(),
                bytes.len(),
            );
            entries.push(ScanEntry {
                ts,
                seq,
                start,
                len,
            });
            arena.extend_from_slice(&bytes);
        }
        (entries, arena)
    }

    /// What `fold_rows` answers over all of `rows`.
    pub(super) fn folded(
        wp: &WindowProgram,
        rows: &(&[ScanEntry], &[u8]),
        codec: &CompactCodec,
    ) -> Result<Vec<Value>> {
        let (mut state, mut out) = (wp.new_state(), Vec::new());
        let order = EntryOrder::Ascending;
        let got = wp
            .fold_rows(&mut state, rows, 0, order, None, codec, &mut || Ok(()))
            .and_then(|()| wp.outputs_into(&state, &[], None, &mut out));
        got.map(|()| out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::Schema;

    use testkit::schema;

    #[test]
    fn specialize_caches_one_program_per_plan() {
        use openmldb_sql::{compile_select, parse_select, Catalog};
        struct Cat(Schema);
        impl Catalog for Cat {
            fn table_schema(&self, name: &str) -> Option<Schema> {
                (name == "t").then(|| self.0.clone())
            }
        }
        let cat = Cat(schema());
        let stmt = parse_select(
            "SELECT k, sum(b) OVER w AS sb, min(i) OVER w AS mi FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts \
             ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
        )
        .expect("parses");
        let q = Arc::new(compile_select(&stmt, &cat).expect("compiles"));
        let p1 = specialize(&q);
        let p2 = specialize(&q);
        assert!(Arc::ptr_eq(&p1, &p2), "one compiled artifact per plan");
        assert_eq!(p1.compiled_windows(), 1);
        assert_eq!(p1.refusal(), None);
        assert!(p1.window(0).is_some());
        assert!(p1.select_programs().is_some());

        // Clones (the plan-cache Arc) share the slot.
        let q2 = Arc::new((*q).clone());
        let p3 = specialize(&q2);
        assert!(Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn every_window_of_an_accepted_plan_compiles() {
        use openmldb_sql::{compile_select, parse_select, Catalog};
        struct Cat(Schema);
        impl Catalog for Cat {
            fn table_schema(&self, name: &str) -> Option<Schema> {
                (name == "t").then(|| self.0.clone())
            }
        }
        let cat = Cat(schema());
        let stmt = parse_select(
            "SELECT distinct_count(i) OVER w AS dc, avg(d * 2.0 + 1.0) OVER w AS ae, \
             avg_cate_where(d, i > 1, s) OVER w AS ac, sum(b) OVER w2 AS sb FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts \
             ROWS BETWEEN 5 PRECEDING AND CURRENT ROW), \
             w2 AS (PARTITION BY k ORDER BY ts \
             ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)",
        )
        .expect("parses");
        let q = compile_select(&stmt, &cat).expect("compiles");
        let p = Program::compile(&q);
        // Aggregate-granular: no construct gets its window refused.
        assert_eq!(p.compiled_windows(), 2);
        assert_eq!(p.refusal(), None);
        assert!((0..q.windows.len()).all(|w| p.fallback_reason(w).is_none()));
    }
}
