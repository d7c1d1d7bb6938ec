//! The row stage: what both engines run per output row once the windows
//! are folded — the base row's columns, the LAST JOINs, WHERE and the
//! select list — lowered once with the plan from
//! [`CompiledQuery::read_columns`].
//!
//! A request and the offline batch differ only in where a row's bytes come
//! from: the request's decoded values or a snapshot's bytes for the base
//! row, and a candidate visitor for each join (a request's
//! `DataTable::latest_visit`, the snapshot's lookup). Every join reads its
//! candidates' columns in place through a [`Field`] resolved here, and its
//! residual decides each one, its errors counting as no match. One codec
//! per join both reads a candidate and, on a request, checks its bytes
//! first ([`RowStage::check`]; a snapshot checked its rows at capture).
//! The select list is a copy plan: a bare column is a clone from the
//! combined row, a bare aggregate a move at its last bare reader (a clone
//! before that), and any other item runs on the scalar VM — before the row
//! is built, so the first error in select order still wins. The row is
//! collected in one exact-size allocation, and every NaN in it leaves as
//! [`Value::canonical_nan`] makes it.

use openmldb_sql::plan::{CompiledQuery, PhysExpr};
use openmldb_types::{CompactCodec, Field, KeyValue, Result, Row, Value};

use super::vm::ExprProgram;

/// The pooled buffers a row stage runs over, kept from row to row: each
/// row overwrites every column it reads and every value it computes.
#[derive(Debug, Default)]
pub struct RowBuffers {
    /// The combined input row — the base row's columns, then each LAST
    /// JOIN's — holding the columns the plan reads; the others stay NULL.
    pub combined: Vec<Value>,
    /// The scalar VM's value stack.
    pub stack: Vec<Value>,
    /// The computed select items of the row being projected, in order.
    pub evals: Vec<Value>,
}

/// Where a base row's columns are read from.
#[derive(Debug, Clone, Copy)]
pub enum BaseRow<'a> {
    /// A request's values, validated against the base schema.
    Values(&'a [Value]),
    /// A stored row's bytes, checked against the base codec.
    Bytes(&'a [u8]),
}

/// A join's candidate source: called with the join's index and key, it
/// offers each candidate's bytes, newest first, to the acceptor, and stops
/// at the first one accepted (`Ok(true)`) or the first error, which it
/// returns; `Ok(false)` when none was accepted.
pub type Candidates<'a> =
    dyn FnMut(usize, &[KeyValue], &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<bool> + 'a;

/// One LAST JOIN, lowered.
#[derive(Debug)]
struct JoinStage {
    /// The combined columns the equality's left sides read: the lookup key.
    keys: Vec<usize>,
    /// The right table's codec — which checks a request's candidates and
    /// reads them — and a reader per column of it the plan reads:
    /// `(combined column, field)`.
    codec: CompactCodec,
    fields: Vec<(usize, Field)>,
    /// The residual condition, over the combined row up to this join's
    /// last column.
    residual: Option<ExprProgram>,
    end: usize,
}

/// Where one output column's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// A clone of a combined-row column.
    Column(usize),
    /// An aggregate's value: moved out when `last` (no later bare reader),
    /// cloned otherwise.
    Agg { slot: usize, last: bool },
    /// The next computed value.
    Computed,
}

/// A plan's per-row stage, lowered once (see the module docs).
#[derive(Debug)]
pub struct RowStage {
    /// Width of the combined row.
    width: usize,
    base_codec: CompactCodec,
    /// A reader per base column the plan reads: `(column, field)`.
    base: Vec<(usize, Field)>,
    joins: Vec<JoinStage>,
    filter: Option<ExprProgram>,
    /// The copy plan: per output column, its source.
    copies: Vec<Source>,
    /// One program per output column; the computed ones run.
    programs: Vec<ExprProgram>,
}

impl RowStage {
    /// Lower `query`'s row stage, or name the first select column, WHERE
    /// clause or LAST JOIN condition that does not lower, and why.
    pub(super) fn compile(query: &CompiledQuery) -> std::result::Result<RowStage, String> {
        let cols = query.read_columns();
        let (width, aggs) = (query.combined_schema.len(), query.aggregates.len());
        let (mut copies, mut programs) = (Vec::new(), Vec::new());
        for (i, c) in query.select.iter().enumerate() {
            let program = ExprProgram::compile(&c.expr);
            programs.push(program.map_err(|r| format!("select column `{}`: {r}", c.name))?);
            let later = query.select.get(i + 1..).unwrap_or_default();
            copies.push(match c.expr {
                PhysExpr::Column(col) if col < width => Source::Column(col),
                PhysExpr::AggRef(slot) if slot < aggs => Source::Agg {
                    slot,
                    last: !later.iter().any(|d| d.expr == c.expr),
                },
                _ => Source::Computed,
            });
        }
        let filter = query.where_clause.as_ref();
        let filter = filter.map(ExprProgram::compile).transpose();
        let filter = filter.map_err(|r| format!("WHERE clause: {r}"))?;
        let mut joins = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            let residual = j.residual.as_ref().map(ExprProgram::compile).transpose();
            let codec = CompactCodec::new(j.schema.clone());
            joins.push(JoinStage {
                keys: j.eq_pairs.iter().map(|&(l, _)| l).collect(),
                fields: codec.fields(cols, j.offset),
                codec,
                residual: residual
                    .map_err(|r| format!("LAST JOIN `{}` condition: {r}", j.table))?,
                end: j.offset + j.schema.len(),
            });
        }
        let base_codec = CompactCodec::new(query.base_schema.clone());
        Ok(RowStage {
            width,
            base: base_codec.fields(cols, 0),
            base_codec,
            joins,
            filter,
            copies,
            programs,
        })
    }

    /// One program per output column, bare ones included.
    pub fn programs(&self) -> &[ExprProgram] {
        &self.programs
    }

    /// Check candidate `data` of LAST JOIN `join` against the right
    /// table's codec — a request's one check of a row's bytes.
    pub fn check(&self, join: usize, data: &[u8]) -> Result<()> {
        self.joins.get(join).map_or(Ok(()), |j| j.codec.check(data))
    }

    /// Start a row: the base row's columns the plan reads, every other
    /// column NULL.
    pub fn base(&self, row: BaseRow<'_>, bufs: &mut RowBuffers) -> Result<()> {
        let combined = &mut bufs.combined;
        combined.resize(self.width, Value::Null);
        for &(c, f) in &self.base {
            combined[c] = match row {
                BaseRow::Values(values) => values.get(c).cloned().unwrap_or(Value::Null),
                BaseRow::Bytes(bytes) => f.read(&self.base_codec, bytes)?.to_value(),
            };
        }
        Ok(())
    }

    /// Run every LAST JOIN in plan order: each takes the newest candidate
    /// `candidates` offers for its key that the residual accepts — its
    /// columns read into the combined row — or NULLs.
    pub fn join(
        &self,
        bufs: &mut RowBuffers,
        key: &mut Vec<KeyValue>,
        candidates: &mut Candidates<'_>,
    ) -> Result<()> {
        let (combined, stack) = (&mut bufs.combined, &mut bufs.stack);
        for (j, join) in self.joins.iter().enumerate() {
            key.clear();
            key.extend(join.keys.iter().map(|&c| KeyValue::from(&combined[c])));
            let mut accept = |data: &[u8]| -> Result<bool> {
                for &(c, f) in &join.fields {
                    combined[c] = f.read(&join.codec, data)?.to_value();
                }
                let probe = &combined[..join.end];
                let accepts = |p: &ExprProgram| p.eval(probe, &[], stack)?.as_bool();
                let hit = join.residual.as_ref().map_or(Ok(true), accepts);
                Ok(hit.unwrap_or(false))
            };
            if !candidates(j, key, &mut accept)? {
                for &(c, _) in &join.fields {
                    combined[c] = Value::Null;
                }
            }
        }
        Ok(())
    }

    /// Whether the row passes WHERE (a plan without one passes all).
    pub fn filter(&self, bufs: &mut RowBuffers) -> Result<bool> {
        let passes = |p: &ExprProgram| p.eval(&bufs.combined, &[], &mut bufs.stack)?.as_bool();
        self.filter.as_ref().map_or(Ok(true), passes)
    }

    /// The output row of the combined row and `aggs`, the aggregate values
    /// (a bare aggregate is moved out of its slot at its last reader).
    pub fn project(&self, bufs: &mut RowBuffers, aggs: &mut [Value]) -> Result<Row> {
        let RowBuffers {
            combined,
            stack,
            evals,
        } = bufs;
        evals.clear();
        for (&source, p) in self.copies.iter().zip(&self.programs) {
            if source == Source::Computed {
                evals.push(p.eval(combined, aggs, stack)?);
            }
        }
        let mut evals = evals.drain(..);
        let row = self.copies.iter().map(|&source| {
            let value = match source {
                Source::Column(c) => combined.get(c).cloned(),
                Source::Agg { slot, last: true } => aggs
                    .get_mut(slot)
                    .map(|v| std::mem::replace(v, Value::Null)),
                Source::Agg { slot, .. } => aggs.get(slot).cloned(),
                Source::Computed => evals.next(),
            };
            value.map_or(Value::Null, Value::canonical_nan)
        });
        Ok(row.collect())
    }

    /// The row of a request WHERE rejects: every column NULL.
    pub fn nulls(&self) -> Row {
        std::iter::repeat_n(Value::Null, self.copies.len()).collect()
    }
}
