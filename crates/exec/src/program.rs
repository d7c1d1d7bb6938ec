//! Deploy-time plan specialization: flat bytecode programs for the online
//! hot path (paper Section 4.2's compiled execution, reproduced without a
//! JIT).
//!
//! At DEPLOY time [`specialize`] lowers a validated [`CompiledQuery`] into a
//! [`Program`]:
//!
//! * **Window kernels** ([`WindowProgram`]) — every aggregate of a window
//!   lowers to one of four kernel families, all folded in the same single
//!   pass over the scan arena:
//!   1. *column kernels* — `sum/count/avg/min/max/stddev` over a bare
//!      column, monomorphized by column type. The byte offset into the
//!      compact row encoding is pre-resolved ([`FieldRef::at`]), the
//!      NULL-bitmap probe is baked to a `(byte, mask)` pair, and the fold
//!      runs on `i64`/`f64` running sums and extrema in plain machine
//!      types, strings as byte ranges into the scan arena;
//!   2. *expression kernels* — the same functions over `+ - * / %` trees of
//!      fixed-width numeric columns and literals, lowered to a small typed
//!      register program ([`ArithOp`]) read straight from the encoded bytes;
//!   3. *count-map kernels* — `distinct_count` / `topn_frequency` over a
//!      bare column, keyed by canonical `KeyValue` bits (or an arena byte
//!      range for strings) in a pooled open-addressing table;
//!   4. *generic kernels* — everything else the function registry accepts,
//!      run by the interpreter's own aggregate slots fed from the row view.
//!
//!   Frame bounds (`ROWS n PRECEDING`, `MAXSIZE`) and the
//!   `EXCLUDE CURRENT_ROW` check are hoisted into precomputed guards
//!   ([`WindowProgram::first_in_frame`]).
//! * **Expression programs** ([`ExprProgram`]) — scalar select/WHERE
//!   expressions flattened into a register-machine program over a reusable
//!   value stack, with constant subtrees folded at compile time and scalar
//!   calls dispatched through [`ScalarFuncId`] (no per-row name lookup).
//!
//! The fold replicates [`WindowAggSet`]'s *bit for bit* — including
//! `total_cmp`'s f64-promoted comparisons for integer extrema, the
//! first-seen-wins tie rule, [`binary`]'s integer-preserving arithmetic with
//! its typed overflow error, and the count maps' `count desc, key asc`
//! projection order — so [`WindowAggSet`] stays the correctness oracle (the
//! materializing reference executor folds with it). The program is the only
//! thing that serves: a window whose aggregates [`WindowAggSet::new`] itself
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

use openmldb_sql::plan::{BoundAggregate, BoundWindow, CompiledQuery, PhysExpr};
use openmldb_sql::BinaryOp;
use openmldb_types::codec::compact::HEADER_SIZE;
use openmldb_types::{CompactCodec, DataType, Error, Result, RowView, Value, ValueRef};

use crate::eval::{binary, evaluate};
use crate::scalar::{self, ScalarFuncId};
use crate::scratch::ScanEntry;
use crate::window::{projection_for, Projection, WindowAggSet};

// ---------------------------------------------------------------------------
// Expression programs (register machine over a reusable value stack)
// ---------------------------------------------------------------------------

/// One flat instruction. Jump targets are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    /// Push constant-pool entry.
    Const(u16),
    /// Push input row column.
    Col(u16),
    /// Push precomputed aggregate output.
    Agg(u16),
    /// Pop two, apply [`binary`] (NULL propagation included), push result.
    Bin(BinaryOp),
    /// Pop one, push `Bool(!v.as_bool()?)`.
    Not,
    /// Pop one, push `Bool(v.is_null() != negated)`.
    IsNull { negated: bool },
    /// Pop `argc` arguments, call the builtin, push the result.
    Call { id: ScalarFuncId, argc: u8 },
    /// Short-circuit AND probe: pop the left side; when falsy push
    /// `Bool(false)` and jump past the right side.
    AndProbe { target: u16 },
    /// Short-circuit OR probe: pop the left side; when truthy push
    /// `Bool(true)` and jump past the right side.
    OrProbe { target: u16 },
    /// Pop one, push `Bool(v.as_bool()?)` (the AND/OR result coercion).
    BoolCast,
    /// Pop a CASE branch condition; jump to the next branch when falsy.
    JumpIfFalse { target: u16 },
    /// Unconditional jump (end of a taken CASE branch).
    Jump { target: u16 },
    /// Push NULL (CASE with no ELSE).
    PushNull,
}

/// A compiled scalar expression: flat instructions plus a constant pool,
/// evaluated over a caller-provided stack buffer that is reused across
/// evaluations (zero allocations once warm).
#[derive(Debug, Clone)]
pub struct ExprProgram {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    max_stack: usize,
}

/// Builder state while lowering one [`PhysExpr`] tree.
struct ExprCompiler {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    depth: usize,
    max_depth: usize,
}

/// Whether `e` has no row or aggregate inputs (safe to fold at compile time;
/// every builtin in the dispatch table is pure).
fn is_const_expr(e: &PhysExpr) -> bool {
    match e {
        PhysExpr::Literal(_) => true,
        PhysExpr::Column(_) | PhysExpr::AggRef(_) => false,
        PhysExpr::Binary { left, right, .. } => is_const_expr(left) && is_const_expr(right),
        PhysExpr::Not(e) => is_const_expr(e),
        PhysExpr::IsNull { expr, .. } => is_const_expr(expr),
        PhysExpr::ScalarCall { args, .. } => args.iter().all(is_const_expr),
        PhysExpr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .all(|(c, v)| is_const_expr(c) && is_const_expr(v))
                && else_expr.as_ref().is_none_or(|e| is_const_expr(e))
        }
    }
}

impl ExprCompiler {
    fn push(&mut self, i: Instr, net: isize) -> std::result::Result<(), String> {
        if self.instrs.len() >= u16::MAX as usize {
            return Err("expression program too long".into());
        }
        self.instrs.push(i);
        self.depth = self
            .depth
            .checked_add_signed(net)
            .ok_or("expression program stack underflow at compile time")?;
        self.max_depth = self.max_depth.max(self.depth);
        Ok(())
    }

    /// Reserve a jump-family instruction whose target is patched later.
    fn placeholder(&mut self, i: Instr, net: isize) -> std::result::Result<usize, String> {
        let at = self.instrs.len();
        self.push(i, net)?;
        Ok(at)
    }

    fn patch(&mut self, at: usize) -> std::result::Result<(), String> {
        let target = u16::try_from(self.instrs.len()).map_err(|_| "expression program too long")?;
        match self.instrs.get_mut(at) {
            Some(
                Instr::AndProbe { target: t }
                | Instr::OrProbe { target: t }
                | Instr::JumpIfFalse { target: t }
                | Instr::Jump { target: t },
            ) => {
                *t = target;
                Ok(())
            }
            _ => Err("patched a non-jump instruction".into()),
        }
    }

    fn push_const(&mut self, v: Value) -> std::result::Result<u16, String> {
        // Small pools: linear dedup is cheaper than a map and keeps `Value`
        // hashing out of the picture.
        if let Some(i) = self.consts.iter().position(|c| {
            // Bit-faithful dedup: `Value: PartialEq` compares numerics via
            // f64 promotion, which would merge e.g. Int(1) and Double(1.0).
            c.data_type() == v.data_type() && c == &v || (c.is_null() && v.is_null())
        }) {
            return Ok(i as u16);
        }
        let i = u16::try_from(self.consts.len()).map_err(|_| "constant pool too large")?;
        self.consts.push(v);
        Ok(i)
    }

    fn emit(&mut self, e: &PhysExpr) -> std::result::Result<(), String> {
        // Constant folding: any input-free subtree collapses to one `Const`.
        // Folding is skipped when compile-time evaluation errors (e.g. a
        // constant overflow) so the runtime error surfaces exactly as the
        // interpreter would produce it.
        if !matches!(e, PhysExpr::Literal(_)) && is_const_expr(e) {
            if let Ok(v) = evaluate(e, &[], &[]) {
                let i = self.push_const(v)?;
                return self.push(Instr::Const(i), 1);
            }
        }
        match e {
            PhysExpr::Literal(v) => {
                let i = self.push_const(v.clone())?;
                self.push(Instr::Const(i), 1)
            }
            PhysExpr::Column(i) => {
                let i = u16::try_from(*i).map_err(|_| "column index too large")?;
                self.push(Instr::Col(i), 1)
            }
            PhysExpr::AggRef(i) => {
                let i = u16::try_from(*i).map_err(|_| "aggregate index too large")?;
                self.push(Instr::Agg(i), 1)
            }
            PhysExpr::Binary { op, left, right } => match op {
                BinaryOp::And => {
                    self.emit(left)?;
                    let probe = self.placeholder(Instr::AndProbe { target: 0 }, -1)?;
                    self.emit(right)?;
                    self.push(Instr::BoolCast, 0)?;
                    self.patch(probe)
                }
                BinaryOp::Or => {
                    self.emit(left)?;
                    let probe = self.placeholder(Instr::OrProbe { target: 0 }, -1)?;
                    self.emit(right)?;
                    self.push(Instr::BoolCast, 0)?;
                    self.patch(probe)
                }
                _ => {
                    self.emit(left)?;
                    self.emit(right)?;
                    self.push(Instr::Bin(*op), -1)
                }
            },
            PhysExpr::Not(e) => {
                self.emit(e)?;
                self.push(Instr::Not, 0)
            }
            PhysExpr::IsNull { expr, negated } => {
                self.emit(expr)?;
                self.push(Instr::IsNull { negated: *negated }, 0)
            }
            PhysExpr::ScalarCall { func, args } => {
                let id = scalar::resolve_def(func)
                    .ok_or_else(|| format!("scalar `{}` not in the dispatch table", func.name))?;
                for a in args {
                    self.emit(a)?;
                }
                let argc = u8::try_from(args.len()).map_err(|_| "too many call arguments")?;
                self.push(Instr::Call { id, argc }, 1 - args.len() as isize)
            }
            PhysExpr::Case {
                branches,
                else_expr,
            } => {
                let mut ends = Vec::with_capacity(branches.len());
                for (cond, val) in branches {
                    self.emit(cond)?;
                    let next = self.placeholder(Instr::JumpIfFalse { target: 0 }, -1)?;
                    self.emit(val)?;
                    ends.push(self.placeholder(Instr::Jump { target: 0 }, -1)?);
                    self.patch(next)?;
                }
                match else_expr {
                    Some(e) => self.emit(e)?,
                    None => self.push(Instr::PushNull, 1)?,
                }
                for end in ends {
                    self.patch(end)?;
                }
                Ok(())
            }
        }
    }
}

fn underflow() -> Error {
    Error::Eval("expression program stack underflow".into())
}

/// Operand `i` of `pool` (constants, row columns or aggregate outputs).
#[inline(always)]
fn fetch(pool: &[Value], i: u16, what: &str) -> Result<Value> {
    pool.get(i as usize)
        .cloned()
        .ok_or_else(|| Error::Eval(format!("{what} {i} out of bounds")))
}

impl ExprProgram {
    /// Lower one expression tree, or explain why it cannot be compiled.
    pub fn compile(e: &PhysExpr) -> std::result::Result<ExprProgram, String> {
        let mut c = ExprCompiler {
            instrs: Vec::new(),
            consts: Vec::new(),
            depth: 0,
            max_depth: 0,
        };
        c.emit(e)?;
        if c.depth != 1 {
            return Err("expression program must produce exactly one value".into());
        }
        Ok(ExprProgram {
            instrs: c.instrs,
            consts: c.consts,
            max_stack: c.max_depth,
        })
    }

    /// Number of instructions (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Evaluate against `row`/`aggs`, using `stack` as the reusable value
    /// stack. Semantics (NULL propagation, short-circuit AND/OR, CASE
    /// fallthrough, error surfaces) match [`crate::evaluate`] exactly.
    pub fn eval(&self, row: &[Value], aggs: &[Value], stack: &mut Vec<Value>) -> Result<Value> {
        // A bare operand (`Agg(i)` / `Col(i)` / `Const(i)` — most select
        // columns of a feature script) is its own result: no stack traffic.
        if let [only] = self.instrs.as_slice() {
            match *only {
                Instr::Const(i) => return fetch(&self.consts, i, "constant"),
                Instr::Col(i) => return fetch(row, i, "column index"),
                Instr::Agg(i) => return fetch(aggs, i, "aggregate index"),
                _ => {}
            }
        }
        stack.clear();
        if stack.capacity() < self.max_stack {
            // Cold: first evaluation through a pooled stack grows it once.
            stack.reserve(self.max_stack);
        }
        let mut pc = 0usize;
        while let Some(instr) = self.instrs.get(pc) {
            pc += 1;
            match *instr {
                Instr::Const(i) => stack.push(fetch(&self.consts, i, "constant")?),
                Instr::Col(i) => stack.push(fetch(row, i, "column index")?),
                Instr::Agg(i) => stack.push(fetch(aggs, i, "aggregate index")?),
                Instr::PushNull => stack.push(Value::Null),
                Instr::Bin(op) => {
                    let r = stack.pop().ok_or_else(underflow)?;
                    let l = stack.pop().ok_or_else(underflow)?;
                    stack.push(binary(op, &l, &r)?);
                }
                Instr::Not => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(!v.as_bool()?));
                }
                Instr::IsNull { negated } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(v.is_null() != negated));
                }
                Instr::BoolCast => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(v.as_bool()?));
                }
                Instr::AndProbe { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if !v.as_bool()? {
                        stack.push(Value::Bool(false));
                        pc = target as usize;
                    }
                }
                Instr::OrProbe { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if v.as_bool()? {
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                    }
                }
                Instr::JumpIfFalse { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if !v.as_bool()? {
                        pc = target as usize;
                    }
                }
                Instr::Jump { target } => pc = target as usize,
                Instr::Call { id, argc } => {
                    let at = stack
                        .len()
                        .checked_sub(argc as usize)
                        .ok_or_else(underflow)?;
                    let v = scalar::call_id(id, &stack[at..])?;
                    stack.truncate(at);
                    stack.push(v);
                }
            }
        }
        stack.pop().ok_or_else(underflow)
    }
}

// ---------------------------------------------------------------------------
// Window kernels (four families folded in one pass over the scan arena)
// ---------------------------------------------------------------------------

/// Column class a kernel is monomorphized for. Decides the byte-level read,
/// the running-state fields used, and the output `Value` constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelClass {
    Int,
    Bigint,
    Timestamp,
    Float,
    Double,
    Str,
}

impl KernelClass {
    fn is_int(self) -> bool {
        matches!(
            self,
            KernelClass::Int | KernelClass::Bigint | KernelClass::Timestamp
        )
    }
}

/// One fixed-width field, read from raw row bytes or from a decoded
/// request-row value — the common currency of the column, expression and
/// count-map families.
#[derive(Debug, Clone, Copy)]
enum Fixed {
    Int(i64),
    Float(f32),
    Double(f64),
}

impl Fixed {
    /// The canonical [`KeyValue`](openmldb_types::KeyValue) payload of this
    /// field as a `u64`: integers by value, floats by their f64 bit pattern
    /// (FLOAT promotes first, exactly like `KeyValue::from`).
    #[inline(always)]
    fn key_bits(self) -> u64 {
        match self {
            Fixed::Int(v) => v as u64,
            Fixed::Float(v) => (v as f64).to_bits(),
            Fixed::Double(v) => v.to_bits(),
        }
    }
}

/// Consumer of one decoded fixed-width field ([`FieldRef::visit_fixed`]).
trait FixedSink {
    fn int(self, v: i64);
    fn float(self, v: f32);
    fn double(self, v: f64);
}

impl FixedSink for &mut Fixed {
    #[inline(always)]
    fn int(self, v: i64) {
        *self = Fixed::Int(v);
    }

    #[inline(always)]
    fn float(self, v: f32) {
        *self = Fixed::Float(v);
    }

    #[inline(always)]
    fn double(self, v: f64) {
        *self = Fixed::Double(v);
    }
}

/// A column resolved against the compact encoding at deploy time: the byte
/// offset of its fixed-width field and its NULL-bitmap probe baked to a
/// `(byte, mask)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FieldRef {
    /// Base-schema column index (also the request-row slot).
    col: usize,
    class: KernelClass,
    /// Absolute byte offset of the fixed-width field in the compact
    /// encoding (header + NULL bitmap included). Unused for `Str`.
    at: usize,
    null_byte: usize,
    null_mask: u8,
}

impl FieldRef {
    /// Resolve column `col`, or `None` when it has no byte-level kernel
    /// (BOOL columns, indices outside the schema).
    fn resolve(codec: &CompactCodec, col: usize) -> Option<FieldRef> {
        let class = match codec.schema().columns().get(col)?.data_type {
            DataType::Int => KernelClass::Int,
            DataType::Bigint => KernelClass::Bigint,
            DataType::Timestamp => KernelClass::Timestamp,
            DataType::Float => KernelClass::Float,
            DataType::Double => KernelClass::Double,
            DataType::String => KernelClass::Str,
            DataType::Bool => return None,
        };
        let at = match class {
            KernelClass::Str => 0,
            _ => codec.fixed_field_offset(col)?,
        };
        Some(FieldRef {
            col,
            class,
            at,
            null_byte: HEADER_SIZE + col / 8,
            null_mask: 1 << (col % 8),
        })
    }

    // analysis:allow(panic-freedom): one checked `slice::get`.
    #[inline(always)]
    fn null_in(&self, buf: &[u8]) -> bool {
        buf.get(self.null_byte)
            .is_none_or(|b| b & self.null_mask != 0)
    }

    /// The one fixed-width read ladder every family shares: a bounds-checked
    /// little-endian load at the baked offset, handed to `sink` —
    /// monomorphized per consumer, so the column kernels' fold sits directly
    /// in each arm.
    // analysis:allow(panic-freedom): reads go through `read4`/`read8`
    // (checked `slice::get`); a short row is a typed error.
    #[inline(always)]
    fn visit_fixed(&self, buf: &[u8], sink: impl FixedSink) -> Result<()> {
        match self.class {
            KernelClass::Int => match read4(buf, self.at) {
                Some(b) => sink.int(i32::from_le_bytes(b) as i64),
                None => return Err(truncated_row(buf.len(), self.at + 4)),
            },
            KernelClass::Bigint | KernelClass::Timestamp => match read8(buf, self.at) {
                Some(b) => sink.int(i64::from_le_bytes(b)),
                None => return Err(truncated_row(buf.len(), self.at + 8)),
            },
            KernelClass::Float => match read4(buf, self.at) {
                Some(b) => sink.float(f32::from_le_bytes(b)),
                None => return Err(truncated_row(buf.len(), self.at + 4)),
            },
            KernelClass::Double => match read8(buf, self.at) {
                Some(b) => sink.double(f64::from_le_bytes(b)),
                None => return Err(truncated_row(buf.len(), self.at + 8)),
            },
            // Unreachable: string fields are read through the row view.
            KernelClass::Str => return Err(str_without_view()),
        }
        Ok(())
    }

    /// NULL-aware read out of a stored row's bytes.
    #[inline(always)]
    fn stored(&self, buf: &[u8]) -> Result<Option<Fixed>> {
        if self.null_in(buf) {
            return Ok(None);
        }
        let mut v = Fixed::Int(0);
        self.visit_fixed(buf, &mut v)?;
        Ok(Some(v))
    }

    /// This field's non-NULL value `v` out of the decoded request row, handed
    /// to `sink` like [`visit_fixed`](Self::visit_fixed) does for stored rows.
    #[inline(always)]
    fn request_into(&self, v: &Value, sink: impl FixedSink) -> Result<()> {
        match self.class {
            KernelClass::Int | KernelClass::Bigint | KernelClass::Timestamp => {
                sink.int(v.as_i64()?)
            }
            KernelClass::Float => sink.float(v.as_f64()? as f32),
            KernelClass::Double => sink.double(v.as_f64()?),
            KernelClass::Str => return Err(str_without_view()),
        }
        Ok(())
    }

    /// NULL-aware read out of the decoded request row.
    fn requested(&self, row: &[Value]) -> Result<Option<Fixed>> {
        match row.get(self.col) {
            Some(Value::Null) => Ok(None),
            Some(v) => {
                let mut out = Fixed::Int(0);
                self.request_into(v, &mut out)?;
                Ok(Some(out))
            }
            None => Err(request_out_of_bounds(self.col)),
        }
    }
}

/// Which running statistics a kernel maintains — the union of what its
/// bound projections need.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    /// Running sums (`sum`/`avg`/`stddev`).
    sums: bool,
    /// Running extrema (`min`/`max`).
    minmax: bool,
}

impl Track {
    fn note(&mut self, proj: Projection) {
        match proj {
            Projection::Min | Projection::Max => self.minmax = true,
            Projection::Sum | Projection::Avg | Projection::Stddev => self.sums = true,
            Projection::Count => {}
        }
    }
}

/// Family 1 — one compiled per-column fold: everything the per-row loop
/// needs, resolved at deploy time.
#[derive(Debug, Clone)]
struct KernelSpec {
    field: FieldRef,
    track: Track,
}

impl KernelSpec {
    #[inline(always)]
    fn feed<'a>(&self, st: &'a mut KernelState) -> Feed<'a> {
        Feed {
            st,
            track: self.track,
        }
    }
}

/// Where a running string extremum lives. Stored rows borrow the scan arena
/// (a byte range — no copy until output); the request row is fed last, so a
/// `Request` slot can only be set after every arena candidate was compared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum StrSlot {
    #[default]
    None,
    Arena {
        start: usize,
        len: usize,
    },
    Request,
}

/// Running fold state for one column or expression kernel — plain machine
/// words, reset per request, pooled in the request scratch.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelState {
    count: u64,
    sum_i: i64,
    sum_f: f64,
    sum_sq: f64,
    min_i: i64,
    max_i: i64,
    min_f: f64,
    max_f: f64,
    min_f32: f32,
    max_f32: f32,
    min_str: StrSlot,
    max_str: StrSlot,
}

/// Iteration order [`WindowProgram::run`] uses over the scan entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOrder {
    /// `entries` is already sorted ascending by `(ts, seq)`.
    Ascending,
    /// `entries` is in scan order with strictly descending timestamps —
    /// iterate in reverse to replay ascending order without sorting.
    ReversedScan,
}

// The per-row integer fold. Mirrors `SharedNumeric::update` bit for bit:
// sums wrap (`wrapping_add`) with an f64 shadow for avg/stddev, and the
// extrema comparison runs in f64-promoted space exactly like
// `Value::total_cmp` does for every numeric pair — with the first-seen raw
// value kept on promotion ties (e.g. distinct i64s beyond 2^53).
impl KernelState {
    #[inline(always)]
    fn feed_int(&mut self, v: i64, track: Track) {
        if track.sums {
            self.sum_i = self.sum_i.wrapping_add(v);
            let f = v as f64;
            self.sum_f += f;
            self.sum_sq += f * f;
        }
        self.count += 1;
        if track.minmax {
            if self.count == 1 {
                self.min_i = v;
                self.max_i = v;
            } else {
                let f = v as f64;
                if f.total_cmp(&(self.min_i as f64)).is_lt() {
                    self.min_i = v;
                }
                if f.total_cmp(&(self.max_i as f64)).is_gt() {
                    self.max_i = v;
                }
            }
        }
    }

    #[inline(always)]
    fn feed_double(&mut self, v: f64, track: Track) {
        if track.sums {
            self.sum_f += v;
            self.sum_sq += v * v;
        }
        self.count += 1;
        if track.minmax {
            if self.count == 1 {
                self.min_f = v;
                self.max_f = v;
            } else {
                if v.total_cmp(&self.min_f).is_lt() {
                    self.min_f = v;
                }
                if v.total_cmp(&self.max_f).is_gt() {
                    self.max_f = v;
                }
            }
        }
    }

    #[inline(always)]
    fn feed_float(&mut self, v: f32, track: Track) {
        if track.sums {
            let f = v as f64;
            self.sum_f += f;
            self.sum_sq += f * f;
        }
        self.count += 1;
        if track.minmax {
            if self.count == 1 {
                self.min_f32 = v;
                self.max_f32 = v;
            } else {
                // Compare in promoted f64 space (what the interpreter's
                // `total_cmp` does) but keep the raw f32 so the output
                // round-trips bit-exactly.
                let f = v as f64;
                if f.total_cmp(&(self.min_f32 as f64)).is_lt() {
                    self.min_f32 = v;
                }
                if f.total_cmp(&(self.max_f32 as f64)).is_gt() {
                    self.max_f32 = v;
                }
            }
        }
    }

    #[inline(always)]
    fn feed_str(&mut self, s: &str, arena: &[u8], track: Track) -> Result<()> {
        self.count += 1;
        if !track.minmax {
            return Ok(());
        }
        let bytes = s.as_bytes();
        if self.count == 1 {
            let slot = StrSlot::arena_of(bytes, arena)?;
            self.min_str = slot;
            self.max_str = slot;
            return Ok(());
        }
        // `&str` ordering is byte-lexicographic, so comparing raw bytes
        // reproduces `Value::total_cmp` on strings; strict comparisons keep
        // the first-seen instance on ties.
        if bytes < StrSlot::resolve(self.min_str, arena)? {
            self.min_str = StrSlot::arena_of(bytes, arena)?;
        }
        if bytes > StrSlot::resolve(self.max_str, arena)? {
            self.max_str = StrSlot::arena_of(bytes, arena)?;
        }
        Ok(())
    }

    /// Feed the request row's value of a column kernel (always the last row
    /// fed).
    fn feed_request(&mut self, v: &Value, arena: &[u8], spec: &KernelSpec) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if spec.field.class != KernelClass::Str {
            return spec.field.request_into(v, spec.feed(self));
        }
        let bytes = v.as_str()?.as_bytes();
        self.count += 1;
        if !spec.track.minmax {
            return Ok(());
        }
        if self.count == 1 {
            self.min_str = StrSlot::Request;
            self.max_str = StrSlot::Request;
            return Ok(());
        }
        if bytes < StrSlot::resolve(self.min_str, arena)? {
            self.min_str = StrSlot::Request;
        }
        if bytes > StrSlot::resolve(self.max_str, arena)? {
            self.max_str = StrSlot::Request;
        }
        Ok(())
    }
}

/// A column kernel as the sink of its field's read: the fold runs inside
/// the read ladder's arm, with no intermediate value.
struct Feed<'a> {
    st: &'a mut KernelState,
    track: Track,
}

impl FixedSink for Feed<'_> {
    #[inline(always)]
    fn int(self, v: i64) {
        self.st.feed_int(v, self.track);
    }

    #[inline(always)]
    fn float(self, v: f32) {
        self.st.feed_float(v, self.track);
    }

    #[inline(always)]
    fn double(self, v: f64) {
        self.st.feed_double(v, self.track);
    }
}

impl StrSlot {
    /// Record `bytes` (a slice borrowed from `arena`) as an offset range.
    #[inline(always)]
    fn arena_of(bytes: &[u8], arena: &[u8]) -> Result<StrSlot> {
        let start = (bytes.as_ptr() as usize)
            .checked_sub(arena.as_ptr() as usize)
            .filter(|s| s.checked_add(bytes.len()).is_some_and(|e| e <= arena.len()))
            .ok_or_else(|| Error::Eval("string kernel source outside the scan arena".into()))?;
        Ok(StrSlot::Arena {
            start,
            len: bytes.len(),
        })
    }

    /// The bytes a slot refers to. Only called while stored rows are being
    /// fed, so `Request` (set last) and `None` (count >= 1) cannot occur.
    #[inline(always)]
    fn resolve(slot: StrSlot, arena: &[u8]) -> Result<&[u8]> {
        match slot {
            StrSlot::Arena { start, len } => arena
                .get(start..start + len)
                .ok_or_else(|| Error::Eval("string extremum range outside the scan arena".into())),
            StrSlot::None | StrSlot::Request => Err(Error::Eval(
                "string extremum slot resolved out of order".into(),
            )),
        }
    }
}

// -- family 2: expression kernels -------------------------------------------

/// One typed register of an expression kernel: raw `i64`/`f64` bits plus
/// the SQL NULL flag.
#[derive(Debug, Clone, Copy, Default)]
struct Reg {
    bits: u64,
    null: bool,
}

const NULL_REG: Reg = Reg {
    bits: 0,
    null: true,
};

impl Reg {
    #[inline(always)]
    fn int(v: i64) -> Reg {
        Reg {
            bits: v as u64,
            null: false,
        }
    }

    #[inline(always)]
    fn float(v: f64) -> Reg {
        Reg {
            bits: v.to_bits(),
            null: false,
        }
    }

    #[inline(always)]
    fn i(self) -> i64 {
        self.bits as i64
    }

    #[inline(always)]
    fn f(self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// One instruction of an expression kernel's register program. Instruction
/// `i` writes register `i`; operands name earlier registers. The type of
/// every register (integer or f64) is fixed at compile time from the column
/// types, which is what lets the program replicate [`binary`]'s dynamic
/// `Value` typing with no tag at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArithOp {
    /// Fixed-width column read: INT/BIGINT/TIMESTAMP as i64, FLOAT/DOUBLE as
    /// f64 (`Value::as_f64` of the decoded field).
    Load(FieldRef),
    ConstI(i64),
    ConstF(f64),
    /// Promote an integer register to f64 (`Value::as_f64`).
    ToF(u16),
    /// Integer-preserving arithmetic: checked, erroring on overflow.
    AddI(u16, u16),
    SubI(u16, u16),
    MulI(u16, u16),
    /// NULL on a zero divisor.
    ModI(u16, u16),
    AddF(u16, u16),
    SubF(u16, u16),
    MulF(u16, u16),
    ModF(u16, u16),
    /// NULL on a zero divisor (either sign).
    DivF(u16, u16),
}

#[inline(always)]
fn int_op(a: Reg, b: Reg, op: BinaryOp, f: impl FnOnce(i64, i64) -> Option<i64>) -> Result<Reg> {
    if a.null || b.null {
        return Ok(NULL_REG);
    }
    match f(a.i(), b.i()) {
        Some(v) => Ok(Reg::int(v)),
        None => Err(integer_overflow(op)),
    }
}

#[inline(always)]
fn float_op(a: Reg, b: Reg, f: impl FnOnce(f64, f64) -> f64) -> Reg {
    if a.null || b.null {
        return NULL_REG;
    }
    Reg::float(f(a.f(), b.f()))
}

// HOT: per-row evaluation of one expression kernel — a straight run over a
// handful of typed instructions, operands in pooled registers, column reads
// straight from the encoded bytes. Replicates `eval::binary` exactly: NULL
// propagation before any arithmetic, checked integer ops with the same
// typed overflow error, NULL on `/0` and `%0`, f64 otherwise — evaluated in
// the tree walk's left-to-right post-order, so the first error is the same.
// analysis:allow(panic-freedom): registers are reached through checked
// slice accessors only and integer arithmetic is `checked_*`; the `get`
// callees the name-resolved graph lists here belong to other types.
#[inline(always)]
fn eval_ops(
    ops: &[ArithOp],
    regs: &mut [Reg],
    load: impl Fn(&FieldRef) -> Result<Option<Fixed>>,
) -> Result<Reg> {
    let mut last = NULL_REG;
    for (i, op) in ops.iter().enumerate() {
        let reg = |r: u16| regs.get(r as usize).copied().unwrap_or(NULL_REG);
        last = match op {
            ArithOp::Load(field) => match load(field)? {
                None => NULL_REG,
                Some(Fixed::Int(v)) => Reg::int(v),
                Some(Fixed::Float(v)) => Reg::float(v as f64),
                Some(Fixed::Double(v)) => Reg::float(v),
            },
            ArithOp::ConstI(v) => Reg::int(*v),
            ArithOp::ConstF(v) => Reg::float(*v),
            ArithOp::ToF(a) => {
                let a = reg(*a);
                if a.null {
                    NULL_REG
                } else {
                    Reg::float(a.i() as f64)
                }
            }
            ArithOp::AddI(a, b) => int_op(reg(*a), reg(*b), BinaryOp::Add, i64::checked_add)?,
            ArithOp::SubI(a, b) => int_op(reg(*a), reg(*b), BinaryOp::Sub, i64::checked_sub)?,
            ArithOp::MulI(a, b) => int_op(reg(*a), reg(*b), BinaryOp::Mul, i64::checked_mul)?,
            ArithOp::ModI(a, b) => {
                let (a, b) = (reg(*a), reg(*b));
                if b.null || b.i() == 0 {
                    NULL_REG
                } else {
                    int_op(a, b, BinaryOp::Mod, i64::checked_rem)?
                }
            }
            ArithOp::AddF(a, b) => float_op(reg(*a), reg(*b), |x, y| x + y),
            ArithOp::SubF(a, b) => float_op(reg(*a), reg(*b), |x, y| x - y),
            ArithOp::MulF(a, b) => float_op(reg(*a), reg(*b), |x, y| x * y),
            ArithOp::ModF(a, b) => float_op(reg(*a), reg(*b), |x, y| x % y),
            ArithOp::DivF(a, b) => {
                let (a, b) = (reg(*a), reg(*b));
                if b.null || b.f() == 0.0 {
                    NULL_REG
                } else {
                    float_op(a, b, |x, y| x / y)
                }
            }
        };
        if let Some(slot) = regs.get_mut(i) {
            *slot = last;
        }
    }
    Ok(last)
}

/// Lowers one aggregate argument into a register program, or declines
/// (`None`) when the tree leaves the `+ - * / %` over fixed-width numeric
/// columns and numeric literals subset.
struct ArithCompiler<'a> {
    codec: &'a CompactCodec,
    ops: Vec<ArithOp>,
}

impl ArithCompiler<'_> {
    fn push(&mut self, op: ArithOp) -> Option<u16> {
        let at = u16::try_from(self.ops.len()).ok()?;
        self.ops.push(op);
        Some(at)
    }

    fn promote(&mut self, (reg, int): (u16, bool)) -> Option<u16> {
        if int {
            self.push(ArithOp::ToF(reg))
        } else {
            Some(reg)
        }
    }

    /// Returns the result register and whether it is integer-typed.
    fn lower(&mut self, e: &PhysExpr) -> Option<(u16, bool)> {
        match e {
            PhysExpr::Column(c) => {
                let field = FieldRef::resolve(self.codec, *c)?;
                if field.class == KernelClass::Str {
                    return None;
                }
                Some((self.push(ArithOp::Load(field))?, field.class.is_int()))
            }
            PhysExpr::Literal(v) => match v {
                Value::Int(_) | Value::Bigint(_) | Value::Timestamp(_) => {
                    Some((self.push(ArithOp::ConstI(v.as_i64().ok()?))?, true))
                }
                Value::Float(_) | Value::Double(_) => {
                    Some((self.push(ArithOp::ConstF(v.as_f64().ok()?))?, false))
                }
                _ => None,
            },
            PhysExpr::Binary { op, left, right } => {
                use BinaryOp::{Add, Div, Mod, Mul, Sub};
                if !matches!(op, Add | Sub | Mul | Mod | Div) {
                    return None;
                }
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                if l.1 && r.1 && *op != Div {
                    let (a, b) = (l.0, r.0);
                    let op = match op {
                        Add => ArithOp::AddI(a, b),
                        Sub => ArithOp::SubI(a, b),
                        Mul => ArithOp::MulI(a, b),
                        _ => ArithOp::ModI(a, b),
                    };
                    return Some((self.push(op)?, true));
                }
                let a = self.promote(l)?;
                let b = self.promote(r)?;
                let op = match op {
                    Add => ArithOp::AddF(a, b),
                    Sub => ArithOp::SubF(a, b),
                    Mul => ArithOp::MulF(a, b),
                    Mod => ArithOp::ModF(a, b),
                    _ => ArithOp::DivF(a, b),
                };
                Some((self.push(op)?, false))
            }
            _ => None,
        }
    }
}

/// Family 2 — an aggregate argument lowered to a register program whose
/// result feeds the same [`KernelState`] fold the column kernels use.
#[derive(Debug, Clone)]
struct ExprKernel {
    /// The argument expression: kernel identity, so aggregates over the
    /// same expression share one evaluation per row (cyclic binding).
    expr: PhysExpr,
    ops: Vec<ArithOp>,
    /// Result type: integer (the interpreter's `Value::Bigint`) or f64
    /// (`Value::Double`).
    int: bool,
    track: Track,
    /// How many generic aggregates were bound before the first aggregate
    /// bound here — decides which error surfaces when one row trips several
    /// fallible kernels (the interpreter reports the first slot's).
    generic_before: usize,
}

impl ExprKernel {
    fn class(&self) -> KernelClass {
        if self.int {
            KernelClass::Bigint
        } else {
            KernelClass::Double
        }
    }

    #[inline(always)]
    fn feed(&self, st: &mut KernelState, r: Reg) {
        if r.null {
            return;
        }
        if self.int {
            st.feed_int(r.i(), self.track);
        } else {
            st.feed_double(r.f(), self.track);
        }
    }
}

// -- family 3: count-map kernels --------------------------------------------

/// `key` of the count-map entry holding the request row's string (which
/// lives in the decoded request row, not the arena).
const REQUEST_KEY: u64 = u64::MAX;

/// One distinct key and its multiplicity. Fixed-width columns key by their
/// canonical `KeyValue` bits; STRING columns by an arena byte range
/// (`key` = start offset, `len` = byte length).
#[derive(Debug, Clone, Copy)]
struct CountEntry {
    key: u64,
    len: usize,
    hash: u64,
    count: u64,
}

/// Pooled open-addressing count map: cleared between requests, never freed.
/// Output order never depends on slot order (projections sort explicitly),
/// so the per-state random seed only defends probe lengths against keys
/// crafted to collide.
#[derive(Debug)]
struct CountMap {
    seed: u64,
    /// Entry index + 1 per slot, 0 = empty. Length is zero or a power of
    /// two, kept at least twice the entry count.
    slots: Vec<u32>,
    entries: Vec<CountEntry>,
}

impl CountMap {
    fn new() -> CountMap {
        use std::hash::BuildHasher;
        CountMap {
            seed: std::collections::hash_map::RandomState::new().hash_one(0u64),
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.slots.fill(0);
            self.entries.clear();
        }
    }

    #[inline(always)]
    fn mix(&self, x: u64) -> u64 {
        let h = (x ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }

    #[inline(always)]
    fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        // Seeded FNV-1a, finished through the same multiply-fold.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.mix(h)
    }

    /// Double the slot table and re-seat every entry by its stored hash.
    /// Cold: a warm state already holds the largest window it has seen.
    #[cold]
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(n, 0);
        let mask = n - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let mut at = e.hash as usize & mask;
            for _ in 0..n {
                match self.slots.get_mut(at) {
                    Some(s) if *s == 0 => {
                        *s = i as u32 + 1;
                        break;
                    }
                    _ => at = (at + 1) & mask,
                }
            }
        }
    }

    // HOT: one probe sequence per fed row and count-map kernel — linear
    // probing over a pooled slot table; grows (cold) only past the largest
    // window this state has seen.
    // analysis:allow(panic-freedom): slots and entries are reached through
    // checked slice accessors only; the `get`/`len` callees the
    // name-resolved graph lists here belong to other types.
    #[inline(always)]
    fn bump(&mut self, hash: u64, key: u64, len: usize, same: impl Fn(&CountEntry) -> bool) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        // The table is at most half full, so an empty slot ends every probe
        // sequence well inside one lap.
        for _ in 0..self.slots.len() {
            let Some(slot) = self.slots.get_mut(at) else {
                return;
            };
            if *slot == 0 {
                *slot = self.entries.len() as u32 + 1;
                self.entries.push(CountEntry {
                    key,
                    len,
                    hash,
                    count: 1,
                });
                return;
            }
            if let Some(e) = self.entries.get_mut(*slot as usize - 1) {
                if e.hash == hash && same(e) {
                    e.count += 1;
                    return;
                }
            }
            at = (at + 1) & mask;
        }
    }

    #[inline(always)]
    fn bump_fixed(&mut self, v: Fixed) {
        let key = v.key_bits();
        self.bump(self.mix(key), key, 0, |e| e.key == key);
    }

    /// Count a string under entry key `key`: an arena start offset, or
    /// [`REQUEST_KEY`]. Every entry it can collide with is an arena range
    /// (the request row is fed last).
    // analysis:allow(panic-freedom): checked slice accessors only (see
    // `bump`).
    #[inline(always)]
    fn bump_bytes(&mut self, bytes: &[u8], arena: &[u8], key: u64) {
        let hash = self.hash_bytes(bytes);
        self.bump(hash, key, bytes.len(), |e| {
            arena.get(e.key as usize..e.key as usize + e.len) == Some(bytes)
        });
    }

    /// Count a stored row's string (a slice of `arena`).
    // analysis:allow(panic-freedom): `arena_of` is checked offset
    // arithmetic; the rest is `bump_bytes`.
    #[inline(always)]
    fn bump_str(&mut self, bytes: &[u8], arena: &[u8]) -> Result<()> {
        if let StrSlot::Arena { start, .. } = StrSlot::arena_of(bytes, arena)? {
            self.bump_bytes(bytes, arena, start as u64);
        }
        Ok(())
    }
}

/// The bytes of a STRING count-map entry.
fn entry_bytes<'a>(
    e: &CountEntry,
    col: usize,
    arena: &'a [u8],
    request: Option<&'a [Value]>,
) -> &'a [u8] {
    if e.key == REQUEST_KEY {
        return request
            .and_then(|r| r.get(col))
            .and_then(|v| v.as_str().ok())
            .map_or(&[], str::as_bytes);
    }
    arena
        .get(e.key as usize..e.key as usize + e.len)
        .unwrap_or(&[])
}

/// One `topn_frequency(col, n)` projection of a count map.
#[derive(Debug, Clone, Copy)]
struct TopnSpec {
    map: usize,
    n: usize,
}

/// Pooled projection scratch of one `topn_frequency`: the selected entry
/// order and the rendered output, so producing the value is one `Arc<str>`
/// allocation.
#[derive(Debug, Default)]
struct TopnState {
    order: Vec<u32>,
    rendered: String,
}

impl TopnState {
    /// Select and render the `n` most frequent keys in the interpreter's
    /// order: count descending, then key ascending by `KeyValue`'s ordering
    /// (`Int` as i64, `Bits` as u64, `Str` byte-lexicographic), each key
    /// rendered as `KeyValue::render` does.
    fn render(
        &mut self,
        field: &FieldRef,
        map: &CountMap,
        n: usize,
        arena: &[u8],
        request: Option<&[Value]>,
    ) -> Result<()> {
        use std::cmp::Ordering;
        use std::fmt::Write;
        let cmp = |a: &u32, b: &u32| {
            let (Some(x), Some(y)) = (map.entries.get(*a as usize), map.entries.get(*b as usize))
            else {
                return Ordering::Equal;
            };
            y.count.cmp(&x.count).then_with(|| match field.class {
                KernelClass::Str => entry_bytes(x, field.col, arena, request)
                    .cmp(entry_bytes(y, field.col, arena, request)),
                c if c.is_int() => (x.key as i64).cmp(&(y.key as i64)),
                _ => x.key.cmp(&y.key),
            })
        };
        self.order.clear();
        self.order.extend(0..map.entries.len() as u32);
        if n < self.order.len() {
            if n > 0 {
                self.order.select_nth_unstable_by(n - 1, cmp);
            }
            self.order.truncate(n);
        }
        self.order.sort_unstable_by(cmp);
        self.rendered.clear();
        for (i, e) in self
            .order
            .iter()
            .filter_map(|&e| map.entries.get(e as usize))
            .enumerate()
        {
            if i > 0 {
                self.rendered.push(',');
            }
            // Writing into a `String` cannot fail.
            let _ = match field.class {
                KernelClass::Str => {
                    let s = std::str::from_utf8(entry_bytes(e, field.col, arena, request))
                        .map_err(|e| Error::Eval(format!("non-UTF-8 count-map key: {e}")))?;
                    self.rendered.write_str(s)
                }
                c if c.is_int() => write!(self.rendered, "{}", e.key as i64),
                _ => write!(self.rendered, "f{:016x}", e.key),
            };
        }
        Ok(())
    }
}

// -- family 4: generic kernels ----------------------------------------------

/// Family 4 — everything else the function registry accepts (`*_cate_where`,
/// `drawdown`, `ew_avg`, `median`, `top`, BOOL columns, multi-argument and
/// scalar-call arguments): one pooled [`WindowAggSet`] over all of them, i.e.
/// the interpreter's own slots (`SharedNumeric` for projection functions,
/// `Box<dyn Aggregator>` otherwise) fed from the row view. Slow, but inside
/// the program — sharing the scan, the sort skip, the frame guard and the
/// deadline cadence with the other families.
fn build_generic(aggs: &[BoundAggregate]) -> Result<Option<WindowAggSet>> {
    if aggs.is_empty() {
        return Ok(None);
    }
    let refs: Vec<&BoundAggregate> = aggs.iter().collect();
    WindowAggSet::new(&refs).map(Some)
}

// analysis:allow(panic-freedom): delegates to `WindowAggSet::update_view`,
// itself a `// HOT:` root — the aggregators' panic sites are tracked once,
// under that root.
fn feed_generic(generic: &mut Option<WindowAggSet>, view: Option<&RowView<'_>>) -> Result<()> {
    match generic {
        Some(set) => set.update_view(view.ok_or_else(str_without_view)?),
        None => Ok(()),
    }
}

/// The expression kernel `spec` failed on this row (a stored row's `view`, or
/// the request row). The interpreter walks slots in aggregate order, so a
/// generic aggregate bound *earlier* that also fails on this row owns the
/// error; expression kernels run first here, so feed those aggregates now
/// (the fold is being abandoned either way).
// analysis:allow(panic-freedom): cold error path into the `WindowAggSet`
// feed, whose panic sites are tracked under its own `// HOT:` root.
#[cold]
fn first_error(
    err: Error,
    spec: &ExprKernel,
    generic: &mut Option<WindowAggSet>,
    view: Option<&RowView<'_>>,
    request: Option<&[Value]>,
) -> Error {
    let fed = match (generic, view, request) {
        (Some(set), Some(v), _) => set.update_first(spec.generic_before, v),
        (Some(set), None, Some(r)) => set.update_first(spec.generic_before, r),
        _ => Ok(()),
    };
    fed.err().unwrap_or(err)
}

/// Where one aggregate's output comes from, in aggregate order.
#[derive(Debug, Clone, Copy)]
enum Binding {
    Column { k: usize, proj: Projection },
    Expr { k: usize, proj: Projection },
    Distinct { map: usize },
    TopN { t: usize },
    Generic { pos: usize },
}

/// Pooled per-window fold state of every family (lives in the request
/// scratch so warm requests never allocate).
pub struct WindowState {
    kernels: Vec<KernelState>,
    exprs: Vec<KernelState>,
    /// Register file shared by the expression kernels (sized to the longest
    /// program).
    regs: Vec<Reg>,
    maps: Vec<CountMap>,
    topn: Vec<TopnState>,
    generic: Option<WindowAggSet>,
    /// The generic aggregates' outputs, staged once per fold.
    generic_out: Vec<Value>,
}

impl WindowState {
    pub fn reset(&mut self) {
        for k in self.kernels.iter_mut().chain(self.exprs.iter_mut()) {
            *k = KernelState::default();
        }
        for m in &mut self.maps {
            m.clear();
        }
        if let Some(g) = &mut self.generic {
            g.reset();
        }
        self.generic_out.clear();
    }
}

/// A window's aggregates compiled to kernels of four families, plus the
/// frame guards hoisted out of the per-request path.
#[derive(Debug)]
pub struct WindowProgram {
    /// Family 1: bare-column kernels.
    kernels: Vec<KernelSpec>,
    /// Family 2: expression kernels.
    exprs: Vec<ExprKernel>,
    /// Family 3: count maps, one per distinct column.
    maps: Vec<FieldRef>,
    topn: Vec<TopnSpec>,
    /// Family 4: the generic aggregates, in aggregate order.
    generic: Vec<BoundAggregate>,
    /// Output bindings in aggregate order.
    bindings: Vec<Binding>,
    /// Whether any of families 2–4 is present; column-only windows run a
    /// copy of the row loop with them compiled out.
    extended: bool,
    /// Longest expression program (register-file size).
    max_regs: usize,
    /// Whether any kernel reads a var-width field or evaluates through a
    /// [`RowView`](openmldb_types::RowView) (strings, generic aggregates) — those
    /// rows are validated once by the view; fixed-only programs read bytes
    /// directly after a 3-field header check.
    needs_view: bool,
    /// Minimum valid encoded length (header + bitmap + fixed area),
    /// precomputed so fixed-only row validation is three compares.
    min_row_len: usize,
    schema_version: u8,
    /// `ROWS n PRECEDING` cap (`None` for range/unbounded frames).
    rows_preceding: Option<usize>,
    /// `MAXSIZE` cap.
    maxsize: Option<usize>,
    /// Hoisted `EXCLUDE CURRENT_ROW` guard: whether the request row joins
    /// the frame.
    pub include_request: bool,
}

/// Builder state while partitioning one window's aggregates into families.
struct WindowCompiler<'a> {
    codec: &'a CompactCodec,
    kernels: Vec<KernelSpec>,
    exprs: Vec<ExprKernel>,
    maps: Vec<FieldRef>,
    topn: Vec<TopnSpec>,
    generic: Vec<BoundAggregate>,
}

impl WindowCompiler<'_> {
    /// Family 1: a projection function over a bare column with a byte-level
    /// kernel (sums over STRING have none: the interpreter's type error must
    /// surface, which the generic family reproduces).
    fn column_kernel(&mut self, col: usize, proj: Projection) -> Option<Binding> {
        let field = FieldRef::resolve(self.codec, col)?;
        if field.class == KernelClass::Str
            && matches!(proj, Projection::Sum | Projection::Avg | Projection::Stddev)
        {
            return None;
        }
        // Aggregates over the same column share one kernel — the same
        // grouping `WindowAggSet`'s cyclic binding performs.
        let k = match self.kernels.iter().position(|ks| ks.field.col == col) {
            Some(k) => k,
            None => {
                self.kernels.push(KernelSpec {
                    field,
                    track: Track::default(),
                });
                self.kernels.len() - 1
            }
        };
        self.kernels.get_mut(k)?.track.note(proj);
        Some(Binding::Column { k, proj })
    }

    /// Family 2: a projection function over a lowerable arithmetic tree.
    fn expr_kernel(&mut self, e: &PhysExpr, proj: Projection) -> Option<Binding> {
        let k = match self.exprs.iter().position(|k| &k.expr == e) {
            Some(k) => k,
            None => {
                let mut c = ArithCompiler {
                    codec: self.codec,
                    ops: Vec::new(),
                };
                let (_, int) = c.lower(e)?;
                self.exprs.push(ExprKernel {
                    expr: e.clone(),
                    ops: c.ops,
                    int,
                    track: Track::default(),
                    generic_before: self.generic.len(),
                });
                self.exprs.len() - 1
            }
        };
        self.exprs.get_mut(k)?.track.note(proj);
        Some(Binding::Expr { k, proj })
    }

    /// Family 3: the count map over `col`, shared by every `distinct_count`
    /// and `topn_frequency` of that column.
    fn count_map(&mut self, col: usize) -> Option<usize> {
        let field = FieldRef::resolve(self.codec, col)?;
        Some(match self.maps.iter().position(|f| f.col == col) {
            Some(m) => m,
            None => {
                self.maps.push(field);
                self.maps.len() - 1
            }
        })
    }

    /// Family 4.
    fn generic(&mut self, agg: &BoundAggregate) -> Binding {
        self.generic.push(agg.clone());
        Binding::Generic {
            pos: self.generic.len() - 1,
        }
    }

    fn bind(&mut self, agg: &BoundAggregate) -> Binding {
        let lowered = match (projection_for(agg.func.name), agg.args.as_slice()) {
            (Some(proj), [PhysExpr::Column(c)]) => self.column_kernel(*c, proj),
            (Some(proj), [e @ PhysExpr::Binary { .. }]) => self.expr_kernel(e, proj),
            (None, [PhysExpr::Column(c)]) if agg.func.name == "distinct_count" => {
                self.count_map(*c).map(|map| Binding::Distinct { map })
            }
            (None, [PhysExpr::Column(c), PhysExpr::Literal(n)])
                if agg.func.name == "topn_frequency" =>
            {
                // Same clamp as `create_aggregator`.
                n.as_i64().ok().and_then(|n| {
                    let map = self.count_map(*c)?;
                    self.topn.push(TopnSpec {
                        map,
                        n: n.max(0) as usize,
                    });
                    Some(Binding::TopN {
                        t: self.topn.len() - 1,
                    })
                })
            }
            _ => None,
        };
        lowered.unwrap_or_else(|| self.generic(agg))
    }
}

impl WindowProgram {
    /// Compile one window's aggregates. Every aggregate lowers to one of
    /// the four kernel families; the only failure is a generic aggregate the
    /// interpreter's own [`WindowAggSet::new`] rejects.
    fn compile(
        window: &BoundWindow,
        aggs: &[&BoundAggregate],
        codec: &CompactCodec,
    ) -> std::result::Result<WindowProgram, String> {
        let mut c = WindowCompiler {
            codec,
            kernels: Vec::new(),
            exprs: Vec::new(),
            maps: Vec::new(),
            topn: Vec::new(),
            generic: Vec::new(),
        };
        let bindings: Vec<Binding> = aggs.iter().map(|agg| c.bind(agg)).collect();
        build_generic(&c.generic).map_err(|e| e.to_string())?;
        let is_str = |f: &FieldRef| f.class == KernelClass::Str;
        Ok(WindowProgram {
            needs_view: c.kernels.iter().any(|k| is_str(&k.field))
                || c.maps.iter().any(is_str)
                || !c.generic.is_empty(),
            extended: !(c.exprs.is_empty() && c.maps.is_empty() && c.generic.is_empty()),
            max_regs: c.exprs.iter().map(|k| k.ops.len()).max().unwrap_or(0),
            kernels: c.kernels,
            exprs: c.exprs,
            maps: c.maps,
            topn: c.topn,
            generic: c.generic,
            bindings,
            min_row_len: codec.min_encoded_len(),
            schema_version: codec.schema_version(),
            rows_preceding: match window.frame {
                openmldb_sql::ast::Frame::Rows { preceding } => Some(preceding as usize),
                _ => None,
            },
            maxsize: window.maxsize,
            include_request: !window.exclude_current_row,
        })
    }

    /// Fresh (pool-able) fold state sized for this program.
    pub fn new_state(&self) -> WindowState {
        WindowState {
            kernels: vec![KernelState::default(); self.kernels.len()],
            exprs: vec![KernelState::default(); self.exprs.len()],
            regs: vec![NULL_REG; self.max_regs],
            maps: self.maps.iter().map(|_| CountMap::new()).collect(),
            topn: self.topn.iter().map(|_| TopnState::default()).collect(),
            // Built once at compile time, so `ok()` drops nothing; `run`
            // re-checks regardless.
            generic: build_generic(&self.generic).ok().flatten(),
            generic_out: Vec::with_capacity(self.generic.len()),
        }
    }

    /// The hoisted frame guard: index of the first in-frame row among
    /// `total` candidate rows in ascending `(ts, seq)` order (request row
    /// included in `total` when it joins the frame). Replicates the
    /// materializing reference's `ROWS n PRECEDING` + `MAXSIZE` caps.
    pub fn first_in_frame(&self, total: usize) -> usize {
        let mut first = 0usize;
        if let Some(p) = self.rows_preceding {
            first = total.saturating_sub(p.saturating_add(1));
        }
        if let Some(m) = self.maxsize {
            first = first.max(total.saturating_sub(m));
        }
        first
    }

    /// Run the fold over the scanned entries. `first` is the in-frame start
    /// from [`first_in_frame`](Self::first_in_frame) (over stored rows +
    /// request), `request` is the decoded request row iff it joins the frame
    /// at or past `first` — it is always fed last, matching its position in
    /// the reference's stable ts sort (its `ts` is the anchor, `>=` every
    /// stored row, and it is pushed last). `probe` runs every 64 fed rows so
    /// a deadline can interrupt long folds.
    // One flat call per window per request: the executor hands over its
    // borrowed scan state piecewise, and bundling it into a struct would
    // just add a construction step on the hot path.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        state: &mut WindowState,
        entries: &[ScanEntry],
        first: usize,
        order: EntryOrder,
        arena: &[u8],
        request: Option<&[Value]>,
        codec: &CompactCodec,
        probe: &mut dyn FnMut() -> Result<()>,
    ) -> Result<()> {
        if state.generic.is_some() == self.generic.is_empty() {
            return Err(generic_state_mismatch());
        }
        state.reset();
        // Column-only windows run a loop with the other families compiled
        // out.
        let mut fed = if self.extended {
            self.feed_entries(true, state, entries, first, order, arena, codec, probe)?
        } else {
            self.feed_entries(false, state, entries, first, order, arena, codec, probe)?
        };
        if let Some(req) = request {
            self.feed_request(state, req, arena)?;
            // The request row counts toward the probe cadence.
            fed += 1;
            if fed & 63 == 0 {
                probe()?;
            }
        }
        self.finish(state, arena, request)
    }

    /// Feed the in-frame stored rows in ascending `(ts, seq)` order; returns
    /// how many were fed. `ext` is [`Self::extended`] passed as a literal at
    /// both call sites, so inlining folds it and each copy of the loop keeps
    /// only its own families.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn feed_entries(
        &self,
        ext: bool,
        state: &mut WindowState,
        entries: &[ScanEntry],
        first: usize,
        order: EntryOrder,
        arena: &[u8],
        codec: &CompactCodec,
        probe: &mut dyn FnMut() -> Result<()>,
    ) -> Result<u32> {
        let n = entries.len();
        let take = n.saturating_sub(first);
        let mut fed = 0u32;
        match order {
            EntryOrder::Ascending => {
                for e in &entries[n - take..] {
                    self.feed_row(ext, state, e.bytes(arena), arena, codec)?;
                    fed += 1;
                    if fed & 63 == 0 {
                        probe()?;
                    }
                }
            }
            EntryOrder::ReversedScan => {
                for e in entries[..take].iter().rev() {
                    self.feed_row(ext, state, e.bytes(arena), arena, codec)?;
                    fed += 1;
                    if fed & 63 == 0 {
                        probe()?;
                    }
                }
            }
        }
        Ok(fed)
    }

    // HOT: the compiled per-row dispatch loop — one NULL-bit probe plus one
    // fixed-offset little-endian read per kernel, no `Value` construction,
    // no parse beyond the 3-field header check for fixed-only programs.
    #[inline(always)]
    fn feed_row(
        &self,
        ext: bool,
        state: &mut WindowState,
        buf: &[u8],
        arena: &[u8],
        codec: &CompactCodec,
    ) -> Result<()> {
        if self.needs_view {
            return self.feed_row_view(state, buf, arena, codec);
        }
        if buf.len() < self.min_row_len {
            return Err(truncated_row(buf.len(), self.min_row_len));
        }
        let declared = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        if declared != buf.len() {
            return Err(length_mismatch(declared, buf.len()));
        }
        if buf[1] != self.schema_version {
            return Err(version_mismatch(buf[1], self.schema_version));
        }
        for (spec, st) in self.kernels.iter().zip(state.kernels.iter_mut()) {
            if spec.field.null_in(buf) {
                continue;
            }
            spec.field.visit_fixed(buf, spec.feed(st))?;
        }
        if ext {
            self.feed_extended(state, buf, None, arena)?;
        }
        Ok(())
    }

    // HOT: per-row loop of view-bearing programs — fixed fields still read
    // at baked offsets; only string kernels go through the validated view,
    // borrowing the arena (no copy until output).
    fn feed_row_view(
        &self,
        state: &mut WindowState,
        buf: &[u8],
        arena: &[u8],
        codec: &CompactCodec,
    ) -> Result<()> {
        let view = codec.view(buf)?;
        for (spec, st) in self.kernels.iter().zip(state.kernels.iter_mut()) {
            if spec.field.null_in(buf) {
                continue;
            }
            if spec.field.class != KernelClass::Str {
                spec.field.visit_fixed(buf, spec.feed(st))?;
                continue;
            }
            if let Some(s) = str_field(&view, spec.field.col)? {
                st.feed_str(s, arena, spec.track)?;
            }
        }
        if self.extended {
            self.feed_extended(state, buf, Some(&view), arena)?;
        }
        Ok(())
    }

    // HOT: the per-row fold of the expression, count-map and generic
    // families, in that order. Only expression and generic kernels can fail
    // on well-formed rows; `first_error` restores the interpreter's
    // slot-order error precedence between them.
    fn feed_extended(
        &self,
        state: &mut WindowState,
        buf: &[u8],
        view: Option<&RowView<'_>>,
        arena: &[u8],
    ) -> Result<()> {
        let WindowState {
            exprs,
            regs,
            maps,
            generic,
            ..
        } = state;
        for (spec, st) in self.exprs.iter().zip(exprs.iter_mut()) {
            match eval_ops(&spec.ops, regs, |f| f.stored(buf)) {
                Ok(r) => spec.feed(st, r),
                Err(e) => return Err(first_error(e, spec, generic, view, None)),
            }
        }
        for (field, map) in self.maps.iter().zip(maps.iter_mut()) {
            if field.class != KernelClass::Str {
                if let Some(v) = field.stored(buf)? {
                    map.bump_fixed(v);
                }
                continue;
            }
            if let Some(s) = str_field(view.ok_or_else(str_without_view)?, field.col)? {
                map.bump_str(s.as_bytes(), arena)?;
            }
        }
        feed_generic(generic, view)
    }

    /// Feed the request row (always last) to every family.
    fn feed_request(&self, state: &mut WindowState, req: &[Value], arena: &[u8]) -> Result<()> {
        let WindowState {
            kernels,
            exprs,
            regs,
            maps,
            generic,
            ..
        } = state;
        for (spec, st) in self.kernels.iter().zip(kernels.iter_mut()) {
            let v = req
                .get(spec.field.col)
                .ok_or_else(|| request_out_of_bounds(spec.field.col))?;
            st.feed_request(v, arena, spec)?;
        }
        for (spec, st) in self.exprs.iter().zip(exprs.iter_mut()) {
            match eval_ops(&spec.ops, regs, |f| f.requested(req)) {
                Ok(r) => spec.feed(st, r),
                Err(e) => return Err(first_error(e, spec, generic, None, Some(req))),
            }
        }
        for (field, map) in self.maps.iter().zip(maps.iter_mut()) {
            if field.class != KernelClass::Str {
                if let Some(v) = field.requested(req)? {
                    map.bump_fixed(v);
                }
                continue;
            }
            match req.get(field.col) {
                Some(Value::Null) => {}
                Some(v) => map.bump_bytes(v.as_str()?.as_bytes(), arena, REQUEST_KEY),
                None => return Err(binding_out_of_bounds()),
            }
        }
        if let Some(set) = generic {
            set.update(req)?;
        }
        Ok(())
    }

    /// Stage what the projections need once the last row is fed: each
    /// `topn_frequency` selection rendered into its pooled buffer, and the
    /// generic aggregates' outputs.
    fn finish(
        &self,
        state: &mut WindowState,
        arena: &[u8],
        request: Option<&[Value]>,
    ) -> Result<()> {
        let WindowState {
            maps,
            topn,
            generic,
            generic_out,
            ..
        } = state;
        for (spec, out) in self.topn.iter().zip(topn.iter_mut()) {
            match (self.maps.get(spec.map), maps.get(spec.map)) {
                (Some(field), Some(map)) => out.render(field, map, spec.n, arena, request)?,
                _ => return Err(binding_out_of_bounds()),
            }
        }
        if let Some(set) = generic {
            set.outputs_into(generic_out);
        }
        Ok(())
    }

    /// Project the fold state into output values, one per bound aggregate,
    /// in aggregate order. Must be called with the same `arena`/`request`
    /// the fold ran over (string extrema borrow them until this point).
    pub fn outputs_into(
        &self,
        state: &WindowState,
        arena: &[u8],
        request: Option<&[Value]>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        // Every arm pushes its own value instead of building one `Value`
        // per binding and pushing it after the `match`: measured end to
        // end, that form is 5.8% slower on a 211-output request
        // (EXPERIMENTS.md, "Aggregate-granular compilation").
        for b in &self.bindings {
            match *b {
                Binding::Column { k, proj } => match (self.kernels.get(k), state.kernels.get(k)) {
                    (Some(spec), Some(st)) => project(
                        spec.field.class,
                        spec.field.col,
                        st,
                        proj,
                        arena,
                        request,
                        out,
                    )?,
                    _ => return Err(binding_out_of_bounds()),
                },
                Binding::Expr { k, proj } => match (self.exprs.get(k), state.exprs.get(k)) {
                    (Some(spec), Some(st)) => {
                        project(spec.class(), usize::MAX, st, proj, arena, request, out)?
                    }
                    _ => return Err(binding_out_of_bounds()),
                },
                Binding::Distinct { map } => match state.maps.get(map) {
                    Some(m) => out.push(Value::Bigint(m.entries.len() as i64)),
                    None => return Err(binding_out_of_bounds()),
                },
                Binding::TopN { t } => match state.topn.get(t) {
                    Some(t) => out.push(Value::string(t.rendered.as_str())),
                    None => return Err(binding_out_of_bounds()),
                },
                Binding::Generic { pos } => match state.generic_out.get(pos) {
                    Some(v) => out.push(v.clone()),
                    None => return Err(binding_out_of_bounds()),
                },
            }
        }
        Ok(())
    }
}

/// Push one projection of a column or expression kernel's running state
/// (`SharedNumeric::project`, monomorphized by class).
#[inline(always)]
fn project(
    class: KernelClass,
    col: usize,
    st: &KernelState,
    proj: Projection,
    arena: &[u8],
    request: Option<&[Value]>,
    out: &mut Vec<Value>,
) -> Result<()> {
    match proj {
        Projection::Count => out.push(Value::Bigint(st.count as i64)),
        Projection::Sum => {
            if st.count == 0 {
                out.push(Value::Null)
            } else if class.is_int() {
                // Integral inputs keep the interpreter's `all_int` wrapping
                // i64 sum.
                out.push(Value::Bigint(st.sum_i))
            } else {
                out.push(Value::Double(st.sum_f))
            }
        }
        Projection::Avg => {
            if st.count == 0 {
                out.push(Value::Null)
            } else {
                out.push(Value::Double(st.sum_f / st.count as f64))
            }
        }
        Projection::Stddev => {
            if st.count < 2 {
                out.push(Value::Null)
            } else {
                let n = st.count as f64;
                let var = ((st.sum_sq - st.sum_f * st.sum_f / n) / (n - 1.0)).max(0.0);
                out.push(Value::Double(var.sqrt()))
            }
        }
        Projection::Min => out.push(extremum(class, col, st, true, arena, request)?),
        Projection::Max => out.push(extremum(class, col, st, false, arena, request)?),
    }
    Ok(())
}

fn extremum(
    class: KernelClass,
    col: usize,
    st: &KernelState,
    min: bool,
    arena: &[u8],
    request: Option<&[Value]>,
) -> Result<Value> {
    if st.count == 0 {
        return Ok(Value::Null);
    }
    Ok(match class {
        KernelClass::Int => Value::Int((if min { st.min_i } else { st.max_i }) as i32),
        KernelClass::Bigint => Value::Bigint(if min { st.min_i } else { st.max_i }),
        KernelClass::Timestamp => Value::Timestamp(if min { st.min_i } else { st.max_i }),
        KernelClass::Float => Value::Float(if min { st.min_f32 } else { st.max_f32 }),
        KernelClass::Double => Value::Double(if min { st.min_f } else { st.max_f }),
        KernelClass::Str => match if min { st.min_str } else { st.max_str } {
            StrSlot::None => Value::Null,
            StrSlot::Arena { start, len } => {
                let bytes = arena.get(start..start + len).ok_or_else(|| {
                    Error::Eval("string extremum range outside the scan arena".into())
                })?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| Error::Eval(format!("non-UTF-8 string extremum: {e}")))?;
                Value::string(s)
            }
            StrSlot::Request => request.and_then(|r| r.get(col)).cloned().ok_or_else(|| {
                Error::Eval("request-row string extremum without request row".into())
            })?,
        },
    })
}

/// The STRING field `col` of a validated row (`None` for NULL).
// analysis:allow(panic-freedom): `RowView::get` is itself a `// HOT:` root;
// its view-validated index sites are tracked once, under that root.
#[inline(always)]
fn str_field<'a>(view: &RowView<'a>, col: usize) -> Result<Option<&'a str>> {
    match view.get(col)? {
        ValueRef::Str(s) => Ok(Some(s)),
        ValueRef::Null => Ok(None),
        _ => Err(str_class_mismatch()),
    }
}

/// Bounds-checked fixed-width little-endian reads — `None` instead of a
/// panic path when the row is shorter than the baked offset promises.
#[inline(always)]
fn read4(buf: &[u8], at: usize) -> Option<[u8; 4]> {
    let s = buf.get(at..at.checked_add(4)?)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    Some(b)
}

#[inline(always)]
fn read8(buf: &[u8], at: usize) -> Option<[u8; 8]> {
    let s = buf.get(at..at.checked_add(8)?)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(b)
}

#[cold]
fn truncated_row(len: usize, need: usize) -> Error {
    Error::Codec(format!("row too short: {len} bytes, need {need}"))
}

#[cold]
fn length_mismatch(declared: usize, actual: usize) -> Error {
    Error::Codec(format!(
        "row length mismatch: declared {declared}, got {actual}"
    ))
}

#[cold]
fn version_mismatch(got: u8, want: u8) -> Error {
    Error::Codec(format!("schema version mismatch: row {got}, codec {want}"))
}

#[cold]
fn str_without_view() -> Error {
    Error::Eval("view-backed kernel dispatched without a row view".into())
}

#[cold]
fn str_class_mismatch() -> Error {
    Error::Eval("string kernel read a non-string field".into())
}

/// The interpreter's overflow error ([`binary`]), verbatim.
#[cold]
fn integer_overflow(op: BinaryOp) -> Error {
    Error::Eval(format!("integer overflow in {}", op.symbol()))
}

#[cold]
fn request_out_of_bounds(col: usize) -> Error {
    Error::Eval(format!("request column {col} out of bounds"))
}

#[cold]
fn binding_out_of_bounds() -> Error {
    Error::Eval("kernel binding out of bounds".into())
}

#[cold]
fn generic_state_mismatch() -> Error {
    Error::Eval("window state does not match its program's generic aggregates".into())
}

// ---------------------------------------------------------------------------
// Whole-plan program + the deploy-time specialization entry point
// ---------------------------------------------------------------------------

/// Per-window compilation outcome.
#[derive(Debug)]
enum WindowUnit {
    Compiled(Box<WindowProgram>),
    /// The window did not lower — its plan holds an aggregate
    /// [`WindowAggSet::new`] rejects. DEPLOY refuses the plan with this
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
                match WindowProgram::compile(w, &aggs, &codec) {
                    Ok(wp) => WindowUnit::Compiled(Box::new(wp)),
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
        Program {
            windows,
            select,
            where_program,
        }
    }

    /// The compiled kernels for window `wid` (`None`: refused or
    /// aggregate-free).
    pub fn window(&self, wid: usize) -> Option<&WindowProgram> {
        match self.windows.get(wid) {
            Some(WindowUnit::Compiled(wp)) => Some(wp),
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

    /// The first construct that did not lower — a window, a select column
    /// or the WHERE clause — named, with the reason. DEPLOY refuses a plan
    /// whose program has one.
    pub fn refusal(&self) -> Option<&str> {
        (0..self.windows.len())
            .find_map(|wid| self.fallback_reason(wid))
            .or(self.select.as_ref().err().map(String::as_str))
            .or(self.where_program.as_ref().err().map(String::as_str))
    }

    pub fn compiled_windows(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| matches!(w, WindowUnit::Compiled(_)))
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
mod tests {
    use super::*;
    use crate::scratch::REQUEST_ROW;
    use crate::window::WindowAggSet;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;
    use openmldb_types::codec::RowCodec;
    use openmldb_types::{ColumnDef, DataType, Row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::String).not_null(),
            ColumnDef::new("ts", DataType::Timestamp).not_null(),
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("b", DataType::Bigint),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("s", DataType::String),
        ])
        .expect("valid schema")
    }

    fn agg(name: &str, col: usize, window_id: usize) -> BoundAggregate {
        BoundAggregate {
            window_id,
            func: lookup(name).expect("builtin"),
            args: vec![PhysExpr::Column(col)],
            output_type: DataType::Double,
        }
    }

    fn window() -> BoundWindow {
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
    fn row(i: i64) -> Row {
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
        ])
    }

    /// Fold `rows` (+ `request`) through the interpreted oracle and through
    /// the compiled program; either side may fail (typed errors must agree).
    fn try_fold_both(
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

    fn fold_both(
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

    fn assert_bit_identical(expected: &[Value], got: &[Value]) {
        assert_eq!(expected.len(), got.len());
        for (e, g) in expected.iter().zip(got) {
            // `Value: PartialEq` promotes numerics and rejects NaN == NaN;
            // the rendered form tells Int(3) from Bigint(3), -0.0 from 0.0,
            // and accepts NaN.
            assert_eq!(e.data_type(), g.data_type(), "{e:?} vs {g:?}");
            assert_eq!(format!("{e:?}"), format!("{g:?}"));
        }
    }

    fn agg_of(name: &str, args: Vec<PhysExpr>) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(name).expect("builtin"),
            args,
            output_type: DataType::Double,
        }
    }

    fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    fn lit(v: Value) -> PhysExpr {
        PhysExpr::Literal(v)
    }

    fn bin(op: BinaryOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Rows with the float edge cases: -0.0, NaN, infinities, a zero
    /// divisor in every numeric column, NULLs.
    fn edge_rows() -> Vec<Row> {
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
                ])
            })
            .collect()
    }

    #[test]
    fn kernels_match_interpreted_fold_across_types() {
        let aggs = vec![
            agg("sum", 2, 0),
            agg("count", 2, 0),
            agg("avg", 2, 0),
            agg("min", 2, 0),
            agg("max", 2, 0),
            agg("stddev", 2, 0),
            agg("sum", 3, 0),
            agg("min", 3, 0),
            agg("sum", 4, 0),
            agg("max", 4, 0),
            agg("sum", 5, 0),
            agg("avg", 5, 0),
            agg("min", 5, 0),
            agg("stddev", 5, 0),
            agg("count", 6, 0),
            agg("min", 6, 0),
            agg("max", 6, 0),
            agg("min", 1, 0),
            agg("max", 1, 0),
        ];
        let rows: Vec<Row> = (0..40).map(row).collect();
        let request = row(40);
        let (expected, got) = fold_both(&aggs, &rows, Some(&request));
        assert_bit_identical(&expected, &got);
    }

    #[test]
    fn kernels_match_on_empty_and_all_null_windows() {
        let aggs = vec![
            agg("sum", 2, 0),
            agg("avg", 2, 0),
            agg("min", 2, 0),
            agg("stddev", 2, 0),
            agg("count", 6, 0),
            agg("min", 6, 0),
        ];
        let (expected, got) = fold_both(&aggs, &[], None);
        assert_bit_identical(&expected, &got);

        // All-NULL int column (i % 7 == 0 rows only would be synthetic;
        // build explicit all-null rows instead).
        let mut nulls = Vec::new();
        for i in 0..5 {
            nulls.push(Row::new(vec![
                Value::string("k1"),
                Value::Timestamp(1_000 + i),
                Value::Null,
                Value::Bigint(i),
                Value::Float(0.0),
                Value::Null,
                Value::Null,
            ]));
        }
        let aggs = vec![agg("sum", 2, 0), agg("min", 2, 0), agg("count", 6, 0)];
        let (expected, got) = fold_both(&aggs, &nulls, None);
        assert_bit_identical(&expected, &got);
    }

    #[test]
    fn reversed_scan_order_replays_ascending_without_sort() {
        let schema = schema();
        let codec = CompactCodec::new(schema.clone());
        let w = window();
        let aggs = [agg("sum", 3, 0), agg("min", 3, 0), agg("max", 6, 0)];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");

        let rows: Vec<Row> = (0..20).map(row).collect();
        let mut arena = Vec::new();
        // Scan order: newest first (strictly descending ts).
        let mut entries = Vec::new();
        for (i, r) in rows.iter().rev().enumerate() {
            let bytes = codec.encode(r).expect("encode");
            let start = arena.len();
            arena.extend_from_slice(&bytes);
            entries.push(ScanEntry {
                ts: r.values()[1].as_i64().expect("ts"),
                seq: i,
                start,
                len: bytes.len(),
            });
        }
        let mut probe = || Ok(());

        let mut st_rev = wp.new_state();
        wp.run(
            &mut st_rev,
            &entries,
            0,
            EntryOrder::ReversedScan,
            &arena,
            None,
            &codec,
            &mut probe,
        )
        .expect("run");
        let mut got_rev = Vec::new();
        wp.outputs_into(&st_rev, &arena, None, &mut got_rev)
            .expect("outputs");

        // Oracle: ascending order over sorted entries.
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|e| (e.ts, e.seq));
        let mut st_asc = wp.new_state();
        wp.run(
            &mut st_asc,
            &sorted,
            0,
            EntryOrder::Ascending,
            &arena,
            None,
            &codec,
            &mut probe,
        )
        .expect("run");
        let mut got_asc = Vec::new();
        wp.outputs_into(&st_asc, &arena, None, &mut got_asc)
            .expect("outputs");
        assert_bit_identical(&got_asc, &got_rev);
    }

    #[test]
    fn frame_guard_matches_engine_arithmetic() {
        let mut w = window();
        w.frame = openmldb_sql::ast::Frame::Rows { preceding: 3 };
        w.maxsize = Some(2);
        let codec = CompactCodec::new(schema());
        let aggs = [agg("count", 2, 0)];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
        // ROWS 3 PRECEDING keeps 4, MAXSIZE 2 tightens to 2.
        assert_eq!(wp.first_in_frame(10), 8);
        assert_eq!(wp.first_in_frame(2), 0);
        assert_eq!(wp.first_in_frame(0), 0);
        // MAXSIZE 0: empty frame (first == total).
        w.maxsize = Some(0);
        let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
        assert_eq!(wp.first_in_frame(5), 5);
    }

    #[test]
    fn expression_kernels_replicate_binary_arithmetic() {
        use BinaryOp::*;
        let aggs = vec![
            // Integer-preserving: Bigint results, wrapping sum, i64 extrema.
            agg_of("sum", vec![bin(Add, col(2), col(3))]),
            agg_of("min", vec![bin(Add, col(2), col(3))]),
            agg_of("max", vec![bin(Sub, col(3), lit(Value::Bigint(7)))]),
            // `% 0` and `/ 0` are NULL, not errors; division is always f64.
            agg_of("count", vec![bin(Mod, col(3), col(2))]),
            agg_of("sum", vec![bin(Mod, col(3), col(2))]),
            agg_of("count", vec![bin(Div, col(3), col(2))]),
            agg_of("avg", vec![bin(Div, col(3), col(2))]),
            agg_of("count", vec![bin(Div, col(2), col(5))]),
            agg_of("min", vec![bin(Div, col(2), col(5))]),
            // Mixed int/float promotes through `as_f64`; FLOAT widens.
            agg_of(
                "avg",
                vec![bin(
                    Add,
                    bin(Mul, col(5), lit(Value::Double(2.0))),
                    lit(Value::Double(1.0)),
                )],
            ),
            agg_of("stddev", vec![bin(Mul, col(4), col(4))]),
            agg_of("max", vec![bin(Sub, col(2), col(4))]),
            agg_of("min", vec![bin(Mod, col(5), lit(Value::Double(0.0)))]),
            agg_of("sum", vec![bin(Mul, col(1), lit(Value::Bigint(2)))]),
            // Sharing: same expression, different projection.
            agg_of("count", vec![bin(Add, col(2), col(3))]),
        ];
        let mut rows = edge_rows();
        rows.extend((8..40).map(row));
        let request = row(41);
        let (expected, got) = fold_both(&aggs, &rows, Some(&request));
        assert_bit_identical(&expected, &got);

        // The whole window is one expression family: three column reads
        // shared across kernels, no generic aggregate.
        let codec = CompactCodec::new(schema());
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
        assert!(wp.generic.is_empty() && wp.kernels.is_empty() && wp.maps.is_empty());
        assert_eq!(wp.exprs.len(), 10, "identical arguments share a kernel");
        assert!(!wp.needs_view);
    }

    #[test]
    fn expression_overflow_is_the_interpreters_typed_error() {
        use BinaryOp::*;
        let big = |b: i64| {
            Row::new(vec![
                Value::string("k1"),
                Value::Timestamp(1_000),
                Value::Int(2),
                Value::Bigint(b),
                Value::Float(0.0),
                Value::Double(0.0),
                Value::Null,
            ])
        };
        for (op, rhs) in [
            (Add, col(3)),
            (Mul, col(2)),
            (Sub, lit(Value::Bigint(i64::MIN))),
        ] {
            let aggs = vec![agg("sum", 3, 0), agg_of("sum", vec![bin(op, col(3), rhs)])];
            // In a stored row, and in the request row.
            for (rows, request) in [
                (vec![row(1), big(i64::MAX), row(2)], None),
                (vec![row(1)], Some(big(i64::MAX))),
            ] {
                let (expected, got) = try_fold_both(&aggs, &rows, request.as_ref());
                let (e, g) = (
                    expected.expect_err("overflows"),
                    got.expect_err("overflows"),
                );
                assert_eq!(e, g);
                assert!(e.to_string().contains("integer overflow in"), "{e}");
            }
        }
        // i64::MIN % -1 overflows too; a zero divisor stays NULL.
        let aggs = vec![agg_of(
            "count",
            vec![bin(Mod, col(3), lit(Value::Bigint(-1)))],
        )];
        let (expected, got) = try_fold_both(&aggs, &[big(i64::MIN)], None);
        assert_eq!(
            expected.expect_err("overflows"),
            got.expect_err("overflows")
        );
    }

    #[test]
    fn count_map_kernels_match_interpreted_projection_order() {
        let topn = |c: usize, n: i64| agg_of("topn_frequency", vec![col(c), lit(Value::Bigint(n))]);
        let aggs = vec![
            agg_of("distinct_count", vec![col(2)]),
            agg_of("distinct_count", vec![col(3)]),
            agg_of("distinct_count", vec![col(4)]),
            agg_of("distinct_count", vec![col(5)]),
            agg_of("distinct_count", vec![col(6)]),
            agg_of("distinct_count", vec![col(1)]),
            topn(6, 2),
            topn(6, 100),
            topn(6, 0),
            topn(6, -3),
            topn(2, 3),
            topn(4, 2),
            topn(5, 4),
            topn(1, 1),
        ];
        let mut rows = edge_rows();
        rows.extend((8..60).map(row));
        // Request strings: one already in the arena, one only in the request.
        for s in ["apple", "only-in-request"] {
            let mut request = row(61).values().to_vec();
            request[6] = Value::string(s);
            let request = Row::new(request);
            let (expected, got) = fold_both(&aggs, &rows, Some(&request));
            assert_bit_identical(&expected, &got);
        }
        // Request row alone; empty window.
        let (expected, got) = fold_both(&aggs, &[], Some(&row(4)));
        assert_bit_identical(&expected, &got);
        let (expected, got) = fold_both(&aggs, &[], None);
        assert_bit_identical(&expected, &got);

        // One map per column, shared by every projection of it.
        let codec = CompactCodec::new(schema());
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
        assert_eq!(wp.maps.len(), 6);
        assert!(wp.generic.is_empty());
    }

    #[test]
    fn generic_kernels_run_everything_else_inside_the_program() {
        use BinaryOp::*;
        let positive = bin(Gt, col(2), lit(Value::Bigint(0)));
        let aggs = vec![
            agg_of("count_where", vec![col(5), positive.clone()]),
            agg_of("avg_cate_where", vec![col(5), positive.clone(), col(6)]),
            agg_of("median", vec![col(5)]),
            agg_of("top", vec![col(3), lit(Value::Bigint(3))]),
            agg_of("drawdown", vec![col(5)]),
            agg_of("ew_avg", vec![col(5), lit(Value::Double(0.5))]),
            // Projection functions over non-lowerable arguments keep the
            // interpreter's SharedNumeric semantics (and share one slot).
            agg_of(
                "sum",
                vec![PhysExpr::ScalarCall {
                    func: lookup("abs").expect("builtin"),
                    args: vec![col(2)],
                }],
            ),
            agg_of(
                "max",
                vec![PhysExpr::ScalarCall {
                    func: lookup("abs").expect("builtin"),
                    args: vec![col(2)],
                }],
            ),
            agg_of("count", vec![lit(Value::Bigint(1))]),
            agg_of(
                "distinct_count",
                vec![bin(Mul, col(2), lit(Value::Bigint(2)))],
            ),
            // Mixed in: one kernel of each other family.
            agg("sum", 3, 0),
            agg_of("avg", vec![bin(Mul, col(5), lit(Value::Double(2.0)))]),
            agg_of("distinct_count", vec![col(6)]),
        ];
        let rows: Vec<Row> = (0..50).map(row).collect();
        let (expected, got) = fold_both(&aggs, &rows, Some(&row(51)));
        assert_bit_identical(&expected, &got);

        let codec = CompactCodec::new(schema());
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
        assert_eq!(wp.generic.len(), 10);
        assert_eq!((wp.kernels.len(), wp.exprs.len(), wp.maps.len()), (1, 1, 1));
        assert!(wp.needs_view && wp.extended);
    }

    #[test]
    fn first_failing_slot_owns_the_error_across_families() {
        use BinaryOp::*;
        // Both fail on the same row: `sum_where` trips on a STRING condition,
        // the expression kernel overflows. The interpreter reports whichever
        // aggregate is bound first.
        let type_error = agg_of("sum_where", vec![col(3), col(6)]);
        let overflow = agg_of("sum", vec![bin(Mul, col(3), col(3))]);
        let rows = vec![Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(1_000),
            Value::Int(1),
            Value::Bigint(i64::MAX),
            Value::Float(0.0),
            Value::Double(0.0),
            Value::string("not-a-bool"),
        ])];
        // A generic aggregate that does not fail, bound before both.
        let fine = agg_of("median", vec![col(5)]);
        for aggs in [
            vec![type_error.clone(), overflow.clone()],
            vec![overflow.clone(), type_error.clone()],
            vec![fine, overflow.clone(), type_error.clone()],
        ] {
            for (rows, request) in [(rows.clone(), None), (vec![], Some(rows[0].clone()))] {
                let (expected, got) = try_fold_both(&aggs, &rows, request.as_ref());
                assert_eq!(expected.expect_err("fails"), got.expect_err("fails"));
            }
        }
    }

    #[test]
    fn only_plans_the_interpreter_rejects_fail_to_compile() {
        let codec = CompactCodec::new(schema());
        let w = window();
        // `topn_frequency`'s N must be a literal: `WindowAggSet::new` rejects
        // it, so the window is refused with that reason.
        let a = agg_of("topn_frequency", vec![col(6), col(2)]);
        let err = WindowProgram::compile(&w, &[&a], &codec).expect_err("rejected");
        assert!(err.contains("constant literal"), "{err}");
        let refs = [&a];
        assert!(WindowAggSet::new(&refs).is_err());
        // String sums compile (generic family) and fail at run time with
        // the interpreter's own type error.
        let a = agg("sum", 6, 0);
        let (expected, got) = try_fold_both(&[a], &[row(1)], None);
        assert_eq!(
            expected.expect_err("type error"),
            got.expect_err("type error")
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 96 })]

        /// Hostile stored bytes through the only reader a served window has:
        /// a truncated, bit-flipped or length-patched encoded row, sitting in
        /// the arena between two intact ones (an over-read would land in a
        /// neighbour), through one program per kernel family. `run` answers
        /// with a value or a typed error — a truncated or mis-declared
        /// length always with the error — and never panics.
        #[test]
        fn hostile_row_bytes_are_a_typed_error_or_a_value(
            seed in 0i64..40,
            mutation in 0u8..3,
            at in 0usize..4096,
            bit in 0u8..8,
            patch in 1u32..u32::MAX,
        ) {
            use BinaryOp::*;
            let codec = CompactCodec::new(schema());
            let good = codec.encode(&row(seed)).expect("encode");
            let mut bad = good.clone();
            match mutation {
                0 => bad.truncate(at % good.len()),
                1 => bad[at % good.len()] ^= 1 << bit,
                _ => {
                    let declared = (good.len() as u32).wrapping_add(patch);
                    bad[2..6].copy_from_slice(&declared.to_le_bytes());
                }
            }
            let mut arena = Vec::new();
            let mut entries = Vec::new();
            for (seq, bytes) in [&good, &bad, &good].into_iter().enumerate() {
                entries.push(ScanEntry {
                    ts: 1_000 + seq as i64,
                    seq,
                    start: arena.len(),
                    len: bytes.len(),
                });
                arena.extend_from_slice(bytes);
            }
            let newest_first: Vec<ScanEntry> = entries.iter().rev().copied().collect();
            let families = [
                vec![agg("sum", 3, 0), agg("min", 2, 0), agg("avg", 5, 0), agg("max", 4, 0)],
                vec![agg_of("sum", vec![bin(Mul, col(3), col(2))]), agg_of("avg", vec![bin(Div, col(5), col(4))])],
                vec![agg("distinct_count", 6, 0), agg_of("topn_frequency", vec![col(3), lit(Value::Int(2))])],
                vec![agg_of("median", vec![col(5)]), agg_of("count_where", vec![col(6), bin(Gt, col(2), lit(Value::Int(0)))])],
                vec![agg("min", 6, 0), agg("max", 6, 0)],
            ];
            let w = window();
            for aggs in &families {
                let refs: Vec<&BoundAggregate> = aggs.iter().collect();
                let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
                let orders = [
                    (EntryOrder::Ascending, &entries),
                    (EntryOrder::ReversedScan, &newest_first),
                ];
                for (order, entries) in orders {
                    let mut state = wp.new_state();
                    let mut out = Vec::new();
                    let answer = wp
                        .run(&mut state, entries, 0, order, &arena, None, &codec, &mut || Ok(()))
                        .and_then(|()| wp.outputs_into(&state, &arena, None, &mut out));
                    match answer {
                        Ok(()) => {
                            proptest::prop_assert_eq!(out.len(), aggs.len());
                            proptest::prop_assert!(mutation == 1, "accepted {:?}", bad);
                        }
                        Err(e) => proptest::prop_assert!(
                            matches!(e, Error::Codec(_) | Error::Eval(_) | Error::Type { .. }),
                            "{e:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn a_state_of_another_program_is_refused() {
        let codec = CompactCodec::new(schema());
        let w = window();
        let a = [agg_of("median", vec![col(5)])];
        let b = [agg("sum", 3, 0)];
        let wa = WindowProgram::compile(&w, &a.iter().collect::<Vec<_>>(), &codec).expect("a");
        let wb = WindowProgram::compile(&w, &b.iter().collect::<Vec<_>>(), &codec).expect("b");
        let request = row(3);
        let err = wb
            .run(
                &mut wa.new_state(),
                &[],
                0,
                EntryOrder::Ascending,
                &[],
                Some(request.values()),
                &codec,
                &mut || Ok(()),
            )
            .expect_err("mismatch");
        assert_eq!(err, generic_state_mismatch());
    }

    // -- expression programs ------------------------------------------------

    fn check_expr(e: &PhysExpr, row: &[Value], aggs: &[Value]) {
        let p = ExprProgram::compile(e).expect("compiles");
        let mut stack = Vec::new();
        let got = p.eval(row, aggs, &mut stack);
        let want = evaluate(e, row, aggs);
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(w, g);
                assert_eq!(w.data_type(), g.data_type());
            }
            (Err(_), Err(_)) => {}
            _ => panic!("diverged: {want:?} vs {got:?}"),
        }
    }

    #[test]
    fn expr_program_matches_interpreter() {
        use BinaryOp::*;
        let row = vec![
            Value::Bigint(10),
            Value::Null,
            Value::Double(4.5),
            Value::string("abc"),
            Value::Bool(true),
        ];
        let aggs = vec![Value::Bigint(41), Value::Double(2.5)];
        let col = |i: usize| PhysExpr::Column(i);
        let lit = |v: Value| PhysExpr::Literal(v);
        let bin = |op, l: PhysExpr, r: PhysExpr| PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let cases: Vec<PhysExpr> = vec![
            bin(Add, col(0), lit(Value::Bigint(5))),
            bin(Add, col(0), col(1)),
            bin(Mul, col(0), col(2)),
            bin(Div, col(0), lit(Value::Bigint(0))),
            bin(Mod, col(0), lit(Value::Bigint(0))),
            bin(Lt, col(0), col(2)),
            bin(Eq, col(3), lit(Value::string("abc"))),
            bin(And, col(4), bin(Gt, col(0), lit(Value::Bigint(3)))),
            bin(And, lit(Value::Bool(false)), bin(Div, col(0), col(1))),
            bin(Or, col(4), bin(Div, col(0), col(1))),
            PhysExpr::Not(Box::new(col(4))),
            PhysExpr::IsNull {
                expr: Box::new(col(1)),
                negated: false,
            },
            PhysExpr::IsNull {
                expr: Box::new(col(0)),
                negated: true,
            },
            bin(Add, PhysExpr::AggRef(0), lit(Value::Bigint(1))),
            bin(Mul, PhysExpr::AggRef(1), col(2)),
            PhysExpr::AggRef(7), // out of bounds: both must error
            PhysExpr::Case {
                branches: vec![
                    (
                        bin(Gt, col(0), lit(Value::Bigint(100))),
                        lit(Value::string("big")),
                    ),
                    (
                        bin(Gt, col(0), lit(Value::Bigint(5))),
                        lit(Value::string("mid")),
                    ),
                ],
                else_expr: Some(Box::new(lit(Value::string("small")))),
            },
            PhysExpr::Case {
                branches: vec![(bin(Lt, col(0), lit(Value::Bigint(0))), col(2))],
                else_expr: None,
            },
        ];
        for e in &cases {
            check_expr(e, &row, &aggs);
        }
    }

    #[test]
    fn expr_program_dispatches_scalar_calls_and_folds_constants() {
        let abs = PhysExpr::ScalarCall {
            func: lookup("abs").expect("builtin"),
            args: vec![PhysExpr::Column(0)],
        };
        check_expr(&abs, &[Value::Bigint(-7)], &[]);

        // A fully constant subtree folds to a single Const instruction.
        let folded = PhysExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(PhysExpr::ScalarCall {
                func: lookup("abs").expect("builtin"),
                args: vec![PhysExpr::Literal(Value::Bigint(-4))],
            }),
            right: Box::new(PhysExpr::Literal(Value::Bigint(2))),
        };
        let p = ExprProgram::compile(&folded).expect("compiles");
        assert_eq!(p.len(), 1, "constant subtree should fold: {p:?}");
        let mut stack = Vec::new();
        assert_eq!(
            p.eval(&[], &[], &mut stack).expect("eval"),
            Value::Bigint(6)
        );

        // Constant folding must not swallow runtime errors: an overflowing
        // constant expression stays structural and errors at eval time.
        let overflow = PhysExpr::Binary {
            op: BinaryOp::Mul,
            left: Box::new(PhysExpr::Literal(Value::Bigint(i64::MAX))),
            right: Box::new(PhysExpr::Literal(Value::Bigint(2))),
        };
        let p = ExprProgram::compile(&overflow).expect("compiles");
        assert!(p.eval(&[], &[], &mut stack).is_err());
    }

    #[test]
    fn request_only_window_and_request_string_extrema() {
        let aggs = vec![agg("min", 6, 0), agg("max", 6, 0), agg("count", 6, 0)];
        // Request's string is both the min and max (only non-null value).
        let rows = vec![Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(999),
            Value::Int(1),
            Value::Bigint(1),
            Value::Float(1.0),
            Value::Double(1.0),
            Value::Null,
        ])];
        let request = Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(1_000),
            Value::Int(2),
            Value::Bigint(2),
            Value::Float(2.0),
            Value::Double(2.0),
            Value::string("middle"),
        ]);
        let (expected, got) = fold_both(&aggs, &rows, Some(&request));
        assert_bit_identical(&expected, &got);
    }

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

    #[test]
    fn request_row_marker_sorts_last_invariant() {
        // The sort-skip relies on the request marker (ts == anchor >= all
        // stored ts, max seq) sorting last; pin that ordering here.
        let mut entries = [
            ScanEntry {
                ts: 10,
                seq: 0,
                start: 0,
                len: 4,
            },
            ScanEntry {
                ts: 10,
                seq: 2,
                start: 0,
                len: REQUEST_ROW,
            },
            ScanEntry {
                ts: 9,
                seq: 1,
                start: 4,
                len: 4,
            },
        ];
        entries.sort_unstable_by_key(|e| (e.ts, e.seq));
        assert!(entries[2].is_request_row());
    }
}
