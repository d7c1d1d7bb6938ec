//! Family 2 — expression kernels: the column kernels' functions over
//! `+ - * / %` trees of fixed-width numeric columns and literals, lowered to
//! a small typed register program ([`ArithOp`]) read straight from the
//! encoded bytes. Its result registers feed the one loop that steps a
//! [`KernelState`] ([`Track::fold`]), as a column kernel's fields do.
//!
//! The contract: [`ExprKernel::eval_block`] a block of rows, op by op (the
//! encoded request row is the last row of the last block), and
//! [`ExprKernel::project_into`] the bound projections. There is no retract:
//! an argument can fail on a row with the interpreter's typed overflow
//! error, and the sweep re-folds every expression kernel.
//!
//! Kernels whose programs cannot fail or yield NULL on a validated row —
//! FLOAT/DOUBLE loads, f64 constants, `+ - *`, an f64 sum-family fold with
//! no `min`/`max` — fold as lanes. A bare FLOAT or DOUBLE column kernel of
//! that kind has the one-load shape `[Load(class)]`
//! ([`ExprKernel::of_column`]). One carve at compile time ([`carve`])
//! groups them by shape — the same ops, constant bits and load classes,
//! whatever columns they load — and every shape of two or more members
//! becomes one [`ExprLane`]. A lane steps a row over all its members
//! ([`ExprLane::eval_row`]): a clean row of a one-load shape adds its
//! fields straight from the row's bytes, any other runs the ops
//! member-wise. A shape of one member stays a kernel: the lane spreads an
//! op's dispatch over its members, the kernel over a block of rows. Each
//! member runs its kernel's IEEE ops in the same order on the same rows, so
//! every answer is the one its own kernel gives.

use openmldb_sql::plan::PhysExpr;
use openmldb_sql::BinaryOp;
use openmldb_types::{CompactCodec, Error, Result, Value};

use super::column::{project_sums, KernelSpec, KernelState, Source, Track};
use super::field::{
    binding_out_of_bounds, integer_overflow, lane_index, FieldRef, Fixed, KernelClass,
};
use super::fold::{Binding, BLOCK};
use crate::window::Projection;

/// One typed register of an expression kernel: raw `i64`/`f64` bits plus
/// the SQL NULL flag.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Reg {
    bits: u64,
    null: bool,
}

pub(super) const NULL_REG: Reg = Reg {
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
pub(super) enum ArithOp {
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

/// `f` over two f64 registers, NULL if either is. Branch-free, so a block
/// of rows runs as one straight loop: a NULL register's bits are never read
/// (every reader tests the flag first), so computing through them is
/// harmless.
#[inline(always)]
fn float_op(a: Reg, b: Reg, f: impl FnOnce(f64, f64) -> f64) -> Reg {
    Reg {
        bits: f(a.f(), b.f()).to_bits(),
        null: a.null | b.null,
    }
}

/// A register's rows as the evaluator reads an operand it does not hold:
/// all NULL.
static NULL_BLOCK: [Reg; BLOCK] = [NULL_REG; BLOCK];

/// Rows `..n` of register `r` in the op-major register file.
#[inline(always)]
fn rows_of(regs: &[Reg], r: u16, n: usize) -> &[Reg] {
    let at = r as usize * BLOCK;
    (regs.get(at..).and_then(|rows| rows.get(..n)))
        .or_else(|| NULL_BLOCK.get(..n))
        .unwrap_or(&[])
}

/// `out[j] = f(j)` over the rows, stopping at the first row `f` fails on.
#[inline(always)]
fn fill(out: &mut [Reg], mut f: impl FnMut(usize) -> Result<Reg>) -> Option<(usize, Error)> {
    for (j, o) in out.iter_mut().enumerate() {
        match f(j) {
            Ok(r) => *o = r,
            Err(e) => return Some((j, e)),
        }
    }
    None
}

/// `out[j] = f(a[j], b[j])` over the rows, stopping at the first row `f`
/// fails on.
#[inline(always)]
fn zip_rows(
    out: &mut [Reg],
    a: &[Reg],
    b: &[Reg],
    f: impl Fn(Reg, Reg) -> Result<Reg>,
) -> Option<(usize, Error)> {
    for (j, (o, (&x, &y))) in out.iter_mut().zip(a.iter().zip(b)).enumerate() {
        match f(x, y) {
            Ok(r) => *o = r,
            Err(e) => return Some((j, e)),
        }
    }
    None
}

// HOT: the expression kernels' evaluator — one block of up to `BLOCK` rows,
// op by op: each instruction's match is paid once per block and its rows
// run as one straight loop over op-major registers (register `i`'s rows at
// `regs[i * BLOCK..]`), column reads straight from the encoded bytes.
// Replicates `eval::binary` exactly: NULL propagation before any
// arithmetic, checked integer ops with the same typed overflow error, NULL
// on `/0` and `%0`, f64 otherwise. A row's error is the one the tree walk's
// left-to-right post-order meets first: once an op fails on row `j`, later
// ops run only the rows before it, so an earlier row's error — from any op —
// still wins. Returns how many leading rows evaluated, and the error of the
// next.
// Registers are reached through checked slice accessors only and integer
// arithmetic is `checked_*`.
#[inline(always)]
fn eval_ops(
    ops: &[ArithOp],
    regs: &mut [Reg],
    n: usize,
    load: impl Fn(&FieldRef, usize) -> Result<Option<Fixed>>,
) -> (usize, Option<Error>) {
    let (mut end, mut err) = (n.min(BLOCK), None);
    for (i, op) in ops.iter().enumerate() {
        let Some((done, rest)) = regs.split_at_mut_checked(i * BLOCK) else {
            break;
        };
        let Some(out) = rest.get_mut(..end) else {
            break;
        };
        let rows = |r: u16| rows_of(done, r, end);
        let failed = match *op {
            ArithOp::Load(ref field) => fill(out, |j| {
                Ok(match load(field, j)? {
                    None => NULL_REG,
                    Some(Fixed::Int(v)) => Reg::int(v),
                    Some(Fixed::Float(v)) => Reg::float(v as f64),
                    Some(Fixed::Double(v)) => Reg::float(v),
                })
            }),
            ArithOp::ConstI(v) => {
                out.fill(Reg::int(v));
                None
            }
            ArithOp::ConstF(v) => {
                out.fill(Reg::float(v));
                None
            }
            ArithOp::ToF(a) => zip_rows(out, rows(a), rows(a), |a, _| {
                Ok(if a.null {
                    NULL_REG
                } else {
                    Reg::float(a.i() as f64)
                })
            }),
            ArithOp::AddI(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                int_op(a, b, BinaryOp::Add, i64::checked_add)
            }),
            ArithOp::SubI(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                int_op(a, b, BinaryOp::Sub, i64::checked_sub)
            }),
            ArithOp::MulI(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                int_op(a, b, BinaryOp::Mul, i64::checked_mul)
            }),
            ArithOp::ModI(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                if b.null || b.i() == 0 {
                    Ok(NULL_REG)
                } else {
                    int_op(a, b, BinaryOp::Mod, i64::checked_rem)
                }
            }),
            ArithOp::AddF(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                Ok(float_op(a, b, |x, y| x + y))
            }),
            ArithOp::SubF(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                Ok(float_op(a, b, |x, y| x - y))
            }),
            ArithOp::MulF(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                Ok(float_op(a, b, |x, y| x * y))
            }),
            ArithOp::ModF(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                Ok(float_op(a, b, |x, y| x % y))
            }),
            ArithOp::DivF(a, b) => zip_rows(out, rows(a), rows(b), |a, b| {
                let r = float_op(a, b, |x, y| x / y);
                Ok(Reg {
                    null: r.null | (b.f() == 0.0),
                    ..r
                })
            }),
        };
        if let Some((j, e)) = failed {
            (end, err) = (j, Some(e));
        }
    }
    (end, err)
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

/// One expression kernel: an aggregate argument lowered to a register
/// program whose result the column kernels' fold steps ([`Track::fold`]).
#[derive(Debug, Clone)]
pub(super) struct ExprKernel {
    /// The argument expression: kernel identity, so aggregates over equal
    /// arguments share one evaluation per row (cyclic binding).
    pub(super) expr: PhysExpr,
    pub(super) ops: Vec<ArithOp>,
    /// The register holding the argument's value.
    result: u16,
    /// Result type: integer (the interpreter's `Value::Bigint`) or f64
    /// (`Value::Double`).
    int: bool,
    track: Track,
    /// How many generic aggregates were bound before the first aggregate
    /// bound here — decides which error surfaces when one row trips several
    /// fallible kernels (the interpreter reports the first slot's).
    pub(super) generic_before: usize,
}

impl ExprKernel {
    /// Lower `e` over `codec`'s rows, or decline (`None`) when it leaves the
    /// `+ - * / %` over fixed-width numeric columns and literals subset.
    pub(super) fn lower(
        codec: &CompactCodec,
        e: &PhysExpr,
        generic_before: usize,
    ) -> Option<ExprKernel> {
        let mut c = ArithCompiler {
            codec,
            ops: Vec::new(),
        };
        let (result, int) = c.lower(e)?;
        Some(ExprKernel {
            expr: e.clone(),
            ops: c.ops,
            result,
            int,
            track: Track::default(),
            generic_before,
        })
    }

    /// Bind one more projection of this expression to the kernel.
    pub(super) fn note(&mut self, proj: Projection) {
        self.track.note(self.class(), proj);
    }

    #[inline]
    fn class(&self) -> KernelClass {
        if self.int {
            KernelClass::Bigint
        } else {
            KernelClass::Double
        }
    }

    /// Step `n` rows (at most [`BLOCK`]) into `st`: evaluate the program
    /// op by op over the op-major register file `regs`, `load(field, j)`
    /// reading row `j`'s field, then fold the result register's rows in row
    /// order. A failing row is `Err` with its index; the rows before it are
    /// folded.
    #[inline(always)]
    pub(super) fn eval_block(
        &self,
        st: &mut KernelState,
        regs: &mut [Reg],
        n: usize,
        load: impl Fn(&FieldRef, usize) -> Result<Option<Fixed>>,
    ) -> std::result::Result<(), (usize, Error)> {
        let (end, err) = eval_ops(&self.ops, regs, n, load);
        let results = rows_of(regs, self.result, end);
        match self.int {
            true => self.track.fold(st, &Results(results, Reg::i))?,
            false => self.track.fold(st, &Results(results, Reg::f))?,
        }
        match err {
            Some(e) => Err((end, e)),
            None => Ok(()),
        }
    }

    /// Push projection `proj` of `st`.
    #[inline(always)]
    pub(super) fn project_into(
        &self,
        st: &KernelState,
        proj: Projection,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        st.project(self.class(), proj, None, out)
    }

    /// Whether this kernel may fold in an [`ExprLane`]: its program only
    /// loads FLOAT/DOUBLE columns, reads f64 constants and adds, subtracts
    /// or multiplies, and no extremum is bound to it.
    fn laned(&self) -> bool {
        use ArithOp::{AddF, ConstF, Load, MulF, SubF};
        let float = |f: &FieldRef| matches!(f.class, KernelClass::Float | KernelClass::Double);
        let infallible = |op: &ArithOp| match op {
            Load(f) => float(f),
            op => matches!(op, ConstF(_) | AddF(..) | SubF(..) | MulF(..)),
        };
        !self.track.extrema() && self.ops.iter().all(infallible)
    }

    /// Column kernel `spec` as an expression kernel of the one-load shape
    /// `[Load(class)]`, when it may fold in a lane: an f64 sum over a FLOAT
    /// or DOUBLE column, with no extrema.
    fn of_column(spec: &KernelSpec) -> Option<ExprKernel> {
        let (field, track) = (spec.field, spec.track);
        let float = matches!(field.class, KernelClass::Float | KernelClass::Double);
        (float && track.float_sums && !track.extrema()).then(|| ExprKernel {
            expr: PhysExpr::Column(field.col),
            ops: vec![ArithOp::Load(field)],
            result: 0,
            int: false,
            track,
            generic_before: 0,
        })
    }
}

/// An expression kernel's result register over a block's rows, as the
/// kernel-state fold reads it: NULL, or its bits as `E` (`Reg::i` or
/// `Reg::f`).
struct Results<'a, F>(&'a [Reg], F);

impl<E, F: Fn(Reg) -> E> Source<E> for Results<'_, F> {
    type Row = Reg;

    #[inline(always)]
    fn rows(&self) -> &[Reg] {
        self.0
    }

    #[inline(always)]
    fn null(&self, r: Reg) -> bool {
        r.null
    }

    #[inline(always)]
    fn value(&self, r: Reg) -> Option<E> {
        Some((self.1)(r))
    }
}

/// Whether two programs are one shape: the same ops, constants (by bits)
/// and load classes, whatever columns they load.
fn same_shape(a: &[ArithOp], b: &[ArithOp]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (ArithOp::Load(f), ArithOp::Load(g)) => f.class == g.class,
            (ArithOp::ConstF(x), ArithOp::ConstF(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Kernels of one shape that cannot fail or yield NULL on a validated row,
/// folded as one struct-of-arrays lane: each op runs over every member at
/// once, its loads read run by run from the row's bytes, and the results
/// sum into a [`LaneState`] — a one-load shape's fields straight from the
/// row. A row where some member's input is NULL is evaluated the same way
/// and summed member by member.
#[derive(Debug, Clone)]
pub(super) struct ExprLane {
    /// The shape's program: op `i` writes register `i`, of member `m` at
    /// `i * members + m`; a constant is read as a scalar, never a register.
    pub(super) ops: Vec<ArithOp>,
    /// Per load of the program, its op and the members' fields.
    loads: Vec<(usize, LaneLoad)>,
    /// The register holding the argument's value.
    result: usize,
    pub(super) members: usize,
    /// Whether a member projects `stddev`.
    sum_sq: bool,
}

/// One load of an [`ExprLane`]'s program over its members' fields, all of
/// one class (FLOAT or DOUBLE).
#[derive(Debug, Clone)]
struct LaneLoad {
    class: KernelClass,
    /// Bytes one member's field takes.
    width: usize,
    /// The members' fields (a one-load lane's ascending by offset).
    fields: Vec<FieldRef>,
    /// Runs of members whose fields are adjacent: `(offset, first member,
    /// end member)`.
    runs: Vec<(usize, usize, usize)>,
    /// Where the members' fields end.
    end: usize,
    /// Each NULL-bitmap byte holding a member's bit, and the members' bits.
    nulls: Vec<(usize, u8)>,
}

/// A lane's running sums, one slot per member.
#[derive(Debug, Clone, Default)]
pub(super) struct LaneState {
    /// Rows where no member was NULL: counted once for every member.
    dense: u64,
    /// Per member, the other rows it read a value from.
    pub(super) count: Vec<u64>,
    pub(super) sum: Vec<f64>,
    /// Empty unless the lane keeps it.
    pub(super) sum_sq: Vec<f64>,
}

impl LaneState {
    pub(super) fn reset(&mut self) {
        self.dense = 0;
        self.count.fill(0);
        self.sum.fill(0.0);
        self.sum_sq.fill(0.0);
    }

    /// Step member `m` by `v`.
    #[inline(always)]
    fn add(&mut self, m: usize, v: f64) -> Result<()> {
        match (self.sum.get_mut(m), self.count.get_mut(m)) {
            (Some(s), Some(c)) => (*s, *c) = (*s + v, *c + 1),
            _ => return Err(binding_out_of_bounds()),
        }
        if let Some(q) = self.sum_sq.get_mut(m) {
            *q += v * v;
        }
        Ok(())
    }

    /// Push projection `proj` of member `m`.
    #[inline(always)]
    pub(super) fn project_member(
        &self,
        m: usize,
        proj: Projection,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let (Some(&count), Some(&sum)) = (self.count.get(m), self.sum.get(m)) else {
            return Err(binding_out_of_bounds());
        };
        let sum_sq = self.sum_sq.get(m).copied().unwrap_or(0.0);
        project_sums(self.dense + count, sum, sum_sq, proj, out);
        Ok(())
    }
}

/// `sums[m] += v`, and `sqs[m] += v * v` when kept, over one run's fields
/// (or a lane's results), `v` the `value` of each.
#[inline(always)]
fn fold_run<T: Copy>(
    sums: &mut [f64],
    sqs: Option<&mut [f64]>,
    fields: &[T],
    value: impl Fn(T) -> f64,
) {
    // A run of one member (a field gathered by its offset) is one read,
    // without the loops' set-up.
    if let ([s], [b]) = (&mut *sums, fields) {
        let v = value(*b);
        *s += v;
        if let Some([q]) = sqs {
            *q += v * v;
        }
        return;
    }
    for (s, b) in sums.iter_mut().zip(fields) {
        *s += value(*b);
    }
    for (q, b) in sqs.into_iter().flatten().zip(fields) {
        let v = value(*b);
        *q += v * v;
    }
}

/// `out[m] = field[m]` over one run's fields, `W` bytes each.
#[inline(always)]
fn load_run<const W: usize>(out: &mut [f64], bytes: &[u8], le_value: impl Fn([u8; W]) -> f64) {
    for (o, b) in out.iter_mut().zip(bytes.as_chunks::<W>().0) {
        *o = le_value(*b);
    }
}

/// A kernel a lane may take, as an expression kernel: column kernel `k`
/// (`expr` false) of the one-load shape, or expression kernel `k`.
type Laned = (bool, usize, ExprKernel);

/// Group the kernels a lane may take by shape — the column kernels of the
/// one-load shape ([`ExprKernel::of_column`]) in field order, so adjacent
/// columns form runs, then the expression kernels in kernel order — and
/// move every group of two or more into one [`ExprLane`], re-pointing their
/// bindings; every other kernel keeps its place, in order. A shape with one
/// member stays a kernel: the kernel spreads an op's dispatch over a block
/// of rows, the lane over its members.
pub(super) fn carve(
    kernels: &mut Vec<KernelSpec>,
    exprs: &mut Vec<ExprKernel>,
    bindings: &mut [Binding],
) -> Result<Vec<ExprLane>> {
    let mut columns: Vec<_> = kernels.iter().enumerate().collect();
    columns.sort_by_key(|(_, spec)| spec.field.at);
    let columns = columns.into_iter();
    let columns = columns.filter_map(|(k, spec)| Some((false, k, ExprKernel::of_column(spec)?)));
    let laned = exprs.iter().enumerate().filter(|(_, e)| e.laned());
    let laned = laned.map(|(k, e)| (true, k, e.clone()));
    let mut groups: Vec<Vec<Laned>> = Vec::new();
    for s in columns.chain(laned) {
        let shape = |h: &Laned| same_shape(&h.2.ops, &s.2.ops);
        match (groups.iter_mut()).find(|g| g.first().is_some_and(shape)) {
            Some(group) => group.push(s),
            None => groups.push(vec![s]),
        }
    }
    groups.retain(|g| g.len() > 1);
    let lane_of = |expr: bool, k: usize| {
        let mut lanes = groups.iter().enumerate();
        lanes.find_map(|(l, g)| Some((l, g.iter().position(|s| (s.0, s.1) == (expr, k))?)))
    };
    for b in bindings.iter_mut() {
        let (expr, k, proj) = match b {
            Binding::Column { k, proj } => (false, k, *proj),
            Binding::Expr { k, proj } => (true, k, *proj),
            _ => continue,
        };
        match lane_of(expr, *k) {
            Some((l, m)) => {
                let l = lane_index(l)?;
                *b = Binding::Lane { l, m, proj };
            }
            None => {
                let before = |s: &&Laned| s.0 == expr && s.1 < *k;
                *k -= groups.iter().flatten().filter(before).count();
            }
        }
    }
    let mut k = 0..;
    kernels.retain(|_| k.next().is_some_and(|k| lane_of(false, k).is_none()));
    let mut k = 0..;
    exprs.retain(|_| k.next().is_some_and(|k| lane_of(true, k).is_none()));
    Ok(groups.iter().map(|g| ExprLane::of(g)).collect())
}

impl ExprLane {
    /// The lane of `members`, all of one shape.
    fn of(members: &[Laned]) -> ExprLane {
        let head = members.first().map_or(&[][..], |s| s.2.ops.as_slice());
        let field = |ops: &[ArithOp], i: usize| match ops.get(i) {
            Some(ArithOp::Load(f)) => Some(*f),
            _ => None,
        };
        let loads = (0..head.len()).filter_map(|i| {
            let fields = members.iter().filter_map(|s| field(&s.2.ops, i));
            Some((i, LaneLoad::of(field(head, i)?.class, fields)))
        });
        ExprLane {
            ops: head.to_vec(),
            loads: loads.collect(),
            result: members.first().map_or(0, |s| usize::from(s.2.result)),
            members: members.len(),
            sum_sq: members.iter().any(|s| s.2.track.sum_sq),
        }
    }

    pub(super) fn new_state(&self) -> LaneState {
        let n = self.members;
        LaneState {
            dense: 0,
            count: vec![0; n],
            sum: vec![0.0; n],
            sum_sq: vec![0.0; if self.sum_sq { n } else { 0 }],
        }
    }

    /// The members' fields, and whether the lane keeps the sum of squares,
    /// when the lane has a one-load shape: bare columns, which the offline
    /// sweep folds from columns.
    pub(super) fn column(&self) -> Option<(&[FieldRef], bool)> {
        match (self.ops.as_slice(), self.loads.as_slice()) {
            ([_], [(_, load)]) => Some((&load.fields, self.sum_sq)),
            _ => None,
        }
    }

    // HOT: the lane loop — one bitmap test; a one-load shape then adds each
    // run of adjacent fields straight from the row's bytes (`sum[m] +=
    // field[m]`), and any other shape reads each load with one straight
    // loop per run, runs each op as one straight loop over the members (a
    // constant operand a scalar), then adds `sum[m] += r[m]`. A row with a
    // NULL input, or too short for a field (a typed error), reads field by
    // field and sums the members whose inputs are all set. Every member
    // runs the IEEE ops of its own kernel in the same order on the same
    // rows, so its sums are that kernel's, bit for bit.
    #[inline(never)]
    pub(super) fn eval_row(&self, st: &mut LaneState, regs: &mut [f64], buf: &[u8]) -> Result<()> {
        let (n, clean) = (self.members, self.loads.iter().all(|(_, l)| l.clean(buf)));
        if let ([_], [(_, load)], true) = (self.ops.as_slice(), self.loads.as_slice(), clean) {
            for &(at, first, end) in &load.runs {
                let bytes = buf.get(at..at + (end - first) * load.width);
                let (Some(bytes), Some(sums)) = (bytes, st.sum.get_mut(first..end)) else {
                    return Err(binding_out_of_bounds());
                };
                let sqs = st.sum_sq.get_mut(first..end);
                match load.class {
                    KernelClass::Float => fold_run(sums, sqs, bytes.as_chunks().0, |b| {
                        f32::from_le_bytes(b) as f64
                    }),
                    _ => fold_run(sums, sqs, bytes.as_chunks().0, f64::from_le_bytes),
                }
            }
            st.dense += 1;
            return Ok(());
        }
        for (i, load) in &self.loads {
            let out = (regs.get_mut(i * n..i * n + n)).ok_or_else(binding_out_of_bounds)?;
            if clean {
                load.read_into(buf, out)?;
                continue;
            }
            // A NULL field reads as 0.0: its member is not summed.
            for (r, f) in out.iter_mut().zip(&load.fields) {
                *r = f.stored(buf)?.map_or(0.0, Fixed::as_f64);
            }
        }
        self.run_ops(regs)?;
        let values = regs.get(self.result * n..self.result * n + n);
        let values = values.ok_or_else(binding_out_of_bounds)?;
        if clean {
            fold_run(&mut st.sum, Some(&mut st.sum_sq), values, |v| v);
            st.dense += 1;
            return Ok(());
        }
        for m in 0..n {
            let set = |(_, l): &(usize, LaneLoad)| l.fields.get(m).is_some_and(|f| !f.null_in(buf));
            if let Some(&v) = values.get(m).filter(|_| self.loads.iter().all(set)) {
                st.add(m, v)?;
            }
        }
        Ok(())
    }

    /// Run the arithmetic ops over every member, op by op.
    #[inline(always)]
    fn run_ops(&self, regs: &mut [f64]) -> Result<()> {
        let n = self.members;
        for (i, op) in self.ops.iter().enumerate() {
            let (ArithOp::AddF(a, b) | ArithOp::SubF(a, b) | ArithOp::MulF(a, b)) = *op else {
                continue;
            };
            let Some((done, rest)) = regs.split_at_mut_checked(i * n) else {
                return Err(binding_out_of_bounds());
            };
            let arg = |r: u16| match (self.ops.get(usize::from(r)), usize::from(r) * n) {
                (Some(ArithOp::ConstF(c)), _) => Some(Arg::Const(*c)),
                (_, at) => done.get(at..at + n).map(Arg::Regs),
            };
            let (Some(out), Some(a), Some(b)) = (rest.get_mut(..n), arg(a), arg(b)) else {
                return Err(binding_out_of_bounds());
            };
            match op {
                ArithOp::AddF(..) => apply(out, a, b, |x, y| x + y),
                ArithOp::SubF(..) => apply(out, a, b, |x, y| x - y),
                _ => apply(out, a, b, |x, y| x * y),
            }
        }
        Ok(())
    }
}

/// An op's operand over the members.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Regs(&'a [f64]),
    Const(f64),
}

/// `out[m] = f(a[m], b[m])`: one straight loop, a constant operand read
/// once.
#[inline(always)]
fn apply(out: &mut [f64], a: Arg<'_>, b: Arg<'_>, f: impl Fn(f64, f64) -> f64) {
    use std::iter::repeat;
    match (a, b) {
        (Arg::Regs(a), Arg::Regs(b)) => each(out, a.iter().copied(), b.iter().copied(), f),
        (Arg::Regs(a), Arg::Const(c)) => each(out, a.iter().copied(), repeat(c), f),
        (Arg::Const(c), Arg::Regs(b)) => each(out, repeat(c), b.iter().copied(), f),
        (Arg::Const(x), Arg::Const(y)) => each(out, repeat(x), repeat(y), f),
    }
}

/// `out[m] = f(a[m], b[m])` over the members' operands.
#[inline(always)]
fn each(
    out: &mut [f64],
    a: impl Iterator<Item = f64>,
    b: impl Iterator<Item = f64>,
    f: impl Fn(f64, f64) -> f64,
) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

impl LaneLoad {
    /// The load of `fields`, all of `class`.
    fn of(class: KernelClass, fields: impl Iterator<Item = FieldRef>) -> LaneLoad {
        let width = if class == KernelClass::Float { 4 } else { 8 };
        let mut load = LaneLoad {
            class,
            width,
            fields: Vec::new(),
            runs: Vec::new(),
            end: 0,
            nulls: Vec::new(),
        };
        for f in fields {
            let m = load.fields.len();
            match load.runs.last_mut() {
                Some((at, first, end)) if *at + (m - *first) * width == f.at => *end = m + 1,
                _ => load.runs.push((f.at, m, m + 1)),
            }
            match load.nulls.iter_mut().find(|(at, _)| *at == f.null_byte) {
                Some((_, bits)) => *bits |= f.null_mask,
                None => load.nulls.push((f.null_byte, f.null_mask)),
            }
            load.end = load.end.max(f.at + width);
            load.fields.push(f);
        }
        load
    }

    /// Whether no member is NULL in row `buf` and every field lies in it.
    #[inline(always)]
    fn clean(&self, buf: &[u8]) -> bool {
        (self.nulls.iter()).all(|&(at, bits)| buf.get(at).is_some_and(|b| b & bits == 0))
            && buf.get(..self.end).is_some()
    }

    /// Each member's field of row `buf`, widened to f64, into `out`: one
    /// straight loop per run of a [`clean`](Self::clean) row.
    #[inline(always)]
    fn read_into(&self, buf: &[u8], out: &mut [f64]) -> Result<()> {
        for &(at, first, end) in &self.runs {
            let bytes = buf.get(at..at + (end - first) * self.width);
            let (Some(bytes), Some(out)) = (bytes, out.get_mut(first..end)) else {
                return Err(binding_out_of_bounds());
            };
            match self.class {
                KernelClass::Float => load_run(out, bytes, |b| f32::from_le_bytes(b) as f64),
                _ => load_run(out, bytes, f64::from_le_bytes),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::testkit::*;
    use crate::program::WindowProgram;
    use openmldb_sql::plan::BoundAggregate;
    use openmldb_types::Row;

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
        assert_eq!(expected, got);

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
                Value::Double(0.0),
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
}
