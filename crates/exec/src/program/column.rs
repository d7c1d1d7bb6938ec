//! Family 1 — column kernels: `sum/count/avg/min/max/stddev` over a bare
//! column, monomorphized by column type. The fold runs on `i64`/`f64`
//! running sums and extrema in plain machine words ([`KernelState`]), reading
//! each row's field at its baked offset; strings are byte ranges of the row
//! they were read from. A kernel keeps only the statistics its projections
//! bind ([`Track`]): the minimum and the maximum each only when bound.
//!
//! One loop steps a [`KernelState`] ([`Track::fold`]): a run of values of
//! one class, specialised by that class ([`Elem`]) and by the extrema kept,
//! its running words in locals, written back once per run. Its values come
//! from a [`Source`]: a column kernel's field of each row of a block
//! ([`KernelSpec::fold_block`] — the request row, which the fold steps
//! last, included — or of the one row the offline sweep's sliding program
//! adds), or an expression kernel's result registers. A STRING kernel steps
//! its rows through their views in the same call. An INT extremum compares
//! as an integer, which is exact: every i32 is an f64, so the promoted
//! `total_cmp` the interpreter uses is integer order. BIGINT and TIMESTAMP
//! compare promoted, where distinct values past 2^53 tie and the first seen
//! stays. The rest of the contract: [`KernelSpec::retract_row`] a stored
//! row, and the bound projections ([`KernelState::project`]). Retraction is
//! exact for the count and the wrapping `i64` sum: both are groups under
//! addition, so taking a row out lands on exactly the state that never saw
//! it. f64 sums, averages and deviations depend on the order of addition, so
//! the offline sweep re-folds them per frame — from a column of their values
//! ([`ColumnFold`]), each frame still its ascending left fold from 0.0. An
//! extremum forgets a row through a monotone deque ([`Monotone`]): a frame's
//! `min`/`max` is the front of the rows no later row strictly beats,
//! compared as the fold compares them, so the first-seen tie wins as in the
//! fold.
//!
//! A FLOAT or DOUBLE kernel that keeps an f64 sum and no extremum has a
//! one-load expression shape (`expression`'s `ExprKernel::of_column`): two
//! or more of one class fold as one expression lane, a row at a time
//! (`expression`'s `ExprLane`); one alone stays a kernel.

use std::cmp::Ordering::{self, Greater, Less};
use std::collections::VecDeque;

use openmldb_types::{Error, Result, RowView, Value};

use super::expression::ExprLane;
use super::field::{
    binding_out_of_bounds, read4, read8, row_out_of_range, str_field, str_without_view,
    truncated_row, FieldRef, Fixed, KernelClass,
};
use super::fold::{Block, Views, WindowState};
use crate::scratch::{RowSource, ScanEntry};
use crate::window::Projection;

/// Which running statistics a kernel maintains — the union of what its
/// bound projections need.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Track {
    /// The wrapping `i64` sum (`sum` over an integer class).
    int_sum: bool,
    /// The f64 sum (`sum` over a float class, `avg`, `stddev`).
    pub(super) float_sums: bool,
    /// The f64 sum of squares (`stddev` only).
    pub(super) sum_sq: bool,
    /// The running minimum and maximum, each kept only when bound.
    min: bool,
    max: bool,
}

impl Track {
    pub(super) fn note(&mut self, class: KernelClass, proj: Projection) {
        match proj {
            Projection::Min => self.min = true,
            Projection::Max => self.max = true,
            Projection::Sum if class.is_int() => self.int_sum = true,
            Projection::Sum | Projection::Avg => self.float_sums = true,
            Projection::Stddev => (self.float_sums, self.sum_sq) = (true, true),
            Projection::Count => {}
        }
    }

    /// Whether an extremum is bound.
    pub(super) fn extrema(&self) -> bool {
        self.min || self.max
    }

    /// Step `src`'s values into `st`: the one loop that steps a
    /// [`KernelState`], keeping the minimum iff bound and the maximum iff
    /// bound. A failing value is `Err` with its index; the values before it
    /// are folded.
    #[inline(always)]
    pub(super) fn fold<E: Elem, S: Source<E>>(
        &self,
        st: &mut KernelState,
        src: &S,
    ) -> std::result::Result<(), (usize, Error)> {
        match (self.min, self.max) {
            (false, false) => self.fold_fixed::<E, S, false, false>(st, src),
            (true, false) => self.fold_fixed::<E, S, true, false>(st, src),
            (false, true) => self.fold_fixed::<E, S, false, true>(st, src),
            (true, true) => self.fold_fixed::<E, S, true, true>(st, src),
        }
    }

    // HOT: the kernel-state fold — one loop per class and bound extrema, its
    // running state in locals, written back once per run. It steps the
    // values in fold order, so the f64 sums are the row-at-a-time fold's,
    // bit for bit; a tie keeps the first value seen.
    // Out of line, each loop gets the registers to itself.
    #[inline(never)]
    fn fold_fixed<E: Elem, S: Source<E>, const MIN: bool, const MAX: bool>(
        &self,
        st: &mut KernelState,
        src: &S,
    ) -> std::result::Result<(), (usize, Error)> {
        let t = *self;
        let (mut count, mut sum_i, mut sum_f, mut sum_sq) =
            (st.count, st.sum_i, st.sum_f, st.sum_sq);
        let [mut min, mut max] = E::extrema(st);
        let mut failed = Ok(());
        for (j, &row) in src.rows().iter().enumerate() {
            if src.null(row) {
                continue;
            }
            let Some(v) = src.value(row) else {
                failed = Err((j, src.short(row)));
                break;
            };
            if E::INT && t.int_sum {
                sum_i = sum_i.wrapping_add(v.as_i64());
            }
            if t.float_sums {
                let x = v.as_f64();
                sum_f += x;
                if t.sum_sq {
                    sum_sq += x * x;
                }
            }
            count += 1;
            if MIN && (count == 1 || v.before(min)) {
                min = v;
            }
            if MAX && (count == 1 || max.before(v)) {
                max = v;
            }
        }
        (st.count, st.sum_i, st.sum_f, st.sum_sq) = (count, sum_i, sum_f, sum_sq);
        E::store(st, [min, max]);
        failed
    }
}

/// The values a [`Track::fold`] steps: one per row, each of class `E` or
/// NULL.
pub(super) trait Source<E> {
    type Row: Copy;
    fn rows(&self) -> &[Self::Row];
    fn null(&self, row: Self::Row) -> bool;
    /// A non-NULL row's value, `None` when the row ends before it.
    fn value(&self, row: Self::Row) -> Option<E>;
    /// The typed error of a row that ends before its value; a source whose
    /// rows hold their values never meets one.
    fn short(&self, _: Self::Row) -> Error {
        binding_out_of_bounds()
    }
}

/// One fixed-width field of each of some rows' bytes.
// The field is a copy: read through the `&Fields` the loop is handed, its
// offset and NULL probe are loop-invariant loads; behind a second reference
// they were reloaded on every row.
struct Fields<'r>(FieldRef, &'r [&'r [u8]]);

impl<'r, E: Elem> Source<E> for Fields<'r> {
    type Row = &'r [u8];

    #[inline(always)]
    fn rows(&self) -> &[&'r [u8]] {
        self.1
    }

    #[inline(always)]
    fn null(&self, buf: &'r [u8]) -> bool {
        self.0.null_in(buf)
    }

    #[inline(always)]
    fn value(&self, buf: &'r [u8]) -> Option<E> {
        E::read(buf, self.0.at)
    }

    fn short(&self, buf: &'r [u8]) -> Error {
        truncated_row(buf.len(), self.0.at + E::WIDTH)
    }
}

/// One compiled per-column fold: everything the fold loop needs,
/// resolved at deploy time.
#[derive(Debug, Clone)]
pub(super) struct KernelSpec {
    pub(super) field: FieldRef,
    pub(super) track: Track,
}

impl KernelSpec {
    pub(super) fn new(field: FieldRef) -> KernelSpec {
        KernelSpec {
            field,
            track: Track::default(),
        }
    }

    /// Bind one more projection of this column to the kernel.
    pub(super) fn note(&mut self, proj: Projection) {
        self.track.note(self.field.class, proj);
    }

    /// Step the first `end` rows of `block` into `st`, in fold order — a
    /// block of the serve loop, or the one row a sliding program adds. A
    /// STRING kernel steps them through their views (`None` only in
    /// fixed-only programs), its extrema kept as slices of those rows. A
    /// failing row is `Err` with its index; the rows before it are folded.
    #[inline(always)]
    pub(super) fn fold_block<'a, V: Views<'a>, const N: usize>(
        &self,
        st: &mut KernelState,
        block: &Block<'a, V, N>,
        end: usize,
        rows: &dyn RowSource,
    ) -> std::result::Result<(), (usize, Error)> {
        let (t, src) = (&self.track, Fields(self.field, block.bufs(end)));
        match self.field.class {
            KernelClass::Int => t.fold::<i32, _>(st, &src),
            KernelClass::Bigint | KernelClass::Timestamp => t.fold::<i64, _>(st, &src),
            KernelClass::Float => t.fold::<f32, _>(st, &src),
            KernelClass::Double => t.fold::<f64, _>(st, &src),
            KernelClass::Str => {
                for (j, (i, buf, view)) in block.rows(end) {
                    let s = match self.field.null_in(buf) {
                        true => continue,
                        false => view.ok_or_else(str_without_view),
                    };
                    let s = s.and_then(|view| str_field(view, self.field.col));
                    let fed = s.and_then(|s| match s {
                        Some(s) => st.feed_str(s.as_bytes(), (i, buf), rows, self.track),
                        None => Ok(()),
                    });
                    fed.map_err(|e| (j, e))?;
                }
                Ok(())
            }
        }
    }

    /// Keep only the count and the wrapping `i64` sum: the offline sweep's
    /// deques and column folds own the kernel's extrema and f64 sums.
    /// Returns whether the sweep still steps the kernel: one with f64 sums
    /// and no integer sum is set whole (count and sums) by the column fold
    /// before every output ([`ColumnFold::fill`]), so its steps are not.
    pub(super) fn keep_retractable(&mut self) -> bool {
        let Track {
            int_sum,
            float_sums,
            ..
        } = self.track;
        self.track = Track {
            int_sum,
            ..Track::default()
        };
        int_sum || !float_sums
    }

    /// Take stored row `buf`, stepped earlier, back out of `st`: exact for
    /// the count and the wrapping `i64` sum.
    pub(super) fn retract_row(&self, st: &mut KernelState, buf: &[u8]) -> Result<()> {
        if self.field.null_in(buf) {
            return Ok(());
        }
        if self.field.class != KernelClass::Str && self.track.int_sum {
            if let Some(Fixed::Int(v)) = self.field.stored(buf)? {
                st.sum_i = st.sum_i.wrapping_sub(v);
            }
        }
        st.count = st.count.wrapping_sub(1);
        Ok(())
    }

    /// Once the last row is stepped, resolve the STRING extremum `proj`
    /// reads into `resolved` (`[min, max]`), from `rows`.
    #[inline(always)]
    pub(super) fn resolve_str(
        &self,
        st: &KernelState,
        proj: Projection,
        [min, max]: &mut [Value; 2],
        rows: &dyn RowSource,
    ) -> Result<()> {
        let (slot, v) = match proj {
            _ if self.field.class != KernelClass::Str || st.count == 0 => return Ok(()),
            Projection::Min => (st.min_str, min),
            Projection::Max => (st.max_str, max),
            _ => return Ok(()),
        };
        let s = std::str::from_utf8(StrSlot::resolve(slot, rows)?);
        *v = Value::string(s.map_err(|_| Error::Eval("string extremum is not UTF-8".into()))?);
        Ok(())
    }
}

/// Where a running string extremum lives: a byte range of the row it was
/// read from, addressed by that row's index in the fold's [`RowSource`] (no
/// copy until the fold finishes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum StrSlot {
    #[default]
    None,
    // 32-bit fields keep the slot, and so every `KernelState`, small.
    Row {
        row: u32,
        off: u32,
        len: u32,
    },
}

/// Running fold state for one column or expression kernel — plain machine
/// words, reset per request, pooled in the request scratch.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct KernelState {
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

impl KernelState {
    /// Feed `bytes`, a string of row `home.0` of `rows` (whose bytes are
    /// `home.1`), kept as a range of that row when it is an extremum.
    #[inline(always)]
    fn feed_str(
        &mut self,
        bytes: &[u8],
        (row, buf): (usize, &[u8]),
        rows: &dyn RowSource,
        track: Track,
    ) -> Result<()> {
        self.count += 1;
        let (first, slot) = (self.count == 1, || StrSlot::of(row, bytes, buf));
        // `&str` ordering is byte-lexicographic, so comparing raw bytes
        // reproduces `Value::total_cmp` on strings; strict comparisons keep
        // the first-seen instance on ties.
        if track.min && (first || bytes < StrSlot::resolve(self.min_str, rows)?) {
            self.min_str = slot()?;
        }
        if track.max && (first || bytes > StrSlot::resolve(self.max_str, rows)?) {
            self.max_str = slot()?;
        }
        Ok(())
    }

    /// Push one projection of this state (`SharedNumeric::project`,
    /// monomorphized by class). `strs` is a STRING kernel's resolved
    /// `[min, max]`.
    #[inline(always)]
    pub(super) fn project(
        &self,
        class: KernelClass,
        proj: Projection,
        strs: Option<&[Value; 2]>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        match proj {
            // Integral inputs keep the interpreter's `all_int` wrapping i64
            // sum.
            Projection::Sum if class.is_int() && self.count > 0 => {
                out.push(Value::Bigint(self.sum_i))
            }
            Projection::Min => out.push(self.extremum(class, true, strs)?),
            Projection::Max => out.push(self.extremum(class, false, strs)?),
            _ => project_sums(self.count, self.sum_f, self.sum_sq, proj, out),
        }
        Ok(())
    }

    #[inline]
    fn extremum(&self, class: KernelClass, min: bool, strs: Option<&[Value; 2]>) -> Result<Value> {
        if self.count == 0 {
            return Ok(Value::Null);
        }
        Ok(match class {
            KernelClass::Int => Value::Int((if min { self.min_i } else { self.max_i }) as i32),
            KernelClass::Bigint => Value::Bigint(if min { self.min_i } else { self.max_i }),
            KernelClass::Timestamp => Value::Timestamp(if min { self.min_i } else { self.max_i }),
            KernelClass::Float => Value::Float(if min { self.min_f32 } else { self.max_f32 }),
            KernelClass::Double => Value::Double(if min { self.min_f } else { self.max_f }),
            KernelClass::Str => strs
                .and_then(|s| s.get(usize::from(!min)))
                .cloned()
                .ok_or_else(|| {
                    Error::Eval("string extremum was not resolved by its fold".into())
                })?,
        })
    }
}

/// A fixed-width class as the kernel-state fold reads, orders and sums it.
pub(super) trait Elem: Copy {
    /// Bytes its field takes.
    const WIDTH: usize;
    /// Whether it is an integer class, the only ones with an `i64` sum.
    const INT: bool;
    /// Its field at `at` of `buf`, or `None` past the row's end.
    fn read(buf: &[u8], at: usize) -> Option<Self>;
    /// Whether `self` comes strictly before `other` in the order the fold
    /// compares values in.
    fn before(self, other: Self) -> bool;
    fn as_f64(self) -> f64;
    /// The value in the wrapping `i64` sum, which only an [`INT`](Self::INT)
    /// class keeps.
    fn as_i64(self) -> i64 {
        0
    }
    /// The running `[min, max]` of `st`.
    fn extrema(st: &KernelState) -> [Self; 2];
    fn store(st: &mut KernelState, extrema: [Self; 2]);
}

impl Elem for i32 {
    const WIDTH: usize = 4;
    const INT: bool = true;

    #[inline(always)]
    fn read(buf: &[u8], at: usize) -> Option<i32> {
        read4(buf, at).map(i32::from_le_bytes)
    }

    // Every i32 is exactly an f64, so the promoted `total_cmp` is integer
    // order.
    #[inline(always)]
    fn before(self, other: i32) -> bool {
        self < other
    }

    #[inline(always)]
    fn as_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn as_i64(self) -> i64 {
        i64::from(self)
    }

    #[inline(always)]
    fn extrema(st: &KernelState) -> [i32; 2] {
        // An INT kernel's extrema are i32 values.
        [st.min_i as i32, st.max_i as i32]
    }

    #[inline(always)]
    fn store(st: &mut KernelState, [min, max]: [i32; 2]) {
        (st.min_i, st.max_i) = (min.into(), max.into());
    }
}

impl Elem for i64 {
    const WIDTH: usize = 8;
    const INT: bool = true;

    #[inline(always)]
    fn read(buf: &[u8], at: usize) -> Option<i64> {
        read8(buf, at).map(i64::from_le_bytes)
    }

    // Promoted, as `Value::total_cmp` compares: distinct values past 2^53
    // tie, and the first seen stays.
    #[inline(always)]
    fn before(self, other: i64) -> bool {
        (self as f64).total_cmp(&(other as f64)).is_lt()
    }

    #[inline(always)]
    fn as_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn as_i64(self) -> i64 {
        self
    }

    #[inline(always)]
    fn extrema(st: &KernelState) -> [i64; 2] {
        [st.min_i, st.max_i]
    }

    #[inline(always)]
    fn store(st: &mut KernelState, [min, max]: [i64; 2]) {
        (st.min_i, st.max_i) = (min, max);
    }
}

impl Elem for f32 {
    const WIDTH: usize = 4;
    const INT: bool = false;

    #[inline(always)]
    fn read(buf: &[u8], at: usize) -> Option<f32> {
        read4(buf, at).map(f32::from_le_bytes)
    }

    // Promoted, keeping the raw f32 so the output round-trips bit-exactly.
    #[inline(always)]
    fn before(self, other: f32) -> bool {
        f64::from(self).total_cmp(&f64::from(other)).is_lt()
    }

    #[inline(always)]
    fn as_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn extrema(st: &KernelState) -> [f32; 2] {
        [st.min_f32, st.max_f32]
    }

    #[inline(always)]
    fn store(st: &mut KernelState, [min, max]: [f32; 2]) {
        (st.min_f32, st.max_f32) = (min, max);
    }
}

impl Elem for f64 {
    const WIDTH: usize = 8;
    const INT: bool = false;

    #[inline(always)]
    fn read(buf: &[u8], at: usize) -> Option<f64> {
        read8(buf, at).map(f64::from_le_bytes)
    }

    #[inline(always)]
    fn before(self, other: f64) -> bool {
        self.total_cmp(&other).is_lt()
    }

    #[inline(always)]
    fn as_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn extrema(st: &KernelState) -> [f64; 2] {
        [st.min_f, st.max_f]
    }

    #[inline(always)]
    fn store(st: &mut KernelState, [min, max]: [f64; 2]) {
        (st.min_f, st.max_f) = (min, max);
    }
}

/// Push `count`/`sum`/`avg`/`stddev` of an f64 running sum
/// (`SharedNumeric::project`'s float arms). Every arm pushes its own value
/// (see `WindowProgram::outputs_into`).
#[inline(always)]
pub(super) fn project_sums(
    count: u64,
    sum: f64,
    sum_sq: f64,
    proj: Projection,
    out: &mut Vec<Value>,
) {
    match proj {
        Projection::Count => out.push(Value::Bigint(count as i64)),
        Projection::Stddev if count >= 2 => {
            let n = count as f64;
            let var = ((sum_sq - sum * sum / n) / (n - 1.0)).max(0.0);
            out.push(Value::Double(var.sqrt()))
        }
        Projection::Sum if count > 0 => out.push(Value::Double(sum)),
        Projection::Avg if count > 0 => out.push(Value::Double(sum / count as f64)),
        _ => out.push(Value::Null),
    }
}

impl StrSlot {
    /// Record `bytes`, a slice of row `row` (whose bytes are `buf`), as an
    /// offset range of that row.
    #[inline(always)]
    pub(super) fn of(row: usize, bytes: &[u8], buf: &[u8]) -> Result<StrSlot> {
        let off = (bytes.as_ptr() as usize)
            .checked_sub(buf.as_ptr() as usize)
            .filter(|s| s.checked_add(bytes.len()).is_some_and(|e| e <= buf.len()))
            .ok_or_else(|| Error::Eval("string kernel source outside its row".into()))?;
        let narrow = |v: usize| u32::try_from(v).map_err(|_| row_out_of_range());
        let (row, off, len) = (narrow(row)?, narrow(off)?, narrow(bytes.len())?);
        Ok(StrSlot::Row { row, off, len })
    }

    /// The bytes a slot refers to, among `rows`. `None` cannot occur once
    /// a row was counted.
    #[inline(always)]
    pub(super) fn resolve(self, rows: &dyn RowSource) -> Result<&[u8]> {
        match self {
            StrSlot::Row { row, off, len } => {
                let (off, end) = (off as usize, off as usize + len as usize);
                let bytes = rows.row_at(row as usize).ok().and_then(|r| r.get(off..end));
                bytes.ok_or_else(|| Error::Eval("string extremum range outside its row".into()))
            }
            StrSlot::None => Err(Error::Eval(
                "string extremum slot resolved out of order".into(),
            )),
        }
    }
}

/// One `min` or `max` of a column kernel over a sliding frame, as a
/// monotone deque (Lemire 2006): the frame's rows that no later row
/// strictly beats, by their position in the fold order. Values compare as
/// [`KernelState`]'s fold compares them — `total_cmp` with integers and
/// FLOATs promoted to f64, strings by bytes — and only a strictly beaten row
/// leaves, so among tied values (distinct BIGINTs past 2^53 tie when
/// promoted) the earliest stays in front: the one the fold keeps. Rows
/// leave the frame oldest first.
#[derive(Debug)]
pub(super) struct Monotone {
    field: FieldRef,
    min: bool,
    /// Position, the value as compared, and its bits (a STRING's range of
    /// its own row as `offset << 32 | length`).
    held: VecDeque<(usize, f64, u64)>,
}

impl Monotone {
    /// The `min` (or max) deque of `field`'s kernel.
    pub(super) fn new(field: FieldRef, min: bool) -> Monotone {
        let held = VecDeque::new();
        Monotone { field, min, held }
    }

    pub(super) fn clear(&mut self) {
        self.held.clear();
    }

    /// Add row `at` of `rows`, the newest in the frame: its bytes `buf`,
    /// viewed as `view` (needed for a STRING).
    pub(super) fn add(
        &mut self,
        (at, buf): (usize, &[u8]),
        view: Option<&RowView<'_>>,
        rows: &dyn RowSource,
    ) -> Result<()> {
        let field = &self.field;
        let v = match field.class {
            KernelClass::Str => match str_field(view.ok_or_else(str_without_view)?, field.col)? {
                Some(s) => match StrSlot::of(at, s.as_bytes(), buf)? {
                    StrSlot::Row { off, len, .. } => (0.0, u64::from(off) << 32 | u64::from(len)),
                    StrSlot::None => return Err(binding_out_of_bounds()),
                },
                None => return Ok(()),
            },
            _ => match field.stored(buf)? {
                Some(Fixed::Int(v)) => (v as f64, v as u64),
                Some(Fixed::Float(v)) => (f64::from(v), u64::from(v.to_bits())),
                Some(Fixed::Double(v)) => (v, v.to_bits()),
                None => return Ok(()),
            },
        };
        let beats = if self.min { Less } else { Greater };
        while let Some(&(back, key, bits)) = self.held.back() {
            if self.order((at, v.0, v.1), (back, key, bits), rows)? != beats {
                break;
            }
            self.held.pop_back();
        }
        self.held.push_back((at, v.0, v.1));
        Ok(())
    }

    /// Take row `at`, the oldest in the frame, out.
    pub(super) fn retract(&mut self, at: usize) {
        if self.held.front().is_some_and(|&(front, ..)| front == at) {
            self.held.pop_front();
        }
    }

    /// Set the frame's extremum in `st`, the sliding state of the kernel,
    /// as its fold over the frame leaves it (a STRING as a range of its row
    /// among `rows`). The fold takes row `last`, if any, after every other:
    /// a tie behind it in the deque wins over it.
    pub(super) fn load(
        &self,
        st: &mut KernelState,
        last: Option<usize>,
        rows: &dyn RowSource,
    ) -> Result<()> {
        let mut held = self.held.iter();
        let Some(mut v) = held.next().copied() else {
            return Ok(());
        };
        if let Some(&next) = held.next().filter(|_| Some(v.0) == last) {
            if self.order(next, v, rows)?.is_eq() {
                v = next;
            }
        }
        // Each class's projection reads only its own field: set them all.
        let (at, _, bits) = v;
        let slot = match self.field.class {
            KernelClass::Str => held_str(at, bits)?,
            _ => StrSlot::None,
        };
        let all = (
            bits as i64,
            f32::from_bits(bits as u32),
            f64::from_bits(bits),
            slot,
        );
        match self.min {
            true => (st.min_i, st.min_f32, st.min_f, st.min_str) = all,
            false => (st.max_i, st.max_f32, st.max_f, st.max_str) = all,
        }
        Ok(())
    }

    /// How the kernel's fold orders two of its held values.
    fn order(
        &self,
        (i, a, x): (usize, f64, u64),
        (j, b, y): (usize, f64, u64),
        rows: &dyn RowSource,
    ) -> Result<Ordering> {
        let str_at = |at: usize, bits: u64| StrSlot::resolve(held_str(at, bits)?, rows);
        match self.field.class {
            KernelClass::Str => Ok(str_at(i, x)?.cmp(str_at(j, y)?)),
            _ => Ok(a.total_cmp(&b)),
        }
    }
}

/// A held STRING: the range `bits` of row `at`.
fn held_str(at: usize, bits: u64) -> Result<StrSlot> {
    let row = u32::try_from(at).map_err(|_| row_out_of_range())?;
    let (off, len) = ((bits >> 32) as u32, bits as u32);
    Ok(StrSlot::Row { row, off, len })
}

/// Anchors whose frames the offline sweep folds from its columns at once,
/// each a chain of its own: independent additions the core overlaps.
pub(super) const K: usize = 4;

/// One frame's f64 fold over a sweep's columns: rows `from..to` but
/// `skip`, then the anchor row `tail` — ascending, the anchor last.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Chain<'a> {
    pub(super) from: usize,
    pub(super) to: usize,
    pub(super) skip: Option<usize>,
    pub(super) tail: Option<&'a [u8]>,
}

impl Chain<'_> {
    /// Whether the frame is the plain run `from..to`.
    pub(super) fn plain(&self) -> bool {
        self.skip.is_none() && self.tail.is_none()
    }
}

/// One member's sums over one frame.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Sums {
    count: u64,
    sum: f64,
    sq: f64,
}

impl Sums {
    /// Add `vals` in order (and their squares when `sq`).
    #[inline(always)]
    fn add(&mut self, vals: &[f64], sq: bool) {
        for v in vals {
            self.sum += v;
        }
        if sq {
            for v in vals {
                self.sq += v * v;
            }
        }
    }
}

/// The f64 sum-family kernels the offline sweep folds from columns: every
/// member of a one-load lane of its sliding program, then every column kernel
/// that keeps an f64 sum, with where its sums go. The sliding steps leave
/// their sums alone — a lane is not stepped, a kernel keeps only its count
/// and integer sum there ([`KernelSpec::keep_retractable`]) — and each
/// output sets them first.
#[derive(Debug)]
pub(super) struct ColumnFold {
    /// Each member's field, whether it keeps the sum of squares, and its
    /// lane (`None`: a column kernel) and index there.
    members: Vec<(FieldRef, bool, Option<usize>, usize)>,
}

/// A [`ColumnFold`]'s columns over the first rows of a partition or of a
/// streamed key, and its last sums — pooled sweep scratch.
#[derive(Debug, Default)]
pub(super) struct ColumnCache {
    /// Per member, its values (0.0 where NULL: a fold from +0.0 never holds
    /// -0.0, so adding +0.0 changes no bit).
    vals: Vec<Vec<f64>>,
    /// Per member, `seen[i]`: its non-NULL values among the first `i` rows.
    seen: Vec<Vec<u64>>,
    /// Per member, the sums of the chain the last fold went on from, then
    /// one block per chain it folded.
    sums: Vec<Sums>,
    /// The last fold's last chain, when plain: the next may go on from it.
    carry: Option<(usize, usize)>,
}

impl ColumnFold {
    /// The fold of the one-load lanes among `lanes` and of the f64 sums
    /// `kernels` keep, or `None` when there is none.
    pub(super) fn of(kernels: &[KernelSpec], lanes: &[ExprLane]) -> Option<ColumnFold> {
        let lanes = lanes.iter().enumerate().flat_map(|(l, lane)| {
            let (fields, sq) = lane.column().unwrap_or_default();
            (fields.iter().enumerate()).map(move |(m, f)| (*f, sq, Some(l), m))
        });
        let kernels = (kernels.iter().enumerate()).filter(|(_, s)| s.track.float_sums);
        let kernels = kernels.map(|(k, s)| (s.field, s.track.sum_sq, None, k));
        let members: Vec<_> = lanes.chain(kernels).collect();
        (!members.is_empty()).then_some(ColumnFold { members })
    }

    /// Keep the first `end` rows of `cache` (0: a fresh partition); a carry
    /// reaching past them goes.
    pub(super) fn truncate(&self, cache: &mut ColumnCache, end: usize) {
        cache.vals.iter_mut().for_each(|v| v.truncate(end));
        cache.seen.iter_mut().for_each(|s| s.truncate(end + 1));
        cache.carry = cache.carry.filter(|&(_, to)| to <= end);
    }

    /// Fold `chains` — consecutive anchors' frames, at most [`K`] — over
    /// the columns of `rows` (slices of `arena`), extracted as far as the
    /// chains reach, each an ascending left fold from 0.0. A chain that
    /// starts where the one before it started (the last fold's last, for
    /// the first) and reaches at least as far goes on from its sums: the
    /// same fold. [`K`] chains that all start afresh fold in lockstep up to
    /// the shortest one's first gap.
    pub(super) fn fold(
        &self,
        cache: &mut ColumnCache,
        rows: (&[ScanEntry], &[u8]),
        chains: &[Chain],
    ) -> Result<()> {
        let (n, (rows, arena)) = (self.members.len(), rows);
        let end = chains.iter().map(|c| c.to).max().unwrap_or(0);
        cache.vals.resize_with(n, Vec::new);
        cache.seen.resize_with(n, || vec![0]);
        let held = cache.vals.first().map_or(0, Vec::len);
        for e in rows.get(held..end).unwrap_or_default() {
            let cols = cache.vals.iter_mut().zip(&mut cache.seen);
            for (m, (v, s)) in self.members.iter().zip(cols) {
                let x = m.0.stored(e.bytes(arena))?;
                v.push(x.map_or(0.0, Fixed::as_f64));
                s.push(s.last().copied().unwrap_or(0) + u64::from(x.is_some()));
            }
        }
        let (vals, seen) = (&cache.vals, &cache.seen);
        let (sums, carry) = (&mut cache.sums, &mut cache.carry);
        sums.drain(..sums.len().saturating_sub(n));
        sums.resize(n * (chains.len() + 1), Sums::default());
        let gap = |c: &Chain| c.skip.unwrap_or(c.to).min(c.to);
        // Where each chain's fold starts, and whether it goes on.
        let mut start = [(0, false); K];
        for (s, c) in start.iter_mut().zip(chains) {
            let on = carry.filter(|&(from, to)| from == c.from && to <= gap(c));
            *s = (on.map_or(c.from, |p| p.1), on.is_some());
            *carry = c.plain().then_some((c.from, c.to));
        }
        let fresh = chains.len() == K && start.iter().all(|s| !s.1);
        let shortest = chains
            .iter()
            .zip(&start)
            .map(|(c, s)| gap(c).saturating_sub(s.0));
        let head = shortest.min().filter(|_| fresh).unwrap_or(0);
        let members = self.members.iter().zip(vals.iter().zip(seen.iter()));
        for (m, (&(field, sq, ..), (vals, seen))) in members.enumerate() {
            let rows =
                |from: usize, to: usize| vals.get(from..to).ok_or_else(binding_out_of_bounds);
            let count = |from: usize, to: usize| Some(seen.get(to)? - seen.get(from)?);
            let mut acc = [Sums::default(); K];
            if head > 0 {
                let [r0, r1, r2, r3] = start.map(|s| rows(s.0, s.0 + head));
                lockstep([r0?, r1?, r2?, r3?], sq, &mut acc);
            }
            for (j, ((c, &(from, on)), a)) in chains.iter().zip(&start).zip(&mut acc).enumerate() {
                if on {
                    *a = *sums.get(j * n + m).ok_or_else(binding_out_of_bounds)?;
                }
                a.add(rows(from + head, gap(c))?, sq);
                let mut total = count(c.from, c.to);
                if let Some(k) = c.skip.filter(|&k| k < c.to) {
                    a.add(rows(k + 1, c.to)?, sq);
                    total = total.zip(count(k, k + 1)).map(|(t, k)| t - k);
                }
                a.count = total.ok_or_else(binding_out_of_bounds)?;
                if let Some(v) = c.tail.map(|t| field.stored(t)).transpose()?.flatten() {
                    a.add(&[v.as_f64()], sq);
                    a.count += 1;
                }
                *sums
                    .get_mut((j + 1) * n + m)
                    .ok_or_else(binding_out_of_bounds)? = *a;
            }
        }
        Ok(())
    }

    /// Set chain `j` of the last fold into a state of the program this was
    /// made of: the counts and sums its lanes and kernels project.
    pub(super) fn fill(&self, cache: &ColumnCache, j: usize, st: &mut WindowState) -> Result<()> {
        let n = self.members.len();
        let sums = cache.sums.get((j + 1) * n..(j + 2) * n);
        for (&(_, _, lane, i), s) in self
            .members
            .iter()
            .zip(sums.ok_or_else(binding_out_of_bounds)?)
        {
            let Some(l) = lane else {
                let k = st.kernels.get_mut(i).ok_or_else(binding_out_of_bounds)?;
                (k.count, k.sum_f, k.sum_sq) = (s.count, s.sum, s.sq);
                continue;
            };
            // A lane the sliding program never steps: its dense count is 0.
            let lane = st.lanes.get_mut(l).ok_or_else(binding_out_of_bounds)?;
            match (lane.count.get_mut(i), lane.sum.get_mut(i)) {
                (Some(c), Some(v)) => (*c, *v) = (s.count, s.sum),
                _ => return Err(binding_out_of_bounds()),
            }
            if let Some(q) = lane.sum_sq.get_mut(i) {
                *q = s.sq;
            }
        }
        Ok(())
    }
}

// HOT: the offline sweep's float sums — [`K`] frames' left folds advance
// one row each per step, so their dependent additions overlap instead of
// each waiting on the one before. Each chain adds exactly its own rows in
// order: its bits are its serial fold's.
#[inline(always)]
fn lockstep([r0, r1, r2, r3]: [&[f64]; K], sq: bool, acc: &mut [Sums; K]) {
    let [a0, a1, a2, a3] = acc;
    for (((v0, v1), v2), v3) in r0.iter().zip(r1).zip(r2).zip(r3) {
        (a0.sum, a1.sum, a2.sum, a3.sum) = (a0.sum + v0, a1.sum + v1, a2.sum + v2, a3.sum + v3);
        if sq {
            (a0.sq, a1.sq) = (a0.sq + v0 * v0, a1.sq + v1 * v1);
            (a2.sq, a3.sq) = (a2.sq + v2 * v2, a3.sq + v3 * v3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::fold::Binding;
    use crate::program::testkit::*;
    use crate::program::EntryOrder;
    use crate::program::WindowProgram;
    use crate::scratch::ScanEntry;
    use crate::window::WindowAggSet;
    use openmldb_sql::plan::BoundAggregate;
    use openmldb_types::{ColumnDef, CompactCodec, DataType, Row, Schema};
    use proptest::prelude::{any, prop_oneof, Just, ProptestConfig, Strategy};

    /// A BIGINT from the edges of the wrapping sum, or a small one.
    fn bigint() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Bigint(i64::MIN)),
            Just(Value::Bigint(i64::MAX)),
            Just(Value::Bigint(-1)),
            (-1_000i64..1_000).prop_map(Value::Bigint),
            any::<i64>().prop_map(Value::Bigint),
        ]
    }

    /// Rows of `schema()`: INT, BIGINT, FLOAT, DOUBLE and STRING columns with
    /// NULLs, `i64::MIN/MAX` and repeated strings.
    fn rows() -> impl Strategy<Value = Vec<Row>> {
        let int = prop_oneof![Just(Value::Null), any::<i32>().prop_map(Value::Int)];
        let word = prop_oneof![
            Just(Value::Null),
            (0usize..4).prop_map(|w| Value::string(["a", "bb", "a", ""][w])),
        ];
        let row = (int, bigint(), any::<f64>(), word);
        proptest::collection::vec(row, 0..48).prop_map(|rows| {
            (rows.into_iter().enumerate())
                .map(|(ts, (i, b, d, s))| {
                    let ts = Value::Timestamp(ts as i64);
                    let e = Value::Double(-d);
                    let (f, d) = (Value::Float(d as f32), Value::Double(d));
                    Row::new(vec![Value::string("k1"), ts, i, b, f, d, s, e])
                })
                .collect()
        })
    }

    /// Every projection of the column family whose kernel keeps only the
    /// count and the wrapping sum.
    fn exact() -> Vec<BoundAggregate> {
        let mut aggs: Vec<_> = (1..7).map(|c| agg("count", c, 0)).collect();
        aggs.extend([agg("sum", 1, 0), agg("sum", 2, 0), agg("sum", 3, 0)]);
        aggs
    }

    /// The offline sweep's split: counts, integer sums and extrema slide
    /// (extrema re-fold where the sweep steps the anchor row out of turn),
    /// and the f64 sum family folds from columns into the same sliding
    /// program; the naive oracle re-folds everything.
    #[test]
    fn retract_contract_slides_counts_integer_sums_and_extrema() {
        let codec = CompactCodec::new(schema());
        let split = |aggs: &[BoundAggregate], exclude: bool, recompute: bool| {
            let mut w = window();
            w.exclude_current_row = exclude;
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
            wp.split(recompute).expect("splits")
        };
        let exact = split(&exact(), false, false);
        assert!(exact.slid.iter().all(|s| *s) && exact.columns.is_none());
        // Per case, whether the sliding program folds f64 sums from columns.
        for (f, c, columns) in [
            ("sum", 5, true),
            ("sum", 4, true),
            ("avg", 3, true),
            ("stddev", 2, true),
            ("min", 3, false),
            ("max", 6, false),
            ("max", 5, false),
        ] {
            let aggs = [agg("count", c, 0), agg(f, c, 0)];
            let slid = split(&aggs, false, false);
            assert_eq!(
                (slid.slid.as_slice(), slid.columns.is_some()),
                (&[true, true][..], columns)
            );
            let extremum = matches!(f, "min" | "max");
            assert_eq!(
                split(&aggs, true, false).slid,
                [true, !extremum],
                "{f}({c})"
            );
            assert_eq!(split(&aggs, false, true).slid, [false, false], "{f}({c})");
        }
        // Both extrema of a column slide as deques off its kernel, whose f64
        // sums, like another column's one-member sum kernel, fold from
        // columns into the sliding program's state: nothing re-folds.
        let aggs = [
            agg("max", 5, 0),
            agg("avg", 5, 0),
            agg("min", 5, 0),
            agg("sum", 7, 0),
        ];
        let split = split(&aggs, false, false);
        assert_eq!(split.slid, [true; 4]);
        let extrema: Vec<_> = split.extrema.iter().map(|e| (e.0, e.2)).collect();
        assert_eq!(extrema, [(0, false), (0, true)]);
        let slide = split
            .slide
            .as_ref()
            .map(|p| (p.kernels.len(), p.lanes.len()));
        assert_eq!(slide, Some((2, 0)));
        assert!(split.columns.is_some() && split.refold.is_none());
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// The column family's contract on its exact kernels: rows stepped
        /// in and all retracted again, in another order, leave exactly a
        /// fresh state — wrapping sums over `i64::MIN/MAX` included — and
        /// the same rows stepped again project what `fold_rows` answers.
        #[test]
        fn retract_contract_restores_a_fresh_state(rows in rows(), rotate in 0usize..48) {
            let (codec, aggs) = (CompactCodec::new(schema()), exact());
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
            let (entries, arena) = arena_of(&rows, &codec);
            let source = (entries.as_slice(), arena.as_slice());
            let fresh = vec![KernelState::default(); wp.kernels.len()];
            let mut states = fresh.clone();
            let step = |states: &mut Vec<KernelState>, i: usize, add: bool| {
                let buf = source.row_at(i).expect("row");
                let view = codec.view(buf).expect("view");
                for (spec, st) in wp.kernels.iter().zip(states.iter_mut()) {
                    match add {
                        true => (spec.fold_block(st, &Block::one(i, buf, Some(view)), 1, &source))
                            .map_err(|(_, e)| e),
                        false => spec.retract_row(st, buf),
                    }
                    .expect("step");
                }
            };
            (0..rows.len()).for_each(|i| step(&mut states, i, true));
            let n = rows.len().max(1);
            (0..rows.len()).for_each(|i| step(&mut states, (i + rotate) % n, false));
            proptest::prop_assert_eq!(format!("{states:?}"), format!("{fresh:?}"));
            (0..rows.len()).for_each(|i| step(&mut states, i, true));
            let mut out = Vec::new();
            for b in &wp.bindings {
                let Binding::Column { k, proj } = *b else { unreachable!("column kernels only") };
                states[k].project(wp.kernels[k].field.class, proj, None, &mut out).expect("project");
            }
            let projected = Ok::<_, openmldb_types::Error>(out);
            proptest::prop_assert_eq!(projected, folded(&wp, &source, &codec));
        }
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
            Value::Double(1.0),
        ])];
        let request = Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(1_000),
            Value::Int(2),
            Value::Bigint(2),
            Value::Float(2.0),
            Value::Double(2.0),
            Value::string("middle"),
            Value::Null,
        ]);
        let (expected, got) = fold_both(&aggs, &rows, Some(&request));
        assert_eq!(expected, got);
    }

    /// Runs of DOUBLE and FLOAT columns broken by INT, BIGINT and STRING
    /// columns, 17 columns in all, so the members' NULL bits span three
    /// bitmap bytes. `d6` carries a `max` in [`lane_aggs`], so it is no
    /// lane member and splits the DOUBLE run around it.
    fn lane_schema() -> Schema {
        let cols = [
            ("k", DataType::String),
            ("ts", DataType::Timestamp),
            ("d0", DataType::Double),
            ("d1", DataType::Double),
            ("d2", DataType::Double),
            ("i", DataType::Int),
            ("f0", DataType::Float),
            ("f1", DataType::Float),
            ("s", DataType::String),
            ("d3", DataType::Double),
            ("d4", DataType::Double),
            ("b", DataType::Bigint),
            ("f2", DataType::Float),
            ("d5", DataType::Double),
            ("d6", DataType::Double),
            ("f3", DataType::Float),
            ("d7", DataType::Double),
        ];
        Schema::new(cols.map(|(name, t)| ColumnDef::new(name, t)).to_vec()).expect("schema")
    }

    /// Sums, averages, a `stddev` and counts over every float column but
    /// `d6` (14 lane bindings), and kernels that stay per column: `d6`'s
    /// extremum and sum, integer sums and extrema, a STRING count.
    fn lane_aggs() -> Vec<BoundAggregate> {
        let mut aggs: Vec<_> = [
            ("sum", 2),
            ("avg", 3),
            ("stddev", 4),
            ("count", 4),
            ("sum", 9),
            ("avg", 10),
            ("sum", 13),
            ("avg", 13),
            ("max", 14),
            ("sum", 14),
            ("sum", 16),
            ("sum", 6),
            ("avg", 7),
            ("stddev", 12),
            ("sum", 15),
            ("count", 15),
            ("sum", 5),
            ("max", 5),
            ("sum", 11),
            ("count", 8),
        ]
        .map(|(f, c)| agg(f, c, 0))
        .to_vec();
        aggs.rotate_left(7);
        aggs
    }

    /// Expression lane members over `lane_schema()`, five shapes: DOUBLE
    /// `v * 2.0 + 1.0` (runs `d0..d2` and `d3, d4`, a `stddev` member, and
    /// `d6`, whose column kernel carries a `max`), the same ops over FLOAT
    /// (another load class, so another lane), FLOAT × DOUBLE, DOUBLE ×
    /// DOUBLE and `1.5 - v`, with sum, avg, stddev and count-only members.
    fn expr_lane_aggs() -> Vec<BoundAggregate> {
        use openmldb_sql::BinaryOp::{Add, Mul, Sub};
        let affine = |c| {
            bin(
                Add,
                bin(Mul, col(c), lit(Value::Double(2.0))),
                lit(Value::Double(1.0)),
            )
        };
        let mut aggs = Vec::new();
        let affines = [
            ("avg", 2),
            ("sum", 3),
            ("avg", 4),
            ("stddev", 10),
            ("count", 10),
            ("avg", 9),
            ("sum", 14),
            ("sum", 6),
            ("avg", 7),
            ("sum", 15),
        ];
        for (f, c) in affines {
            aggs.push(agg_of(f, vec![affine(c)]));
        }
        for (f, a, b) in [
            ("sum", 6, 2),
            ("avg", 12, 13),
            ("count", 7, 3),
            ("stddev", 15, 16),
        ] {
            aggs.push(agg_of(f, vec![bin(Mul, col(a), col(b))]));
        }
        for (f, a, b) in [("sum", 2, 3), ("avg", 9, 10), ("sum", 16, 16)] {
            aggs.push(agg_of(f, vec![bin(Mul, col(a), col(b))]));
        }
        for (f, c) in [("sum", 4), ("avg", 13), ("stddev", 16)] {
            aggs.push(agg_of(f, vec![bin(Sub, lit(Value::Double(1.5)), col(c))]));
        }
        aggs
    }

    /// One float of every kind the sums meet: NaN, infinities, -0.0,
    /// subnormals, and round and arbitrary values.
    fn lane_float(bits: u64) -> f64 {
        match bits % 8 {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][(bits >> 3) as usize % 4],
            1 => f64::from_bits((bits >> 12) & 0x000f_ffff_ffff_ffff),
            2 => -f64::MIN_POSITIVE / (1u64 << (bits >> 58)) as f64,
            3 => f64::from_bits(bits),
            _ => ((bits >> 8) % 4_001) as f64 * 0.125 - 250.0 + (bits >> 40) as f64 * 1e-7,
        }
    }

    /// Row `ts` of `lane_schema()`, drawn from `bits`: `density` 0 has no
    /// NULL, 1 a NULL in 5% of the nullable columns, 2 in half of them.
    fn lane_row(ts: i64, bits: u64, density: u8) -> Row {
        let values = (0..17u64).map(|c| {
            let v =
                (bits ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let v = v ^ (v >> 31);
            let null = match density {
                0 => false,
                1 => v.is_multiple_of(20),
                _ => v.is_multiple_of(2),
            };
            match (c, lane_schema().columns()[c as usize].data_type) {
                (0, _) => Value::string("k1"),
                (1, _) => Value::Timestamp(ts),
                _ if null => Value::Null,
                (_, DataType::Double) => Value::Double(lane_float(v >> 1)),
                (_, DataType::Float) => Value::Float(lane_float(v >> 1) as f32),
                (_, DataType::Int) => Value::Int((v >> 3) as i32),
                (_, DataType::Bigint) => Value::Bigint((v >> 5) as i64 - (1 << 57)),
                _ => Value::string(["a", "bb", ""][(v >> 7) as usize % 3]),
            }
        });
        Row::new(values.collect())
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 96 })]

        /// The one-load lanes (bare float columns' sums) and the expression
        /// lanes fold every row where its bytes lie: windows of 0–300 rows
        /// (so an extended window's fold crosses blocks), all dense, 5%- or
        /// 50%-NULL rows mixed, every float edge value, both entry orders, a
        /// column-only and an extended window, and one whose lone FLOAT and
        /// DOUBLE sums stay column kernels beside expression lanes, the
        /// request row in or out of frame. The answer equals the
        /// interpreter's fold of the same rows, NaNs canonical.
        #[test]
        fn lane_fold_equals_interpreter(
            stored in proptest::collection::vec((any::<i64>(), 0u8..3), 0..301),
            keep in 0usize..150,
            request in (any::<bool>(), any::<i64>(), 0u8..3),
        ) {
            use openmldb_sql::BinaryOp::{Add, Mul};
            let codec = CompactCodec::new(lane_schema());
            let rows: Vec<Row> = (stored.iter().enumerate())
                .map(|(ts, &(bits, density))| lane_row(ts as i64, bits as u64, density))
                .collect();
            let request = match request {
                (true, bits, density) => Some(lane_row(rows.len() as i64, bits as u64, density)),
                (false, ..) => None,
            };
            let req = request.as_ref().map(|r| r.values());
            let (entries, arena) = arena_of(&rows, &codec);
            let newest_first: Vec<ScanEntry> = entries.iter().rev().copied().collect();
            let first = rows.len() - rows.len() * keep.min(100) / 100;

            let mut column = lane_aggs();
            column.extend(expr_lane_aggs());
            column.rotate_left(11);
            // A one-member shape keeps its kernel, and so does a shape's
            // member that a `max` binds too (`d1 * 2.0 + 1.0`).
            let mut extended = column.clone();
            extended.push(agg("distinct_count", 5, 0));
            extended.push(agg_of("avg", vec![bin(Mul, col(2), lit(Value::Double(3.0)))]));
            extended.push(agg_of("max", vec![bin(Add, bin(Mul, col(3), lit(Value::Double(2.0))), lit(Value::Double(1.0)))]));
            // One sum-family kernel per float class: no one-load lane.
            let mut single = expr_lane_aggs();
            single.extend([agg("stddev", 6, 0), agg("sum", 9, 0), agg("avg", 9, 0)]);
            single.rotate_left(5);
            // Per program: its one-load lanes, all its lanes, column and
            // expression kernels, lane bindings and count maps.
            for (aggs, shape) in [
                (&column, (2, 7, 4, 0, 34, 0)),
                (&extended, (2, 7, 4, 2, 33, 1)),
                (&single, (0, 5, 2, 0, 20, 0)),
            ] {
                let refs: Vec<&BoundAggregate> = aggs.iter().collect();
                let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
                let bound = wp.bindings.iter().filter(|b| matches!(b, Binding::Lane { .. }));
                let one_load = wp.lanes.iter().filter(|l| l.column().is_some()).count();
                proptest::prop_assert_eq!(
                    (one_load, wp.lanes.len(), wp.kernels.len(), wp.exprs.len(), bound.count(), wp.maps.len()),
                    shape
                );
                let oracle = (|| -> Result<Vec<Value>> {
                    let mut set = WindowAggSet::new(&refs)?;
                    for e in &entries[first..] {
                        set.update_view(&codec.view(e.bytes(&arena))?)?;
                    }
                    if let Some(r) = req {
                        set.update(r)?;
                    }
                    Ok(set.outputs())
                })();
                for (order, entries) in [
                    (EntryOrder::Ascending, &entries),
                    (EntryOrder::ReversedScan, &newest_first),
                ] {
                    let (mut state, mut out) = (wp.new_state(), Vec::new());
                    let got = wp
                        .run(&mut state, entries, first, order, &arena, req, &codec, &mut || Ok(()))
                        .and_then(|()| wp.outputs_into(&state, &arena, req, &mut out));
                    // With NaNs canonical, as an output row holds them: the
                    // lanes and the interpreter add NaNs of different
                    // payloads in orders the compiler may commute.
                    proptest::prop_assert_eq!(
                        canonical(got.map(|()| out)),
                        canonical(oracle.clone()),
                        "{:?}", order
                    );
                }
            }
        }
    }
}
