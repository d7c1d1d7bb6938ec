//! Family 1 — column kernels: `sum/count/avg/min/max/stddev` over a bare
//! column, monomorphized by column type. The fold runs on `i64`/`f64`
//! running sums and extrema in plain machine words ([`KernelState`]), reading
//! each row's field at its baked offset; strings are byte ranges of the row
//! they were read from.
//!
//! The contract every caller uses: [`KernelSpec::step_row`] a stored row,
//! [`KernelSpec::step_request`] the request row (always last),
//! [`KernelSpec::retract_row`] a stored row where [`KernelSpec::retracts`] says
//! the fold is exactly invertible, and the bound projections
//! ([`KernelState::project`]). A kernel retracts when it keeps only the count and
//! the wrapping `i64` sum: both are groups under addition, so taking a row
//! out lands on exactly the state that never saw it. f64 sums, averages and
//! deviations depend on the order of addition, and extrema cannot forget a
//! row; those kernels re-fold.

use openmldb_types::{Error, Result, RowView, Value};

use super::field::{
    request_out_of_bounds, row_out_of_range, str_field, FieldRef, Fixed, FixedSink, KernelClass,
};
use crate::scratch::RowSource;
use crate::window::Projection;

/// Which running statistics a kernel maintains — the union of what its
/// bound projections need.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Track {
    /// The wrapping `i64` sum (`sum` over an integer class).
    int_sum: bool,
    /// The f64 sum and sum of squares (`sum` over a float class, `avg`,
    /// `stddev`).
    float_sums: bool,
    /// Running extrema (`min`/`max`).
    minmax: bool,
}

impl Track {
    pub(super) fn note(&mut self, class: KernelClass, proj: Projection) {
        match proj {
            Projection::Min | Projection::Max => self.minmax = true,
            Projection::Sum if class.is_int() => self.int_sum = true,
            Projection::Sum | Projection::Avg | Projection::Stddev => self.float_sums = true,
            Projection::Count => {}
        }
    }
}

/// One compiled per-column fold: everything the per-row loop needs,
/// resolved at deploy time.
#[derive(Debug, Clone)]
pub(super) struct KernelSpec {
    pub(super) field: FieldRef,
    track: Track,
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

    #[inline(always)]
    fn feed<'a>(&self, st: &'a mut KernelState) -> Feed<'a> {
        Feed {
            st,
            track: self.track,
        }
    }

    /// Step stored row `buf` into `st`. A fixed-width field is read at its
    /// baked offset; a STRING field through `view` (`None` only for
    /// fixed-only programs), its extrema addressed as a slice of row
    /// `home.0` of `rows`, whose bytes `home.1` contain it.
    #[inline(always)]
    pub(super) fn step_row(
        &self,
        st: &mut KernelState,
        buf: &[u8],
        view: Option<&RowView<'_>>,
        home: (usize, &[u8]),
        rows: &dyn RowSource,
    ) -> Result<()> {
        if self.field.null_in(buf) {
            return Ok(());
        }
        match view {
            Some(view) if self.field.class == KernelClass::Str => {
                if let Some(s) = str_field(view, self.field.col)? {
                    let (row, buf) = home;
                    let slot = || StrSlot::of(row, s.as_bytes(), buf);
                    st.feed_str(s, slot, rows, self.track)?;
                }
                Ok(())
            }
            _ => self.field.visit_fixed(buf, self.feed(st)),
        }
    }

    /// Step the request row's value of this column (always the last row
    /// stepped).
    #[inline]
    pub(super) fn step_request(
        &self,
        st: &mut KernelState,
        req: &[Value],
        rows: &dyn RowSource,
    ) -> Result<()> {
        if self.field.class != KernelClass::Str {
            if let Some(v) = self.field.requested(req)? {
                v.into_sink(self.feed(st));
            }
            return Ok(());
        }
        match req.get(self.field.col) {
            Some(Value::Null) => Ok(()),
            Some(v) => st.feed_str(v.as_str()?, || Ok(StrSlot::Request), rows, self.track),
            None => Err(request_out_of_bounds(self.field.col)),
        }
    }

    /// Whether [`retract_row`](Self::retract_row) is exact: the kernel keeps only
    /// the count and the wrapping `i64` sum.
    pub(super) fn retracts(&self) -> bool {
        !self.track.float_sums && !self.track.minmax
    }

    /// Take stored row `buf`, stepped earlier, back out of `st`. Exact only
    /// for a kernel that [`retracts`](Self::retracts).
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
    /// reads into `resolved` (`[min, max]`), from `rows` or the request.
    #[inline(always)]
    pub(super) fn resolve_str(
        &self,
        st: &KernelState,
        proj: Projection,
        [min, max]: &mut [Value; 2],
        rows: &dyn RowSource,
        request: Option<&[Value]>,
    ) -> Result<()> {
        let (slot, v) = match proj {
            _ if self.field.class != KernelClass::Str || st.count == 0 => return Ok(()),
            Projection::Min => (st.min_str, min),
            Projection::Max => (st.max_str, max),
            _ => return Ok(()),
        };
        *v = match slot {
            StrSlot::Request => request.and_then(|r| r.get(self.field.col)).cloned(),
            slot => std::str::from_utf8(StrSlot::resolve(slot, rows)?)
                .ok()
                .map(Value::string),
        }
        .ok_or_else(|| Error::Eval("string extremum is not a request or UTF-8 string".into()))?;
        Ok(())
    }
}

/// Where a running string extremum lives. A stored row's is a byte range of
/// that row, addressed by its index in the fold's [`RowSource`] (no copy
/// until the fold finishes); the request row is fed last, so a `Request`
/// slot can only be set after every stored candidate was compared.
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
    Request,
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

// The per-row integer fold. Mirrors `SharedNumeric::update` bit for bit:
// sums wrap (`wrapping_add`) with an f64 shadow for avg/stddev, and the
// extrema comparison runs in f64-promoted space exactly like
// `Value::total_cmp` does for every numeric pair — with the first-seen raw
// value kept on promotion ties (e.g. distinct i64s beyond 2^53).
impl KernelState {
    #[inline(always)]
    pub(super) fn feed_int(&mut self, v: i64, track: Track) {
        if track.int_sum {
            self.sum_i = self.sum_i.wrapping_add(v);
        }
        if track.float_sums {
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
    pub(super) fn feed_double(&mut self, v: f64, track: Track) {
        if track.float_sums {
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
        if track.float_sums {
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

    /// Feed `s`, a string whose extremum slot `slot` makes: a stored row's
    /// range, or the request row's.
    #[inline(always)]
    fn feed_str(
        &mut self,
        s: &str,
        slot: impl Fn() -> Result<StrSlot>,
        rows: &dyn RowSource,
        track: Track,
    ) -> Result<()> {
        self.count += 1;
        if !track.minmax {
            return Ok(());
        }
        let bytes = s.as_bytes();
        if self.count == 1 {
            let slot = slot()?;
            self.min_str = slot;
            self.max_str = slot;
            return Ok(());
        }
        // `&str` ordering is byte-lexicographic, so comparing raw bytes
        // reproduces `Value::total_cmp` on strings; strict comparisons keep
        // the first-seen instance on ties.
        if bytes < StrSlot::resolve(self.min_str, rows)? {
            self.min_str = slot()?;
        }
        if bytes > StrSlot::resolve(self.max_str, rows)? {
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
            Projection::Count => out.push(Value::Bigint(self.count as i64)),
            Projection::Sum => {
                if self.count == 0 {
                    out.push(Value::Null)
                } else if class.is_int() {
                    // Integral inputs keep the interpreter's `all_int`
                    // wrapping i64 sum.
                    out.push(Value::Bigint(self.sum_i))
                } else {
                    out.push(Value::Double(self.sum_f))
                }
            }
            Projection::Avg => {
                if self.count == 0 {
                    out.push(Value::Null)
                } else {
                    out.push(Value::Double(self.sum_f / self.count as f64))
                }
            }
            Projection::Stddev => {
                if self.count < 2 {
                    out.push(Value::Null)
                } else {
                    let n = self.count as f64;
                    let var = ((self.sum_sq - self.sum_f * self.sum_f / n) / (n - 1.0)).max(0.0);
                    out.push(Value::Double(var.sqrt()))
                }
            }
            Projection::Min => out.push(self.extremum(class, true, strs)?),
            Projection::Max => out.push(self.extremum(class, false, strs)?),
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

    /// The bytes a slot refers to, among `rows`. `Request` (set last) and
    /// `None` (count >= 1) cannot occur while stored rows are being fed;
    /// the fold's finish resolves `Request` itself.
    #[inline(always)]
    pub(super) fn resolve(self, rows: &dyn RowSource) -> Result<&[u8]> {
        match self {
            StrSlot::Row { row, off, len } => {
                let (off, end) = (off as usize, off as usize + len as usize);
                let bytes = rows.row_at(row as usize).ok().and_then(|r| r.get(off..end));
                bytes.ok_or_else(|| Error::Eval("string extremum range outside its row".into()))
            }
            StrSlot::None | StrSlot::Request => Err(Error::Eval(
                "string extremum slot resolved out of order".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::fold::Binding;
    use crate::program::testkit::*;
    use crate::program::WindowProgram;
    use openmldb_sql::plan::BoundAggregate;
    use openmldb_types::{CompactCodec, Row};
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
                    let (f, d) = (Value::Float(d as f32), Value::Double(d));
                    Row::new(vec![Value::string("k1"), ts, i, b, f, d, s])
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

    #[test]
    fn retract_contract_covers_only_count_and_integer_sums() {
        let codec = CompactCodec::new(schema());
        let retracts = |aggs: &[BoundAggregate]| {
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
            wp.kernels
                .iter()
                .map(KernelSpec::retracts)
                .collect::<Vec<_>>()
        };
        assert!(retracts(&exact()).iter().all(|r| *r));
        for inexact in [
            ("sum", 5),
            ("sum", 4),
            ("avg", 3),
            ("stddev", 2),
            ("min", 3),
            ("max", 6),
        ] {
            let aggs = [agg("count", inexact.1, 0), agg(inexact.0, inexact.1, 0)];
            assert_eq!(retracts(&aggs), [false], "{inexact:?}");
        }
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
                        true => spec.step_row(st, buf, Some(&view), (i, buf), &source),
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
            let projected = format!("{:?}", Ok::<_, openmldb_types::Error>(out));
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
}
