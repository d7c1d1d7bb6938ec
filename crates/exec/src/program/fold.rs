//! One window's aggregates compiled to kernels ([`WindowProgram::compile`])
//! and folded in one pass over the scanned rows ([`WindowProgram::fold_rows`]),
//! read where they lie ([`RowSource`]: a request's rows lent by the skiplist
//! under its pin, or an arena).
//!
//! Each aggregate binds to a kernel of one family — column, expression,
//! count map, generic; two or more kernels of one infallible f64 shape, bare
//! float columns' sums included, fold as one struct-of-arrays lane — and
//! the fold calls each family's contract: step rows, project the values.
//! There is one row format: the request row, encoded once, is row `n` of
//! the fold's rows ([`FoldRows`]), stepped after every stored row by the
//! same code. The serve loop is `feed_entries`: every
//! window gathers up to [`BLOCK`] rows in fold order, each validated once
//! (the 3-field header check, or one [`RowView`] when a kernel reads
//! through one), and steps each family over the whole block
//! (`feed_blocks` → `step_block`) — a column kernel in one loop of its own
//! over the block ([`KernelSpec::fold_block`]). The offline sweep steps the
//! kernels whose fold retracts exactly through the same loops, one row at a
//! time ([`WindowProgram::slide_row`]), and re-folds the rest through the
//! serve loop.

use openmldb_sql::plan::{BoundAggregate, BoundWindow, PhysExpr};
use openmldb_types::{CompactCodec, Result, RowView, Value};

use super::column::{ColumnFold, KernelSpec, KernelState};
use super::countmap::{CountMap, TopnSpec, TopnState};
use super::expression::{carve, ExprKernel, ExprLane, LaneState, Reg, NULL_REG};
use super::field::{
    binding_out_of_bounds, generic_state_mismatch, length_mismatch, row_out_of_range,
    truncated_row, version_mismatch, FieldRef, KernelClass,
};
use super::generic;
use super::sweep::Split;
use crate::scratch::{RowSource, ScanEntry};
use crate::window::{projection_for, Projection, WindowAggSet};

/// Rows an extended window's fold gathers and steps at a time — also the
/// deadline-probe cadence, so a block ends where a probe is due.
pub(super) const BLOCK: usize = 64;

/// Rows a column-only window's fold gathers at a time, a quarter of
/// [`BLOCK`], so a probe still falls where a block ends. Its kernel loops
/// gain nothing from longer blocks, and a 64-row gather array cost
/// `serve_short`'s two short windows more than their fold (EXPERIMENTS.md,
/// *Kernel-major column fold*).
const COLUMN_BLOCK: usize = BLOCK / 4;

/// Where one aggregate's output comes from, in aggregate order. `Lane` is
/// member `m` of lane `l`.
#[derive(Debug, Clone, Copy)]
pub(super) enum Binding {
    Column { k: usize, proj: Projection },
    Lane { l: u32, m: usize, proj: Projection },
    Expr { k: usize, proj: Projection },
    Distinct { map: usize },
    TopN { t: usize },
    Generic { pos: usize },
}

/// Pooled per-window fold state of every family (lives in the request
/// scratch so warm requests never allocate).
pub struct WindowState {
    pub(super) kernels: Vec<KernelState>,
    /// The lanes' sums, and one register file they share (sized to the
    /// largest lane).
    pub(super) lanes: Vec<LaneState>,
    lane_regs: Vec<f64>,
    exprs: Vec<KernelState>,
    /// Register file shared by the expression kernels, op-major: register
    /// `r`'s [`BLOCK`] rows at `r * BLOCK` (sized to the longest program).
    regs: Vec<Reg>,
    maps: Vec<CountMap>,
    topn: Vec<TopnState>,
    generic: Option<WindowAggSet>,
    /// The generic aggregates' outputs, staged once per fold.
    generic_out: Vec<Value>,
    /// Per column kernel, its STRING `[min, max]`, resolved from the rows
    /// once per fold (the rows need not outlive it).
    strs: Vec<[Value; 2]>,
    /// The request row [`WindowProgram::run`] encodes.
    request: Vec<u8>,
}

impl WindowState {
    pub fn reset(&mut self) {
        for k in self.kernels.iter_mut().chain(self.exprs.iter_mut()) {
            *k = KernelState::default();
        }
        self.lanes.iter_mut().for_each(LaneState::reset);
        for m in &mut self.maps {
            m.clear();
        }
        if let Some(g) = &mut self.generic {
            g.reset();
        }
        self.generic_out.clear();
    }
}

/// The rows one fold reads: the stored rows, then — when it joins the
/// frame — the encoded request row as row `n`, after every stored row in
/// either [`EntryOrder`].
pub(super) struct FoldRows<'a, R> {
    pub(super) stored: &'a R,
    pub(super) request: Option<&'a [u8]>,
}

impl<R: RowSource> RowSource for FoldRows<'_, R> {
    #[inline(always)]
    fn n_rows(&self) -> usize {
        self.stored.n_rows() + usize::from(self.request.is_some())
    }

    #[inline(always)]
    fn row_at(&self, i: usize) -> Result<&[u8]> {
        match self.request {
            Some(row) if i == self.stored.n_rows() => Ok(row),
            _ => self.stored.row_at(i),
        }
    }
}

/// Where the `k`th row a fold feeds lies in its [`FoldRows`]: the `take`
/// in-frame stored rows of `n` in ascending `(ts, seq)` order — an
/// ascending source's last ones, a reversed scan's first ones backwards —
/// then the request row, row `n`.
#[derive(Clone, Copy)]
struct FeedOrder {
    n: usize,
    take: usize,
    order: EntryOrder,
}

impl FeedOrder {
    #[inline(always)]
    fn index(self, k: usize) -> usize {
        match self.order {
            _ if k == self.take => self.n,
            EntryOrder::Ascending => self.n - self.take + k,
            EntryOrder::ReversedScan => self.take - 1 - k,
        }
    }
}

/// What a [`Block`] keeps of each row besides its bytes: nothing for a
/// fixed-only program, whose rows the 3-field header check validates
/// (`()`), or each row's validated view.
pub(super) trait Views<'a> {
    /// Validate `row`, row `j` of the block, for `wp`.
    fn check(
        &mut self,
        j: usize,
        row: &'a [u8],
        wp: &WindowProgram,
        codec: &'a CompactCodec,
    ) -> Result<()>;
    /// Row `j`'s view, if kept.
    fn view(&self, j: usize) -> Option<&RowView<'a>>;
}

impl<'a> Views<'a> for () {
    #[inline(always)]
    fn check(&mut self, _: usize, row: &[u8], wp: &WindowProgram, _: &CompactCodec) -> Result<()> {
        wp.check_header(row)
    }

    #[inline(always)]
    fn view(&self, _: usize) -> Option<&RowView<'a>> {
        None
    }
}

impl<'a, const N: usize> Views<'a> for [Option<RowView<'a>>; N] {
    fn check(
        &mut self,
        j: usize,
        row: &'a [u8],
        _: &WindowProgram,
        codec: &'a CompactCodec,
    ) -> Result<()> {
        let view = codec.view(row)?;
        *self.get_mut(j).ok_or_else(row_out_of_range)? = Some(view);
        Ok(())
    }

    fn view(&self, j: usize) -> Option<&RowView<'a>> {
        self.get(j)?.as_ref()
    }
}

/// One block of a fold: up to `N` in-frame rows, each validated once — its
/// bytes, and its view when the program reads through one. Row `j` is the
/// `start + j`th row fed.
pub(super) struct Block<'a, V, const N: usize> {
    len: usize,
    start: usize,
    feed: FeedOrder,
    bufs: [&'a [u8]; N],
    views: V,
}

impl<'a> Block<'a, [Option<RowView<'a>>; 1], 1> {
    /// Row `at` of a fold's rows, its bytes `buf` and its view, as a block
    /// of one: the row a sliding program adds.
    pub(super) fn one(at: usize, buf: &'a [u8], view: Option<RowView<'a>>) -> Self {
        // The first row fed past `take` = 0 stored rows is row `n`.
        let (n, take, order) = (at, 0, EntryOrder::Ascending);
        Block::new(FeedOrder { n, take, order }, [buf], [view], 1)
    }
}

impl<'a, V: Views<'a>, const N: usize> Block<'a, V, N> {
    fn new(feed: FeedOrder, bufs: [&'a [u8]; N], views: V, len: usize) -> Self {
        Block {
            len,
            start: 0,
            feed,
            bufs,
            views,
        }
    }

    /// The bytes of the first `end` rows.
    #[inline(always)]
    pub(super) fn bufs(&self, end: usize) -> &[&'a [u8]] {
        self.bufs.get(..end.min(self.len)).unwrap_or_default()
    }

    /// The first `end` rows as `(j, (index, bytes, view))`.
    #[inline(always)]
    pub(super) fn rows(
        &self,
        end: usize,
    ) -> impl Iterator<Item = (usize, (usize, &'a [u8], Option<&RowView<'a>>))> + '_ {
        (self.bufs(end).iter().enumerate()).map(|(j, &buf)| {
            (
                j,
                (self.feed.index(self.start + j), buf, self.views.view(j)),
            )
        })
    }
}

/// The deadline check a fold runs every [`BLOCK`] fed rows.
type Probe<'p> = &'p mut dyn FnMut() -> Result<()>;

/// Iteration order [`WindowProgram::run`] uses over the scan entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOrder {
    /// `entries` is already sorted ascending by `(ts, seq)`.
    Ascending,
    /// `entries` is in scan order with strictly descending timestamps —
    /// iterate in reverse to replay ascending order without sorting.
    ReversedScan,
}

/// A window's aggregates compiled to kernels of four families, plus the
/// frame guards hoisted out of the per-request path.
#[derive(Debug)]
pub struct WindowProgram {
    /// Family 1: bare-column kernels.
    pub(super) kernels: Vec<KernelSpec>,
    /// Family 2: expression kernels, and the lanes: one per infallible f64
    /// shape of two or more kernels, bare float columns' sums included.
    pub(super) exprs: Vec<ExprKernel>,
    pub(super) lanes: Vec<ExprLane>,
    /// Family 3: count maps, one per distinct column.
    pub(super) maps: Vec<FieldRef>,
    pub(super) topn: Vec<TopnSpec>,
    /// Family 4: the generic aggregates, in aggregate order.
    pub(super) generic: Vec<BoundAggregate>,
    /// Output bindings in aggregate order.
    pub(super) bindings: Vec<Binding>,
    /// Longest expression kernel program (register-file size).
    max_regs: usize,
    /// Whether any kernel reads a var-width field or evaluates through a
    /// [`RowView`](openmldb_types::RowView) (strings, generic aggregates) — those
    /// rows are validated once by the view; fixed-only programs read bytes
    /// directly after a 3-field header check.
    pub(super) needs_view: bool,
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
    /// What the program was lowered from — the window, its aggregates in
    /// order and the row codec — for [`split`](Self::split)
    /// to lower parts of it.
    window: BoundWindow,
    aggs: Vec<BoundAggregate>,
    codec: CompactCodec,
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
    /// surface, which the generic family reproduces). Aggregates over the
    /// same column share one kernel — the same grouping `WindowAggSet`'s
    /// cyclic binding performs.
    fn column_kernel(&mut self, col: usize, proj: Projection) -> Option<Binding> {
        let field = FieldRef::resolve(self.codec, col)?;
        if field.class == KernelClass::Str
            && matches!(proj, Projection::Sum | Projection::Avg | Projection::Stddev)
        {
            return None;
        }
        let (kernels, make) = (&mut self.kernels, || Some(KernelSpec::new(field)));
        let k = find_or_push(kernels, |s| s.field.col == col, make)?;
        kernels.get_mut(k)?.note(proj);
        Some(Binding::Column { k, proj })
    }

    /// Family 2: a projection function over a lowerable arithmetic tree.
    fn expr_kernel(&mut self, e: &PhysExpr, proj: Projection) -> Option<Binding> {
        let (codec, before) = (self.codec, self.generic.len());
        let lower = || ExprKernel::lower(codec, e, before);
        let k = find_or_push(&mut self.exprs, |k| k.expr == *e, lower)?;
        self.exprs.get_mut(k)?.note(proj);
        Some(Binding::Expr { k, proj })
    }

    /// Family 3: the count map over `col`, shared by every `distinct_count`
    /// and `topn_frequency` of that column.
    fn count_map(&mut self, col: usize) -> Option<usize> {
        let field = FieldRef::resolve(self.codec, col)?;
        find_or_push(&mut self.maps, |f| f.col == col, || Some(field))
    }

    /// Family 4.
    fn generic(&mut self, agg: &BoundAggregate) -> Binding {
        self.generic.push(agg.clone());
        Binding::Generic {
            pos: self.generic.len() - 1,
        }
    }

    fn bind_agg(&mut self, agg: &BoundAggregate) -> Binding {
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

/// The index of the first of `list` that is `same`, or of `make()` pushed.
fn find_or_push<T>(
    list: &mut Vec<T>,
    same: impl Fn(&T) -> bool,
    make: impl FnOnce() -> Option<T>,
) -> Option<usize> {
    if let Some(at) = list.iter().position(same) {
        return Some(at);
    }
    list.push(make()?);
    Some(list.len() - 1)
}

impl WindowProgram {
    /// Compile one window's aggregates over `codec`'s rows. Every aggregate
    /// lowers to one of the four kernel families; the only failure is a
    /// generic aggregate the interpreter's own [`WindowAggSet::new`] rejects,
    /// with its error. A deployed plan's windows compile through
    /// [`Program::compile`](super::Program::compile); the window union
    /// compiles its own.
    pub fn compile(
        window: &BoundWindow,
        aggs: &[&BoundAggregate],
        codec: &CompactCodec,
    ) -> Result<WindowProgram> {
        let wp = Self::lower(window, aggs, codec)?;
        generic::build_generic(&wp.generic)?;
        Ok(wp)
    }

    /// Lower `aggs`, each to a kernel of its family, then carve the lanes.
    /// Fails only when a lane's index would not fit its binding.
    fn lower(
        window: &BoundWindow,
        aggs: &[&BoundAggregate],
        codec: &CompactCodec,
    ) -> Result<WindowProgram> {
        let mut c = WindowCompiler {
            codec,
            kernels: Vec::new(),
            exprs: Vec::new(),
            maps: Vec::new(),
            topn: Vec::new(),
            generic: Vec::new(),
        };
        let mut bindings: Vec<Binding> = aggs.iter().map(|agg| c.bind_agg(agg)).collect();
        let lanes = carve(&mut c.kernels, &mut c.exprs, &mut bindings)?;
        let is_str = |f: &FieldRef| f.class == KernelClass::Str;
        Ok(WindowProgram {
            needs_view: c.kernels.iter().any(|k| is_str(&k.field))
                || c.maps.iter().any(is_str)
                || !c.generic.is_empty(),
            max_regs: c.exprs.iter().map(|k| k.ops.len()).max().unwrap_or(0),
            kernels: c.kernels,
            exprs: c.exprs,
            lanes,
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
            window: window.clone(),
            aggs: aggs.iter().map(|agg| (*agg).clone()).collect(),
            codec: codec.clone(),
        })
    }

    /// This program's aggregates parted in two programs: the ones that
    /// slide — a count map's, or a column kernel's count, integer sum or
    /// extremum (a [`Monotone`](super::column::Monotone) deque) — with the
    /// f64 sum family of column kernels and one-load lanes, which fold from
    /// columns ([`ColumnFold`]) into the same program's state; and the rest,
    /// which re-fold. A window whose sweep steps the anchor row out of turn
    /// (`EXCLUDE CURRENT_ROW`, `INSTANCE_NOT_IN_WINDOW`) re-folds its
    /// extrema; with `recompute` every aggregate re-folds.
    pub(super) fn split(&self, recompute: bool) -> Result<Split> {
        use Projection::{Max, Min};
        let w = &self.window;
        let out_of_turn = w.exclude_current_row || w.instance_not_in_window;
        let slid: Vec<bool> = (self.bindings.iter())
            .map(|b| match *b {
                _ if recompute => false,
                Binding::Column {
                    proj: Min | Max, ..
                } => !out_of_turn,
                Binding::Column { .. } | Binding::Distinct { .. } | Binding::TopN { .. } => true,
                Binding::Lane { l, .. } => {
                    (self.lanes.get(l as usize)).is_some_and(|l| l.column().is_some())
                }
                Binding::Expr { .. } | Binding::Generic { .. } => false,
            })
            .collect();
        let part = |slides: bool| {
            let aggs: Vec<&BoundAggregate> = (self.aggs.iter().zip(&slid))
                .filter_map(|(agg, s)| (*s == slides).then_some(agg))
                .collect();
            let lower = || Self::lower(&self.window, &aggs, &self.codec);
            (!aggs.is_empty()).then(lower).transpose()
        };
        let mut slide = part(true)?;
        let extrema = (slide.iter()).flat_map(|p| {
            p.bindings.iter().filter_map(|b| match *b {
                Binding::Column {
                    k,
                    proj: m @ (Min | Max),
                } => Some((k, p.kernels.get(k)?.field, m == Min)),
                _ => None,
            })
        });
        let extrema = extrema.collect();
        let columns = slide
            .as_ref()
            .and_then(|p| ColumnFold::of(&p.kernels, &p.lanes));
        // The deques and the column fold own the extrema and f64 sums: the
        // sliding steps keep only counts and integer sums.
        let stepped = (slide.iter_mut().flat_map(|p| &mut p.kernels))
            .map(KernelSpec::keep_retractable)
            .collect();
        Ok(Split {
            extrema,
            columns,
            stepped,
            slide,
            refold: part(false)?,
            slid,
        })
    }

    /// Fresh (pool-able) fold state sized for this program.
    pub fn new_state(&self) -> WindowState {
        let lane_regs = self.lanes.iter().map(|l| l.ops.len() * l.members).max();
        WindowState {
            kernels: vec![KernelState::default(); self.kernels.len()],
            lanes: self.lanes.iter().map(ExprLane::new_state).collect(),
            lane_regs: vec![0.0; lane_regs.unwrap_or(0)],
            exprs: vec![KernelState::default(); self.exprs.len()],
            regs: vec![NULL_REG; self.max_regs * BLOCK],
            maps: self.maps.iter().map(|_| CountMap::new()).collect(),
            topn: self.topn.iter().map(|_| TopnState::default()).collect(),
            // Built once at compile time, so `ok()` drops nothing; `run`
            // re-checks regardless.
            generic: generic::build_generic(&self.generic).ok().flatten(),
            generic_out: Vec::with_capacity(self.generic.len()),
            strs: vec![[Value::Null, Value::Null]; self.kernels.len()],
            request: Vec::new(),
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

    /// Run the fold over the scanned entries, rows of `arena`: the fold of
    /// [`fold_rows`](Self::fold_rows) over that source, `request` encoded
    /// into a buffer `state` keeps.
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
        let rows = (entries, arena);
        let Some(values) = request else {
            return self.fold_rows(state, &rows, first, order, None, codec, probe);
        };
        let mut row = std::mem::take(&mut state.request);
        let folded = codec
            .encode_into(values, &mut row)
            .and_then(|()| self.fold_rows(state, &rows, first, order, Some(&row), codec, probe));
        state.request = row;
        folded
    }

    /// Run the fold over `rows`, wherever they lie. `first` is the in-frame
    /// start from [`first_in_frame`](Self::first_in_frame) (over stored
    /// rows + request), `request` is the encoded request row iff it joins
    /// the frame at or past `first` — it is stepped last, as row `n`,
    /// matching its position in the reference's stable ts sort (its `ts` is
    /// the anchor, `>=` every stored row, and it is pushed last). `probe`
    /// runs every 64 fed rows, the request row included, so a deadline can
    /// interrupt long folds. Every value the fold returns is resolved before
    /// it ends: `rows` and `request` need not outlive it.
    #[allow(clippy::too_many_arguments)]
    pub fn fold_rows<R: RowSource>(
        &self,
        state: &mut WindowState,
        rows: &R,
        first: usize,
        order: EntryOrder,
        request: Option<&[u8]>,
        codec: &CompactCodec,
        probe: &mut dyn FnMut() -> Result<()>,
    ) -> Result<()> {
        if state.generic.is_some() == self.generic.is_empty() {
            return Err(generic_state_mismatch());
        }
        state.reset();
        let rows = FoldRows {
            stored: rows,
            request,
        };
        self.feed_entries(state, &rows, first, order, codec, probe)?;
        self.finish(state, &rows)
    }

    /// Step row `at` of `rows` into a sliding program's state, or (`add`
    /// false) retract it: the kernels [`split`](Self::split) slides — the
    /// column kernels marked in `stepped`, through the loops a block folds
    /// in, over this one row — with STRING keys kept as slices of that row.
    /// `buf` is its bytes, `view` their view when
    /// [`needs_view`](Self::needs_view).
    pub(super) fn slide_row(
        &self,
        state: &mut WindowState,
        (at, buf): (usize, &[u8]),
        view: Option<&RowView<'_>>,
        (rows, stepped): (&dyn RowSource, &[bool]),
        add: bool,
    ) -> Result<()> {
        let kernels = self.kernels.iter().zip(state.kernels.iter_mut());
        for ((spec, st), _) in kernels.zip(stepped).filter(|(_, &step)| step) {
            match add {
                true => (spec.fold_block(st, &Block::one(at, buf, view.copied()), 1, rows))
                    .map_err(|(_, e)| e)?,
                false => spec.retract_row(st, buf)?,
            }
        }
        for (field, map) in self.maps.iter().zip(state.maps.iter_mut()) {
            match add {
                true => map.tally_row(field, buf, view, (at, buf), rows)?,
                false => map.untally_row(field, buf, view, rows)?,
            }
        }
        Ok(())
    }

    /// Feed the in-frame stored rows in ascending `(ts, seq)` order, then
    /// the request row, a block at a time ([`BLOCK`] rows, or
    /// [`COLUMN_BLOCK`] in a window of column kernels and lanes only): each
    /// row validated once (one [`RowView`] when the program reads through
    /// one) as its block is gathered, then each family stepped over the
    /// block ([`step_block`](Self::step_block)). A row that fails
    /// validation ends its block: the rows before it are stepped first, so
    /// an error they raise still wins. `probe` runs every [`BLOCK`] fed
    /// rows, the request row included.
    pub(super) fn feed_entries<R: RowSource>(
        &self,
        state: &mut WindowState,
        rows: &FoldRows<'_, R>,
        first: usize,
        order: EntryOrder,
        codec: &CompactCodec,
        probe: &mut dyn FnMut() -> Result<()>,
    ) -> Result<()> {
        let n = rows.stored.n_rows();
        let take = n.saturating_sub(first);
        let feed = FeedOrder { n, take, order };
        let total = take + usize::from(rows.request.is_some());
        let args = (feed, total, codec, probe);
        let columns = self.exprs.is_empty() && self.maps.is_empty() && self.generic.is_empty();
        match (self.needs_view, columns) {
            (false, true) => self.feed_blocks::<_, _, COLUMN_BLOCK>(state, rows, args, ()),
            (false, false) => self.feed_blocks::<_, _, BLOCK>(state, rows, args, ()),
            (true, true) => {
                let views = [const { None }; COLUMN_BLOCK];
                self.feed_blocks::<_, _, COLUMN_BLOCK>(state, rows, args, views)
            }
            (true, false) => {
                let views = [const { None }; BLOCK];
                self.feed_blocks::<_, _, BLOCK>(state, rows, args, views)
            }
        }
    }

    #[inline(always)]
    fn feed_blocks<'a, R: RowSource, V: Views<'a>, const N: usize>(
        &self,
        state: &mut WindowState,
        rows: &'a FoldRows<'_, R>,
        (feed, total, codec, probe): (FeedOrder, usize, &'a CompactCodec, Probe<'_>),
        views: V,
    ) -> Result<()> {
        let mut block = Block::new(feed, [&[]; N], views, 0);
        while block.start < total {
            let mut gathered = Ok(());
            block.len = 0;
            let slots = block.bufs.iter_mut().take(total - block.start);
            for (j, buf) in slots.enumerate() {
                let row = rows.row_at(feed.index(block.start + j));
                match row.and_then(|row| block.views.check(j, row, self, codec).map(|()| row)) {
                    Ok(row) => (*buf, block.len) = (row, j + 1),
                    Err(e) => {
                        gathered = Err(e);
                        break;
                    }
                }
            }
            self.step_block(state, &block, rows)?;
            gathered?;
            block.start += block.len;
            if block.start.is_multiple_of(BLOCK) {
                probe()?;
            }
        }
        Ok(())
    }

    /// The 3-field header check that validates a row for a fixed-only
    /// program: long enough for every fixed field, its declared length its
    /// real one, this schema's version.
    #[inline(always)]
    fn check_header(&self, buf: &[u8]) -> Result<()> {
        let header = buf.first_chunk().filter(|_| buf.len() >= self.min_row_len);
        let Some(&[_, version, l0, l1, l2, l3]) = header else {
            return Err(truncated_row(buf.len(), self.min_row_len));
        };
        let declared = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if declared != buf.len() {
            return Err(length_mismatch(declared, buf.len()));
        }
        if version != self.schema_version {
            return Err(version_mismatch(version, self.schema_version));
        }
        Ok(())
    }

    // HOT: one block, family by family, each in the loop order that suits
    // it: the lanes row by row (one straight loop per run or op per row),
    // column kernels kernel by kernel ([`KernelSpec::fold_block`]),
    // expression kernels op by op ([`ExprKernel::eval_block`]), count maps
    // map by map, generic aggregates row by row over the views. A lane
    // cannot fail on a validated row, nor a fixed-width column kernel. The
    // error reported is the one the row-at-a-time fold meets first — the
    // earliest row, then family order, then kernel order: once a kernel
    // fails on row `end`, every later one steps only the rows before it. An
    // expression kernel's error still yields to a generic aggregate bound
    // before it that fails on the same row (`generic::first_error`), after
    // the generic family has stepped exactly the rows before it.
    fn step_block<'a, V: Views<'a>, const N: usize>(
        &self,
        state: &mut WindowState,
        block: &Block<'a, V, N>,
        rows: &dyn RowSource,
    ) -> Result<()> {
        let WindowState {
            kernels,
            lanes,
            lane_regs,
            exprs,
            regs,
            maps,
            generic,
            ..
        } = state;
        let (mut end, mut failed) = (block.len, None);
        if !self.lanes.is_empty() {
            for (j, buf) in block.bufs(end).iter().enumerate() {
                let mut laned = self.lanes.iter().zip(lanes.iter_mut());
                if let Err(e) = laned.try_for_each(|(l, st)| l.eval_row(st, lane_regs, buf)) {
                    (end, failed) = (j, Some((e, None)));
                    break;
                }
            }
        }
        for (spec, st) in self.kernels.iter().zip(kernels.iter_mut()) {
            if let Err((j, e)) = spec.fold_block(st, block, end, rows) {
                (end, failed) = (j, Some((e, None)));
            }
        }
        let bufs = block.bufs(end);
        for (spec, st) in self.exprs.iter().zip(exprs.iter_mut()) {
            let load = |f: &FieldRef, j: usize| match bufs.get(j) {
                Some(buf) => f.stored(buf),
                None => Err(row_out_of_range()),
            };
            if let Err((j, e)) = spec.eval_block(st, regs, end, load) {
                (end, failed) = (j, Some((e, Some(spec))));
            }
        }
        for (field, map) in self.maps.iter().zip(maps.iter_mut()) {
            for (j, (i, buf, view)) in block.rows(end) {
                if let Err(e) = map.tally_row(field, buf, view, (i, buf), rows) {
                    (end, failed) = (j, Some((e, None)));
                    break;
                }
            }
        }
        if generic.is_some() {
            for (j, (_, _, view)) in block.rows(end) {
                if let Err(e) = generic::step_view(generic, view) {
                    (end, failed) = (j, Some((e, None)));
                    break;
                }
            }
        }
        match failed {
            None => Ok(()),
            Some((e, None)) => Err(e),
            Some((e, Some(spec))) => Err(generic::first_error(
                e,
                spec,
                generic,
                block.views.view(end),
            )),
        }
    }

    /// Stage what the projections need once the last row is fed: each
    /// string extremum and `topn_frequency` selection resolved from `rows`
    /// (the rendered selection into its pooled buffer), and the generic
    /// aggregates' outputs.
    pub(super) fn finish(&self, state: &mut WindowState, rows: &dyn RowSource) -> Result<()> {
        let WindowState {
            kernels,
            maps,
            topn,
            generic,
            generic_out,
            strs,
            ..
        } = state;
        // Only the extrema a binding projects: one string each, as before.
        for b in &self.bindings {
            let Binding::Column { k, proj } = *b else {
                continue;
            };
            match (self.kernels.get(k), kernels.get(k), strs.get_mut(k)) {
                (Some(spec), Some(st), Some(resolved)) => {
                    spec.resolve_str(st, proj, resolved, rows)?
                }
                _ => return Err(binding_out_of_bounds()),
            }
        }
        for (spec, out) in self.topn.iter().zip(topn.iter_mut()) {
            match (self.maps.get(spec.map), maps.get(spec.map)) {
                (Some(field), Some(map)) => out.render(field, map, spec.n, rows)?,
                _ => return Err(binding_out_of_bounds()),
            }
        }
        generic_out.clear();
        if let Some(set) = generic {
            set.outputs_into(generic_out);
        }
        Ok(())
    }

    /// Project the fold state into output values, one per bound aggregate,
    /// in aggregate order. The fold resolved every value it returns, so
    /// `arena` and `request` are not read again.
    pub fn outputs_into(
        &self,
        state: &WindowState,
        _arena: &[u8],
        _request: Option<&[Value]>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        // Every arm pushes its own value instead of building one `Value`
        // per binding and pushing it after the `match`: measured end to
        // end, that form is 5.8% slower on a 211-output request
        // (EXPERIMENTS.md, "Aggregate-granular compilation").
        for b in &self.bindings {
            match *b {
                Binding::Column { k, proj } => match (self.kernels.get(k), state.kernels.get(k)) {
                    (Some(spec), Some(st)) => {
                        st.project(spec.field.class, proj, state.strs.get(k), out)?
                    }
                    _ => return Err(binding_out_of_bounds()),
                },
                Binding::Lane { l, m, proj } => match state.lanes.get(l as usize) {
                    Some(st) => st.project_member(m, proj, out)?,
                    None => return Err(binding_out_of_bounds()),
                },
                Binding::Expr { k, proj } => match (self.exprs.get(k), state.exprs.get(k)) {
                    (Some(spec), Some(st)) => spec.project_into(st, proj, out)?,
                    _ => return Err(binding_out_of_bounds()),
                },
                Binding::Distinct { map } => match state.maps.get(map) {
                    Some(m) => out.push(m.distinct()),
                    None => return Err(binding_out_of_bounds()),
                },
                Binding::TopN { t } => match state.topn.get(t) {
                    Some(t) => out.push(t.topn()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::testkit::*;
    use openmldb_sql::BinaryOp;
    use openmldb_types::codec::RowCodec;
    use openmldb_types::{Error, Row};

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
        assert_eq!(expected, got);
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
        assert_eq!(expected, got);

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
                Value::Null,
            ]));
        }
        let aggs = vec![agg("sum", 2, 0), agg("min", 2, 0), agg("count", 6, 0)];
        let (expected, got) = fold_both(&aggs, &nulls, None);
        assert_eq!(expected, got);
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
        assert_eq!(got_asc, got_rev);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 96 })]

        /// Hostile stored bytes through the only reader a served window has:
        /// a truncated, bit-flipped or length-patched encoded row, sitting in
        /// the arena between two intact ones (an over-read would land in a
        /// neighbour), through one program per kernel family, one with a
        /// one-load lane and one with an expression lane (a row short of a
        /// lane's span is an error). `run` answers with a value or a typed
        /// error — a truncated or mis-declared length always with the error
        /// — and never panics.
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
            let affine = |c| bin(Add, bin(Mul, col(c), lit(Value::Double(2.0))), lit(Value::Double(1.0)));
            let families = [
                vec![agg("sum", 3, 0), agg("min", 2, 0), agg("avg", 5, 0), agg("max", 4, 0)],
                vec![agg_of("sum", vec![bin(Mul, col(3), col(2))]), agg_of("avg", vec![bin(Div, col(5), col(4))])],
                vec![agg("distinct_count", 6, 0), agg_of("topn_frequency", vec![col(3), lit(Value::Int(2))])],
                vec![agg_of("median", vec![col(5)]), agg_of("count_where", vec![col(6), bin(Gt, col(2), lit(Value::Int(0)))])],
                vec![agg("min", 6, 0), agg("max", 6, 0)],
                vec![agg("sum", 5, 0), agg("avg", 7, 0), agg("stddev", 5, 0), agg("count", 4, 0), agg("avg", 4, 0)],
                vec![agg_of("sum", vec![affine(5)]), agg_of("stddev", vec![affine(5)]), agg_of("avg", vec![affine(7)])],
            ];
            let w = window();
            // Per family, its lanes and its one-load lanes: two DOUBLE sums
            // (a lone FLOAT one stays a kernel), and two affine expressions.
            let lanes = [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 1), (1, 0)];
            for (aggs, lanes) in families.iter().zip(lanes) {
                let refs: Vec<&BoundAggregate> = aggs.iter().collect();
                let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
                let one_load = wp.lanes.iter().filter(|l| l.column().is_some()).count();
                proptest::prop_assert_eq!((wp.lanes.len(), one_load), lanes);
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

    /// A row of `schema()` at `ts`, its columns drawn from `bits` and `d`:
    /// NULLs, repeated values, any double (NaN, infinities), and strings of every length up to 4 (some a
    /// prefix of another).
    fn random_row(ts: i64, bits: u64, d: f64) -> Row {
        let pick = |shift: u32, n: u64| (bits >> shift) % n;
        let s = match pick(0, 6) {
            0 => Value::Null,
            len => Value::string(
                (0..len - 1)
                    .map(|j| char::from(b'a' + pick(8 + 2 * j as u32, 4) as u8))
                    .collect::<String>(),
            ),
        };
        Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(ts),
            match pick(20, 5) {
                0 => Value::Null,
                _ => Value::Int(pick(24, 2001) as i32 - 1000),
            },
            Value::Bigint(pick(36, 2_000_001) as i64 - 1_000_000),
            Value::Float(pick(40, 64) as f32 * 0.25 - 8.0),
            match pick(50, 5) {
                0 => Value::Null,
                1 => Value::Double(pick(56, 4) as f64),
                2 => Value::Double(d),
                _ => Value::Double(pick(44, 4001) as f64 * 0.125 - 250.0),
            },
            s,
            match pick(60, 4) {
                0 => Value::Null,
                _ => Value::Double(d * 0.5),
            },
        ])
    }

    /// The window program's answer over `rows` and `request`, or its error.
    fn answer(
        wp: &WindowProgram,
        fold: impl FnOnce(&mut WindowState) -> Result<()>,
        project: impl FnOnce(&WindowState, &mut Vec<Value>) -> Result<()>,
    ) -> Result<Vec<Value>> {
        let mut state = wp.new_state();
        let mut out = Vec::new();
        let got = fold(&mut state).and_then(|()| project(&state, &mut out));
        got.map(|()| out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64 })]

        /// The engine's zero-copy fold: rows scanned under one epoch pin —
        /// borrowed from two in-memory tables, copied from a disk table's
        /// block reads — and folded through `fold_rows` where they lie give
        /// the answer `run` gives over an arena copy of the same rows, and
        /// the interpreter's over the decoded rows, bit for bit: every kernel
        /// family, a random newest-first prefix, both fold orders, ts ties
        /// and union interleaves.
        #[test]
        fn pinned_fold_equals_arena_fold(
            stored in proptest::collection::vec(
                (0i64..12, 0usize..3, proptest::prelude::any::<i64>(), proptest::prelude::any::<f64>()),
                0..40,
            ),
            prefix in 0usize..101,
            skip in 0usize..41,
            request in (proptest::prelude::any::<bool>(), proptest::prelude::any::<i64>(), proptest::prelude::any::<f64>()),
        ) {
            use openmldb_storage::sync::epoch;
            use openmldb_storage::{DataTable, DiskTable, IndexSpec, MemTable, Ttl};
            use openmldb_types::KeyValue;
            use openmldb_storage::ScanBuffers;
            use BinaryOp::*;

            let codec = CompactCodec::new(schema());
            let index = || vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(1),
                ttl: Ttl::Unlimited,
            }];
            let tables: [Box<dyn DataTable>; 3] = [
                Box::new(MemTable::new("a", schema(), index()).expect("table")),
                Box::new(MemTable::new("b", schema(), index()).expect("table")),
                Box::new(DiskTable::new("c", schema(), index()).expect("table")),
            ];
            for &(ts, table, bits, d) in &stored {
                tables[table].put(&random_row(ts, bits as u64, d)).expect("put");
            }
            let request = match request {
                (true, bits, d) => Some(random_row(12, bits as u64, d)),
                (false, ..) => None,
            };
            let key = [KeyValue::from(&Value::string("k1"))];

            // One scan of every table under one pin, as the engine scans a
            // union: kept as pinned entries, and copied into an arena.
            let guard = epoch::pin();
            let mut buffers = ScanBuffers::default();
            let mut scan = buffers.pin_scan(&guard);
            let (mut arena, mut entries) = (Vec::new(), Vec::new());
            for t in &tables {
                t.scan_window_pinned(&guard, 0, &key, i64::MIN, i64::MAX, None, &mut |ts, row| {
                    let bytes = row.bytes();
                    let (seq, start) = (entries.len(), arena.len());
                    entries.push(ScanEntry { ts, seq, start, len: bytes.len() });
                    arena.extend_from_slice(bytes);
                    scan.keep(ts, row);
                    true
                }).expect("scan");
            }
            let descending = entries.windows(2).all(|w| w[0].ts > w[1].ts);
            // A member folds a newest-first prefix of the scan, from `first`.
            let n = entries.len() * prefix / 100;
            let entries = &mut entries[..n];
            let first = skip.min(n);
            let req = request.as_ref().map(|r| r.values());
            let encoded = request.as_ref().map(|r| codec.encode(r).expect("encode"));

            let topn = |c: usize, n: i64| agg_of("topn_frequency", vec![col(c), lit(Value::Bigint(n))]);
            let positive = bin(Gt, col(2), lit(Value::Int(0)));
            let column = vec![
                agg("sum", 5, 0), agg("sum", 2, 0), agg("sum", 3, 0), agg("min", 2, 0),
                agg("max", 5, 0), agg("avg", 4, 0), agg("stddev", 5, 0), agg("count", 2, 0),
            ];
            let strings = vec![agg("min", 6, 0), agg("max", 6, 0), agg("count", 6, 0), agg("max", 3, 0)];
            let exprs = vec![
                agg_of("sum", vec![bin(Mul, col(3), col(2))]),
                agg_of("avg", vec![bin(Div, col(5), col(4))]),
            ];
            let maps = vec![
                agg("distinct_count", 6, 0), topn(6, 3),
                agg("distinct_count", 5, 0), topn(5, 2),
            ];
            let generic = vec![
                agg_of("median", vec![col(5)]),
                agg_of("count_where", vec![col(6), positive]),
            ];
            let mixed: Vec<BoundAggregate> =
                [&column, &strings, &exprs, &maps, &generic].into_iter().flatten().cloned().collect();

            let w = window();
            let programs: Vec<WindowProgram> = [&column, &strings, &exprs, &maps, &generic, &mixed]
                .into_iter()
                .map(|aggs| WindowProgram::compile(&w, &aggs.iter().collect::<Vec<_>>(), &codec))
                .collect::<Result<_>>()
                .expect("compiles");
            // A strictly descending scan replays unsorted; then (like any
            // scan) it is sorted by `(ts, seq)` in place.
            let orders: &[EntryOrder] = if descending {
                &[EntryOrder::ReversedScan, EntryOrder::Ascending]
            } else {
                &[EntryOrder::Ascending]
            };
            for &order in orders {
                if order == EntryOrder::Ascending {
                    scan.sort_prefix(n);
                    entries.sort_unstable_by_key(|e| (e.ts, e.seq));
                }
                // The interpreter's input: the in-frame rows, ascending.
                let mut sorted = entries.to_vec();
                sorted.sort_unstable_by_key(|e| (e.ts, e.seq));
                for (wp, aggs) in programs.iter().zip([&column, &strings, &exprs, &maps, &generic, &mixed]) {
                    let probe = &mut || Ok(());
                    let pinned = answer(
                        wp,
                        |st| wp.fold_rows(st, &scan.prefix(n), first, order, encoded.as_deref(), &codec, probe),
                        |st, out| wp.outputs_into(st, &[], None, out),
                    );
                    let copied = answer(
                        wp,
                        |st| wp.run(st, entries, first, order, &arena, req, &codec, &mut || Ok(())),
                        |st, out| wp.outputs_into(st, &arena, req, out),
                    );
                    proptest::prop_assert_eq!(&pinned, &copied);
                    let oracle = (|| -> Result<Vec<Value>> {
                        let mut set = WindowAggSet::new(&aggs.iter().collect::<Vec<_>>())?;
                        for e in &sorted[first..] {
                            set.update_view(&codec.view(e.bytes(&arena))?)?;
                        }
                        if let Some(r) = req {
                            set.update(r)?;
                        }
                        Ok(set.outputs())
                    })();
                    proptest::prop_assert_eq!(&pinned, &oracle);
                }
            }
        }
    }

    /// A row of `schema()` at `ts` for the multi-block fold: NULLs, round
    /// doubles (count-map keys), repeated strings — and, picked by `fail`,
    /// a BIGINT whose `* 3` overflows (an expression kernel's error), an
    /// INT whose `+ (i64::MAX - 1000)` overflows (a generic aggregate's), or
    /// both on the same row.
    fn block_row(ts: i64, bits: u64, fail: u8) -> Row {
        let pick = |shift: u32, n: u64| (bits >> shift) % n;
        let (expr_fails, generic_fails) = (fail & 1 != 0, fail & 2 != 0);
        let i = match pick(0, 6) {
            0 => Value::Null,
            _ if generic_fails => Value::Int(1_001 + pick(4, 1_000) as i32),
            _ => Value::Int(pick(8, 2_001) as i32 - 1_000),
        };
        let b = match expr_fails {
            true => i64::MAX / 3 + 1 + pick(20, 1_000) as i64,
            false => pick(20, 2_000_001) as i64 - 1_000_000,
        };
        let words = ["a", "bb", "a", "ccc"];
        Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(ts),
            i,
            Value::Bigint(b),
            Value::Float(pick(44, 64) as f32 * 0.5),
            match pick(50, 5) {
                0 => Value::Null,
                d => Value::Double(pick(53, 64) as f64 * 0.25 + d as f64),
            },
            match pick(60, 5) {
                4 => Value::Null,
                w => Value::string(words[w as usize]),
            },
            match pick(30, 7) {
                0 => Value::Null,
                e => Value::Double(pick(36, 64) as f64 * 0.75 - e as f64),
            },
        ])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128 })]

        /// Extended windows fold a block at a time: windows of 0–300 rows
        /// cross several blocks (and the request row may open a new one),
        /// in both entry orders, with every family and an expression lane in
        /// one window and expression and generic errors at random rows, in
        /// random aggregate order: the lane, stepped first, cannot fail, so
        /// it changes no error. The answer — or the error — equals the
        /// interpreter's fold of the same rows, in Debug form, and `probe`
        /// runs once per 64 rows fed before the first failing row, the
        /// request row included: as often as the row-at-a-time fold ran it.
        #[test]
        fn block_fold_equals_interpreter_across_blocks(
            stored in proptest::collection::vec(
                (proptest::prelude::any::<i64>(), 0u16..1_000),
                0..301,
            ),
            rate in 0u16..30,
            keep in 0usize..150,
            request in (proptest::prelude::any::<bool>(), proptest::prelude::any::<i64>(), 0u16..1_000),
            rotate in 0usize..64,
        ) {
            use openmldb_sql::functions::lookup;
            use openmldb_sql::plan::PhysExpr;
            use BinaryOp::*;

            let codec = CompactCodec::new(schema());
            // A row fails with probability `rate - 10` per mille (none for a
            // third of the cases), in one of three ways.
            let fail = |roll: u16| match roll < rate.saturating_sub(10) {
                true => 1 + (roll % 3) as u8,
                false => 0,
            };
            let rows: Vec<Row> = (stored.iter().enumerate())
                .map(|(ts, &(bits, roll))| block_row(ts as i64, bits as u64, fail(roll)))
                .collect();
            let request = match request {
                (true, bits, roll) => Some(block_row(rows.len() as i64, bits as u64, fail(roll))),
                (false, ..) => None,
            };
            let req = request.as_ref().map(|r| r.values());
            let (entries, arena) = arena_of(&rows, &codec);
            let newest_first: Vec<ScanEntry> = entries.iter().rev().copied().collect();
            // The newest `keep`% of the rows are in frame (all of them in a
            // third of the cases).
            let first = rows.len() - rows.len() * keep.min(100) / 100;

            let abs_of = |e: PhysExpr| PhysExpr::ScalarCall {
                func: lookup("abs").expect("builtin"),
                args: vec![e],
            };
            let big = lit(Value::Bigint(i64::MAX - 1_000));
            let mut aggs = vec![
                agg("sum", 5, 0), agg("min", 2, 0), agg("max", 3, 0), agg("avg", 4, 0),
                agg("stddev", 5, 0), agg("count", 2, 0), agg("sum", 3, 0),
                agg("min", 6, 0), agg("max", 6, 0),
                agg_of("sum", vec![bin(Mul, col(3), lit(Value::Bigint(3)))]),
                agg_of("avg", vec![bin(Add, bin(Mul, col(5), lit(Value::Double(2.0))), lit(Value::Double(1.0)))]),
                agg_of("max", vec![bin(Div, col(2), col(4))]),
                // With the `avg` above, one expression lane between the
                // fallible expression and generic kernels.
                agg_of("stddev", vec![bin(Add, bin(Mul, col(7), lit(Value::Double(2.0))), lit(Value::Double(1.0)))]),
                agg("distinct_count", 5, 0), agg("distinct_count", 3, 0),
                agg_of("topn_frequency", vec![col(6), lit(Value::Bigint(3))]),
                agg_of("median", vec![col(5)]),
                agg_of("sum", vec![abs_of(bin(Add, col(2), big))]),
                agg_of("count_where", vec![col(6), bin(Gt, col(2), lit(Value::Int(0)))]),
            ];
            let turn = rotate % aggs.len();
            aggs.rotate_left(turn);
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
            proptest::prop_assert!(wp.needs_view);
            proptest::prop_assert_eq!((wp.lanes.len(), wp.exprs.len()), (1, 2));

            // The interpreter over the in-frame rows, ascending, then the
            // request row; `clean` counts the rows it took before the first
            // failing one.
            let mut clean = 0usize;
            let oracle = (|| -> Result<Vec<Value>> {
                let mut set = WindowAggSet::new(&refs)?;
                for e in &entries[first..] {
                    set.update_view(&codec.view(e.bytes(&arena))?)?;
                    clean += 1;
                }
                if let Some(r) = req {
                    set.update(r)?;
                    clean += 1;
                }
                Ok(set.outputs())
            })();
            for (order, entries) in [
                (EntryOrder::Ascending, &entries),
                (EntryOrder::ReversedScan, &newest_first),
            ] {
                let mut probes = 0usize;
                let got = answer(
                    &wp,
                    |st| {
                        let mut probe = || {
                            probes += 1;
                            Ok(())
                        };
                        wp.run(st, entries, first, order, &arena, req, &codec, &mut probe)
                    },
                    |st, out| wp.outputs_into(st, &arena, req, out),
                );
                proptest::prop_assert_eq!(&got, &oracle);
                proptest::prop_assert_eq!(probes, clean / BLOCK, "{:?} over {} rows", order, clean);
            }
        }
    }

    /// Each value class's palettes for the kernel-major fold's oracle, by
    /// column of [`class_schema`]: values that tie, NaNs of both signs and
    /// payloads, signed zeros, infinities, the integer extremes, BIGINTs
    /// that tie once promoted past ±2^53, and NULL. The first palette
    /// mixes them all.
    fn class_palettes(col: usize) -> Vec<Vec<Value>> {
        use Value::{Bigint, Double, Float, Int, Null, Timestamp};
        let p53 = 1i64 << 53;
        let wide = |make: fn(i64) -> Value| {
            let mut palettes: Vec<Vec<Value>> = [
                vec![p53, p53 + 1, p53 - 1],
                vec![-p53, -p53 - 1, -p53 + 1],
                vec![i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1],
                vec![0, -3, 7],
            ]
            .into_iter()
            .map(|p| p.into_iter().map(make).collect())
            .collect();
            palettes.push(vec![Null]);
            palettes
        };
        let nan = |bits: u64| Double(f64::from_bits(bits));
        let nan32 = |bits: u32| Float(f32::from_bits(bits));
        let mut palettes = match col {
            2 => vec![
                vec![Int(i32::MIN), Int(i32::MAX), Int(0), Int(-1)],
                vec![Int(i32::MAX), Null],
                vec![Int(5), Int(-5)],
                vec![Null],
            ],
            3 => wide(Bigint),
            4 => wide(Timestamp),
            5 => vec![
                vec![Float(0.0), Float(-0.0)],
                vec![Float(-f32::NAN)],
                vec![Float(f32::NAN), nan32(0x7f80_0001), nan32(0xff80_0001)],
                vec![
                    Float(f32::INFINITY),
                    Float(f32::NEG_INFINITY),
                    Float(f32::MAX),
                    Float(f32::MIN),
                    Null,
                ],
            ],
            6 => vec![
                vec![Double(0.0), Double(-0.0), Null],
                vec![Double(-f64::NAN)],
                vec![Double(f64::NAN)],
                vec![
                    Double(f64::NAN),
                    Double(-f64::NAN),
                    nan(0x7ff0_0000_0000_0001),
                    nan(0xfff8_0000_0000_0001),
                ],
                vec![
                    Double(f64::INFINITY),
                    Double(f64::NEG_INFINITY),
                    Double(f64::MAX),
                    Double(f64::MIN),
                ],
                vec![
                    Double(f64::MIN_POSITIVE),
                    Double(5e-324),
                    Double(1.25),
                    Null,
                ],
                vec![Null],
            ],
            _ => vec![
                vec![
                    Value::string(""),
                    Value::string("a"),
                    Value::string("ab"),
                    Null,
                ],
                vec![Value::string("b"), Value::string("a")],
                vec![Value::string("zz")],
                vec![Null],
            ],
        };
        let all = palettes.concat();
        palettes.insert(0, all);
        palettes
    }

    /// `k, ts`, then a nullable column of every value class: INT, BIGINT,
    /// TIMESTAMP, FLOAT, DOUBLE, STRING.
    fn class_schema() -> openmldb_types::Schema {
        use openmldb_types::{ColumnDef, DataType};
        let cols = [
            ("i", DataType::Int),
            ("b", DataType::Bigint),
            ("t", DataType::Timestamp),
            ("f", DataType::Float),
            ("d", DataType::Double),
            ("s", DataType::String),
        ];
        let mut defs = vec![
            ColumnDef::new("k", DataType::String).not_null(),
            ColumnDef::new("ts", DataType::Timestamp).not_null(),
        ];
        defs.extend(cols.into_iter().map(|(name, ty)| ColumnDef::new(name, ty)));
        openmldb_types::Schema::new(defs).expect("valid schema")
    }

    /// `answer` as it must equal the interpreter's, by `Value`'s `==`:
    /// a DOUBLE NaN that arithmetic made canonical — Rust leaves its sign
    /// and payload open, and release builds commute additions — while an
    /// extremum's NaN, one of the values read, and every FLOAT keep their
    /// bits.
    fn exact(answer: Result<Vec<Value>>, aggs: &[BoundAggregate]) -> Result<Vec<Value>> {
        let bits = |(v, agg): (Value, &BoundAggregate)| match v {
            Value::Double(_) if !matches!(agg.func.name, "min" | "max") => v.canonical_nan(),
            v => v,
        };
        answer.map(|vs| vs.into_iter().zip(aggs).map(bits).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 48 })]

        /// Expression kernels' extrema fold through the kernel-state loop a
        /// block at a time, from their result registers: `min`, `max` (one
        /// or both) and `count` of integer and f64 expressions over NULL,
        /// NaNs of both signs, ±0.0, ±inf and BIGINTs that tie past ±2^53,
        /// 0–200 rows, both entry orders, the request row in or out. The
        /// answer equals the interpreter's, type for type and bit for bit,
        /// NaNs included (an extremum keeps the NaN it read).
        #[test]
        fn expression_extrema_block_fold_equals_interpreter(
            stored in proptest::collection::vec(proptest::prelude::any::<i64>(), 0..201),
            request in (proptest::prelude::any::<bool>(), proptest::prelude::any::<i64>()),
            seed in 0usize..64,
        ) {
            use BinaryOp::{Add, Mul, Sub};
            let codec = CompactCodec::new(class_schema());
            let palettes: Vec<Vec<Vec<Value>>> = (2..8).map(class_palettes).collect();
            let row = |ts: usize, bits: u64| {
                let mut values = vec![Value::string("k1"), Value::Timestamp(ts as i64)];
                values.extend((0..6).map(|c| {
                    let pal = &palettes[c][(seed + c) % palettes[c].len()];
                    pal[(bits >> (8 * c)) as usize % pal.len()].clone()
                }));
                Row::new(values)
            };
            let rows: Vec<Row> = stored.iter().enumerate().map(|(ts, &b)| row(ts, b as u64)).collect();
            let req = (request.0).then(|| row(rows.len(), request.1 as u64));
            let req = req.as_ref().map(|r| r.values());
            let exprs = [
                bin(Add, col(3), lit(Value::Bigint(0))),
                bin(Sub, col(4), lit(Value::Int(0))),
                bin(Mul, col(2), lit(Value::Int(1))),
                bin(Mul, col(6), lit(Value::Double(1.0))),
                bin(Mul, col(5), lit(Value::Double(1.0))),
            ];
            let mut aggs = Vec::new();
            for (e, expr) in exprs.into_iter().enumerate() {
                let bound = [["min"].as_slice(), &["max"], &["min", "max"]][(seed + e) % 3];
                for f in bound.iter().chain(&["count"]) {
                    aggs.push(agg_of(f, vec![expr.clone()]));
                }
            }
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
            proptest::prop_assert_eq!((wp.exprs.len(), wp.lanes.len(), wp.kernels.len()), (5, 0, 0));
            let (entries, arena) = arena_of(&rows, &codec);
            let newest_first: Vec<ScanEntry> = entries.iter().rev().copied().collect();
            let oracle = (|| {
                let mut set = WindowAggSet::new(&refs)?;
                for e in &entries {
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
                    .run(&mut state, entries, 0, order, &arena, req, &codec, &mut || Ok(()))
                    .and_then(|()| wp.outputs_into(&state, &arena, req, &mut out))
                    .map(|()| out);
                proptest::prop_assert_eq!(&got, &oracle, "{:?}", order);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 32 })]

        /// Column-only windows fold a block at a time, kernel by kernel:
        /// frames of 130–200 rows (nine to thirteen blocks) cut by `ROWS` or
        /// `MAXSIZE` (so the fold starts past row 0), both entry orders,
        /// the request row in or out of frame. Each case binds all 64
        /// subsets of {min, max, sum, count, avg, stddev} to every numeric
        /// class (a STRING column its {min, max, count} part), over every
        /// palette of [`class_palettes`]. The answer equals the
        /// interpreter's, type for type and bit for bit (see [`exact`]). In
        /// one program of four, a row of the second block has a bad header: the answer is
        /// the error its validation gives.
        #[test]
        fn column_block_fold_equals_interpreter(
            stored in proptest::collection::vec(proptest::prelude::any::<i64>(), 210..261),
            request in (proptest::prelude::any::<bool>(), proptest::prelude::any::<i64>()),
            frame in (proptest::prelude::any::<bool>(), 130usize..201),
            bad in 0..COLUMN_BLOCK,
            seed in 0usize..64,
        ) {
            let codec = CompactCodec::new(class_schema());
            let palettes: Vec<Vec<Vec<Value>>> = (2..8).map(class_palettes).collect();
            let (rows_frame, size) = frame;
            let mut w = window();
            match rows_frame {
                true => w.frame = openmldb_sql::ast::Frame::Rows { preceding: size as u64 - 1 },
                false => w.maxsize = Some(size),
            }
            const STATS: [&str; 6] = ["min", "max", "sum", "count", "avg", "stddev"];
            for t in 0..64 {
                let value = |c: usize, bits: u64| {
                    let pal = &palettes[c][(t + seed + c) % palettes[c].len()];
                    pal[(bits >> (8 * c)) as usize % pal.len()].clone()
                };
                let row = |ts: usize, bits: u64| {
                    let mut values = vec![Value::string("k1"), Value::Timestamp(ts as i64)];
                    values.extend((0..6).map(|c| value(c, bits)));
                    Row::new(values)
                };
                let rows: Vec<Row> = stored.iter().enumerate().map(|(ts, &bits)| row(ts, bits as u64)).collect();
                let req = (request.0).then(|| row(rows.len(), request.1 as u64));
                let req = req.as_ref().map(|r| r.values());
                let mut aggs = Vec::new();
                for c in 0..6 {
                    let subset = ((t + 13 * c) % 64) & if c == 5 { 0b1011 } else { 0b11_1111 };
                    let bound = (0..6).filter(|s| subset >> s & 1 != 0);
                    aggs.extend(bound.map(|s| agg(STATS[s], c + 2, 0)));
                }
                let refs: Vec<&BoundAggregate> = aggs.iter().collect();
                let wp = WindowProgram::compile(&w, &refs, &codec).expect("compiles");
                proptest::prop_assert!(wp.exprs.is_empty() && wp.maps.is_empty() && wp.generic.is_empty());

                let (mut entries, mut arena) = arena_of(&rows, &codec);
                let first = wp.first_in_frame(rows.len() + usize::from(req.is_some()));
                proptest::prop_assert!(first > 0 && rows.len() - first >= 129);
                // Every fourth program meets the second block's row `bad`
                // with its version, declared length or length broken.
                let (at, broken) = (first + COLUMN_BLOCK + bad, t % 4 == 3);
                let header = entries[at].start;
                match (broken, t / 4 % 3) {
                    (false, _) => {}
                    (true, 0) => arena[header + 1] ^= 0x5a,
                    (true, 1) => arena[header + 2] = arena[header + 2].wrapping_add(1),
                    (true, _) => entries[at].len = 5,
                }
                let broken = broken.then(|| {
                    let bytes = entries[at].bytes(&arena);
                    match wp.needs_view {
                        true => codec.view(bytes).map(|_| ()),
                        false => wp.check_header(bytes),
                    }
                });
                let newest_first: Vec<ScanEntry> = entries.iter().rev().copied().collect();
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
                let want = match &broken {
                    Some(err) => {
                        proptest::prop_assert!(err.is_err() && oracle.is_err(), "{:?}", err);
                        err.clone().map(|()| Vec::new())
                    }
                    None => exact(oracle, &aggs),
                };
                for (order, entries) in [
                    (EntryOrder::Ascending, &entries),
                    (EntryOrder::ReversedScan, &newest_first),
                ] {
                    let (mut state, mut out, mut probes) = (wp.new_state(), Vec::new(), 0);
                    let mut probe = || {
                        probes += 1;
                        Ok(())
                    };
                    let got = wp
                        .run(&mut state, entries, first, order, &arena, req, &codec, &mut probe)
                        .and_then(|()| wp.outputs_into(&state, &arena, req, &mut out))
                        .map(|()| out);
                    let got = match &broken {
                        Some(_) => got.map(|_| Vec::new()),
                        None => exact(got, &aggs),
                    };
                    proptest::prop_assert_eq!(&got, &want, "{:?}, {:?}", order, aggs.iter().map(|a| (a.func.name, &a.args)).collect::<Vec<_>>());
                    // The deadline probe runs every `BLOCK` fed rows, the
                    // request row included, whatever the gather's size.
                    let fed = rows.len() - first + usize::from(req.is_some());
                    proptest::prop_assert!(broken.is_some() || probes == fed / BLOCK, "{probes} probes over {fed} rows");
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
}
