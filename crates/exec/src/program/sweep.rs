//! The offline sweep of a [`WindowProgram`]: one partition's rows pass
//! through the window in the order a request folds them, and every base row
//! gets the values the online request for that row returns, bit for bit.
//!
//! A row's frame is what a request for it scans: the partition's other rows
//! (its base table's unless `INSTANCE_NOT_IN_WINDOW`, and its union
//! tables') with a timestamp up to its own, ties included, cut by the frame
//! and `MAXSIZE`; the row itself is fed last unless `EXCLUDE CURRENT_ROW`.
//! Where every frame is a contiguous run of the fold order — range and
//! unbounded frames, `ROWS` frames over distinct timestamps — two pointers
//! walk the partition, and the window's aggregates part three ways (each
//! family module decides which of its kernels go where):
//!
//! * A kernel whose fold forgets a row exactly *slides*: a row is added
//!   when it enters the frame and retracted when it leaves. `count` and the
//!   wrapping `i64` sum of an integer column retract (`column`), so does
//!   the count map behind `distinct_count` / `topn_frequency` (`countmap`),
//!   and a column's `min` / `max` slides as a monotone deque (`column`'s
//!   `Monotone`), keyed by row position and popping only strictly beaten
//!   rows, so the first-seen tie wins as in the fold.
//! * The f64 sum family — `sum`/`avg`/`stddev` of column kernels and
//!   one-load lanes — folds from columns: each member's values are extracted
//!   once per partition into pooled scratch (`column`'s `ColumnFold`), and
//!   [`K`] consecutive anchors' frames fold in lockstep, each chain still
//!   its frame's ascending left fold from 0.0 with the anchor last. The
//!   sums fill the kernels' and lanes' states in the sliding program,
//!   which projects them as a request's fold would.
//! * Every other kernel — expression and generic kernels — *re-folds* the
//!   frame through the serve loop, as a request folds.
//!
//! A frame whose start did not move continues the previous fold instead
//! (the same left fold). A window whose anchor row is stepped out of turn
//! (`EXCLUDE CURRENT_ROW`, `INSTANCE_NOT_IN_WINDOW`) re-folds its extrema.
//! Otherwise — `MAXSIZE`, `ROWS` over ties, and the naive oracle — each
//! frame is gathered per source the way a request scans it (newest first,
//! the `ROWS` count per source), cut by the program's frame guard and
//! re-folded whole, every kernel included: the oracle shares none of the
//! sliding or column code.
//!
//! [`Sweep::push`] runs the same split over a stream, one row at a time:
//! the window union's per-key state is a [`SweepState`] holding the rows a
//! frame can still reach (and their columns), and each push answers for the
//! key's newest row, one chain per push.
//!
//! The sliding and column halves are one [`WindowProgram`], the re-fold
//! half another, and each runs its families' contract: the sliding
//! program steps and retracts rows ([`WindowProgram::slide_row`]), has its
//! extrema and f64 sums set, and projects; the re-fold program folds
//! through the serve loop. When nothing re-folds, the sliding program
//! projects straight into the output row.

use std::cmp::Reverse;

use openmldb_sql::ast::Frame;
use openmldb_sql::plan::BoundWindow;
use openmldb_types::{CompactCodec, Result, Value};

use super::column::{Chain, ColumnCache, ColumnFold, Monotone, K};
use super::field::{binding_out_of_bounds, FieldRef};
use super::fold::{EntryOrder, FoldRows, WindowProgram, WindowState};
use crate::scratch::{RowSource, ScanEntry};

/// A window program split in two programs: the aggregates that slide or
/// fold from columns, and the ones that re-fold.
#[derive(Debug)]
pub(super) struct Split {
    /// The kernels that slide, and the f64 sum-family kernels and lanes
    /// that fold from columns (`None`: every aggregate re-folds).
    pub(super) slide: Option<WindowProgram>,
    /// Each extremum `slide` projects: its kernel, its field and whether it
    /// is the minimum — one deque each.
    pub(super) extrema: Vec<(usize, FieldRef, bool)>,
    /// How `slide`'s f64 sums fold from columns (`None`: it has none).
    pub(super) columns: Option<ColumnFold>,
    /// Per kernel of `slide`, whether a row it adds or retracts is stepped
    /// into it (a kernel `columns` sets whole is not).
    pub(super) stepped: Vec<bool>,
    /// The kernels that re-fold (`None`: none does).
    pub(super) refold: Option<WindowProgram>,
    /// Per aggregate, in aggregate order, whether its value comes from
    /// `slide`.
    pub(super) slid: Vec<bool>,
}

/// A [`Split`]'s running state: each program's pooled [`WindowState`], the
/// deques and columns, and the values of both programs staged for one
/// output row.
#[derive(Default)]
struct SplitState {
    slide: Option<WindowState>,
    deques: Vec<Monotone>,
    cols: ColumnCache,
    refold: Option<WindowState>,
    slid: Vec<Value>,
    refolded: Vec<Value>,
}

/// A window program as the offline sweep of its window.
#[derive(Debug)]
pub struct Sweep {
    /// Slides, folds from columns and re-folds over runs of the fold order
    /// (`None`: every frame is gathered — `MAXSIZE`, the naive oracle).
    slide: Option<Split>,
    /// Re-folds every kernel over gathered frames; its program carries the
    /// frame guards (`None`: no frame is gathered — a range or unbounded
    /// frame without `MAXSIZE` whose anchor joins it, swept incrementally).
    gather: Option<Split>,
    frame: Frame,
    /// The anchor row joins its frame (no `EXCLUDE CURRENT_ROW`).
    include: bool,
    /// `INSTANCE_NOT_IN_WINDOW`: only union rows fill the frame.
    union_only: bool,
}

/// One sweeping worker's pooled state, or one streamed key's.
pub struct SweepState {
    slide: Option<SplitState>,
    gather: Option<SplitState>,
    eligible: Vec<ScanEntry>,
    frame: Vec<ScanEntry>,
    cands: Vec<usize>,
    sources: Vec<Vec<usize>>,
    out: Vec<Value>,
    kept: Retained,
}

/// A streamed key's rows that a frame can still reach, ascending
/// `(ts, seq)`, over an arena of their encoded bytes. A row's `seq` is its
/// arena offset: arrival order, which compaction keeps, so tied rows fold
/// in the order they arrived.
#[derive(Default)]
struct Retained {
    arena: Vec<u8>,
    /// `rows[first..]` are retained; the rows before left every frame.
    rows: Vec<ScanEntry>,
    first: usize,
    /// Bytes of `arena` the retained rows hold.
    live: usize,
    /// How many leading retained rows the re-fold state holds, unchanged
    /// since it folded them (0: re-fold the frame whole).
    held: usize,
}

impl WindowProgram {
    /// This program as the offline sweep of `window`. With `recompute`
    /// nothing slides and every frame is gathered and re-folded whole: the
    /// naive oracle. Fails only as [`compile`](WindowProgram::compile) can.
    pub fn sweep(&self, window: &BoundWindow, recompute: bool) -> Result<Sweep> {
        let slide = !recompute && window.maxsize.is_none();
        // A `ROWS` frame over tied timestamps is gathered too, and so is a
        // streamed frame that is not every row `push` retains.
        let gather = !slide
            || matches!(window.frame, Frame::Rows { .. })
            || window.exclude_current_row
            || window.instance_not_in_window;
        Ok(Sweep {
            slide: slide.then(|| self.split(false)).transpose()?,
            gather: gather.then(|| self.split(true)).transpose()?,
            frame: window.frame,
            include: !window.exclude_current_row,
            union_only: window.instance_not_in_window,
        })
    }
}

impl Split {
    fn new_state(&self) -> SplitState {
        SplitState {
            slide: self.slide.as_ref().map(WindowProgram::new_state),
            deques: (self.extrema.iter())
                .map(|&(_, f, min)| Monotone::new(f, min))
                .collect(),
            refold: self.refold.as_ref().map(WindowProgram::new_state),
            ..SplitState::default()
        }
    }

    /// Whether any kernel slides ([`Split::step`] is a no-op otherwise).
    fn slides(&self) -> bool {
        (self.slide.as_ref()).is_some_and(|p| !(p.kernels.is_empty() && p.maps.is_empty()))
    }

    /// Whether any kernel re-folds (the frame passed to [`Split::output`]
    /// is read only then).
    fn refolds(&self) -> bool {
        self.refold.is_some()
    }

    /// Empty the sliding state and the columns for the next partition.
    fn clear(&self, st: &mut SplitState) {
        if let Some(state) = &mut st.slide {
            state.reset();
        }
        st.deques.iter_mut().for_each(Monotone::clear);
        if let Some(fold) = &self.columns {
            fold.truncate(&mut st.cols, 0);
        }
    }

    /// Add row `at` of `rows` to the sliding state, the newest, or
    /// retract it (`add` false), the oldest. The state keeps its strings by
    /// row position: later steps and the output read the same `rows`.
    fn step(
        &self,
        st: &mut SplitState,
        rows: &dyn RowSource,
        at: usize,
        codec: &CompactCodec,
        add: bool,
    ) -> Result<()> {
        let (Some(program), Some(state)) = (&self.slide, st.slide.as_mut()) else {
            return Ok(());
        };
        let buf = rows.row_at(at)?;
        let view = program.needs_view.then(|| codec.view(buf)).transpose()?;
        let rows_stepped = (rows, self.stepped.as_slice());
        program.slide_row(state, (at, buf), view.as_ref(), rows_stepped, add)?;
        for deque in &mut st.deques {
            match add {
                true => deque.add((at, buf), view.as_ref(), rows)?,
                false => deque.retract(at),
            }
        }
        Ok(())
    }

    /// One output row: re-fold the kernels that re-fold over `frame`
    /// (ascending, the anchor row last when it joins), set chain `slid.0`
    /// of the last column fold and the deques' extrema into the sliding
    /// state — whose row `slid.1`, if any, the fold takes last, out of
    /// turn, and whose rows are `slid.2` — and project it, then push one
    /// value per aggregate, in aggregate order, into `out`. When the first `folded` rows of `frame`
    /// are exactly the frame of the previous output (its start did not
    /// move), the re-fold continues from there instead — the same left
    /// fold, so the same bits.
    #[allow(clippy::too_many_arguments)]
    fn output(
        &self,
        st: &mut SplitState,
        frame: &[ScanEntry],
        folded: usize,
        (chain, last, rows): (usize, Option<usize>, &dyn RowSource),
        arena: &[u8],
        codec: &CompactCodec,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let SplitState {
            slide,
            deques,
            cols,
            refold,
            slid,
            refolded,
        } = st;
        let refolds = self.refolds();
        if let (Some(program), Some(state)) = (&self.refold, refold.as_mut()) {
            // `state` holds the fold of `frame[..folded]`: go on, or start
            // afresh.
            let go_on = folded > 0 && folded <= frame.len();
            if !go_on {
                state.reset();
            }
            let folded = if go_on { folded } else { 0 };
            let frame = FoldRows {
                stored: &(frame, arena),
                request: None,
            };
            let order = EntryOrder::Ascending;
            program.feed_entries(state, &frame, folded, order, codec, &mut || Ok(()))?;
            program.finish(state, &frame)?;
            program.outputs_into(state, arena, None, refolded)?;
        }
        if let (Some(program), Some(state)) = (&self.slide, slide.as_mut()) {
            if let Some(fold) = &self.columns {
                fold.fill(cols, chain, state)?;
            }
            for ((k, ..), deque) in self.extrema.iter().zip(deques.iter()) {
                let st = state.kernels.get_mut(*k);
                deque.load(st.ok_or_else(binding_out_of_bounds)?, last, rows)?;
            }
            program.finish(state, rows)?;
            // Nothing re-folds: the sliding program's values are the row's.
            program.outputs_into(state, arena, None, if refolds { slid } else { out })?;
        }
        if !refolds {
            return Ok(());
        }
        let (mut slid, mut refold) = (slid.drain(..), refolded.drain(..));
        for &slides in &self.slid {
            let v = if slides { slid.next() } else { refold.next() };
            out.push(v.ok_or_else(binding_out_of_bounds)?);
        }
        Ok(())
    }
}

impl Sweep {
    pub fn new_state(&self) -> SweepState {
        SweepState {
            slide: self.slide.as_ref().map(Split::new_state),
            gather: self.gather.as_ref().map(Split::new_state),
            eligible: Vec::new(),
            frame: Vec::new(),
            cands: Vec::new(),
            sources: Vec::new(),
            out: Vec::new(),
            kept: Retained::default(),
        }
    }

    /// Stream one encoded row of a key and append the values its newest
    /// row — the last in `(ts, arrival)` order — gets as the one anchor:
    /// exactly what [`Sweep::fold_partition`] gives over the rows `st`
    /// retains. A row arriving out of order takes its place among them; one
    /// already below the frame is dropped. Sliding kernels take the row
    /// and retract the rows that leave; the others re-fold the frame. A row
    /// `codec` refuses leaves `st` untouched.
    pub fn push(
        &self,
        st: &mut SweepState,
        ts: i64,
        row: &[u8],
        codec: &CompactCodec,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        codec.view(row)?;
        let mut kept = std::mem::take(&mut st.kept);
        let pushed = self.stream(st, &mut kept, ts, row, codec, out);
        st.kept = kept;
        pushed
    }

    fn stream(
        &self,
        st: &mut SweepState,
        kept: &mut Retained,
        ts: i64,
        row: &[u8],
        codec: &CompactCodec,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let Retained {
            arena,
            rows,
            first,
            live,
            held,
        } = kept;
        let start = arena.len();
        arena.extend_from_slice(row);
        *live += row.len();
        let entry = ScanEntry {
            ts,
            seq: start,
            start,
            len: row.len(),
        };
        let at = rows.get(*first..).unwrap_or_default();
        let at = at.partition_point(|e| e.ts <= ts);
        rows.insert(*first + at, entry);
        let src = (rows.as_slice(), arena.as_slice());
        let (rows, arena) = src;
        if let Some((sweep, fast)) = self.slide.as_ref().zip(st.slide.as_mut()) {
            // A row that lands before the newest moves the rows after it,
            // which the sliding state keeps by position: the retained rows
            // step into fresh state, their columns extracted again.
            let mut from = *first + at;
            if from + 1 < rows.len() {
                sweep.clear(fast);
                from = *first;
            }
            for i in from..rows.len() {
                sweep.step(fast, &src, i, codec, true)?;
            }
        }
        // Drop what no frame from this anchor on reaches.
        let gone = self.below_frame(rows.get(*first..).unwrap_or_default());
        for i in *first..*first + gone {
            if let Some((sweep, fast)) = self.slide.as_ref().zip(st.slide.as_mut()) {
                sweep.step(fast, &src, i, codec, false)?;
            }
            *live -= rows.get(i).map_or(0, |e| e.len);
        }
        *first += gone;
        if gone > 0 || at < *held {
            *held = 0;
        }
        let frame = rows.get(*first..).unwrap_or_default();
        // Whether the frame is every retained row.
        let whole = self.include
            && !self.union_only
            && match self.frame {
                Frame::Rows { preceding } => frame.len() <= self.rows_kept(preceding),
                _ => true,
            };
        let folded = std::mem::take(held);
        match self.slide.as_ref().zip(st.slide.as_mut()) {
            Some((sweep, fast)) if whole => {
                if let Some(fold) = &sweep.columns {
                    let chain = Chain {
                        from: *first,
                        to: rows.len(),
                        ..Chain::default()
                    };
                    fold.fold(&mut fast.cols, src, &[chain])?;
                }
                sweep.output(fast, frame, folded, (0, None, &src), arena, codec, out)?;
                *held = frame.len();
            }
            _ => {
                let anchor = [(frame.len().saturating_sub(1), 0)];
                let emit = &mut |_: u32, values: &mut Vec<Value>| out.append(values);
                let io = Io { arena, codec, emit };
                self.gather_frames(st, frame, &anchor, io)?;
            }
        }
        if arena.len() - *live > *live {
            self.compact(st.slide.as_mut(), kept, codec)?;
        }
        Ok(())
    }

    /// How many leading `rows` (ascending, the anchor last) neither the
    /// anchor's frame nor a later anchor's can reach.
    fn below_frame(&self, rows: &[ScanEntry]) -> usize {
        let Some(anchor) = rows.last() else {
            return 0;
        };
        let from = match self.frame {
            Frame::Unbounded => return 0,
            Frame::RowsRange { preceding_ms } => anchor.ts.saturating_sub(preceding_ms),
            // A frame takes its `ROWS` newest first, the earliest arrival
            // first among ties: every row tied with the oldest it can take
            // stays.
            Frame::Rows { preceding } => match rows.len().checked_sub(self.rows_kept(preceding)) {
                Some(cut) => rows.get(cut).map_or(i64::MIN, |e| e.ts),
                None => return 0,
            },
        };
        rows.partition_point(|e| e.ts < from)
    }

    /// The most rows a `ROWS` frame and the anchor after it can hold.
    fn rows_kept(&self, preceding: u64) -> usize {
        usize::try_from(preceding)
            .unwrap_or(usize::MAX)
            .saturating_add(1 + usize::from(!self.include))
    }

    /// Copy the retained rows into a fresh arena in fold order, re-step
    /// them into fresh sliding state and re-extract their columns: the
    /// sliding state keeps rows by position, and the positions move.
    fn compact(
        &self,
        fast: Option<&mut SplitState>,
        kept: &mut Retained,
        codec: &CompactCodec,
    ) -> Result<()> {
        let mut arena = Vec::with_capacity(kept.live);
        kept.rows.drain(..kept.first);
        for e in &mut kept.rows {
            let start = arena.len();
            arena.extend_from_slice(e.bytes(&kept.arena));
            (e.start, e.seq) = (start, start);
        }
        (kept.arena, kept.first, kept.held) = (arena, 0, 0);
        if let Some((sweep, fast)) = self.slide.as_ref().zip(fast) {
            sweep.clear(fast);
            let src = (kept.rows.as_slice(), kept.arena.as_slice());
            for i in 0..kept.rows.len() {
                sweep.step(fast, &src, i, codec, true)?;
            }
        }
        Ok(())
    }

    /// Sweep one partition. `entries` are its rows in the order a request
    /// folds them — ascending `(ts, seq)` with `seq = source << 32 | scan
    /// position`, source 0 the base table — as byte ranges of `arena`;
    /// `anchors` are the base rows to answer, `(position in entries, row
    /// id)` in fold order. Each one's values, in aggregate order, go to
    /// `emit` with its row id.
    pub fn fold_partition(
        &self,
        st: &mut SweepState,
        entries: &[ScanEntry],
        anchors: &[(usize, u32)],
        arena: &[u8],
        codec: &CompactCodec,
        emit: &mut dyn FnMut(u32, &mut Vec<Value>),
    ) -> Result<()> {
        let io = Io { arena, codec, emit };
        let mut eligible = std::mem::take(&mut st.eligible);
        eligible.clear();
        if self.union_only {
            eligible.extend(entries.iter().filter(|e| e.seq >> 32 != 0));
        }
        let e = if self.union_only {
            &eligible[..]
        } else {
            entries
        };
        // A `ROWS` frame over tied timestamps is not a run of the fold order.
        let ties = || {
            e.windows(2)
                .any(|p| p.first().map(|a| a.ts) == p.get(1).map(|b| b.ts))
        };
        let rows_over_ties = matches!(self.frame, Frame::Rows { .. }) && ties();
        let swept = match &self.slide {
            Some(sweep) if !rows_over_ties => self.slide_frames(sweep, st, e, entries, anchors, io),
            _ => self.gather_frames(st, entries, anchors, io),
        };
        st.eligible = eligible;
        swept
    }

    /// Two pointers over the eligible rows `e`: the sliding kernels hold
    /// `e[x..y)`, the anchor moves to the end of its frame. The anchors go
    /// [`K`] at a time: their frames first, folded from the columns at
    /// once, then each one's output.
    fn slide_frames(
        &self,
        sweep: &Split,
        st: &mut SweepState,
        e: &[ScanEntry],
        entries: &[ScanEntry],
        anchors: &[(usize, u32)],
        io: Io,
    ) -> Result<()> {
        let Io { arena, codec, emit } = io;
        let SweepState {
            slide, frame, out, ..
        } = st;
        let fast = slide.as_mut().ok_or_else(binding_out_of_bounds)?;
        let (include, src) = (self.include, (e, arena));
        sweep.clear(fast);
        let mut span: Option<(usize, usize)> = None;
        // The slice of `e` the re-fold state holds, when it holds one.
        let mut held: Option<(usize, usize)> = None;
        for batch in anchors.chunks(K) {
            // Each anchor's frame, both edges walked forward from the last
            // anchor's: the run `e[x..y)`, less the anchor's own row when it
            // is an eligible row (`own`) but not the run's last, then the
            // anchor — a request folds it last, if at all.
            let (mut spans, mut chains, mut walk) = ([(0, 0); K], [Chain::default(); K], span);
            for ((&(g, _), s), c) in batch.iter().zip(&mut spans).zip(&mut chains) {
                let r = entries.get(g).ok_or_else(binding_out_of_bounds)?;
                let own = (!self.union_only).then_some(g);
                let (px, py) = walk.unwrap_or_default();
                let mut hi = py;
                while e.get(hi).is_some_and(|v| v.ts <= r.ts) {
                    hi += 1;
                }
                let lo = match self.frame {
                    Frame::Unbounded => 0,
                    Frame::RowsRange { preceding_ms } => {
                        let from = r.ts.saturating_sub(preceding_ms);
                        let mut lo = px;
                        while lo < hi && e.get(lo).is_some_and(|v| v.ts < from) {
                            lo += 1;
                        }
                        lo
                    }
                    Frame::Rows { preceding } => {
                        let rows =
                            preceding as usize + usize::from(!include) + usize::from(own.is_some());
                        hi.saturating_sub(rows)
                    }
                };
                let (x, y) = walk.map_or((lo, hi), |(x, y)| (x.max(lo), y.max(hi)));
                (*s, walk) = ((x, y), Some((x, y)));
                *c = match own {
                    Some(k) if k + 1 == y => Chain {
                        from: x,
                        to: if include { y } else { k },
                        ..Chain::default()
                    },
                    _ => Chain {
                        from: x,
                        to: y,
                        skip: own,
                        tail: include.then(|| r.bytes(arena)),
                    },
                };
            }
            let chains = chains.get(..batch.len()).unwrap_or_default();
            if let Some(fold) = &sweep.columns {
                fold.fold(&mut fast.cols, (e, arena), chains)?;
            }
            let frames = batch.iter().zip(&spans).zip(chains);
            for (j, ((&(g, row), &(x, y)), c)) in frames.enumerate() {
                let r = *entries.get(g).ok_or_else(binding_out_of_bounds)?;
                let (px, py) = span.unwrap_or((x, x));
                if sweep.slides() {
                    for i in py..y {
                        sweep.step(fast, &src, i, codec, true)?;
                    }
                    for i in px..x {
                        sweep.step(fast, &src, i, codec, false)?;
                    }
                }
                span = Some((x, y));
                // The sliding state holds the anchor exactly when the
                // frame does.
                let adjust = match (!self.union_only, include) {
                    (true, false) => Some(false),
                    (false, true) => Some(true),
                    _ => None,
                };
                let adjust = adjust.filter(|_| sweep.slides());
                // A union-only frame takes the anchor after its rows, as
                // row `e.len()`; an excluding one leaves it at its place.
                let slid = FoldRows {
                    stored: &src,
                    request: (adjust == Some(true)).then(|| r.bytes(arena)),
                };
                let at = if self.union_only { e.len() } else { g };
                if let Some(add) = adjust {
                    sweep.step(fast, &slid, at, codec, add)?;
                }
                let run = e.get(c.from..c.to).unwrap_or_default();
                let rows = match () {
                    _ if !sweep.refolds() || c.plain() => run,
                    _ => {
                        frame.clear();
                        let others = run.iter().enumerate();
                        let others = others.filter(|&(i, _)| Some(c.from + i) != c.skip);
                        frame.extend(others.map(|(_, v)| *v));
                        frame.extend(c.tail.map(|_| r));
                        &frame[..]
                    }
                };
                // A frame whose start did not move extends the one folded last.
                let direct = c.plain().then_some((c.from, c.to));
                let folded = match (held, direct) {
                    (Some((a, b)), Some((a2, b2))) if a == a2 && b <= b2 => b - a,
                    _ => 0,
                };
                held = direct;
                sweep.output(fast, rows, folded, (j, c.skip, &slid), arena, codec, out)?;
                if let Some(add) = adjust {
                    sweep.step(fast, &slid, at, codec, !add)?;
                }
                emit(row, out);
            }
        }
        Ok(())
    }

    /// Each anchor's frame gathered per source as a request scans it —
    /// newest first, the `ROWS` count per source — then cut by the
    /// program's frame guard, and re-folded whole.
    fn gather_frames(
        &self,
        st: &mut SweepState,
        entries: &[ScanEntry],
        anchors: &[(usize, u32)],
        io: Io,
    ) -> Result<()> {
        let Io { arena, codec, emit } = io;
        let SweepState {
            gather,
            frame,
            cands,
            sources,
            out,
            ..
        } = st;
        let (Some(naive), Some(state)) = (&self.gather, gather.as_mut()) else {
            return Err(binding_out_of_bounds());
        };
        let include = self.include;
        let ts = |i: usize| entries.get(i).map_or(i64::MIN, |e| e.ts);
        sources.iter_mut().for_each(Vec::clear);
        for (i, e) in entries.iter().enumerate() {
            let src = e.seq >> 32;
            if self.union_only && src == 0 {
                continue;
            }
            sources.resize_with(sources.len().max(src + 1), Vec::new);
            if let Some(list) = sources.get_mut(src) {
                list.push(i);
            }
        }
        for list in sources.iter_mut() {
            list.sort_unstable_by_key(|&i| (Reverse(ts(i)), entries.get(i).map(|e| e.seq)));
        }
        let guard = naive.refold.as_ref();
        for &(g, row) in anchors {
            let Some(&r) = entries.get(g) else {
                continue;
            };
            cands.clear();
            for list in sources.iter() {
                let from = list.partition_point(|&i| ts(i) > r.ts);
                let mut taken = 0;
                for &i in list.get(from..).unwrap_or_default() {
                    let stop = match self.frame {
                        Frame::RowsRange { preceding_ms } => {
                            ts(i) < r.ts.saturating_sub(preceding_ms)
                        }
                        Frame::Rows { preceding } => {
                            taken == preceding as usize + usize::from(!include)
                        }
                        Frame::Unbounded => false,
                    };
                    if stop {
                        break;
                    }
                    if i != g {
                        cands.push(i);
                        taken += 1;
                    }
                }
            }
            cands.sort_unstable();
            let n = cands.len();
            let total = n + usize::from(include);
            let first = guard.map_or(0, |p| p.first_in_frame(total));
            frame.clear();
            let kept = cands.get(first.min(n)..).unwrap_or_default();
            frame.extend(kept.iter().filter_map(|&i| entries.get(i)));
            if include && first < total {
                frame.push(r);
            }
            naive.output(state, frame, 0, (0, None, &arena), arena, codec, out)?;
            emit(row, out);
        }
        Ok(())
    }
}

/// What a partition's sweep reads from and writes to.
struct Io<'a, 'e> {
    arena: &'a [u8],
    codec: &'a CompactCodec,
    emit: &'e mut dyn FnMut(u32, &mut Vec<Value>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, BoundWindow, PhysExpr};
    use openmldb_types::codec::RowCodec;
    use openmldb_types::{ColumnDef, DataType, Row, Schema};
    use proptest::prelude::{Just, Strategy};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("ts", DataType::Timestamp),
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("s", DataType::String),
            ColumnDef::new("b", DataType::Bigint),
            ColumnDef::new("f", DataType::Float),
        ])
        .expect("valid schema")
    }

    fn agg(name: &str, args: Vec<PhysExpr>) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(name).expect("builtin"),
            args,
            output_type: DataType::Double,
        }
    }

    fn window(frame: Frame) -> BoundWindow {
        BoundWindow {
            name: "w".into(),
            merged_names: vec!["w".into()],
            partition_cols: Vec::new(),
            order_col: 0,
            order_desc: false,
            frame,
            maxsize: None,
            exclude_current_row: false,
            instance_not_in_window: false,
            union_tables: Vec::new(),
        }
    }

    fn program(aggs: &[BoundAggregate]) -> WindowProgram {
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let codec = CompactCodec::new(schema());
        WindowProgram::compile(&window(Frame::Unbounded), &refs, &codec).expect("compiles")
    }

    /// A BIGINT near `i64::MAX` or `i64::MIN`: distinct values that tie
    /// once promoted to f64, where the extremum is the first seen.
    fn edge_bigint(i: i32) -> i64 {
        let k = i64::from(i.unsigned_abs());
        if i % 2 == 0 {
            i64::MAX - k
        } else {
            i64::MIN + k
        }
    }

    /// A DOUBLE from `n`, `d` in most draws: NULL, ±0.0, NaN or a run of
    /// equal values in the rest.
    fn edge_double(n: u64, d: f64) -> Option<f64> {
        match n % 10 {
            0 => None,
            1 => Some(-0.0),
            2 => Some(0.0),
            3 => Some(f64::NAN),
            4 => Some(7.5),
            _ => Some(d),
        }
    }

    /// A row of `schema()`: BIGINT and FLOAT follow INT and DOUBLE.
    fn edge_row(ts: i64, i: Option<i32>, d: Option<f64>, s: Option<&str>) -> Row {
        Row::new(vec![
            Value::Timestamp(ts),
            i.map_or(Value::Null, Value::Int),
            d.map_or(Value::Null, Value::Double),
            s.map_or(Value::Null, Value::string),
            i.map_or(Value::Null, |i| Value::Bigint(edge_bigint(i))),
            d.map_or(Value::Null, |d| Value::Float(d as f32)),
        ])
    }

    /// Extrema of every class — INT, BIGINT ties past 2^53, FLOAT, DOUBLE
    /// and STRING — and the f64 sum family over a DOUBLE lane (a `stddev`
    /// member) and an INT kernel (`avg`).
    fn extrema_and_sums() -> Vec<BoundAggregate> {
        let col = PhysExpr::Column;
        let mut aggs = Vec::new();
        for c in [1, 2, 3, 4, 5] {
            aggs.extend([agg("min", vec![col(c)]), agg("max", vec![col(c)])]);
        }
        aggs.extend([
            agg("stddev", vec![col(2)]),
            agg("avg", vec![col(1)]),
            agg("stddev", vec![col(1)]),
            agg("avg", vec![col(5)]),
        ]);
        aggs
    }

    /// Frames sliding over a row stream give what re-folding each frame
    /// gives, for every family: sliding counts, integer sums, count maps
    /// (string and fixed) and extrema of every class, f64 sums folded from
    /// columns, re-folded expressions and a generic aggregate — frame by
    /// frame, and over whole partitions every row answers, sliding or not.
    #[test]
    fn sliding_frames_equal_refolded_frames() {
        let col = PhysExpr::Column;
        let mut aggs = vec![
            agg("count", vec![col(1)]),
            agg("sum", vec![col(1)]),
            agg("sum", vec![col(2)]),
            agg("distinct_count", vec![col(3)]),
            agg(
                "topn_frequency",
                vec![col(3), PhysExpr::Literal(Value::Int(2))],
            ),
            agg("distinct_count", vec![col(1)]),
            agg("count", vec![col(3)]),
            agg("drawdown", vec![col(2)]),
        ];
        aggs.extend(extrema_and_sums());
        let wp = program(&aggs);
        let codec = CompactCodec::new(schema());
        let words = ["a", "bb", "a", "c", "bb", "a", "dd"];
        let mut arena = Vec::new();
        let mut entries = Vec::new();
        for i in 0..240i64 {
            let n = i as u64 * 7 % 23;
            let row = edge_row(
                i,
                (i % 5 != 0).then_some((i * 37 % 97) as i32 - 40),
                edge_double(n, (i as f64 * 0.37).sin() * 100.0),
                (i % 6 != 0).then(|| words[(i * 5 % 7) as usize]),
            );
            let bytes = codec.encode(&row).expect("encode");
            entries.push(ScanEntry {
                ts: i,
                seq: 0,
                start: arena.len(),
                len: bytes.len(),
            });
            arena.extend_from_slice(&bytes);
        }
        let (fast, naive) = (
            wp.split(false).expect("splits"),
            wp.split(true).expect("splits"),
        );
        assert!(fast.slides() && fast.refolds() && fast.columns.is_some() && !naive.slides());
        assert_eq!(fast.extrema.len(), 10);
        let (mut fs, mut ns) = (fast.new_state(), naive.new_state());
        let (mut lo, mut hi) = (0usize, 0usize);
        let src = (entries.as_slice(), arena.as_slice());
        for (end, width) in (1..=240).zip([3usize, 9, 1, 14, 6, 60].into_iter().cycle()) {
            while hi < end {
                fast.step(&mut fs, &src, hi, &codec, true).unwrap();
                hi += 1;
            }
            while lo < end.saturating_sub(width) {
                fast.step(&mut fs, &src, lo, &codec, false).unwrap();
                lo += 1;
            }
            let frame = &entries[lo..hi];
            let chain = Chain {
                from: lo,
                to: hi,
                ..Chain::default()
            };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            (fast.columns.as_ref().expect("columns"))
                .fold(&mut fs.cols, (&entries, &arena), &[chain])
                .unwrap();
            fast.output(&mut fs, frame, 0, (0, None, &src), &arena, &codec, &mut a)
                .unwrap();
            naive
                .output(&mut ns, frame, 0, (0, None, &src), &arena, &codec, &mut b)
                .unwrap();
            assert_eq!(a, b, "frame {lo}..{hi}");
        }
        // Whole partitions, every row an anchor, K frames at a time, over
        // distinct timestamps and over ties (the anchor then folds after
        // rows that follow it in the partition; a 0 ms range frame is its
        // ts's rows alone, where a BIGINT tie behind the anchor must win).
        let aggs: Vec<&BoundAggregate> = aggs.iter().collect();
        let anchors: Vec<(usize, u32)> = (0..entries.len()).map(|g| (g, g as u32)).collect();
        let tied: Vec<ScanEntry> = (entries.iter().enumerate())
            .map(|(i, e)| ScanEntry {
                ts: e.ts / 3,
                seq: i,
                ..*e
            })
            .collect();
        for (entries, frame) in [&entries, &tied].into_iter().flat_map(|e| {
            [
                Frame::RowsRange { preceding_ms: 17 },
                Frame::RowsRange { preceding_ms: 0 },
                Frame::Rows { preceding: 6 },
                Frame::Unbounded,
            ]
            .map(|f| (e, f))
        }) {
            for exclude in [false, true] {
                let mut w = window(frame);
                w.exclude_current_row = exclude;
                let wp = WindowProgram::compile(&w, &aggs, &codec).expect("compiles");
                let [a, b] = [false, true].map(|recompute| {
                    let sweep = wp.sweep(&w, recompute).expect("sweeps");
                    let mut folded = Vec::new();
                    let emit = &mut |row: u32, values: &mut Vec<Value>| {
                        folded.push(format!("{row} {values:?}"));
                        values.clear();
                    };
                    let mut st = sweep.new_state();
                    sweep
                        .fold_partition(&mut st, entries, &anchors, &arena, &codec, emit)
                        .expect("fold");
                    folded
                });
                assert_eq!(a, b, "{frame:?} exclude={exclude}");
            }
        }
    }

    /// Rows each in an allocation of their own, far apart or not.
    struct Apart(Vec<Vec<u8>>);

    impl RowSource for Apart {
        fn n_rows(&self) -> usize {
            self.0.len()
        }

        fn row_at(&self, i: usize) -> Result<&[u8]> {
            let row = self.0.get(i).map(Vec::as_slice);
            row.ok_or_else(binding_out_of_bounds)
        }
    }

    /// The sliding state keeps a STRING — an extremum, a count-map key — as
    /// a range of its own row, by position, never as an offset into an
    /// arena (which passes 32 bits once a partition's rows pass 4 GiB):
    /// rows that share no arena slide as one arena's rows re-fold.
    #[test]
    fn sliding_strings_are_ranges_of_their_own_rows() {
        let col = PhysExpr::Column;
        let aggs = [
            agg("min", vec![col(3)]),
            agg("max", vec![col(3)]),
            agg("distinct_count", vec![col(3)]),
            agg(
                "topn_frequency",
                vec![col(3), PhysExpr::Literal(Value::Int(2))],
            ),
            agg("count", vec![col(3)]),
        ];
        let wp = program(&aggs);
        let codec = CompactCodec::new(schema());
        let words = ["kiwi", "fig", "kiwi", "apple", "fig", "plum", "fig"];
        let (mut arena, mut entries, mut apart) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..90i64 {
            let s = (i % 8 != 0).then(|| words[(i * 3 % 7) as usize]);
            let bytes = codec.encode(&edge_row(i, None, None, s)).expect("encode");
            entries.push(ScanEntry {
                ts: i,
                seq: 0,
                start: arena.len(),
                len: bytes.len(),
            });
            arena.extend_from_slice(&bytes);
            apart.push(bytes);
        }
        let apart = Apart(apart);
        let (fast, naive) = (
            wp.split(false).expect("splits"),
            wp.split(true).expect("splits"),
        );
        assert!(fast.slides() && !fast.refolds() && fast.extrema.len() == 2);
        let (mut fs, mut ns) = (fast.new_state(), naive.new_state());
        for hi in 0..entries.len() {
            fast.step(&mut fs, &apart, hi, &codec, true).unwrap();
            let lo = hi.saturating_sub(6);
            if hi >= 7 {
                fast.step(&mut fs, &apart, lo - 1, &codec, false).unwrap();
            }
            let frame = &entries[lo..=hi];
            let (mut a, mut b) = (Vec::new(), Vec::new());
            fast.output(&mut fs, frame, 0, (0, None, &apart), &arena, &codec, &mut a)
                .unwrap();
            let src = (entries.as_slice(), arena.as_slice());
            naive
                .output(&mut ns, frame, 0, (0, None, &src), &arena, &codec, &mut b)
                .unwrap();
            assert_eq!(a, b, "frame {lo}..={hi}");
        }
    }

    /// One aggregate per kernel family: a sliding count, integer sum and
    /// string count map (behind both `distinct_count` and
    /// `topn_frequency`), and a re-folded f64 sum, extremum, expression and
    /// generic aggregate.
    fn families() -> Vec<BoundAggregate> {
        let col = PhysExpr::Column;
        let twice = PhysExpr::Binary {
            op: openmldb_sql::BinaryOp::Mul,
            left: Box::new(col(1)),
            right: Box::new(PhysExpr::Literal(Value::Int(2))),
        };
        vec![
            agg("count", vec![col(1)]),
            agg("sum", vec![col(1)]),
            agg("sum", vec![col(2)]),
            agg("max", vec![col(2)]),
            agg("distinct_count", vec![col(3)]),
            agg(
                "topn_frequency",
                vec![col(3), PhysExpr::Literal(Value::Int(2))],
            ),
            agg("sum", vec![twice]),
            agg("drawdown", vec![col(2)]),
        ]
        .into_iter()
        .chain(extrema_and_sums())
        .collect()
    }

    /// `(ts, i, d, s)`, NULL as `None`.
    type StreamRow<'a> = (i64, Option<i32>, Option<f64>, Option<&'a str>);

    /// Stream `(ts, i, d, s)` rows through `push` and hold every answer
    /// against `fold_partition` anchored at the newest row, over the rows
    /// the state retains and over every row pushed so far (what it dropped
    /// is out of every frame); returns how often the arena was compacted.
    fn stream_equals_fold(frame: Frame, recompute: bool, rows: &[StreamRow]) -> usize {
        let aggs = families();
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let codec = CompactCodec::new(schema());
        let w = window(frame);
        let sweep = WindowProgram::compile(&w, &refs, &codec)
            .expect("compiles")
            .sweep(&w, recompute)
            .expect("sweeps");
        let fold = |entries: &[ScanEntry], arena: &[u8]| {
            let mut folded = Vec::new();
            let emit = &mut |_: u32, values: &mut Vec<Value>| folded.append(values);
            let anchor = [(entries.len() - 1, 0)];
            let mut fresh = sweep.new_state();
            sweep
                .fold_partition(&mut fresh, entries, &anchor, arena, &codec, emit)
                .expect("fold");
            folded
        };
        let mut st = sweep.new_state();
        let (mut pushed, mut compactions) = (Vec::new(), 0);
        let (mut all, mut all_arena) = (Vec::<ScanEntry>::new(), Vec::new());
        for (n, &(ts, i, d, s)) in rows.iter().enumerate() {
            let row = edge_row(ts, i, d, s);
            let bytes = codec.encode(&row).expect("encode");
            let before = st.kept.arena.len();
            pushed.clear();
            sweep
                .push(&mut st, ts, &bytes, &codec, &mut pushed)
                .expect("push");
            compactions += usize::from(st.kept.arena.len() < before + bytes.len());
            let at = all.partition_point(|e| e.ts <= ts);
            let entry = ScanEntry {
                ts,
                seq: n,
                start: all_arena.len(),
                len: bytes.len(),
            };
            all.insert(at, entry);
            all_arena.extend_from_slice(&bytes);
            let kept = &st.kept.rows[st.kept.first..];
            let at = format!("{frame:?} recompute={recompute} after row {n}");
            assert_eq!(pushed, fold(kept, &st.kept.arena), "retained rows: {at}");
            assert_eq!(pushed, fold(&all, &all_arena), "every row: {at}");
        }
        compactions
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 48 })]

        /// `push` over a stream answers what `fold_partition` answers over
        /// the retained rows anchored at the newest, bit for bit, for every
        /// kernel family and extrema of every class, with rows out of order
        /// and tied, NULLs, random doubles, ±0.0, NaN, runs of equal values
        /// and BIGINTs that tie once promoted, sliding or recomputing; a
        /// stream long enough to leave rows behind compacts the arena on
        /// the way.
        #[test]
        fn push_equals_fold_partition_over_retained_rows(
            raw in proptest::collection::vec(
                (-5i64..5, -60i32..50, -1e6f64..1e6, 0u64..10, 0usize..6),
                100..180,
            ),
            frame in proptest::prop_oneof![
                (1i64..30).prop_map(|preceding_ms| Frame::RowsRange { preceding_ms }),
                (0u64..6).prop_map(|preceding| Frame::Rows { preceding }),
                Just(Frame::Unbounded),
            ],
        ) {
            // Out-of-range draws stand for NULL.
            let words = ["a", "bb", "a", "ccc", "d"];
            let rows: Vec<_> = raw
                .iter()
                .enumerate()
                .map(|(n, &(jitter, i, d, null_d, s))| {
                    let ts = n as i64 * 2 + jitter;
                    (ts, (i >= -50).then_some(i), edge_double(null_d, d), words.get(s).copied())
                })
                .collect();
            for recompute in [false, true] {
                let compactions = stream_equals_fold(frame, recompute, &rows);
                proptest::prop_assert!(
                    compactions > 0 || frame == Frame::Unbounded,
                    "{:?} never compacted", frame
                );
            }
        }
    }

    /// A late row below the frame is dropped; one inside it joins in its
    /// place; a tie folds after the rows it ties with.
    #[test]
    fn late_rows_join_their_place_or_drop() {
        let rows = [
            (100, Some(1), Some(1.5), Some("a")),
            (110, Some(2), Some(-0.0), Some("bb")),
            (40, Some(4), Some(0.0), Some("a")),
            (105, Some(8), None, None),
            (110, Some(16), Some(f64::NAN), Some("a")),
            (111, None, Some(2.25), Some("bb")),
        ];
        for recompute in [false, true] {
            stream_equals_fold(Frame::RowsRange { preceding_ms: 10 }, recompute, &rows);
            stream_equals_fold(Frame::Rows { preceding: 1 }, recompute, &rows);
        }
        let aggs = [agg("count", vec![PhysExpr::Column(1)])];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let codec = CompactCodec::new(schema());
        let w = window(Frame::RowsRange { preceding_ms: 10 });
        let sweep = WindowProgram::compile(&w, &refs, &codec)
            .expect("compiles")
            .sweep(&w, false)
            .expect("sweeps");
        let mut st = sweep.new_state();
        let counts: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(ts, i, ..)| {
                let row = edge_row(ts, i, None, None);
                let bytes = codec.encode(&row).expect("encode");
                let mut out = Vec::new();
                sweep
                    .push(&mut st, ts, &bytes, &codec, &mut out)
                    .expect("push");
                out
            })
            .collect();
        // 40 is below [100, 110] and dropped; 111 moves the frame past 100.
        let want = [1, 2, 2, 3, 4, 3].map(|n| vec![Value::Bigint(n)]);
        assert_eq!(counts, want);
        // A row the codec refuses never reaches the state.
        let mut out = Vec::new();
        assert!(sweep
            .push(&mut st, 112, &[1, 2, 3], &codec, &mut out)
            .is_err());
        assert_eq!(st.kept.rows.len() - st.kept.first, 4);
    }
}
