//! Per-request reusable scratch state for the streaming request path.
//!
//! A warm [`RequestScratch`] owns every buffer the online engine touches
//! while serving one request — the scan entries, the combined row, the
//! aggregate argument/output vectors, and the per-window kernel states — so
//! a steady-state request performs zero heap allocations: everything is
//! `clear()`ed between requests, never dropped.
//!
//! A window scan copies no row an in-memory table holds: its entries
//! ([`ScanBuffers`], `(ts, seq, address, length)` each) point at the
//! skiplist nodes' own bytes, lent for the request's one epoch pin, and are
//! readable only through the scan opened under that pin — which empties
//! them when it drops, before the pin does (`openmldb_storage::scan`). The
//! scan arena holds only what has no node to borrow from: rows a backend
//! lends for one visit (a disk table's block reads, a failover replica's
//! rows). The fold reads either kind through [`RowSource`]; string extrema
//! and count-map keys address a row by its index there, so nothing they
//! point at outlives the fold.

use openmldb_storage::{PinnedRows, ScanBuffers};
use openmldb_types::{Error, KeyValue, Result, Value};

use crate::program::WindowState;

/// Length sentinel marking a request-row entry in an entry list. The
/// engine builds no such entry: it encodes the request row and folds it as
/// the window's last row. This and [`ScanEntry::is_request_row`] stay only
/// because `benchmark/src/replay.rs` imports them.
pub const REQUEST_ROW: usize = usize::MAX;

/// One scanned window row: a `(ts, arrival index)` sort key plus a byte
/// range into an arena the caller owns (the offline sweep's rows).
#[derive(Debug, Clone, Copy)]
pub struct ScanEntry {
    /// Row timestamp (the primary sort key).
    pub ts: i64,
    /// Arrival index — ties on `ts` keep arrival order, reproducing the
    /// stable sort of the materializing path.
    pub seq: usize,
    /// Byte offset of the encoded row in the arena.
    pub start: usize,
    /// Encoded length, or [`REQUEST_ROW`] for the request-row marker.
    pub len: usize,
}

impl ScanEntry {
    /// Whether this entry is the [`REQUEST_ROW`] marker rather than a
    /// scanned, encoded row. Kept for `benchmark/src/replay.rs`; the engine
    /// only asserts it in debug builds.
    pub fn is_request_row(&self) -> bool {
        self.len == REQUEST_ROW
    }

    /// The encoded row bytes within `arena`. Must not be called on the
    /// request-row marker.
    pub fn bytes<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        debug_assert!(!self.is_request_row());
        &arena[self.start..self.start + self.len]
    }
}

/// The stored rows a window fold reads, by position: the entries over an
/// arena, or a pinned scan's borrows.
pub trait RowSource {
    /// How many rows there are.
    fn n_rows(&self) -> usize;
    /// The encoded bytes of row `i`.
    fn row_at(&self, i: usize) -> Result<&[u8]>;
}

#[cold]
fn row_outside_source(i: usize) -> Error {
    Error::Eval(format!("scanned row {i} outside its source"))
}

impl RowSource for (&[ScanEntry], &[u8]) {
    #[inline(always)]
    fn n_rows(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn row_at(&self, i: usize) -> Result<&[u8]> {
        let e = self.0.get(i).ok_or_else(|| row_outside_source(i))?;
        let end = e.start.checked_add(e.len);
        end.and_then(|end| self.1.get(e.start..end))
            .ok_or_else(|| row_outside_source(i))
    }
}

/// A byte arena as a single row: count-map keys over it are arena offsets
/// (the offline sweep's sliding maps).
impl RowSource for &[u8] {
    fn n_rows(&self) -> usize {
        1
    }

    fn row_at(&self, i: usize) -> Result<&[u8]> {
        (i == 0)
            .then_some(*self)
            .ok_or_else(|| row_outside_source(i))
    }
}

/// A prefix of a window scan's rows, lent under the request's pin.
impl RowSource for PinnedRows<'_> {
    #[inline(always)]
    fn n_rows(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn row_at(&self, i: usize) -> Result<&[u8]> {
        self.get(i).ok_or_else(|| row_outside_source(i))
    }
}

/// Reusable buffers for one in-flight request. Obtain from a pool, call
/// [`reset`](Self::reset) before use; all buffers keep their capacity across
/// requests so the warm path never allocates.
#[derive(Default)]
pub struct RequestScratch {
    /// The request row, encoded once — the last row every window fold
    /// reads. Empty until the request encodes it.
    pub request_row: Vec<u8>,
    /// The combined input row — the request's columns, then each LAST
    /// JOIN's — holding only the columns the plan reads, the rest NULL.
    pub combined: Vec<Value>,
    /// Aggregate outputs across all windows, in plan order.
    pub agg_values: Vec<Value>,
    /// Partition key under evaluation.
    pub key: Vec<KeyValue>,
    /// The window scan's entries and arena ([`ScanBuffers::pin_scan`]).
    pub scan: ScanBuffers,
    /// Per member window of the scan group being folded: `(rows, window
    /// id)` — how long a newest-first prefix of `entries` the window's
    /// frame covers.
    pub prefixes: Vec<(usize, usize)>,
    /// The projected output row.
    pub out: Vec<Value>,
    /// Warm per-window compiled-kernel states, indexed by window id. `None`
    /// until the window first runs through its compiled program.
    pub compiled: Vec<Option<WindowState>>,
    /// Reusable value stack for compiled expression programs
    /// ([`crate::program::ExprProgram::eval`]) — grown once, reused per row.
    pub vm_stack: Vec<Value>,
    /// The pooled per-request record: event ring, stage ledger and cost
    /// counters (see `openmldb_obs::flight`). Its allocation survives across
    /// requests; [`reset`](Self::reset) leaves it alone so the warm path
    /// stays allocation-free.
    pub flight: openmldb_obs::Recorder,
    /// Reusable render buffer for the heavy-hitter partition-key string —
    /// cleared and rewritten in place so a sampled request's offer to the
    /// top-K sketch allocates nothing once warm.
    pub key_repr: String,
    /// Consistency-sentinel scan digest: armed by the engine only for the
    /// 1-in-N sampled requests, so the unsampled warm path pays a single
    /// `bool` test per window. `Copy` and fixed-size — no heap.
    pub audit: openmldb_obs::ScanDigest,
}

impl RequestScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear everything for the next request, keeping capacity and warm
    /// window kernel states (which are `reset`, not rebuilt).
    pub fn reset(&mut self) {
        self.request_row.clear();
        self.combined.clear();
        self.agg_values.clear();
        self.key.clear();
        self.prefixes.clear();
        self.out.clear();
        self.key_repr.clear();
        self.vm_stack.clear();
        self.audit.clear();
        for w in self.compiled.iter_mut().flatten() {
            w.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_address_arena_bytes_and_the_request_marker() {
        let arena = [1u8, 2, 3, 9];
        let row = |ts, seq, start, len| ScanEntry {
            ts,
            seq,
            start,
            len,
        };
        let mut entries = [
            row(10, 0, 0, 3),
            row(20, 1, 0, REQUEST_ROW),
            row(5, 2, 3, 1),
        ];
        assert!(!entries[0].is_request_row());
        assert!(entries[1].is_request_row());
        assert_eq!(entries[0].bytes(&arena), &[1, 2, 3]);
        assert_eq!(entries[2].bytes(&arena), &[9]);

        // Sorting by (ts, seq) reproduces the materializing path's stable
        // ascending-ts order.
        entries.sort_unstable_by_key(|e| (e.ts, e.seq));
        assert_eq!(entries[0].ts, 5);
        assert!(entries[2].is_request_row());
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut s = RequestScratch::new();
        s.prefixes.push((64, 0));
        s.out.push(Value::Bigint(1));
        let (prefixes_cap, out_cap) = (s.prefixes.capacity(), s.out.capacity());
        s.reset();
        assert!(s.prefixes.is_empty() && s.out.is_empty());
        assert_eq!(s.prefixes.capacity(), prefixes_cap);
        assert_eq!(s.out.capacity(), out_cap);
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
