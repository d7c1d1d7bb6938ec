//! Per-request reusable scratch state for the streaming request path.
//!
//! A warm [`RequestScratch`] owns every buffer the online engine touches
//! while serving one request — the scan arena, the sort entries, the join
//! probe row, the aggregate argument/output vectors, and the per-window
//! kernel states — so a steady-state request performs zero heap
//! allocations: everything is `clear()`ed between requests, never dropped.

use openmldb_types::{KeyValue, Value};

use crate::program::WindowState;

/// Length sentinel marking the request row itself inside the entry list —
/// the request row lives as decoded `Value`s, not in the byte arena.
pub const REQUEST_ROW: usize = usize::MAX;

/// One scanned window row: a `(ts, arrival index)` sort key plus a byte
/// range into the owning [`RequestScratch`] arena.
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
    /// Whether this entry is the request-row marker rather than a scanned,
    /// encoded row.
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

/// Reusable buffers for one in-flight request. Obtain from a pool, call
/// [`reset`](Self::reset) before use; all buffers keep their capacity across
/// requests so the warm path never allocates.
#[derive(Default)]
pub struct RequestScratch {
    /// Request row + join match, concatenated (the combined input row).
    pub combined: Vec<Value>,
    /// Join residual probe buffer — truncated back to the base row and
    /// re-extended per candidate instead of cloning `combined`.
    pub probe: Vec<Value>,
    /// Aggregate outputs across all windows, in plan order.
    pub agg_values: Vec<Value>,
    /// Partition key under evaluation.
    pub key: Vec<KeyValue>,
    /// Raw encoded rows copied out of storage during the scan pass.
    pub arena: Vec<u8>,
    /// Sort entries over `arena` (plus the request-row marker).
    pub entries: Vec<ScanEntry>,
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
        self.combined.clear();
        self.probe.clear();
        self.agg_values.clear();
        self.key.clear();
        self.arena.clear();
        self.entries.clear();
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
        s.arena.extend_from_slice(&[0u8; 64]);
        s.entries.push(ScanEntry {
            ts: 1,
            seq: 0,
            start: 0,
            len: 64,
        });
        s.out.push(Value::Bigint(1));
        let arena_cap = s.arena.capacity();
        let entries_cap = s.entries.capacity();
        s.reset();
        assert!(s.arena.is_empty() && s.entries.is_empty() && s.out.is_empty());
        assert_eq!(s.arena.capacity(), arena_cap);
        assert_eq!(s.entries.capacity(), entries_cap);
    }
}
