//! Rows a window scan keeps where storage holds them.
//!
//! [`DataTable::scan_window_pinned`](crate::DataTable::scan_window_pinned)
//! lends an in-memory table's rows as `&'g [u8]` borrows of the skiplist
//! nodes' own payloads, valid for the caller's epoch pin `'g`: a node a
//! concurrent TTL truncation detaches is freed only after every pin that
//! could reach it drops. A [`PinnedScan`] keeps those rows — as
//! `(ts, seq, address, length)` entries in pooled [`ScanBuffers`] — for a
//! fold after the scan, with no copy; a row lent for one visit only (a disk
//! table's block read) is copied into the buffers' arena instead. Entries
//! are readable only through the scan opened under the pin, which empties
//! them when it drops, before the pin does.

use crate::sync::epoch::Guard;

/// One row of [`DataTable::scan_window_pinned`](crate::DataTable::scan_window_pinned),
/// lent for the caller's pin `'g` or for the visit `'t` only.
#[derive(Debug, Clone, Copy)]
pub enum ScanRow<'g, 't> {
    /// The stored bytes themselves, valid while the pin is held.
    Pinned(&'g [u8]),
    /// Bytes read for this visit (a disk block): copy what is kept.
    Transient(&'t [u8]),
}

impl ScanRow<'_, '_> {
    /// The encoded row, whichever way it is lent.
    pub fn bytes(&self) -> &[u8] {
        match *self {
            ScanRow::Pinned(b) | ScanRow::Transient(b) => b,
        }
    }
}

/// Marks a [`PinnedEntry`] whose row was copied into the arena: its `addr`
/// is then an arena offset.
const COPIED: usize = 1 << (usize::BITS - 1);

/// One kept row: the `(ts, arrival index)` sort key plus where its bytes
/// are — a node's payload lent under the scan's pin, or the arena. Built
/// and read only through a [`PinnedScan`].
#[derive(Debug)]
pub struct PinnedEntry {
    /// Row timestamp (the primary sort key).
    pub ts: i64,
    /// Arrival index: ties on `ts` keep scan order.
    pub seq: usize,
    addr: usize,
    len: usize,
}

/// The pooled entries and arena of a request's window scans, kept warm
/// across requests; usable only through [`ScanBuffers::pin_scan`].
#[derive(Debug, Default)]
pub struct ScanBuffers {
    entries: Vec<PinnedEntry>,
    arena: Vec<u8>,
}

impl ScanBuffers {
    /// Open the buffers for one scan under `guard`, the caller's pin:
    /// empty now, and emptied again when the scan drops.
    pub fn pin_scan<'g>(&'g mut self, guard: &'g Guard) -> PinnedScan<'g> {
        self.entries.clear();
        self.arena.clear();
        PinnedScan {
            buf: self,
            bytes: 0,
            _pin: guard,
        }
    }

    /// What the buffers keep between scans, in bytes: the arena's and the
    /// entries' capacity.
    pub fn retained_bytes(&self) -> usize {
        self.arena.capacity() + self.entries.capacity() * std::mem::size_of::<PinnedEntry>()
    }
}

/// One scan under the pin `'g`: rows are kept in scan order, a prefix
/// sorted in place, and read back as [`PinnedRows`] while the scan lives.
pub struct PinnedScan<'g> {
    buf: &'g mut ScanBuffers,
    /// The kept rows' encoded bytes, summed.
    bytes: u64,
    _pin: &'g Guard,
}

/// Where a [`PinnedScan`] stood: entries, arena bytes, row bytes.
pub type ScanMark = (usize, usize, u64);

impl Drop for PinnedScan<'_> {
    fn drop(&mut self) {
        self.buf.entries.clear();
        self.buf.arena.clear();
    }
}

impl<'g> PinnedScan<'g> {
    /// Keep one scanned row, next in arrival order: a pinned row by its
    /// address, a transient one copied into the arena.
    #[inline]
    pub fn keep(&mut self, ts: i64, row: ScanRow<'g, '_>) {
        let ScanBuffers { entries, arena } = &mut *self.buf;
        self.bytes += row.bytes().len() as u64;
        let (addr, len) = match row {
            ScanRow::Pinned(b) => (b.as_ptr() as usize, b.len()),
            ScanRow::Transient(b) => {
                arena.extend_from_slice(b);
                (arena.len() - b.len(), b.len() | COPIED)
            }
        };
        let seq = entries.len();
        entries.push(PinnedEntry { ts, seq, addr, len });
    }

    /// The kept entries, in scan order until a prefix is sorted.
    #[inline]
    pub fn entries(&self) -> &[PinnedEntry] {
        &self.buf.entries
    }

    /// Where the scan stands.
    pub fn mark(&self) -> ScanMark {
        (self.buf.entries.len(), self.buf.arena.len(), self.bytes)
    }

    /// Drop everything kept since `mark` (a retried read).
    pub fn rewind(&mut self, (entries, arena, bytes): ScanMark) {
        self.buf.entries.truncate(entries);
        self.buf.arena.truncate(arena);
        self.bytes = bytes;
    }

    /// The encoded bytes of the first `n` kept rows (sorting a prefix does
    /// not change the sum of a longer one).
    pub fn prefix_bytes(&self, n: usize) -> u64 {
        match self.buf.entries.get(..n) {
            Some(rows) if n < self.buf.entries.len() => {
                rows.iter().map(|e| (e.len & !COPIED) as u64).sum()
            }
            _ => self.bytes,
        }
    }

    /// Sort the first `n` entries ascending by `(ts, seq)`.
    pub fn sort_prefix(&mut self, n: usize) {
        let entries = &mut self.buf.entries;
        let n = n.min(entries.len());
        if let Some(prefix) = entries.get_mut(..n) {
            prefix.sort_unstable_by_key(|e| (e.ts, e.seq));
        }
    }

    /// The first `n` kept rows (all of them past the end).
    #[inline]
    pub fn prefix(&self, n: usize) -> PinnedRows<'_> {
        let entries = &self.buf.entries;
        PinnedRows {
            entries: entries.get(..n).unwrap_or(entries),
            arena: &self.buf.arena,
        }
    }
}

/// A prefix of a [`PinnedScan`]'s rows, readable while the scan (and so its
/// pin) lives.
pub struct PinnedRows<'a> {
    entries: &'a [PinnedEntry],
    arena: &'a [u8],
}

impl PinnedRows<'_> {
    /// How many rows there are.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The encoded bytes of row `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let e = self.entries.get(i)?;
        if e.len & COPIED != 0 {
            return self.arena.get(e.addr..e.addr.checked_add(e.len & !COPIED)?);
        }
        // SAFETY: an entry without `COPIED` was made by `PinnedScan::keep`
        // from a `&'g [u8]` — a stored row's bytes, lent for the pin `'g`
        // the scan was opened under. These rows borrow that scan, so `'g`
        // has not ended; entries never leave it (private fields, no
        // `Clone`) and are emptied when it drops, so none is read under
        // another pin.
        Some(unsafe { std::slice::from_raw_parts(e.addr as *const u8, e.len) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::epoch;

    #[test]
    fn a_pinned_scan_lends_memory_rows_and_copies_transient_ones() {
        let stored: Vec<u8> = vec![7, 8, 9];
        let guard = epoch::pin();
        let mut buffers = ScanBuffers::default();
        {
            let mut scan = buffers.pin_scan(&guard);
            scan.keep(30, ScanRow::Pinned(&stored));
            scan.keep(20, ScanRow::Transient(&[4, 5]));
            let mark = scan.mark();
            scan.keep(10, ScanRow::Transient(&[6]));
            scan.rewind(mark);
            scan.keep(10, ScanRow::Pinned(&stored[1..]));
            scan.sort_prefix(3);
            let rows = scan.prefix(3);
            let order: Vec<(i64, usize)> = scan.entries().iter().map(|e| (e.ts, e.seq)).collect();
            assert_eq!(order, [(10, 2), (20, 1), (30, 0)]);
            assert_eq!(rows.get(0), Some(&[8, 9][..]));
            assert_eq!(rows.get(1), Some(&[4, 5][..]));
            // Lent, not copied: the very bytes the table holds.
            assert_eq!(rows.get(2).map(<[u8]>::as_ptr), Some(stored.as_ptr()));
            assert_eq!(rows.get(3), None);
            assert_eq!((scan.prefix_bytes(3), scan.prefix_bytes(1)), (7, 2));
            assert_eq!(scan.prefix(1).len(), 1);
        }
        // The scan emptied the entries when it dropped; capacity stays.
        assert!(buffers.retained_bytes() >= 2 + 3 * std::mem::size_of::<PinnedEntry>());
        assert!(buffers.pin_scan(&guard).entries().is_empty());
    }
}
