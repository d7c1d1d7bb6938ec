//! Durable write-ahead log behind the [`Replicator`](crate::Replicator)
//! (paper §5.1's binlog, made crash-safe).
//!
//! ## Record format
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload serializes one
//! [`LogEntry`]: `offset u64 · ts i64 · table (u16 len + bytes) ·
//! key (u16 count, tagged values) · data (u32 len + bytes)`. All integers
//! are little-endian.
//!
//! ## Segments and group commit
//!
//! Records append to segment files `seg-<first-offset>.wal`; a segment
//! rotates once it exceeds [`WalOptions::segment_bytes`] (always at a
//! record boundary, after the old segment is sealed by a sync).
//! [`Wal::append`] frames a record straight into the group-commit buffer
//! in process memory and makes no syscall. A sync hands the whole buffer
//! to the OS with one `write` and then makes it durable with one
//! `fdatasync`: that is the group-commit batch. The automatic policy syncs
//! every [`WalOptions::group_commit`] records; rotation and `Drop` sync
//! too, and callers needing a hard durability point (snapshots, clean
//! shutdown) call [`Wal::sync`] explicitly. `group_commit` and
//! `segment_bytes` (which counts buffered bytes) bound the buffer.
//!
//! Unsynced records live in that buffer, so a process kill loses exactly
//! the records appended since the last sync — the bound the log always
//! promised: only records covered by an `fdatasync` survive a crash.
//!
//! ## Sticky failures
//!
//! The first I/O error (or out-of-order append) is kept: every later
//! [`Wal::append`] and [`Wal::sync`] returns it. A log that lost a record
//! never reports a sync as successful again, so a caller's durability
//! barrier cannot claim records the disk does not hold.
//!
//! ## Torn-tail detection
//!
//! [`Wal::open`] scans all segments in offset order, validating length
//! bounds, CRC, and offset density. The first invalid record marks a torn
//! tail: the segment is truncated to its valid prefix and later segments
//! are deleted. This makes recovery a pure function of the durable bytes —
//! the property the seeded crash harness exercises at every byte offset.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use openmldb_chaos::InjectionPoint;
use openmldb_types::{Error, KeyValue, Result};

use crate::binlog::LogEntry;

/// Upper bound on one record's payload (corrupt length guard).
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Tuning knobs for the on-disk log.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Automatic group commit: fsync after this many buffered records.
    /// `0` syncs on every append.
    pub group_commit: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 * 1024 * 1024,
            group_commit: 32,
        }
    }
}

// ------------------------------------------------------------------ crc32 --

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum protecting every WAL and snapshot
/// record payload).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ----------------------------------------------------------------- framing --

/// Frame `payload` as `[len][crc][payload]`.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Append `e` to `out` as one framed record, encoded in place: a header
/// placeholder, the payload, then the length and CRC patched over the
/// placeholder. The bytes equal `frame(&encode_entry(e))`. Returns the
/// record's framed length.
fn frame_entry_into(e: &LogEntry, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    encode_entry_into(e, out);
    let (header, payload) = out.split_at_mut(start + 8);
    let header = &mut header[start..];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    out.len() - start
}

/// Parse one frame at `pos`; `Some((payload, next_pos))` only when the
/// length is in bounds, the buffer holds the whole record, and the CRC
/// matches — anything else is a torn or corrupt tail.
pub(crate) fn read_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header = buf.get(pos..pos + 8)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let payload = buf.get(pos + 8..pos + 8 + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, pos + 8 + len as usize))
}

// ------------------------------------------------------- entry (de)coding --

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serialize a [`LogEntry`] into a WAL record payload.
pub fn encode_entry(e: &LogEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + e.table.len() + e.data.len());
    encode_entry_into(e, &mut out);
    out
}

/// Append the record payload of `e` to `out`: the bytes [`encode_entry`]
/// returns, without an allocation of their own.
pub fn encode_entry_into(e: &LogEntry, out: &mut Vec<u8>) {
    out.extend_from_slice(&e.offset.to_le_bytes());
    out.extend_from_slice(&e.ts.to_le_bytes());
    out.extend_from_slice(&(e.table.len() as u16).to_le_bytes());
    out.extend_from_slice(e.table.as_bytes());
    out.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
    for k in e.key.iter() {
        match k {
            KeyValue::Null => out.push(0),
            KeyValue::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            KeyValue::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            KeyValue::Bits(b) => {
                out.push(3);
                out.extend_from_slice(&b.to_le_bytes());
            }
            KeyValue::Str(s) => {
                out.push(4);
                put_bytes(out, s.as_bytes());
            }
        }
    }
    put_bytes(out, &e.data);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| Error::Storage("wal record payload truncated".into()))?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    fn str(&mut self, n: usize) -> Result<&'a str> {
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| Error::Storage("wal record holds invalid UTF-8".into()))
    }
}

/// Decode a payload produced by [`encode_entry`].
pub fn decode_entry(payload: &[u8]) -> Result<LogEntry> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let offset = c.u64()?;
    let ts = c.i64()?;
    let table_len = c.u16()? as usize;
    let table: Arc<str> = Arc::from(c.str(table_len)?);
    let key_count = c.u16()? as usize;
    let mut key = Vec::with_capacity(key_count);
    for _ in 0..key_count {
        key.push(match c.u8()? {
            0 => KeyValue::Null,
            1 => KeyValue::Bool(c.u8()? != 0),
            2 => KeyValue::Int(c.i64()?),
            3 => KeyValue::Bits(c.u64()?),
            4 => {
                let n = c.u32()? as usize;
                KeyValue::Str(Arc::from(c.str(n)?))
            }
            tag => return Err(Error::Storage(format!("wal key tag {tag} unknown"))),
        });
    }
    let data_len = c.u32()? as usize;
    let data: Arc<[u8]> = Arc::from(c.take(data_len)?.to_vec().into_boxed_slice());
    Ok(LogEntry {
        offset,
        table,
        key: Arc::from(key.into_boxed_slice()),
        ts,
        data,
    })
}

// -------------------------------------------------------------- dir layout --

fn io_err(context: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Storage(format!("wal {context} {}: {e}", path.display()))
}

fn segment_path(dir: &Path, first_offset: u64) -> PathBuf {
    dir.join(format!("seg-{first_offset:020}.wal"))
}

/// Segment files in `dir`, sorted by first offset.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read dir", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(first) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((first, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(first, _)| *first);
    Ok(out)
}

/// One decoded record plus the cumulative byte length of the WAL up to and
/// including it (the crash harness's truncation coordinate system).
#[derive(Clone, Debug)]
pub struct WalRecord {
    pub entry: LogEntry,
    pub end_bytes: u64,
}

/// What a full scan of a WAL directory found.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    pub records: Vec<WalRecord>,
    /// Cumulative bytes of the valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (torn or corrupt tail).
    pub dropped_bytes: u64,
    /// True when a torn/corrupt tail was detected.
    pub torn_tail: bool,
}

struct SegmentScan {
    path: PathBuf,
    file_len: u64,
    valid_len: u64,
}

fn scan_dir(dir: &Path) -> Result<(WalScan, Vec<SegmentScan>)> {
    let mut scan = WalScan::default();
    let mut segments = Vec::new();
    let mut next_offset = 0u64;
    let mut poisoned = false;
    for (first_offset, path) in list_segments(dir)? {
        let bytes = fs::read(&path).map_err(|e| io_err("read segment", &path, e))?;
        let mut valid_len = 0u64;
        if poisoned || first_offset != next_offset {
            // A segment past a torn tail, or one that does not continue the
            // offset sequence, is unreachable history: drop it whole.
            poisoned = true;
            scan.dropped_bytes += bytes.len() as u64;
            segments.push(SegmentScan {
                path,
                file_len: bytes.len() as u64,
                valid_len: 0,
            });
            continue;
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some((payload, next_pos)) = read_frame(&bytes, pos) else {
                break;
            };
            let entry = match decode_entry(payload) {
                Ok(e) => e,
                Err(_) => break,
            };
            if entry.offset != next_offset {
                break;
            }
            pos = next_pos;
            next_offset += 1;
            valid_len = pos as u64;
            scan.records.push(WalRecord {
                entry,
                end_bytes: scan.valid_bytes + valid_len,
            });
        }
        if (valid_len as usize) < bytes.len() {
            poisoned = true;
            scan.dropped_bytes += bytes.len() as u64 - valid_len;
        }
        scan.valid_bytes += valid_len;
        segments.push(SegmentScan {
            path,
            file_len: bytes.len() as u64,
            valid_len,
        });
    }
    scan.torn_tail = scan.dropped_bytes > 0;
    Ok((scan, segments))
}

/// Non-mutating scan of a WAL directory: every valid record in offset
/// order, with byte boundaries. The digest oracle and the crash harness
/// both read the log through this.
pub fn read_dir(dir: &Path) -> Result<WalScan> {
    Ok(scan_dir(dir)?.0)
}

/// Total bytes currently in `dir`'s segment files (valid or not).
pub fn total_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0u64;
    for (_, path) in list_segments(dir)? {
        total += fs::metadata(&path)
            .map_err(|e| io_err("stat segment", &path, e))?
            .len();
    }
    Ok(total)
}

/// Sever the WAL at `target_bytes` of its logical concatenation — the
/// process-model crash: bytes past the point are gone, possibly splitting
/// a record in half (a torn write). Files wholly past the point are
/// removed.
pub fn truncate_to(dir: &Path, target_bytes: u64) -> Result<()> {
    let mut remaining = target_bytes;
    for (_, path) in list_segments(dir)? {
        let len = fs::metadata(&path)
            .map_err(|e| io_err("stat segment", &path, e))?
            .len();
        if remaining >= len {
            remaining -= len;
            continue;
        }
        if remaining == 0 {
            fs::remove_file(&path).map_err(|e| io_err("remove segment", &path, e))?;
        } else {
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("open segment", &path, e))?;
            f.set_len(remaining)
                .map_err(|e| io_err("truncate segment", &path, e))?;
            remaining = 0;
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- Wal --

struct WalState {
    file: File,
    seg_path: PathBuf,
    /// Bytes of the current segment, the group-commit buffer included.
    seg_bytes: u64,
    /// Next offset the log expects to append.
    next_offset: u64,
    /// Logical bytes appended across all segments, the buffer included.
    written_bytes: u64,
    /// Logical bytes covered by the last successful fsync.
    durable_bytes: u64,
    /// Offsets `[0, durable_offset)` are fsync-durable.
    durable_offset: u64,
    /// Records appended since the last successful sync.
    pending: u64,
    /// The group-commit buffer: framed records not yet handed to the OS.
    /// Only `sync_locked` writes it to the segment file.
    buf: Vec<u8>,
    /// The first I/O or ordering error; once set, every `append` and
    /// `sync` returns it.
    failed: Option<Error>,
}

impl WalState {
    /// Keep `e` as the log's sticky failure (the first one wins) and
    /// return the kept error.
    fn fail(&mut self, e: Error) -> Error {
        self.failed.get_or_insert(e).clone()
    }

    fn check(&self) -> Result<()> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

/// The durable log: one per table, owned by the table's `Replicator`.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    state: Mutex<WalState>,
}

impl Wal {
    /// Open (or create) the WAL in `dir`: scan existing segments, truncate
    /// any torn tail, and position the append head after the last valid
    /// record. Returns the recovered entries alongside the handle.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> Result<(Wal, WalScan)> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let (scan, segments) = scan_dir(&dir)?;
        if scan.torn_tail {
            crate::metrics::wal_torn_tails().inc();
        }
        // Drop the torn tail: truncate the first partially-valid segment,
        // remove fully-invalid ones, so the on-disk state equals the
        // recovered state exactly.
        let mut last_valid: Option<(PathBuf, u64)> = None;
        for seg in &segments {
            if seg.valid_len == 0 {
                let _ = fs::remove_file(&seg.path);
                continue;
            }
            if seg.valid_len < seg.file_len {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&seg.path)
                    .map_err(|e| io_err("open segment", &seg.path, e))?;
                f.set_len(seg.valid_len)
                    .map_err(|e| io_err("truncate segment", &seg.path, e))?;
            }
            last_valid = Some((seg.path.clone(), seg.valid_len));
        }
        let next_offset = scan.records.len() as u64;
        let (seg_path, seg_bytes) = match last_valid {
            Some((path, len)) => (path, len),
            None => (segment_path(&dir, 0), 0),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)
            .map_err(|e| io_err("open segment", &seg_path, e))?;
        let state = WalState {
            file,
            seg_path,
            seg_bytes,
            next_offset,
            written_bytes: scan.valid_bytes,
            durable_bytes: scan.valid_bytes,
            durable_offset: next_offset,
            pending: 0,
            buf: Vec::new(),
            failed: None,
        };
        Ok((
            Wal {
                dir,
                opts,
                state: Mutex::new(state),
            },
            scan,
        ))
    }

    /// Directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next offset the log expects (== number of records appended).
    pub fn next_offset(&self) -> u64 {
        self.state.lock().next_offset
    }

    /// Offsets `[0, durable_offset)` survived the last successful fsync.
    pub fn durable_offset(&self) -> u64 {
        self.state.lock().durable_offset
    }

    /// Logical bytes appended: durable, in the OS cache, or still in the
    /// group-commit buffer.
    pub fn written_bytes(&self) -> u64 {
        self.state.lock().written_bytes
    }

    /// Append one record. Offsets must arrive dense and in order (the
    /// replicator's log lock guarantees this). Group commit: the record is
    /// framed into the in-memory group buffer and reaches the file with its
    /// batch at the next sync. Returns the log's sticky failure, if any.
    pub fn append(&self, entry: &LogEntry) -> Result<()> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.check()?;
        if entry.offset != st.next_offset {
            let e = Error::Storage(format!(
                "wal append out of order: got offset {}, expected {}",
                entry.offset, st.next_offset
            ));
            return Err(st.fail(e));
        }
        if st.seg_bytes >= self.opts.segment_bytes {
            // Rotate at a record boundary: seal the current segment with its
            // buffered records and an fsync, so a crash cannot tear across
            // segment files.
            Self::sync_locked(st)?;
            let path = segment_path(&self.dir, entry.offset);
            st.file = match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(f) => f,
                Err(e) => return Err(st.fail(io_err("open segment", &path, e))),
            };
            st.seg_path = path;
            st.seg_bytes = 0;
        }
        let len = frame_entry_into(entry, &mut st.buf) as u64;
        st.seg_bytes += len;
        st.written_bytes += len;
        st.next_offset += 1;
        st.pending += 1;
        crate::metrics::wal_appends().inc();
        crate::metrics::wal_bytes().add(len);
        if st.pending >= self.opts.group_commit.max(1) {
            Self::sync_locked(st)?;
        }
        Ok(())
    }

    /// Write the group-commit buffer and flush every pending append with
    /// one fsync (the group commit point). A
    /// [`WalFsync`](openmldb_chaos::InjectionPoint::WalFsync) kill models a
    /// crash window: the buffer reaches the file, the call returns cleanly,
    /// but the durable watermark does not advance, so the crash harness
    /// treats the batch as lost. An injected error is a failed group write:
    /// nothing of the batch reaches the file and the error sticks.
    pub fn sync(&self) -> Result<()> {
        let mut st = self.state.lock();
        Self::sync_locked(&mut st)
    }

    /// The only place the log writes its buffer or fsyncs, and so the only
    /// place the group-commit metrics are recorded: the put path reads no
    /// clock.
    fn sync_locked(st: &mut WalState) -> Result<()> {
        st.check()?;
        if st.pending == 0 && st.durable_bytes == st.written_bytes {
            return Ok(());
        }
        let started = Instant::now();
        if let Err(e) = openmldb_chaos::inject(InjectionPoint::WalFsync) {
            crate::metrics::faults_injected().inc();
            return Err(st.fail(e));
        }
        if let Err(e) = st.file.write_all(&st.buf) {
            let e = io_err("append", &st.seg_path, e);
            return Err(st.fail(e));
        }
        st.buf.clear();
        if openmldb_chaos::inject_kill(InjectionPoint::WalFsync) {
            crate::metrics::faults_injected().inc();
            return Ok(());
        }
        if let Err(e) = st.file.sync_data() {
            let e = io_err("fsync", &st.seg_path, e);
            return Err(st.fail(e));
        }
        crate::metrics::wal_fsync_ns().record(started.elapsed().as_nanos() as u64);
        crate::metrics::wal_group_records().record(st.pending);
        st.durable_bytes = st.written_bytes;
        st.durable_offset = st.next_offset;
        st.pending = 0;
        crate::metrics::wal_fsyncs().inc();
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown: write the buffer and
        // fsync it. A real crash is exactly the case where this never runs.
        let mut st = self.state.lock();
        let _ = Self::sync_locked(&mut st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("openmldb_wal_{tag}_{}_{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(offset: u64) -> LogEntry {
        LogEntry {
            offset,
            table: "t".into(),
            key: Arc::from(
                vec![KeyValue::Int(offset as i64), KeyValue::Str("k".into())].into_boxed_slice(),
            ),
            ts: offset as i64 * 10,
            data: Arc::from(vec![offset as u8; 16].into_boxed_slice()),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn entry_roundtrips_through_codec() {
        let e = entry(7);
        let decoded = decode_entry(&encode_entry(&e)).unwrap();
        assert_eq!(decoded.offset, e.offset);
        assert_eq!(decoded.table, e.table);
        assert_eq!(decoded.key, e.key);
        assert_eq!(decoded.ts, e.ts);
        assert_eq!(decoded.data, e.data);
    }

    #[test]
    fn append_reopen_recovers_everything() {
        let dir = tmp_dir("roundtrip");
        {
            let (wal, scan) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(scan.records.is_empty());
            for i in 0..100 {
                wal.append(&entry(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, scan) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(scan.records.len(), 100);
        assert!(!scan.torn_tail);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.entry.offset, i as u64);
        }
        assert_eq!(wal.next_offset(), 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_survive_reopen() {
        let dir = tmp_dir("rotate");
        let opts = WalOptions {
            segment_bytes: 256,
            group_commit: 8,
        };
        {
            let (wal, _) = Wal::open(&dir, opts).unwrap();
            for i in 0..64 {
                wal.append(&entry(i)).unwrap();
            }
        }
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "256-byte segments must rotate"
        );
        let (_, scan) = Wal::open(&dir, opts).unwrap();
        assert_eq!(scan.records.len(), 64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_dropped_at_every_byte() {
        let dir = tmp_dir("torn");
        {
            let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..10 {
                wal.append(&entry(i)).unwrap();
            }
        }
        let full = read_dir(&dir).unwrap();
        assert_eq!(full.records.len(), 10);
        let boundaries: Vec<u64> = full.records.iter().map(|r| r.end_bytes).collect();
        for cut in 0..=full.valid_bytes {
            let scratch = tmp_dir("torn_cut");
            fs::create_dir_all(&scratch).unwrap();
            for (_, p) in list_segments(&dir).unwrap() {
                fs::copy(&p, scratch.join(p.file_name().unwrap())).unwrap();
            }
            truncate_to(&scratch, cut).unwrap();
            let scan = read_dir(&scratch).unwrap();
            let expected = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(
                scan.records.len(),
                expected,
                "cut at byte {cut}: exactly the fully-contained records survive"
            );
            assert_eq!(scan.torn_tail, cut != 0 && !boundaries.contains(&cut));
            // Reopen truncates the tail and appends continue cleanly.
            let (wal, reopened) = Wal::open(&scratch, WalOptions::default()).unwrap();
            assert_eq!(reopened.records.len(), expected);
            wal.append(&entry(expected as u64)).unwrap();
            wal.sync().unwrap();
            drop(wal);
            assert_eq!(read_dir(&scratch).unwrap().records.len(), expected + 1);
            let _ = fs::remove_dir_all(&scratch);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_byte_drops_the_suffix() {
        let dir = tmp_dir("corrupt");
        {
            let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..10 {
                wal.append(&entry(i)).unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let scan = read_dir(&dir).unwrap();
        assert!(scan.torn_tail);
        assert!(scan.records.len() < 10, "suffix after corruption dropped");
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.entry.offset, i as u64, "prefix intact");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tmp_dir("group");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            group_commit: 16,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..8 {
            wal.append(&entry(i)).unwrap();
        }
        assert_eq!(
            wal.durable_offset(),
            0,
            "batch below threshold: no fsync yet"
        );
        for i in 8..40 {
            wal.append(&entry(i)).unwrap();
        }
        assert!(
            wal.durable_offset() >= 17,
            "threshold crossed: batch synced"
        );
        wal.sync().unwrap();
        assert_eq!(wal.durable_offset(), 40, "explicit sync drains the batch");
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_append_is_rejected_and_sticks() {
        let dir = tmp_dir("order");
        let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&entry(0)).unwrap();
        let err = wal.append(&entry(5)).unwrap_err();
        assert_eq!(
            wal.append(&entry(1)),
            Err(err.clone()),
            "the first error sticks"
        );
        assert_eq!(wal.sync(), Err(err), "no sync succeeds after a failure");
        assert_eq!(wal.durable_offset(), 0);
        drop(wal);
        assert!(read_dir(&dir).unwrap().records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bytes a segment must hold for `offsets`: the framed records back to
    /// back, framed by the allocating codec path.
    fn expected_bytes(offsets: std::ops::Range<u64>) -> Vec<u8> {
        offsets
            .flat_map(|o| frame(&encode_entry(&entry(o))))
            .collect()
    }

    #[test]
    fn unsynced_records_are_absent_from_disk() {
        let dir = tmp_dir("unsynced");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            group_commit: 1_000,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..10 {
            wal.append(&entry(i)).unwrap();
        }
        assert!(read_dir(&dir).unwrap().records.is_empty());
        assert_eq!(total_bytes(&dir).unwrap(), 0, "buffered, not written");
        wal.sync().unwrap();
        assert_eq!(read_dir(&dir).unwrap().records.len(), 10);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_writes_and_syncs_the_buffer() {
        let dir = tmp_dir("drop");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            group_commit: 1_000,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..10 {
            wal.append(&entry(i)).unwrap();
        }
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(fs::read(path).unwrap(), expected_bytes(0..10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_buffered_records_into_the_old_segment() {
        let dir = tmp_dir("seal");
        let opts = WalOptions {
            segment_bytes: 256,
            group_commit: 1_000,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..20 {
            wal.append(&entry(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "256-byte segments must rotate");
        let firsts: Vec<u64> = segments.iter().map(|(first, _)| *first).collect();
        for (i, (first, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path).unwrap();
            match firsts.get(i + 1) {
                // Sealed: exactly its records, written before the rotation.
                Some(&next) => assert_eq!(bytes, expected_bytes(*first..next)),
                // Current: its records are still in the group buffer.
                None => assert!(bytes.is_empty()),
            }
        }
        assert_eq!(wal.durable_offset(), *firsts.last().unwrap());
        wal.sync().unwrap();
        let (last, path) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(fs::read(path).unwrap(), expected_bytes(last..20));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }
}
