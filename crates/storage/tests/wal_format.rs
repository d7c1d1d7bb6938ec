//! The WAL's on-disk bytes, pinned independently of the writer: after any
//! sequence of appends, syncs, forced rotations and killed fsyncs, and a
//! final sync, every segment holds exactly
//! `[len u32 LE][crc32 u32 LE][encode_entry(e)]` for each of its records,
//! back to back — and at every step the files hold a prefix of that.
//!
//! This suite runs in its own process on purpose: a killed fsync arms a
//! global chaos plan. Without the `chaos` cargo feature the kill is
//! compiled out and a killed sync is an ordinary one.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use openmldb_chaos::{InjectionPoint, Plan};
use openmldb_storage::wal::{self, Wal, WalOptions};
use openmldb_storage::LogEntry;
use openmldb_types::KeyValue;
use proptest::prelude::*;

/// Segments rotate past this many bytes; a `Big` record alone exceeds it.
const SEGMENT_BYTES: u64 = 512;

#[derive(Clone, Debug)]
enum Op {
    /// Append a record with this many payload bytes.
    Append(usize),
    /// Append a record larger than a segment: the next append rotates.
    Big,
    Sync,
    /// A sync whose fsync the chaos layer kills.
    KilledSync,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0usize..48).prop_map(Op::Append),
        1 => Just(Op::Big),
        2 => Just(Op::Sync),
        2 => Just(Op::KilledSync),
    ]
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "openmldb_wal_format_{tag}_{}_{seq}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry(offset: u64, data_len: usize) -> LogEntry {
    LogEntry {
        offset,
        table: "t".into(),
        key: Arc::from(
            vec![KeyValue::Int(offset as i64), KeyValue::Str("k".into())].into_boxed_slice(),
        ),
        ts: offset as i64 * 7,
        data: Arc::from(vec![offset as u8; data_len].into_boxed_slice()),
    }
}

/// The record format, written out by hand rather than by the WAL's framer.
fn framed(e: &LogEntry) -> Vec<u8> {
    let payload = wal::encode_entry(e);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// `(first offset, bytes)` of every segment file, in offset order.
fn segments(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let first = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse().ok())
                .unwrap();
            (first, fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort_by_key(|(first, _)| *first);
    out
}

/// What every segment must hold once all of `log` is written: segment `i`
/// starts at its own first offset and ends where segment `i + 1` starts.
fn check_segments(dir: &Path, log: &[LogEntry], complete: bool) -> Result<(), TestCaseError> {
    let segs = segments(dir);
    for (i, (first, bytes)) in segs.iter().enumerate() {
        let end = segs.get(i + 1).map_or(log.len() as u64, |(next, _)| *next);
        prop_assert!(*first <= end && end <= log.len() as u64);
        let expected: Vec<u8> = log[*first as usize..end as usize]
            .iter()
            .flat_map(framed)
            .collect();
        if complete || i + 1 < segs.len() {
            prop_assert_eq!(bytes, &expected, "segment {} (first offset {})", i, first);
        } else {
            prop_assert!(
                expected.starts_with(bytes),
                "current segment {first} is not a prefix of its records"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn segments_hold_exactly_the_framed_records(
        ops in proptest::collection::vec(op(), 1..80),
        group_commit in 1u64..12,
    ) {
        let dir = tmp_dir("ops");
        let opts = WalOptions { segment_bytes: SEGMENT_BYTES, group_commit };
        let (handle, _) = Wal::open(&dir, opts).unwrap();
        let mut log: Vec<LogEntry> = Vec::new();
        for op in &ops {
            match op {
                Op::Append(len) => {
                    let e = entry(log.len() as u64, *len);
                    handle.append(&e).unwrap();
                    log.push(e);
                }
                Op::Big => {
                    let e = entry(log.len() as u64, SEGMENT_BYTES as usize);
                    handle.append(&e).unwrap();
                    log.push(e);
                }
                Op::Sync => {
                    handle.sync().unwrap();
                    prop_assert_eq!(handle.durable_offset(), log.len() as u64);
                    prop_assert_eq!(wal::read_dir(&dir).unwrap().records.len(), log.len());
                }
                Op::KilledSync => {
                    let before = handle.durable_offset();
                    openmldb_chaos::install(
                        Plan::new(log.len() as u64).kill_rate(InjectionPoint::WalFsync, 1.0),
                    );
                    let synced = handle.sync();
                    openmldb_chaos::reset();
                    synced.unwrap();
                    // The group reached the file; only its fsync died.
                    prop_assert_eq!(wal::read_dir(&dir).unwrap().records.len(), log.len());
                    if openmldb_chaos::enabled() && before < log.len() as u64 {
                        prop_assert_eq!(handle.durable_offset(), before);
                    } else {
                        prop_assert_eq!(handle.durable_offset(), log.len() as u64);
                    }
                }
            }
            check_segments(&dir, &log, false)?;
        }
        handle.sync().unwrap();
        prop_assert_eq!(handle.durable_offset(), log.len() as u64);
        check_segments(&dir, &log, true)?;
        drop(handle);
        let scan = wal::read_dir(&dir).unwrap();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(scan.records.len(), log.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
