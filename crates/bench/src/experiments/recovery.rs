//! **Recovery** — seeded crash-and-restart cycles against the durable WAL +
//! snapshot spine.
//!
//! One golden process per snapshot-interval config writes a durable
//! directory (rows inserted through the normal path, periodic
//! `snapshot_now`, final `sync_durable`). Each seeded cycle then models a
//! process crash: copy the directory, sever the WAL at a schedule-chosen
//! byte offset (any offset — including mid-record torn writes), drop
//! snapshots that could not have existed at that point in time (their
//! covered offset exceeds the surviving durable log), sometimes tear the
//! newest surviving snapshot mid-file, and `Database::recover` the wreck.
//!
//! The table reports recovery time per snapshot interval and by surviving
//! WAL length. That recovery loses, duplicates and corrupts nothing is
//! asserted by `tests/recovery.rs`
//! (`fixed_seed_crash_sweep_loses_nothing_and_is_deterministic` and
//! `armed_fsync_and_snapshot_kills_never_corrupt`).
//!
//! With the `chaos` feature compiled in, the golden run of the densest
//! config additionally arms `WalFsync` and `SnapshotWrite` kills, so the
//! durable watermark lags the written log and some snapshot attempts die
//! mid-write exactly as a crash would leave them.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use openmldb_chaos::{CrashSchedule, InjectionPoint, Plan};
use openmldb_core::Database;
use openmldb_storage::{snapshot, wal};
use openmldb_types::{Row, Value};

use crate::harness::{fmt, print_table, scaled};

/// Deterministic seed for the crash schedule and chaos plan.
pub const SEED: u64 = 0xD15C_0BE5;

/// Rows the golden run writes per config.
fn golden_rows() -> usize {
    scaled(400)
}

/// Seeded crash/restart cycles per snapshot config (3 configs × this).
fn cycles_per_config() -> usize {
    scaled(170)
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "openmldb-bench-recovery-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn mk_row(i: usize) -> Row {
    Row::new(vec![
        Value::Bigint((i % 16) as i64),
        Value::Double(i as f64 * 0.5),
        Value::Timestamp(1_000 + i as i64 * 7),
    ])
}

/// Write the golden durable directory for one config; returns the
/// directory and the number of snapshots that actually published.
fn golden_run(snapshot_every: usize, arm_chaos: bool) -> (PathBuf, usize) {
    let dir = tmp_dir(&format!("golden_{snapshot_every}"));
    if arm_chaos {
        openmldb_chaos::install(
            Plan::new(SEED)
                .kill_rate(InjectionPoint::WalFsync, 0.2)
                .kill_rate(InjectionPoint::SnapshotWrite, 0.2),
        );
    }
    let db = Database::recover(&dir).unwrap();
    db.execute("CREATE TABLE t (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    let mut published = 0usize;
    for i in 0..golden_rows() {
        db.insert_row("t", &mk_row(i)).unwrap();
        if snapshot_every > 0 && (i + 1) % snapshot_every == 0 {
            // Under an armed SnapshotWrite kill this attempt can die
            // mid-write, leaving a partial tmp file — exactly the artifact
            // recovery must shrug off.
            if let Ok(n) = db.snapshot_now() {
                published += n;
            }
        }
    }
    db.sync_durable().unwrap();
    if arm_chaos {
        openmldb_chaos::reset();
    }
    (dir, published)
}

/// One seeded crash/restart cycle. Returns `(surviving_rows, recovery_ms)`.
fn crash_cycle(golden: &Path, schedule: &CrashSchedule, k: u64) -> (u64, f64) {
    let cycle = tmp_dir("cycle");
    copy_dir(golden, &cycle).unwrap();
    let wal_dir = cycle.join("wal").join("t");
    let snap_dir = cycle.join("snap");

    // Sever the WAL at a seeded byte offset — mid-record cuts included.
    let total = wal::total_bytes(&wal_dir).unwrap_or(0);
    wal::truncate_to(&wal_dir, schedule.crash_bytes(k, total)).unwrap();
    // What actually survives on disk: full records before the cut.
    let n = wal::read_dir(&wal_dir).unwrap().records.len() as u64;

    // Time consistency: a snapshot covering offsets past the durable log
    // could not have existed when the process died — drop it. Then maybe
    // tear the newest survivor mid-file (the same crash severed it).
    let mut survivors = Vec::new();
    if let Ok(list) = snapshot::list(&snap_dir, "t") {
        for (covered, path) in list {
            if covered > n {
                let _ = fs::remove_file(&path);
            } else {
                survivors.push(path);
            }
        }
    }
    if schedule.tear_snapshot(k) {
        if let Some(newest) = survivors.first() {
            let _ = snapshot::tear_for_test(newest, 0.5);
        }
    }

    let t0 = Instant::now();
    let recovered = Database::recover(&cycle).expect("recover");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(recovered);
    let _ = fs::remove_dir_all(&cycle);
    (n, ms)
}

pub fn run() {
    let rows = golden_rows();
    let cycles = cycles_per_config();
    // Snapshot interval sweep: never / sparse / dense.
    let configs = [0usize, rows / 4, rows / 16];
    let chaos_enabled = openmldb_chaos::enabled();

    let mut table = Vec::new();
    for (ci, &snapshot_every) in configs.iter().enumerate() {
        // Arm WAL-fsync / snapshot-write kills only on the densest config
        // (and only when the chaos feature is compiled in).
        let arm = chaos_enabled && ci == configs.len() - 1;
        let (golden, published) = golden_run(snapshot_every, arm);
        let schedule = CrashSchedule::new(SEED ^ (ci as u64).wrapping_mul(0x9E37_79B9));

        let samples: Vec<(u64, f64)> = (0..cycles as u64)
            .map(|k| crash_cycle(&golden, &schedule, k))
            .collect();
        let _ = fs::remove_dir_all(&golden);

        let mean = samples.iter().map(|(_, ms)| ms).sum::<f64>() / samples.len().max(1) as f64;
        let max = samples.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
        // Mean recovery ms of the cycles whose surviving WAL fell in the
        // bottom / top third of the row range: recovery time vs WAL length.
        let third = (rows as u64 / 3).max(1);
        let mean_in_third = |b: u64| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|(n, _)| (n / third).min(2) == b)
                .map(|(_, ms)| *ms)
                .collect();
            ms.iter().sum::<f64>() / ms.len().max(1) as f64
        };
        table.push(vec![
            if snapshot_every == 0 {
                "never".into()
            } else {
                format!("every {snapshot_every}")
            },
            cycles.to_string(),
            published.to_string(),
            fmt(mean),
            fmt(max),
            fmt(mean_in_third(0)),
            fmt(mean_in_third(2)),
        ]);
    }

    let total_cycles = cycles * configs.len();
    print_table(
        &format!(
            "Recovery: {total_cycles} seeded crash/restart cycles over {rows} rows \
             (chaos {})",
            if chaos_enabled { "on" } else { "off" }
        ),
        &[
            "snapshots",
            "cycles",
            "published",
            "mean ms",
            "max ms",
            "short-wal ms",
            "long-wal ms",
        ],
        &table,
    );
}
