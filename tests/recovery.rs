//! End-to-end crash-and-restart recovery: the durable WAL + snapshot spine
//! must reconstruct byte-identical table state — zero lost rows, zero
//! duplicated rows — from any crash point, including mid-record torn WAL
//! writes and snapshots severed mid-file.
//!
//! The oracle is the binlog digest ([`openmldb::digest_entries`], FNV-1a
//! over the canonical WAL encoding): after recovery the in-memory binlog
//! must hash identically to the record prefix that survived on disk.
//!
//! This suite runs in its own process on purpose: chaos plans are global,
//! and installing one next to unrelated concurrently-running tests would
//! perturb them. Without the `chaos` cargo feature the injector is
//! compiled out — every test still runs and asserts the clean-path
//! behaviour.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use openmldb::chaos::{CrashSchedule, InjectionPoint, Plan};
use openmldb::online::TableProvider;
use openmldb::storage::{snapshot, wal};
use openmldb::{digest_entries, Database, Row, Value};
use proptest::prelude::*;

/// The CI seed triple, same as `tests/resilience.rs`.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

/// Goldens are written one at a time: a chaos plan is global, so one
/// golden's armed kills must not land on another's writes.
fn golden_lock() -> MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

/// The kills a golden run arms (no-op without the `chaos` feature): WAL
/// fsyncs die (the durable watermark lags the written log, so snapshots
/// cover less of it) and snapshot writes die mid-file (tmp orphans).
fn kill_plan(seed: u64) -> Plan {
    Plan::new(seed)
        .kill_rate(InjectionPoint::WalFsync, 0.5)
        .kill_rate(InjectionPoint::SnapshotWrite, 0.5)
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "openmldb_recovery_{tag}_{}_{seq}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn mk_row(i: i64) -> Row {
    Row::new(vec![
        Value::Bigint(i % 8),
        Value::Double(i as f64 * 0.25),
        Value::Timestamp(1_000 + i * 5),
    ])
}

/// Build a durable golden directory: `rows` inserts into `events`, a
/// snapshot attempt after each index in `snapshot_at`, final sync. With a
/// [`kill_plan`] armed while it is written, both kill points must fire
/// (under `chaos`), and a sync after the plan is removed makes the whole
/// log durable. Returns the still-open database.
fn golden(dir: &Path, rows: i64, snapshot_at: &[i64], kills: Option<Plan>) -> Database {
    let _golden = golden_lock();
    let armed = kills.is_some();
    if let Some(plan) = kills {
        openmldb::chaos::install(plan);
    }
    let db = Database::recover(dir).expect("durable open");
    db.execute("CREATE TABLE events (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .expect("create");
    for i in 0..rows {
        db.insert_row("events", &mk_row(i)).expect("insert");
        if snapshot_at.contains(&i) {
            // Tolerated failure: under an armed SnapshotWrite kill the
            // attempt dies mid-write, leaving the same partial tmp file a
            // real crash would.
            let _ = db.snapshot_now();
        }
    }
    db.sync_durable().expect("sync");
    if armed {
        if openmldb::chaos::enabled() {
            for point in [InjectionPoint::WalFsync, InjectionPoint::SnapshotWrite] {
                let fired = openmldb::chaos::stats(point).kills;
                assert!(fired > 0, "armed golden killed no {}", point.name());
            }
        }
        openmldb::chaos::reset();
        db.sync_durable().expect("sync after reset");
    }
    db
}

struct CrashOutcome {
    surviving: u64,
    expected_digest: u64,
    recovered_digest: u64,
    recovered_rows: u64,
}

/// Model one crash: copy the golden dir, sever the WAL at `cut` bytes,
/// drop snapshots that could not have existed at that point (covered
/// offset past the surviving log), optionally tear the newest survivor,
/// then recover and digest.
fn crash_and_recover(golden_dir: &Path, cut: u64, tear: bool) -> CrashOutcome {
    let cycle = tmp_dir("cycle");
    copy_dir(golden_dir, &cycle).expect("copy");
    let wal_dir = cycle.join("wal").join("events");
    wal::truncate_to(&wal_dir, cut).expect("truncate");

    let scan = wal::read_dir(&wal_dir).expect("scan");
    let surviving = scan.records.len() as u64;
    let expected_digest = digest_entries(scan.records.iter().map(|r| &r.entry));

    let snap_dir = cycle.join("snap");
    let mut newest = None;
    for (covered, path) in snapshot::list(&snap_dir, "events").expect("list") {
        if covered > surviving {
            fs::remove_file(&path).expect("remove future snapshot");
        } else if newest.is_none() {
            newest = Some(path);
        }
    }
    if tear {
        if let Some(path) = newest {
            snapshot::tear_for_test(&path, 0.5).expect("tear");
        }
    }

    let db = Database::recover(&cycle).expect("recover");
    let recovered_digest = db.table_digest("events").expect("digest");
    let recovered_rows = db
        .table("events")
        .map(|t| t.row_count() as u64)
        .unwrap_or(0);
    drop(db);
    let _ = fs::remove_dir_all(&cycle);
    CrashOutcome {
        surviving,
        expected_digest,
        recovered_digest,
        recovered_rows,
    }
}

/// Clean restart: every row, the deployment, and its serving behaviour
/// survive a shutdown/recover cycle byte-identically.
#[test]
fn clean_restart_is_byte_identical_and_still_serves() {
    let dir = tmp_dir("clean");
    let db = golden(&dir, 100, &[50], None);
    db.deploy(
        "DEPLOY f AS SELECT k, sum(v) OVER w AS s FROM events \
         WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
    )
    .expect("deploy");
    let req = mk_row(1_000);
    let before_digest = db.table_digest("events").unwrap();
    let before_row = db.request_readonly("f", &req).expect("request");
    drop(db);

    let db2 = Database::recover(&dir).expect("recover");
    assert_eq!(db2.table_digest("events").unwrap(), before_digest);
    assert_eq!(db2.table("events").unwrap().row_count(), 100);
    let after_row = db2.request_readonly("f", &req).expect("request replayed");
    assert_eq!(
        after_row, before_row,
        "recovered deployment serves identically"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The headline contract, per CI seed: a sweep of seeded crash points
/// (arbitrary byte offsets — mid-record cuts included, snapshots sometimes
/// torn) always recovers exactly the surviving record prefix, and the
/// whole sweep is a pure function of the seed (two runs, identical
/// outcomes). Two goldens are swept: a clean one, and one written with
/// WAL-fsync and snapshot-write kills armed, so the cuts also land on a
/// log whose durable watermark lags and next to orphaned partial
/// snapshots (without the `chaos` feature both goldens are clean).
#[test]
fn fixed_seed_crash_sweep_loses_nothing_and_is_deterministic() {
    let clean = tmp_dir("sweep");
    drop(golden(&clean, 120, &[40, 80], None));
    let armed = tmp_dir("sweep_armed");
    drop(golden(
        &armed,
        120,
        &[20, 40, 60, 80, 100],
        Some(kill_plan(SEEDS[0])),
    ));
    let published = snapshot::list(&armed.join("snap"), "events").unwrap();
    assert!(!published.is_empty(), "armed golden published no snapshot");

    for (name, dir) in [("clean", &clean), ("armed", &armed)] {
        let total = wal::total_bytes(&dir.join("wal").join("events")).unwrap();
        for seed in SEEDS {
            let schedule = CrashSchedule::new(seed);
            let sweep = |cycles: u64| -> Vec<(u64, u64)> {
                (0..cycles)
                    .map(|k| {
                        let cut = schedule.crash_bytes(k, total);
                        let out = crash_and_recover(dir, cut, schedule.tear_snapshot(k));
                        assert_eq!(
                            out.recovered_digest, out.expected_digest,
                            "{name} seed {seed:#x} cycle {k}: digest mismatch \
                             (cut {cut} of {total})"
                        );
                        assert_eq!(
                            out.recovered_rows, out.surviving,
                            "{name} seed {seed:#x} cycle {k}: lost or duplicated rows"
                        );
                        (out.surviving, out.recovered_digest)
                    })
                    .collect()
            };
            let first = sweep(20);
            let second = sweep(20);
            assert_eq!(
                first, second,
                "{name} seed {seed:#x}: sweep is deterministic"
            );
        }
        let _ = fs::remove_dir_all(dir);
    }
}

/// Kill points armed (see [`kill_plan`]): recovery must still reconstruct
/// everything the log holds, and the orphaned partials must be invisible.
#[test]
fn armed_fsync_and_snapshot_kills_never_corrupt() {
    for seed in SEEDS {
        let dir = tmp_dir("kills");
        let db = golden(&dir, 90, &[20, 40, 60, 80], Some(kill_plan(seed)));
        let before = db.table_digest("events").unwrap();
        drop(db);

        let db2 = Database::recover(&dir).expect("recover");
        assert_eq!(
            db2.table_digest("events").unwrap(),
            before,
            "seed {seed:#x}: recovery under armed kills is byte-identical"
        );
        assert_eq!(
            db2.table("events").unwrap().row_count(),
            90,
            "seed {seed:#x}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Any byte-level WAL cut — including mid-record torn writes — recovers
    /// to exactly the surviving full-record prefix: zero lost, zero
    /// duplicated, byte-identical.
    #[test]
    fn torn_wal_tail_recovers_exact_prefix(
        cut_fraction in 0.0f64..1.0,
        rows in 20i64..70,
    ) {
        let dir = tmp_dir("torn");
        let db = golden(&dir, rows, &[], None);
        drop(db);
        let total = wal::total_bytes(&dir.join("wal").join("events")).unwrap();
        let cut = ((total as f64) * cut_fraction) as u64;
        let out = crash_and_recover(&dir, cut, false);
        prop_assert!(out.surviving <= rows as u64);
        prop_assert_eq!(out.recovered_digest, out.expected_digest);
        prop_assert_eq!(out.recovered_rows, out.surviving);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot severed mid-file (the crash that tore the WAL also tore
    /// the snapshot) must never poison recovery: validation rejects it and
    /// replay falls back to an older snapshot or the full WAL.
    #[test]
    fn mid_snapshot_tear_falls_back_without_losing_rows(
        tear_fraction in 0.0f64..0.95,
        rows in 30i64..70,
    ) {
        let dir = tmp_dir("snaptear");
        let db = golden(&dir, rows, &[rows / 2], None);
        drop(db);
        let snap_dir = dir.join("snap");
        let list = snapshot::list(&snap_dir, "events").unwrap();
        prop_assert!(!list.is_empty(), "golden run must have published a snapshot");
        snapshot::tear_for_test(&list[0].1, tear_fraction).unwrap();

        let db2 = Database::recover(&dir).expect("recover");
        let scan = wal::read_dir(&dir.join("wal").join("events")).unwrap();
        let expected = digest_entries(scan.records.iter().map(|r| &r.entry));
        prop_assert_eq!(db2.table_digest("events").unwrap(), expected);
        prop_assert_eq!(db2.table("events").unwrap().row_count() as i64, rows);
        drop(db2);
        let _ = fs::remove_dir_all(&dir);
    }
}
