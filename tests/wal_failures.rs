//! Sticky WAL failures: once a group write fails, no durability barrier
//! reports success again — not after more writes, not after the fault is
//! gone — and a recovery holds exactly the rows synced before the failure.
//!
//! This suite runs in its own process on purpose: the chaos plan is
//! global. Without the `chaos` cargo feature the injected error is
//! compiled out and the test checks the clean path: every sync succeeds
//! and every row survives.

use std::fs;
use std::path::PathBuf;

use openmldb::chaos::{InjectionPoint, Plan};
use openmldb::online::TableProvider;
use openmldb::{Database, Row, Value};

/// The CI seed triple, same as `tests/resilience.rs`.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

/// Rows synced before the fault; more than one automatic group commit.
const SYNCED: i64 = 40;
/// Rows accepted after it; enough to cross several group commits.
const TOTAL: i64 = 200;

fn tmp_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openmldb_wal_failures_{seed:x}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn mk_row(i: i64) -> Row {
    Row::new(vec![
        Value::Bigint(i % 8),
        Value::Double(i as f64 * 0.25),
        Value::Timestamp(1_000 + i * 5),
    ])
}

#[test]
fn a_failed_group_write_is_never_reported_durable() {
    let injected = openmldb::chaos::enabled();
    for seed in SEEDS {
        let dir = tmp_dir(seed);
        let synced_digest = {
            let db = Database::recover(&dir).expect("durable open");
            db.execute(
                "CREATE TABLE events (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
            )
            .expect("create");
            for i in 0..SYNCED {
                db.insert_row("events", &mk_row(i)).expect("insert");
            }
            db.sync_durable().expect("clean sync");
            let synced_digest = db.table_digest("events").unwrap();

            openmldb::chaos::install(Plan::new(seed).error_rate(InjectionPoint::WalFsync, 1.0));
            for i in SYNCED..SYNCED + 10 {
                db.insert_row("events", &mk_row(i))
                    .expect("the in-memory append is accepted");
            }
            let failed = db.sync_durable();
            openmldb::chaos::reset();
            // The fault is gone; the failure is not.
            for i in SYNCED + 10..TOTAL {
                db.insert_row("events", &mk_row(i)).expect("insert");
            }
            let later = [
                db.sync_durable(),
                db.snapshot_now().map(|_| ()),
                db.sync_durable(),
            ];
            if injected {
                let err = failed.expect_err("the failed group write is reported");
                assert!(
                    err.to_string().contains("wal_fsync"),
                    "seed {seed:#x}: {err}"
                );
                for (i, r) in later.iter().enumerate() {
                    assert_eq!(r.as_ref().err(), Some(&err), "seed {seed:#x}: barrier {i}");
                }
            } else {
                failed.expect("clean path");
                for r in later {
                    r.expect("clean path");
                }
            }
            assert_eq!(
                db.table("events").unwrap().row_count() as i64,
                TOTAL,
                "seed {seed:#x}: the process keeps every accepted row in memory"
            );
            synced_digest
        };

        let db = Database::recover(&dir).expect("recover");
        let rows = db.table("events").unwrap().row_count() as i64;
        if injected {
            assert_eq!(rows, SYNCED, "seed {seed:#x}: exactly the synced rows");
            assert_eq!(db.table_digest("events").unwrap(), synced_digest);
        } else {
            assert_eq!(rows, TOTAL, "seed {seed:#x}");
        }
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}
