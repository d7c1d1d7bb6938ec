//! Scan groups: windows of one deployment that read the same time list are
//! folded off **one** scan, each over its own newest-first prefix of it.
//! The grouped streaming path must stay bit-identical to the materializing
//! reference (one scan per window, everything resolved by name) — across
//! frame kinds, `EXCLUDE CURRENT_ROW`, `MAXSIZE` and duplicate timestamps —
//! and a request must seek exactly once per group and once per LAST JOIN.

use openmldb::obs::ProfileStore;
use openmldb::online::{execute_request, execute_request_materialized, Deployment};
use openmldb::{Database, Row, Value};
use proptest::prelude::*;

const T_COLS: &str = "id BIGINT, k BIGINT, v DOUBLE, n BIGINT, c STRING, ts TIMESTAMP";

fn db_with_tables() -> Database {
    let db = Database::new();
    for name in ["t", "u"] {
        db.execute(&format!(
            "CREATE TABLE {name} ({T_COLS}, INDEX(KEY=k, TS=ts))"
        ))
        .unwrap();
    }
    db.execute(
        "CREATE TABLE dim (k BIGINT, w DOUBLE, updated TIMESTAMP, INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    for k in 0..3i64 {
        let row = vec![
            Value::Bigint(k),
            Value::Double(k as f64 + 0.5),
            Value::Timestamp(1),
        ];
        db.insert_row("dim", &Row::new(row)).unwrap();
    }
    db
}

/// A `t`/`u` row; one value in eight is NULL, `-0.0` or NaN.
fn t_row(id: i64, k: i64, ts: i64, seed: u64) -> Row {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let v = match s % 8 {
        0 => Value::Null,
        1 => Value::Double([-0.0, f64::NAN][(s >> 8) as usize % 2]),
        _ => Value::Double((s >> 8) as f64 % 400.0 / 8.0 - 20.0),
    };
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(k),
        v,
        Value::Bigint((s >> 20) as i64 % 50),
        Value::string("xy".repeat((s >> 30) as usize % 4)),
        Value::Timestamp(ts),
    ])
}

/// `(kind, size, exclude, maxsize)`: a `ROWS`, `ROWS_RANGE` or unbounded
/// frame with its attributes.
type WindowSpec = (u8, i64, bool, usize);

fn window_clause(i: usize, (kind, size, exclude, maxsize): WindowSpec, head: &str) -> String {
    let frame = match kind % 3 {
        0 => format!("ROWS BETWEEN {} PRECEDING AND CURRENT ROW", size % 9),
        1 => format!("ROWS_RANGE BETWEEN {size} PRECEDING AND CURRENT ROW"),
        _ => "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW".to_string(),
    };
    let maxsize = match maxsize {
        0 => String::new(),
        m => format!(" MAXSIZE {m}"),
    };
    let exclude = if exclude { " EXCLUDE CURRENT_ROW" } else { "" };
    format!("w{i} AS ({head}PARTITION BY k ORDER BY ts {frame}{maxsize}{exclude})")
}

/// Column, count-map and generic kernels over every window, none of which
/// can fail on a well-formed row (integer sums wrap).
fn features(i: usize) -> String {
    format!(
        ", sum(v) OVER w{i} AS s{i}, avg(v) OVER w{i} AS a{i}, min(n) OVER w{i} AS m{i}, \
         count(c) OVER w{i} AS c{i}, distinct_count(c) OVER w{i} AS d{i}, \
         count_where(v, v > 1.0) OVER w{i} AS cw{i}"
    )
}

/// Serve `probes` through the deployment and through the materializing
/// reference, which scans every window on its own; they must agree bit for
/// bit.
fn assert_matches_reference(db: &Database, dep: &Deployment, probes: &[Row], context: &str) {
    for (n, probe) in probes.iter().enumerate() {
        let streaming = execute_request(db, dep, probe);
        let reference = execute_request_materialized(db, dep, probe);
        assert_eq!(streaming, reference, "probe {n} vs reference: {context}");
        assert!(streaming.is_ok(), "probe {n} failed: {streaming:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// 2–4 windows on one key, mixed frames and attributes, timestamps drawn
    /// from a range small enough that most collide: the grouped scan's tie
    /// path (members sorted shortest prefix first) runs on most cases.
    #[test]
    fn grouped_windows_match_one_scan_per_window(
        specs in proptest::collection::vec((0u8..3, 0i64..40, any::<bool>(), 0usize..6), 2..5),
        rows in proptest::collection::vec((0i64..3, 0i64..30, 0u64..u64::MAX), 10..90),
        probes in proptest::collection::vec((0i64..4, 0i64..45, 0u64..u64::MAX), 1..5),
    ) {
        let db = db_with_tables();
        for (i, (k, ts, seed)) in rows.iter().enumerate() {
            db.insert_row("t", &t_row(i as i64, *k, *ts, *seed)).unwrap();
        }
        let select: String = (0..specs.len()).map(features).collect();
        let windows: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| window_clause(i, *spec, ""))
            .collect();
        let sql = format!(
            "SELECT t.id{select}, dim.w FROM t LAST JOIN dim ORDER BY dim.updated \
             ON t.k = dim.k WINDOW {}",
            windows.join(", ")
        );
        db.deploy(&format!("DEPLOY sg AS {sql}")).unwrap();
        let dep = db.deployment("sg").unwrap();
        // Plain windows on one key: one group, whatever the plan generator
        // merged (identical specs collapse into one window).
        prop_assert_eq!(dep.scan_groups().len(), 1, "{}", sql);
        prop_assert_eq!(dep.scan_groups()[0].len(), dep.query.windows.len());
        let probes: Vec<Row> = probes
            .iter()
            .enumerate()
            .map(|(n, (k, ts, seed))| t_row(900_000 + n as i64, *k, *ts, *seed))
            .collect();
        assert_matches_reference(&db, &dep, &probes, &sql);
    }
}

fn load(db: &Database, table: &str, rows: i64) {
    for i in 0..rows {
        // Three rows per timestamp and key: every scan meets ties.
        let row = t_row(i, i % 2, i / 6, i as u64 * 77 + 5);
        db.insert_row(table, &row).unwrap();
    }
}

/// Six requests inside the loaded range, one whose ORDER BY column is NULL
/// (its anchor reads as `i64::MIN`) and one anchored five past `i64::MIN`:
/// no frame bound below them may wrap.
fn probes() -> Vec<Row> {
    let mut probes: Vec<Row> = (0..6)
        .map(|n| t_row(900_000 + n, n % 3, 4 + n * 3, n as u64 * 13))
        .collect();
    for ts in [Value::Null, Value::Timestamp(i64::MIN + 5)] {
        let mut values = t_row(900_006, 1, 0, 91).values().to_vec();
        values[5] = ts;
        probes.push(Row::new(values));
    }
    probes
}

/// A window that cannot share a scan runs the same loop as a group of one:
/// union and INSTANCE_NOT_IN_WINDOW windows read other tables, a
/// pre-aggregated window is answered from buckets, and they sit beside
/// plain windows of the same key that still group.
#[test]
fn union_instance_and_preaggregated_windows_stay_singletons() {
    let db = db_with_tables();
    load(&db, "t", 120);
    load(&db, "u", 90);
    let select: String = (0..5).map(features).collect();
    let sql = format!(
        "SELECT t.id{select} FROM t WINDOW {}, {}, {}, {}, {}",
        window_clause(0, (1, 9, false, 0), ""),
        window_clause(1, (0, 7, true, 0), "UNION u "),
        window_clause(2, (0, 5, false, 4), ""),
        "w3 AS (UNION u PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 6 PRECEDING \
         AND CURRENT ROW INSTANCE_NOT_IN_WINDOW)",
        window_clause(4, (2, 0, true, 0), ""),
    );
    db.deploy(&format!("DEPLOY sg_mixed AS {sql}")).unwrap();
    let dep = db.deployment("sg_mixed").unwrap();
    assert_eq!(dep.scan_groups(), [vec![0, 2, 4], vec![1], vec![3]]);
    assert_matches_reference(&db, &dep, &probes(), &sql);

    // (Only order-free aggregates can be pre-aggregated.)
    let sql = format!(
        "SELECT t.id, sum(v) OVER w0 AS s0, count(v) OVER w0 AS c0, min(n) OVER w0 AS m0{}{} \
         FROM t WINDOW {}, {}, {}",
        features(1),
        features(2),
        window_clause(0, (1, 20, false, 0), ""),
        window_clause(1, (1, 8, false, 0), ""),
        window_clause(2, (0, 6, true, 0), ""),
    );
    db.deploy(&format!(
        "DEPLOY sg_long OPTIONS(long_windows=\"w0:4\") AS {sql}"
    ))
    .unwrap();
    let dep = db.deployment("sg_long").unwrap();
    assert!(dep.preaggs[0].is_some());
    assert_eq!(dep.scan_groups(), [vec![0], vec![1, 2]]);
    assert_matches_reference(&db, &dep, &probes(), &sql);
    let preagg = dep.preaggs[0].as_ref().unwrap();
    assert!(preagg.queries() > 0, "w0 was answered from its buckets");
}

/// The record of a request counts one storage seek per scan group and one
/// per LAST JOIN — read off this test's own deployment profiles.
#[test]
fn a_request_seeks_once_per_group_and_once_per_join() {
    if !openmldb::obs::enabled() {
        return;
    }
    let db = db_with_tables();
    load(&db, "t", 120);
    load(&db, "u", 60);
    let join = "LAST JOIN dim ORDER BY dim.updated ON t.k = dim.k";
    let plain = |i, kind, size| window_clause(i, (kind, size, false, 0), "");
    let cases = [
        // two windows on one key + a join: the `serve_short` shape
        (
            "sg_seek_short",
            format!(
                "SELECT t.id{}{}, dim.w FROM t {join} WINDOW {}, {}",
                features(0),
                features(1),
                plain(0, 1, 10),
                plain(1, 0, 8),
            ),
            2,
        ),
        // three grouped windows, no join
        (
            "sg_seek_three",
            format!(
                "SELECT t.id{}{}{} FROM t WINDOW {}, {}, {}",
                features(0),
                features(1),
                features(2),
                plain(0, 1, 10),
                plain(1, 0, 8),
                plain(2, 2, 0),
            ),
            1,
        ),
        // a union window reads two tables: a group of one with two seeks
        (
            "sg_seek_union",
            format!(
                "SELECT t.id{}{} FROM t WINDOW {}, {}",
                features(0),
                features(1),
                plain(0, 1, 10),
                window_clause(1, (1, 6, false, 0), "UNION u "),
            ),
            3,
        ),
    ];
    for (name, sql, seeks_per_request) in cases {
        db.deploy(&format!("DEPLOY {name} AS {sql}")).unwrap();
        let dep = db.deployment(name).unwrap();
        let sources: usize = dep
            .scan_groups()
            .iter()
            .map(|g| 1 + dep.query.windows[g[0]].union_tables.len())
            .sum();
        assert_eq!(sources + dep.query.joins.len(), seeks_per_request, "{name}");
        let (before_requests, before) = ProfileStore::global().aggregate(dep.label());
        let probes = probes();
        for probe in &probes {
            db.request_readonly(name, probe).unwrap();
        }
        let (requests, after) = ProfileStore::global().aggregate(dep.label());
        assert_eq!(requests - before_requests, probes.len() as u64);
        assert_eq!(
            after.storage_seeks - before.storage_seeks,
            (probes.len() * seeks_per_request) as u64,
            "{name}"
        );
    }
}
