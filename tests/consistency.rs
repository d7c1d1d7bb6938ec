//! The paper's headline guarantee, tested differentially: a feature script
//! compiled once produces **identical values** in offline batch mode and
//! online request mode, across function mixes, frame types, joins and
//! window unions — equal bit for bit (rows compare by their debug form,
//! which tells `Int(3)` from `Bigint(3)` and `-0.0` from `0.0`).

use openmldb::online::{execute_request_materialized, TableProvider};
use openmldb::{Database, ExecResult, Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(seed: u64, rows: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE events (id BIGINT, k BIGINT, v DOUBLE, q INT, cat STRING, ts TIMESTAMP,
         INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE extra (id BIGINT, k BIGINT, v DOUBLE, q INT, cat STRING, ts TIMESTAMP,
         INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE dim (k BIGINT, weight DOUBLE, updated TIMESTAMP,
         INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let cats = ["a", "b", "c"];
    for i in 0..rows {
        let table = if i % 4 == 0 { "extra" } else { "events" };
        db.insert_row(
            table,
            &Row::new(vec![
                Value::Bigint(i as i64),
                Value::Bigint(rng.gen_range(0..5)),
                Value::Double(rng.gen_range(-10.0..10.0)),
                Value::Int(rng.gen_range(0..4)),
                Value::string(cats[rng.gen_range(0..3usize)]),
                Value::Timestamp(rng.gen_range(0..10_000)),
            ]),
        )
        .unwrap();
    }
    for k in 0..5 {
        db.execute(&format!("INSERT INTO dim VALUES ({k}, {k}.5, 100)"))
            .unwrap();
    }
    db
}

/// Compare online request-mode output against the offline batch row for the
/// same tuple: insert the probe, batch everything, find the probe by id.
fn assert_consistent(db: &Database, name: &str, sql: &str, probe: Row) {
    db.deploy(&format!("DEPLOY {name} AS {sql}")).unwrap();
    let online = db.request(name, &probe).unwrap(); // computes THEN persists
    let ExecResult::Batch(batch) = db.execute(sql).unwrap() else {
        panic!()
    };
    let id = probe[0].clone();
    let offline = batch
        .rows
        .iter()
        .find(|r| r[0] == id)
        .unwrap_or_else(|| panic!("probe id {id:?} missing from batch output"));
    assert_eq!(&online, offline, "online vs offline for `{name}`");
}

fn probe(id: i64, k: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(k),
        Value::Double(3.25),
        Value::Int(2),
        Value::string("b"),
        Value::Timestamp(ts),
    ])
}

#[test]
fn simple_aggregates_range_frame() {
    let db = setup(1, 300);
    assert_consistent(
        &db,
        "d1",
        "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c, avg(v) OVER w AS a, \
                min(v) OVER w AS lo, max(v) OVER w AS hi \
         FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)",
        probe(100_000, 2, 8_000),
    );
}

#[test]
fn rows_frame_and_conditionals() {
    let db = setup(2, 300);
    assert_consistent(
        &db,
        "d2",
        "SELECT id, count_where(v, q > 1) OVER w AS cw, sum_where(v, q > 1) OVER w AS sw, \
                distinct_count(cat) OVER w AS dc \
         FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 20 PRECEDING AND CURRENT ROW)",
        probe(100_001, 1, 9_000),
    );
}

#[test]
fn extended_ml_functions() {
    let db = setup(3, 300);
    assert_consistent(
        &db,
        "d3",
        "SELECT id, topn_frequency(cat, 2) OVER w AS topcat, \
                avg_cate_where(v, q > 0, cat) OVER w AS cate_avg, \
                drawdown(v) OVER w AS dd, ew_avg(v, 0.4) OVER w AS ew \
         FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW)",
        probe(100_002, 3, 9_500),
    );
}

#[test]
fn window_union_consistency() {
    let db = setup(4, 400);
    assert_consistent(
        &db,
        "d4",
        "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c \
         FROM events WINDOW w AS (UNION extra PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW)",
        probe(100_003, 0, 7_777),
    );
}

#[test]
fn last_join_consistency() {
    let db = setup(5, 200);
    assert_consistent(
        &db,
        "d5",
        "SELECT events.id, dim.weight, sum(v) OVER w AS s FROM events \
         LAST JOIN dim ORDER BY dim.updated ON events.k = dim.k \
         WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
        probe(100_004, 4, 6_000),
    );
}

/// A LAST JOIN residual that errors on a candidate (an integer overflow)
/// rejects that candidate on both paths: the join falls through to the next
/// older candidate, or to NULLs when none is left.
#[test]
fn last_join_residual_errors_are_no_match() {
    let db = setup(8, 100);
    db.execute(
        "CREATE TABLE big (k BIGINT, w BIGINT, updated TIMESTAMP, INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    // `w * 5` overflows; wrapped, it would be positive and match.
    let overflows = i64::MAX / 2;
    // Per key, oldest first: key 0 overflows on its newest candidate only,
    // key 1 on its one candidate, key 2 on its oldest only.
    for (k, w, updated) in [
        (0, 7, 100),
        (0, 5, 200),
        (0, overflows, 300),
        (1, overflows, 100),
        (2, overflows, 100),
        (2, 9, 200),
    ] {
        let row = vec![
            Value::Bigint(k),
            Value::Bigint(w),
            Value::Timestamp(updated),
        ];
        db.insert_row("big", &Row::new(row)).unwrap();
    }
    let sql = "SELECT events.id, big.w FROM events \
               LAST JOIN big ORDER BY big.updated ON events.k = big.k AND big.w * 5 > 0";
    for (k, w) in [
        (0, Value::Bigint(5)),
        (1, Value::Null),
        (2, Value::Bigint(9)),
    ] {
        let name = format!("residual_{k}");
        assert_consistent(&db, &name, sql, probe(300_000 + k, k, 5_000));
        let again = db.request(&name, &probe(300_010 + k, k, 5_000)).unwrap();
        assert_eq!(again[1], w, "key {k}");
    }
}

#[test]
fn multi_window_consistency() {
    let db = setup(6, 300);
    assert_consistent(
        &db,
        "d6",
        "SELECT id, sum(v) OVER w1 AS by_k, count(v) OVER w2 AS by_cat FROM events \
         WINDOW w1 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW), \
                w2 AS (PARTITION BY cat ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)",
        probe(100_005, 2, 8_800),
    );
}

/// A pre-aggregated deployment's row against the plain one's: the f64
/// `sum(v)` (column 1) within a relative 1e-9 — bucket merges add partial
/// sums in another order than one fold — and every other column exactly.
fn assert_preagg_agrees(plain: &Row, fast: &Row, context: &str) {
    let (Value::Double(x), Value::Double(y)) = (&plain[1], &fast[1]) else {
        panic!("{context}: sum(v) is {:?} / {:?}", plain[1], fast[1])
    };
    let bound = 1e-9 * x.abs().max(y.abs()).max(1.0);
    assert!((x - y).abs() <= bound, "{context}: sum(v) {x} vs {y}");
    let exact = |r: &Row| format!("{:?} {:?}", r[0], &r.values()[2..]);
    assert_eq!(exact(plain), exact(fast), "{context}");
}

/// The query both pre-aggregation tests deploy plain and pre-aggregated.
const PREAGG_SQL: &str = "SELECT id, sum(v) OVER w AS s, sum(q) OVER w AS sq, \
                          count(v) OVER w AS c, max(v) OVER w AS m \
                          FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
                          ROWS_RANGE BETWEEN 8s PRECEDING AND CURRENT ROW)";

#[test]
fn preagg_deployment_consistency() {
    // The long_windows option must not change any feature value.
    let db = setup(7, 500);
    let sql = PREAGG_SQL;
    db.deploy(&format!("DEPLOY plain AS {sql}")).unwrap();
    db.deploy(&format!(
        "DEPLOY fast OPTIONS(long_windows=\"w:500\") AS {sql}"
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..50 {
        let p = probe(
            200_000 + i,
            rng.gen_range(0..5),
            rng.gen_range(5_000..12_000),
        );
        let a = db.request_readonly("plain", &p).unwrap();
        let b = db.request_readonly("fast", &p).unwrap();
        assert_preagg_agrees(&a, &b, &format!("preagg probe {i}"));
    }
    let dep = db.deployment("fast").unwrap();
    assert!(dep.preaggs[0].as_ref().unwrap().queries() >= 50);
}

#[test]
fn many_random_probes_agree() {
    let db = setup(8, 400);
    let sql = "SELECT id, sum(v) OVER w AS s, count_where(v, q > 0) OVER w AS cw, \
                      distinct_count(cat) OVER w AS dc \
               FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
               ROWS_RANGE BETWEEN 4s PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY rnd AS {sql}")).unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    for i in 0..30 {
        let p = probe(300_000 + i, rng.gen_range(0..5), rng.gen_range(0..11_000));
        let online = db.request("rnd", &p).unwrap();
        let ExecResult::Batch(batch) = db.execute(sql).unwrap() else {
            panic!()
        };
        let offline = batch
            .rows
            .iter()
            .find(|r| r[0] == p[0])
            .expect("probe present");
        assert_eq!(&online, offline, "probe {i}");
    }
}

#[test]
fn instance_not_in_window_consistency() {
    let db = setup(11, 300);
    assert_consistent(
        &db,
        "d_inw",
        "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c \
         FROM events WINDOW w AS (UNION extra PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW INSTANCE_NOT_IN_WINDOW)",
        probe(100_011, 2, 8_200),
    );
}

#[test]
fn exclude_current_row_consistency() {
    let db = setup(12, 300);
    assert_consistent(
        &db,
        "d_ecr",
        "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c \
         FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW)",
        probe(100_012, 1, 7_300),
    );
}

/// Deliberately collision-heavy timestamps: every window is full of ts-peers
/// (the case that breaks naive anchor-position semantics).
#[test]
fn tie_heavy_streams_stay_consistent() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE events (id BIGINT, k BIGINT, v DOUBLE, q INT, cat STRING, ts TIMESTAMP,
         INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..400 {
        db.insert_row(
            "events",
            &Row::new(vec![
                Value::Bigint(i),
                Value::Bigint(rng.gen_range(0..3)),
                Value::Double(rng.gen_range(-5.0..5.0)),
                Value::Int(rng.gen_range(0..3)),
                Value::string("x"),
                // Only 25 distinct timestamps → ~16 peers per instant.
                Value::Timestamp(rng.gen_range(0..25i64) * 100),
            ]),
        )
        .unwrap();
    }
    let sql = "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c, \
                      distinct_count(q) OVER w AS dc \
               FROM events WINDOW w AS (PARTITION BY k ORDER BY ts \
               ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY ties AS {sql}")).unwrap();
    for i in 0..20 {
        // Probe timestamps that collide with stored instants.
        let p = Row::new(vec![
            Value::Bigint(500_000 + i),
            Value::Bigint(i % 3),
            Value::Double(1.5),
            Value::Int(1),
            Value::string("x"),
            Value::Timestamp((i % 25) * 100),
        ]);
        let online = db.request("ties", &p).unwrap();
        let ExecResult::Batch(batch) = db.execute(sql).unwrap() else {
            panic!()
        };
        let offline = batch
            .rows
            .iter()
            .find(|r| r[0] == p[0])
            .expect("probe present");
        assert_eq!(&online, offline, "tie probe {i}");
    }
}

/// A stored row whose order column is NULL anchors at `i64::MIN`, where a
/// bucket start is not an `i64`: pre-aggregation ingests it (the bucket
/// walk leaves it raw), and the pre-aggregated deployment still answers
/// what the plain one does — probes at a NULL order column included.
#[test]
fn null_order_column_through_preaggregated_ingest() {
    let db = setup(13, 300);
    let null_ts = |id: i64, k: i64| {
        Row::new(vec![
            Value::Bigint(id),
            Value::Bigint(k),
            Value::Double(2.5),
            Value::Int(3),
            Value::string("a"),
            Value::Null,
        ])
    };
    for k in 0..3 {
        db.insert_row("events", &null_ts(50_000 + k, k)).unwrap();
    }
    let sql = PREAGG_SQL;
    db.deploy(&format!("DEPLOY plain_n AS {sql}")).unwrap();
    db.deploy(&format!(
        "DEPLOY fast_n OPTIONS(long_windows=\"w:500\") AS {sql}"
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    for i in 0..30 {
        let p = match i % 5 {
            0 => null_ts(600_000 + i, rng.gen_range(0..5)),
            _ => probe(600_000 + i, rng.gen_range(0..5), rng.gen_range(0..12_000)),
        };
        let a = db.request_readonly("plain_n", &p).unwrap();
        let b = db.request_readonly("fast_n", &p).unwrap();
        assert_preagg_agrees(&a, &b, &format!("probe {i}"));
    }
}

/// A BIGINT sum that overflows wraps in the pre-aggregation buckets as it
/// does in a scan. The rows reach the buckets through the binlog after
/// DEPLOY, and the bucket-served request answers as the reference pipeline
/// does over a deployment without `long_windows`.
#[test]
fn overflowing_integer_sums_wrap_in_buckets_as_in_a_scan() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE big (id BIGINT, k BIGINT, v BIGINT, ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    let sql = "SELECT id, sum(v) OVER w AS s, count(v) OVER w AS c, avg(v) OVER w AS a \
               FROM big WINDOW w AS (PARTITION BY k ORDER BY ts \
               ROWS_RANGE BETWEEN 8s PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY plain_o AS {sql}")).unwrap();
    db.deploy(&format!(
        "DEPLOY fast_o OPTIONS(long_windows=\"w:500\") AS {sql}"
    ))
    .unwrap();
    let row = |id: i64, v: i64, ts: i64| {
        Row::new(vec![
            Value::Bigint(id),
            Value::Bigint(1),
            Value::Bigint(v),
            Value::Timestamp(ts),
        ])
    };
    for (id, v) in [i64::MAX, 1, 5, i64::MAX / 2].into_iter().enumerate() {
        let id = id as i64;
        db.insert_row("big", &row(id, v, 1_000 * id)).unwrap();
    }
    db.table("big").unwrap().replicator().flush();

    let probe = row(99, 7, 6_000);
    let plain = db.deployment("plain_o").unwrap();
    let expected = execute_request_materialized(&db, &plain, &probe).unwrap();
    let sum = i64::MAX.wrapping_add(13).wrapping_add(i64::MAX / 2);
    assert_eq!(
        expected.values()[1..3],
        [Value::Bigint(sum), Value::Bigint(5)]
    );
    let served = db.request_readonly("fast_o", &probe).unwrap();
    assert_eq!(served, expected);
    let preagg = db.deployment("fast_o").unwrap().preaggs[0].clone().unwrap();
    assert!(
        preagg.level_hits().iter().sum::<u64>() >= 4,
        "served from buckets"
    );
}

/// A window index's TTL does not narrow the offline snapshot: every row of
/// the first index is a base row and gets the features its request got.
/// Each row is requested (computed, then persisted) in ts order; then `gc`
/// truncates the window's index to the newest two rows per key, while the
/// first index keeps every row.
#[test]
fn rows_expired_from_the_window_index_keep_their_features() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE ev (id BIGINT, k BIGINT, v DOUBLE, ts TIMESTAMP,
         INDEX(KEY=id, TS=ts), INDEX(KEY=k, TS=ts, TTL=2, TTL_TYPE=latest))",
    )
    .unwrap();
    let sql = "SELECT id, count(v) OVER w AS c, sum(v) OVER w AS s, min(v) OVER w AS lo \
               FROM ev WINDOW w AS (PARTITION BY k ORDER BY ts \
               ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY ttl AS {sql}")).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let mut online = Vec::new();
    for i in 0..60 {
        let row = Row::new(vec![
            Value::Bigint(i),
            Value::Bigint(rng.gen_range(0..3)),
            Value::Double(rng.gen_range(-10.0..10.0)),
            Value::Timestamp(i * 1_000),
        ]);
        online.push(db.request("ttl", &row).unwrap());
    }
    assert!(
        db.gc(60_000) >= 50,
        "the window index keeps two rows per key"
    );
    let ExecResult::Batch(batch) = db.execute(sql).unwrap() else {
        panic!()
    };
    let mut offline = batch.rows;
    offline.sort_by_key(|r| r[0].as_i64().unwrap());
    assert_eq!(online, offline);
}
