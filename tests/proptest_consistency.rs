//! Property-based online/offline consistency: random streams (timestamp
//! collisions, skewed keys, NULLs) and random probes must produce the same
//! feature values in request mode and batch mode — bit for bit, over range
//! and ROWS frames, `EXCLUDE CURRENT_ROW`, window unions with and without
//! `INSTANCE_NOT_IN_WINDOW`, and every kernel family (column, expression,
//! string count map, generic). This is the paper's core guarantee, fuzzed.

use openmldb::{Database, ExecResult, Row, Value};
use proptest::prelude::*;

const CATS: [&str; 4] = ["a", "bb", "a:c", ""];

/// `(key, ts, v, v is NULL when 0, category, goes to the union table when 0)`.
type Gen = (i64, i64, f64, usize, usize, usize);

fn event(id: i64, &(k, ts, v, null, cat, _): &Gen) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(k),
        if null == 0 {
            Value::Null
        } else {
            Value::Double(v)
        },
        Value::string(CATS[cat]),
        Value::Timestamp(ts),
    ])
}

fn build_db(rows: &[Gen]) -> Database {
    let db = Database::new();
    for t in ["s", "s2"] {
        db.execute(&format!(
            "CREATE TABLE {t} (id BIGINT, k BIGINT, v DOUBLE, cat STRING, ts TIMESTAMP, \
             INDEX(KEY=k, TS=ts))"
        ))
        .unwrap();
    }
    for (i, g) in rows.iter().enumerate() {
        let table = if g.5 == 0 { "s2" } else { "s" };
        db.insert_row(table, &event(i as i64, g)).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn random_streams_random_probes_agree(
        // ~40 distinct timestamps: every window is full of ts peers.
        rows in proptest::collection::vec(
            (0i64..4, 0i64..40, -100.0f64..100.0, 0usize..6, 0usize..4, 0usize..4),
            20..120,
        ),
        probes in proptest::collection::vec(
            (0i64..4, 0i64..44, -100.0f64..100.0, 0usize..6, 0usize..4, 1usize..2),
            1..5,
        ),
        frame_ms in 1i64..30,
        preceding in 0i64..6,
    ) {
        let db = build_db(&rows);
        let range = format!("ROWS_RANGE BETWEEN {frame_ms} PRECEDING AND CURRENT ROW");
        let rows_frame = format!("ROWS BETWEEN {preceding} PRECEDING AND CURRENT ROW");
        let sql = format!(
            "SELECT id, sum(v) OVER w1 AS s1, count(v) OVER w1 AS c1, min(v) OVER w1 AS lo, \
                    max(v) OVER w1 AS hi, distinct_count(cat) OVER w1 AS dc, \
                    avg(v * 2.0 + 1.0) OVER w1 AS ae, drawdown(v) OVER w1 AS dd, \
                    sum(v) OVER w2 AS s2, distinct_count(cat) OVER w2 AS dc2, \
                    ew_avg(v, 0.3) OVER w2 AS ew, \
                    sum(v) OVER w3 AS s3, count(cat) OVER w3 AS c3, \
                    sum(v) OVER w4 AS s4, max(cat) OVER w4 AS m4, \
                    sum(v) OVER w5 AS s5, count(v) OVER w5 AS c5, \
                    avg(v) OVER w6 AS a6, topn_frequency(cat, 2) OVER w6 AS t6 \
             FROM s WINDOW \
               w1 AS (PARTITION BY k ORDER BY ts {range}), \
               w2 AS (PARTITION BY k ORDER BY ts {rows_frame}), \
               w3 AS (PARTITION BY k ORDER BY ts {range} EXCLUDE CURRENT_ROW), \
               w4 AS (UNION s2 PARTITION BY k ORDER BY ts {rows_frame}), \
               w5 AS (UNION s2 PARTITION BY k ORDER BY ts {range} INSTANCE_NOT_IN_WINDOW), \
               w6 AS (PARTITION BY k ORDER BY ts {rows_frame} EXCLUDE CURRENT_ROW)"
        );
        db.deploy(&format!("DEPLOY p AS {sql}")).unwrap();
        for (n, g) in probes.iter().enumerate() {
            let probe = event(900_000 + n as i64, g);
            let online = db.request("p", &probe).unwrap();
            let ExecResult::Batch(batch) = db.execute(&sql).unwrap() else { panic!() };
            let offline = batch
                .rows
                .iter()
                .find(|r| r[0] == probe[0])
                .expect("probe row present in batch");
            // `Value`'s `==` compares bits: it tells Int(3) from Bigint(3)
            // and -0.0 from 0.0.
            prop_assert_eq!(&online, offline, "probe {}", n);
        }
    }
}
