//! A serving thread keeps the request scratch of the deployment it served
//! last, tagged with that deployment's identity; every other scratch waits
//! in its deployment's pool. A scratch holds per-window kernel state shaped
//! by one program, so a request must never fold with another deployment's:
//! alternating deployments of different shapes on one thread — rebinding
//! one of them between requests, which makes a new deployment — must answer
//! exactly what the materializing reference answers, every time.

use std::sync::Arc;

use openmldb::online::{execute_request, execute_request_materialized, Deployment};
use openmldb::{Database, Row, Value};

fn t_row(id: i64, k: i64, v: f64, n: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(k),
        Value::Double(v),
        Value::Bigint(n),
        Value::Timestamp(ts),
    ])
}

#[test]
fn alternating_deployments_and_rebinds_serve_the_reference() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (id BIGINT, k BIGINT, v DOUBLE, n BIGINT, ts TIMESTAMP, \
         INDEX(KEY=k, TS=ts), INDEX(KEY=n, TS=ts))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE dim (k BIGINT, w DOUBLE, updated TIMESTAMP, INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    for i in 0..600i64 {
        let v = (i * 37 % 101) as f64 * 0.25 - 6.0;
        db.insert_row("t", &t_row(i, i % 5, v, i % 3, i * 10))
            .unwrap();
    }
    for k in 0..5i64 {
        let dim = vec![
            Value::Bigint(k),
            Value::Double(k as f64 * 1.5),
            Value::Timestamp(1),
        ];
        db.insert_row("dim", &Row::new(dim)).unwrap();
    }
    // One window of column kernels.
    db.deploy(
        "DEPLOY one AS SELECT k, sum(v) OVER w AS s, max(n) OVER w AS m FROM t \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    // A LAST JOIN and three windows in two scan groups, with expression,
    // count-map and column kernels.
    db.deploy(
        "DEPLOY three AS SELECT t.k, avg(v) OVER w1 AS a, min(v * 2.0) OVER w1 AS e, \
         distinct_count(k) OVER w2 AS d, count(v) OVER w2 AS c, sum(n) OVER w3 AS s, dim.w \
         FROM t LAST JOIN dim ORDER BY dim.updated ON t.k = dim.k \
         WINDOW w1 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW), \
         w2 AS (PARTITION BY n ORDER BY ts ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW), \
         w3 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    let mut one: Arc<Deployment> = db.deployment("one").unwrap();
    let three = db.deployment("three").unwrap();
    assert_eq!(one.scan_groups().len(), 1);
    assert_eq!(three.scan_groups().len(), 2);

    for i in 0..300i64 {
        let request = t_row(10_000 + i, i % 6, i as f64 * 0.5, i % 4, 6_000 + i * 7);
        // Every fifth request rebinds `one`: a new deployment over the same
        // tables, served from the next request on.
        if i % 5 == 4 {
            one = Arc::new(one.rebind(&db).unwrap());
        }
        for dep in [&one, &three, &one] {
            let served = execute_request(&db, dep, &request).unwrap();
            let reference = execute_request_materialized(&db, dep, &request).unwrap();
            assert_eq!(served, reference, "request {i} through `{}`", dep.name);
        }
        // The database's own handle serves the reference too.
        let served = db.request_readonly("three", &request).unwrap();
        let reference = execute_request_materialized(&db, &three, &request).unwrap();
        assert_eq!(served, reference);
    }
}
