//! DEPLOY shares one aggregate state only between identical computations
//! (paper §4.2's cyclic binding): two select items whose arguments differ in
//! a literal's type (`2` and `2.0`) or sign bit (`0.0` and `-0.0`) are two
//! computations, so each answers in a full deployment what it answers
//! deployed alone — type for type and bit for bit (`Value`'s `==`). Within
//! one expression the same holds for constants: `0.0` and `-0.0` are two.

use openmldb::online::execute_request_materialized;
use openmldb::{Database, Row, Value};

/// `t(k, b, v, ts)` holding one key's four rows: `b` sums to 10, and the
/// largest `v` is `-0.0`.
fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k BIGINT, b BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    for (b, v, ts) in [
        (1, -3.0, 1_000),
        (2, -1.0, 2_000),
        (3, -0.0, 3_000),
        (4, -2.0, 4_000),
    ] {
        let values = vec![
            Value::Bigint(1),
            Value::Bigint(b),
            Value::Double(v),
            Value::Timestamp(ts),
        ];
        db.insert_row("t", &Row::new(values)).unwrap();
    }
    db
}

/// The values `features` answer, deployed together as `name`, for a request
/// row (`b` 0, `v` -5.0) that joins the window.
fn serve(db: &Database, name: &str, features: &[&str]) -> Vec<Value> {
    let select: Vec<String> = (features.iter().enumerate())
        .map(|(i, f)| format!("{f} OVER w AS f{i}"))
        .collect();
    db.deploy(&format!(
        "DEPLOY {name} AS SELECT {} FROM t WINDOW w AS \
         (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
        select.join(", ")
    ))
    .unwrap();
    let request = Row::new(vec![
        Value::Bigint(1),
        Value::Bigint(0),
        Value::Double(-5.0),
        Value::Timestamp(5_000),
    ]);
    db.request_readonly(name, &request)
        .unwrap()
        .values()
        .to_vec()
}

/// Each feature of `features` answers `want` deployed together and
/// deployed alone.
fn assert_unshared(features: &[&str], want: &[Value]) {
    let db = db();
    let together = serve(&db, "together", features);
    assert_eq!(together, want, "{features:?} deployed together");
    for (i, (f, v)) in features.iter().zip(want).enumerate() {
        let alone = serve(&db, &format!("alone{i}"), &[f]);
        assert_eq!(alone, std::slice::from_ref(v), "`{f}` deployed alone");
    }
}

#[test]
fn an_integer_and_a_double_literal_are_two_computations() {
    assert_unshared(
        &["sum(b * 2)", "sum(b * 2.0)"],
        &[Value::Bigint(20), Value::Double(20.0)],
    );
}

#[test]
fn literals_of_opposite_zero_sign_are_two_computations() {
    assert_unshared(
        &["max(v + 0.0)", "max(v + -0.0)"],
        &[Value::Double(0.0), Value::Double(-0.0)],
    );
}

/// `(v * 0.0) + (v + -0.0)` at `v = -0.0` is `-0.0 + -0.0 = -0.0`; with the
/// two constants merged into one `0.0` it would be `0.0`. Served, offline
/// and the reference answer the bits `0x8000000000000000`, over the row's
/// values and over a window's aggregates. The bits are read out, so the
/// check does not rest on `Value`'s `==`.
#[test]
fn constants_of_opposite_zero_sign_stay_two_constants() {
    let db = Database::new();
    db.execute("CREATE TABLE z (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    let row = Row::new(vec![
        Value::Bigint(1),
        Value::Double(-0.0),
        Value::Timestamp(1_000),
    ]);
    db.insert_row("z", &row).unwrap();
    let bits = |values: &[Value]| -> Vec<Option<u64>> {
        (values.iter())
            .map(|v| match v {
                Value::Double(d) => Some(d.to_bits()),
                _ => None,
            })
            .collect()
    };
    let window =
        "WINDOW w AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)";
    for (name, select, n) in [
        (
            "bare",
            "SELECT (v * 0.0) + (v + -0.0) AS x FROM z".to_string(),
            1,
        ),
        (
            "windowed",
            format!(
                "SELECT (max(v) OVER w * 0.0) + (max(v) OVER w + -0.0) AS x, \
                 max((v * 0.0) + (v + -0.0)) OVER w AS y FROM z {window}"
            ),
            2,
        ),
    ] {
        db.deploy(&format!("DEPLOY {name} AS {select}")).unwrap();
        let dep = db.deployment(name).unwrap();
        let served = db.request_readonly(name, &row).unwrap();
        let reference = execute_request_materialized(&db, &dep, &row).unwrap();
        let offline = db.offline_query(&select).unwrap();
        let want = vec![Some(0x8000_0000_0000_0000); n];
        assert_eq!(bits(served.values()), want, "{name} served");
        assert_eq!(bits(reference.values()), want, "{name} reference");
        assert_eq!(offline.rows.len(), 1, "{name} offline");
        assert_eq!(bits(offline.rows[0].values()), want, "{name} offline");
    }
}
