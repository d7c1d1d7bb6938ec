//! DEPLOY shares one aggregate state only between identical computations
//! (paper §4.2's cyclic binding): two select items whose arguments differ in
//! a literal's type (`2` and `2.0`) or sign bit (`0.0` and `-0.0`) are two
//! computations, so each answers in a full deployment what it answers
//! deployed alone — type for type and bit for bit.

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

/// A value's type and bits: `Value`'s `==` has `2 == 2.0` and
/// `-0.0 == 0.0`.
fn exact(values: &[Value]) -> Vec<String> {
    let bits = |v: &Value| match v {
        Value::Double(d) => format!("Double({:#x})", d.to_bits()),
        v => format!("{v:?}"),
    };
    values.iter().map(bits).collect()
}

/// Each feature of `features` answers `want` deployed together and
/// deployed alone.
fn assert_unshared(features: &[&str], want: &[Value]) {
    let db = db();
    let together = serve(&db, "together", features);
    assert_eq!(
        exact(&together),
        exact(want),
        "{features:?} deployed together"
    );
    for (i, (f, v)) in features.iter().zip(want).enumerate() {
        let alone = serve(&db, &format!("alone{i}"), &[f]);
        assert_eq!(
            exact(&alone),
            exact(std::slice::from_ref(v)),
            "`{f}` deployed alone"
        );
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
