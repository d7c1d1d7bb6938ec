//! Property-based oracle for the zero-allocation request path: the
//! streaming `RowView` pipeline (`execute_request`) must produce
//! **bit-identical** feature rows to the materializing reference path
//! (`execute_request_materialized`) — same schemas, same frames, same
//! float-fold order. Fuzzed across random schemas (numeric and var-length
//! string columns, random null bitmaps), ROWS / ROWS_RANGE frames,
//! MAXSIZE caps and EXCLUDE CURRENT_ROW.
//!
//! Plans compile into bytecode programs at deploy time and nothing else
//! serves, so the oracle runs **two-way**: the compiled streaming path
//! against the materializing reference (`WindowAggSet` folds over decoded
//! rows, tree-walked expressions) — bit-identical, typed errors and typed
//! deadline timeouts included.

use std::time::Duration;

use openmldb::online::{
    execute_request, execute_request_materialized, execute_request_materialized_with,
    execute_request_with,
};
use openmldb::{Database, Error, RequestOptions, Row, Value};
use proptest::prelude::*;

/// Payload column type by index: the mix covers every RowView read shape —
/// fixed-width numerics of both widths, the null bitmap, and var-length
/// string slices.
fn type_name(t: u8) -> &'static str {
    match t % 5 {
        0 => "DOUBLE",
        1 => "BIGINT",
        2 => "INT",
        3 => "FLOAT",
        _ => "STRING",
    }
}

fn is_numeric(t: u8) -> bool {
    t % 5 != 4
}

/// Deterministic column value from a per-row seed. Bit `j` of `nulls`
/// blanks column `j` (null-bitmap edge cases, including all-null rows).
/// About one value in eight is an edge case — `-0.0`, NaN, zero divisors —
/// and one BIGINT in 64 sits next to the i64 limits so integer expressions
/// overflow. Strings vary in length from empty up — the var-length offsets
/// are where a borrowed decoder can go wrong.
fn col_value(t: u8, j: usize, seed: u64, nulls: u8) -> Value {
    if nulls & (1 << (j % 8)) != 0 {
        return Value::Null;
    }
    let s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(j as u32);
    let edge = (s >> 40).is_multiple_of(8);
    match t % 5 {
        0 if edge => Value::Double([-0.0, f64::NAN, 0.0, f64::INFINITY][(s >> 50) as usize % 4]),
        0 => Value::Double((s % 2_000) as f64 / 8.0 - 125.0),
        1 if (s >> 40) % 64 == 1 => Value::Bigint(if s.is_multiple_of(2) {
            i64::MAX - (s % 5) as i64
        } else {
            i64::MIN + (s % 5) as i64
        }),
        1 if edge => Value::Bigint(0),
        1 => Value::Bigint(s as i64 % 500),
        2 if edge => Value::Int([0, i32::MAX, i32::MIN, -1][(s >> 50) as usize % 4]),
        2 => Value::Int(s as i32 % 100),
        3 if edge => Value::Float([-0.0, f32::NAN, 0.0, 1.0e30][(s >> 50) as usize % 4]),
        3 => Value::Float((s % 64) as f32 / 4.0 - 8.0),
        _ => Value::string("ab".repeat((s % 7) as usize)),
    }
}

fn make_row(id: i64, k: i64, ts: i64, cols: &[u8], seed: u64, nulls: u8) -> Row {
    let mut v = Vec::with_capacity(cols.len() + 3);
    v.push(Value::Bigint(id));
    v.push(Value::Bigint(k));
    for (j, &t) in cols.iter().enumerate() {
        v.push(col_value(t, j, seed, nulls));
    }
    v.push(Value::Timestamp(ts));
    Row::new(v)
}

/// One generated arithmetic argument: `(a op1 b) op2 literal` over numeric
/// payload columns (`id` stands in when the schema has none), under one of
/// the shareable projection functions.
type ExprSpec = (u8, u8, u8, u8, u8, u8);

fn expr_feature(n: usize, spec: ExprSpec, cols: &[u8]) -> String {
    let (func, a, op1, b, op2, literal) = spec;
    let numeric: Vec<String> = cols
        .iter()
        .enumerate()
        .filter(|(_, &t)| is_numeric(t))
        .map(|(j, _)| format!("c{j}"))
        .chain(["id".to_string()])
        .collect();
    let pick = |i: u8| &numeric[i as usize % numeric.len()];
    let op = |i: u8| ["+", "-", "*", "/", "%"][i as usize % 5];
    let func = ["sum", "avg", "min", "max", "count", "stddev"][func as usize % 6];
    let literal = ["2", "0", "2.5", "0.0", "1000000007"][literal as usize % 5];
    format!(
        ", {func}(({} {} {}) {} {literal}) OVER w AS e{n}",
        pick(a),
        op(op1),
        pick(b),
        op(op2)
    )
}

/// Aggregates chosen so every kernel family lands in the one window: bare
/// columns (sum/min/max/count by type), count maps (`distinct_count`,
/// `topn_frequency` over every type), generated arithmetic arguments, and
/// generic-family aggregates (`count_where`, `avg_cate_where`, `median`).
fn select_list(cols: &[u8], exprs: &[ExprSpec]) -> String {
    let mut out = String::from("id");
    for (j, &t) in cols.iter().enumerate() {
        if is_numeric(t) {
            out.push_str(&format!(
                ", sum(c{j}) OVER w AS s{j}, min(c{j}) OVER w AS mn{j}, \
                 max(c{j}) OVER w AS mx{j}"
            ));
        }
        out.push_str(&format!(
            ", count(c{j}) OVER w AS ct{j}, distinct_count(c{j}) OVER w AS dc{j}, \
             topn_frequency(c{j}, 2) OVER w AS tf{j}"
        ));
    }
    for (n, spec) in exprs.iter().enumerate() {
        out.push_str(&expr_feature(n, *spec, cols));
    }
    out.push_str(
        ", count_where(c0, id > 3) OVER w AS gw, \
         avg_cate_where(id, id > 3, c0) OVER w AS gc, median(k) OVER w AS gm",
    );
    out
}

/// Bit-exact rendering of an answer. `Value: PartialEq` promotes numerics
/// and has NaN != NaN; the typed `Debug` form tells `Int(3)` from
/// `Bigint(3)` and `-0.0` from `0.0`, and round-trips every other float
/// exactly. NaNs render alike whatever their sign and payload: which operand
/// of `NaN + NaN` survives is the code generator's choice per call site, so
/// no two folds can promise the same NaN bits. Errors render as themselves.
fn bits(answer: &Result<Row, Error>) -> Result<Vec<String>, Error> {
    let row = answer.as_ref().map_err(Clone::clone)?;
    Ok(row.values().iter().map(|v| format!("{v:?}")).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn streaming_pipeline_matches_materializing_path(
        cols in proptest::collection::vec(0u8..5, 1..4),
        exprs in proptest::collection::vec(
            (0u8..6, 0u8..8, 0u8..5, 0u8..8, 0u8..5, 0u8..5),
            1..5,
        ),
        rows in proptest::collection::vec((0i64..4, 0i64..300, 0u64..u64::MAX, 0u8..255), 10..80),
        probes in proptest::collection::vec((0i64..5, 0i64..350, 0u64..u64::MAX, 0u8..255), 1..4),
        frame in 1i64..200,
        rows_frame in any::<bool>(),
        maxsize in 0usize..8,
        exclude in any::<bool>(),
    ) {
        let db = Database::new();
        let col_defs: String = cols
            .iter()
            .enumerate()
            .map(|(j, &t)| format!("c{j} {}, ", type_name(t)))
            .collect();
        db.execute(&format!(
            "CREATE TABLE t (id BIGINT, k BIGINT, {col_defs}ts TIMESTAMP, \
             INDEX(KEY=k, TS=ts))"
        ))
        .unwrap();
        for (i, (k, ts, seed, nulls)) in rows.iter().enumerate() {
            db.insert_row("t", &make_row(i as i64, *k, *ts, &cols, *seed, *nulls))
                .unwrap();
        }

        let frame_clause = if rows_frame {
            format!("ROWS BETWEEN {frame} PRECEDING AND CURRENT ROW")
        } else {
            format!("ROWS_RANGE BETWEEN {frame} PRECEDING AND CURRENT ROW")
        };
        let maxsize_clause = if maxsize > 0 {
            format!(" MAXSIZE {maxsize}")
        } else {
            String::new()
        };
        let exclude_clause = if exclude { " EXCLUDE CURRENT_ROW" } else { "" };
        let sql = format!(
            "SELECT {} FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
             {frame_clause}{maxsize_clause}{exclude_clause})",
            select_list(&cols, &exprs)
        );
        db.deploy(&format!("DEPLOY p AS {sql}")).unwrap();
        let dep = db.deployment("p").unwrap();
        // Every family compiled: the two paths below share no fold code.
        prop_assert!(dep.program().window(0).is_some());

        // Key 99 has no stored rows: the request row is the only row (or,
        // under EXCLUDE CURRENT_ROW, the window is empty).
        let lonely = (99, 100, probes[0].2, probes[0].3);
        for (n, (k, ts, seed, nulls)) in probes.iter().chain([&lonely]).enumerate() {
            let probe = make_row(900_000 + n as i64, *k, *ts, &cols, *seed, *nulls);
            let streaming = execute_request(&db, &dep, &probe);
            let materialized = execute_request_materialized(&db, &dep, &probe);
            // Bit-identical: both paths fold the same values in the same
            // order, so even float aggregates must match exactly — and an
            // overflowing integer expression is the same typed error.
            prop_assert_eq!(
                bits(&streaming),
                bits(&materialized),
                "probe {} diverged (compiled vs materialized) under {}",
                n,
                sql
            );
        }

        // Typed timeout parity: an exhausted deadline must surface the same
        // `Error::Timeout` on the compiled path and the reference
        // (degradation off so the timeout cannot be absorbed).
        let (k, ts, seed, nulls) = probes[0];
        let probe = make_row(990_000, k, ts, &cols, seed, nulls);
        let opts = RequestOptions {
            allow_degraded: false,
            ..RequestOptions::with_deadline(Duration::ZERO)
        };
        let compiled_timeout = execute_request_with(&db, &dep, &probe, &opts);
        let reference_timeout = execute_request_materialized_with(&db, &dep, &probe, &opts);
        match (&compiled_timeout, &reference_timeout) {
            (
                Err(Error::Timeout { stage: s1, budget_ms: b1 }),
                Err(Error::Timeout { stage: s2, budget_ms: b2 }),
            ) => {
                prop_assert_eq!(s1, s2, "timeout stages diverged");
                prop_assert_eq!(b1, b2);
            }
            other => prop_assert!(false, "expected typed timeouts, got {:?}", other),
        }
    }
}

fn counted_table() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (id BIGINT, k BIGINT, v BIGINT, ts TIMESTAMP, \
         INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    for i in 0..40i64 {
        db.insert_row(
            "t",
            &Row::new(vec![
                Value::Bigint(i),
                Value::Bigint(i % 3),
                Value::Bigint(i * 7 % 13),
                Value::Timestamp(1_000 + i),
            ]),
        )
        .unwrap();
    }
    db
}

/// `distinct_count`, an arithmetic argument and a conditional aggregate
/// compile beside their column-kernel siblings (one window, four kernel
/// families) and serve the reference's answer.
#[test]
fn every_kernel_family_compiles_into_one_window_and_serves_the_reference() {
    let db = counted_table();
    db.deploy(
        "DEPLOY pf AS SELECT id, distinct_count(v) OVER w AS dc, sum(v) OVER w AS sv, \
         avg(v * 2 + 1) OVER w AS av, count_where(v, v > 5) OVER w AS cw \
         FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    let dep = db.deployment("pf").unwrap();
    assert_eq!(dep.program().compiled_windows(), 1);
    assert_eq!(dep.program().fallback_reason(0), None);

    let probe = Row::new(vec![
        Value::Bigint(900_000),
        Value::Bigint(1),
        Value::Bigint(5),
        Value::Timestamp(2_000),
    ]);
    let served = execute_request(&db, &dep, &probe);
    let oracle = execute_request_materialized(&db, &dep, &probe);
    assert!(oracle.is_ok());
    assert_eq!(bits(&served), bits(&oracle));
}

/// An overflowing integer expression is the same typed error whichever
/// path folds it — stored row or request row.
#[test]
fn integer_overflow_is_one_typed_error_on_both_paths() {
    let db = counted_table();
    db.insert_row(
        "t",
        &Row::new(vec![
            Value::Bigint(77),
            Value::Bigint(7),
            Value::Bigint(i64::MAX),
            Value::Timestamp(1_500),
        ]),
    )
    .unwrap();
    db.deploy(
        "DEPLOY po AS SELECT id, sum(v) OVER w AS sv, max(v * 2) OVER w AS mv \
         FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    let dep = db.deployment("po").unwrap();
    let probe = |k: i64, v: i64| {
        Row::new(vec![
            Value::Bigint(900_000),
            Value::Bigint(k),
            Value::Bigint(v),
            Value::Timestamp(2_000),
        ])
    };
    // Key 7 holds the overflowing stored row; key 8 is empty, so the
    // request row itself overflows.
    for probe in [probe(7, 1), probe(8, i64::MIN)] {
        let served = execute_request(&db, &dep, &probe);
        let Err(Error::Eval(message)) = &served else {
            panic!("expected an overflow error, got {served:?}");
        };
        assert_eq!(message, "integer overflow in *");
        assert_eq!(served, execute_request_materialized(&db, &dep, &probe));
    }
}

/// Plans inside the column-kernel subset compile end to end and serve
/// through the kernels.
#[test]
fn specialized_plans_serve_through_compiled_kernels() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (id BIGINT, k BIGINT, v DOUBLE, ts TIMESTAMP, \
         INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    for i in 0..64i64 {
        db.insert_row(
            "t",
            &Row::new(vec![
                Value::Bigint(i),
                Value::Bigint(i % 2),
                Value::Double(i as f64 * 0.75 - 9.0),
                Value::Timestamp(1_000 + i),
            ]),
        )
        .unwrap();
    }
    db.deploy(
        "DEPLOY pc AS SELECT id, sum(v) OVER w AS sv, min(v) OVER w AS mv, \
         stddev(v) OVER w AS dv FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 20 PRECEDING AND CURRENT ROW MAXSIZE 15)",
    )
    .unwrap();
    let dep = db.deployment("pc").unwrap();
    assert_eq!(dep.program().compiled_windows(), 1);
    assert!(dep.program().window(0).is_some());

    let probe = Row::new(vec![
        Value::Bigint(900_000),
        Value::Bigint(1),
        Value::Double(3.5),
        Value::Timestamp(2_000),
    ]);
    let served = execute_request(&db, &dep, &probe);
    let oracle = execute_request_materialized(&db, &dep, &probe);
    assert!(oracle.is_ok());
    assert_eq!(bits(&served), bits(&oracle));
}
