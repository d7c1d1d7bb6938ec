//! Property-based oracle for the zero-allocation request path: the
//! streaming `RowView` pipeline (`execute_request`) must produce
//! **bit-identical** feature rows to the materializing reference path
//! (`execute_request_materialized`) — same schemas, same frames, same
//! float-fold order. Fuzzed across random schemas (numeric and var-length
//! string columns, random null bitmaps), ROWS / ROWS_RANGE frames,
//! MAXSIZE caps and EXCLUDE CURRENT_ROW, over a memory or a disk table.
//!
//! Plans compile into bytecode programs at deploy time and nothing else
//! serves, so the oracle runs **two-way**: the compiled streaming path
//! against the materializing reference (`WindowAggSet` folds over decoded
//! rows, tree-walked expressions) — bit-identical, typed errors and typed
//! deadline timeouts included.
//!
//! The same generators drive the metamorphic DEPLOY-identity oracle: each
//! select item deployed alone answers what it answers in the full
//! deployment, so no two computations share a state they should not.

use std::sync::Arc;
use std::time::Duration;

use openmldb::online::{
    execute_request, execute_request_materialized, execute_request_materialized_with,
    execute_request_with, Deployment,
};
use openmldb::sql::{compile_select, parse_select, CompiledQuery, PhysExpr};
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
    let numeric = numeric_columns(cols);
    let pick = |i: u8| &numeric[i as usize % numeric.len()];
    let func = FUNCS[func as usize % FUNCS.len()];
    let literal = ["2", "0", "2.5", "0.0", "1000000007"][literal as usize % 5];
    format!(
        "{func}(({} {} {}) {} {literal}) OVER w AS e{n}",
        pick(a),
        op(op1),
        pick(b),
        op(op2)
    )
}

/// The shareable projection functions.
const FUNCS: [&str; 6] = ["sum", "avg", "min", "max", "count", "stddev"];

fn op(i: u8) -> &'static str {
    ["+", "-", "*", "/", "%"][i as usize % 5]
}

/// The numeric payload columns by name, then `id`, which stands in when the
/// schema has none.
fn numeric_columns(cols: &[u8]) -> Vec<String> {
    (cols.iter().enumerate())
        .filter(|(_, &t)| is_numeric(t))
        .map(|(j, _)| format!("c{j}"))
        .chain(["id".to_string()])
        .collect()
}

/// Aggregates chosen so every kernel family lands in the one window: bare
/// columns (sum by numeric type, min/max/count over every type, string
/// extrema included), count maps (`distinct_count`, `topn_frequency` over
/// every type), generated arithmetic arguments, and generic-family
/// aggregates (`count_where`, `avg_cate_where`, `median`). One select item
/// each.
fn select_list(cols: &[u8], exprs: &[ExprSpec]) -> Vec<String> {
    let mut out = vec!["id".to_string()];
    for (j, &t) in cols.iter().enumerate() {
        if is_numeric(t) {
            out.push(format!("sum(c{j}) OVER w AS s{j}"));
        }
        out.extend([
            format!("min(c{j}) OVER w AS mn{j}"),
            format!("max(c{j}) OVER w AS mx{j}"),
            format!("count(c{j}) OVER w AS ct{j}"),
            format!("distinct_count(c{j}) OVER w AS dc{j}"),
            format!("topn_frequency(c{j}, 2) OVER w AS tf{j}"),
        ]);
    }
    for (n, spec) in exprs.iter().enumerate() {
        out.push(expr_feature(n, *spec, cols));
    }
    out.extend([
        "count_where(c0, id > 3) OVER w AS gw".to_string(),
        "avg_cate_where(id, id > 3, c0) OVER w AS gc".to_string(),
        "median(k) OVER w AS gm".to_string(),
    ]);
    out
}

/// Items that read again what [`select_list`] reads bare, by the bits of
/// `rereads`: an aggregate bare a second time (bit 0), an aggregate read
/// bare before inside an expression (bit 1), base columns bare a second
/// time (bit 2). The row stage clones every bare read but an aggregate's
/// last, which it moves, and evaluates the expressions before either.
fn rereads(rereads: u8) -> Vec<String> {
    let mut out = Vec::new();
    if rereads & 1 != 0 {
        out.extend([
            "max(c0) OVER w AS mx0_again",
            "median(k) OVER w AS gm_again",
        ]);
    }
    if rereads & 2 != 0 {
        out.push("count(c0) OVER w + id AS ct0_plus");
    }
    if rereads & 4 != 0 {
        out.extend(["c0 AS c0_bare", "id AS id_again", "c0 AS c0_again"]);
    }
    out.into_iter().map(String::from).collect()
}

/// `t(id, k, c0.., ts)` with payload columns of `cols`' types, holding
/// `rows` as `(k, ts, seed, nulls)`. A memory table lends its rows for the
/// request's pin; a disk table's arrive as per-visit copies in the scan
/// arena.
fn table(cols: &[u8], rows: &[(i64, i64, u64, u8)], disk: bool) -> Database {
    let db = Database::new();
    let col_defs: String = (cols.iter().enumerate())
        .map(|(j, &t)| format!("c{j} {}, ", type_name(t)))
        .collect();
    let create = format!(
        "CREATE TABLE t (id BIGINT, k BIGINT, {col_defs}ts TIMESTAMP, INDEX(KEY=k, TS=ts))"
    );
    match disk {
        true => db.create_disk_table(&create).unwrap(),
        false => db.execute(&create).map(drop).unwrap(),
    }
    for (i, (k, ts, seed, nulls)) in rows.iter().enumerate() {
        db.insert_row("t", &make_row(i as i64, *k, *ts, cols, *seed, *nulls))
            .unwrap();
    }
    db
}

/// The window `w` over `k` by `ts`: `frame` rows or milliseconds back, a
/// `MAXSIZE` when `maxsize > 0`, the current row excluded or not.
fn window_clause(frame: i64, rows_frame: bool, maxsize: usize, exclude: bool) -> String {
    let unit = if rows_frame { "ROWS" } else { "ROWS_RANGE" };
    let maxsize = match maxsize {
        0 => String::new(),
        n => format!(" MAXSIZE {n}"),
    };
    let exclude = if exclude { " EXCLUDE CURRENT_ROW" } else { "" };
    format!(
        "WINDOW w AS (PARTITION BY k ORDER BY ts \
         {unit} BETWEEN {frame} PRECEDING AND CURRENT ROW{maxsize}{exclude})"
    )
}

/// The output-type invariant: every value of an answer is NULL or of its
/// output column's declared type (an error answers nothing).
fn typed(dep: &Deployment, answer: &Result<Row, Error>) -> Result<(), Error> {
    (answer.as_ref()).map_or(Ok(()), |row| {
        dep.query.output_schema.validate_row(row.values())
    })
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
        disk in any::<bool>(),
        again in 0u8..8,
    ) {
        let db = table(&cols, &rows, disk);

        let mut items = select_list(&cols, &exprs);
        items.extend(rereads(again));
        let sql = format!(
            "SELECT {} FROM t {}",
            items.join(", "),
            window_clause(frame, rows_frame, maxsize, exclude)
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
            // order, so even float aggregates must match exactly, and both
            // answer a NaN as the canonical one — and an overflowing integer
            // expression is the same typed error.
            prop_assert_eq!(
                &streaming,
                &materialized,
                "probe {} diverged (compiled vs materialized) under {}",
                n,
                sql
            );
            for answer in [&streaming, &materialized] {
                prop_assert_eq!(typed(&dep, answer), Ok(()), "probe {} under {}", n, sql);
            }
        }
        // The offline batch over every stored row keeps the declared types
        // too.
        if let Ok(batch) = db.offline_query(&sql) {
            for row in batch.rows {
                prop_assert_eq!(typed(&dep, &Ok(row)), Ok(()), "offline under {}", sql);
            }
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

/// A joined table `name(k BIGINT, x BIGINT, y DOUBLE, s STRING, ts
/// TIMESTAMP)` keyed on `k` by `ts`, holding `rows` as `(k, x, ts, seed)`.
/// Timestamps span a few values, so candidates tie on the ORDER BY column;
/// the seed blanks `x`, `y` or `s` now and then.
fn join_table(db: &Database, name: &str, rows: &[(i64, i64, i64, u64)], disk: bool) {
    let create = format!(
        "CREATE TABLE {name} (k BIGINT, x BIGINT, y DOUBLE, s STRING, ts TIMESTAMP, \
         INDEX(KEY=k, TS=ts))"
    );
    match disk {
        true => db.create_disk_table(&create).unwrap(),
        false => db.execute(&create).map(drop).unwrap(),
    }
    for &(k, x, ts, seed) in rows {
        let or_null = |blank: bool, v: Value| if blank { Value::Null } else { v };
        let row = Row::new(vec![
            Value::Bigint(k),
            or_null(seed % 13 == 0, Value::Bigint(x)),
            or_null(
                seed % 7 == 1,
                Value::Double((seed % 200) as f64 / 4.0 - 25.0),
            ),
            or_null(
                seed % 11 == 2,
                Value::string("ab".repeat((seed % 4) as usize)),
            ),
            Value::Timestamp(ts),
        ]);
        db.insert_row(name, &row).unwrap();
    }
}

/// A plan over `t` with `joins` (0–2) LAST JOINs: `d1` on `t.k`, `d2` on
/// `d1.x` (a column of the first join). `residuals[j]` picks join `j`'s
/// extra ON condition (none, one over its own columns, one that also reads
/// the row joined so far) and `filter` a WHERE clause over joined columns.
/// The select list reads joined columns bare and in expressions beside a
/// window's aggregates; `d1.s` and `d2.y` are read by nothing when `wide`
/// is off. With `again`, it reads `t.id`, `d1.x` and an aggregate bare a
/// second time, and that aggregate once more inside an expression.
fn join_query(joins: u8, residuals: (u8, u8), filter: u8, wide: bool, again: bool) -> String {
    let mut select = vec!["t.id", "count(t.id) OVER w AS n", "sum(t.k) OVER w AS sk"];
    if again {
        select.extend([
            "t.id AS id2",
            "count(t.id) OVER w AS n2",
            "count(t.id) OVER w * 2 AS nn",
        ]);
    }
    let mut from = "t".to_string();
    if joins >= 1 {
        let on = ["", " AND d1.y > 0.0", " AND d1.x <> t.k"][residuals.0 as usize % 3];
        from += &format!(" LAST JOIN d1 ORDER BY d1.ts ON t.k = d1.k{on}");
        select.extend(["d1.x", "d1.x + t.k AS xk"]);
        if again {
            select.push("d1.x AS x2");
        }
        if wide {
            select.extend(["d1.s", "d1.ts AS t1"]);
        }
    }
    if joins >= 2 {
        let on = ["", " AND d2.y < d1.y", " AND d2.x > 1"][residuals.1 as usize % 3];
        from += &format!(" LAST JOIN d2 ORDER BY d2.ts ON d1.x = d2.k{on}");
        select.push("d2.k AS k2");
        if wide {
            select.extend(["d2.y", "d2.s AS s2"]);
        }
    }
    let filter = match (filter % 3, joins) {
        (1, 1..) => " WHERE d1.x > 1",
        (2, 2..) => " WHERE d2.y > -10.0 OR d1.y IS NULL",
        (2, _) => " WHERE t.k > 0",
        _ => "",
    };
    format!(
        "SELECT {} FROM {from}{filter} WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)",
        select.join(", ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Generated LAST JOINs: the served row `==` the materializing
    /// reference for every probe (keys with no match, ties on the ORDER BY
    /// column, residuals and WHERE over joined columns included), and the
    /// offline batch answers each probe as its request did.
    #[test]
    fn last_joins_match_the_reference_and_the_offline_batch(
        cols in proptest::collection::vec(0u8..5, 1..3),
        rows in proptest::collection::vec((0i64..4, 0i64..300, 0u64..u64::MAX, 0u8..255), 5..40),
        d1 in proptest::collection::vec((0i64..4, 0i64..6, 0i64..4, 0u64..u64::MAX), 0..24),
        d2 in proptest::collection::vec((0i64..5, 0i64..4, 0i64..4, 0u64..u64::MAX), 0..24),
        probes in proptest::collection::vec((0i64..6, 0u64..u64::MAX, 0u8..255), 1..6),
        joins in 0u8..3,
        residuals in (0u8..3, 0u8..3),
        filter in 0u8..3,
        wide in any::<bool>(),
        disk in any::<bool>(),
        again in any::<bool>(),
    ) {
        let db = table(&cols, &rows, disk);
        join_table(&db, "d1", &d1, disk);
        join_table(&db, "d2", &d2, disk);
        let sql = join_query(joins, residuals, filter, wide, again);
        db.deploy(&format!("DEPLOY j AS {sql}")).unwrap();
        let dep = db.deployment("j").unwrap();
        // Probes are newer than every stored row and than each other; each
        // is stored once answered, so the batch below anchors one row at
        // each and reads what its request read.
        let mut answers = Vec::new();
        for (n, &(k, seed, nulls)) in probes.iter().enumerate() {
            let probe = make_row(900_000 + n as i64, k, 400 + 10 * n as i64, &cols, seed, nulls);
            let served = execute_request(&db, &dep, &probe);
            let reference = execute_request_materialized(&db, &dep, &probe);
            prop_assert_eq!(&served, &reference, "probe {} under {}", n, sql);
            prop_assert_eq!(db.request("j", &probe), served, "probe {} stored under {}", n, sql);
            answers.push((probe, reference.unwrap()));
        }
        let batch = db.offline_query(&sql).unwrap().rows;
        for (probe, answer) in &answers {
            match batch.iter().find(|r| r[0] == probe[0]) {
                Some(row) => prop_assert_eq!(row, answer, "offline {:?} under {}", probe[0], sql),
                None => prop_assert!(
                    sql.contains("WHERE") && answer.values().iter().all(Value::is_null),
                    "offline dropped {:?} under {}", probe[0], sql
                ),
            }
        }
    }
}

/// Literals the identity oracle draws, as (SQL text, the plan's literal).
/// BIGINT and DOUBLE literals, `-0.0` included, are SQL's own. SQL spells
/// no INT or FLOAT literal, so those are placeholders of the same class
/// (`7000006`, `7000008.5`, ..) that [`retype`] swaps in the plan; every
/// type the planner inferred holds, since integer arithmetic answers BIGINT
/// and float arithmetic DOUBLE whatever the operands' widths.
const LITERALS: [(&str, Value); 12] = [
    ("2", Value::Bigint(2)),
    ("0", Value::Bigint(0)),
    ("2.0", Value::Double(2.0)),
    ("0.0", Value::Double(0.0)),
    ("-0.0", Value::Double(-0.0)),
    ("0.1", Value::Double(0.1)),
    ("7000006", Value::Int(2)),
    ("7000007", Value::Int(0)),
    ("7000008.5", Value::Float(2.0)),
    ("7000009.5", Value::Float(0.0)),
    ("7000010.5", Value::Float(-0.0)),
    ("7000011.5", Value::Float(0.1)),
];

/// Swap every placeholder literal of `e` for the literal it stands for.
/// The identity features are built of operators, columns and literals only.
fn retype(e: &mut PhysExpr) {
    match e {
        PhysExpr::Literal(v) => {
            let planned = |sql: &str| match sql.contains('.') {
                true => Value::Double(sql.parse().unwrap()),
                false => Value::Bigint(sql.parse().unwrap()),
            };
            if let Some((_, to)) = LITERALS.iter().find(|(sql, _)| planned(sql) == *v) {
                *v = to.clone();
            }
        }
        PhysExpr::Binary { left, right, .. } => {
            retype(left);
            retype(right);
        }
        _ => {}
    }
}

/// `query` compiled against `db` with its placeholder literals retyped.
fn retyped_plan(db: &Database, query: &str) -> Arc<CompiledQuery> {
    let mut q = compile_select(&parse_select(query).unwrap(), db).unwrap();
    for agg in &mut q.aggregates {
        agg.args.iter_mut().for_each(retype);
    }
    for column in &mut q.select {
        retype(&mut column.expr);
    }
    Arc::new(q)
}

/// `LITERALS` indices that spell one number: literals DEPLOY must tell
/// apart though SQL's `=` has them equal. The last pair is `0.1` as a
/// DOUBLE and as a FLOAT, which SQL's `=` tells apart too.
const EQUAL_BY_VALUE: [&[usize]; 3] = [&[0, 2, 6, 8], &[1, 3, 4, 7, 9, 10], &[5, 11]];

/// A generated expression `(a op1 L1) op2 (b op3 L2)` and its twin, in which
/// one literal is swapped for another of equal value; each bare over the
/// request row and under projection functions over `w`: a drawn one, and
/// `min` and `max`, which keep a zero's sign.
type IdentitySpec = (u8, (u8, u8), (u8, u8, u8), (u8, u8), (u8, u8));

fn identity_features(n: usize, spec: IdentitySpec, cols: &[u8]) -> Vec<String> {
    let (func, (a, b), (op1, op2, op3), (l1, l2), (side, pick)) = spec;
    let numeric = numeric_columns(cols);
    let column = |i: u8| &numeric[i as usize % numeric.len()];
    let expr = |[l1, l2]: [usize; 2]| {
        let (l1, l2) = (LITERALS[l1].0, LITERALS[l2].0);
        let (a, b) = (column(a), column(b));
        format!("({a} {} {l1}) {} ({b} {} {l2})", op(op1), op(op2), op(op3))
    };
    let one = [l1 as usize % LITERALS.len(), l2 as usize % LITERALS.len()];
    let mut twin = one;
    let swapped = &mut twin[side as usize % 2];
    let equal = EQUAL_BY_VALUE.iter().find(|g| g.contains(swapped)).unwrap();
    let at = equal.iter().position(|l| l == swapped).unwrap();
    *swapped = equal[(at + 1 + pick as usize % (equal.len() - 1)) % equal.len()];
    let mut out = Vec::new();
    for (name, e) in [("i", expr(one)), ("j", expr(twin))] {
        for (m, f) in [FUNCS[func as usize % FUNCS.len()], "min", "max"]
            .iter()
            .enumerate()
        {
            out.push(format!("{f}({e}) OVER w AS {name}{n}_{m}"));
        }
        out.push(format!("{e} AS {name}{n}"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// DEPLOY shares state only between identical computations (cyclic
    /// binding): each select item of a generated deployment, deployed
    /// alone, answers what it answers in the full deployment, type for type
    /// and bit for bit. Literals are drawn across INT, BIGINT, FLOAT and
    /// DOUBLE, `±0.0` included, and every feature meets a twin whose literal
    /// differs only in type or sign. The full deployment also
    /// answers the materializing reference, which shares no dedup rule.
    #[test]
    fn each_feature_deployed_alone_answers_as_in_the_full_deployment(
        cols in proptest::collection::vec(0u8..5, 1..4),
        specs in proptest::collection::vec(
            (
                0u8..6,
                (0u8..8, 0u8..8),
                (0u8..5, 0u8..5, 0u8..5),
                (0u8..12, 0u8..12),
                (0u8..2, 0u8..6),
            ),
            1..5,
        ),
        rows in proptest::collection::vec((0i64..3, 0i64..300, 0u64..u64::MAX, 0u8..255), 10..60),
        probes in proptest::collection::vec((0i64..4, 0i64..350, 0u64..u64::MAX, 0u8..255), 1..3),
        frame in 1i64..200,
        rows_frame in any::<bool>(),
    ) {
        let db = table(&cols, &rows, false);
        let window = window_clause(frame, rows_frame, 0, false);
        let mut items = select_list(&cols, &[]);
        for (n, spec) in specs.iter().enumerate() {
            items.extend(identity_features(n, *spec, &cols));
        }
        let sql = format!("SELECT {} FROM t {window}", items.join(", "));
        let full = Deployment::new("full", retyped_plan(&db, &sql), &db).unwrap();
        let alone: Vec<Deployment> = (items.iter().enumerate())
            .map(|(i, item)| {
                let plan = retyped_plan(&db, &format!("SELECT {item} FROM t {window}"));
                Deployment::new(format!("alone{i}"), plan, &db).unwrap()
            })
            .collect();
        for (n, (k, ts, seed, nulls)) in probes.iter().enumerate() {
            let probe = make_row(900_000 + n as i64, *k, *ts, &cols, *seed, *nulls);
            let served = execute_request(&db, &full, &probe);
            let reference = execute_request_materialized(&db, &full, &probe);
            prop_assert_eq!(&served, &reference, "probe {} under {}", n, sql);
            prop_assert_eq!(typed(&full, &served), Ok(()), "probe {} under {}", n, sql);
            let answers: Vec<Result<Row, Error>> =
                alone.iter().map(|dep| execute_request(&db, dep, &probe)).collect();
            match &served {
                Ok(row) => {
                    for (i, answer) in answers.iter().enumerate() {
                        let want = Ok(Row::new(vec![row[i].clone()]));
                        prop_assert_eq!(answer, &want, "`{}` alone, probe {}, in {}", items[i], n, sql);
                    }
                }
                // The full deployment answers the first error one of its
                // features meets.
                Err(_) => prop_assert!(answers.contains(&served), "probe {}: {:?} under {}", n, served, sql),
            }
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
    assert_eq!(served, oracle);
    for answer in [&served, &oracle] {
        assert_eq!(typed(&dep, answer), Ok(()));
    }
}

/// 257 expression shapes (`a * c` and `b * c`, one constant `c` per shape)
/// in one window: one lane per shape, so lane indices run past 256, and
/// every feature serves the reference's answer — a binding whose lane index
/// wrapped would read another shape's lane.
#[test]
fn more_than_256_lanes_in_one_window_serve_the_reference() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k BIGINT, a DOUBLE, b DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    let row = |i: i64| {
        let (a, b) = (i as f64 * 0.5 - 3.0, (i * 7 % 13) as f64 * 0.25);
        Row::new(vec![
            Value::Bigint(i % 3),
            Value::Double(a),
            Value::Double(b),
            Value::Timestamp(1_000 + i),
        ])
    };
    for i in 0..40 {
        db.insert_row("t", &row(i)).unwrap();
    }
    let features: Vec<String> = (0..257)
        .map(|c| format!("sum(a * {c}.5) OVER w AS a{c}, avg(b * {c}.5) OVER w AS b{c}"))
        .collect();
    db.deploy(&format!(
        "DEPLOY lanes AS SELECT {} FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
        features.join(", ")
    ))
    .unwrap();
    let dep = db.deployment("lanes").unwrap();
    for probe in [row(40), row(41)] {
        let served = execute_request(&db, &dep, &probe);
        let oracle = execute_request_materialized(&db, &dep, &probe);
        assert_eq!(oracle.as_ref().map(Row::len), Ok(514));
        assert_eq!(served, oracle);
        for answer in [&served, &oracle] {
            assert_eq!(typed(&dep, answer), Ok(()));
        }
    }
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

/// An overflowing integer `sum_where` / `avg_where` wraps as `sum` does, on
/// both paths: the conditional statistics run the same fold.
#[test]
fn conditional_sums_wrap_like_sum_on_both_paths() {
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
        "DEPLOY cw AS SELECT id, sum_where(v, v > 0) OVER w AS sw, \
         avg_where(v, v > 0) OVER w AS aw, sum(v) OVER w AS s \
         FROM t WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    let dep = db.deployment("cw").unwrap();
    let probe = Row::new(vec![
        Value::Bigint(900_000),
        Value::Bigint(7),
        Value::Bigint(1),
        Value::Timestamp(2_000),
    ]);
    let served = execute_request(&db, &dep, &probe).unwrap();
    assert_eq!(served[1], Value::Bigint(i64::MIN));
    assert_eq!(served[1], served[3]);
    let oracle = execute_request_materialized(&db, &dep, &probe).unwrap();
    assert_eq!(served, oracle);
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
    assert_eq!(served, oracle);
    for answer in [&served, &oracle] {
        assert_eq!(typed(&dep, answer), Ok(()));
    }
}
