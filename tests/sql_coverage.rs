//! SQL-level coverage of the extended function library (paper Table 1 and
//! the Section 4.1 categories): every aggregate and a broad set of scalars,
//! exercised through real deployed SQL with hand-computed expected values,
//! in both execution modes.

use openmldb::online::execute_request_materialized;
use openmldb::{Database, ExecResult, Row, Value};

/// Events for one key, chronological, with easy-to-hand-compute values.
fn db() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE e (id BIGINT, k BIGINT, v DOUBLE, q INT, cat STRING, tags STRING, \
         ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    let rows = [
        (0, 10.0, 1, "shoes", "a:1|b:2", 1_000),
        (1, 20.0, 2, "bags", "b:3", 2_000),
        (2, 30.0, 1, "shoes", "c:4|a:5", 3_000),
        (3, 40.0, 3, "books", "", 4_000),
        (4, 50.0, 2, "shoes", "a:6", 5_000),
    ];
    for (id, v, q, cat, tags, ts) in rows {
        db.insert_row(
            "e",
            &Row::new(vec![
                Value::Bigint(id),
                Value::Bigint(1),
                Value::Double(v),
                Value::Int(q),
                Value::string(cat),
                Value::string(tags),
                Value::Timestamp(ts),
            ]),
        )
        .unwrap();
    }
    db
}

/// Corpus gate: every statement of this catalogue DEPLOYed — so every
/// window of it that has aggregates holds a compiled program, nothing is
/// left for serve time to find uncompiled — and serves what the
/// materializing reference computes.
fn assert_fully_compiled(db: &Database, name: &str, probe: &Row) {
    let dep = db.deployment(name).unwrap();
    let by_window = dep.query.aggregates_by_window();
    for (wid, aggs) in by_window.iter().enumerate() {
        assert_eq!(
            dep.program().window(wid).is_some(),
            !aggs.is_empty(),
            "`{name}` window {wid}: {:?}",
            dep.program().fallback_reason(wid)
        );
    }
    assert!(dep.program().select_programs().is_some(), "`{name}`");
    let served = db.request_readonly(name, probe).unwrap();
    let oracle = execute_request_materialized(db, &dep, probe).unwrap();
    assert_eq!(
        format!("{:?}", served.values()),
        format!("{:?}", oracle.values()),
        "`{name}` compiled vs materialized"
    );
}

/// Run one single-feature script in request mode for a probe at ts=6000
/// (window covers all five stored rows + the probe) and return the feature.
fn feature(db: &Database, name: &str, expr: &str) -> Value {
    db.deploy(&format!(
        "DEPLOY {name} AS SELECT {expr} AS f FROM e WINDOW w AS \
         (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)"
    ))
    .unwrap();
    let probe = Row::new(vec![
        Value::Bigint(99),
        Value::Bigint(1),
        Value::Double(60.0),
        Value::Int(2),
        Value::string("bags"),
        Value::string("z:9"),
        Value::Timestamp(6_000),
    ]);
    assert_fully_compiled(db, name, &probe);
    let online = db.request_readonly(name, &probe).unwrap();
    online[0].clone()
}

#[test]
fn aggregate_function_catalogue() {
    let db = db();
    // Window = stored values 10..50 plus probe 60.
    assert_eq!(feature(&db, "f_sum", "sum(v) OVER w"), Value::Double(210.0));
    assert_eq!(feature(&db, "f_min", "min(v) OVER w"), Value::Double(10.0));
    assert_eq!(feature(&db, "f_max", "max(v) OVER w"), Value::Double(60.0));
    assert_eq!(feature(&db, "f_avg", "avg(v) OVER w"), Value::Double(35.0));
    assert_eq!(feature(&db, "f_count", "count(v) OVER w"), Value::Bigint(6));
    assert_eq!(
        feature(&db, "f_median", "median(v) OVER w"),
        Value::Double(35.0)
    );
    let Value::Double(sd) = feature(&db, "f_sd", "stddev(v) OVER w") else {
        panic!()
    };
    assert!((sd - 18.708).abs() < 0.01, "{sd}");

    // Conditional family: rows with q > 1 are 20, 40, 50 and probe 60.
    assert_eq!(
        feature(&db, "f_cw", "count_where(v, q > 1) OVER w"),
        Value::Bigint(4)
    );
    assert_eq!(
        feature(&db, "f_sw", "sum_where(v, q > 1) OVER w"),
        Value::Double(170.0)
    );
    assert_eq!(
        feature(&db, "f_aw", "avg_where(v, q > 1) OVER w"),
        Value::Double(42.5)
    );
    assert_eq!(
        feature(&db, "f_mw", "min_where(v, q > 1) OVER w"),
        Value::Double(20.0)
    );
    assert_eq!(
        feature(&db, "f_xw", "max_where(v, q > 1) OVER w"),
        Value::Double(60.0)
    );

    // Frequency family: cats = shoes×3, bags×1+probe bags, books×1.
    assert_eq!(
        feature(&db, "f_dc", "distinct_count(cat) OVER w"),
        Value::Bigint(3)
    );
    assert_eq!(
        feature(&db, "f_topf", "topn_frequency(cat, 2) OVER w"),
        Value::string("shoes,bags")
    );
    assert_eq!(
        feature(&db, "f_top", "top(v, 3) OVER w"),
        Value::string("60,50,40")
    );

    // Category-keyed: q>1 rows by cat: bags 20+60, shoes 50, books 40.
    assert_eq!(
        feature(&db, "f_acw", "avg_cate_where(v, q > 1, cat) OVER w"),
        Value::string("bags:40,books:40,shoes:50")
    );
    assert_eq!(
        feature(&db, "f_scw", "sum_cate_where(v, q > 1, cat) OVER w"),
        Value::string("bags:80,books:40,shoes:50")
    );
    assert_eq!(
        feature(&db, "f_ccw", "count_cate_where(v, q > 1, cat) OVER w"),
        Value::string("bags:2,books:1,shoes:1")
    );

    // Time-series family (chronological feed).
    assert_eq!(
        feature(&db, "f_dd", "drawdown(v) OVER w"),
        Value::Double(0.0)
    );
    assert_eq!(
        feature(&db, "f_lag", "lag(v, 1) OVER w"),
        Value::Double(50.0)
    );
    assert_eq!(
        feature(&db, "f_fv", "first_value(v) OVER w"),
        Value::Double(60.0)
    );
    let Value::Double(ew) = feature(&db, "f_ew", "ew_avg(v, 0.5) OVER w") else {
        panic!()
    };
    // 10 →(.5) 15 → 22.5 → 31.25 → 40.625 → 50.3125
    assert!((ew - 50.3125).abs() < 1e-9, "{ew}");
}

#[test]
fn scalar_function_catalogue_through_sql() {
    let db = db();
    // Scalars applied to aggregate results and raw columns.
    assert_eq!(
        feature(&db, "s_round", "round(avg(v) OVER w / 8)"),
        Value::Bigint(4) // 35 / 8 = 4.375 → 4
    );
    assert_eq!(
        feature(&db, "s_if", "if(sum(v) OVER w > 100, 'hot', 'cold')"),
        Value::string("hot")
    );
    assert_eq!(feature(&db, "s_sign", "sign(v - 100)"), Value::Int(-1));
    assert_eq!(
        feature(&db, "s_concat", "concat(cat, ':', q)"),
        Value::string("bags:2")
    );
    assert_eq!(
        feature(&db, "s_split", "split_by_key(tags, '|', ':')"),
        Value::string("z")
    );
    assert_eq!(
        feature(&db, "s_great", "greatest(v, 15.0)"),
        Value::Double(60.0)
    );
    assert_eq!(feature(&db, "s_ucase", "ucase(cat)"), Value::string("BAGS"));
    assert_eq!(
        feature(&db, "s_replace", "replace(cat, 'a', 'o')"),
        Value::string("bogs")
    );
    assert_eq!(feature(&db, "s_year", "year(ts)"), Value::Int(1970));
    assert_eq!(feature(&db, "s_str", "string(q)"), Value::string("2"));
    assert_eq!(
        feature(
            &db,
            "s_case",
            "CASE WHEN q > 1 THEN ucase(cat) ELSE cat END"
        ),
        Value::string("BAGS")
    );
}

#[test]
fn offline_mode_agrees_on_the_catalogue() {
    // One wide script with a representative slice, both modes.
    let db = db();
    let sql = "SELECT id, sum(v) OVER w AS a, topn_frequency(cat, 2) OVER w AS b, \
                      avg_cate_where(v, q > 1, cat) OVER w AS c, ew_avg(v, 0.5) OVER w AS d, \
                      concat(cat, '-', q) AS e \
               FROM e WINDOW w AS (PARTITION BY k ORDER BY ts \
               ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY wide AS {sql}")).unwrap();
    let probe = Row::new(vec![
        Value::Bigint(99),
        Value::Bigint(1),
        Value::Double(60.0),
        Value::Int(2),
        Value::string("bags"),
        Value::string("z:9"),
        Value::Timestamp(6_000),
    ]);
    assert_fully_compiled(&db, "wide", &probe);
    let online = db.request("wide", &probe).unwrap();
    let ExecResult::Batch(batch) = db.execute(sql).unwrap() else {
        panic!()
    };
    let offline = batch
        .rows
        .iter()
        .find(|r| r[0] == Value::Bigint(99))
        .unwrap();
    for (i, (x, y)) in online.values().iter().zip(offline.values()).enumerate() {
        match (x, y) {
            (Value::Double(p), Value::Double(q)) => {
                assert!((p - q).abs() < 1e-9, "col {i}: {p} vs {q}")
            }
            _ => assert_eq!(x, y, "col {i}"),
        }
    }
}

/// DEPLOY is the only place a plan is refused: a construct that does not
/// lower is a typed `Error::Deployment` naming it and why — from
/// `Deployment::new` and from `Database::deploy`, which leaves the
/// deployment map and the catalog as it found them. (That no *accepted*
/// plan holds an uncompiled window is `assert_fully_compiled`, run on every
/// statement of this file.)
#[test]
fn a_plan_that_does_not_compile_is_refused_at_deploy() {
    use openmldb::online::{Deployment, TableProvider};
    use openmldb::sql::plan::PhysExpr;
    use openmldb::sql::{compile_select, parse_select, BinaryOp};
    use openmldb::Error;

    let db = db();
    // Hand-built: a CASE wide enough to leave the 16-bit jump range (six
    // instructions a branch; flat, so nothing recurses deeply).
    let stmt = parse_select("SELECT v AS wide FROM e").unwrap();
    let mut query = compile_select(&stmt, &db).unwrap();
    let branch = (
        PhysExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(PhysExpr::Column(2)),
            right: Box::new(PhysExpr::Literal(Value::Double(0.0))),
        },
        PhysExpr::Literal(Value::Double(0.0)),
    );
    query.select[0].expr = PhysExpr::Case {
        branches: vec![branch; 12_000],
        else_expr: None,
    };
    let refused = Deployment::new("too_wide", query.into(), &db).err();
    let Some(Error::Deployment(reason)) = refused else {
        panic!("expected a deployment error, got {refused:?}");
    };
    assert!(reason.contains("select column `wide`"), "{reason}");
    assert!(reason.contains("expression program too long"), "{reason}");

    // Through SQL: `topn_frequency`'s N must be a literal. The plan wants an
    // index on `cat` the table lacks; a refused DEPLOY must not build it.
    let indexes = db.table("e").unwrap().index_specs().len();
    let refused = db.deploy(
        "DEPLOY bad_topn AS SELECT topn_frequency(tags, q) OVER w AS f FROM e WINDOW w AS \
         (PARTITION BY cat ORDER BY ts ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)",
    );
    let Err(Error::Deployment(reason)) = refused else {
        panic!("expected a deployment error, got {refused:?}");
    };
    assert!(reason.contains("window `w`"), "{reason}");
    assert!(reason.contains("constant literal"), "{reason}");
    assert!(db.deployment("bad_topn").is_none());
    assert!(db.deployment_names().is_empty());
    assert_eq!(db.table("e").unwrap().index_specs().len(), indexes);
}
