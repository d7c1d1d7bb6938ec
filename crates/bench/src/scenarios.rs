//! Shared experiment scenarios: the MicroBench database (three stream
//! tables + dimension tables, mirroring the paper's Java testing tool) and
//! SQL generators parameterized by window count, join count and frame size.

use std::sync::Arc;

use openmldb_core::Database;
use openmldb_storage::{IndexSpec, MemTable, Ttl};
use openmldb_types::{Row, Value};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

/// Stream table names of the MicroBench scenario.
pub const STREAMS: [&str; 3] = ["t1", "t2", "t3"];

/// Build the MicroBench database: three schema-identical stream tables plus
/// `dims` dimension tables (for LAST JOIN sweeps), loaded with `rows` rows
/// per stream table.
pub fn micro_db(rows: usize, distinct_keys: usize, key_skew: f64, dims: usize) -> Database {
    let db = Database::new();
    for (ti, name) in STREAMS.iter().enumerate() {
        let table = Arc::new(
            MemTable::new(
                *name,
                micro_schema(),
                vec![IndexSpec {
                    name: "by_k".into(),
                    key_cols: vec![1],
                    ts_col: Some(5),
                    ttl: Ttl::Unlimited,
                }],
            )
            .expect("valid spec"),
        );
        let cfg = MicroConfig {
            rows,
            distinct_keys,
            key_skew,
            seed: 42 + ti as u64,
            ..Default::default()
        };
        for row in micro_rows(&cfg) {
            table.put(&row).expect("load");
        }
        db.register_table(table)
            .expect("registering on an in-memory db cannot fail");
    }
    for d in 0..dims {
        db.execute(&format!(
            "CREATE TABLE dim{d} (k BIGINT, w{d} DOUBLE, updated TIMESTAMP, \
             INDEX(KEY=k, TS=updated))"
        ))
        .expect("dim ddl");
        for k in 0..distinct_keys {
            db.execute(&format!("INSERT INTO dim{d} VALUES ({k}, {k}.5, 1)"))
                .expect("dim row");
        }
    }
    db
}

/// A request tuple for the micro schema.
pub fn micro_request(id: i64, key: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(key),
        Value::Double(7.5),
        Value::string("shoes"),
        Value::Int(2),
        Value::Timestamp(ts),
    ])
}

/// Generate a MicroBench feature script with `windows` distinct windows
/// (different frames so the optimizer cannot merge them), `joins` LAST
/// JOINs, and `aggs_per_window` aggregates per window.
pub fn micro_sql(windows: usize, joins: usize, frame_ms: i64, union_t2: bool) -> String {
    let mut select = vec!["t1.id".to_string(), "t1.k".to_string()];
    for w in 0..windows {
        select.push(format!("sum(v) OVER w{w} AS sum_{w}"));
        select.push(format!("count(v) OVER w{w} AS cnt_{w}"));
        select.push(format!("max(v) OVER w{w} AS max_{w}"));
    }
    for j in 0..joins {
        select.push(format!("dim{j}.w{j}"));
    }
    let mut sql = format!("SELECT {} FROM t1", select.join(", "));
    for j in 0..joins {
        sql.push_str(&format!(
            " LAST JOIN dim{j} ORDER BY dim{j}.updated ON t1.k = dim{j}.k"
        ));
    }
    if windows > 0 {
        sql.push_str(" WINDOW ");
        let defs: Vec<String> = (0..windows)
            .map(|w| {
                let union = if union_t2 { "UNION t2, t3 " } else { "" };
                format!(
                    "w{w} AS ({union}PARTITION BY k ORDER BY ts \
                     ROWS_RANGE BETWEEN {} PRECEDING AND CURRENT ROW)",
                    frame_ms * (w as i64 + 1)
                )
            })
            .collect();
        sql.push_str(&defs.join(", "));
    }
    sql
}

/// The MicroBench aggregate specs (sum/count/max over `v`), pre-bound for
/// baselines that have no SQL front-end. Column 2 is `v` in
/// [`micro_schema`].
pub fn micro_specs() -> Vec<openmldb_sql::plan::BoundAggregate> {
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, PhysExpr};
    ["sum", "count", "max"]
        .into_iter()
        .map(|f| BoundAggregate {
            window_id: 0,
            func: lookup(f).expect("builtin"),
            args: vec![PhysExpr::Column(2)],
            output_type: openmldb_types::DataType::Double,
        })
        .collect()
}

/// The window-union aggregates: the ones whose fold slides exactly —
/// `count` and `sum` over the BIGINT `id` (column 0), `distinct_count`
/// over the INT `q` (column 4) of [`micro_schema`]. An f64 `sum` or a `max`
/// would re-fold the frame on every tuple.
pub fn union_specs() -> Vec<openmldb_sql::plan::BoundAggregate> {
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, PhysExpr};
    [("count", 0), ("sum", 0), ("distinct_count", 4)]
        .into_iter()
        .map(|(f, col)| BoundAggregate {
            window_id: 0,
            func: lookup(f).expect("builtin"),
            args: vec![PhysExpr::Column(col)],
            output_type: openmldb_types::DataType::Bigint,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_core::ExecResult;

    #[test]
    fn micro_db_serves_generated_sql() {
        crate::harness::with_scale(1.0, micro_db_check);
    }

    fn micro_db_check() {
        let db = micro_db(200, 10, 0.0, 2);
        let sql = micro_sql(2, 2, 1_000, true);
        let ExecResult::Batch(b) = db.execute(&sql).unwrap() else {
            panic!()
        };
        assert_eq!(b.rows.len(), 200);
        db.deploy(&format!("DEPLOY t AS {sql}")).unwrap();
        let out = db
            .request_readonly("t", &micro_request(9_999, 3, 50_000))
            .unwrap();
        assert_eq!(out.len(), 2 + 2 * 3 + 2);
    }
}
