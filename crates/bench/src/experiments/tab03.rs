//! **Table 3** — Latency percentiles as feature counts grow.
//!
//! Paper result (ms):
//!
//! | columns | features | TP50 | TP90 | TP95 | TP99 | TP999 |
//! |---|---|---|---|---|---|---|
//! | 10 | 20 | 0.6 | 0.8 | 0.8 | 1.0 | 1.9 |
//! | 100 | 210 | 2.0 | 2.8 | 2.5 | 4.4 | 6.6 |
//! | 1000 | 2100 | 11.7 | 14.7 | 15.9 | 19.8 | 44.8 |

use std::sync::Arc;

use openmldb_core::Database;
use openmldb_storage::{IndexSpec, MemTable, Ttl};
use openmldb_types::{ColumnDef, DataType, Row, Schema, Value};

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};

pub struct FeatureCountRow {
    pub columns: usize,
    pub features: usize,
    pub stats: LatencyStats,
}

/// Wide schema: key, ts, then `columns` value columns.
fn wide_schema(columns: usize) -> Schema {
    let mut cols = vec![
        ColumnDef::new("k", DataType::Bigint),
        ColumnDef::new("ts", DataType::Timestamp),
    ];
    for c in 0..columns {
        cols.push(ColumnDef::new(format!("v{c}"), DataType::Double));
    }
    Schema::new(cols).unwrap()
}

fn wide_row(key: i64, ts: i64, columns: usize) -> Row {
    let mut v = vec![Value::Bigint(key), Value::Timestamp(ts)];
    for c in 0..columns {
        v.push(Value::Double((c as f64) + (ts % 97) as f64));
    }
    Row::new(v)
}

/// ~2.1 features per column: sum + avg per column plus a count per 10.
fn feature_script(columns: usize) -> (String, usize) {
    let mut select = vec!["k".to_string()];
    let mut features = 0;
    for c in 0..columns {
        select.push(format!("sum(v{c}) OVER w AS s{c}"));
        select.push(format!("avg(v{c}) OVER w AS a{c}"));
        features += 2;
        if c % 10 == 0 {
            select.push(format!("count(v{c}) OVER w AS c{c}"));
            features += 1;
        }
    }
    let sql = format!(
        "SELECT {} FROM wide WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
        select.join(", ")
    );
    (sql, features)
}

pub fn run() -> Vec<FeatureCountRow> {
    let rows_per_key = scaled(2_000);
    let requests = scaled(300);
    let mut out = Vec::new();
    for columns in [10usize, 100, 1_000] {
        let db = Database::new();
        let schema = wide_schema(columns);
        let table = Arc::new(
            MemTable::new(
                "wide",
                schema,
                vec![IndexSpec {
                    name: "i".into(),
                    key_cols: vec![0],
                    ts_col: Some(1),
                    ttl: Ttl::Unlimited,
                }],
            )
            .unwrap(),
        );
        for i in 0..rows_per_key {
            table.put(&wide_row(1, i as i64 * 10, columns)).unwrap();
        }
        db.register_table(table)
            .expect("registering on an in-memory db cannot fail");
        let (sql, features) = feature_script(columns);
        db.deploy(&format!("DEPLOY wide{columns} AS {sql}"))
            .unwrap();
        let stats = LatencyStats::from_samples(time_each(requests, |i| {
            db.request_readonly(
                &format!("wide{columns}"),
                &wide_row(1, (rows_per_key + i) as i64 * 10, columns),
            )
            .unwrap()
        }));
        out.push(FeatureCountRow {
            columns,
            features,
            stats,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.columns.to_string(),
                r.features.to_string(),
                fmt(r.stats.p50_ms),
                fmt(r.stats.p90_ms),
                fmt(r.stats.p95_ms),
                fmt(r.stats.p99_ms),
                fmt(r.stats.p999_ms),
            ]
        })
        .collect();
    print_table(
        "Table 3: latency percentiles by feature count, ms",
        &[
            "#-Column",
            "#-Feature",
            "TP50",
            "TP90",
            "TP95",
            "TP99",
            "TP999",
        ],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn latency_grows_with_feature_count_but_stays_bounded() {
        let rows = crate::harness::with_scale(0.05, super::run);
        assert!(
            rows[0].stats.p50_ms <= rows[2].stats.p50_ms,
            "wider schema costs more"
        );
        assert_eq!(rows[0].features, 21);
        assert_eq!(rows[2].features, 2_100);
    }
}
