//! **Figure 8** — Offline MicroBench performance comparison.
//!
//! Paper result vs Spark: 2.6× on single-window queries, 6.3× on
//! multi-window workloads, 7.2× on skewed data with skew optimization
//! (180 s vs 1302 s).

use openmldb_baselines::SparkLikeEngine;
use openmldb_offline::{execute_batch, OfflineOptions, SkewConfig, Tables, WindowExecMode};
use openmldb_sql::{compile_select, parse_select, PlanCache};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, scaled, time_once};
use crate::scenarios::micro_sql;

pub struct OfflineResult {
    pub workload: String,
    pub spark_ms: f64,
    pub openmldb_ms: f64,
}

struct SchemaCat;
impl openmldb_sql::Catalog for SchemaCat {
    fn table_schema(&self, name: &str) -> Option<openmldb_types::Schema> {
        matches!(name, "t1" | "t2" | "t3").then(micro_schema)
    }
}

fn compile(sql: &str) -> openmldb_sql::CompiledQuery {
    compile_select(&parse_select(sql).unwrap(), &SchemaCat).unwrap()
}

pub fn run() -> Vec<OfflineResult> {
    let _ = PlanCache::new(); // touch to keep the API exercised in benches
    let rows = scaled(30_000);
    let mut out = Vec::new();

    // --- single window ---------------------------------------------------
    {
        let data = micro_rows(&MicroConfig {
            rows,
            distinct_keys: 8,
            ..Default::default()
        });
        let q = compile(&micro_sql(1, 0, 20_000, false));
        let tables = Tables::new();
        let mut spark = SparkLikeEngine::new();
        let (_, spark_ms) =
            time_once(|| spark.compute_windows(&q, &data, &micro_schema()).unwrap());
        let mut t = tables.clone();
        t.insert("t1".into(), data.clone());
        let (_, ours_ms) = time_once(|| {
            execute_batch(
                &q,
                &t,
                &OfflineOptions {
                    mode: WindowExecMode::Incremental,
                    parallel_windows: false,
                    skew: None,
                    threads: 1,
                },
            )
            .unwrap()
        });
        out.push(OfflineResult {
            workload: "single-window".into(),
            spark_ms,
            openmldb_ms: ours_ms,
        });
    }

    // --- multi-window ------------------------------------------------------
    {
        let data = micro_rows(&MicroConfig {
            rows,
            distinct_keys: 8,
            ..Default::default()
        });
        let q = compile(&micro_sql(4, 0, 20_000, false));
        let mut spark = SparkLikeEngine::new();
        let (_, spark_ms) =
            time_once(|| spark.compute_windows(&q, &data, &micro_schema()).unwrap());
        let mut t = Tables::new();
        t.insert("t1".into(), data.clone());
        let (_, ours_ms) = time_once(|| {
            execute_batch(
                &q,
                &t,
                &OfflineOptions {
                    mode: WindowExecMode::Incremental,
                    parallel_windows: true,
                    skew: None,
                    threads: 4,
                },
            )
            .unwrap()
        });
        out.push(OfflineResult {
            workload: "multi-window(4)".into(),
            spark_ms,
            openmldb_ms: ours_ms,
        });
    }

    // --- skewed data ---------------------------------------------------------
    {
        let data = micro_rows(&MicroConfig {
            rows,
            distinct_keys: 16,
            key_skew: 1.4,
            ..Default::default()
        });
        let q = compile(&micro_sql(1, 0, 20_000, false));
        let mut spark = SparkLikeEngine::new();
        let (_, spark_ms) =
            time_once(|| spark.compute_windows(&q, &data, &micro_schema()).unwrap());
        let mut t = Tables::new();
        t.insert("t1".into(), data.clone());
        let (_, ours_ms) = time_once(|| {
            execute_batch(
                &q,
                &t,
                &OfflineOptions {
                    mode: WindowExecMode::Incremental,
                    parallel_windows: true,
                    skew: Some(SkewConfig {
                        factor: 4,
                        hot_threshold: 0.2,
                    }),
                    threads: 4,
                },
            )
            .unwrap()
        });
        out.push(OfflineResult {
            workload: "skewed(zipf 1.4)".into(),
            spark_ms,
            openmldb_ms: ours_ms,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                fmt(r.spark_ms),
                fmt(r.openmldb_ms),
                format!("{:.1}x", r.spark_ms / r.openmldb_ms),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 8: offline MicroBench, ms ({rows} rows)"),
        &["workload", "Spark-like", "OpenMLDB", "speedup"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn openmldb_faster_than_spark_fig08() {
        for r in crate::harness::with_scale(0.05, super::run) {
            assert!(
                r.openmldb_ms < r.spark_ms,
                "{}: OpenMLDB {:.1}ms vs Spark {:.1}ms",
                r.workload,
                r.openmldb_ms,
                r.spark_ms
            );
        }
    }
}
