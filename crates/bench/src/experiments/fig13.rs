//! **Figure 13** — Data-skew optimization.
//!
//! Paper result: OpenMLDB without skew optimization already beats Spark
//! ~4×; skew factor 4 reaches 10.1× over Spark and >2× over the
//! unoptimized engine.

use openmldb_baselines::SparkLikeEngine;
use openmldb_offline::{compute_windows, OfflineOptions, SkewConfig, Tables, WindowExecMode};
use openmldb_sql::{compile_select, parse_select};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, results_close, scaled, time_once};
use crate::scenarios::micro_sql;

pub struct SkewResult {
    pub config: String,
    pub ms: f64,
}

struct SchemaCat;
impl openmldb_sql::Catalog for SchemaCat {
    fn table_schema(&self, name: &str) -> Option<openmldb_types::Schema> {
        (name == "t1").then(micro_schema)
    }
}

pub fn run() -> Vec<SkewResult> {
    let rows = scaled(60_000);
    // Hot key holds most of the data.
    let data = micro_rows(&MicroConfig {
        rows,
        distinct_keys: 8,
        key_skew: 1.6,
        ts_step_ms: 1,
        ..Default::default()
    });
    let q = compile_select(
        &parse_select(&micro_sql(1, 0, 20_000, false)).unwrap(),
        &SchemaCat,
    )
    .unwrap();
    let tables = Tables::new();
    let mut out = Vec::new();

    let mut spark = SparkLikeEngine::new();
    let (spark_res, spark_ms) =
        time_once(|| spark.compute_windows(&q, &data, &micro_schema()).unwrap());
    out.push(SkewResult {
        config: "Spark-like".into(),
        ms: spark_ms,
    });

    let base = OfflineOptions {
        parallel_windows: true,
        threads: 4,
        skew: None,
        mode: WindowExecMode::Incremental,
    };
    let (no_skew_res, no_skew_ms) =
        time_once(|| compute_windows(&q, &tables, &data, &base).unwrap());
    assert!(
        results_close(&spark_res, &no_skew_res),
        "semantics preserved vs Spark"
    );
    out.push(SkewResult {
        config: "OpenMLDB w/o skew-opt".into(),
        ms: no_skew_ms,
    });

    for factor in [2usize, 4] {
        let opts = OfflineOptions {
            skew: Some(SkewConfig {
                factor,
                hot_threshold: 0.2,
            }),
            ..base.clone()
        };
        let (res, ms) = time_once(|| compute_windows(&q, &tables, &data, &opts).unwrap());
        assert!(
            results_close(&res, &no_skew_res),
            "skew {factor} preserves results"
        );
        out.push(SkewResult {
            config: format!("OpenMLDB skew {factor}"),
            ms,
        });
    }

    let spark_ms = out[0].ms;
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                fmt(r.ms),
                format!("{:.1}x", spark_ms / r.ms),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 13: data-skew optimization, ms ({rows} rows, zipf 1.6)"),
        &["configuration", "time ms", "vs Spark"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn skew_optimization_improves_over_spark_and_baseline() {
        let results = crate::harness::with_scale(0.2, super::run);
        let spark = results[0].ms;
        let no_skew = results[1].ms;
        let skew4 = results[3].ms;
        assert!(
            no_skew < spark,
            "unoptimized OpenMLDB beats Spark: {no_skew:.1} vs {spark:.1}"
        );
        assert!(
            skew4 < spark,
            "skew-4 beats Spark: {skew4:.1} vs {spark:.1}"
        );
    }
}
