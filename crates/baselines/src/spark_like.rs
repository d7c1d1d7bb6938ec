//! Spark-style batch engine baseline (paper Sections 2.2 and 9.2.2).
//!
//! Models the costs the paper attributes to Spark on feature workloads:
//!
//! * **serial window computation** — windows run one after another, no
//!   multi-window parallelism;
//! * **per-row window re-aggregation** — no whole-stage incremental sweep;
//! * **stage shuffles with serialization** — every window's shuffle
//!   round-trips rows through the 8-byte-slot `UnsafeRow` codec (the real
//!   tax Spark pays moving data between stages);
//! * **object-heavy rows** — the fat row encoding doubles as the memory
//!   accountant for OOM checks in the GLQ comparison.

use std::collections::HashMap;

use openmldb_exec::WindowAggSet;
use openmldb_sql::plan::{BoundAggregate, BoundWindow, CompiledQuery};
use openmldb_types::{Error, KeyValue, Result, Row, RowCodec, Schema, UnsafeRowCodec, Value};

/// Per-partition shuffle buffers: (order ts, serialized row, base-row index).
type ShuffleBuffers = HashMap<Vec<KeyValue>, Vec<(i64, Vec<u8>, usize)>>;

/// Execution statistics (shuffle volume is the observable cost).
#[derive(Debug, Default, Clone)]
pub struct SparkStats {
    pub shuffled_bytes: u64,
    pub shuffled_rows: u64,
    pub stages: u64,
}

/// Spark-like batch window executor over in-memory tables.
#[derive(Default)]
pub struct SparkLikeEngine {
    /// Memory budget for materialized stages; exceeded → OOM error
    /// (the paper's GLQ observation). 0 = unlimited.
    pub memory_budget_bytes: usize,
    pub stats: SparkStats,
}

impl SparkLikeEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute all windows of `query` serially; returns
    /// `results[window_id][row_idx]` like the OpenMLDB offline engine, so
    /// benchmarks compare identical outputs.
    pub fn compute_windows(
        &mut self,
        query: &CompiledQuery,
        base: &[Row],
        schema: &Schema,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        let by_window = query.aggregates_by_window();
        let mut results: Vec<Vec<Vec<Value>>> =
            (0..query.windows.len()).map(|_| Vec::new()).collect();
        for (wid, ids) in by_window.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let agg_refs: Vec<&BoundAggregate> =
                ids.iter().map(|&i| &query.aggregates[i]).collect();
            results[wid] = self.window_stage(&query.windows[wid], &agg_refs, base, schema)?;
        }
        Ok(results)
    }

    /// One window = one stage: shuffle (serialize + repartition by key),
    /// then per-row frame re-aggregation within each partition.
    fn window_stage(
        &mut self,
        window: &BoundWindow,
        agg_refs: &[&BoundAggregate],
        base: &[Row],
        schema: &Schema,
    ) -> Result<Vec<Vec<Value>>> {
        self.stats.stages += 1;
        let codec = UnsafeRowCodec::new(schema.clone());

        // Shuffle: serialize every row to its target partition buffer, then
        // deserialize on the "reduce" side. This is where Spark's bytes go.
        let mut partitions: ShuffleBuffers = HashMap::new();
        let mut stage_bytes = 0usize;
        for (i, row) in base.iter().enumerate() {
            let buf = codec.encode(row)?;
            stage_bytes += buf.len();
            self.stats.shuffled_bytes += buf.len() as u64;
            self.stats.shuffled_rows += 1;
            partitions
                .entry(row.key_for(&window.partition_cols))
                .or_default()
                .push((row.ts_at(window.order_col), buf, i));
        }
        if self.memory_budget_bytes > 0 && stage_bytes > self.memory_budget_bytes {
            return Err(Error::Storage(format!(
                "spark-like stage OOM: materialized {stage_bytes} bytes > budget {}",
                self.memory_budget_bytes
            )));
        }

        let mut results: Vec<Vec<Value>> = vec![Vec::new(); base.len()];
        for (_key, mut part) in partitions {
            part.sort_by_key(|(ts, _, _)| *ts);
            let rows: Vec<(i64, Row, usize)> = part
                .into_iter()
                .map(|(ts, buf, i)| Ok((ts, codec.decode(&buf)?, i)))
                .collect::<Result<Vec<_>>>()?;
            // Per-row frame recomputation (no incremental state).
            for (pos, (ts, _row, idx)) in rows.iter().enumerate() {
                let lo = match window.frame {
                    openmldb_sql::Frame::Unbounded => 0,
                    openmldb_sql::Frame::Rows { preceding } => {
                        pos.saturating_sub(preceding as usize)
                    }
                    openmldb_sql::Frame::RowsRange { preceding_ms } => {
                        // Saturating: a NULL order column reads as
                        // `i64::MIN`, whose distance to `ts` is no `i64`.
                        rows.partition_point(|(t, _, _)| ts.saturating_sub(*t) > preceding_ms)
                    }
                };
                let mut set = WindowAggSet::new(agg_refs)?;
                for (_, r, _) in &rows[lo..=pos] {
                    set.update(r.values())?;
                }
                results[*idx] = set.outputs();
            }
        }
        Ok(results)
    }

    /// GLQ-style whole-table aggregation: materialize the full table
    /// (with fat rows) and aggregate — errors with OOM when over budget.
    pub fn full_table_aggregate(
        &mut self,
        rows: &[Row],
        schema: &Schema,
        agg_refs: &[&BoundAggregate],
    ) -> Result<Vec<Value>> {
        self.stats.stages += 1;
        let codec = UnsafeRowCodec::new(schema.clone());
        let mut materialized = Vec::with_capacity(rows.len());
        let mut bytes = 0usize;
        for row in rows {
            let buf = codec.encode(row)?;
            bytes += buf.len();
            self.stats.shuffled_bytes += buf.len() as u64;
            if self.memory_budget_bytes > 0 && bytes > self.memory_budget_bytes {
                return Err(Error::Storage(format!(
                    "spark-like OOM materializing full table ({bytes} bytes)"
                )));
            }
            materialized.push(buf);
        }
        let mut set = WindowAggSet::new(agg_refs)?;
        for buf in &materialized {
            set.update(codec.decode(buf)?.values())?;
        }
        Ok(set.outputs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_types::DataType;

    struct Cat(Schema);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            (name == "t").then(|| self.0.clone())
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Bigint((i % 4) as i64),
                    Value::Double((i % 9) as f64),
                    Value::Timestamp((i * 11) as i64),
                ])
            })
            .collect()
    }

    fn query() -> CompiledQuery {
        compile_select(
            &parse_select(
                "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM t WINDOW w AS \
                 (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 90 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &Cat(schema()),
        )
        .unwrap()
    }

    #[test]
    fn matches_openmldb_offline_results() {
        let q = query();
        let data = rows(200);
        let mut spark = SparkLikeEngine::new();
        let spark_out = spark.compute_windows(&q, &data, &schema()).unwrap();
        let tables = openmldb_offline::Tables::new();
        let ids: Vec<usize> = (0..q.aggregates.len()).collect();
        let ours = openmldb_offline::sweep_window(
            &q,
            &q.windows[0],
            &tables,
            &data,
            &ids,
            openmldb_offline::WindowExecMode::Incremental,
        )
        .unwrap();
        for (a, b) in spark_out[0].iter().zip(&ours) {
            for (x, y) in a.iter().zip(b) {
                match (x, y) {
                    (Value::Double(p), Value::Double(q)) => {
                        assert!((p - q).abs() / p.abs().max(1.0) < 1e-9, "{p} vs {q}")
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        assert!(spark.stats.shuffled_bytes > 0);
        assert_eq!(spark.stats.shuffled_rows, 200);
    }

    #[test]
    fn oom_when_over_budget() {
        let q = query();
        let data = rows(1_000);
        let mut spark = SparkLikeEngine {
            memory_budget_bytes: 1_000,
            ..Default::default()
        };
        let err = spark.compute_windows(&q, &data, &schema()).unwrap_err();
        assert!(err.to_string().contains("OOM"));
    }

    #[test]
    fn full_table_aggregate_works_in_budget() {
        let q = query();
        let data = rows(100);
        let refs: Vec<&BoundAggregate> = q.aggregates.iter().collect();
        let mut spark = SparkLikeEngine::new();
        let out = spark.full_table_aggregate(&data, &schema(), &refs).unwrap();
        assert_eq!(out[1], Value::Bigint(100));
    }
}
