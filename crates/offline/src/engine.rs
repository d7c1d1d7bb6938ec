//! Offline batch execution engine (paper Section 6).
//!
//! Offline mode computes, for *every* historical row of the base table, the
//! same feature vector the online engine would produce had that row been the
//! request — one compiled plan, two engines, identical results (the
//! consistency guarantee of Section 4).
//!
//! Per window the engine groups rows by partition key, sorts each group by
//! the order column once, and sweeps it with the subtract-and-evict
//! incremental state. A `RecomputePerRow` mode re-aggregates each row's
//! frame from scratch — both the Spark-like baseline for the benchmarks and
//! the fallback for `EXCLUDE CURRENT_ROW`.

use std::collections::HashMap;

use openmldb_exec::{evaluate, SlidingWindow, WindowAggSet};
use openmldb_sql::ast::Frame;
use openmldb_sql::plan::{BoundWindow, CompiledQuery};
use openmldb_types::{Error, KeyValue, Result, Row, RowBatch, Value};

use crate::parallel;
use crate::skew::SkewConfig;

/// Rows of each window partition, tagged with (order ts, row, base-row index).
/// Union-table rows carry `None` — they feed state but emit no output.
pub(crate) type GroupedRows<'a> = HashMap<Vec<KeyValue>, Vec<(i64, &'a Row, Option<usize>)>>;

/// How each window's aggregates are computed along a sorted partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowExecMode {
    /// Subtract-and-evict sweep: O(n) state updates per partition.
    Incremental,
    /// Per-row frame re-aggregation: O(n × frame) — the naive baseline.
    RecomputePerRow,
}

/// Offline execution options.
#[derive(Debug, Clone)]
pub struct OfflineOptions {
    /// Compute independent windows on parallel threads (Section 6.1).
    pub parallel_windows: bool,
    /// Threads available to window/partition parallelism.
    pub threads: usize,
    /// Time-aware skew repartitioning (Section 6.2); None disables.
    pub skew: Option<SkewConfig>,
    pub mode: WindowExecMode,
}

impl Default for OfflineOptions {
    fn default() -> Self {
        OfflineOptions {
            parallel_windows: true,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            skew: None,
            mode: WindowExecMode::Incremental,
        }
    }
}

/// The input relation set: table name → rows.
pub type Tables = HashMap<String, Vec<Row>>;

/// Execute a compiled feature query in batch over `tables`, producing one
/// output row per base-table row (in input order).
pub fn execute_batch(
    query: &CompiledQuery,
    tables: &Tables,
    opts: &OfflineOptions,
) -> Result<RowBatch> {
    let base = tables
        .get(&query.base_table)
        .ok_or_else(|| Error::Storage(format!("missing table `{}`", query.base_table)))?;

    // 1. Per-window aggregate values per base row index (the synthetic index
    //    column of Section 6.1 is the row's position here).
    let window_results = parallel::compute_windows(query, tables, base, opts)?;

    // 2. LAST JOIN lookup structures: right-table rows keyed by join key,
    //    keeping only the "last" row per key (max order column).
    let join_lookups: Vec<HashMap<Vec<KeyValue>, Vec<Row>>> = query
        .joins
        .iter()
        .map(|join| {
            let rows = tables
                .get(&join.table)
                .ok_or_else(|| Error::Storage(format!("missing table `{}`", join.table)))?;
            let right_keys: Vec<usize> = join.eq_pairs.iter().map(|&(_, r)| r).collect();
            let mut lookup: HashMap<Vec<KeyValue>, Vec<Row>> = HashMap::new();
            for row in rows {
                lookup
                    .entry(row.key_for(&right_keys))
                    .or_default()
                    .push(row.clone());
            }
            // Order candidates newest-first by the join's order column so a
            // residual predicate scans in LAST JOIN order.
            for candidates in lookup.values_mut() {
                if let Some(oc) = join.order_col {
                    candidates.sort_by_key(|r| std::cmp::Reverse(r.ts_at(oc)));
                }
            }
            Ok(lookup)
        })
        .collect::<Result<Vec<_>>>()?;

    // 3. Assemble output rows.
    let by_window = query.aggregates_by_window();
    let mut out_rows = Vec::with_capacity(base.len());
    for (idx, row) in base.iter().enumerate() {
        // Combined row: base columns, then each join's matched columns.
        let mut combined: Vec<Value> = row.values().to_vec();
        for (join, lookup) in query.joins.iter().zip(&join_lookups) {
            let key: Vec<KeyValue> = join
                .eq_pairs
                .iter()
                .map(|&(l, _)| KeyValue::from(&combined[l]))
                .collect();
            let matched = match lookup.get(&key) {
                None => None,
                Some(candidates) => {
                    let mut hit = None;
                    for cand in candidates {
                        let passes = match &join.residual {
                            None => true,
                            Some(pred) => {
                                let mut probe = combined.clone();
                                probe.extend(cand.values().iter().cloned());
                                evaluate(pred, &probe, &[])?.as_bool()?
                            }
                        };
                        if passes {
                            hit = Some(cand);
                            break;
                        }
                    }
                    hit
                }
            };
            match matched {
                Some(r) => combined.extend(r.values().iter().cloned()),
                None => combined.extend((0..join.schema.len()).map(|_| Value::Null)),
            }
        }

        // WHERE filter drops the row from the batch output.
        if let Some(pred) = &query.where_clause {
            if !evaluate(pred, &combined, &[])?.as_bool()? {
                continue;
            }
        }

        // Gather aggregate values for this row from each window result.
        let mut agg_values = vec![Value::Null; query.aggregates.len()];
        for (wid, slots) in by_window.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let per_row = &window_results[wid][idx];
            for (slot, v) in slots.iter().zip(per_row.iter()) {
                agg_values[*slot] = v.clone();
            }
        }

        let mut out = Vec::with_capacity(query.select.len());
        for col in &query.select {
            out.push(evaluate(&col.expr, &combined, &agg_values)?);
        }
        out_rows.push(Row::new(out));
        if let Some(limit) = query.limit {
            if out_rows.len() >= limit {
                break;
            }
        }
    }
    Ok(RowBatch::new(query.output_schema.clone(), out_rows))
}

/// Compute one window's aggregates for every base row. Returns, per base row
/// index, the aggregate values in `aggs` order. Union-table rows participate
/// in windows without producing outputs.
pub fn sweep_window(
    query: &CompiledQuery,
    window: &BoundWindow,
    tables: &Tables,
    base: &[Row],
    agg_ids: &[usize],
    mode: WindowExecMode,
) -> Result<Vec<Vec<Value>>> {
    let agg_refs: Vec<_> = agg_ids.iter().map(|&i| &query.aggregates[i]).collect();

    // Tag rows: (key, ts, row, base_index or None for union rows).
    let mut tagged: Vec<(Vec<KeyValue>, i64, &Row, Option<usize>)> = Vec::new();
    for (i, row) in base.iter().enumerate() {
        tagged.push((
            row.key_for(&window.partition_cols),
            row.ts_at(window.order_col),
            row,
            Some(i),
        ));
    }
    for name in &window.union_tables {
        let rows = tables
            .get(name)
            .ok_or_else(|| Error::Storage(format!("missing union table `{name}`")))?;
        for row in rows {
            tagged.push((
                row.key_for(&window.partition_cols),
                row.ts_at(window.order_col),
                row,
                None,
            ));
        }
    }

    // Group by key, sort each group chronologically (union rows with equal
    // ts sort before the base row is irrelevant to set aggregates; keep the
    // base row last for equal ts so it anchors).
    let mut groups: GroupedRows = HashMap::new();
    for (key, ts, row, idx) in tagged {
        groups.entry(key).or_default().push((ts, row, idx));
    }

    let mut results: Vec<Vec<Value>> = vec![Vec::new(); base.len()];
    for (_key, mut group) in groups {
        group.sort_by_key(|(ts, _, idx)| (*ts, idx.is_some()));
        for (i, outs) in sweep_group(&group, window, &agg_refs, mode)? {
            results[i] = outs;
        }
        // MAXSIZE is a memory cap on the online path; the batch sweep keeps
        // exact semantics (results identical when under the cap).
    }
    Ok(results)
}

/// Whether the window's attributes force the per-row recompute path (the
/// incremental sweep cannot exclude rows per output row).
fn needs_recompute(window: &BoundWindow) -> bool {
    window.exclude_current_row || window.instance_not_in_window
}

/// Sweep one time-sorted partition group, returning `(base_index, values)`
/// for every output-producing row. Shared by the plain sweep and the
/// skew-repartitioned sweep of Section 6.2 (where expanded context rows
/// carry `idx = None` and produce no output).
pub fn sweep_group(
    group: &[(i64, &Row, Option<usize>)],
    window: &BoundWindow,
    agg_refs: &[&openmldb_sql::plan::BoundAggregate],
    mode: WindowExecMode,
) -> Result<Vec<(usize, Vec<Value>)>> {
    let mut out = Vec::new();
    match mode {
        WindowExecMode::Incremental if !needs_recompute(window) => {
            // Emit after each run of equal timestamps so every output row
            // sees all of its ts-peers — exactly what online request mode
            // sees (the request anchors after every stored tuple with
            // ts <= its own).
            let mut sliding = SlidingWindow::new(window.frame, agg_refs)?;
            let mut start = 0usize;
            while start < group.len() {
                let run_ts = group[start].0;
                let mut end = start;
                while end < group.len() && group[end].0 == run_ts {
                    end += 1;
                }
                for (ts, row, _) in &group[start..end] {
                    sliding.push(*ts, row.values())?;
                }
                let outs = sliding.outputs();
                for (_, _, idx) in &group[start..end] {
                    if let Some(i) = idx {
                        out.push((*i, outs.clone()));
                    }
                }
                start = end;
            }
        }
        _ => {
            // Recompute the frame slice for each output row. Range frames
            // are peer-inclusive (all rows with ts == anchor participate,
            // matching online request mode); count frames take the
            // `preceding` rows before the anchor position.
            for (pos, (ts, _row, idx)) in group.iter().enumerate() {
                let Some(i) = idx else { continue };
                let lo = frame_start(group, pos, window.frame);
                let hi = match window.frame {
                    Frame::Rows { .. } => pos + 1,
                    _ => group.partition_point(|(gts, _, _)| gts <= ts),
                };
                let mut set = WindowAggSet::new(agg_refs)?;
                for (gpos, (gts, grow, gidx)) in group.iter().enumerate().take(hi).skip(lo) {
                    if let Frame::RowsRange { preceding_ms } = window.frame {
                        if ts - gts > preceding_ms {
                            continue;
                        }
                    }
                    // EXCLUDE CURRENT_ROW drops only the anchor row itself.
                    if window.exclude_current_row && gpos == pos {
                        continue;
                    }
                    // INSTANCE_NOT_IN_WINDOW: the instance table's other
                    // rows stay out — only union rows and the current row.
                    if window.instance_not_in_window && gidx.is_some() && gpos != pos {
                        continue;
                    }
                    set.update(grow.values())?;
                }
                out.push((*i, set.outputs()));
            }
        }
    }
    Ok(out)
}

/// First group position inside the frame anchored at `group[pos]`.
fn frame_start(group: &[(i64, &Row, Option<usize>)], pos: usize, frame: Frame) -> usize {
    match frame {
        Frame::Unbounded => 0,
        Frame::Rows { preceding } => pos.saturating_sub(preceding as usize),
        Frame::RowsRange { preceding_ms } => {
            let lower = group[pos].0.saturating_sub(preceding_ms);
            group.partition_point(|(ts, _, _)| *ts < lower)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_types::{DataType, Schema};

    struct Cat(HashMap<String, Schema>);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            self.0.get(name).cloned()
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

    fn profile_schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("age", DataType::Int),
            ("updated", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn cat() -> Cat {
        let mut m = HashMap::new();
        m.insert("t".to_string(), schema());
        m.insert("u".to_string(), schema());
        m.insert("p".to_string(), profile_schema());
        Cat(m)
    }

    fn row(k: i64, v: f64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(k),
            Value::Double(v),
            Value::Timestamp(ts),
        ])
    }

    fn compile(sql: &str) -> CompiledQuery {
        compile_select(&parse_select(sql).unwrap(), &cat()).unwrap()
    }

    fn opts(mode: WindowExecMode) -> OfflineOptions {
        OfflineOptions {
            parallel_windows: false,
            threads: 2,
            skew: None,
            mode,
        }
    }

    #[test]
    fn batch_window_per_row() {
        let q = compile(
            "SELECT k, sum(v) OVER w AS s FROM t WINDOW w AS \
             (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)",
        );
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            vec![
                row(1, 1.0, 0),
                row(1, 2.0, 50),
                row(1, 4.0, 200),
                row(2, 8.0, 50),
            ],
        );
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0][1], Value::Double(1.0));
        assert_eq!(out.rows[1][1], Value::Double(3.0));
        assert_eq!(out.rows[2][1], Value::Double(4.0), "ts 0 and 50 fell out");
        assert_eq!(out.rows[3][1], Value::Double(8.0), "separate key");
    }

    #[test]
    fn incremental_and_recompute_agree() {
        let q = compile(
            "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c, max(v) OVER w AS m FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 70 PRECEDING AND CURRENT ROW)",
        );
        let rows: Vec<Row> = (0..200)
            .map(|i| row(i % 5, (i % 17) as f64, (i * 13) % 400))
            .collect();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rows);
        let a = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        let b = execute_batch(&q, &tables, &opts(WindowExecMode::RecomputePerRow)).unwrap();
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn rows_frame_batch() {
        let q = compile(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS \
             (PARTITION BY k ORDER BY ts ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)",
        );
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            vec![row(1, 1.0, 0), row(1, 2.0, 10), row(1, 4.0, 20)],
        );
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        let sums: Vec<&Value> = out.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            sums,
            vec![
                &Value::Double(1.0),
                &Value::Double(3.0),
                &Value::Double(6.0)
            ]
        );
    }

    #[test]
    fn window_union_tables_in_batch() {
        let q = compile(
            "SELECT count(v) OVER w AS c FROM t WINDOW w AS \
             (UNION u PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)",
        );
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), vec![row(1, 1.0, 100)]);
        tables.insert("u".to_string(), vec![row(1, 9.0, 60), row(1, 9.0, 600)]);
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        assert_eq!(out.rows.len(), 1, "union rows produce no output rows");
        assert_eq!(
            out.rows[0][0],
            Value::Bigint(2),
            "base row + one union row in frame"
        );
    }

    #[test]
    fn last_join_batch_semantics() {
        let q = compile("SELECT t.k, p.age FROM t LAST JOIN p ORDER BY p.updated ON t.k = p.k");
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), vec![row(1, 0.0, 0), row(2, 0.0, 0)]);
        tables.insert(
            "p".to_string(),
            vec![
                Row::new(vec![Value::Bigint(1), Value::Int(10), Value::Timestamp(5)]),
                Row::new(vec![Value::Bigint(1), Value::Int(20), Value::Timestamp(9)]),
            ],
        );
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        assert_eq!(out.rows[0][1], Value::Int(20), "latest by updated");
        assert_eq!(out.rows[1][1], Value::Null, "no match NULL-pads");
    }

    #[test]
    fn where_and_limit_in_batch() {
        let q = compile("SELECT k FROM t WHERE v > 1.5 LIMIT 1");
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            vec![row(1, 1.0, 0), row(2, 2.0, 0), row(3, 3.0, 0)],
        );
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Bigint(2));
    }

    #[test]
    fn exclude_current_row_in_batch() {
        let q = compile(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS \
             (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW \
              EXCLUDE CURRENT_ROW)",
        );
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), vec![row(1, 1.0, 0), row(1, 2.0, 10)]);
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        assert_eq!(out.rows[0][0], Value::Null, "empty window");
        assert_eq!(out.rows[1][0], Value::Double(1.0));
    }

    #[test]
    fn order_dependent_aggregate_in_batch() {
        let q = compile(
            "SELECT drawdown(v) OVER w AS d FROM t WINDOW w AS \
             (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10000 PRECEDING AND CURRENT ROW)",
        );
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            vec![row(1, 100.0, 0), row(1, 60.0, 10), row(1, 80.0, 20)],
        );
        let out = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental)).unwrap();
        let Value::Double(d) = out.rows[2][0] else {
            panic!()
        };
        assert!((d - 0.4).abs() < 1e-9, "peak 100 → trough 60");
    }
}
