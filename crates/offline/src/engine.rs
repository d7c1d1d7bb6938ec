//! Offline batch execution (paper Section 6): every row of the base table
//! gets the feature row the online engine returns when that row is the
//! request — the program a deployment serves with, run over an encoded
//! [`Snapshot`], so the two answers are equal bit for bit (the consistency
//! guarantee of Section 4).
//!
//! [`execute`] sweeps every window per partition ([`crate::parallel`],
//! [`crate::skew`]), each into a column of its own, then runs each base row
//! through the row stage a request runs ([`openmldb_exec::RowStage`]), its
//! LAST JOINs offered the snapshot's lookups (capture checked every row).
//! The entry points over decoded [`Tables`] ([`execute_batch`],
//! [`sweep_window`], [`crate::compute_windows`]) encode their input once
//! and run the same path.

use std::collections::HashMap;

use openmldb_exec::{BaseRow, RowBuffers};
use openmldb_sql::plan::{BoundWindow, CompiledQuery};
use openmldb_types::{Error, KeyValue, Result, Row, RowBatch, Value};

use crate::parallel::compute;
use crate::skew::SkewConfig;
use crate::snapshot::{missing, Snapshot};

/// How each window's aggregates are computed along a sorted partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowExecMode {
    /// Invertible kernels slide, the rest re-fold each frame.
    Incremental,
    /// Every kernel re-folds every frame: O(n × frame) — the naive oracle.
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
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            skew: None,
            mode: WindowExecMode::Incremental,
        }
    }
}

/// The decoded input relation set: table name → rows.
pub type Tables = HashMap<String, Vec<Row>>;

/// Execute a compiled feature query over `snap`, a snapshot captured for
/// it: one output row per base row, in the snapshot's row order (WHERE
/// drops rows, LIMIT stops).
pub fn execute(query: &CompiledQuery, snap: &Snapshot, opts: &OfflineOptions) -> Result<RowBatch> {
    let program = &*snap.program;
    let wids: Vec<usize> = (0..query.windows.len()).collect();
    let mut swept = compute(query, program, snap, opts, &wids)?;
    let stage = program.stage()?;
    let base = snap.table(&query.base_table)?;
    let lookups = query.joins.iter().map(|j| snap.lookup(j));
    let lookups = lookups.collect::<Result<Vec<_>>>()?;
    // A join's candidates: its snapshot lookup's rows for the key, newest
    // first, up to the first the stage accepts or the first error.
    let mut candidates =
        |j: usize, key: &[KeyValue], accept: &mut dyn FnMut(&[u8]) -> Result<bool>| {
            let (table, runs) = lookups[j];
            let mut tried =
                (runs.get(key).into_iter().flatten()).map(|&(id, _)| accept(snap.row(table, id)));
            tried
                .find(|hit| !matches!(hit, Ok(false)))
                .unwrap_or(Ok(false))
        };
    let n = base.rows.len();
    let mut out = Vec::with_capacity(query.limit.map_or(n, |l| l.min(n)));
    let (mut bufs, mut key) = (RowBuffers::default(), Vec::new());
    let mut aggs = vec![Value::Null; query.aggregates.len()];
    for id in 0..n {
        stage.base(BaseRow::Bytes(snap.row(base, id as u32)), &mut bufs)?;
        stage.join(&mut bufs, &mut key, &mut candidates)?;
        if !stage.filter(&mut bufs)? {
            continue;
        }
        swept.take(id, &mut aggs);
        out.push(stage.project(&mut bufs, &mut aggs)?);
        if query.limit.is_some_and(|l| out.len() >= l) {
            break;
        }
    }
    Ok(RowBatch::new(query.output_schema.clone(), out))
}

/// [`execute`] over decoded `tables`, encoded once with the base codec.
pub fn execute_batch(
    query: &CompiledQuery,
    tables: &Tables,
    opts: &OfflineOptions,
) -> Result<RowBatch> {
    let base = tables
        .get(&query.base_table)
        .ok_or_else(|| missing(&query.base_table))?;
    execute(query, &Snapshot::from_rows(query, base, tables)?, opts)
}

/// Compute one window's aggregates (`agg_ids`, of `window`'s) for every
/// `base` row, union tables from `tables`: per base row, the values in
/// `agg_ids` order.
pub fn sweep_window(
    query: &CompiledQuery,
    window: &BoundWindow,
    tables: &Tables,
    base: &[Row],
    agg_ids: &[usize],
    mode: WindowExecMode,
) -> Result<Vec<Vec<Value>>> {
    let wid = query.windows.iter().position(|w| w.name == window.name);
    let wid =
        wid.ok_or_else(|| Error::Storage(format!("window `{}` is not in the plan", window.name)))?;
    let opts = OfflineOptions {
        parallel_windows: false,
        threads: 1,
        skew: None,
        mode,
    };
    let mut rows = decoded(query, tables, base, &opts, &[(wid, agg_ids)])?;
    Ok(rows.pop().unwrap_or_default())
}

/// Sweep windows over decoded rows (`base`, the other tables from
/// `tables`), encoded once: per `(window, aggregate ids)`, those
/// aggregates' values for every base row.
pub(crate) fn decoded(
    query: &CompiledQuery,
    tables: &Tables,
    base: &[Row],
    opts: &OfflineOptions,
    windows: &[(usize, &[usize])],
) -> Result<Vec<Vec<Vec<Value>>>> {
    let snap = Snapshot::from_rows(query, base, tables)?;
    let wids: Vec<usize> = windows.iter().map(|w| w.0).collect();
    let mut swept = compute(query, &snap.program, &snap, opts, &wids)?;
    let mut aggs = vec![Value::Null; query.aggregates.len()];
    let mut out = vec![Vec::with_capacity(base.len()); windows.len()];
    for id in 0..base.len() {
        swept.take(id, &mut aggs);
        for ((_, ids), rows) in windows.iter().zip(&mut out) {
            rows.push(ids.iter().filter_map(|&a| aggs.get(a).cloned()).collect());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_storage::{DataTable, IndexSpec, MemTable, Ttl};
    use openmldb_types::{DataType, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

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
            ("i", DataType::Int),
            ("b", DataType::Bigint),
            ("f", DataType::Float),
            ("s", DataType::String),
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
        let mut values = vec![Value::Bigint(k), Value::Double(v), Value::Timestamp(ts)];
        values.resize(7, Value::Null);
        Row::new(values)
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

    /// The sliding sweep and the naive oracle are one program: equal bit for
    /// bit on random doubles (f64 sums fold in request order), ±0.0, NaN and
    /// runs of equal values, over every frame kind, ties, NULLs, union and
    /// window attributes — extrema of every class included, BIGINTs that
    /// tie once promoted among them.
    #[test]
    fn incremental_and_recompute_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut gen = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|_| {
                    let v = match rng.gen_range(0..12) {
                        0 => None,
                        1 => Some(-0.0),
                        2 => Some(0.0),
                        3 => Some(f64::NAN),
                        4 | 5 => Some(2.5),
                        _ => Some(rng.gen_range(-1e3..1e3)),
                    };
                    let ts = rng.gen_range(0..60i64) * 7;
                    let edge = rng.gen_range(0..64i64);
                    let b = [i64::MAX - edge, i64::MIN + edge][rng.gen_range(0..2usize)];
                    let s = ["", "a", "ab", "b"][rng.gen_range(0..4usize)];
                    let null = rng.gen_range(0..6) == 0;
                    Row::new(vec![
                        Value::Bigint(rng.gen_range(0..4)),
                        v.map_or(Value::Null, Value::Double),
                        Value::Timestamp(ts),
                        if null {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(-9..9))
                        },
                        if null { Value::Null } else { Value::Bigint(b) },
                        v.map_or(Value::Null, |v| Value::Float(v as f32)),
                        if null { Value::Null } else { Value::string(s) },
                    ])
                })
                .collect()
        };
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), gen(300));
        tables.insert("u".to_string(), gen(120));
        let aggs = "sum(v) OVER w AS s, count(v) OVER w AS c, max(v) OVER w AS m, \
                    avg(v * 2.0 + 1.0) OVER w AS a, distinct_count(k) OVER w AS d, \
                    drawdown(v) OVER w AS dd, stddev(v) OVER w AS sd, min(v) OVER w AS mv, \
                    min(i) OVER w AS mi, max(i) OVER w AS xi, avg(i) OVER w AS ai, \
                    min(b) OVER w AS mb, max(b) OVER w AS xb, min(f) OVER w AS mf, \
                    max(f) OVER w AS xf, min(s) OVER w AS ms, max(s) OVER w AS xs, \
                    distinct_count(s) OVER w AS ds, topn_frequency(s, 2) OVER w AS ts";
        for frame in [
            "ROWS_RANGE BETWEEN 70 PRECEDING AND CURRENT ROW",
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW",
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
            "ROWS_RANGE BETWEEN 90 PRECEDING AND CURRENT ROW MAXSIZE 4",
            "ROWS_RANGE BETWEEN 70 PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW",
            "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW",
        ] {
            for union in ["", "UNION u "] {
                for inw in ["", " INSTANCE_NOT_IN_WINDOW"] {
                    if union.is_empty() && !inw.is_empty() {
                        continue;
                    }
                    let q = compile(&format!(
                        "SELECT k, {aggs} FROM t WINDOW w AS \
                         ({union}PARTITION BY k ORDER BY ts {frame}{inw})"
                    ));
                    let a = execute_batch(&q, &tables, &opts(WindowExecMode::Incremental));
                    let b = execute_batch(&q, &tables, &opts(WindowExecMode::RecomputePerRow));
                    assert_eq!(a.unwrap().rows, b.unwrap().rows, "{union}{frame}{inw}");
                }
            }
        }
    }

    /// The decoded-rows adapter and a snapshot captured from tables give the
    /// same batch — ties included, since both order a key's rows as its
    /// index does.
    #[test]
    fn adapter_and_captured_snapshot_agree() {
        let q = compile(
            "SELECT t.k, t.v, sum(v) OVER w AS s, count(v) OVER w2 AS c, p.age FROM t \
             LAST JOIN p ORDER BY p.updated ON t.k = p.k \
             WINDOW w AS (UNION u PARTITION BY k ORDER BY ts ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), \
                    w2 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 20 PRECEDING AND CURRENT ROW)",
        );
        let table = |name: &str, schema: Schema, ts: usize| {
            let index = IndexSpec {
                name: "i".into(),
                key_cols: vec![0],
                ts_col: Some(ts),
                ttl: Ttl::Unlimited,
            };
            Arc::new(MemTable::new(name, schema, vec![index]).unwrap())
        };
        let (t, u, p) = (
            table("t", schema(), 2),
            table("u", schema(), 2),
            table("p", profile_schema(), 2),
        );
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..200 {
            let r = row(rng.gen_range(0..3), rng.gen_range(-9.0..9.0), (i % 40) * 3);
            (if i % 3 == 0 { &u } else { &t }).put(&r).unwrap();
        }
        for k in 0..3 {
            for age in 0..2 {
                let r = Row::new(vec![Value::Bigint(k), Value::Int(age), Value::Timestamp(5)]);
                p.put(&r).unwrap();
            }
        }
        let handles: HashMap<&str, Arc<dyn DataTable>> = [("t", t), ("u", u), ("p", p)]
            .map(|(n, t)| (n, t as Arc<dyn DataTable>))
            .into();
        let resolve = |name: &str| handles.get(name).cloned().ok_or_else(|| missing(name));
        let options = opts(WindowExecMode::Incremental);
        let captured = execute(&q, &Snapshot::capture(&q, resolve).unwrap(), &options).unwrap();
        let tables: Tables = handles
            .iter()
            .map(|(n, t)| (n.to_string(), t.scan_all(0).unwrap()))
            .collect();
        let adapted = execute_batch(&q, &tables, &options).unwrap();
        assert_eq!(captured.rows.len(), 133);
        assert_eq!(captured.rows, adapted.rows);
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
