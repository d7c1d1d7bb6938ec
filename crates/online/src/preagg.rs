//! Long-window pre-aggregation (paper Section 5.1, Figure 4).
//!
//! For windows spanning huge time ranges (years of data, hotspot keys), the
//! online engine must not scan every raw tuple per request. Instead:
//!
//! * **Aggregator initialization** — a [`PreAggregator`] maintains one or
//!   more *levels* of time buckets (e.g. hourly → daily → monthly), each
//!   holding mergeable partial states per key: the per-slot states of the
//!   window's cyclic-binding layout ([`WindowAggSet`]), so a window's
//!   `sum`/`count`/`avg` of one column share one slot per bucket.
//! * **Aggregator update** — updates arrive through the table's binlog
//!   (monotone offsets, asynchronous closures — Section 5.1's
//!   `replicator->AppendEntry(entry, &closure)` design), decoupling
//!   maintenance from the insertion fast path.
//! * **Query refinement** — a request window is covered greedily from the
//!   coarsest level down: fully-contained buckets contribute partial states;
//!   the uncovered edges fall back to raw-row scans (the paper's
//!   `agg1/agg5` edges in Figure 4).
//!
//! Only decomposable aggregates are eligible (`supports_preagg`); each
//! level counts the buckets queries consume from it ([`PreAggregator::level_hits`]).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use openmldb_exec::{AggStates, WindowAggSet};
use openmldb_sql::plan::{BoundAggregate, BoundWindow};
use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, RowCodec, Value};

use openmldb_storage::Replicator;

/// One granularity level.
struct Level {
    bucket_ms: i64,
    /// key → bucket start → the bucket's slot states.
    buckets: RwLock<HashMap<Vec<KeyValue>, BTreeMap<i64, AggStates>>>,
    /// Buckets consumed by queries.
    hits: AtomicU64,
}

/// Pre-aggregation maintainer for one deployed window.
pub struct PreAggregator {
    /// The window's aggregates as one slot layout: buckets hold its states,
    /// and stored rows, raw edges and the request row feed through it.
    set: WindowAggSet,
    partition_cols: Vec<usize>,
    order_col: usize,
    /// Ascending bucket sizes (finest first).
    levels: Vec<Level>,
    queries: AtomicU64,
}

impl PreAggregator {
    /// Build for `window` with the given bucket sizes (ms). Fails if any
    /// aggregate is not decomposable.
    pub fn new(
        window: &BoundWindow,
        aggs: &[BoundAggregate],
        mut bucket_sizes_ms: Vec<i64>,
    ) -> Result<Arc<Self>> {
        if bucket_sizes_ms.is_empty() {
            return Err(Error::Plan(
                "pre-aggregation needs at least one level".into(),
            ));
        }
        for a in aggs {
            if !openmldb_exec::supports_preagg(a.func) {
                return Err(Error::Plan(format!(
                    "aggregate `{}` is order-dependent and cannot be pre-aggregated",
                    a.func.name
                )));
            }
        }
        bucket_sizes_ms.sort_unstable();
        bucket_sizes_ms.dedup();
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        Ok(Arc::new(PreAggregator {
            set: WindowAggSet::new(&refs)?,
            partition_cols: window.partition_cols.clone(),
            order_col: window.order_col,
            levels: bucket_sizes_ms
                .into_iter()
                .map(|bucket_ms| Level {
                    bucket_ms: bucket_ms.max(1),
                    buckets: RwLock::new(HashMap::new()),
                    hits: AtomicU64::new(0),
                })
                .collect(),
            queries: AtomicU64::new(0),
        }))
    }

    /// Subscribe this pre-aggregator to a table's binlog: every row appended
    /// from now on is decoded with `codec` and folded into the bucket
    /// hierarchy asynchronously (the `update_aggr` closure of Section 5.1).
    pub fn attach(self: &Arc<Self>, replicator: &Replicator, codec: CompactCodec) {
        replicator.subscribe(self.update_closure(codec));
    }

    /// [`PreAggregator::attach`] plus exactly-once catch-up over the rows
    /// already in the binlog — the deploy-time bootstrap: existing history
    /// is folded in synchronously, then maintenance continues via the
    /// asynchronous channel with no gap and no double counting.
    pub fn attach_with_catchup(self: &Arc<Self>, replicator: &Replicator, codec: CompactCodec) {
        replicator.subscribe_with_catchup(self.update_closure(codec));
    }

    fn update_closure(self: &Arc<Self>, codec: CompactCodec) -> openmldb_storage::UpdateClosure {
        let this = self.clone();
        Arc::new(move |entry| {
            if let Ok(row) = codec.decode(&entry.data) {
                // A decode failure would mean schema drift mid-stream; rows
                // are validated on put, so ignore is safe here.
                let _ = this.ingest(&row);
            }
        })
    }

    /// Fold one row into every level's bucket.
    pub fn ingest(&self, row: &Row) -> Result<()> {
        let key = row.key_for(&self.partition_cols);
        let ts = row.ts_at(self.order_col);
        for level in &self.levels {
            // A bucket whose start is not an `i64` (a NULL order column
            // reads as `i64::MIN`) is one no query can cover: its rows are
            // always read raw, so the level keeps none.
            let Some(start) = ts.div_euclid(level.bucket_ms).checked_mul(level.bucket_ms) else {
                continue;
            };
            let fold = |per_key: &mut BTreeMap<i64, AggStates>| {
                let bucket = match per_key.entry(start) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(self.set.fresh_states()?),
                };
                self.set.update_states(bucket, row.values())
            };
            // The key is cloned only when it is new to the level.
            let mut buckets = level.buckets.write();
            match buckets.get_mut(key.as_slice()) {
                Some(per_key) => fold(per_key)?,
                None => fold(buckets.entry(key.clone()).or_default())?,
            }
        }
        Ok(())
    }

    /// Answer the window `[lower_ts, upper_ts]` for `key`: merge bucket
    /// states for fully-covered spans and call `raw_fetch(lo, hi)` for the
    /// uncovered edges. Returns one value per aggregate spec.
    pub fn query(
        &self,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        raw_fetch: impl FnMut(i64, i64) -> Result<Vec<Row>>,
    ) -> Result<Vec<Value>> {
        self.query_with_extra_row(key, lower_ts, upper_ts, None, raw_fetch)
    }

    /// [`PreAggregator::query`] plus one in-flight row (the request tuple in
    /// online request mode, which is virtually inserted but not yet stored).
    pub fn query_with_extra_row(
        &self,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        extra_row: Option<&Row>,
        mut raw_fetch: impl FnMut(i64, i64) -> Result<Vec<Row>>,
    ) -> Result<Vec<Value>> {
        // Chaos hook: a fault here models a lost/slow bucket-store lookup;
        // the engine retries and, if it persists, takes the raw scan path.
        openmldb_chaos::inject(openmldb_chaos::InjectionPoint::PreaggLookup)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut acc = self.set.fresh_states()?;

        // Cover segments coarsest-level-first.
        let mut segments = vec![(lower_ts, upper_ts)];
        for level in self.levels.iter().rev() {
            let mut next_segments = Vec::new();
            let buckets = level.buckets.read();
            let per_key = buckets.get(key);
            for (lo, hi) in segments {
                if lo > hi {
                    continue;
                }
                // The aligned buckets fully inside [lo, hi], walked without
                // computing a bucket edge outside it: next to either end of
                // `i64` (a request whose order column is NULL anchors at
                // `i64::MIN`) such an edge would wrap.
                let width = level.bucket_ms;
                let pad = (width - lo.rem_euclid(width)) % width;
                let mut cursor = lo.checked_add(pad);
                let mut covered_any = false;
                while let Some(end) = cursor
                    .and_then(|start| start.checked_add(width - 1))
                    .filter(|end| *end <= hi)
                {
                    let start = end - (width - 1);
                    if let Some(bucket) = per_key.and_then(|m| m.get(&start)) {
                        acc.merge(bucket)?;
                        level.hits.fetch_add(1, Ordering::Relaxed);
                        crate::metrics::preagg_bucket_hits().inc();
                    }
                    // Empty buckets contribute nothing but still count as
                    // covered — there is no raw data there either.
                    covered_any = true;
                    cursor = end.checked_add(1);
                }
                if covered_any {
                    if pad > 0 {
                        next_segments.push((lo, lo + (pad - 1)));
                    }
                    if let Some(rest) = cursor.filter(|rest| *rest <= hi) {
                        next_segments.push((rest, hi));
                    }
                } else {
                    next_segments.push((lo, hi));
                }
            }
            segments = next_segments;
        }

        // Raw edges.
        for (lo, hi) in segments {
            if lo > hi {
                continue;
            }
            for row in &raw_fetch(lo, hi)? {
                self.set.update_states(&mut acc, row.values())?;
            }
        }

        // Fold the in-flight row in last (aggregates here are order-free).
        if let Some(row) = extra_row {
            let ts = row.ts_at(self.order_col);
            if (lower_ts..=upper_ts).contains(&ts) {
                self.set.update_states(&mut acc, row.values())?;
            }
        }

        Ok(self.set.outputs_of(&acc))
    }

    /// Bucket hits per level (finest first).
    pub fn level_hits(&self) -> Vec<u64> {
        self.levels
            .iter()
            .map(|l| l.hits.load(Ordering::Relaxed))
            .collect()
    }

    /// Queries served.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;
    use openmldb_sql::Frame;
    use openmldb_types::DataType;

    fn window() -> BoundWindow {
        BoundWindow {
            name: "w".into(),
            merged_names: vec!["w".into()],
            partition_cols: vec![0],
            order_col: 2,
            order_desc: false,
            frame: Frame::RowsRange {
                preceding_ms: 1_000_000,
            },
            maxsize: None,
            exclude_current_row: false,
            instance_not_in_window: false,
            union_tables: vec![],
        }
    }

    fn aggs() -> Vec<BoundAggregate> {
        vec![
            BoundAggregate {
                window_id: 0,
                func: lookup("sum").unwrap(),
                args: vec![PhysExpr::Column(1)],
                output_type: DataType::Bigint,
            },
            BoundAggregate {
                window_id: 0,
                func: lookup("count").unwrap(),
                args: vec![PhysExpr::Column(1)],
                output_type: DataType::Bigint,
            },
        ]
    }

    fn row(key: i64, v: i64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(key),
            Value::Bigint(v),
            Value::Timestamp(ts),
        ])
    }

    #[test]
    fn rejects_order_dependent_aggregates() {
        let bad = vec![BoundAggregate {
            window_id: 0,
            func: lookup("drawdown").unwrap(),
            args: vec![PhysExpr::Column(1)],
            output_type: DataType::Double,
        }];
        assert!(PreAggregator::new(&window(), &bad, vec![100]).is_err());
        assert!(PreAggregator::new(&window(), &aggs(), vec![]).is_err());
    }

    #[test]
    fn buckets_answer_interior_and_edges_fetch_raw() {
        let p = PreAggregator::new(&window(), &aggs(), vec![100]).unwrap();
        // 10 rows at ts 0..900 step 100, value = ts.
        let all: Vec<Row> = (0..10).map(|i| row(1, i * 100, i * 100)).collect();
        for r in &all {
            p.ingest(r).unwrap();
        }
        // Window [50, 820]: buckets 100..800 fully covered; edges [50,99] and
        // [800,820].
        let raw_calls = std::cell::RefCell::new(Vec::new());
        let raw_rows = std::cell::Cell::new(0);
        let out = p
            .query(&[KeyValue::Int(1)], 50, 820, |lo, hi| {
                raw_calls.borrow_mut().push((lo, hi));
                let rows: Vec<Row> = all
                    .iter()
                    .filter(|r| (lo..=hi).contains(&r.ts_at(2)))
                    .cloned()
                    .collect();
                raw_rows.set(raw_rows.get() + rows.len());
                Ok(rows)
            })
            .unwrap();
        // Expected: values at ts 100..800 step 100 → sum = 3600, count 8.
        assert_eq!(out[0], Value::Bigint(3_600));
        assert_eq!(out[1], Value::Bigint(8));
        let calls = raw_calls.borrow();
        assert_eq!(calls.as_slice(), &[(50, 99), (800, 820)]);
        assert_eq!(raw_rows.get(), 1, "only the ts=800 row came from raw data");
    }

    #[test]
    fn multi_level_prefers_coarse_buckets() {
        let p = PreAggregator::new(&window(), &aggs(), vec![10, 100]).unwrap();
        for i in 0..100 {
            p.ingest(&row(1, 1, i * 10)).unwrap(); // ts 0..990
        }
        let out = p
            .query(&[KeyValue::Int(1)], 0, 999, |_lo, _hi| Ok(vec![]))
            .unwrap();
        assert_eq!(out[1], Value::Bigint(100));
        let hits = p.level_hits();
        // Coarse level (100ms) covers [0,999] in 10 buckets; fine level unused.
        assert_eq!(hits[1], 10);
        assert_eq!(hits[0], 0);
    }

    #[test]
    fn async_binlog_attachment_updates_buckets() {
        use openmldb_storage::{IndexSpec, MemTable, Ttl};
        use openmldb_types::Schema;
        let schema = Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Bigint),
            ("ts", DataType::Timestamp),
        ])
        .unwrap();
        let table = MemTable::new(
            "t",
            schema.clone(),
            vec![IndexSpec {
                name: "i".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap();
        let p = PreAggregator::new(&window(), &aggs(), vec![100]).unwrap();
        p.attach(table.replicator(), CompactCodec::new(schema));
        for i in 0..10 {
            table.put(&row(1, 1, i * 100)).unwrap();
        }
        table.replicator().flush(); // wait for async application
        let out = p
            .query(&[KeyValue::Int(1)], 0, 999, |_l, _h| Ok(vec![]))
            .unwrap();
        assert_eq!(out[1], Value::Bigint(10));
    }

    #[test]
    fn per_key_isolation() {
        let p = PreAggregator::new(&window(), &aggs(), vec![100]).unwrap();
        p.ingest(&row(1, 5, 100)).unwrap();
        p.ingest(&row(2, 7, 100)).unwrap();
        let out1 = p
            .query(&[KeyValue::Int(1)], 0, 999, |_l, _h| Ok(vec![]))
            .unwrap();
        let out2 = p
            .query(&[KeyValue::Int(2)], 0, 999, |_l, _h| Ok(vec![]))
            .unwrap();
        assert_eq!(out1[0], Value::Bigint(5));
        assert_eq!(out2[0], Value::Bigint(7));
    }
}
