//! In-memory table with multiple time-series indexes.
//!
//! Each table stores rows once in the compact encoding (Section 7.1) and
//! indexes them through one two-level skiplist per index (Section 7.2).
//! Encoded payloads are shared (`Arc`) across indexes — the `K` data-copy
//! factor of the Section 8.1 memory model is 1 here, with per-index cost
//! being node + key overhead only.
//!
//! TTL policies per index mirror the paper's table types: `latest`,
//! `absolute`, `absorlat`, `absandlat` (Section 8.1).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, RowCodec, Schema};

#[cfg(test)]
use openmldb_types::Value;

use crate::binlog::Replicator;
use crate::disk_table::{Backend, DataTable, RowVisitor};
use crate::scan::ScanRow;
use crate::skiplist::{heap_bytes, SkipMap, TimeList};
use crate::sync::epoch::Guard;

/// Per-index TTL policy (the paper's table types, Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ttl {
    /// Keep everything.
    Unlimited,
    /// Keep the newest `n` rows per key.
    Latest(u64),
    /// Keep rows younger than `ms`.
    AbsoluteMs(i64),
    /// Expire when *both* bounds are violated.
    AbsAndLat { ms: i64, latest: u64 },
    /// Expire when *either* bound is violated.
    AbsOrLat { ms: i64, latest: u64 },
}

/// Index definition: key columns, optional ordering (timestamp) column, TTL.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    pub name: String,
    pub key_cols: Vec<usize>,
    pub ts_col: Option<usize>,
    pub ttl: Ttl,
}

impl IndexSpec {
    /// Refuse a table's indexes unless there is at least one and every
    /// column each names lies inside `schema`.
    pub(crate) fn check_all(indexes: &[IndexSpec], schema: &Schema) -> Result<()> {
        if indexes.is_empty() {
            return Err(Error::Storage("a table needs at least one index".into()));
        }
        for idx in indexes {
            for &c in &idx.key_cols {
                if c >= schema.len() {
                    return Err(Error::Storage(format!(
                        "index `{}` key column {c} out of range",
                        idx.name
                    )));
                }
            }
            if let Some(ts) = idx.ts_col {
                if ts >= schema.len() {
                    return Err(Error::Storage(format!(
                        "index `{}` ts column {ts} out of range",
                        idx.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Heap bytes the allocator adds to one more allocation: its chunk header
/// plus the mean padding to its granularity.
const ALLOC_SLACK: usize = heap_bytes(16) - 16;
/// Fixed overhead per index entry: the time-list node (`ts`, payload
/// pointer, height, mean tower — one allocation).
pub const NODE_OVERHEAD: usize = TimeList::NODE_HEAP_BYTES;
/// Fixed overhead per unique key of an index: the key node with its time
/// list inline, plus the key vector's own allocation (its elements are
/// counted by `KeyValue::mem_size`). The counterpart of the `+156` constant
/// of the paper's memory model.
pub const KEY_OVERHEAD: usize = SkipMap::<Vec<KeyValue>, TimeList>::NODE_HEAP_BYTES + ALLOC_SLACK;
/// Fixed overhead per stored row, whatever the number of indexes: the
/// reference counts in front of the shared payload and its allocation.
pub const ROW_OVERHEAD: usize = 2 * std::mem::size_of::<usize>() + ALLOC_SLACK;

struct Index {
    spec: IndexSpec,
    map: SkipMap<Vec<KeyValue>, TimeList>,
    entries: AtomicUsize,
    key_count: AtomicUsize,
    key_bytes: AtomicUsize,
}

impl Index {
    fn truncate_args(&self, now_ms: i64) -> Option<(Option<i64>, Option<usize>, bool)> {
        match self.spec.ttl {
            Ttl::Unlimited => None,
            Ttl::Latest(n) => Some((None, Some(n as usize), false)),
            Ttl::AbsoluteMs(ms) => Some((Some(now_ms - ms), None, false)),
            Ttl::AbsOrLat { ms, latest } => Some((Some(now_ms - ms), Some(latest as usize), false)),
            Ttl::AbsAndLat { ms, latest } => Some((Some(now_ms - ms), Some(latest as usize), true)),
        }
    }
}

/// An in-memory, multi-index, TTL-managed table.
pub struct MemTable {
    name: Arc<str>,
    schema: Schema,
    codec: CompactCodec,
    indexes: Vec<Index>,
    replicator: Arc<Replicator>,
    rows: AtomicUsize,
    payload_bytes: AtomicUsize,
    /// 0 = unlimited. When estimated memory exceeds this, writes fail but
    /// reads continue (Section 8.2, memory resource isolation).
    max_memory_bytes: AtomicUsize,
    /// Most recent timestamp observed on any put (drives TTL "now").
    watermark_ms: AtomicI64,
    puts_rejected: AtomicU64,
}

impl MemTable {
    /// Create a table. At least one index is required; an index without a
    /// ts column orders entries by insertion (ts = watermark).
    pub fn new(name: impl Into<Arc<str>>, schema: Schema, indexes: Vec<IndexSpec>) -> Result<Self> {
        IndexSpec::check_all(&indexes, &schema)?;
        Ok(MemTable {
            name: name.into(),
            codec: CompactCodec::new(schema.clone()),
            schema,
            indexes: indexes
                .into_iter()
                .map(|spec| Index {
                    spec,
                    map: SkipMap::new(),
                    entries: AtomicUsize::new(0),
                    key_count: AtomicUsize::new(0),
                    key_bytes: AtomicUsize::new(0),
                })
                .collect(),
            replicator: Arc::new(Replicator::new()),
            rows: AtomicUsize::new(0),
            payload_bytes: AtomicUsize::new(0),
            max_memory_bytes: AtomicUsize::new(0),
            watermark_ms: AtomicI64::new(0),
            puts_rejected: AtomicU64::new(0),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn replicator(&self) -> &Arc<Replicator> {
        &self.replicator
    }

    pub fn index_specs(&self) -> Vec<IndexSpec> {
        self.indexes.iter().map(|i| i.spec.clone()).collect()
    }

    /// Find the index whose key columns equal `key_cols` (order-sensitive).
    pub fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize> {
        self.indexes
            .iter()
            .position(|i| {
                i.spec.key_cols == key_cols && (ts_col.is_none() || i.spec.ts_col == ts_col)
            })
            .or_else(|| {
                self.indexes
                    .iter()
                    .position(|i| i.spec.key_cols == key_cols)
            })
    }

    /// Configure the memory isolation limit (0 = unlimited).
    pub fn set_max_memory_bytes(&self, limit: usize) {
        self.max_memory_bytes.store(limit, Ordering::Release);
    }

    /// Insert one row into every index and append it to the binlog.
    /// Fails with [`Error::MemoryLimitExceeded`] when over the limit —
    /// reads keep working (Section 8.2).
    pub fn put(&self, row: &Row) -> Result<u64> {
        self.schema.validate_row(row.values())?;
        let limit = self.max_memory_bytes.load(Ordering::Acquire);
        if limit > 0 && self.mem_used() >= limit {
            // analysis:allow(relaxed-ordering): statistics counter.
            self.puts_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Error::MemoryLimitExceeded {
                used_bytes: self.mem_used() as u64,
                limit_bytes: limit as u64,
            });
        }
        let encoded: Arc<[u8]> = Arc::from(self.codec.encode(row)?.into_boxed_slice());
        self.payload_bytes
            // analysis:allow(relaxed-ordering): statistics counter.
            .fetch_add(encoded.len(), Ordering::Relaxed);
        // analysis:allow(relaxed-ordering): statistics counter.
        self.rows.fetch_add(1, Ordering::Relaxed);

        let mut primary_key: Option<Arc<[KeyValue]>> = None;
        let mut primary_ts = 0;
        for index in &self.indexes {
            let key = row.key_for(&index.spec.key_cols);
            let ts = match index.spec.ts_col {
                Some(c) => row.ts_at(c),
                // analysis:allow(relaxed-ordering): monotone watermark; no
                // other memory is published through it.
                None => self.watermark_ms.load(Ordering::Relaxed),
            };
            // analysis:allow(relaxed-ordering): monotone watermark.
            self.watermark_ms.fetch_max(ts, Ordering::Relaxed);
            if primary_key.is_none() {
                primary_key = Some(Arc::from(key.clone().into_boxed_slice()));
                primary_ts = ts;
            }
            let key_size: usize = key.iter().map(KeyValue::mem_size).sum();
            let (list, created) = index.map.get_or_insert_with(key, TimeList::new);
            if created {
                // analysis:allow(relaxed-ordering): statistics counter.
                index.key_count.fetch_add(1, Ordering::Relaxed);
                // analysis:allow(relaxed-ordering): statistics counter.
                index.key_bytes.fetch_add(key_size, Ordering::Relaxed);
            }
            list.insert(ts, encoded.clone());
            // analysis:allow(relaxed-ordering): statistics counter.
            index.entries.fetch_add(1, Ordering::Relaxed);
        }
        #[expect(
            clippy::expect_used,
            reason = "MemTable::new rejects empty index lists, and the loop above visits every index"
        )]
        let offset = self.replicator.append_entry(
            self.name.clone(),
            primary_key.expect("at least one index"),
            primary_ts,
            encoded,
        );
        Ok(offset)
    }

    fn index(&self, index_id: usize) -> Result<&Index> {
        self.indexes
            .get(index_id)
            .ok_or_else(|| Error::Storage(format!("index {index_id} does not exist")))
    }

    /// Run TTL garbage collection on every index, relative to `now_ms`.
    /// Returns the number of entries removed (batch deletion of the expired
    /// suffix, Section 7.2).
    pub fn gc(&self, now_ms: i64) -> usize {
        let mut removed = 0;
        for index in &self.indexes {
            let Some((cutoff, keep, both)) = index.truncate_args(now_ms) else {
                continue;
            };
            index.map.for_each(|_k, list| {
                let (dropped, _) = list.truncate(cutoff, keep, both);
                removed += dropped;
                // analysis:allow(relaxed-ordering): statistics counter.
                index.entries.fetch_sub(dropped, Ordering::Relaxed);
            });
        }
        crate::metrics::ttl_evictions().add(removed as u64);
        removed
    }

    /// Total rows inserted and still accounted (payload-level).
    pub fn row_count(&self) -> usize {
        // analysis:allow(relaxed-ordering): statistics read.
        self.rows.load(Ordering::Relaxed)
    }

    /// Writes rejected by memory isolation.
    pub fn rejected_writes(&self) -> u64 {
        // analysis:allow(relaxed-ordering): statistics read.
        self.puts_rejected.load(Ordering::Relaxed)
    }

    /// Estimated memory currently used: shared payloads once, plus
    /// per-index entry and key overheads (the measured analogue of the
    /// Section 8.1 model; `tests/mem_model.rs` holds it within 10% of the
    /// allocator's own count).
    pub fn mem_used(&self) -> usize {
        let mut total = 0usize;
        for index in &self.indexes {
            let mut entries = 0usize;
            index.map.for_each(|_k, list| entries += list.len());
            total += entries * NODE_OVERHEAD
                // analysis:allow(relaxed-ordering): statistics read.
                + index.key_count.load(Ordering::Relaxed) * KEY_OVERHEAD
                // analysis:allow(relaxed-ordering): statistics read.
                + index.key_bytes.load(Ordering::Relaxed);
        }
        // Payloads are shared across indexes: count the live rows of the
        // first index (all indexes hold the same payloads).
        if let Some(first) = self.indexes.first() {
            first.map.for_each(|_k, list| {
                total += list.bytes() + list.len() * ROW_OVERHEAD;
            });
        }
        total
    }

    /// Watermark: the largest timestamp observed.
    pub fn watermark_ms(&self) -> i64 {
        // analysis:allow(relaxed-ordering): monotone watermark read.
        self.watermark_ms.load(Ordering::Relaxed)
    }
}

impl DataTable for MemTable {
    fn name(&self) -> &str {
        MemTable::name(self)
    }
    fn backend(&self) -> Backend {
        Backend::Memory
    }
    fn set_max_memory_bytes(&self, limit: usize) {
        MemTable::set_max_memory_bytes(self, limit)
    }
    fn schema(&self) -> &Schema {
        MemTable::schema(self)
    }
    fn codec(&self) -> &CompactCodec {
        &self.codec
    }
    fn replicator(&self) -> &Arc<Replicator> {
        MemTable::replicator(self)
    }
    fn index_specs(&self) -> Vec<IndexSpec> {
        MemTable::index_specs(self)
    }
    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize> {
        MemTable::find_index(self, key_cols, ts_col)
    }
    fn put(&self, row: &Row) -> Result<u64> {
        MemTable::put(self, row)
    }

    /// The skiplist walk: seek the key node, then seek `upper_ts` in its
    /// time list through the skip levels and lend each node's payload for
    /// the pin.
    fn walk_rows<'g>(
        &'g self,
        guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<u64> {
        let index = self.index(index_id)?;
        crate::chaos_inject(openmldb_chaos::InjectionPoint::SkiplistSeek)?;
        crate::metrics::note_seek(index_id);
        let Some(list) = index.map.get_by(key) else {
            return Ok(0);
        };
        let mut visited = 0u64;
        list.range_visit(lower_ts, upper_ts, guard, |ts, data| {
            if limit.is_some_and(|l| visited >= l as u64) {
                return false;
            }
            visited += 1;
            visitor(ts, ScanRow::Pinned(data))
        });
        Ok(visited)
    }

    /// Keys in index order, each key's rows newest first.
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()> {
        let index = self.index(index_id)?;
        let mut result = Ok(());
        index.map.for_each(|key, list| {
            if result.is_ok() {
                list.scan(|ts, data| {
                    result = visitor(key, ts, data);
                    result.is_ok()
                });
            }
        });
        result
    }
    fn gc(&self, now_ms: i64) -> usize {
        MemTable::gc(self, now_ms)
    }
    fn mem_used(&self) -> usize {
        MemTable::mem_used(self)
    }
    fn row_count(&self) -> usize {
        MemTable::row_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("category", DataType::String),
            ("price", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn table() -> MemTable {
        MemTable::new(
            "actions",
            schema(),
            vec![IndexSpec {
                name: "by_user".into(),
                key_cols: vec![0],
                ts_col: Some(3),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap()
    }

    fn row(user: i64, cat: &str, price: f64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(user),
            Value::string(cat),
            Value::Double(price),
            Value::Timestamp(ts),
        ])
    }

    #[test]
    fn put_and_range_scan() {
        let t = table();
        for i in 0..10 {
            t.put(&row(1, "a", i as f64, i * 100)).unwrap();
        }
        t.put(&row(2, "b", 99.0, 500)).unwrap();
        let hits = t
            .range_projected(0, &[KeyValue::Int(1)], 200, 600, None)
            .unwrap();
        let tss: Vec<i64> = hits.iter().map(|(ts, _)| *ts).collect();
        assert_eq!(tss, vec![600, 500, 400, 300, 200]);
        assert_eq!(t.row_count(), 11);
    }

    #[test]
    fn latest_is_head_read() {
        let t = table();
        t.put(&row(1, "a", 1.0, 100)).unwrap();
        t.put(&row(1, "b", 2.0, 300)).unwrap();
        t.put(&row(1, "c", 3.0, 200)).unwrap();
        let latest = t.latest(0, &[KeyValue::Int(1)]).unwrap().unwrap();
        assert_eq!(latest[1], Value::string("b"), "ts=300 row is newest");
        assert!(t.latest(0, &[KeyValue::Int(42)]).unwrap().is_none());
    }

    #[test]
    fn latest_n_and_latest_visit() {
        let t = table();
        for i in 0..5 {
            t.put(&row(1, "a", i as f64, i * 10)).unwrap();
        }
        let top2 = t
            .latest_n_projected(0, &[KeyValue::Int(1)], 35, 2, None)
            .unwrap();
        assert_eq!(
            top2.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
            vec![30, 20]
        );
        let (codec, mut found) = (t.codec().clone(), None);
        let hit = t.latest_visit(0, &[KeyValue::Int(1)], &mut |data| {
            found = Some(codec.decode(data)?);
            Ok(found.as_ref().is_some_and(|r| r[2].as_f64().unwrap() < 2.5))
        });
        assert_eq!(hit, Ok(true));
        assert_eq!(found.unwrap()[2], Value::Double(2.0));
    }

    #[test]
    fn multi_index_routes_by_key() {
        let t = MemTable::new(
            "t",
            schema(),
            vec![
                IndexSpec {
                    name: "by_user".into(),
                    key_cols: vec![0],
                    ts_col: Some(3),
                    ttl: Ttl::Unlimited,
                },
                IndexSpec {
                    name: "by_cat".into(),
                    key_cols: vec![1],
                    ts_col: Some(3),
                    ttl: Ttl::Unlimited,
                },
            ],
        )
        .unwrap();
        t.put(&row(1, "x", 1.0, 10)).unwrap();
        t.put(&row(2, "x", 2.0, 20)).unwrap();
        let by_cat = t
            .range_projected(1, &[KeyValue::Str("x".into())], 0, 100, None)
            .unwrap();
        assert_eq!(by_cat.len(), 2);
        assert_eq!(t.find_index(&[1], Some(3)), Some(1));
        assert_eq!(t.find_index(&[0], None), Some(0));
        assert_eq!(t.find_index(&[2], None), None);
    }

    #[test]
    fn ttl_latest_and_absolute() {
        let t = MemTable::new(
            "t",
            schema(),
            vec![
                IndexSpec {
                    name: "lat".into(),
                    key_cols: vec![0],
                    ts_col: Some(3),
                    ttl: Ttl::Latest(2),
                },
                IndexSpec {
                    name: "abs".into(),
                    key_cols: vec![1],
                    ts_col: Some(3),
                    ttl: Ttl::AbsoluteMs(100),
                },
            ],
        )
        .unwrap();
        for i in 0..5 {
            t.put(&row(1, "c", i as f64, i * 50)).unwrap();
        }
        let removed = t.gc(260);
        assert!(removed > 0);
        // latest(2): only 2 newest rows per key remain on index 0.
        assert_eq!(
            t.range_projected(0, &[KeyValue::Int(1)], 0, 1_000, None)
                .unwrap()
                .len(),
            2
        );
        // absolute(100ms at now=260): ts >= 160 → ts in {200}.
        let abs = t
            .range_projected(1, &[KeyValue::Str("c".into())], 0, 1_000, None)
            .unwrap();
        assert_eq!(abs.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(), vec![200]);
    }

    #[test]
    fn ttl_absandlat_requires_both() {
        let t = MemTable::new(
            "t",
            schema(),
            vec![IndexSpec {
                name: "both".into(),
                key_cols: vec![0],
                ts_col: Some(3),
                ttl: Ttl::AbsAndLat { ms: 100, latest: 3 },
            }],
        )
        .unwrap();
        for i in 0..6 {
            t.put(&row(1, "c", 0.0, i * 50)).unwrap();
        }
        // now=350 → time cutoff 250; count keeps the 3 newest. AND policy:
        // expire only entries BOTH older than 250 AND beyond the 3 newest.
        t.gc(350);
        let left = t
            .range_projected(0, &[KeyValue::Int(1)], 0, 10_000, None)
            .unwrap();
        let tss: Vec<i64> = left.iter().map(|(ts, _)| *ts).collect();
        assert_eq!(tss, vec![250, 200, 150]);

        // Same data under the OR policy drops ts=200 and 150 as well once
        // either bound is violated... verified separately: 250 survives both.
        let t2 = MemTable::new(
            "t2",
            schema(),
            vec![IndexSpec {
                name: "either".into(),
                key_cols: vec![0],
                ts_col: Some(3),
                ttl: Ttl::AbsOrLat { ms: 100, latest: 2 },
            }],
        )
        .unwrap();
        for i in 0..6 {
            t2.put(&row(1, "c", 0.0, i * 50)).unwrap();
        }
        t2.gc(350);
        let left2 = t2
            .range_projected(0, &[KeyValue::Int(1)], 0, 10_000, None)
            .unwrap();
        // OR policy at now=350: cutoff 250 drops ts<250; keep-2 would allow
        // 250 and 200, but 200 violates the time bound → only 250 survives.
        assert_eq!(
            left2.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
            vec![250]
        );
    }

    #[test]
    fn memory_limit_rejects_writes_allows_reads() {
        let t = table();
        t.put(&row(1, "a", 1.0, 10)).unwrap();
        t.set_max_memory_bytes(1); // far below current usage
        let err = t.put(&row(1, "b", 2.0, 20)).unwrap_err();
        assert!(matches!(err, Error::MemoryLimitExceeded { .. }));
        assert_eq!(t.rejected_writes(), 1);
        // Reads still work.
        assert!(t.latest(0, &[KeyValue::Int(1)]).unwrap().is_some());
        // Raising the limit unblocks writes.
        t.set_max_memory_bytes(0);
        t.put(&row(1, "b", 2.0, 20)).unwrap();
    }

    #[test]
    fn mem_used_tracks_gc() {
        let t = MemTable::new(
            "t",
            schema(),
            vec![IndexSpec {
                name: "i".into(),
                key_cols: vec![0],
                ts_col: Some(3),
                ttl: Ttl::AbsoluteMs(10),
            }],
        )
        .unwrap();
        for i in 0..100 {
            t.put(&row(i % 5, "c", 0.0, i)).unwrap();
        }
        let before = t.mem_used();
        t.gc(1_000); // expire everything older than 990
        let after = t.mem_used();
        assert!(after < before, "gc must shrink usage: {before} -> {after}");
    }

    #[test]
    fn binlog_records_every_put() {
        let t = table();
        for i in 0..7 {
            t.put(&row(1, "a", 0.0, i)).unwrap();
        }
        assert_eq!(t.replicator().len(), 7);
        let mut n = 0;
        t.replicator().replay(0, |e| {
            assert_eq!(&*e.table, "actions");
            n += 1;
        });
        assert_eq!(n, 7);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let t = table();
        assert!(t.put(&Row::new(vec![Value::Int(1)])).is_err());
        assert!(MemTable::new("x", schema(), vec![]).is_err());
    }
}
