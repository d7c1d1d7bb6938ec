//! Disk-backed table (paper Sections 7.3 and 8.1).
//!
//! When a table's estimated memory exceeds what is available — or a
//! 20–30 ms latency budget makes the ~80% hardware saving attractive — the
//! table is assigned to the disk engine instead of the in-memory skiplist.
//! [`DiskTable`] offers the same access paths as [`MemTable`]
//! (via the [`DataTable`] trait) on top of [`DiskEngine`]: one column family
//! per index, a shared skiplist memtable, composite `key+ts` ordering, and
//! time-based eviction.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, RowCodec, Schema};

use crate::binlog::Replicator;
use crate::disk::{ColumnFamilySpec, DiskEngine};
use crate::scan::ScanRow;
use crate::sync::epoch::{self, Guard};
use crate::table::{IndexSpec, MemTable, Ttl};

/// Which storage engine backs a table (Section 8.1 placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    Disk,
}

/// The visitor of [`DataTable::scan_rows`]: `(key, ts, encoded row)`.
pub type RowVisitor<'a> = dyn FnMut(&[KeyValue], i64, &[u8]) -> Result<()> + 'a;

/// The storage interface both execution engines read through — implemented
/// by the in-memory [`MemTable`] and the disk-backed [`DiskTable`], so a
/// deployment works unchanged whichever engine a table was assigned to
/// (Section 8.1's estimation-guided placement).
pub trait DataTable: Send + Sync {
    fn name(&self) -> &str;
    fn backend(&self) -> Backend;
    /// Memory isolation limit (Section 8.2); a no-op for disk tables whose
    /// working set is bounded by the shared memtable.
    fn set_max_memory_bytes(&self, limit: usize);
    fn schema(&self) -> &Schema;
    fn replicator(&self) -> &Arc<Replicator>;
    fn index_specs(&self) -> Vec<IndexSpec>;
    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize>;
    fn put(&self, row: &Row) -> Result<u64>;
    fn latest(&self, index_id: usize, key: &[KeyValue]) -> Result<Option<Row>>;
    /// [`DataTable::latest`] without the decode: hand the newest entry's
    /// encoded bytes for `key` to `visitor` and report whether there was
    /// one. The LAST JOIN head read of the streaming request path.
    fn latest_visit(
        &self,
        index_id: usize,
        key: &[KeyValue],
        visitor: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<bool>;
    fn latest_where(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: Option<i64>,
        pred: &mut dyn FnMut(&Row) -> bool,
    ) -> Result<Option<Row>>;
    fn range_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>>;
    fn latest_n_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: i64,
        limit: usize,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>>;
    /// Seek-then-iterate window scan: stream encoded entries with
    /// `lower_ts <= ts <= upper_ts` to `visitor` newest first, stopping
    /// after `limit` entries (when given) or when the visitor returns
    /// `false`. The zero-materialization path under the streaming
    /// scan→aggregate pipeline; chaos/obs hooks fire as on the
    /// materializing scans.
    fn scan_window(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, &[u8]) -> bool,
    ) -> Result<()>;
    /// [`DataTable::scan_window`] under the caller's epoch pin `guard`. A
    /// backend that holds its rows in memory lends them for the pin
    /// ([`ScanRow::Pinned`]: borrows of the stored bytes, valid while the
    /// table and the pin are), so the caller folds them in place after the
    /// scan. The default — a backend with no in-memory row to lend, like
    /// [`DiskTable`]'s block reads — lends each row for its visit only
    /// ([`ScanRow::Transient`]); the caller copies what it keeps.
    #[allow(clippy::too_many_arguments)]
    fn scan_window_pinned<'g>(
        &'g self,
        guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<()> {
        let _ = guard;
        self.scan_window(index_id, key, lower_ts, upper_ts, limit, &mut |ts, data| {
            visitor(ts, ScanRow::Transient(data))
        })
    }
    /// Every stored row of index `index_id`: per key, newest first, as
    /// `(key, ts, encoded bytes)` — in the order [`DataTable::scan_window`]
    /// yields that key's rows. The offline snapshot reads tables through
    /// this; the first error stops the walk and is returned.
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()>;
    /// [`DataTable::scan_rows`], decoded.
    fn scan_all(&self, index_id: usize) -> Result<Vec<Row>> {
        let codec = CompactCodec::new(self.schema().clone());
        let mut rows = Vec::with_capacity(self.row_count());
        self.scan_rows(index_id, &mut |_, _, data| {
            rows.push(codec.decode(data)?);
            Ok(())
        })?;
        Ok(rows)
    }
    fn gc(&self, now_ms: i64) -> usize;
    fn mem_used(&self) -> usize;
    fn row_count(&self) -> usize;
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
    fn latest(&self, index_id: usize, key: &[KeyValue]) -> Result<Option<Row>> {
        MemTable::latest(self, index_id, key)
    }
    fn latest_visit(
        &self,
        index_id: usize,
        key: &[KeyValue],
        visitor: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<bool> {
        MemTable::latest_visit(self, index_id, key, visitor)
    }
    fn latest_where(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: Option<i64>,
        pred: &mut dyn FnMut(&Row) -> bool,
    ) -> Result<Option<Row>> {
        MemTable::latest_where(self, index_id, key, upper_ts, pred)
    }
    fn range_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        MemTable::range_projected(self, index_id, key, lower_ts, upper_ts, wanted)
    }
    fn latest_n_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: i64,
        limit: usize,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        MemTable::latest_n_projected(self, index_id, key, upper_ts, limit, wanted)
    }
    fn scan_window(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, &[u8]) -> bool,
    ) -> Result<()> {
        let (lower, upper, pin) = (lower_ts, upper_ts, epoch::pin());
        MemTable::scan_window(self, &pin, index_id, key, lower, upper, limit, visitor)
    }
    fn scan_window_pinned<'g>(
        &'g self,
        guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<()> {
        let (lower, upper) = (lower_ts, upper_ts);
        let visit = |ts, data| visitor(ts, ScanRow::Pinned(data));
        MemTable::scan_window(self, guard, index_id, key, lower, upper, limit, visit)
    }
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()> {
        MemTable::scan_rows(self, index_id, visitor)
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

/// A disk-engine-backed table with the MemTable access surface.
pub struct DiskTable {
    name: Arc<str>,
    schema: Schema,
    codec: CompactCodec,
    specs: Vec<IndexSpec>,
    engine: DiskEngine,
    replicator: Arc<Replicator>,
    rows: AtomicUsize,
    watermark_ms: AtomicI64,
}

impl DiskTable {
    /// Default memtable flush threshold (entries across all CFs).
    pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

    pub fn new(name: impl Into<Arc<str>>, schema: Schema, indexes: Vec<IndexSpec>) -> Result<Self> {
        IndexSpec::check_all(&indexes, &schema)?;
        let cfs = indexes
            .iter()
            .map(|spec| ColumnFamilySpec {
                name: spec.name.clone(),
                eviction_ttl_ms: match spec.ttl {
                    Ttl::AbsoluteMs(ms) => Some(ms),
                    Ttl::AbsOrLat { ms, .. } | Ttl::AbsAndLat { ms, .. } => Some(ms),
                    _ => None,
                },
            })
            .collect();
        Ok(DiskTable {
            name: name.into(),
            codec: CompactCodec::new(schema.clone()),
            schema,
            specs: indexes,
            engine: DiskEngine::new(cfs, Self::DEFAULT_FLUSH_THRESHOLD)?,
            replicator: Arc::new(Replicator::new()),
            rows: AtomicUsize::new(0),
            watermark_ms: AtomicI64::new(0),
        })
    }

    fn key_ts(&self, spec: &IndexSpec, row: &Row) -> (Vec<KeyValue>, i64) {
        let key = row.key_for(&spec.key_cols);
        let ts = match spec.ts_col {
            Some(c) => row.ts_at(c),
            // analysis:allow(relaxed-ordering): monotone watermark; no
            // other memory is published through it.
            None => self.watermark_ms.load(Ordering::Relaxed),
        };
        (key, ts)
    }
}

impl DataTable for DiskTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn backend(&self) -> Backend {
        Backend::Disk
    }

    fn set_max_memory_bytes(&self, _limit: usize) {
        // Disk tables keep only the bounded shared memtable in RAM.
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn replicator(&self) -> &Arc<Replicator> {
        &self.replicator
    }

    fn index_specs(&self) -> Vec<IndexSpec> {
        self.specs.clone()
    }

    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize> {
        self.specs
            .iter()
            .position(|i| i.key_cols == key_cols && (ts_col.is_none() || i.ts_col == ts_col))
            .or_else(|| self.specs.iter().position(|i| i.key_cols == key_cols))
    }

    fn put(&self, row: &Row) -> Result<u64> {
        self.schema.validate_row(row.values())?;
        let encoded: Arc<[u8]> = Arc::from(self.codec.encode(row)?.into_boxed_slice());
        let mut primary: Option<(Vec<KeyValue>, i64)> = None;
        for (cf, spec) in self.specs.iter().enumerate() {
            let (key, ts) = self.key_ts(spec, row);
            // analysis:allow(relaxed-ordering): monotone watermark.
            self.watermark_ms.fetch_max(ts, Ordering::Relaxed);
            if primary.is_none() {
                primary = Some((key.clone(), ts));
            }
            self.engine.put(cf as u32, &key, ts, encoded.clone())?;
        }
        // analysis:allow(relaxed-ordering): statistics counter.
        self.rows.fetch_add(1, Ordering::Relaxed);
        // analysis:allow(panic-path): DiskTable::new rejects empty index
        // lists, and the loop above visits every index.
        let (key, ts) = primary.expect("at least one index");
        Ok(self.replicator.append_entry(
            self.name.clone(),
            Arc::from(key.into_boxed_slice()),
            ts,
            encoded,
        ))
    }

    fn latest(&self, index_id: usize, key: &[KeyValue]) -> Result<Option<Row>> {
        let mut row = None;
        self.latest_visit(index_id, key, &mut |data| {
            row = Some(self.codec.decode(data)?);
            Ok(())
        })?;
        Ok(row)
    }

    fn latest_visit(
        &self,
        index_id: usize,
        key: &[KeyValue],
        visitor: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<bool> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        match self.engine.latest(index_id as u32, key)? {
            Some((_, data)) => visitor(&data).map(|()| true),
            None => Ok(false),
        }
    }

    fn latest_where(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: Option<i64>,
        pred: &mut dyn FnMut(&Row) -> bool,
    ) -> Result<Option<Row>> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        let upper = upper_ts.unwrap_or(i64::MAX);
        for (_ts, data) in self.engine.range(index_id as u32, key, i64::MIN, upper)? {
            let row = self.codec.decode(&data)?;
            if pred(&row) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn range_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        let hits = self
            .engine
            .range(index_id as u32, key, lower_ts, upper_ts)?;
        crate::metrics::note_scan(index_id, hits.len() as u64);
        hits.into_iter()
            .map(|(ts, data)| Ok((ts, self.codec.decode_projected(&data, wanted)?)))
            .collect()
    }

    fn latest_n_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: i64,
        limit: usize,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        let mut hits = self
            .engine
            .range(index_id as u32, key, i64::MIN, upper_ts)?;
        hits.truncate(limit);
        crate::metrics::note_scan(index_id, hits.len() as u64);
        hits.into_iter()
            .map(|(ts, data)| Ok((ts, self.codec.decode_projected(&data, wanted)?)))
            .collect()
    }

    fn scan_window(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, &[u8]) -> bool,
    ) -> Result<()> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        let mut hits = self
            .engine
            .range(index_id as u32, key, lower_ts, upper_ts)?;
        if let Some(l) = limit {
            hits.truncate(l);
        }
        let mut visited = 0u64;
        for (ts, data) in hits {
            visited += 1;
            if !visitor(ts, &data) {
                break;
            }
        }
        crate::metrics::note_scan(index_id, visited);
        Ok(())
    }

    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()> {
        // The key set comes from the binlog (the engine's iteration is
        // key-ordered per CF; replay gives the keys cheaply), in first-write
        // order.
        let spec = self
            .specs
            .get(index_id)
            .ok_or_else(|| Error::Storage(format!("index {index_id} does not exist")))?;
        let mut keys: Vec<Vec<KeyValue>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        self.replicator.replay(0, |entry| {
            if let Ok(row) = self.codec.decode(&entry.data) {
                let key = row.key_for(&spec.key_cols);
                if seen.insert(key.clone()) {
                    keys.push(key);
                }
            }
        });
        for key in keys {
            for (ts, data) in self
                .engine
                .range(index_id as u32, &key, i64::MIN, i64::MAX)?
            {
                visitor(&key, ts, &data)?;
            }
        }
        Ok(())
    }

    fn gc(&self, now_ms: i64) -> usize {
        self.engine.evict(now_ms)
    }

    fn mem_used(&self) -> usize {
        // Only the shared memtable is RAM; flushed runs count as disk.
        self.engine.entry_count().min(Self::DEFAULT_FLUSH_THRESHOLD) * 64
    }

    fn row_count(&self) -> usize {
        // analysis:allow(relaxed-ordering): statistics read.
        self.rows.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn table() -> DiskTable {
        DiskTable::new(
            "d",
            schema(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::AbsoluteMs(1_000_000),
            }],
        )
        .unwrap()
    }

    fn row(k: i64, v: f64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(k),
            Value::Double(v),
            Value::Timestamp(ts),
        ])
    }

    #[test]
    fn same_access_surface_as_memtable() {
        let disk = table();
        let mem = MemTable::new(
            "m",
            schema(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap();
        for i in 0..200 {
            let r = row(i % 5, i as f64, i * 10);
            DataTable::put(&disk, &r).unwrap();
            DataTable::put(&mem, &r).unwrap();
        }
        let key = [KeyValue::Int(2)];
        let a = DataTable::range_projected(&disk, 0, &key, 300, 900, None).unwrap();
        let b = DataTable::range_projected(&mem, 0, &key, 300, 900, None).unwrap();
        assert_eq!(a, b, "disk and memory backends agree");
        assert_eq!(
            DataTable::latest(&disk, 0, &key).unwrap(),
            DataTable::latest(&mem, 0, &key).unwrap()
        );
        let an = DataTable::latest_n_projected(&disk, 0, &key, 1_200, 3, None).unwrap();
        let bn = DataTable::latest_n_projected(&mem, 0, &key, 1_200, 3, None).unwrap();
        assert_eq!(an, bn);
    }

    #[test]
    fn latest_where_scans_newest_first() {
        let t = table();
        for i in 0..10 {
            DataTable::put(&t, &row(1, i as f64, i * 10)).unwrap();
        }
        let mut pred = |r: &Row| r[1].as_f64().unwrap() < 4.0;
        let hit = DataTable::latest_where(&t, 0, &[KeyValue::Int(1)], None, &mut pred)
            .unwrap()
            .unwrap();
        assert_eq!(hit[1], Value::Double(3.0));
    }

    #[test]
    fn scan_all_covers_flushed_and_memtable_data() {
        let t = table();
        for i in 0..500 {
            DataTable::put(&t, &row(i % 3, i as f64, i)).unwrap();
        }
        let rows = DataTable::scan_all(&t, 0).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(DataTable::row_count(&t), 500);
    }

    #[test]
    fn gc_evicts_by_cf_ttl() {
        let t = DiskTable::new(
            "d",
            schema(),
            vec![IndexSpec {
                name: "i".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::AbsoluteMs(100),
            }],
        )
        .unwrap();
        for i in 0..10 {
            DataTable::put(&t, &row(1, 0.0, i * 50)).unwrap();
        }
        let dropped = DataTable::gc(&t, 1_000);
        assert!(dropped > 0);
        let left = DataTable::range_projected(&t, 0, &[KeyValue::Int(1)], 0, 10_000, None).unwrap();
        assert!(left.iter().all(|(ts, _)| *ts >= 900));
    }
}
