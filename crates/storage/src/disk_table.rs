//! The storage access surface and the disk-backed table (paper Sections
//! 7.3 and 8.1).
//!
//! [`DataTable`] is what both execution engines read through: a backend
//! implements one row walk, and every keyed read is written once above it.
//! When a table's estimated memory exceeds what is available — or a
//! 20–30 ms latency budget makes the ~80% hardware saving attractive — the
//! table is assigned to the disk engine instead of the in-memory skiplist.
//! [`DiskTable`] offers the same access paths as [`MemTable`](crate::MemTable)
//! on top of [`DiskEngine`]: one column family per index, a shared skiplist
//! memtable, composite `key+ts` ordering, and time-based eviction.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, RowCodec, Schema};

use crate::binlog::Replicator;
use crate::disk::{ColumnFamilySpec, DiskEngine};
use crate::scan::ScanRow;
use crate::sync::epoch::{self, Guard};
use crate::table::{IndexSpec, Ttl};

/// Which storage engine backs a table (Section 8.1 placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    Disk,
}

/// The visitor of [`DataTable::scan_rows`]: `(key, ts, encoded row)`.
pub type RowVisitor<'a> = dyn FnMut(&[KeyValue], i64, &[u8]) -> Result<()> + 'a;

/// The storage interface both execution engines read through — implemented
/// by the in-memory [`MemTable`](crate::MemTable) and the disk-backed [`DiskTable`], so a
/// deployment works unchanged whichever engine a table was assigned to
/// (Section 8.1's estimation-guided placement).
///
/// A backend implements one row walk ([`DataTable::walk_rows`]), its full
/// scan ([`DataTable::scan_rows`]) and [`DataTable::codec`]; every keyed
/// read is written once over the walk, so both backends answer each of
/// them alike — equal timestamps included, newest insert first — and
/// record the same events: a head read (`latest*`) one seek, a ranged read
/// one seek and one scan of the rows it visited.
pub trait DataTable: Send + Sync {
    fn name(&self) -> &str;
    fn backend(&self) -> Backend;
    /// Memory isolation limit (Section 8.2); a no-op for disk tables whose
    /// working set is bounded by the shared memtable.
    fn set_max_memory_bytes(&self, limit: usize);
    fn schema(&self) -> &Schema;
    /// The codec the stored rows are encoded with.
    fn codec(&self) -> &CompactCodec;
    fn replicator(&self) -> &Arc<Replicator>;
    fn index_specs(&self) -> Vec<IndexSpec>;
    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize>;
    fn put(&self, row: &Row) -> Result<u64>;
    /// The row walk: seek `key` on index `index_id` — the backend's chaos
    /// hook and one seek event — then visit its rows with
    /// `lower_ts <= ts <= upper_ts` newest first (equal timestamps: newest
    /// insert first), at most `limit` of them, while `visitor` returns
    /// `true`. Returns the rows visited, the one `visitor` stopped on
    /// included; records no scan. A backend that holds its rows in memory
    /// lends them for the caller's pin `guard` ([`ScanRow::Pinned`]); one
    /// that reads them for the visit ([`DiskTable`]'s block reads) lends
    /// [`ScanRow::Transient`].
    #[allow(clippy::too_many_arguments)]
    fn walk_rows<'g>(
        &'g self,
        guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<u64>;
    /// Every stored row of index `index_id`: per key, newest first, as
    /// `(key, ts, encoded bytes)` — in the order [`DataTable::walk_rows`]
    /// visits that key's rows. The offline snapshot reads tables through
    /// this; the first error stops the walk and is returned.
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()>;
    fn gc(&self, now_ms: i64) -> usize;
    fn mem_used(&self) -> usize;
    fn row_count(&self) -> usize;

    /// The newest row for `key`, decoded.
    fn latest(&self, index_id: usize, key: &[KeyValue]) -> Result<Option<Row>> {
        let mut row = None;
        self.latest_visit(index_id, key, &mut |data| {
            row = Some(self.codec().decode(data)?);
            Ok(true)
        })?;
        Ok(row)
    }
    /// The head read without the decode: hand `key`'s encoded rows to
    /// `visitor`, newest first, until it accepts one (`Ok(true)`) or has
    /// passed them all (`Ok(false)` each); report whether it accepted one.
    /// Its error stops the read and is returned. The LAST JOIN of both
    /// request paths: the newest candidate its residual accepts.
    fn latest_visit(
        &self,
        index_id: usize,
        key: &[KeyValue],
        visitor: &mut dyn FnMut(&[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let mut visited = Ok(false);
        let mut head = |_, row: ScanRow<'_, '_>| {
            visited = visitor(row.bytes());
            matches!(visited, Ok(false))
        };
        let pin = epoch::pin();
        self.walk_rows(&pin, index_id, key, i64::MIN, i64::MAX, None, &mut head)?;
        visited
    }
    /// Rows for `key` with `lower_ts <= ts <= upper_ts`, newest first,
    /// decoding only the columns marked in `wanted` (all when `None`) —
    /// the Section 7.1 offset fast path.
    fn range_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        decode_window(self, index_id, key, (lower_ts, upper_ts), None, wanted)
    }
    /// The newest `limit` rows for `key` with ts ≤ `upper_ts`, newest first,
    /// projected as [`DataTable::range_projected`].
    fn latest_n_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: i64,
        limit: usize,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        let bounds = (i64::MIN, upper_ts);
        decode_window(self, index_id, key, bounds, Some(limit), wanted)
    }
    /// [`DataTable::scan_window_pinned`] under a pin of its own, each row's
    /// bytes lent for its visit.
    fn scan_window(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, &[u8]) -> bool,
    ) -> Result<()> {
        let mut visit = |ts, row: ScanRow<'_, '_>| visitor(ts, row.bytes());
        let pin = epoch::pin();
        self.scan_window_pinned(&pin, index_id, key, lower_ts, upper_ts, limit, &mut visit)
    }
    /// Seek-then-iterate window scan under the caller's epoch pin `guard`:
    /// [`DataTable::walk_rows`] plus one scan event of the rows it visited.
    /// The zero-materialization path under the streaming scan→aggregate
    /// pipeline — pinned rows are folded in place after the scan.
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
        let visited = self.walk_rows(guard, index_id, key, lower_ts, upper_ts, limit, visitor)?;
        crate::metrics::note_scan(index_id, visited);
        Ok(())
    }
    /// [`DataTable::scan_rows`], decoded.
    fn scan_all(&self, index_id: usize) -> Result<Vec<Row>> {
        let mut rows = Vec::with_capacity(self.row_count());
        self.scan_rows(index_id, &mut |_, _, data| {
            rows.push(self.codec().decode(data)?);
            Ok(())
        })?;
        Ok(rows)
    }
}

/// The ranged reads' body: the rows of one window scan over `table`,
/// `(lower_ts, upper_ts)`, decoded; the first decode error stops the scan.
fn decode_window<T: DataTable + ?Sized>(
    table: &T,
    index_id: usize,
    key: &[KeyValue],
    (lower_ts, upper_ts): (i64, i64),
    limit: Option<usize>,
    wanted: Option<&[bool]>,
) -> Result<Vec<(i64, Row)>> {
    let (mut rows, mut failed) = (Vec::new(), Ok(()));
    let mut decode = |ts, row: ScanRow<'_, '_>| {
        match table.codec().decode_projected(row.bytes(), wanted) {
            Ok(row) => rows.push((ts, row)),
            Err(e) => failed = Err(e),
        }
        failed.is_ok()
    };
    let pin = epoch::pin();
    table.scan_window_pinned(&pin, index_id, key, lower_ts, upper_ts, limit, &mut decode)?;
    failed.map(|()| rows)
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

    fn codec(&self) -> &CompactCodec {
        &self.codec
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
        #[expect(
            clippy::expect_used,
            reason = "DiskTable::new rejects empty index lists, and the loop above visits every index"
        )]
        let (key, ts) = primary.expect("at least one index");
        Ok(self.replicator.append_entry(
            self.name.clone(),
            Arc::from(key.into_boxed_slice()),
            ts,
            encoded,
        ))
    }

    /// The engine walk: the key's merged entries from the memtable and
    /// every run, each lent for its visit.
    fn walk_rows<'g>(
        &'g self,
        _guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<u64> {
        crate::chaos_inject(openmldb_chaos::InjectionPoint::DiskRead)?;
        crate::metrics::note_seek(index_id);
        let hits = self
            .engine
            .range(index_id as u32, key, lower_ts, upper_ts)?;
        let mut visited = 0u64;
        for (ts, data) in hits.iter().take(limit.unwrap_or(usize::MAX)) {
            visited += 1;
            if !visitor(*ts, ScanRow::Transient(data)) {
                break;
            }
        }
        Ok(visited)
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
    use crate::table::MemTable;
    use openmldb_obs::{FlightEventKind, FlightScope, Outcome, Recorder};
    use openmldb_types::{DataType, Value};
    use proptest::prelude::*;

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

    /// `(kind, index, payload)` of the seek/scan events `read` records,
    /// read off its own request record.
    type Events = Vec<(FlightEventKind, u32, u64)>;

    fn recorded<T>(read: impl FnOnce() -> T) -> (T, Events) {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec);
        let out = read();
        let summary = scope.finish();
        let pm = rec.post_mortem(Outcome::Slow, &summary);
        let events = pm.map(|pm| pm.events.iter().map(|e| (e.kind, e.a, e.b)).collect());
        (out, events.unwrap_or_default())
    }

    /// One read on both backends: equal answers (`==`, errors included),
    /// equal events, and the events its shape promises — a seek,
    /// then for a ranged read one scan of `scanned(answer)` rows.
    fn same_on_both<T: PartialEq + std::fmt::Debug>(
        tables: &[&dyn DataTable; 2],
        read: impl Fn(&dyn DataTable) -> T,
        scanned: Option<&dyn Fn(&T) -> u64>,
    ) {
        let (mem, mem_events) = recorded(|| read(tables[0]));
        let (disk, disk_events) = recorded(|| read(tables[1]));
        assert_eq!(mem, disk, "memory vs disk answer");
        assert_eq!(mem_events, disk_events, "memory vs disk events for {mem:?}");
        if cfg!(not(feature = "obs-off")) {
            let mut shape = vec![(FlightEventKind::StorageSeek, 0, 0)];
            shape.extend(scanned.map(|n| (FlightEventKind::ScanRows, 0, n(&mem))));
            assert_eq!(mem_events, shape, "events of {mem:?}");
        }
    }

    /// Encoded rows a scan handed over, as `(ts, v)`.
    fn ts_v(codec: &CompactCodec, ts: i64, data: &[u8]) -> (i64, Value) {
        (ts, codec.decode(data).unwrap()[1].clone())
    }

    fn bound() -> impl Strategy<Value = i64> {
        prop_oneof![Just(i64::MIN), Just(i64::MAX), -1i64..7]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// Both backends answer every keyed read alike on tie-heavy data,
        /// with rows in the disk engine's memtable, in its sorted runs, or
        /// both: the same rows in the same order (equal timestamps newest
        /// insert first), the same errors, the same seek/scan events.
        #[test]
        fn backends_answer_every_read_alike(
            rows in proptest::collection::vec((0i64..3, 0i64..6), 0..32),
            flushed in 0usize..32,
            bounds in proptest::collection::vec((bound(), bound()), 1..4),
            residue in 0i64..3,
        ) {
            let unlimited = vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }];
            let mem = MemTable::new("m", schema(), unlimited.clone()).unwrap();
            let disk = DiskTable::new("d", schema(), unlimited).unwrap();
            for (i, &(k, ts)) in rows.iter().enumerate() {
                let r = row(k, i as f64, ts);
                DataTable::put(&mem, &r).unwrap();
                DataTable::put(&disk, &r).unwrap();
                if i + 1 == flushed {
                    // Moves the rows so far into a sorted run, drops none.
                    prop_assert_eq!(DataTable::gc(&disk, i64::MAX), 0);
                }
            }
            let tables: [&dyn DataTable; 2] = [&mem, &disk];
            let codec = CompactCodec::new(schema());
            let n = rows.len();
            let v_only = [false, true, false];
            let len = |r: &Result<Vec<(i64, Row)>>| r.as_ref().map_or(0, |v| v.len() as u64);
            let visited = |r: &(Result<()>, Vec<(i64, Value)>)| r.1.len() as u64;
            for k in 0..4 {
                let key = [KeyValue::Int(k)];
                same_on_both(&tables, |t| t.latest(0, &key), None);
                // The newest row the visitor accepts, and every row it saw.
                same_on_both(&tables, |t| {
                    let mut seen = Vec::new();
                    let hit = t.latest_visit(0, &key, &mut |data| {
                        seen.push(data.to_vec());
                        Ok(codec.decode(data)?[1].as_f64()? as i64 % 3 == residue)
                    });
                    (hit, seen)
                }, None);
                let refuse = |_: &[u8]| Err(Error::Storage("refused".into()));
                same_on_both(&tables, |t| t.latest_visit(0, &key, &mut { refuse }), None);
                for &(lo, hi) in &bounds {
                    for wanted in [None, Some(&v_only[..])] {
                        let range = |t: &dyn DataTable| t.range_projected(0, &key, lo, hi, wanted);
                        same_on_both(&tables, range, Some(&len));
                        for limit in 0..=n + 1 {
                            let read = |t: &dyn DataTable| {
                                t.latest_n_projected(0, &key, hi, limit, wanted)
                            };
                            same_on_both(&tables, read, Some(&len));
                        }
                    }
                    for limit in (0..=n + 1).map(Some).chain([None]) {
                        for stop in 1..=n + 1 {
                            same_on_both(&tables, |t| {
                                let mut seen = Vec::new();
                                let out = t.scan_window(0, &key, lo, hi, limit, &mut |ts, data| {
                                    seen.push(ts_v(&codec, ts, data));
                                    seen.len() < stop
                                });
                                (out, seen)
                            }, Some(&visited));
                            same_on_both(&tables, |t| {
                                let (pin, mut seen) = (epoch::pin(), Vec::new());
                                let mut keep = |ts, row: ScanRow<'_, '_>| {
                                    seen.push(ts_v(&codec, ts, row.bytes()));
                                    seen.len() < stop
                                };
                                let out =
                                    t.scan_window_pinned(&pin, 0, &key, lo, hi, limit, &mut keep);
                                (out, seen)
                            }, Some(&visited));
                        }
                    }
                }
            }
            // The full scans order keys per backend; each key's rows alike.
            let by_key = |t: &dyn DataTable| {
                let mut keys = std::collections::BTreeMap::<String, Vec<(i64, Value)>>::new();
                t.scan_rows(0, &mut |key, ts, data| {
                    keys.entry(format!("{key:?}")).or_default().push(ts_v(&codec, ts, data));
                    Ok(())
                }).unwrap();
                keys
            };
            prop_assert_eq!(by_key(&mem), by_key(&disk));
            let all = |t: &dyn DataTable| {
                let mut rows = t.scan_all(0).unwrap();
                // Stable: keeps each key's rows in scan order.
                rows.sort_by_key(|r| format!("{:?}", r[0]));
                rows
            };
            prop_assert_eq!(all(&mem), all(&disk));
        }
    }

    #[test]
    fn latest_visit_scans_newest_first() {
        let t = table();
        for i in 0..10 {
            DataTable::put(&t, &row(1, i as f64, i * 10)).unwrap();
        }
        let (codec, mut hit) = (DataTable::codec(&t).clone(), None);
        let found = DataTable::latest_visit(&t, 0, &[KeyValue::Int(1)], &mut |data| {
            hit = Some(codec.decode(data)?);
            Ok(hit.as_ref().is_some_and(|r| r[1].as_f64().unwrap() < 4.0))
        });
        assert_eq!(found, Ok(true));
        assert_eq!(hit.unwrap()[1], Value::Double(3.0));
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
