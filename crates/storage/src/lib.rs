//! # openmldb-storage
//!
//! Compact time-series data management (paper Section 7) plus the binlog
//! substrate of Section 5.1:
//!
//! * [`skiplist`] — the refined two-level skiplist: lock-free CAS writes,
//!   per-key newest-first time lists, suffix-truncation TTL removal;
//! * [`table`] — multi-index in-memory tables with the paper's TTL table
//!   types and memory isolation (writes fail, reads continue);
//! * [`binlog`] — monotone-offset replicator with asynchronous update
//!   closures (the pre-aggregation update channel);
//! * [`disk`] — the RocksDB-substitute on-disk engine: column families over
//!   a shared skiplist memtable with composite `(key, ts)` keys;
//! * [`wal`] — checksummed segmented write-ahead log with group commit and
//!   torn-tail detection (the durable form of the binlog);
//! * [`snapshot`] — atomically-published per-table snapshots of the compact
//!   row encoding plus the binlog offset they cover;
//! * [`hll`] — HyperLogLog used by the offline skew resolver.

pub mod binlog;
pub mod disk;
pub mod disk_table;
pub mod hll;
pub mod metrics;
pub mod replica;
pub mod skiplist;
pub mod snapshot;
pub mod sync;
pub mod table;
pub mod wal;

pub use binlog::{LogEntry, Replicator, UpdateClosure};
pub use snapshot::Snapshot;
pub use wal::{Wal, WalOptions, WalScan};

/// Chaos hook for storage paths: fire the injector at `point` and, when it
/// returns a fault, count it in obs before surfacing. An inlined `Ok(())`
/// without the `chaos` feature.
#[inline]
pub(crate) fn chaos_inject(point: openmldb_chaos::InjectionPoint) -> openmldb_types::Result<()> {
    openmldb_chaos::inject(point).inspect_err(|_| {
        crate::metrics::faults_injected().inc();
    })
}
pub use disk::{ColumnFamilySpec, CompositeKey, DiskEngine, FlushTrigger};
pub use disk_table::{Backend, DataTable, DiskTable};
pub use hll::HyperLogLog;
pub use replica::{replicate, ReplicaTable};
pub use skiplist::{SkipMap, TimeList};
pub use table::{IndexSpec, MemTable, Ttl, KEY_OVERHEAD, NODE_OVERHEAD, ROW_OVERHEAD};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// TimeList holds exactly the non-truncated set, newest first, no
        /// matter the insertion order.
        #[test]
        fn timelist_matches_sorted_model(
            entries in proptest::collection::vec((0i64..1_000, 0u8..255), 1..200),
            cutoff in 0i64..1_000,
        ) {
            let list = TimeList::new();
            for (ts, v) in &entries {
                list.insert(*ts, Arc::from(vec![*v].into_boxed_slice()));
            }
            list.truncate(Some(cutoff), None, false);
            let mut expected: Vec<i64> =
                entries.iter().map(|(ts, _)| *ts).filter(|ts| *ts >= cutoff).collect();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            let mut actual = Vec::new();
            list.scan(|ts, _| { actual.push(ts); true });
            prop_assert_eq!(actual, expected);
        }

        /// SkipMap behaves like a BTreeMap under first-writer-wins inserts.
        #[test]
        fn skipmap_matches_btreemap(
            ops in proptest::collection::vec((0i64..100, 0i64..1_000), 1..300),
        ) {
            let map: SkipMap<i64, i64> = SkipMap::new();
            let mut model = std::collections::BTreeMap::new();
            for (k, v) in &ops {
                map.get_or_insert_with(*k, || *v);
                model.entry(*k).or_insert(*v);
            }
            prop_assert_eq!(map.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(map.get(k), Some(v));
            }
            prop_assert_eq!(map.keys(), model.keys().copied().collect::<Vec<_>>());
        }

        /// Seeked range equals the filtered scan on any stream (the skip
        /// levels change the path, never the answer).
        #[test]
        fn timelist_range_matches_filtered_scan(
            entries in proptest::collection::vec((0i64..2_000, 0u8..255), 1..300),
            bounds in (0i64..2_000, 0i64..2_000),
        ) {
            let (a, b) = bounds;
            let (lower, upper) = (a.min(b), a.max(b));
            let list = TimeList::new();
            for (ts, v) in &entries {
                list.insert(*ts, Arc::from(vec![*v].into_boxed_slice()));
            }
            let seeked: Vec<i64> = list.range(lower, upper).iter().map(|(t, _)| *t).collect();
            let mut scanned = Vec::new();
            list.scan(|ts, _| {
                if (lower..=upper).contains(&ts) {
                    scanned.push(ts);
                }
                true
            });
            prop_assert_eq!(seeked, scanned);
        }

        /// The streaming visitor sees exactly what the materializing range
        /// returns — same entries, same order, same payload bytes.
        #[test]
        fn timelist_range_visit_matches_range(
            entries in proptest::collection::vec((0i64..2_000, 0u8..255), 1..300),
            bounds in (0i64..2_000, 0i64..2_000),
        ) {
            let (a, b) = bounds;
            let (lower, upper) = (a.min(b), a.max(b));
            let list = TimeList::new();
            for (ts, v) in &entries {
                list.insert(*ts, Arc::from(vec![*v].into_boxed_slice()));
            }
            let materialized: Vec<(i64, u8)> =
                list.range(lower, upper).iter().map(|(t, d)| (*t, d[0])).collect();
            let mut streamed = Vec::new();
            list.range_visit(lower, upper, |ts, data| {
                streamed.push((ts, data[0]));
                true
            });
            prop_assert_eq!(streamed, materialized);
        }

        /// get_by with a borrowed slice key agrees with get on owned keys.
        #[test]
        fn skipmap_get_by_matches_get(
            ops in proptest::collection::vec((0i64..50, 0i64..1_000), 1..100),
            probe in 0i64..60,
        ) {
            let map: SkipMap<Vec<i64>, i64> = SkipMap::new();
            for (k, v) in &ops {
                map.get_or_insert_with(vec![*k], || *v);
            }
            let owned = map.get(&vec![probe]).copied();
            let borrowed = map.get_by::<[i64]>(&[probe]).copied();
            prop_assert_eq!(owned, borrowed);
        }

        /// range_for_each visits exactly the suffix starting at `from`.
        #[test]
        fn skipmap_range_matches_model(
            keys in proptest::collection::btree_set(0i64..200, 1..60),
            from in 0i64..200,
        ) {
            let map: SkipMap<i64, ()> = SkipMap::new();
            for k in &keys {
                map.get_or_insert_with(*k, || ());
            }
            let mut got = Vec::new();
            map.range_for_each(&from, |k, _| { got.push(*k); true });
            let expected: Vec<i64> = keys.iter().copied().filter(|k| *k >= from).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
