//! Global observability handles for the storage engine.
//!
//! Accessors lazily register in the process-wide
//! [`Registry`](openmldb_obs::Registry) and cache the handle in a
//! `OnceLock`, so the hot read/GC paths only pay one sharded relaxed
//! atomic per event.

use openmldb_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, OnceLock};

fn counter(cell: &'static OnceLock<Arc<Counter>>, name: &str, help: &str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name, help))
}

fn gauge(cell: &'static OnceLock<Arc<Gauge>>, name: &str, help: &str) -> &'static Gauge {
    cell.get_or_init(|| Registry::global().gauge(name, help))
}

/// Point lookups / range probes against a skiplist index (one per key seek).
pub fn seeks() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_seeks_total",
        "Skiplist key seeks (latest / range / latest_n probes)",
    )
}

/// Record one seek on index `index_id`: the global seek counter plus, when
/// a request is being served on this thread, one count-only event in its
/// record (the per-request seek count the online engine folds per
/// deployment).
#[inline]
pub fn note_seek(index_id: usize) {
    seeks().inc();
    openmldb_obs::flight::event(
        openmldb_obs::FlightEventKind::StorageSeek,
        index_id as u32,
        0,
    );
}

/// Record one completed scan of `rows` rows on index `index_id`: the global
/// scan-length histogram plus one count-only event in the active request's
/// record (its rows-scanned attribution).
#[inline]
pub fn note_scan(index_id: usize, rows: u64) {
    scan_len().record(rows);
    openmldb_obs::flight::event(
        openmldb_obs::FlightEventKind::ScanRows,
        index_id as u32,
        rows,
    );
}

/// Distribution of rows touched per window scan.
pub fn scan_len() -> &'static Histogram {
    static M: OnceLock<Arc<Histogram>> = OnceLock::new();
    M.get_or_init(|| {
        Registry::global().histogram(
            "openmldb_storage_scan_len_rows",
            "Rows returned per skiplist range/latest_n scan",
        )
    })
}

/// Entries removed by TTL garbage collection.
pub fn ttl_evictions() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_ttl_evictions_total",
        "Entries removed by TTL garbage collection",
    )
}

/// Deferred skiplist nodes actually freed by epoch reclamation.
pub fn epoch_reclaimed() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_epoch_reclaimed_total",
        "Deferred allocations freed by epoch-based reclamation",
    )
}

/// Faults the chaos layer actually fired inside storage (errors + kills).
/// Zero unless the `chaos` feature is compiled in and a plan is armed.
pub fn faults_injected() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_faults_injected_total",
        "Transient faults and delivery kills injected by openmldb-chaos",
    )
}

/// Binlog entries appended after shutdown: durable but acknowledged to no
/// subscriber until an explicit flush/replay.
pub fn binlog_undelivered() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_binlog_undelivered_total",
        "Appends accepted after replicator shutdown (durable, unacknowledged)",
    )
}

/// Replica apply failures (decode or put), after bounded retries.
pub fn replica_apply_errors() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_replica_apply_errors_total",
        "Replica catch-up entries whose decode/apply failed after retries",
    )
}

/// Rows the leader accepted that the replica has not applied, sampled at
/// each `ReplicaTable::sync`.
pub fn replica_lag() -> &'static Gauge {
    static M: OnceLock<Arc<Gauge>> = OnceLock::new();
    gauge(
        &M,
        "openmldb_storage_replica_lag_rows",
        "Leader rows not yet applied by the replica (sampled at sync)",
    )
}

/// Records appended to the durable write-ahead log.
pub fn wal_appends() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_wal_appends_total",
        "Records appended to the durable write-ahead log",
    )
}

/// Bytes (framed records) appended to the WAL.
pub fn wal_bytes() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_wal_bytes_total",
        "Framed record bytes appended to the write-ahead log",
    )
}

/// Group-commit fsyncs that actually reached the disk.
pub fn wal_fsyncs() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_wal_fsyncs_total",
        "Group-commit fsyncs completed by the write-ahead log",
    )
}

/// Torn or corrupt WAL tails detected (and dropped) on open.
pub fn wal_torn_tails() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_wal_torn_tails_total",
        "Torn/corrupt WAL tails detected and truncated on open",
    )
}

/// Table snapshots successfully written and renamed into place.
pub fn snapshots_written() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_snapshots_total",
        "Table snapshots atomically published (tmp write + rename)",
    )
}

/// Bytes written into published snapshot files.
pub fn snapshot_bytes() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_snapshot_bytes_total",
        "Bytes written into published table snapshots",
    )
}

/// Snapshot files rejected during recovery (bad CRC, short read, torn).
pub fn snapshots_invalid() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_storage_snapshots_invalid_total",
        "Snapshot files rejected by validation during recovery",
    )
}
