//! Durability and crash recovery for the embedded [`Database`].
//!
//! The paper's tablets persist every write to a binlog and periodically
//! snapshot table state so a restarted node can rebuild itself from
//! `snapshot + binlog suffix` (§5.1). This module is that spine for the
//! embedded engine:
//!
//! * a durable directory holds a `MANIFEST` (schemas, indexes, deployments),
//!   one WAL directory per table (`wal/<table>/seg-*.wal`) mirrored from the
//!   table's replicator, and atomically-published snapshots
//!   (`snap/<table>-<offset>.snap`);
//! * [`Database::recover`] rebuilds a process from that directory: manifest
//!   → empty tables → latest valid snapshot rows → WAL suffix replay →
//!   deployments (pre-aggregates backfill through the ordinary catch-up
//!   subscription) — every put flows through the normal write path, so
//!   skiplists, binlog offsets, replica feeds and pre-aggregate state come
//!   back exactly as the ordinary write path would have built them;
//! * [`Database::table_digest`] folds the canonical WAL encoding of every
//!   binlog entry into an FNV-1a digest — the byte-identity oracle the
//!   crash harness compares across kill/restart cycles.
//!
//! ## Recovery state machine
//!
//! ```text
//! open MANIFEST ──(absent)──▶ fresh empty durable database
//!   │
//!   ▼ per table
//! create empty table (no WAL attached)
//!   ▼
//! latest *valid* snapshot (CRC + commit marker; torn files skipped)
//!   ▼ decode + put rows [0, covered)
//! WAL scan (torn tail truncated) ─ replay entries with offset ≥ covered
//!   ▼
//! attach WAL: re-append any binlog suffix the disk is missing, then
//! mirror all future appends (write-through under the offset lock)
//!   ▼ after all tables
//! re-run stored DEPLOY statements (plan compile, index builds,
//! pre-aggregate backfill via catch-up subscription)
//! ```
//!
//! The WAL is never pruned by this module, so a torn or missing snapshot
//! always degrades to a longer replay, never to data loss: everything a
//! snapshot could hold is still in the log.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use openmldb_obs::Fnv;
use openmldb_online::TableProvider;
use openmldb_storage::{
    snapshot, wal, Backend, DataTable, DiskTable, IndexSpec, LogEntry, MemTable, Ttl, Wal,
    WalOptions,
};
use openmldb_types::{ColumnDef, CompactCodec, DataType, Error, Result, RowCodec, Schema};

use crate::database::Database;

/// Tuning knobs for a durable database directory.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// WAL segment size and group-commit batching.
    pub wal: WalOptions,
    /// Published snapshots retained per table (older ones are pruned after
    /// each successful snapshot; the WAL keeps full history regardless).
    pub snapshot_keep: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            wal: WalOptions::default(),
            snapshot_keep: 2,
        }
    }
}

/// An attached durable directory: layout helpers plus the options it was
/// opened with.
pub struct DurabilityCtx {
    dir: PathBuf,
    opts: DurabilityOptions,
}

impl DurabilityCtx {
    pub(crate) fn wal_dir(&self, table: &str) -> PathBuf {
        self.dir.join("wal").join(table)
    }

    pub(crate) fn snap_dir(&self) -> PathBuf {
        self.dir.join("snap")
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Storage(format!("durability {context} {}: {e}", path.display()))
}

// ------------------------------------------------------------ manifest ---

struct TableManifest {
    name: String,
    backend: Backend,
    cols: Vec<ColumnDef>,
    indexes: Vec<IndexSpec>,
}

struct Manifest {
    tables: Vec<TableManifest>,
    deploys: Vec<(String, String)>,
}

fn ttl_to_str(ttl: &Ttl) -> String {
    match ttl {
        Ttl::Unlimited => "unlimited".into(),
        Ttl::Latest(n) => format!("latest={n}"),
        Ttl::AbsoluteMs(ms) => format!("abs={ms}"),
        Ttl::AbsAndLat { ms, latest } => format!("absandlat={ms},{latest}"),
        Ttl::AbsOrLat { ms, latest } => format!("absorlat={ms},{latest}"),
    }
}

fn ttl_from_str(s: &str) -> Result<Ttl> {
    let bad = || Error::Storage(format!("manifest: malformed ttl `{s}`"));
    if s == "unlimited" {
        return Ok(Ttl::Unlimited);
    }
    let (kind, args) = s.split_once('=').ok_or_else(bad)?;
    match kind {
        "latest" => Ok(Ttl::Latest(args.parse().map_err(|_| bad())?)),
        "abs" => Ok(Ttl::AbsoluteMs(args.parse().map_err(|_| bad())?)),
        "absandlat" | "absorlat" => {
            let (ms, latest) = args.split_once(',').ok_or_else(bad)?;
            let ms = ms.parse().map_err(|_| bad())?;
            let latest = latest.parse().map_err(|_| bad())?;
            Ok(if kind == "absandlat" {
                Ttl::AbsAndLat { ms, latest }
            } else {
                Ttl::AbsOrLat { ms, latest }
            })
        }
        _ => Err(bad()),
    }
}

fn datatype_from_str(s: &str) -> Result<DataType> {
    Ok(match s {
        "BOOL" => DataType::Bool,
        "INT" => DataType::Int,
        "BIGINT" => DataType::Bigint,
        "FLOAT" => DataType::Float,
        "DOUBLE" => DataType::Double,
        "TIMESTAMP" => DataType::Timestamp,
        "STRING" => DataType::String,
        other => {
            return Err(Error::Storage(format!(
                "manifest: unknown column type `{other}`"
            )))
        }
    })
}

fn parse_manifest(text: &str, path: &Path) -> Result<Manifest> {
    let bad = |line: &str, why: &str| {
        Error::Storage(format!("manifest {}: {why}: `{line}`", path.display()))
    };
    let mut lines = text.lines();
    match lines.next() {
        Some("openmldb-manifest v1") => {}
        _ => return Err(bad("", "missing version header")),
    }
    let mut tables = Vec::new();
    let mut deploys = Vec::new();
    let mut current: Option<TableManifest> = None;
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(2, ' ');
        let tag = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("");
        match tag {
            "table" => {
                if current.is_some() {
                    return Err(bad(line, "table before previous `end`"));
                }
                let (name, backend) = rest
                    .split_once(' ')
                    .ok_or_else(|| bad(line, "expected `table <name> <mem|disk>`"))?;
                let backend = match backend {
                    "mem" => Backend::Memory,
                    "disk" => Backend::Disk,
                    _ => return Err(bad(line, "unknown backend")),
                };
                current = Some(TableManifest {
                    name: name.to_string(),
                    backend,
                    cols: Vec::new(),
                    indexes: Vec::new(),
                });
            }
            "col" => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| bad(line, "col outside table"))?;
                let fields: Vec<&str> = rest.split(' ').collect();
                let [name, dt, null] = fields[..] else {
                    return Err(bad(line, "expected `col <name> <TYPE> <null|notnull>`"));
                };
                let col = ColumnDef::new(name.to_string(), datatype_from_str(dt)?);
                t.cols
                    .push(if null == "null" { col } else { col.not_null() });
            }
            "index" => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| bad(line, "index outside table"))?;
                let fields: Vec<&str> = rest.split(' ').collect();
                let [name, keys, ts, ttl] = fields[..] else {
                    return Err(bad(line, "expected `index <name> <keys> <ts|-> <ttl>`"));
                };
                let key_cols = keys
                    .split(',')
                    .map(|k| k.parse::<usize>())
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(|_| bad(line, "malformed key columns"))?;
                let ts_col = if ts == "-" {
                    None
                } else {
                    Some(ts.parse().map_err(|_| bad(line, "malformed ts column"))?)
                };
                t.indexes.push(IndexSpec {
                    name: name.to_string(),
                    key_cols,
                    ts_col,
                    ttl: ttl_from_str(ttl)?,
                });
            }
            "end" => {
                let t = current
                    .take()
                    .ok_or_else(|| bad(line, "end outside table"))?;
                tables.push(t);
            }
            "deploy" => {
                let (name, sql) = rest
                    .split_once(' ')
                    .ok_or_else(|| bad(line, "expected `deploy <name> <sql>`"))?;
                deploys.push((name.to_string(), sql.to_string()));
            }
            _ => return Err(bad(line, "unknown manifest tag")),
        }
    }
    if current.is_some() {
        return Err(bad("", "unterminated table block"));
    }
    Ok(Manifest { tables, deploys })
}

// ---------------------------------------------------------- digest oracle ---

/// Digest a sequence of binlog entries: FNV-1a over each entry's canonical
/// WAL encoding (offset, timestamp, table, key, payload). Two logs digest
/// equal iff they are byte-identical entry for entry — the oracle the crash
/// harness evaluates: it computes the expected value from the golden run's
/// durable WAL prefix and compares it against the recovered process's
/// [`Database::table_digest`].
pub fn digest_entries<'a>(entries: impl IntoIterator<Item = &'a LogEntry>) -> u64 {
    let mut h = Fnv::new();
    for e in entries {
        h.write(&wal::encode_entry(e));
    }
    h.finish()
}

// ------------------------------------------------------------- database ---

impl Database {
    /// Open (or create) a durable database at `dir` with default options:
    /// recover everything the directory holds, then keep mirroring every
    /// write into the per-table WALs.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<Database> {
        Self::recover_with(dir, DurabilityOptions::default())
    }

    /// [`Database::recover`] with explicit WAL / snapshot tuning.
    pub fn recover_with(dir: impl Into<PathBuf>, opts: DurabilityOptions) -> Result<Database> {
        let started = std::time::Instant::now();
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let ctx = Arc::new(DurabilityCtx { dir, opts });
        let db = Database::new();
        *db.durability.write() = Some(ctx.clone());

        let manifest_path = ctx.manifest_path();
        let mut recovered_rows = 0u64;
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)
                .map_err(|e| io_err("read", &manifest_path, e))?;
            let manifest = parse_manifest(&text, &manifest_path)?;
            for spec in &manifest.tables {
                recovered_rows += db.recover_table(spec, &ctx)?;
            }
            for (_, sql) in &manifest.deploys {
                db.deploy(sql)?;
            }
        }
        // Fresh directories get an empty manifest; recovered ones converge
        // to the same content they already had.
        db.write_manifest()?;
        crate::metrics::recoveries().inc();
        crate::metrics::recovered_rows().add(recovered_rows);
        crate::metrics::recovery_duration().record(started.elapsed().as_millis() as u64);
        Ok(db)
    }

    /// Rebuild one table: empty shell, snapshot prefix, WAL suffix, then
    /// attach the WAL (healing any binlog suffix the disk is missing).
    fn recover_table(&self, spec: &TableManifest, ctx: &DurabilityCtx) -> Result<u64> {
        let schema = Schema::new(spec.cols.clone())?;
        let table: Arc<dyn DataTable> = match spec.backend {
            Backend::Memory => Arc::new(MemTable::new(
                spec.name.clone(),
                schema.clone(),
                spec.indexes.clone(),
            )?),
            Backend::Disk => Arc::new(DiskTable::new(
                spec.name.clone(),
                schema.clone(),
                spec.indexes.clone(),
            )?),
        };
        let (wal, scan) = Wal::open(ctx.wal_dir(&spec.name), ctx.opts.wal)?;
        let codec = CompactCodec::new(schema);
        let mut covered = 0u64;
        let mut rows = 0u64;
        if let Some(snap) = snapshot::latest_valid(&ctx.snap_dir(), &spec.name)? {
            covered = snap.covered_offset;
            for data in &snap.rows {
                table.put(&codec.decode(data)?)?;
                rows += 1;
            }
        }
        for rec in &scan.records {
            if rec.entry.offset >= covered {
                table.put(&codec.decode(&rec.entry.data)?)?;
                rows += 1;
            }
        }
        // Attach last: the recovery puts above must not write through (the
        // WAL already holds them); attaching heals any suffix the snapshot
        // covered beyond the surviving log, then mirrors future appends.
        table.replicator().attach_wal(Arc::new(wal))?;
        self.tables.write().insert(spec.name.clone(), table);
        Ok(rows)
    }

    /// Force every table's WAL group-commit buffer to disk. After this
    /// returns `Ok`, every accepted write survives a crash. A WAL that
    /// failed once (I/O error or out-of-order append) makes every later
    /// call return that failure.
    pub fn sync_durable(&self) -> Result<()> {
        let tables: Vec<Arc<dyn DataTable>> = self.tables.read().values().cloned().collect();
        for t in tables {
            t.replicator().sync_wal()?;
        }
        Ok(())
    }

    /// Snapshot every table's durable prefix and prune old snapshots.
    /// Returns the number of snapshots published. Each table's WAL is
    /// synced first, so a snapshot never covers offsets the disk does not
    /// hold (the time-consistency invariant recovery relies on).
    pub fn snapshot_now(&self) -> Result<usize> {
        let ctx = self
            .durability
            .read()
            .clone()
            .ok_or_else(|| Error::Storage("database has no durable directory".into()))?;
        let mut published = 0;
        for name in self.table_names() {
            if self.snapshot_table(&name, &ctx)? {
                published += 1;
            }
        }
        Ok(published)
    }

    fn snapshot_table(&self, name: &str, ctx: &DurabilityCtx) -> Result<bool> {
        let table = self
            .table(name)
            .ok_or_else(|| Error::Storage(format!("unknown table `{name}`")))?;
        let replicator = table.replicator();
        replicator.sync_wal()?;
        let Some(wal) = replicator.wal() else {
            return Ok(false);
        };
        let covered = wal.durable_offset();
        if covered == 0 {
            return Ok(false);
        }
        let mut rows = Vec::with_capacity(covered as usize);
        replicator.replay(0, |e| {
            if e.offset < covered {
                rows.push(e.data.clone());
            }
        });
        snapshot::write(&ctx.snap_dir(), name, covered, &rows)?;
        snapshot::prune(&ctx.snap_dir(), name, ctx.opts.snapshot_keep)?;
        Ok(true)
    }

    /// FNV-1a digest of `table`'s full binlog in canonical WAL encoding —
    /// byte-identity oracle for crash/recovery testing.
    pub fn table_digest(&self, table: &str) -> Result<u64> {
        let t = self
            .table(table)
            .ok_or_else(|| Error::Storage(format!("unknown table `{table}`")))?;
        let mut h = Fnv::new();
        t.replicator().replay(0, |e| h.write(&wal::encode_entry(e)));
        Ok(h.finish())
    }

    /// Durable re-wire after a catalog swap (index rebuild, replica
    /// promotion, programmatic registration): the new table's replicator
    /// was rebuilt outside binlog order, so the old WAL and snapshots are
    /// stale — wipe them, write a fresh WAL from the new log, and republish
    /// the manifest. No-op on a non-durable database.
    pub(crate) fn rewire_durable_table(&self, name: &str) -> Result<()> {
        let Some(ctx) = self.durability.read().clone() else {
            return Ok(());
        };
        let table = self
            .table(name)
            .ok_or_else(|| Error::Storage(format!("unknown table `{name}`")))?;
        let wal_dir = ctx.wal_dir(name);
        let _ = fs::remove_dir_all(&wal_dir);
        snapshot::prune(&ctx.snap_dir(), name, 1)?;
        for (_, path) in snapshot::list(&ctx.snap_dir(), name)? {
            let _ = fs::remove_file(path);
        }
        let (wal, _) = Wal::open(wal_dir, ctx.opts.wal)?;
        table.replicator().attach_wal(Arc::new(wal))?;
        self.write_manifest()
    }

    /// Atomically publish the manifest (schemas, indexes, deployments).
    /// No-op on a non-durable database.
    pub(crate) fn write_manifest(&self) -> Result<()> {
        let Some(ctx) = self.durability.read().clone() else {
            return Ok(());
        };
        let mut out = String::from("openmldb-manifest v1\n");
        {
            let tables = self.tables.read();
            let mut names: Vec<&String> = tables.keys().collect();
            names.sort();
            for name in names {
                let t = &tables[name.as_str()];
                let backend = match t.backend() {
                    Backend::Memory => "mem",
                    Backend::Disk => "disk",
                };
                out.push_str(&format!("table {name} {backend}\n"));
                for c in t.schema().columns() {
                    let null = if c.nullable { "null" } else { "notnull" };
                    out.push_str(&format!(
                        "col {} {} {null}\n",
                        c.name,
                        c.data_type.sql_name()
                    ));
                }
                for idx in t.index_specs() {
                    let keys = idx
                        .key_cols
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    let ts = idx.ts_col.map_or_else(|| "-".into(), |i| i.to_string());
                    out.push_str(&format!(
                        "index {} {keys} {ts} {}\n",
                        idx.name,
                        ttl_to_str(&idx.ttl)
                    ));
                }
                out.push_str("end\n");
            }
        }
        for (name, sql) in self.deploy_sql.read().iter() {
            out.push_str(&format!(
                "deploy {name} {}\n",
                sql.replace(['\n', '\r'], " ")
            ));
        }
        let path = ctx.manifest_path();
        let tmp = path.with_extension("tmp");
        let mut f = File::create(&tmp).map_err(|e| io_err("create manifest tmp", &tmp, e))?;
        f.write_all(out.as_bytes())
            .map_err(|e| io_err("write manifest", &tmp, e))?;
        f.sync_data()
            .map_err(|e| io_err("fsync manifest", &tmp, e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err("rename manifest", &path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::ExecResult;
    use openmldb_types::{Row, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "openmldb_durable_{tag}_{}_{seq}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed(db: &Database, n: i64) {
        db.execute(
            "CREATE TABLE actions (userid BIGINT, category STRING, price DOUBLE, \
             quantity INT, ts TIMESTAMP, INDEX(KEY=userid, TS=ts))",
        )
        .unwrap();
        for i in 0..n {
            db.execute(&format!(
                "INSERT INTO actions VALUES ({}, 'c{}', {}.5, 1, {})",
                i % 3,
                i % 5,
                i,
                1_000 + i * 37
            ))
            .unwrap();
        }
    }

    #[test]
    fn clean_restart_recovers_byte_identical_tables() {
        let dir = tmp_dir("clean");
        let digest = {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 40);
            db.sync_durable().unwrap();
            db.table_digest("actions").unwrap()
        };
        let db = Database::recover(&dir).unwrap();
        assert_eq!(db.table_digest("actions").unwrap(), digest);
        assert_eq!(db.table("actions").unwrap().row_count(), 40);
        // The recovered process keeps accepting durable writes.
        db.execute("INSERT INTO actions VALUES (9, 'z', 1.0, 1, 99999)")
            .unwrap();
        db.sync_durable().unwrap();
        let db2 = Database::recover(&dir).unwrap();
        assert_eq!(db2.table("actions").unwrap().row_count(), 41);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_wal_suffix_covers_all_rows() {
        let dir = tmp_dir("snapwal");
        let digest = {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 30);
            assert_eq!(db.snapshot_now().unwrap(), 1, "one table snapshotted");
            for i in 30..50 {
                db.execute(&format!(
                    "INSERT INTO actions VALUES (1, 'c', {i}.5, 1, {})",
                    1_000 + i * 37
                ))
                .unwrap();
            }
            db.sync_durable().unwrap();
            db.table_digest("actions").unwrap()
        };
        let db = Database::recover(&dir).unwrap();
        assert_eq!(db.table("actions").unwrap().row_count(), 50);
        assert_eq!(db.table_digest("actions").unwrap(), digest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deployments_and_preaggs_survive_recovery() {
        let dir = tmp_dir("deploy");
        let expected = {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 50);
            db.deploy(
                "DEPLOY demo OPTIONS(long_windows=\"w:10s\") AS \
                 SELECT userid, sum(price) OVER w AS s FROM actions \
                 WINDOW w AS (PARTITION BY userid ORDER BY ts \
                 ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)",
            )
            .unwrap();
            db.sync_durable().unwrap();
            let req = Row::new(vec![
                Value::Bigint(1),
                Value::string("c"),
                Value::Double(0.0),
                Value::Int(1),
                Value::Timestamp(1_000_000),
            ]);
            db.request_readonly("demo", &req).unwrap()
        };
        let db = Database::recover(&dir).unwrap();
        assert!(db.deployment("demo").is_some(), "deployment restored");
        let req = Row::new(vec![
            Value::Bigint(1),
            Value::string("c"),
            Value::Double(0.0),
            Value::Int(1),
            Value::Timestamp(1_000_000),
        ]);
        let out = db.request_readonly("demo", &req).unwrap();
        assert_eq!(out, expected, "pre-aggregate state rebuilt identically");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_loses_only_unsynced_suffix() {
        let dir = tmp_dir("torn");
        {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 20);
            db.sync_durable().unwrap();
        }
        // Sever the WAL mid-record: the torn record and everything after it
        // is dropped, every fully-synced record before it survives.
        let wal_dir = dir.join("wal").join("actions");
        let total = wal::total_bytes(&wal_dir).unwrap();
        wal::truncate_to(&wal_dir, total - 3).unwrap();
        let db = Database::recover(&dir).unwrap();
        assert_eq!(
            db.table("actions").unwrap().row_count(),
            19,
            "exactly the torn record is lost"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_survives_disk_tables_and_sql_roundtrip() {
        let dir = tmp_dir("manifest");
        {
            let db = Database::recover(&dir).unwrap();
            db.create_disk_table(
                "CREATE TABLE cold (k BIGINT, v DOUBLE, ts TIMESTAMP, \
                 INDEX(KEY=k, TS=ts, TTL=100, TTL_TYPE=latest))",
            )
            .unwrap();
            db.execute("INSERT INTO cold VALUES (7, 1.5, 123)").unwrap();
            db.sync_durable().unwrap();
        }
        let db = Database::recover(&dir).unwrap();
        let t = db.table("cold").expect("disk table restored");
        assert_eq!(t.backend(), Backend::Disk);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.index_specs()[0].ttl, Ttl::Latest(100));
        let ExecResult::Batch(b) = db.execute("SELECT k FROM cold").unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(b.rows.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_specs_roundtrip_through_manifest_encoding() {
        for ttl in [
            Ttl::Unlimited,
            Ttl::Latest(7),
            Ttl::AbsoluteMs(123_456),
            Ttl::AbsAndLat { ms: 10, latest: 3 },
            Ttl::AbsOrLat { ms: 99, latest: 1 },
        ] {
            assert_eq!(ttl_from_str(&ttl_to_str(&ttl)).unwrap(), ttl);
        }
        assert!(ttl_from_str("bogus=1").is_err());
    }

    #[test]
    fn index_rebuild_rewrites_the_wal_for_recovery() {
        let dir = tmp_dir("rebuild");
        let digest = {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 25);
            // Deploy partitioned by a non-indexed column: triggers an index
            // rebuild that swaps the table (and its replicator) out from
            // under the durable mirror.
            db.deploy(
                "DEPLOY by_cat AS SELECT count(price) OVER w AS c FROM actions \
                 WINDOW w AS (PARTITION BY category ORDER BY ts \
                 ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)",
            )
            .unwrap();
            db.sync_durable().unwrap();
            db.table_digest("actions").unwrap()
        };
        let db = Database::recover(&dir).unwrap();
        assert_eq!(db.table_digest("actions").unwrap(), digest);
        assert_eq!(db.table("actions").unwrap().row_count(), 25);
        assert!(
            db.table("actions")
                .unwrap()
                .index_specs()
                .iter()
                .any(|i| i.name.starts_with("idx_auto")),
            "rebuilt index preserved across recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_replicators_report_zero_undelivered() {
        let dir = tmp_dir("undeliv");
        {
            let db = Database::recover(&dir).unwrap();
            seed(&db, 15);
            db.sync_durable().unwrap();
        }
        let db = Database::recover(&dir).unwrap();
        let t = db.table("actions").unwrap();
        t.replicator().flush();
        assert_eq!(
            t.replicator().undelivered(),
            0,
            "no phantom undelivered after recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir`, by path relative to `root`.
    fn files_of(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files_of(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.push((rel, fs::read(&path).unwrap()));
            }
        }
    }

    /// The files of a durable directory with a memory table, a disk table,
    /// rows in both WALs, a snapshot and a deployment; built once, written
    /// out again per case.
    fn hostile_base() -> &'static [(PathBuf, Vec<u8>)] {
        static BASE: std::sync::OnceLock<Vec<(PathBuf, Vec<u8>)>> = std::sync::OnceLock::new();
        BASE.get_or_init(|| {
            let dir = tmp_dir("hostile_base");
            {
                let db = Database::recover(&dir).unwrap();
                seed(&db, 20);
                db.snapshot_now().unwrap();
                for i in 20..30 {
                    let row = format!("INSERT INTO actions VALUES (1, 'c', {i}.5, 1, {i}000)");
                    db.execute(&row).unwrap();
                }
                db.create_disk_table(
                    "CREATE TABLE cold (k BIGINT, v DOUBLE, ts TIMESTAMP, \
                     INDEX(KEY=k, TS=ts, TTL=100, TTL_TYPE=latest))",
                )
                .unwrap();
                db.execute("INSERT INTO cold VALUES (7, 1.5, 123)").unwrap();
                db.deploy(
                    "DEPLOY demo SELECT userid, sum(price) OVER w AS s FROM actions \
                     WINDOW w AS (PARTITION BY userid ORDER BY ts \
                     ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
                )
                .unwrap();
                db.sync_durable().unwrap();
            }
            let mut files = Vec::new();
            files_of(&dir, &dir, &mut files);
            let _ = fs::remove_dir_all(&dir);
            files
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64 })]

        /// Hostile MANIFEST bytes over a real directory (snapshot, WAL
        /// rows, a deployment): truncated or bit-flipped anywhere, or with
        /// an `index` line naming columns outside its table (or ordering by
        /// a DOUBLE), or a malformed `col` line. Recovery answers with a
        /// database or a typed error — never a panic — and always with the
        /// error when a column reference is out of range or malformed.
        #[test]
        fn hostile_manifest_bytes_are_a_typed_error(
            mutation in 0u8..4,
            at in 0usize..4096,
            bit in 0u8..8,
            pick in 0usize..64,
        ) {
            let base = hostile_base();
            let good = base.iter().find(|(p, _)| p == Path::new("MANIFEST")).unwrap().1.clone();
            let text = String::from_utf8(good.clone()).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            // Replace the `pick`-th line with `tag`'s prefix by `line`.
            let replace = |tag: &str, line: &str| {
                let hits: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with(tag)).collect();
                let mut out: Vec<&str> = lines.clone();
                out[hits[pick % hits.len()]] = line;
                out.join("\n").into_bytes()
            };
            // Out of range or malformed; the last one is in range but orders
            // by a column that is not a timestamp, which SQL's `CREATE
            // TABLE` accepts too: recovered, its rows keyed at `i64::MIN`.
            let bad_index = [
                ("index by_x 5 4 unlimited", true),
                ("index by_x 0 99 unlimited", true),
                ("index by_x 0,18446744073709551615 - unlimited", true),
                ("index by_x 99999999999999999999999 - unlimited", true),
                ("index by_x  4 unlimited", true),
                ("index by_x 0 4", true),
                ("index by_x 0 1 unlimited", false),
            ];
            let bad_col = ["col x BOGUS null", "col x INT", "col", "col x INT null extra"];
            let (bytes, must_fail) = match mutation {
                0 => (good[..at % good.len()].to_vec(), false),
                1 => {
                    let mut b = good.clone();
                    b[at % good.len()] ^= 1 << bit;
                    (b, false)
                }
                2 => {
                    let (line, must_fail) = bad_index[pick % bad_index.len()];
                    (replace("index ", line), must_fail)
                }
                _ => (replace("col ", bad_col[pick % bad_col.len()]), true),
            };
            let dir = tmp_dir("hostile");
            for (path, data) in base {
                let path = dir.join(path);
                fs::create_dir_all(path.parent().unwrap()).unwrap();
                fs::write(path, data).unwrap();
            }
            fs::write(dir.join("MANIFEST"), &bytes).unwrap();
            let recovered = Database::recover(&dir);
            let _ = fs::remove_dir_all(&dir);
            if must_fail {
                proptest::prop_assert!(recovered.is_err(), "accepted {:?}", String::from_utf8_lossy(&bytes));
            }
        }
    }
}
