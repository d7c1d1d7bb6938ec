//! The OpenMLDB database facade: one object wiring the unified plan
//! generator, the online request engine, the offline batch engine, storage,
//! pre-aggregation and memory management together (paper Figure 2).
//!
//! The three execution modes of Section 3.2 map to:
//!
//! * **offline execution** — [`Database::offline_query`];
//! * **online preview** — [`Database::preview`] (bounded scans over online
//!   data, limited query complexity);
//! * **online request** — [`Database::request`] against a deployment made
//!   with [`Database::execute`]`("DEPLOY ...")`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use openmldb_offline::{OfflineOptions, Snapshot};
use openmldb_online::{
    execute_request, execute_request_with, Deployment, PreAggregator, RequestOptions,
    RequestOutput, TableProvider,
};
use openmldb_sql::ast::{
    CreateTableStatement, DeployStatement, InsertStatement, Literal, Statement, TtlSpec,
};
use openmldb_sql::plan::{Catalog, CompiledQuery};
use openmldb_sql::{interval, parse_statement, PlanCache};
use openmldb_storage::{Backend, DataTable, DiskTable, IndexSpec, MemTable, Ttl};
use openmldb_types::{CompactCodec, DataType, Error, Result, Row, RowBatch, Schema, Value};

use crate::memory::MemoryMonitor;

/// Result of [`Database::execute`].
#[derive(Debug)]
pub enum ExecResult {
    /// DDL/DML acknowledged (CREATE TABLE, INSERT).
    Ok,
    /// A SELECT's offline-mode result.
    Batch(RowBatch),
    /// A deployment was created with this name.
    Deployed(String),
    /// An EXPLAIN's rendered plan tree.
    Plan(String),
}

/// Pre-aggregator registration: which table streams feed it (needed to
/// re-attach after an index rebuild swaps a table's replicator).
struct PreAggAttachment {
    table: String,
    preagg: Arc<PreAggregator>,
}

/// An embedded OpenMLDB instance.
#[derive(Default)]
pub struct Database {
    pub(crate) tables: RwLock<HashMap<String, Arc<dyn DataTable>>>,
    deployments: RwLock<HashMap<String, Arc<Deployment>>>,
    attachments: RwLock<Vec<PreAggAttachment>>,
    cache: PlanCache,
    monitor: MemoryMonitor,
    /// Preview-mode result cache (Section 3.2: preview "retrieves results
    /// from a data cache"): normalized SQL + a table-version signature →
    /// the bounded result. Any insert to a referenced table changes its
    /// row count and naturally invalidates the entry.
    preview_cache: RwLock<HashMap<(String, u64), Arc<RowBatch>>>,
    preview_hits: std::sync::atomic::AtomicU64,
    /// Failover replicas by primary table name ([`Database::enable_failover`]).
    /// The request path reads from one (after a catch-up sync) when the
    /// primary keeps faulting.
    replicas: RwLock<HashMap<String, Arc<openmldb_storage::ReplicaTable>>>,
    /// DEPLOY statements in execution order, kept verbatim so the durable
    /// manifest can replay them at recovery (rebuilding compiled plans,
    /// auto-indexes and pre-aggregate state through the normal path).
    pub(crate) deploy_sql: RwLock<Vec<(String, String)>>,
    /// Durable directory attachment ([`Database::recover`]); `None` for a
    /// purely in-memory instance.
    pub(crate) durability: RwLock<Option<Arc<crate::durability::DurabilityCtx>>>,
}

impl Catalog for Database {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.tables.read().get(name).map(|t| t.schema().clone())
    }
}

impl TableProvider for Database {
    fn table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        self.tables.read().get(name).cloned()
    }

    /// Sync-then-serve: catch the replica up with everything the leader has
    /// accepted, then hand it out for the read. Only tables registered via
    /// [`Database::enable_failover`] have one.
    fn fallback_table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        let replica = self.replicas.read().get(name).cloned()?;
        Some(replica.promote() as Arc<dyn DataTable>)
    }
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// The runtime memory monitor (Section 8.2).
    pub fn memory_monitor(&self) -> &MemoryMonitor {
        &self.monitor
    }

    /// Plan-cache statistics `(hits, misses)` (Section 4.2).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Execute one SQL statement (CREATE TABLE / INSERT / DEPLOY / SELECT).
    /// SELECT runs in offline execution mode; use [`Database::request`] for
    /// online request mode and [`Database::preview`] for preview mode.
    pub fn execute(&self, sql: &str) -> Result<ExecResult> {
        match parse_statement(sql)? {
            Statement::CreateTable(stmt) => {
                self.create_table_stmt(&stmt)?;
                Ok(ExecResult::Ok)
            }
            Statement::Insert(stmt) => {
                self.insert_stmt(&stmt)?;
                Ok(ExecResult::Ok)
            }
            Statement::Deploy(stmt) => {
                let name = self.deploy_stmt(&stmt, sql)?;
                Ok(ExecResult::Deployed(name))
            }
            Statement::Select(_) => Ok(ExecResult::Batch(self.offline_query(sql)?)),
            Statement::Explain(select) => {
                let query = openmldb_sql::compile_select(&select, self)?;
                Ok(ExecResult::Plan(query.explain()))
            }
        }
    }

    // ------------------------------------------------------------- DDL ---

    fn create_table_stmt(&self, stmt: &CreateTableStatement) -> Result<()> {
        if self.tables.read().contains_key(&stmt.name) {
            return Err(Error::Storage(format!(
                "table `{}` already exists",
                stmt.name
            )));
        }
        let (schema, indexes) = schema_and_indexes(stmt)?;
        let table = MemTable::new(stmt.name.clone(), schema, indexes)?;
        self.install_table(&stmt.name, Arc::new(table))
    }

    /// Put `table` into the catalog under `name` — the one way a table
    /// enters it or is replaced (CREATE TABLE, programmatic registration,
    /// an index rebuild at DEPLOY, replica promotion). Every deployment that
    /// reads `name` is swapped for one re-bound to the new table, under the
    /// deployment map's write lock: the next request reads the new table,
    /// requests already running finish on the one they started on. A
    /// replacement some deployment cannot read (it lacks an index the plan
    /// needs) is refused with the catalog unchanged. Cached plans are
    /// dropped and, on a durable database, the table's WAL and snapshots are
    /// rewritten from its log.
    fn install_table(&self, name: &str, table: Arc<dyn DataTable>) -> Result<()> {
        {
            let mut deployments = self.deployments.write();
            let previous = self.tables.write().insert(name.to_string(), table);
            let rebound: Result<Vec<_>> = deployments
                .values()
                .filter(|dep| dep.read_tables().iter().any(|t| t == name))
                .map(|dep| dep.rebind(self).map(Arc::new))
                .collect();
            match rebound {
                Ok(rebound) => deployments.extend(rebound.into_iter().map(|d| (d.name.clone(), d))),
                Err(e) => {
                    let mut tables = self.tables.write();
                    match previous {
                        Some(previous) => tables.insert(name.to_string(), previous),
                        None => tables.remove(name),
                    };
                    return Err(e);
                }
            }
        }
        self.cache.invalidate_all();
        self.rewire_durable_table(name)
    }

    /// Create a table on the disk engine (Section 8.1 placement guidance:
    /// the estimate exceeds memory, or a 20–30 ms budget trades latency for
    /// ~80% hardware savings). Same DDL semantics as CREATE TABLE.
    pub fn create_disk_table(&self, sql: &str) -> Result<()> {
        let Statement::CreateTable(stmt) = parse_statement(sql)? else {
            return Err(Error::Unsupported("expected CREATE TABLE".into()));
        };
        if self.tables.read().contains_key(&stmt.name) {
            return Err(Error::Storage(format!(
                "table `{}` already exists",
                stmt.name
            )));
        }
        let (schema, indexes) = schema_and_indexes(&stmt)?;
        let table = DiskTable::new(stmt.name.clone(), schema, indexes)?;
        self.install_table(&stmt.name, Arc::new(table))
    }

    /// Register a pre-built table of either backend (programmatic path used
    /// by benches and tests). On a durable database the table's binlog is
    /// written out as a fresh WAL so it survives restarts like any other.
    pub fn register_table(&self, table: Arc<dyn DataTable>) -> Result<()> {
        let name = table.name().to_string();
        self.install_table(&name, table)
    }

    // ------------------------------------------------------------- DML ---

    fn insert_stmt(&self, stmt: &InsertStatement) -> Result<()> {
        let table = self
            .table(&stmt.table)
            .ok_or_else(|| Error::Storage(format!("unknown table `{}`", stmt.table)))?;
        for literals in &stmt.rows {
            let row = literals_to_row(literals, table.schema())?;
            table.put(&row)?;
        }
        Ok(())
    }

    /// Insert one decoded row.
    pub fn insert_row(&self, table: &str, row: &Row) -> Result<u64> {
        // Chaos hook: an admission fault models the Section 8.2 memory
        // guard rejecting the write (writes fail, reads continue).
        openmldb_chaos::inject(openmldb_chaos::InjectionPoint::MemoryAdmission)?;
        let table = self
            .table(table)
            .ok_or_else(|| Error::Storage(format!("unknown table `{table}`")))?;
        table.put(row)
    }

    // ---------------------------------------------------------- DEPLOY ---

    fn deploy_stmt(&self, stmt: &DeployStatement, raw_sql: &str) -> Result<String> {
        if self.deployments.read().contains_key(&stmt.name) {
            return Err(Error::Deployment(format!(
                "deployment `{}` already exists",
                stmt.name
            )));
        }
        // Route through the plan cache: redeploying an equivalent feature
        // script (same AST) reuses the compiled plan, and the hit/miss
        // outcome is attributed to the deployment's label slot.
        let (query, cache_hit) = self.cache.compile_stmt_traced(&stmt.select, self)?;
        // A plan that does not compile is refused before an index is built
        // for it: a refused DEPLOY leaves the catalog as it found it.
        Deployment::compile(&stmt.name, &query)?;
        self.ensure_indexes(&query)?;
        let mut deployment = Deployment::new(stmt.name.clone(), query.clone(), self)?;
        if cache_hit {
            crate::metrics::deploy_plan_hits().inc(deployment.label());
        } else {
            crate::metrics::deploy_plan_misses().inc(deployment.label());
        }

        // long_windows option: build + backfill + attach a pre-aggregator
        // per named window (Section 5.1 / Figure 11's deploy OPTIONS).
        for (window_name, bucket) in stmt.long_windows() {
            let bucket_ms = interval::parse_interval(&bucket)?;
            let wid = query
                .windows
                .iter()
                .position(|w| w.merged_names.contains(&window_name))
                .ok_or_else(|| {
                    Error::Deployment(format!("long_windows names unknown window `{window_name}`"))
                })?;
            let agg_ids = query.aggregates_by_window();
            let aggs: Vec<_> = agg_ids[wid]
                .iter()
                .map(|&i| query.aggregates[i].clone())
                .collect();
            if aggs.is_empty() {
                continue;
            }
            // The Figure 4 hierarchy around the requested granularity: a
            // 24× finer level keeps the window's raw edges small (an hour
            // when the user asked for days), the requested level carries the
            // bulk, and a 30× coarser level compresses long spans.
            let levels = vec![
                (bucket_ms / 24).max(1),
                bucket_ms,
                bucket_ms.saturating_mul(30),
            ];
            let preagg = PreAggregator::new(&query.windows[wid], &aggs, levels)?;
            let window = &query.windows[wid];
            for table_name in std::iter::once(query.base_table.as_str())
                .chain(window.union_tables.iter().map(String::as_str))
            {
                let table = self
                    .table(table_name)
                    .ok_or_else(|| Error::Storage(format!("unknown table `{table_name}`")))?;
                // Exactly-once bootstrap: replay the binlog into the
                // buckets, then continue asynchronously (Section 5.1).
                preagg.attach_with_catchup(
                    table.replicator(),
                    CompactCodec::new(table.schema().clone()),
                );
                self.attachments.write().push(PreAggAttachment {
                    table: table_name.to_string(),
                    preagg: preagg.clone(),
                });
            }
            deployment = deployment.with_preagg(wid, preagg);
        }

        let name = stmt.name.clone();
        self.deployments
            .write()
            .insert(name.clone(), Arc::new(deployment));
        // Keep the statement text so a durable manifest can replay it at
        // recovery, rebuilding the plan and pre-aggregate state.
        self.deploy_sql
            .write()
            .push((name.clone(), raw_sql.trim().to_string()));
        self.write_manifest()?;
        Ok(name)
    }

    /// Deploy from SQL text (`DEPLOY name [OPTIONS(...)] AS SELECT ...`).
    pub fn deploy(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Deploy(stmt) => self.deploy_stmt(&stmt, sql),
            _ => Err(Error::Deployment("expected a DEPLOY statement".into())),
        }
    }

    pub fn deployment(&self, name: &str) -> Option<Arc<Deployment>> {
        self.deployments.read().get(name).cloned()
    }

    /// Names of every deployment currently installed, sorted.
    pub fn deployment_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.deployments.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// EXPLAIN ANALYZE-style render of the accumulated per-request cost
    /// profile attributed to `deployment` (stage times, rows scanned, bytes
    /// decoded, pre-agg hit rate, resilience events). Reads the process-wide
    /// profile store; a deployment that never served a request renders a
    /// "(no samples)" section.
    pub fn explain_analyze(&self, deployment: &str) -> String {
        openmldb_obs::ProfileStore::global().render_explain_analyze(deployment)
    }

    /// Make sure every index the plan wants exists; tables missing one are
    /// rebuilt with the extra index (data re-indexed, pre-aggregators
    /// re-attached to the new replicator).
    fn ensure_indexes(&self, query: &CompiledQuery) -> Result<()> {
        for (table_name, key_cols, ts_col) in query.index_hints() {
            let table = self
                .table(&table_name)
                .ok_or_else(|| Error::Storage(format!("unknown table `{table_name}`")))?;
            let schema = table.schema().clone();
            let key_idx = key_cols
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<Vec<_>>>()?;
            let ts_idx = ts_col.as_deref().map(|c| schema.index_of(c)).transpose()?;
            if table.find_index(&key_idx, ts_idx).is_some() {
                continue;
            }
            // Rebuild with the extra index, on the same backend.
            let mut specs = table.index_specs();
            specs.push(IndexSpec {
                name: format!("idx_auto_{}", specs.len()),
                key_cols: key_idx,
                ts_col: ts_idx,
                ttl: Ttl::Unlimited,
            });
            let rebuilt: Arc<dyn DataTable> = match table.backend() {
                Backend::Memory => Arc::new(MemTable::new(table.name(), schema.clone(), specs)?),
                Backend::Disk => Arc::new(DiskTable::new(table.name(), schema.clone(), specs)?),
            };
            for row in table.scan_all(0)? {
                rebuilt.put(&row)?;
            }
            // Re-subscribe existing pre-aggregators to the new replicator
            // (their buckets already contain the re-put rows via backfill at
            // their own deploy time; subscription only delivers new puts).
            for att in self.attachments.read().iter() {
                if att.table == table_name {
                    att.preagg
                        .attach(rebuilt.replicator(), CompactCodec::new(schema.clone()));
                }
            }
            // The rebuilt replicator re-put rows in scan order, not binlog
            // order: the old WAL and snapshots no longer describe this
            // table, so the install rewrites the durable state from the new
            // log — and re-binds the deployments already reading the table.
            self.install_table(&table_name, rebuilt)?;
        }
        Ok(())
    }

    // --------------------------------------------------- execution modes --

    /// Online request mode: compute one feature row for `request`, then
    /// persist the request tuple into its table (it becomes history for the
    /// next request).
    pub fn request(&self, deployment: &str, request: &Row) -> Result<Row> {
        let dep = self.serving(deployment)?;
        let out = execute_request(self, &dep, request)?;
        self.insert_row(&dep.query.base_table, request)?;
        Ok(out)
    }

    /// Online request mode without persisting the request tuple.
    pub fn request_readonly(&self, deployment: &str, request: &Row) -> Result<Row> {
        execute_request(self, &*self.serving(deployment)?, request)
    }

    /// [`Database::request_readonly`] with explicit resilience options:
    /// deadline budget, transient-fault retry policy, replica failover (for
    /// tables with [`Database::enable_failover`]) and the buckets-only
    /// degradation tier.
    pub fn request_readonly_with(
        &self,
        deployment: &str,
        request: &Row,
        opts: &RequestOptions,
    ) -> Result<RequestOutput> {
        execute_request_with(self, &*self.serving(deployment)?, request, opts)
    }

    /// The deployment a request names, or the typed error for an unknown
    /// name.
    fn serving(&self, deployment: &str) -> Result<Arc<Deployment>> {
        self.deployment(deployment)
            .ok_or_else(|| Error::Deployment(format!("unknown deployment `{deployment}`")))
    }

    /// Offline execution mode: run a feature script over full historical
    /// snapshots with the batch engine.
    pub fn offline_query(&self, sql: &str) -> Result<RowBatch> {
        self.offline_query_with(sql, &OfflineOptions::default())
    }

    /// Offline execution with explicit engine options (benchmarks use this
    /// to toggle parallel windows / skew handling / execution mode).
    pub fn offline_query_with(&self, sql: &str, opts: &OfflineOptions) -> Result<RowBatch> {
        let query = self.cache.compile(sql, self)?;
        openmldb_offline::execute(&query, &self.snapshot(&query)?, opts)
    }

    /// Online preview mode: bounded evaluation over current online data.
    /// Complexity is constrained — a row cap is always applied and at most
    /// `MAX_PREVIEW_KEYS` partition columns are allowed — and results come
    /// from a data cache keyed by the tables' current versions
    /// (Section 3.2).
    pub fn preview(&self, sql: &str, max_rows: usize) -> Result<RowBatch> {
        const MAX_PREVIEW_KEYS: usize = 2;
        let query = self.cache.compile(sql, self)?;
        for w in &query.windows {
            if w.partition_cols.len() > MAX_PREVIEW_KEYS {
                return Err(Error::Unsupported(format!(
                    "preview mode allows at most {MAX_PREVIEW_KEYS} key columns per window"
                )));
            }
        }
        let key = (
            openmldb_sql::normalize_sql(sql)?,
            self.table_version_signature(&query),
        );
        if let Some(cached) = self.preview_cache.read().get(&key) {
            self.preview_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            crate::metrics::preview_cache_hits().inc();
            let mut batch = (**cached).clone();
            batch
                .rows
                .truncate(max_rows.min(query.limit.unwrap_or(usize::MAX)));
            return Ok(batch);
        }
        let snapshot = self.snapshot(&query)?;
        let full = openmldb_offline::execute(&query, &snapshot, &OfflineOptions::default())?;
        let full = Arc::new(full);
        self.preview_cache.write().insert(key, full.clone());
        let mut batch = (*full).clone();
        batch
            .rows
            .truncate(max_rows.min(query.limit.unwrap_or(usize::MAX)));
        Ok(batch)
    }

    /// Preview cache hits served so far.
    pub fn preview_cache_hits(&self) -> u64 {
        self.preview_hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A signature of the current versions of every table `query` reads
    /// (their binlog lengths — any write bumps it).
    fn table_version_signature(&self, query: &CompiledQuery) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let tables = self.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for name in names {
            if name == &query.base_table
                || query.joins.iter().any(|j| &j.table == name)
                || query.windows.iter().any(|w| w.union_tables.contains(name))
            {
                name.hash(&mut h);
                tables[name.as_str()].replicator().len().hash(&mut h);
            }
        }
        h.finish()
    }

    /// Snapshot the tables a query reads as the batch engine's encoded
    /// input. A plan DEPLOY would refuse is refused before any is read.
    fn snapshot(&self, query: &CompiledQuery) -> Result<Snapshot> {
        Snapshot::capture(query, |name| {
            self.table(name)
                .ok_or_else(|| Error::Storage(format!("unknown table `{name}`")))
        })
    }

    /// Run TTL garbage collection across all tables.
    pub fn gc(&self, now_ms: i64) -> usize {
        self.tables.read().values().map(|t| t.gc(now_ms)).sum()
    }

    /// Create a binlog-fed replica of `table` (the paper's tablet replicas;
    /// the replica catches up exactly-once and then follows live writes).
    /// The returned handle owns the follower; it is not registered in the
    /// catalog — promote it with [`Database::register_table`] on failover.
    pub fn replicate_table(&self, table: &str) -> Result<openmldb_storage::ReplicaTable> {
        let t = self
            .table(table)
            .ok_or_else(|| Error::Storage(format!("unknown table `{table}`")))?;
        openmldb_storage::ReplicaTable::follow(&*t)
    }

    /// Create and register a failover replica for `table`: the request path
    /// will fail reads over to it (after a catch-up sync) when the primary
    /// keeps returning transient faults. Idempotent per table.
    pub fn enable_failover(&self, table: &str) -> Result<()> {
        if self.replicas.read().contains_key(table) {
            return Ok(());
        }
        let replica = Arc::new(self.replicate_table(table)?);
        self.replicas.write().insert(table.to_string(), replica);
        Ok(())
    }

    /// Permanent failover: promote `table`'s replica into the catalog as the
    /// new primary (sync first, so no accepted write is lost) and drop the
    /// replica registration. Subsequent writes go to the promoted table.
    pub fn promote_replica(&self, table: &str) -> Result<()> {
        let replica = self
            .replicas
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| Error::Storage(format!("no failover replica for `{table}`")))?;
        self.install_table(table, replica.promote())?;
        self.replicas.write().remove(table);
        Ok(())
    }

    /// Replica lag in rows for a table with failover enabled.
    pub fn replica_lag(&self, table: &str) -> Option<u64> {
        self.replicas.read().get(table).map(|r| r.lag())
    }

    /// Table names currently registered.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Resolve a CREATE TABLE statement into a schema and index specs (adding
/// the default first-column index when none is declared).
fn schema_and_indexes(stmt: &CreateTableStatement) -> Result<(Schema, Vec<IndexSpec>)> {
    let schema = Schema::new(
        stmt.columns
            .iter()
            .map(|(name, dt, nullable)| {
                let col = openmldb_types::ColumnDef::new(name.clone(), *dt);
                if *nullable {
                    col
                } else {
                    col.not_null()
                }
            })
            .collect(),
    )?;
    let mut indexes = Vec::new();
    for (i, idx) in stmt.indexes.iter().enumerate() {
        let key_cols = idx
            .key_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        let ts_col = idx
            .ts_column
            .as_deref()
            .map(|c| schema.index_of(c))
            .transpose()?;
        indexes.push(IndexSpec {
            name: format!("idx_{i}"),
            key_cols,
            ts_col,
            ttl: convert_ttl(idx.ttl),
        });
    }
    if indexes.is_empty() {
        // Default index: first column as key, first timestamp column as the
        // order column (matching the system's default behaviour).
        let ts_col = schema
            .columns()
            .iter()
            .position(|c| c.data_type == DataType::Timestamp);
        indexes.push(IndexSpec {
            name: "idx_default".into(),
            key_cols: vec![0],
            ts_col,
            ttl: Ttl::Unlimited,
        });
    }
    Ok((schema, indexes))
}

fn convert_ttl(spec: TtlSpec) -> Ttl {
    match spec {
        TtlSpec::Unlimited => Ttl::Unlimited,
        TtlSpec::Latest(n) => Ttl::Latest(n),
        TtlSpec::AbsoluteMs(ms) => Ttl::AbsoluteMs(ms),
        TtlSpec::AbsAndLat { ms, latest } => Ttl::AbsAndLat { ms, latest },
        TtlSpec::AbsOrLat { ms, latest } => Ttl::AbsOrLat { ms, latest },
    }
}

fn literals_to_row(literals: &[Literal], schema: &Schema) -> Result<Row> {
    if literals.len() != schema.len() {
        return Err(Error::Schema(format!(
            "INSERT arity {} does not match schema arity {}",
            literals.len(),
            schema.len()
        )));
    }
    let values = literals
        .iter()
        .zip(schema.columns())
        .map(|(lit, col)| {
            let v = match lit {
                Literal::Null => Value::Null,
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Bigint(*i),
                Literal::Float(f) => Value::Double(*f),
                Literal::Str(s) => Value::string(s.as_str()),
            };
            v.cast_to(col.data_type)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Row::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_actions() -> Database {
        let db = Database::new();
        db.execute(
            "CREATE TABLE actions (userid BIGINT, category STRING, price DOUBLE, \
             quantity INT, ts TIMESTAMP, INDEX(KEY=userid, TS=ts))",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = db_with_actions();
        db.execute(
            "INSERT INTO actions VALUES (1, 'shoes', 20.0, 2, 1000), (1, 'bags', 35.0, 1, 2000)",
        )
        .unwrap();
        let ExecResult::Batch(batch) = db.execute("SELECT userid, price FROM actions").unwrap()
        else {
            panic!("expected batch");
        };
        assert_eq!(batch.rows.len(), 2);
        assert_eq!(batch.schema.len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db_with_actions();
        assert!(db
            .execute("CREATE TABLE actions (a INT)")
            .unwrap_err()
            .to_string()
            .contains("already exists"));
    }

    #[test]
    fn deploy_and_request_mode() {
        let db = db_with_actions();
        for i in 0..10 {
            db.execute(&format!(
                "INSERT INTO actions VALUES (1, 'c', {}.0, 1, {})",
                i,
                1_000 + i * 100
            ))
            .unwrap();
        }
        db.deploy(
            "DEPLOY demo AS SELECT userid, sum(price) OVER w AS total FROM actions \
             WINDOW w AS (PARTITION BY userid ORDER BY ts \
             ROWS_RANGE BETWEEN 250 PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let request = Row::new(vec![
            Value::Bigint(1),
            Value::string("c"),
            Value::Double(100.0),
            Value::Int(1),
            Value::Timestamp(2_000),
        ]);
        let out = db.request("demo", &request).unwrap();
        // Rows at ts 1800 (8.0), 1900 (9.0) + request 100.0.
        assert_eq!(out[1], Value::Double(117.0));
        // The request row was persisted: a second identical request sees it.
        let out2 = db.request_readonly("demo", &request).unwrap();
        assert_eq!(out2[1], Value::Double(217.0));
    }

    #[test]
    fn offline_and_online_results_are_consistent() {
        // The paper's core guarantee: one plan, identical results.
        let db = db_with_actions();
        for i in 0..50 {
            db.execute(&format!(
                "INSERT INTO actions VALUES ({}, 'c', {}.0, 1, {})",
                i % 3,
                i % 7,
                1_000 + i * 37
            ))
            .unwrap();
        }
        let sql = "SELECT userid, sum(price) OVER w AS s, count(price) OVER w AS c, \
                   avg(price) OVER w AS a FROM actions \
                   WINDOW w AS (PARTITION BY userid ORDER BY ts \
                   ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW)";
        db.deploy(&format!("DEPLOY consistency AS {sql}")).unwrap();
        let offline = db.offline_query(sql).unwrap();

        // For each historical row, online request-mode (readonly, with the
        // stored row excluded... the row IS stored, so the online window
        // already contains it; readonly request of the same tuple would
        // double-count. Instead verify the *next* tuple matches.)
        let probe = Row::new(vec![
            Value::Bigint(1),
            Value::string("c"),
            Value::Double(3.0),
            Value::Int(1),
            Value::Timestamp(9_999),
        ]);
        let online = db.request_readonly("consistency", &probe).unwrap();
        // Offline equivalent: append the probe row and re-run the batch.
        db.insert_row("actions", &probe).unwrap();
        let offline2 = db.offline_query(sql).unwrap();
        let last = offline2
            .rows
            .iter()
            .find(|r| r[0] == Value::Bigint(1) && r[2] == online[2])
            .expect("probe row present in batch output");
        assert_eq!(&online, last, "offline and online agree on the same tuple");
        assert!(offline.rows.len() < offline2.rows.len());
    }

    #[test]
    fn deploy_auto_creates_missing_index() {
        let db = Database::new();
        // Table with only the default index on userid; the query partitions
        // by category.
        db.execute(
            "CREATE TABLE actions (userid BIGINT, category STRING, price DOUBLE, \
             quantity INT, ts TIMESTAMP, INDEX(KEY=userid, TS=ts))",
        )
        .unwrap();
        db.execute("INSERT INTO actions VALUES (1, 'x', 5.0, 1, 100)")
            .unwrap();
        db.deploy(
            "DEPLOY by_cat AS SELECT count(price) OVER w AS c FROM actions \
             WINDOW w AS (PARTITION BY category ORDER BY ts \
             ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let request = Row::new(vec![
            Value::Bigint(2),
            Value::string("x"),
            Value::Double(1.0),
            Value::Int(1),
            Value::Timestamp(200),
        ]);
        let out = db.request_readonly("by_cat", &request).unwrap();
        assert_eq!(
            out[0],
            Value::Bigint(2),
            "pre-existing row found via rebuilt index"
        );
    }

    #[test]
    fn deploy_with_long_windows_builds_preagg() {
        let db = db_with_actions();
        for i in 0..100 {
            db.execute(&format!(
                "INSERT INTO actions VALUES (1, 'c', 1.0, 1, {})",
                i * 1_000
            ))
            .unwrap();
        }
        db.deploy(
            "DEPLOY lw OPTIONS(long_windows=\"w1:10s\") AS \
             SELECT sum(price) OVER w1 AS s FROM actions \
             WINDOW w1 AS (PARTITION BY userid ORDER BY ts \
             ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let dep = db.deployment("lw").unwrap();
        let preagg = dep.preaggs[0].as_ref().expect("preagg created");
        let request = Row::new(vec![
            Value::Bigint(1),
            Value::string("c"),
            Value::Double(0.0),
            Value::Int(1),
            Value::Timestamp(100_000),
        ]);
        let out = db.request_readonly("lw", &request).unwrap();
        assert_eq!(
            out[0],
            Value::Double(100.0),
            "backfilled buckets cover history"
        );
        assert!(
            preagg.queries() > 0,
            "request used the pre-aggregation path"
        );
    }

    #[test]
    fn preview_mode_caps_rows_and_complexity() {
        let db = db_with_actions();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO actions VALUES (1, 'c', 1.0, 1, {i})"))
                .unwrap();
        }
        let batch = db.preview("SELECT userid FROM actions", 5).unwrap();
        assert_eq!(batch.rows.len(), 5);
        let err = db
            .preview(
                "SELECT count(price) OVER w AS c FROM actions WINDOW w AS \
                 (PARTITION BY userid, category, quantity ORDER BY ts \
                 ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
                5,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn plan_cache_reuses_compilations() {
        let db = db_with_actions();
        db.execute("INSERT INTO actions VALUES (1, 'c', 1.0, 1, 100)")
            .unwrap();
        db.offline_query("SELECT userid FROM actions").unwrap();
        db.offline_query("select userid  from actions;").unwrap();
        let (hits, misses) = db.plan_cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn insert_coerces_literals_to_schema_types() {
        let db = db_with_actions();
        // INT literal into DOUBLE column, etc.
        db.execute("INSERT INTO actions VALUES (1, 'c', 5, 1, 100)")
            .unwrap();
        let ExecResult::Batch(b) = db.execute("SELECT price FROM actions").unwrap() else {
            panic!()
        };
        assert_eq!(b.rows[0][0], Value::Double(5.0));
        // Arity mismatch is an error.
        assert!(db.execute("INSERT INTO actions VALUES (1, 'c')").is_err());
    }

    #[test]
    fn gc_applies_ttl() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE ev (k BIGINT, ts TIMESTAMP, \
             INDEX(KEY=k, TS=ts, TTL=100, TTL_TYPE=absolute))",
        )
        .unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO ev VALUES (1, {})", i * 50))
                .unwrap();
        }
        let removed = db.gc(1_000);
        assert!(removed > 0);
    }
}

#[cfg(test)]
mod explain_and_cache_tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE t (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
            .unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES (1, {i}.0, {i})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn explain_renders_plan_tree() {
        let db = db();
        let ExecResult::Plan(plan) = db
            .execute(
                "EXPLAIN SELECT k, sum(v) OVER w1 AS a, count(v) OVER w2 AS b FROM t \
                 WINDOW w1 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW), \
                        w2 AS (PARTITION BY v ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)",
            )
            .unwrap()
        else {
            panic!("expected plan")
        };
        assert!(plan.contains("ConcatJoin"), "{plan}");
        assert!(plan.contains("TableScan t"), "{plan}");
    }

    #[test]
    fn replicate_and_promote_on_failover() {
        let db = db();
        let replica = db.replicate_table("t").unwrap();
        db.execute("INSERT INTO t VALUES (1, 99.0, 99)").unwrap();
        replica.sync();
        assert_eq!(replica.applied_rows(), 11);
        // "Failover": promote the replica into a fresh catalog and serve.
        let standby = Database::new();
        standby.register_table(replica.table()).unwrap();
        let ExecResult::Batch(b) = standby.execute("SELECT k FROM t_replica").unwrap() else {
            panic!()
        };
        assert_eq!(b.rows.len(), 11);
    }

    #[test]
    fn enable_failover_registers_fallback_and_promotes() {
        let db = db();
        db.enable_failover("t").unwrap();
        db.enable_failover("t").unwrap(); // idempotent
        db.execute("INSERT INTO t VALUES (1, 50.0, 50)").unwrap();

        // The provider hands out a caught-up replica for the read path.
        let fb = db.fallback_table("t").expect("failover replica registered");
        assert_eq!(fb.row_count(), 11, "fallback synced before serving");
        assert_eq!(db.replica_lag("t"), Some(0));
        assert!(db.fallback_table("unknown").is_none());

        // Permanent promotion swaps the catalog entry; reads and writes
        // keep working against the promoted table.
        db.promote_replica("t").unwrap();
        assert!(
            db.fallback_table("t").is_none(),
            "registration dropped after promotion"
        );
        db.execute("INSERT INTO t VALUES (2, 60.0, 60)").unwrap();
        let ExecResult::Batch(b) = db.execute("SELECT k FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(b.rows.len(), 12);
        assert!(db.promote_replica("t").is_err(), "no replica left");
    }

    /// A deployment reads the handles it was bound to, so replacing a table
    /// it reads must re-bind it: after the swap, the first deployment sees
    /// rows inserted into the *new* table.
    #[test]
    fn deployments_follow_a_replaced_table() {
        let db = db();
        db.deploy(
            "DEPLOY first AS SELECT k, count(v) OVER w AS c FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts \
             ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let request = Row::new(vec![
            Value::Bigint(1),
            Value::Double(0.0),
            Value::Timestamp(500),
        ]);
        let count = || db.request_readonly("first", &request).unwrap()[1].clone();
        assert_eq!(count(), Value::Bigint(11));
        let bound = |name: &str| db.deployment(name).unwrap();
        let before = bound("first");

        // A second DEPLOY partitions by `v`: `t` is rebuilt with the extra
        // index and `first` is swapped for a deployment bound to the rebuild.
        db.deploy(
            "DEPLOY second AS SELECT count(k) OVER w AS c FROM t \
             WINDOW w AS (PARTITION BY v ORDER BY ts \
             ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&before, &bound("first")), "re-bound");
        assert!(Arc::ptr_eq(&before.query, &bound("first").query));
        assert!(Arc::ptr_eq(before.program(), bound("first").program()));
        db.execute("INSERT INTO t VALUES (1, 50.0, 50)").unwrap();
        assert_eq!(count(), Value::Bigint(12), "insert after the rebuild");

        // Replica promotion swaps the table again.
        db.enable_failover("t").unwrap();
        db.promote_replica("t").unwrap();
        db.execute("INSERT INTO t VALUES (1, 60.0, 60)").unwrap();
        assert_eq!(count(), Value::Bigint(13), "insert after the promotion");

        // So does registering a pre-built table under the same name; one
        // the deployments cannot read is refused and changes nothing.
        let schema = db.table("t").unwrap().schema().clone();
        let index = |key_cols| IndexSpec {
            name: "i".into(),
            key_cols,
            ts_col: Some(2),
            ttl: Ttl::Unlimited,
        };
        let unreadable = MemTable::new("t", schema.clone(), vec![index(vec![1])]).unwrap();
        let err = db.register_table(Arc::new(unreadable)).unwrap_err();
        assert!(matches!(err, Error::Deployment(_)), "{err:?}");
        assert_eq!(count(), Value::Bigint(13), "refused: still the old table");
        let empty = MemTable::new("t", schema, vec![index(vec![0]), index(vec![1])]).unwrap();
        db.register_table(Arc::new(empty)).unwrap();
        assert_eq!(count(), Value::Bigint(1), "only the request row");
    }

    /// A plan the catalog cannot serve is refused when it is bound, with a
    /// typed error, not when a request first reads through it.
    #[test]
    fn binding_refuses_a_missing_table_or_index() {
        let db = db();
        let query = db
            .cache
            .compile(
                "SELECT count(k) OVER w AS c FROM t WINDOW w AS (PARTITION BY v ORDER BY ts \
                 ROWS_RANGE BETWEEN 10 PRECEDING AND CURRENT ROW)",
                &db,
            )
            .unwrap();
        // No DEPLOY ran `ensure_indexes`: `t` has no index on `v`.
        let err = Deployment::new("unbound", query.clone(), &db)
            .err()
            .unwrap();
        assert!(
            matches!(&err, Error::Deployment(m) if m.contains("no index on `t`")),
            "{err:?}"
        );
        let nowhere = Database::new();
        let err = Deployment::new("unbound", query, &nowhere).err().unwrap();
        assert!(
            matches!(&err, Error::Deployment(m) if m.contains("unknown table `t`")),
            "{err:?}"
        );
    }

    #[test]
    fn request_readonly_with_defaults_matches_plain_request() {
        let db = db();
        db.deploy(
            "DEPLOY r AS SELECT k, sum(v) OVER w AS s FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts \
             ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let request = Row::new(vec![
            Value::Bigint(1),
            Value::Double(5.0),
            Value::Timestamp(20),
        ]);
        let plain = db.request_readonly("r", &request).unwrap();
        let out = db
            .request_readonly_with("r", &request, &RequestOptions::default())
            .unwrap();
        assert_eq!(out.row, plain);
        assert!(!out.degraded);
        assert_eq!(out.retries, 0);
        assert_eq!(out.failovers, 0);
    }

    #[test]
    fn bounded_deadline_request_succeeds_within_budget() {
        let db = db();
        db.deploy(
            "DEPLOY d AS SELECT count(v) OVER w AS c FROM t \
             WINDOW w AS (PARTITION BY k ORDER BY ts \
             ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
        let request = Row::new(vec![
            Value::Bigint(1),
            Value::Double(5.0),
            Value::Timestamp(20),
        ]);
        let opts = RequestOptions::with_deadline(std::time::Duration::from_secs(5));
        let out = db.request_readonly_with("d", &request, &opts).unwrap();
        assert!(!out.degraded, "healthy path never degrades");
    }

    #[test]
    fn preview_cache_hits_until_write_invalidates() {
        let db = db();
        let sql = "SELECT k, v FROM t";
        let a = db.preview(sql, 5).unwrap();
        assert_eq!(db.preview_cache_hits(), 0);
        let b = db.preview(sql, 5).unwrap();
        assert_eq!(
            db.preview_cache_hits(),
            1,
            "second preview served from cache"
        );
        assert_eq!(a.rows, b.rows);
        // Different cap reuses the same cached full result.
        let c = db.preview(sql, 2).unwrap();
        assert_eq!(c.rows.len(), 2);
        assert_eq!(db.preview_cache_hits(), 2);
        // A write bumps the table version and invalidates.
        db.execute("INSERT INTO t VALUES (2, 99.0, 99)").unwrap();
        let d = db.preview(sql, 20).unwrap();
        assert_eq!(db.preview_cache_hits(), 2, "post-write preview recomputes");
        assert_eq!(d.rows.len(), 11);
    }
}
