//! The traced phase (`--trace 1`): replay operations with spans around the
//! real call and around one *layer probe* per layer — the public call that
//! layer would make for this operation, re-issued by the benchmark with the
//! same inputs — and turn the spans into the per-layer metrics.
//!
//! Every probe runs on every workload's own shape (schema, data, feature
//! script), so each workload reports every layer's number for its shape.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmldb_core::Database;
use openmldb_exec::{supports_preagg, Program};
use openmldb_obs::Registry;
use openmldb_offline::{
    concat_join, execute_batch, sweep_window, OfflineOptions, SkewConfig, Tables, WindowExecMode,
};
use openmldb_online::{PreAggregator, TableProvider};
use openmldb_sql::ast::{Frame, Statement};
use openmldb_sql::plan::{BoundAggregate, CompiledQuery};
use openmldb_sql::{compile_select, parse_select, parse_statement, PlanCache};
use openmldb_storage::{wal, LogEntry, MemTable, Wal};
use openmldb_types::{CompactCodec, KeyValue, RowCodec, Value};

use crate::bench::{self, err, metric, serve_clients, ClientRun, Outcome, RunArgs, Tally, TempDir};
use crate::gen::{Kind, Shape, DEPLOYMENT, QUICK_DIVISOR};
use crate::json::Json;
use crate::replay::{project, replay_requests, Replay};
use crate::stats::{median, percentile, quiet_ns_per_op, tail_latency, typical_latency};
use crate::trace::{self, Span, Tracer};

/// Median ns per call of `f`, from `samples` timings of `inner` calls each
/// (one clock read pair per `inner` calls, so a 30 ns call is not measured
/// as the clock's own 25 ns).
fn sample_ns(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&per_call)
}

fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

fn counter(name: &str) -> u64 {
    Registry::global().counter(name, "read by omlbench").value()
}

/// The process-global counters the traced phase reads as deltas.
#[derive(Clone, Copy)]
struct Counters {
    requests: u64,
    scan_rows: u64,
    seeks: u64,
    compiled: u64,
    fallback: u64,
    preagg_hits: u64,
    preagg_skips: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            requests: counter("openmldb_online_requests_total"),
            scan_rows: counter("openmldb_online_scan_rows"),
            seeks: counter("openmldb_storage_seeks_total"),
            compiled: counter("openmldb_online_compiled_windows_total"),
            fallback: counter("openmldb_online_compiled_fallback_total"),
            preagg_hits: counter("openmldb_online_preagg_hits_total"),
            preagg_skips: counter("openmldb_online_preagg_skips_total"),
            wal_bytes: counter("openmldb_storage_wal_bytes_total"),
            wal_fsyncs: counter("openmldb_storage_wal_fsyncs_total"),
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// ------------------------------------------------------------ put probe ---

/// Numbers of the write-path probe (a standalone durable database fed a
/// prefix of the workload's base table).
struct PutPhase {
    spans: Vec<Span>,
    tally: Tally,
    backlog_max_rows: f64,
    drain_ms: f64,
    fsyncs_per_krow: f64,
    wal_bytes_per_user_byte: f64,
    wal_read_ms_per_mb: f64,
    recover_ms_per_mb: f64,
    recover_replay_share: f64,
    preagg_query_us: f64,
}

/// A pre-aggregator for the first range window of the plan, over the
/// aggregates of that window that decompose. `bucket_ms` follows the
/// deployment's `long_windows` option when it has one, else a tenth of the
/// frame; the three levels mirror what DEPLOY builds around a bucket.
fn standalone_preagg(
    q: &CompiledQuery,
    deploy_sql: &str,
) -> Result<(usize, i64, Arc<PreAggregator>), String> {
    let by_window = q.aggregates_by_window();
    let (wid, frame_ms) = q
        .windows
        .iter()
        .enumerate()
        .find_map(|(wid, w)| match w.frame {
            Frame::RowsRange { preceding_ms } if !by_window[wid].is_empty() => {
                Some((wid, preceding_ms))
            }
            _ => None,
        })
        .ok_or("plan has no range window to pre-aggregate")?;
    let aggs: Vec<BoundAggregate> = by_window[wid]
        .iter()
        .map(|&i| q.aggregates[i].clone())
        .filter(|a| supports_preagg(a.func))
        .collect();
    let declared = match parse_statement(deploy_sql).map_err(err("parse deploy"))? {
        Statement::Deploy(stmt) => stmt.long_windows().into_iter().next(),
        _ => None,
    };
    let bucket_ms = match declared {
        Some((_, bucket)) => {
            openmldb_sql::interval::parse_interval(&bucket).map_err(err("bucket"))?
        }
        None => (frame_ms / 10).max(1),
    };
    let levels = vec![
        (bucket_ms / 24).max(1),
        bucket_ms,
        bucket_ms.saturating_mul(30),
    ];
    let preagg = PreAggregator::new(&q.windows[wid], &aggs, levels).map_err(err("preagg"))?;
    Ok((wid, frame_ms, preagg))
}

fn put_probe(shape: &Shape, rows: usize, epoch: Instant) -> Result<PutPhase, String> {
    let base = &shape.tables[0];
    let rows = &base.rows[..rows.min(base.rows.len())];
    let dir = TempDir::new("probe")?;
    let db_dir = dir.path().join("db");

    // Same DDL and DEPLOY on an empty base table, so the rows below travel
    // put → WAL → binlog → (async) pre-agg update exactly as live ingest.
    let empty = Shape {
        tables: shape
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| crate::gen::TableData {
                name: t.name,
                ddl: t.ddl.clone(),
                rows: if i == 0 { Vec::new() } else { t.rows.clone() },
            })
            .collect(),
        select_sql: shape.select_sql.clone(),
        deploy_options: shape.deploy_options,
        requests: Vec::new(),
        stream: Vec::new(),
    };
    let (db, _) = bench::load(&empty, Some(&db_dir), &mut bench::Pieces::start())?;
    let table = db.table(base.name).ok_or("probe table missing")?;
    let dep = db
        .deployment(DEPLOYMENT)
        .ok_or("probe deployment missing")?;
    let q = dep.query.clone();
    let codec = CompactCodec::new(table.schema().clone());
    let mem = MemTable::new("probe_mem", table.schema().clone(), table.index_specs())
        .map_err(err("standalone table"))?;
    let (preagg_wid, preagg_frame_ms, preagg) =
        standalone_preagg(&q, &shape.deploy_sql(DEPLOYMENT))?;

    let mut tr = Tracer::new(epoch, 10_000_000, rows.len() * 5 + 16);
    let mut tally = Tally::default();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(rows.len());
    let mut backlog_max = 0u64;
    let before = Counters::read();
    // The real puts run back to back, as a closed-loop writer issues them:
    // probes between them would hand the binlog applier time to catch up
    // and hide the backlog this phase is here to see.
    let mut first_req = 0;
    for (i, row) in rows.iter().enumerate() {
        let root = tr.root("put");
        if i == 0 {
            first_req = tr.req_of(root);
        }
        let acked = tr.span("core.insert_row", root, || {
            (db.insert_row(base.name, row), 1)
        });
        tr.close(root, 1);
        tally.record(acked.is_ok());
        if (i + 1) % bench::BACKLOG_SAMPLE_EVERY == 0 {
            backlog_max = backlog_max.max(table.replicator().undelivered());
        }
    }
    let t0 = Instant::now();
    table.replicator().flush();
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    db.sync_durable().map_err(err("sync"))?;
    let after = Counters::read();
    for (i, row) in rows.iter().enumerate() {
        let root = tr.root_of("put.probes", first_req + i as u32);
        let bytes = tr.span("types.encode", root, || (codec.encode(row), 1));
        let stored = tr.span("storage.put", root, || (mem.put(row), 1));
        let folded = tr.span("online.preagg_ingest", root, || (preagg.ingest(row), 1));
        tr.close(root, 1);
        tally.record(stored.is_ok() && folded.is_ok() && bytes.is_ok());
        encoded.push(bytes.unwrap_or_default());
    }
    let user_bytes: usize = encoded.iter().map(Vec::len).sum();

    // Pre-agg lookup on the standalone hierarchy, raw edges from the table.
    let window = &q.windows[preagg_wid];
    let index = table
        .find_index(&window.partition_cols, Some(window.order_col))
        .ok_or("no window index on probe table")?;
    let newest = rows.last().map_or(0, |r| r.ts_at(window.order_col));
    let mut next = 0usize;
    let preagg_query_ns = sample_ns(64, 8, || {
        let row = &rows[next % rows.len()];
        next += 1;
        let key = row.key_for(&window.partition_cols);
        black_box(
            preagg
                .query(&key, newest - preagg_frame_ms, newest, |lo, hi| {
                    Ok(table
                        .range_projected(index, &key, lo, hi, None)?
                        .into_iter()
                        .map(|(_, r)| r)
                        .collect())
                })
                .ok(),
        );
    });

    // A private WAL, appended to in the binlog's own record format.
    let (probe_wal, _) = Wal::open(dir.path().join("wal-probe"), bench::durability().wal)
        .map_err(err("open probe wal"))?;
    let table_name: Arc<str> = Arc::from(base.name);
    let primary = table.index_specs().swap_remove(0);
    for (i, (row, bytes)) in rows.iter().zip(encoded).enumerate() {
        let entry = LogEntry {
            offset: i as u64,
            table: table_name.clone(),
            key: Arc::from(row.key_for(&primary.key_cols).into_boxed_slice()),
            ts: primary.ts_col.map_or(0, |c| row.ts_at(c)),
            data: Arc::from(bytes.into_boxed_slice()),
        };
        let root = tr.root("wal");
        let appended = tr.span("storage.wal_append", root, || (probe_wal.append(&entry), 1));
        tr.close(root, 1);
        tally.record(appended.is_ok());
    }
    drop(probe_wal);

    // Recovery of what was just written: WAL read alone, then the whole.
    let digest = db.table_digest(base.name).map_err(err("digest"))?;
    let count = table.row_count();
    drop((table, dep));
    drop(db);
    let wal_dir = db_dir.join("wal").join(base.name);
    let wal_mb = bench::dir_bytes(&wal_dir) as f64 / (1024.0 * 1024.0);
    let t0 = Instant::now();
    let scan = wal::read_dir(&wal_dir).map_err(err("wal read"))?;
    let read_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.record(scan.records.len() == count);
    drop(scan);
    let all_mb = bench::dir_bytes(&db_dir.join("wal")) as f64 / (1024.0 * 1024.0);
    let t0 = Instant::now();
    let recovered = bench::recover(&db_dir);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.record(recovered.is_ok_and(|db| {
        db.table_digest(base.name).ok() == Some(digest) && bench::row_count(&db, base.name) == count
    }));

    Ok(PutPhase {
        spans: tr.into_spans(),
        tally,
        backlog_max_rows: backlog_max as f64,
        drain_ms,
        fsyncs_per_krow: (after.wal_fsyncs - before.wal_fsyncs) as f64 * 1e3 / rows.len() as f64,
        wal_bytes_per_user_byte: (after.wal_bytes - before.wal_bytes) as f64 / user_bytes as f64,
        wal_read_ms_per_mb: read_ms / wal_mb,
        recover_ms_per_mb: recover_ms / all_mb,
        recover_replay_share: 1.0 - read_ms / recover_ms,
        preagg_query_us: preagg_query_ns / 1e3,
    })
}

// -------------------------------------------------------- offline probe ---

struct OfflinePhase {
    spans: Vec<Span>,
    tally: Tally,
    serial_ms: f64,
    skew_speedup: f64,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn offline_probe(
    db: &Database,
    shape: &Shape,
    rows: usize,
    batches: usize,
    epoch: Instant,
) -> Result<OfflinePhase, String> {
    let dep = db.deployment(DEPLOYMENT).ok_or("deployment missing")?;
    let q = &dep.query;
    let mut tables = Tables::new();
    for (i, t) in shape.tables.iter().enumerate() {
        let take = if i == 0 {
            rows.min(t.rows.len())
        } else {
            t.rows.len()
        };
        tables.insert(t.name.to_string(), t.rows[..take].to_vec());
    }
    let base = &tables[shape.tables[0].name];
    let cache = PlanCache::new();
    cache.compile(&shape.select_sql, db).map_err(err("plan"))?;
    let by_window = q.aggregates_by_window();
    let opts = OfflineOptions::default();

    let mut tr = Tracer::new(epoch, 20_000_000, batches * 8 + 16);
    let mut tally = Tally::default();
    for _ in 0..batches {
        let root = tr.root("offline");
        let plan = tr.span("sql.cache_hit", root, || {
            (cache.compile(&shape.select_sql, db), 1)
        });
        let batch = tr.span("offline.execute_batch", root, || {
            (execute_batch(q, &tables, &opts), base.len())
        });
        let mut window_results = Vec::new();
        for (wid, window) in q.windows.iter().enumerate() {
            if by_window[wid].is_empty() {
                continue;
            }
            let swept = tr.span("offline.sweep_window", root, || {
                (
                    sweep_window(
                        q,
                        window,
                        &tables,
                        base,
                        &by_window[wid],
                        WindowExecMode::Incremental,
                    ),
                    base.len(),
                )
            });
            window_results.push(swept.map_err(err("sweep"))?);
        }
        let joined = tr.span("offline.concat_join", root, || {
            (concat_join(base, &window_results), base.len())
        });
        tr.close(root, base.len());
        tally.record(
            plan.is_ok()
                && joined.len() == base.len()
                && batch.is_ok_and(|b| b.rows.len() == base.len()),
        );
    }

    let reps = batches.clamp(3, 5);
    let timed = |opts: &OfflineOptions| -> Result<f64, String> {
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (out, t) = time_ms(|| execute_batch(q, &tables, opts));
            out.map_err(err("offline variant"))?;
            ms.push(t);
        }
        Ok(median(&ms))
    };
    let serial_ms = timed(&OfflineOptions {
        parallel_windows: false,
        threads: 1,
        ..OfflineOptions::default()
    })?;
    let skew_off = timed(&opts)?;
    let skew_on = timed(&OfflineOptions {
        skew: Some(SkewConfig::default()),
        ..OfflineOptions::default()
    })?;
    Ok(OfflinePhase {
        spans: tr.into_spans(),
        tally,
        serial_ms,
        skew_speedup: skew_off / skew_on,
    })
}

// ------------------------------------------------------- one-off probes ---

struct OneOff {
    parse_us: f64,
    compile_us: f64,
    cache_hit_us: f64,
    specialize_us: f64,
    lookup_ns: f64,
    latest_ns: f64,
    seek_ns: f64,
    scan_all_ms: f64,
    view_ns_per_row: f64,
    decode_ns_per_row: f64,
    scalar_ns_per_expr: f64,
    scan_ns_per_row: f64,
    fold_compiled_ns_per_row: f64,
    fold_interp_ns_per_row: f64,
}

/// `sum/count/max` of the first DOUBLE column over window `wid`'s frame.
fn compiled_probe_sql(q: &CompiledQuery, wid: usize) -> Option<String> {
    let schema = &q.base_schema;
    let window = q.windows.get(wid)?;
    let Frame::RowsRange { preceding_ms } = window.frame else {
        return None;
    };
    let value = schema
        .columns()
        .iter()
        .find(|c| c.data_type == openmldb_types::DataType::Double)?;
    let keys: Vec<&str> = window
        .partition_cols
        .iter()
        .map(|&c| schema.column(c).name.as_str())
        .collect();
    Some(format!(
        "SELECT sum({v}) OVER w AS s, count({v}) OVER w AS c, max({v}) OVER w AS m FROM {t} \
         WINDOW w AS (PARTITION BY {k} ORDER BY {o} \
         ROWS_RANGE BETWEEN {preceding_ms} PRECEDING AND CURRENT ROW)",
        v = value.name,
        t = q.base_table,
        k = keys.join(", "),
        o = schema.column(window.order_col).name,
    ))
}

fn one_off_probes(db: &Database, shape: &Shape, quick: bool) -> Result<OneOff, String> {
    let reps = if quick { 8 } else { 64 };
    let dep = db.deployment(DEPLOYMENT).ok_or("deployment missing")?;
    let q = dep.query.clone();
    let deploy_sql = shape.deploy_sql(DEPLOYMENT);
    let select = parse_select(&shape.select_sql).map_err(err("parse select"))?;

    let parse_ns = sample_ns(reps, 1, || {
        black_box(parse_statement(black_box(&deploy_sql)).ok());
    });
    let compile_ns = sample_ns(reps, 1, || {
        black_box(compile_select(black_box(&select), db).ok());
    });
    let cache = PlanCache::new();
    cache.compile(&shape.select_sql, db).map_err(err("plan"))?;
    let cache_hit_ns = sample_ns(reps, 4, || {
        black_box(cache.compile(black_box(&shape.select_sql), db).ok());
    });
    let specialize_ns = sample_ns(reps, 1, || {
        black_box(Program::compile(black_box(&q)));
    });
    let lookup_ns = sample_ns(reps, 256, || {
        black_box(db.deployment(black_box(DEPLOYMENT)));
    });

    // Head read and seek on the base table's window index, cycling the
    // ring's keys and timestamps.
    let base = db.table(&q.base_table).ok_or("base table missing")?;
    let window = &q.windows[0];
    let index = base
        .find_index(&window.partition_cols, Some(window.order_col))
        .ok_or("no window index")?;
    let keys: Vec<(Vec<KeyValue>, i64)> = shape
        .requests
        .iter()
        .take(1_024)
        .map(|r| (r.key_for(&window.partition_cols), r.ts_at(window.order_col)))
        .collect();
    let mut next = 0usize;
    let latest_ns = sample_ns(reps, 64, || {
        let (key, _) = &keys[next % keys.len()];
        next += 1;
        black_box(base.latest(index, key).ok());
    });
    // A seek is a window scan that stops at the first row it reaches.
    let seek_ns = sample_ns(reps, 64, || {
        let (key, ts) = &keys[next % keys.len()];
        next += 1;
        let _ = base.scan_window(index, key, i64::MIN, *ts, None, &mut |_, data| {
            black_box(data);
            false
        });
    });
    let scan_all_ms = {
        let mut ms = Vec::new();
        for _ in 0..3 {
            let (rows, t) = time_ms(|| base.scan_all(0));
            black_box(rows.map_err(err("scan_all"))?);
            ms.push(t);
        }
        median(&ms)
    };

    // Row codec: borrowed view of the columns the aggregates read, and the
    // full decode the offline snapshot and recovery pay.
    let codec = CompactCodec::new(q.base_schema.clone());
    let sample: Vec<Vec<u8>> = shape.tables[0]
        .rows
        .iter()
        .take(512)
        .map(|r| codec.encode(r).map_err(err("encode")))
        .collect::<Result<_, _>>()?;
    let mut read_cols = Vec::new();
    for agg in &q.aggregates {
        for arg in &agg.args {
            arg.collect_columns(&mut read_cols);
        }
    }
    read_cols.sort_unstable();
    read_cols.dedup();
    read_cols.retain(|&c| c < q.base_schema.len());
    let view_ns = sample_ns(reps, 1, || {
        for bytes in &sample {
            if let Ok(view) = codec.view(bytes) {
                for &c in &read_cols {
                    black_box(view.get(c).ok());
                }
            }
        }
    }) / sample.len() as f64;
    let decode_ns = sample_ns(reps, 1, || {
        for bytes in &sample {
            black_box(codec.decode(bytes).ok());
        }
    }) / sample.len() as f64;

    // Scalar evaluation: one select-list expression at a time.
    let request = &shape.requests[0];
    let mut combined: Vec<Value> = request.values().to_vec();
    combined.resize(q.combined_schema.len(), Value::Null);
    let answer = db
        .request_readonly(DEPLOYMENT, request)
        .map_err(err("request"))?;
    // Aggregate slots are only read through AggRef; the served answer's own
    // values are realistic stand-ins of the right types where they line up.
    let agg_values: Vec<Value> = q
        .aggregates
        .iter()
        .enumerate()
        .map(|(i, _)| {
            q.select
                .iter()
                .position(|c| matches!(c.expr, openmldb_sql::PhysExpr::AggRef(a) if a == i))
                .map_or(Value::Double(1.0), |pos| answer[pos].clone())
        })
        .collect();
    let mut stack = Vec::new();
    let exprs = q.select.len();
    let scalar_ns = sample_ns(reps, 4, || {
        black_box(project(&dep, &combined, &agg_values, &mut stack).ok());
    }) / exprs as f64;

    // The scan and both folds on this shape's first range window, for
    // workloads whose own requests do not exercise one of them (a pre-agg
    // served window is never scanned; a compiled window is never interpreted).
    let mut replay = Replay::new(db)?;
    let wid = q
        .windows
        .iter()
        .position(|w| matches!(w.frame, Frame::RowsRange { .. }))
        .unwrap_or(0);
    let aggs: Vec<&BoundAggregate> = replay.by_window[wid]
        .iter()
        .map(|&i| &q.aggregates[i])
        .collect();
    // A compiled three-kernel plan over the same window: the fold this shape
    // would get if its own deployment compiles no window.
    let probe_program = match compiled_probe_sql(&q, wid) {
        Some(sql) => {
            let plan = compile_select(&parse_select(&sql).map_err(err("probe sql"))?, db)
                .map_err(err("probe plan"))?;
            Some(Program::compile(&plan)).filter(|p| p.window(0).is_some())
        }
        None => None,
    };
    let probe_program = probe_program.ok_or("compiled-fold probe plan did not compile")?;
    let (mut scan, mut compiled, mut interp) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::new();
    for request in shape.requests.iter().take(reps * 2) {
        let t0 = Instant::now();
        let rows = replay.scan(wid, request)?;
        let scan_ns = t0.elapsed().as_nanos() as f64;
        scan.push((scan_ns - seek_ns).max(0.0) / rows.max(1) as f64);
        out.clear();
        let t0 = Instant::now();
        // The probe plan has one window; fold state lives in slot 0.
        let fed = replay.fold_compiled(&probe_program, 0, request, &mut out)?;
        compiled.push(t0.elapsed().as_nanos() as f64 / fed.max(1) as f64);
        out.clear();
        let t0 = Instant::now();
        let fed = replay.fold_interp(&aggs, wid, request, &mut out)?;
        interp.push(t0.elapsed().as_nanos() as f64 / fed.max(1) as f64);
    }

    Ok(OneOff {
        parse_us: parse_ns / 1e3,
        compile_us: compile_ns / 1e3,
        cache_hit_us: cache_hit_ns / 1e3,
        specialize_us: specialize_ns / 1e3,
        lookup_ns,
        latest_ns,
        seek_ns,
        scan_all_ms,
        view_ns_per_row: view_ns,
        decode_ns_per_row: decode_ns,
        scalar_ns_per_expr: scalar_ns,
        scan_ns_per_row: median(&scan),
        fold_compiled_ns_per_row: median(&compiled),
        fold_interp_ns_per_row: median(&interp),
    })
}

// ---------------------------------------------------------- traced run ---

fn quick_scaled(n: usize, quick: bool, floor: usize) -> usize {
    if quick {
        (n / QUICK_DIVISOR).max(floor)
    } else {
        n
    }
}

fn qps(runs: &[ClientRun]) -> f64 {
    runs.iter().map(|r| 1e9 / quiet_ns_per_op(&r.lat_ns)).sum()
}

/// Total self time per span name, ms: where the traced phase's time went
/// once every span's children are taken out of it.
fn self_time_by_name(spans: &[Span]) -> Vec<(String, Json)> {
    let self_ns = trace::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += self_ns.get(&s.id).copied().unwrap_or(0);
    }
    by_name
        .into_iter()
        .map(|(name, ns)| (name.to_string(), Json::Num(ns as f64 / 1e6)))
        .collect()
}

/// In-request probe spans when the workload's requests exercise that layer,
/// else the same probe run on its own on this workload's rows.
fn pick(in_request: Vec<f64>, standalone: f64) -> f64 {
    if in_request.is_empty() {
        standalone
    } else {
        median(&in_request)
    }
}

/// The `--trace 1` run: one set-up, the output checks, an untraced burst
/// (tracing-overhead baseline and registry counts), then the traced request,
/// put and offline replays and the one-off probes.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let quick = args.quick;
    // The traced phase drives requests, puts and batches itself; it needs no
    // ingest stream.
    let shape = crate::gen::shape(w, args.seed, quick, 0);
    let clients = match w.kind {
        Kind::Serve { clients } => clients,
        _ => 1,
    };
    let per_client = (quick_scaled(w.traced_ops, quick, 64) / clients).max(16);
    let (loaded, _) = bench::setup(args, &shape, bench::timed_ops(args))?;
    let mut tally = bench::pre_checks(args, &loaded, &shape)?;
    let db = &loaded.db;
    let ring = &shape.requests;
    let budget = Duration::from_secs(60);
    let epoch = Instant::now();

    // Untraced: the same requests the traced replay will issue. Registry
    // deltas are taken here, where only real calls touch the counters.
    let before = Counters::read();
    let burst = serve_clients(db, ring, clients, per_client, per_client, budget);
    let after = Counters::read();
    burst.iter().for_each(|r| tally.add(r.tally));
    let per_client_rate = qps(&burst) / clients as f64;
    let untraced: Vec<Vec<u32>> = burst.into_iter().map(|r| r.lat_ns).collect();
    let untraced_p50 = typical_latency(&untraced);
    let requests = after.requests - before.requests;

    // One client against two on the same stream: 1.0 is perfect scaling.
    // Bursts under ~half a second scale worse than long ones on the sandbox
    // (the second vCPU takes that long to come up to speed), so size them in
    // seconds of the request rate just measured, not in traced operations.
    let scale_ops = quick_scaled((per_client_rate * 0.75) as usize, quick, 16);
    let qps_1t = qps(&serve_clients(db, ring, 1, scale_ops, scale_ops, budget));
    let qps_2t = qps(&serve_clients(db, ring, 2, scale_ops, scale_ops, budget));

    let req = replay_requests(db, ring, clients, per_client, epoch)?;
    let one = one_off_probes(db, &shape, quick)?;
    let probe_rows = quick_scaled(w.probe_rows, quick, 256);
    let put = put_probe(&shape, probe_rows, epoch)?;
    let off = offline_probe(db, &shape, probe_rows, if quick { 3 } else { 10 }, epoch)?;
    tally.add(req.tally);
    tally.add(put.tally);
    tally.add(off.tally);

    let base = db.table(shape.tables[0].name).ok_or("base table missing")?;
    let bytes_per_row = base.mem_used() as f64 / base.row_count().max(1) as f64;
    let (plan_hits, plan_misses) = db.plan_cache_stats();

    let spans = trace::merge(vec![req.spans, put.spans, off.spans]);
    let med = |name: &str| median_or_nan(&trace::durations(&spans, name));
    let request_ns = f64::from(percentile(&req.whole_ns, 50.0));
    // Against the untraced burst, quiet slices on both sides: the two phases
    // run at different times and may meet different host states.
    let overhead_share = (typical_latency(&[req.whole_ns]) - untraced_p50) / untraced_p50;
    let unattributed_ns = median(&req.unattributed_ns);
    let scan_ns_per_row: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "storage.scan" && s.n > 0)
        .map(|s| (s.duration_ns() as f64 - one.seek_ns).max(0.0) / f64::from(s.n))
        .collect();
    let execute_batch_ms = med("offline.execute_batch") / 1e6;

    let metrics = vec![
        metric("sql.parse_us", one.parse_us, "us"),
        metric("sql.compile_us", one.compile_us, "us"),
        metric("sql.cache_hit_us", one.cache_hit_us, "us"),
        metric(
            "sql.plan_cache_hit_share",
            share(plan_hits, plan_hits + plan_misses),
            "share",
        ),
        metric("core.deploy_ms", loaded.deploy_ms, "ms"),
        metric("core.lookup_ns", one.lookup_ns, "ns"),
        metric("core.insert_row_us", med("core.insert_row") / 1e3, "us"),
        metric("core.recover_ms_per_mb", put.recover_ms_per_mb, "ms/MB"),
        metric(
            "core.recover_replay_share",
            put.recover_replay_share,
            "share",
        ),
        metric("online.request_us", request_ns / 1e3, "us"),
        metric(
            "online.request_tail_us",
            tail_latency(&untraced) / 1e3,
            "us",
        ),
        metric("online.unattributed_us", unattributed_ns / 1e3, "us"),
        metric(
            "online.unattributed_share",
            unattributed_ns / request_ns,
            "share",
        ),
        metric(
            "online.scan_rows_per_req",
            share(after.scan_rows - before.scan_rows, requests),
            "count",
        ),
        metric(
            "online.compiled_window_share",
            share(
                after.compiled - before.compiled,
                (after.compiled - before.compiled) + (after.fallback - before.fallback),
            ),
            "share",
        ),
        metric(
            "online.preagg_query_us",
            pick(
                trace::durations(&spans, "online.preagg_query"),
                put.preagg_query_us * 1e3,
            ) / 1e3,
            "us",
        ),
        metric("online.preagg_ingest_ns", med("online.preagg_ingest"), "ns"),
        metric(
            "online.preagg_hit_share",
            share(
                after.preagg_hits - before.preagg_hits,
                (after.preagg_hits - before.preagg_hits)
                    + (after.preagg_skips - before.preagg_skips),
            ),
            "share",
        ),
        metric("online.scaling_2t", qps_2t / (2.0 * qps_1t), "ratio"),
        metric("exec.specialize_us", one.specialize_us, "us"),
        metric(
            "exec.fold_compiled_ns_per_row",
            pick(
                trace::durations_per_unit(&spans, "exec.fold_compiled"),
                one.fold_compiled_ns_per_row,
            ),
            "ns",
        ),
        metric(
            "exec.fold_interp_ns_per_row",
            pick(
                trace::durations_per_unit(&spans, "exec.fold_interp"),
                one.fold_interp_ns_per_row,
            ),
            "ns",
        ),
        metric("exec.scalar_ns_per_expr", one.scalar_ns_per_expr, "ns"),
        metric("exec.output_ns", med("exec.output"), "ns"),
        metric("storage.seek_ns", one.seek_ns, "ns"),
        metric(
            "storage.scan_ns_per_row",
            pick(scan_ns_per_row, one.scan_ns_per_row),
            "ns",
        ),
        metric("storage.latest_ns", one.latest_ns, "ns"),
        metric(
            "storage.seeks_per_req",
            share(after.seeks - before.seeks, requests),
            "count",
        ),
        metric("storage.scan_all_ms", one.scan_all_ms, "ms"),
        metric("storage.put_ns", med("storage.put"), "ns"),
        metric("storage.bytes_per_row", bytes_per_row, "B"),
        metric("storage.wal_append_ns", med("storage.wal_append"), "ns"),
        metric("storage.wal_fsyncs_per_krow", put.fsyncs_per_krow, "count"),
        metric(
            "storage.wal_bytes_per_user_byte",
            put.wal_bytes_per_user_byte,
            "ratio",
        ),
        metric(
            "storage.wal_read_ms_per_mb",
            put.wal_read_ms_per_mb,
            "ms/MB",
        ),
        metric(
            "storage.binlog_backlog_max_rows",
            put.backlog_max_rows,
            "count",
        ),
        metric("storage.binlog_drain_ms", put.drain_ms, "ms"),
        metric("types.encode_ns", med("types.encode"), "ns"),
        metric("types.view_ns_per_row", one.view_ns_per_row, "ns"),
        metric("types.decode_ns_per_row", one.decode_ns_per_row, "ns"),
        metric("offline.execute_batch_ms", execute_batch_ms, "ms"),
        metric("offline.serial_ms", off.serial_ms, "ms"),
        metric(
            "offline.parallel_speedup",
            off.serial_ms / execute_batch_ms,
            "ratio",
        ),
        metric("offline.skew_speedup", off.skew_speedup, "ratio"),
        metric(
            "offline.sweep_window_ms",
            med("offline.sweep_window") / 1e6,
            "ms",
        ),
        metric(
            "offline.concat_join_ms",
            med("offline.concat_join") / 1e6,
            "ms",
        ),
        metric("trace.overhead_share", overhead_share, "share"),
        metric("trace.spans", spans.len() as f64, "count"),
    ];

    let out = bench::out_dir();
    std::fs::create_dir_all(&out).map_err(err("create out dir"))?;
    let trace_path = out.join(format!("trace-{}.json", w.name));
    trace::write_json(&spans, &trace_path).map_err(err("write trace"))?;

    let detail = vec![
        ("traced_requests", Json::Num((per_client * clients) as f64)),
        ("untraced_p50_us", Json::Num(untraced_p50 / 1e3)),
        ("qps_1t", Json::Num(qps_1t)),
        ("qps_2t", Json::Num(qps_2t)),
        (
            "fallback_reasons",
            Json::Arr({
                let dep = db.deployment(DEPLOYMENT).ok_or("deployment missing")?;
                (0..dep.query.windows.len())
                    .map(|wid| match dep.program().fallback_reason(wid) {
                        Some(reason) => Json::str(reason),
                        None => Json::Null,
                    })
                    .collect()
            }),
        ),
        ("self_time_ms", Json::Obj(self_time_by_name(&spans))),
        ("trace_file", Json::str(trace_path.display().to_string())),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}
