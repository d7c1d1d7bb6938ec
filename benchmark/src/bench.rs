//! One workload, one process: set-up, output checks, the untraced timed
//! phase and its end-to-end metrics. The traced phase lives in `probes`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use openmldb_core::{Database, DurabilityOptions};
use openmldb_offline::OfflineOptions;
use openmldb_online::{execute_request_materialized, TableProvider};
use openmldb_storage::WalOptions;
use openmldb_types::{Row, Value};

use crate::gen::{self, AnswersDigest, Kind, Shape, Workload, DEPLOYMENT, T1_ID, T1_KEY};
use crate::hostref::HostRef;
use crate::json::Json;
use crate::stats;

/// Arguments of one workload run (the driver's contract plus `--quick`).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back: the contract's four keys plus a detail document
/// (digests, counts) for `omlbench run` result files.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: Vec<(&'static str, Json)>,
}

/// Operation tallies of a phase; a wrong answer is a failed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set-ups per untraced run: at least the first number, then as many more as
/// start within the time below, up to the second (a 20 ms set-up needs more
/// repeats than a 500 ms one for a median that holds still). `setup_s` is
/// their median, piece by piece.
const SETUPS_PER_RUN: (usize, usize) = (5, 25);
const SETUPS_FILL: Duration = Duration::from_millis(1_500);
/// Requests answered by both the served path and the reference executor
/// before timing.
pub const REFERENCE_CHECKS: usize = 256;
/// The timed phase stops early once it has run this many times `--seconds`:
/// a safety net for a host several times slower than the sandbox, far enough
/// out that an ordinary slow spell never changes the operation count (and
/// with it `peak_rss_mb`).
const OVERRUN: f64 = 3.0;
/// One request after every this many puts on `ingest_mixed`.
const PUTS_PER_REQUEST: usize = 8;
/// Binlog backlog is sampled every this many puts.
pub const BACKLOG_SAMPLE_EVERY: usize = 1_024;
/// A put cannot be repeated, and the puts of a run are alike (one schema,
/// uniform keys, always the newest timestamp of their key), so they are dealt
/// round-robin into `puts / PUT_REPEATS` hands, each spread over the whole
/// run like the repeats of one request, and the fastest put of a hand stands
/// for one undisturbed put. (Every put wakes the binlog thread on the other
/// core, which makes its lower quantiles more sensitive to the host than a
/// request's: on recorded runs the spread fell from 30% for the pooled median
/// to 10% at 32 and 8% at 128, and no further beyond.)
const PUT_REPEATS: usize = 128;

/// Where a run keeps its durable directories and trace files: inside the
/// benchmark's own directory, so nothing is written outside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh scratch directory under [`out_dir`], removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `map_err` adapter: prefix an error with what was being done.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// How every durable directory of the benchmark is opened: the default WAL
/// with one fsync per 1,024 records instead of per 32. The directories sit on
/// the checkout's disk (a run may write nowhere else), where an fsync costs
/// ~0.3 ms and varies with the host: at the default it was half of every
/// ingested row's time and moved `ingest_mixed` throughput by 25-50% between
/// runs. At 1,024 the write path is still all there (encode, put, `write`
/// per record, group commit, segment rotation) and what is measured is its
/// CPU cost; `storage.wal_fsyncs_per_krow` counts the fsyncs.
pub fn durability() -> DurabilityOptions {
    DurabilityOptions {
        wal: WalOptions {
            group_commit: 1_024,
            ..WalOptions::default()
        },
        ..DurabilityOptions::default()
    }
}

pub fn recover(dir: &Path) -> openmldb_types::Result<Database> {
    Database::recover_with(dir, durability())
}

/// Wall time of a set-up, piece by piece (a slice of the load, the DEPLOY,
/// a slice of the warm-up), so that `setup_s` can take the median over the
/// set-ups of each piece: a slow spell of the host hits different pieces of
/// different set-ups.
pub struct Pieces {
    last: Instant,
    pub seconds: Vec<f64>,
}

impl Pieces {
    pub fn start() -> Pieces {
        Pieces {
            last: Instant::now(),
            seconds: Vec::new(),
        }
    }

    /// End the current piece; returns its duration in seconds.
    pub fn mark(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.last).as_secs_f64();
        self.seconds.push(s);
        self.last = now;
        s
    }
}

/// Rows (or warm-up requests) per piece of a set-up.
const SETUP_PIECE: usize = 2_000;

/// Sum over the pieces of the median time the set-ups took for that piece.
pub fn median_setup_s(setups: &[Vec<f64>]) -> f64 {
    let pieces = setups.iter().map(Vec::len).min().unwrap_or(0);
    (0..pieces)
        .map(|i| stats::median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .sum()
}

/// A loaded, deployed database and what loading it cost.
pub struct Loaded {
    pub db: Database,
    /// Durable directory (kept alive as long as the database).
    pub dir: Option<TempDir>,
    pub deploy_ms: f64,
}

/// DDL, load and DEPLOY of `shape` into a fresh database (durable when `dir`
/// is given). Returns the database and the DEPLOY time in ms.
pub fn load(
    shape: &Shape,
    dir: Option<&Path>,
    pieces: &mut Pieces,
) -> Result<(Database, f64), String> {
    let db = match dir {
        Some(d) => recover(d).map_err(err("recover fresh dir"))?,
        None => Database::new(),
    };
    for table in &shape.tables {
        db.execute(&table.ddl).map_err(err("create table"))?;
        for rows in table.rows.chunks(SETUP_PIECE) {
            for row in rows {
                db.insert_row(table.name, row).map_err(err("load row"))?;
            }
            pieces.mark();
        }
    }
    db.deploy(&shape.deploy_sql(DEPLOYMENT))
        .map_err(err("deploy"))?;
    let deploy_ms = pieces.mark() * 1e3;
    Ok((db, deploy_ms))
}

/// Everything before the timed phase: DDL, load, DEPLOY (compile, specialize,
/// pre-agg backfill) and a warm-up of 1% of the timed operations.
pub fn setup(args: &RunArgs, shape: &Shape, timed_ops: usize) -> Result<(Loaded, Pieces), String> {
    let w = args.workload;
    // `ingest_mixed` mirrors into a durable directory.
    let dir = match w.kind {
        Kind::Ingest => Some(TempDir::new(w.name)?),
        Kind::Serve { .. } | Kind::Offline => None,
    };
    let mut pieces = Pieces::start();
    let (db, deploy_ms) = load(shape, dir.as_ref().map(TempDir::path), &mut pieces)?;
    let warm = (timed_ops / 100).max(1);
    match w.kind {
        Kind::Serve { .. } | Kind::Ingest => {
            let requests: Vec<&Row> = shape.requests.iter().cycle().take(warm.max(16)).collect();
            for chunk in requests.chunks(SETUP_PIECE) {
                for row in chunk {
                    black_box(
                        db.request_readonly(DEPLOYMENT, row)
                            .map_err(err("warm-up"))?,
                    );
                }
                pieces.mark();
            }
        }
        Kind::Offline => {
            black_box(
                db.offline_query_with(&shape.select_sql, &serial_offline())
                    .map_err(err("warm-up"))?,
            );
            pieces.mark();
        }
    }
    let loaded = Loaded { db, dir, deploy_ms };
    Ok((loaded, pieces))
}

pub fn row_count(db: &Database, table: &str) -> usize {
    db.table(table).map(|t| t.row_count()).unwrap_or(0)
}

// -------------------------------------------------------- output checks ---

/// Exact for discrete and string values, 1e-9 relative for DOUBLE/FLOAT
/// (EXPERIMENTS.md deviation 5: a legal re-association of a floating sum
/// changes low bits).
pub fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => floats_agree(*x, *y),
        (Value::Float(x), Value::Float(y)) => floats_agree(f64::from(*x), f64::from(*y)),
        _ => a == b,
    }
}

fn floats_agree(x: f64, y: f64) -> bool {
    x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

pub fn rows_agree(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| values_agree(x, y))
}

/// Answer the first [`REFERENCE_CHECKS`] requests of the ring through the
/// served path and through `execute_request_materialized` (the deliberately
/// naive reference) and count disagreements as failed operations.
fn reference_check(db: &Database, shape: &Shape) -> Result<Tally, String> {
    let dep = db.deployment(DEPLOYMENT).ok_or("deployment missing")?;
    let mut tally = Tally::default();
    for row in shape.requests.iter().take(REFERENCE_CHECKS) {
        let ok = match (
            db.request_readonly(DEPLOYMENT, row),
            execute_request_materialized(db, &dep, row),
        ) {
            (Ok(served), Ok(reference)) => rows_agree(&served, &reference),
            _ => false,
        };
        tally.record(ok);
    }
    Ok(tally)
}

/// Online/offline agreement: answer fresh probe rows in request mode, insert
/// them, run the script offline, and compare each probe's offline feature
/// row with its request-mode answer. Probes of one round have distinct keys,
/// so no probe sits in another's window before both paths have seen it.
fn offline_agreement_check(db: &Database, shape: &Shape) -> Result<Tally, String> {
    let base = &shape.tables[0];
    // Deal the head of the request ring into rounds of distinct keys.
    let mut rounds: Vec<(std::collections::HashSet<i64>, Vec<&Row>)> = Vec::new();
    for row in shape.requests.iter().take(REFERENCE_CHECKS) {
        let Value::Bigint(key) = row.values()[T1_KEY] else {
            return Err("offline probe key is not BIGINT".into());
        };
        match rounds.iter_mut().find(|(keys, _)| !keys.contains(&key)) {
            Some((keys, rows)) => {
                keys.insert(key);
                rows.push(row);
            }
            None => rounds.push((std::collections::HashSet::from([key]), vec![row])),
        }
    }
    let rounds = rounds.into_iter().map(|(_, rows)| rows);
    let mut tally = Tally::default();
    for round in rounds {
        let online: Vec<(i64, Option<Row>)> = round
            .iter()
            .map(|row| {
                let id = match row.values()[T1_ID] {
                    Value::Bigint(id) => id,
                    _ => -1,
                };
                (id, db.request_readonly(DEPLOYMENT, row).ok())
            })
            .collect();
        for row in &round {
            db.insert_row(base.name, row).map_err(err("insert probe"))?;
        }
        let batch = db
            .offline_query(&shape.select_sql)
            .map_err(err("offline check"))?;
        let by_id: std::collections::HashMap<i64, &Row> = batch
            .rows
            .iter()
            .filter_map(|r| match r.values().first() {
                Some(Value::Bigint(id)) => Some((*id, r)),
                _ => None,
            })
            .collect();
        for (id, answer) in online {
            let ok = match (answer, by_id.get(&id)) {
                (Some(on), Some(off)) => rows_agree(&on, off),
                _ => false,
            };
            tally.record(ok);
        }
    }
    Ok(tally)
}

// ----------------------------------------------------------- timed phase ---

/// The batch engine on one thread. With the default options (parallel
/// windows, a thread per core) a batch needs every core of the sandbox at
/// once, and whatever else the shared host schedules on them decides its
/// time: runs of the same code spread by 60-90%. The traced phase still
/// measures the default options against this (`offline.parallel_speedup`).
pub fn serial_offline() -> OfflineOptions {
    OfflineOptions {
        parallel_windows: false,
        threads: 1,
        ..OfflineOptions::default()
    }
}

/// Latencies and answers of one closed-loop client.
pub struct ClientRun {
    pub lat_ns: Vec<u32>,
    /// Reference-kernel timings taken between this client's operations.
    pub host: HostRef,
    pub digest: AnswersDigest,
    pub tally: Tally,
    pub truncated: bool,
}

fn saturating_ns(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// `ops` requests, each timed on its own: operation `i` is request
/// `first + stride * (i % distinct)` of the ring, so the client cycles
/// through `distinct` requests (two clients with `stride` 2 split one
/// stream) and every request's repeats are spread evenly over the run.
/// Stops early once `budget` has passed.
pub fn serve_client(
    db: &Database,
    ring: &[Row],
    (first, stride): (usize, usize),
    distinct: usize,
    ops: usize,
    budget: Duration,
) -> ClientRun {
    let mut run = ClientRun {
        lat_ns: Vec::with_capacity(ops),
        host: HostRef::start(),
        digest: AnswersDigest::default(),
        tally: Tally::default(),
        truncated: false,
    };
    let distinct = distinct.max(1);
    let started = Instant::now();
    for i in 0..ops {
        let row = &ring[(first + stride * (i % distinct)) % ring.len()];
        let t0 = Instant::now();
        let out = db.request_readonly(DEPLOYMENT, black_box(row));
        let t1 = Instant::now();
        run.lat_ns.push(saturating_ns(t1 - t0));
        if let Ok(answer) = &out {
            run.digest.add(answer);
        }
        run.tally.record(out.is_ok());
        run.host.tick(t1);
        if t1 - started > budget {
            run.truncated = true;
            break;
        }
    }
    run
}

/// Run `clients` closed-loop clients on their own threads, released together.
pub fn serve_clients(
    db: &Database,
    ring: &[Row],
    clients: usize,
    distinct: usize,
    ops_per_client: usize,
    budget: Duration,
) -> Vec<ClientRun> {
    if clients == 1 {
        return vec![serve_client(
            db,
            ring,
            (0, 1),
            distinct,
            ops_per_client,
            budget,
        )];
    }
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    serve_client(db, ring, (c, clients), distinct, ops_per_client, budget)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Timed-phase numbers before they are named as metrics.
struct Timed {
    /// Every timed latency, one stream per client (the record's tail).
    clients: Vec<Vec<u32>>,
    /// Fastest repeat of each distinct operation, one list per client.
    fastest: Vec<Vec<u32>>,
    /// What `throughput_norm_per_s` counts per operation (1 request or put,
    /// or the rows of a batch).
    units_per_op: f64,
    /// Reference-kernel timings taken between the timed operations, one set
    /// per client: each client's numbers are scaled by the speed of the
    /// thread it ran on.
    hosts: Vec<HostRef>,
    digest: AnswersDigest,
    tally: Tally,
    truncated: bool,
    detail: Vec<(&'static str, Json)>,
}

fn timed_serve(
    db: &Database,
    shape: &Shape,
    clients: usize,
    distinct: usize,
    ops: usize,
    budget: Duration,
) -> Timed {
    let runs = serve_clients(db, &shape.requests, clients, distinct, ops, budget);
    let mut digest = AnswersDigest::default();
    let mut tally = Tally::default();
    for r in &runs {
        digest.merge(r.digest);
        tally.add(r.tally);
    }
    let truncated = runs.iter().any(|r| r.truncated);
    let (clients, hosts): (Vec<Vec<u32>>, Vec<HostRef>) =
        runs.into_iter().map(|r| (r.lat_ns, r.host)).unzip();
    Timed {
        truncated,
        hosts,
        fastest: clients
            .iter()
            .map(|c| stats::fastest_repeats(c, distinct))
            .collect(),
        clients,
        units_per_op: 1.0,
        digest,
        tally,
        detail: Vec::new(),
    }
}

fn timed_ingest(
    loaded: &mut Loaded,
    shape: &Shape,
    puts: usize,
    budget: Duration,
) -> Result<Timed, String> {
    let base = shape.tables[0].name;
    let db = &loaded.db;
    let table = db.table(base).ok_or("base table missing")?;
    let mut put_ns: Vec<u32> = Vec::with_capacity(puts);
    let mut req_ns: Vec<u32> = Vec::with_capacity(puts / PUTS_PER_REQUEST + 1);
    let mut digest = AnswersDigest::default();
    let mut tally = Tally::default();
    let mut backlog_max = 0u64;
    let mut truncated = false;
    let mut host = HostRef::start();
    let started = Instant::now();
    for (i, row) in shape.stream.iter().take(puts).enumerate() {
        let t0 = Instant::now();
        let out = db.insert_row(base, black_box(row));
        let t1 = Instant::now();
        put_ns.push(saturating_ns(t1 - t0));
        tally.record(out.is_ok());
        host.tick(t1);
        if (i + 1) % PUTS_PER_REQUEST == 0 {
            let request = &shape.requests[i / PUTS_PER_REQUEST];
            let t0 = Instant::now();
            let out = db.request_readonly(DEPLOYMENT, black_box(request));
            req_ns.push(saturating_ns(t0.elapsed()));
            if let Ok(answer) = &out {
                digest.add(answer);
            }
            // The pre-agg applier is asynchronous, so a lagging answer is
            // legal: only an error fails the request. The gate on this
            // workload's data is the recovery digest below.
            tally.record(out.is_ok());
        }
        if (i + 1) % BACKLOG_SAMPLE_EVERY == 0 {
            backlog_max = backlog_max.max(table.replicator().undelivered());
            if t1 - started > budget {
                truncated = true;
                break;
            }
        }
    }
    let stream_s = started.elapsed().as_secs_f64();
    // Loading is not done until pre-aggregation has caught up and the WAL is
    // on disk.
    let t_drain = Instant::now();
    table.replicator().flush();
    db.sync_durable().map_err(err("sync"))?;
    let drain_s = t_drain.elapsed().as_secs_f64();

    // Output check: the recovered table must hold exactly what was acked.
    let digest_before = db.table_digest(base).map_err(err("digest"))?;
    let rows_before = table.row_count();
    drop(table);
    let path = loaded
        .dir
        .as_ref()
        .expect("ingest is durable")
        .path()
        .to_path_buf();
    let wal_mb = dir_bytes(&path.join("wal")) as f64 / (1024.0 * 1024.0);
    loaded.db = Database::new();
    let t0 = Instant::now();
    let recovered = recover(&path);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ok = match recovered {
        Ok(db) => {
            let same = db.table_digest(base).ok() == Some(digest_before)
                && row_count(&db, base) == rows_before;
            loaded.db = db;
            same
        }
        Err(_) => false,
    };
    tally.record(ok);
    Ok(Timed {
        // Put `i` counts as a repeat of "put `i % distinct`": see PUT_REPEATS.
        fastest: vec![stats::fastest_repeats(&put_ns, put_ns.len() / PUT_REPEATS)],
        units_per_op: 1.0,
        hosts: vec![host],
        digest,
        tally,
        truncated,
        detail: vec![
            ("rows_after_ingest", Json::Num(rows_before as f64)),
            (
                "request_p50_us",
                Json::Num(f64::from(stats::percentile(&req_ns, 50.0)) / 1e3),
            ),
            ("binlog_backlog_max_rows", Json::Num(backlog_max as f64)),
            (
                // Rows acked per second of wall time, puts, requests, the
                // benchmark's own loop and the drain included: what the
                // applier thread and the host made of this run.
                "wall_rows_per_s",
                Json::Num(put_ns.len() as f64 / (stream_s + drain_s)),
            ),
            ("drain_ms", Json::Num(drain_s * 1e3)),
            ("recover_ms_per_mb", Json::Num(recover_ms / wal_mb)),
            ("wal_mb", Json::Num(wal_mb)),
            ("table_digest", Json::str(format!("{digest_before:016x}"))),
        ],
        clients: vec![put_ns],
    })
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

fn timed_offline(db: &Database, shape: &Shape, ops: usize, budget: Duration) -> Timed {
    let base = shape.tables[0].name;
    let rows = row_count(db, base);
    let options = serial_offline();
    let mut lat_ns = Vec::with_capacity(ops);
    let mut tally = Tally::default();
    let mut digest = AnswersDigest::default();
    let mut truncated = false;
    let mut host = HostRef::start();
    let started = Instant::now();
    for i in 0..ops {
        let t0 = Instant::now();
        let out = db.offline_query_with(black_box(&shape.select_sql), &options);
        let t1 = Instant::now();
        lat_ns.push(saturating_ns(t1 - t0));
        host.tick(t1);
        // One feature row per base row; every batch reads the same snapshot,
        // so the first batch's answers stand for all of them.
        tally.record(out.as_ref().is_ok_and(|b| b.rows.len() == rows));
        if let (0, Ok(batch)) = (i, &out) {
            batch.rows.iter().for_each(|r| digest.add(r));
        }
        if t1 - started > budget {
            truncated = true;
            break;
        }
    }
    Timed {
        // Every batch is the same operation: one distinct operation.
        fastest: vec![stats::fastest_repeats(&lat_ns, 1)],
        units_per_op: rows as f64,
        hosts: vec![host],
        clients: vec![lat_ns],
        digest,
        tally,
        truncated,
        detail: vec![("rows_per_batch", Json::Num(rows as f64))],
    }
}

/// Timed operations per client for `--seconds`.
pub fn timed_ops(args: &RunArgs) -> usize {
    let scale = if args.quick {
        gen::QUICK_DIVISOR as f64
    } else {
        1.0
    };
    ((args.workload.ops_per_second * args.seconds / scale).round() as usize).max(8)
}

/// Distinct requests a serving client cycles through in the timed phase.
pub fn distinct_ops(args: &RunArgs) -> usize {
    if args.quick {
        (args.workload.distinct / gen::QUICK_DIVISOR).max(4)
    } else {
        args.workload.distinct
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Build the inputs for `args` (the ingest stream is sized by the op count).
pub fn build_shape(args: &RunArgs) -> Shape {
    let stream = match args.workload.kind {
        Kind::Ingest => timed_ops(args),
        _ => 0,
    };
    gen::shape(args.workload, args.seed, args.quick, stream)
}

/// Run the output checks that precede timing.
pub fn pre_checks(args: &RunArgs, loaded: &Loaded, shape: &Shape) -> Result<Tally, String> {
    match args.workload.kind {
        Kind::Serve { .. } => reference_check(&loaded.db, shape),
        Kind::Offline => offline_agreement_check(&loaded.db, shape),
        // Gated by the recovery digest inside the timed phase.
        Kind::Ingest => Ok(Tally::default()),
    }
}

/// The `--trace 0` run: set up [`SETUPS_PER_RUN`] times, check outputs, time
/// the operations, report every end-to-end metric.
pub fn run_untraced(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let shape = build_shape(args);
    let ops = timed_ops(args);
    let budget = Duration::from_secs_f64(args.seconds * OVERRUN);

    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(SETUPS_PER_RUN.1);
    let setups_started = Instant::now();
    while setups.len() + 1 < SETUPS_PER_RUN.0
        || (setups.len() + 1 < SETUPS_PER_RUN.1 && setups_started.elapsed() < SETUPS_FILL)
    {
        // Each of these databases is dropped before the next set-up starts,
        // so peak RSS holds one.
        let (_, pieces) = setup(args, &shape, ops)?;
        setups.push(pieces.seconds);
    }
    let (mut loaded, pieces) = setup(args, &shape, ops)?;
    setups.push(pieces.seconds);

    let mut tally = pre_checks(args, &loaded, &shape)?;
    let timed = match w.kind {
        Kind::Serve { clients } => {
            timed_serve(&loaded.db, &shape, clients, distinct_ops(args), ops, budget)
        }
        Kind::Ingest => timed_ingest(&mut loaded, &shape, ops, budget)?,
        Kind::Offline => timed_offline(&loaded.db, &shape, ops, budget),
    };
    tally.add(timed.tally);

    let pooled: Vec<u32> = timed.clients.iter().flatten().copied().collect();
    // As measured, then at the reference host speed (`hostref`), client by
    // client.
    let hosts: Vec<f64> = timed.hosts.iter().map(HostRef::index).collect();
    let fastest: Vec<f64> = timed
        .fastest
        .iter()
        .flat_map(|c| c.iter().map(|&ns| f64::from(ns)))
        .collect();
    let fastest_norm: Vec<f64> = timed
        .fastest
        .iter()
        .zip(&hosts)
        .flat_map(|(c, host)| c.iter().map(move |&ns| f64::from(ns) / host))
        .collect();
    let rates = timed.fastest.iter().map(|c| stats::undisturbed_rate(c));
    let raw_throughput = timed.units_per_op * rates.clone().sum::<f64>();
    let throughput = timed.units_per_op * rates.zip(&hosts).map(|(r, host)| r * host).sum::<f64>();
    let metrics = vec![
        metric(
            "latency_norm_p50_us",
            stats::median(&fastest_norm) / 1e3,
            "us",
        ),
        metric("throughput_norm_per_s", throughput, "1/s"),
        // As measured: loading is page faults and allocation, which the
        // spells the reference kernel sees do not slow.
        metric("setup_s", median_setup_s(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut detail = vec![
        ("answers_digest", Json::str(timed.digest.hex())),
        (
            "table_rows_digest",
            Json::str(format!("{:016x}", gen::rows_digest(&shape.tables[0].rows))),
        ),
        (
            "requests_digest",
            Json::str(format!("{:016x}", gen::rows_digest(&shape.requests))),
        ),
        ("timed_ops", Json::Num(pooled.len() as f64)),
        ("distinct_ops", Json::Num(fastest.len() as f64)),
        (
            "host_index",
            Json::Arr(hosts.iter().map(|h| Json::Num(*h)).collect()),
        ),
        (
            "host_samples",
            Json::Num(timed.hosts.iter().map(HostRef::samples).sum::<usize>() as f64),
        ),
        (
            "raw_latency_p50_us",
            Json::Num(stats::median(&fastest) / 1e3),
        ),
        ("raw_throughput_per_s", Json::Num(raw_throughput)),
        ("truncated", Json::Bool(timed.truncated)),
        (
            // Not an end-to-end metric: see the README on why a tail cannot be
            // bounded on this host. Reported for the record.
            "tail_us",
            Json::Num(stats::tail_latency(&timed.clients) / 1e3),
        ),
        (
            "tail_is",
            Json::str(if stats::tail_is_p99(timed.clients[0].len()) {
                "slice_p99"
            } else {
                "slice_p90"
            }),
        ),
        (
            // The host's states inside the run: the median of each slice of
            // the first client's operations, in arrival order, and the
            // pooled median, which is what this run's callers saw.
            "slice_p50_us",
            Json::Arr(
                stats::slices_of(&timed.clients[0], 50, 1)
                    .map(|c| Json::Num(f64::from(stats::percentile(c, 50.0)) / 1e3))
                    .collect(),
            ),
        ),
        (
            "pooled_p50_us",
            Json::Num(f64::from(stats::percentile(&pooled, 50.0)) / 1e3),
        ),
        (
            "setups_s",
            Json::Arr(setups.iter().map(|s| Json::Num(s.iter().sum())).collect()),
        ),
    ];
    detail.extend(timed.detail);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}
