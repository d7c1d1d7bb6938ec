//! End-to-end consistency sentinel + live ops plane: sampled serving feeds
//! the audit queue, the background auditor replays through both oracle
//! paths, clean serving confirms zero divergences, a chaos-corrupted
//! compiled kernel is caught and attributed, and the HTTP ops endpoint
//! exposes `/metrics`, `/report`, `/healthz` and `/explain/<deployment>`.
//!
//! The sentinel's queue, twin cache and counters are process-wide, so
//! every test here serializes on one local mutex and works with per-drain
//! [`AuditStats`] rather than global totals.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use openmldb::chaos::{InjectionPoint, Plan};
use openmldb::obs::Registry;
use openmldb::online::{sentinel, TableProvider};
use openmldb::{Database, OpsConfig, Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A database with one deployed window query over a pre-loaded table. The
/// serving loops below are read-only so the table version stays fixed and
/// every captured sample audits (no stale skips).
fn sentinel_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE actions (userid BIGINT, price DOUBLE, ts TIMESTAMP, \
         INDEX(KEY=userid, TS=ts, TTL=0, TTL_TYPE=latest))",
    )
    .unwrap();
    for i in 0..200i64 {
        db.execute(&format!(
            "INSERT INTO actions VALUES ({}, {}.25, {})",
            i % 5,
            i % 13,
            1_000 + i * 7
        ))
        .unwrap();
    }
    db.deploy(
        "DEPLOY fsent AS SELECT userid, sum(price) OVER w AS spend, \
         count(price) OVER w AS hits FROM actions \
         WINDOW w AS (PARTITION BY userid ORDER BY ts \
         ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    db
}

fn serve(db: &Database, n: i64) {
    for i in 0..n {
        let request = Row::new(vec![
            Value::Bigint(i % 5),
            Value::Double(1.0),
            Value::Timestamp(3_000 + i),
        ]);
        db.request_readonly("fsent", &request).unwrap();
    }
}

/// Satellite regression: metric trend rings must advance while the process
/// serves — the ops driver owns the periodic `Registry::tick`.
#[test]
fn ops_driver_ticks_registry_during_serving() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    let before = Registry::global().ticks();
    let plane = db
        .start_ops(OpsConfig {
            http_addr: None,
            sample_every: 8,
            tick_every: Duration::from_millis(5),
            audit_batch: 64,
        })
        .unwrap();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(60) {
        serve(&db, 4);
    }
    drop(plane);
    assert!(
        Registry::global().ticks() > before,
        "driver must advance trend ticks while serving"
    );
    sentinel::set_sample_every(0);
    sentinel::reset();
}

/// Clean serving: every sample audits through both oracles with zero
/// divergences, and the queue fully drains.
#[test]
fn clean_serving_audits_with_zero_divergences() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    sentinel::set_sample_every(1);
    serve(&db, 32);
    sentinel::set_sample_every(0);
    let stats = db.sentinel_drain(4096);
    assert!(stats.audited >= 32, "all 32 samples must audit: {stats:?}");
    assert_eq!(stats.divergences, 0, "clean serving must not diverge");
    assert_eq!(stats.stale_skips, 0, "read-only serving cannot go stale");
    assert_eq!(stats.errors, 0);
    assert_eq!(sentinel::queue_len(), 0, "queue must fully drain");
    sentinel::reset();
}

/// One drain replays samples of deployments whose windows have nothing in
/// common: each replay runs on a scratch of its own twin, so the warm
/// aggregate state one deployment's window 0 leaves behind never meets
/// another's.
#[test]
fn one_drain_audits_deployments_of_different_shapes() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    db.deploy(
        "DEPLOY fsent_other AS SELECT userid, max(ts) OVER w AS newest, \
         distinct_count(price) OVER w AS prices, min(price) OVER w AS low \
         FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts \
         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    sentinel::set_sample_every(1);
    for i in 0..12i64 {
        let request = Row::new(vec![
            Value::Bigint(i % 5),
            Value::Double(1.0),
            Value::Timestamp(3_000 + i),
        ]);
        for name in ["fsent", "fsent_other"] {
            db.request_readonly(name, &request).unwrap();
        }
    }
    sentinel::set_sample_every(0);
    let stats = db.sentinel_drain(4096);
    assert_eq!(stats.audited, 24, "both deployments audit: {stats:?}");
    assert_eq!((stats.divergences, stats.errors), (0, 0), "{stats:?}");
    sentinel::reset();
}

/// Windows folded off one scan are audited window by window: the served
/// per-window scan digests must equal those of the twin, which scans each
/// window on its own — over duplicate timestamps, so the grouped scan takes
/// its sort path.
#[test]
fn grouped_windows_audit_clean_against_a_scan_per_window() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    for i in 0..60i64 {
        // A second and third row on timestamps the table already holds.
        db.execute(&format!(
            "INSERT INTO actions VALUES ({}, {}.5, {})",
            i % 5,
            i % 7,
            1_000 + (i % 40) * 35
        ))
        .unwrap();
    }
    db.deploy(
        "DEPLOY fsent_grouped AS SELECT userid, sum(price) OVER w0 AS spend, \
         count(price) OVER w1 AS hits, max(price) OVER w2 AS top FROM actions WINDOW \
         w0 AS (PARTITION BY userid ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW), \
         w1 AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN 9 PRECEDING AND CURRENT ROW), \
         w2 AS (PARTITION BY userid ORDER BY ts ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW \
         MAXSIZE 25 EXCLUDE CURRENT_ROW)",
    )
    .unwrap();
    let dep = db.deployment("fsent_grouped").unwrap();
    assert_eq!(dep.scan_groups(), [vec![0, 1, 2]]);
    sentinel::set_sample_every(1);
    for i in 0..40i64 {
        let request = Row::new(vec![
            Value::Bigint(i % 5),
            Value::Double(2.0),
            Value::Timestamp(1_500 + i * 40),
        ]);
        db.request_readonly("fsent_grouped", &request).unwrap();
    }
    sentinel::set_sample_every(0);
    let stats = db.sentinel_drain(4096);
    assert_eq!(stats.audited, 40, "{stats:?}");
    assert_eq!(
        (stats.divergences, stats.stale_skips, stats.errors),
        (0, 0, 0),
        "{stats:?}"
    );
    sentinel::reset();
}

/// A write landing between capture and audit moves the version signature:
/// the audit is skipped as stale, never reported as a divergence.
#[test]
fn write_between_capture_and_audit_is_a_stale_skip() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    sentinel::set_sample_every(1);
    serve(&db, 8);
    sentinel::set_sample_every(0);
    db.execute("INSERT INTO actions VALUES (1, 9.0, 99999)")
        .unwrap();
    let stats = db.sentinel_drain(4096);
    assert_eq!(stats.audited, 0, "stale samples must not replay: {stats:?}");
    assert_eq!(stats.divergences, 0);
    assert_eq!(stats.stale_skips, 8);
    sentinel::reset();
}

/// A `long_windows` deployment answers `sum(v)` over DOUBLE from
/// pre-aggregated buckets, whose merges add partial sums in another order
/// than the raw replay folds the rows: its last bits differ from the
/// oracle's by design. Those samples skip the output compare — counted, one
/// per bucket-served sample — and still compare their scan digests; the
/// plain deployment of the same query audits in full. Zero divergences.
#[test]
fn long_window_samples_skip_only_the_output_compare() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = Database::new();
    db.execute(
        "CREATE TABLE probe (k BIGINT, v DOUBLE, ts TIMESTAMP, \
         INDEX(KEY=k, TS=ts, TTL=0, TTL_TYPE=latest))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(26);
    for _ in 0..4_000 {
        let row = Row::new(vec![
            Value::Bigint(rng.gen_range(0..4)),
            Value::Double(rng.gen_range(-1e6..1e6)),
            Value::Timestamp(rng.gen_range(0..120_000)),
        ]);
        db.insert_row("probe", &row).unwrap();
    }
    let sql = "SELECT k, sum(v) OVER w AS s FROM probe WINDOW w AS \
               (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 30s PRECEDING AND CURRENT ROW)";
    db.deploy(&format!("DEPLOY plain AS {sql}")).unwrap();
    db.deploy(&format!(
        "DEPLOY bucketed OPTIONS(long_windows=\"w:500\") AS {sql}"
    ))
    .unwrap();
    db.table("probe").unwrap().replicator().flush();
    let preagg = db.deployment("bucketed").unwrap();
    let preagg = preagg.preaggs[0].as_ref().unwrap();
    let queries_before = preagg.queries();
    sentinel::set_sample_every(1);
    for _ in 0..64 {
        let request = Row::new(vec![
            Value::Bigint(rng.gen_range(0..4)),
            Value::Double(rng.gen_range(-1e6..1e6)),
            Value::Timestamp(rng.gen_range(60_000..120_000)),
        ]);
        for name in ["plain", "bucketed"] {
            db.request_readonly(name, &request).unwrap();
        }
    }
    sentinel::set_sample_every(0);
    let bucket_served = preagg.queries() - queries_before;
    let stats = db.sentinel_drain(4096);
    assert!(bucket_served > 0, "the probe must reach the buckets");
    assert_eq!(stats.audited, 128, "{stats:?}");
    assert_eq!((stats.divergences, stats.errors), (0, 0), "{stats:?}");
    assert_eq!(stats.bucket_skips, bucket_served, "{stats:?}");
    sentinel::reset();
}

/// The acceptance scenario: a chaos-corrupted compiled kernel silently
/// perturbs served aggregates; the sentinel detects the divergence,
/// attributes it to the right deployment, and surfaces it in `/healthz`,
/// the flight-recorder slow log, and the bounded divergence log. Without
/// the `chaos` feature the same serving stays clean.
#[test]
fn corrupted_compiled_kernel_divergence_is_detected() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    openmldb::chaos::reset();
    let db = sentinel_db();
    let divergence_log_before = openmldb::obs::audit::divergences_total();
    sentinel::set_sample_every(1);
    openmldb::chaos::install(Plan::new(0xA11CE).kill_rate(InjectionPoint::CompiledKernel, 1.0));
    serve(&db, 16);
    openmldb::chaos::reset();
    sentinel::set_sample_every(0);
    let stats = db.sentinel_drain(4096);
    if openmldb::chaos::enabled() {
        assert!(
            stats.divergences >= 1,
            "corrupted kernel must be caught: {stats:?}"
        );
        // Attribution: the bounded divergence log names the deployment.
        let log = openmldb::obs::audit::divergences();
        assert!(
            log.iter().any(|d| d.deployment == "fsent"),
            "divergence must be attributed to fsent"
        );
        assert!(openmldb::obs::audit::divergences_total() > divergence_log_before);
        // Flight recorder: a consistency_divergence post-mortem landed.
        assert!(
            Registry::global()
                .slow_queries()
                .iter()
                .any(|pm| pm.outcome.name() == "consistency_divergence"),
            "slow log must carry the divergence post-mortem"
        );
        // Health verdict flips.
        assert!(db.healthz_json().contains("\"ok\":false"));
    } else {
        assert_eq!(stats.divergences, 0, "no chaos feature, no corruption");
    }
    sentinel::reset();
}

fn http_get(addr: std::net::SocketAddr, request_line: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("{request_line}\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The live ops endpoint end-to-end over a real socket: Prometheus
/// exposition, JSON report, the sentinel health verdict, per-deployment
/// explain, 404s and 405s.
#[test]
fn ops_endpoint_serves_all_routes() {
    if !openmldb::obs::enabled() {
        return;
    }
    let _g = lock();
    sentinel::reset();
    let db = sentinel_db();
    let plane = db
        .start_ops(OpsConfig {
            http_addr: Some("127.0.0.1:0".into()),
            sample_every: 4,
            tick_every: Duration::from_millis(50),
            audit_batch: 64,
        })
        .unwrap();
    let addr = plane.addr().expect("listener bound");
    serve(&db, 8);

    let (status, body) = http_get(addr, "GET /metrics HTTP/1.1");
    assert_eq!(status, 200);
    assert!(
        body.contains("openmldb_online_requests_total"),
        "Prometheus exposition must include engine counters"
    );

    let (status, body) = http_get(addr, "GET /report HTTP/1.1");
    assert_eq!(status, 200);
    assert!(body.trim_start().starts_with('{'), "JSON report body");

    let (status, body) = http_get(addr, "GET /healthz HTTP/1.1");
    assert_eq!(status, 200);
    assert!(body.contains("\"samples\":"));
    assert!(body.contains("\"divergences\":"));
    assert!(body.contains("\"bucket_skips\":"));

    let (status, body) = http_get(addr, "GET /explain/fsent HTTP/1.1");
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    let (status, _) = http_get(addr, "GET /no-such-route HTTP/1.1");
    assert_eq!(status, 404);

    let (status, _) = http_get(addr, "POST /metrics HTTP/1.1");
    assert_eq!(status, 405);

    drop(plane);
    // The listener is down after shutdown: connecting must fail.
    assert!(TcpStream::connect(addr).is_err());
    sentinel::set_sample_every(0);
    sentinel::reset();
}
