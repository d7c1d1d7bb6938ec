//! End-to-end resilience: deterministic fault injection, deadline-budgeted
//! serving, replica failover, and the buckets-only degradation tier.
//!
//! This suite runs in its own process on purpose: chaos plans are global,
//! and installing one next to unrelated concurrently-running tests would
//! perturb them. Without the `chaos` cargo feature the injector is
//! compiled out — every test still runs and asserts the clean-path
//! behaviour (no retries, no faults, identical results).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmldb::chaos::{InjectionPoint, Plan};
use openmldb::obs::{flight, FlightScope, Outcome, Recorder};
use openmldb::online::{
    execute_request_materialized, execute_request_with, Deployment, PreAggregator, TableProvider,
};
use openmldb::sql::{compile_select, parse_select, Catalog};
use openmldb::storage::sync::epoch::Guard;
use openmldb::storage::{DataTable, IndexSpec, MemTable, ReplicaTable, RowVisitor, ScanRow, Ttl};
use openmldb::{Database, Deadline, Error, KeyValue, RequestOptions, Result, Row, Schema, Value};
use proptest::prelude::*;

/// The CI seed triple: every seeded test iterates all three, so one run of
/// this binary covers three independent deterministic fault schedules.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", openmldb::DataType::Bigint),
        ("v", openmldb::DataType::Double),
        ("ts", openmldb::DataType::Timestamp),
    ])
    .unwrap()
}

fn mk_table(name: &str) -> Arc<MemTable> {
    Arc::new(
        MemTable::new(
            name,
            schema(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap(),
    )
}

fn row(k: i64, v: f64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(k),
        Value::Double(v),
        Value::Timestamp(ts),
    ])
}

struct Cat;
impl Catalog for Cat {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        (name == "events").then(schema)
    }
}

/// A provider that injects a fixed latency into every row a read walks —
/// feature-independent slow storage for the deadline tests.
struct SlowProvider {
    tables: HashMap<String, Arc<dyn DataTable>>,
    delay: Duration,
    /// Entries the window scans of every table handed to their visitors.
    visited: Arc<AtomicUsize>,
}

impl SlowProvider {
    fn new(delay: Duration) -> Self {
        SlowProvider {
            tables: HashMap::new(),
            delay,
            visited: Arc::default(),
        }
    }

    fn insert(&mut self, table: Arc<MemTable>) {
        let name = DataTable::name(&*table).to_string();
        let delay = self.delay;
        self.tables.insert(
            name,
            Arc::new(SlowTable {
                inner: table,
                delay,
                visited: self.visited.clone(),
            }),
        );
    }
}

impl TableProvider for SlowProvider {
    fn table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        self.tables.get(name).cloned()
    }
}

struct SlowTable {
    inner: Arc<MemTable>,
    delay: Duration,
    visited: Arc<AtomicUsize>,
}

impl DataTable for SlowTable {
    fn name(&self) -> &str {
        DataTable::name(&*self.inner)
    }
    fn backend(&self) -> openmldb::storage::Backend {
        self.inner.backend()
    }
    fn set_max_memory_bytes(&self, limit: usize) {
        DataTable::set_max_memory_bytes(&*self.inner, limit)
    }
    fn schema(&self) -> &Schema {
        DataTable::schema(&*self.inner)
    }
    fn codec(&self) -> &openmldb::CompactCodec {
        self.inner.codec()
    }
    fn replicator(&self) -> &Arc<openmldb::storage::Replicator> {
        DataTable::replicator(&*self.inner)
    }
    fn index_specs(&self) -> Vec<IndexSpec> {
        DataTable::index_specs(&*self.inner)
    }
    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize> {
        DataTable::find_index(&*self.inner, key_cols, ts_col)
    }
    fn put(&self, row: &Row) -> Result<u64> {
        DataTable::put(&*self.inner, row)
    }
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
        // Delay *per visited entry* (not per call) so a deadline can expire
        // in the middle of a streaming scan, between rows.
        let inner = &*self.inner;
        inner.walk_rows(
            guard,
            index_id,
            key,
            lower_ts,
            upper_ts,
            limit,
            &mut |ts, row| {
                std::thread::sleep(self.delay);
                self.visited.fetch_add(1, Ordering::SeqCst);
                visitor(ts, row)
            },
        )
    }
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()> {
        DataTable::scan_rows(&*self.inner, index_id, visitor)
    }
    fn gc(&self, now_ms: i64) -> usize {
        DataTable::gc(&*self.inner, now_ms)
    }
    fn mem_used(&self) -> usize {
        DataTable::mem_used(&*self.inner)
    }
    fn row_count(&self) -> usize {
        DataTable::row_count(&*self.inner)
    }
}

fn serving_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE events (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    for i in 0..400i64 {
        db.insert_row("events", &row(i % 8, (i % 10) as f64, i * 25))
            .unwrap();
    }
    db.deploy(
        "DEPLOY f AS SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM events \
         WINDOW w AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    db
}

/// Scheduling slack allowed on top of a request's budget: the deadline is
/// checked between stages and retry backoffs, so one storage access may
/// overshoot before the check fires, and under a fully loaded test machine
/// a descheduled thread can stall well past the access itself. Sized so
/// the bound still catches a hang without flaking on scheduler noise.
const SLACK: Duration = Duration::from_millis(750);

/// One serving loop under an installed plan; returns
/// (ok, timeouts, degraded, retries, failovers, lost).
fn serve_loop(db: &Database, requests: usize) -> (usize, usize, usize, u64, u64, usize) {
    serve_loop_with(
        db,
        requests,
        Duration::from_millis(500),
        openmldb::RetryPolicy::default(),
    )
}

/// Each request gets its own deadline of `budget`. Also checks, request by
/// request, that the seeded faults' retries, backoffs and failovers never
/// keep a request past `budget` + [`SLACK`], and that every anomaly they
/// cause — a timeout, a failed, degraded or failed-over request — leaves a
/// post-mortem of that outcome whose stage self-times plus unattributed
/// time equal its total exactly.
fn serve_loop_with(
    db: &Database,
    requests: usize,
    budget: Duration,
    retry: openmldb::RetryPolicy,
) -> (usize, usize, usize, u64, u64, usize) {
    let (mut ok, mut timeouts, mut degraded, mut lost) = (0usize, 0usize, 0usize, 0usize);
    let (mut retries, mut failovers) = (0u64, 0u64);
    // A trace id is the serving thread's ordinal above its request
    // sequence, and `last` is this thread's newest. An error returns no id:
    // its post-mortem is the one above `last` with the same thread bits,
    // which tests serving in parallel on other threads cannot publish.
    let mut last = FlightScope::enter(&mut Recorder::new()).finish().trace_id;
    for i in 0..requests {
        let req = row((i % 8) as i64, 1.0, 10_000 + i as i64);
        // A deadline anchors when it is built: one budget per request.
        let opts = RequestOptions {
            deadline: Deadline::within(budget),
            retry,
            ..RequestOptions::default()
        };
        let t0 = Instant::now();
        let out = db.request_readonly_with("f", &req, &opts);
        let elapsed = t0.elapsed();
        assert!(
            elapsed <= budget + SLACK,
            "request {i}: took {elapsed:?} against budget {budget:?}"
        );
        let owed = match &out {
            Ok(o) if o.degraded => Some(Outcome::Degraded),
            Ok(o) if o.failovers > 0 => Some(Outcome::Failover),
            Ok(_) => None,
            Err(Error::Timeout { .. }) => Some(Outcome::Timeout),
            Err(_) => Some(Outcome::Failed),
        };
        let id = out.as_ref().map(|o| o.trace_id).ok();
        if let Some(want) = owed.filter(|_| openmldb::obs::enabled()) {
            let log = flight::slow_log();
            let pm = log
                .iter()
                .find(|pm| match id {
                    Some(id) => pm.trace_id == id,
                    None => pm.trace_id > last && pm.trace_id >> 40 == last >> 40,
                })
                .unwrap_or_else(|| panic!("request {i}: {want:?} left no post-mortem"));
            assert_eq!(pm.outcome, want, "request {i}: {pm:?}");
            let staged: u64 = pm.stage_self_ns.iter().sum();
            assert_eq!(
                staged + pm.other_ns,
                pm.total_ns,
                "ledger not exact: {pm:?}"
            );
            last = pm.trace_id;
        }
        last = id.unwrap_or(last);
        match out {
            Ok(o) => {
                ok += 1;
                if o.degraded {
                    degraded += 1;
                }
                retries += u64::from(o.retries);
                failovers += u64::from(o.failovers);
            }
            Err(Error::Timeout { .. }) => timeouts += 1,
            Err(_) => lost += 1,
        }
    }
    (ok, timeouts, degraded, retries, failovers, lost)
}

/// The headline contract at 1% faults, per CI seed: zero lost requests,
/// every request resolves, and the whole run is a pure function of the
/// seed (two identical runs produce identical outcome counts).
#[test]
fn fixed_seeds_one_percent_faults_zero_lost() {
    let db = serving_db();
    db.enable_failover("events").unwrap();
    for seed in SEEDS {
        let plan = || {
            Plan::new(seed)
                .error_rate(InjectionPoint::SkiplistSeek, 0.01)
                .latency(
                    InjectionPoint::SkiplistSeek,
                    0.01,
                    Duration::from_micros(100),
                )
        };
        openmldb::chaos::install(plan());
        let first = serve_loop(&db, 300);
        openmldb::chaos::install(plan());
        let second = serve_loop(&db, 300);
        openmldb::chaos::reset();

        let (ok, timeouts, _degraded, retries, _failovers, lost) = first;
        assert_eq!(lost, 0, "seed {seed:#x}: no request may be lost");
        assert_eq!(ok + timeouts, 300, "seed {seed:#x}: every request resolves");
        if openmldb::chaos::enabled() {
            assert!(
                retries > 0,
                "seed {seed:#x}: 1% faults must exercise retries"
            );
            assert_eq!(
                first, second,
                "seed {seed:#x}: same seed, same call sequence, same outcomes"
            );
        } else {
            assert_eq!(retries, 0);
            assert_eq!(timeouts, 0);
        }
    }
}

/// Exactly-once binlog delivery under subscriber kills: kills leave a
/// contiguous applied prefix, and the flush barrier heals every gap from
/// the durable log — the replica ends complete with no duplicates.
#[test]
fn exactly_once_delivery_under_kills() {
    for seed in SEEDS {
        openmldb::chaos::install(Plan::new(seed).kill_rate(InjectionPoint::BinlogDelivery, 0.3));
        let leader = mk_table("events");
        let replica = ReplicaTable::follow(&*leader).unwrap();
        for i in 0..200i64 {
            leader.put(&row(i % 4, i as f64, i * 10)).unwrap();
        }
        replica.sync();
        openmldb::chaos::reset();

        assert_eq!(
            replica.applied_rows(),
            200,
            "seed {seed:#x}: every entry applied exactly once after healing"
        );
        assert_eq!(replica.apply_errors(), 0, "seed {seed:#x}");
        assert_eq!(replica.lag(), 0, "seed {seed:#x}");
        // Values survived the kills byte-for-byte.
        let key = [KeyValue::Int(3)];
        assert_eq!(
            leader.range_projected(0, &key, 0, i64::MAX, None).unwrap(),
            replica
                .table()
                .range_projected(0, &key, 0, i64::MAX, None)
                .unwrap(),
            "seed {seed:#x}"
        );
    }
}

/// Failover end-to-end under heavy faulting. The injection stream is
/// per-call, not per-table, so "dead primary, healthy replica" cannot be
/// expressed directly — instead we fault 60% of ALL seeks so the primary's
/// retry ladder exhausts often enough to exercise failover, and give the
/// ladder a retry budget deep enough that the fallback round always finds
/// clean draws. The plan is seeded, so the outcome is deterministic.
#[test]
fn heavy_faulting_fails_over_and_loses_nothing() {
    if !openmldb::chaos::enabled() {
        return; // needs real injected faults
    }
    let db = serving_db();
    db.enable_failover("events").unwrap();
    openmldb::chaos::install(Plan::new(SEEDS[0]).error_rate(InjectionPoint::SkiplistSeek, 0.6));
    let retry = openmldb::RetryPolicy {
        max_retries: 7,
        ..openmldb::RetryPolicy::default()
    };
    let (ok, timeouts, _degraded, retries, failovers, lost) =
        serve_loop_with(&db, 200, Duration::from_millis(2_000), retry);
    openmldb::chaos::reset();
    assert_eq!(
        lost, 0,
        "retry + failover must absorb heavy transient faults"
    );
    assert_eq!(ok + timeouts, 200);
    assert!(retries > 0, "60% faults must exercise retries");
    assert!(
        failovers > 0,
        "some primary ladders must exhaust and fail over"
    );
    assert!(
        ok > 0,
        "the fallback answered requests the primary could not"
    );
}

/// Buckets-only degradation: when slow raw-edge reads blow the budget on a
/// pre-aggregated window, the answer comes from buckets alone, is flagged
/// `degraded`, and matches the pre-aggregator's own buckets-only oracle.
#[test]
fn degraded_answer_matches_buckets_only_oracle() {
    let events = mk_table("events");
    for i in 0..50i64 {
        events.put(&row(1, 1.0, i * 100)).unwrap();
    }
    let q = Arc::new(
        compile_select(
            &parse_select(
                "SELECT sum(v) OVER w AS s, count(v) OVER w AS c FROM events \
                 WINDOW w AS (PARTITION BY k ORDER BY ts \
                 ROWS_RANGE BETWEEN 2500 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &Cat,
        )
        .unwrap(),
    );
    let preagg = PreAggregator::new(&q.windows[0], &q.aggregates, vec![1_000]).unwrap();
    preagg.attach(events.replicator(), openmldb::CompactCodec::new(schema()));
    events.replicator().flush();

    // Raw edge reads sleep 80 ms against a 20 ms budget: the first edge
    // fetch blows the deadline, the second surfaces Timeout inside the
    // window — which is exactly the degradation trigger.
    let mut provider = SlowProvider::new(Duration::from_millis(80));
    provider.insert(events);
    let dep = Deployment::new("d", q, &provider)
        .unwrap()
        .with_preagg(0, preagg.clone());

    // Anchor past the last complete bucket and misaligned lower bound →
    // two uncovered edges.
    let request = row(1, 7.0, 5_250);
    let opts = RequestOptions {
        deadline: Deadline::within(Duration::from_millis(20)),
        ..RequestOptions::default()
    };
    let out = execute_request_with(&provider, &dep, &request, &opts).unwrap();
    assert!(out.degraded, "budget blown on a pre-aggregated window");

    // The oracle: the pre-aggregator's own answer with raw edges skipped.
    let oracle = preagg
        .query_with_extra_row(
            &[KeyValue::Int(1)],
            5_250 - 2_500,
            5_250,
            Some(&request),
            |_, _| Ok(Vec::new()),
        )
        .unwrap();
    assert_eq!(out.row[0], oracle[0], "degraded sum == buckets-only oracle");
    assert_eq!(
        out.row[1], oracle[1],
        "degraded count == buckets-only oracle"
    );

    // Degraded answers are disabled on request: same setup must Timeout.
    let strict = RequestOptions {
        deadline: Deadline::within(Duration::from_millis(20)),
        allow_degraded: false,
        ..RequestOptions::default()
    };
    let err = execute_request_with(&provider, &dep, &request, &strict).unwrap_err();
    assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
}

/// A deadline that expires *between rows* of a streaming window scan must
/// surface as a typed `Timeout` — never as a feature row computed from the
/// partial aggregate the scan had accumulated so far — and the timed-out
/// attempt must not leak scratch state into the next request.
#[test]
fn mid_stream_deadline_yields_typed_timeout_not_partial_aggregate() {
    let events = mk_table("events");
    for i in 0..400i64 {
        events.put(&row(1, 1.0, i * 10)).unwrap();
    }
    let q = Arc::new(
        compile_select(
            &parse_select(
                "SELECT sum(v) OVER w AS s, count(v) OVER w AS c FROM events \
                 WINDOW w AS (PARTITION BY k ORDER BY ts \
                 ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &Cat,
        )
        .unwrap(),
    );
    // 2 ms per *visited entry*: the 400-row scan takes ~800 ms end to end,
    // so a 30 ms budget expires mid-stream, not before the scan starts.
    let mut provider = SlowProvider::new(Duration::from_millis(2));
    provider.insert(events);
    let dep = Deployment::new("d", q, &provider).unwrap();
    let request = row(1, 1.0, 10_000);

    // Unbudgeted reference: all 400 stored rows plus the request row.
    let relaxed = RequestOptions::default();
    let full = execute_request_with(&provider, &dep, &request, &relaxed).unwrap();
    assert_eq!(full.row[0], Value::Double(401.0));
    assert_eq!(full.row[1], Value::Bigint(401));

    let strict = RequestOptions {
        deadline: Deadline::within(Duration::from_millis(30)),
        allow_degraded: false,
        ..RequestOptions::default()
    };
    match execute_request_with(&provider, &dep, &request, &strict) {
        Err(Error::Timeout { stage, budget_ms }) => {
            assert_eq!(stage, "window_scan", "expired between scanned rows");
            assert_eq!(budget_ms, 30);
        }
        // The contract permits only the full answer or a typed Timeout —
        // a partial sum/count would show up as a different row here.
        Ok(out) => assert_eq!(out.row, full.row),
        Err(e) => panic!("only Timeout or the full answer allowed, got {e:?}"),
    }

    // The aborted attempt returned its scratch to the deployment pool;
    // a later unbudgeted request must see clean buffers, not stale entries.
    let again = execute_request_with(&provider, &dep, &request, &relaxed).unwrap();
    assert_eq!(again.row, full.row);
}

/// Two windows folded off one scan keep the single-window deadline contract:
/// the budget is probed every 64 scanned rows, and a scan cut short is the
/// typed `Timeout { stage: "window_scan" }` — the same error, at the same
/// row, as each window deployed on its own; unbudgeted, the grouped answer is
/// the materializing oracle's.
#[test]
fn grouped_scan_times_out_at_the_same_row_as_a_scan_per_window() {
    let events = mk_table("events");
    for i in 0..400i64 {
        events.put(&row(1, 1.0, i * 10)).unwrap();
    }
    const W0: &str =
        "(PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)";
    const W1: &str = "(PARTITION BY k ORDER BY ts ROWS BETWEEN 300 PRECEDING AND CURRENT ROW)";
    let plan = |sql: String| Arc::new(compile_select(&parse_select(&sql).unwrap(), &Cat).unwrap());
    // 2 ms per visited entry against a 30 ms budget: the deadline is long
    // gone when the scan reaches its first probe, at row 64.
    let mut provider = SlowProvider::new(Duration::from_millis(2));
    provider.insert(events);
    let grouped = plan(format!(
        "SELECT sum(v) OVER w0 AS s, count(v) OVER w1 AS c FROM events WINDOW w0 AS {W0}, w1 AS {W1}"
    ));
    let grouped = Deployment::new("d", grouped, &provider).unwrap();
    assert_eq!(grouped.scan_groups(), [vec![0, 1]]);
    let alone = [
        plan(format!(
            "SELECT sum(v) OVER w0 AS s FROM events WINDOW w0 AS {W0}"
        )),
        plan(format!(
            "SELECT count(v) OVER w1 AS c FROM events WINDOW w1 AS {W1}"
        )),
    ]
    .map(|q| Deployment::new("d", q, &provider).unwrap());

    let request = row(1, 1.0, 10_000);
    for dep in std::iter::once(&grouped).chain(&alone) {
        // (A deadline anchors when it is built.)
        let strict = RequestOptions {
            deadline: Deadline::within(Duration::from_millis(30)),
            allow_degraded: false,
            ..RequestOptions::default()
        };
        provider.visited.store(0, Ordering::SeqCst);
        let err = execute_request_with(&provider, dep, &request, &strict).unwrap_err();
        assert_eq!(
            err,
            Error::Timeout {
                stage: "window_scan",
                budget_ms: 30
            }
        );
        assert_eq!(provider.visited.load(Ordering::SeqCst), 64);
    }
    // Unbudgeted, the grouped scan reads what its widest member needs once:
    // 400 rows for the range frame, which covers the 300 of the ROWS frame.
    provider.visited.store(0, Ordering::SeqCst);
    let out = execute_request_with(&provider, &grouped, &request, &RequestOptions::default());
    let out = out.unwrap().row;
    assert_eq!(out[1], Value::Bigint(301));
    assert_eq!(provider.visited.load(Ordering::SeqCst), 400);
    assert_eq!(
        out,
        execute_request_materialized(&provider, &grouped, &request).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Deadline-budgeted serving never hangs: with arbitrarily slow storage
    /// and an arbitrary budget, every request resolves to a feature row or
    /// a typed Timeout, within budget + bounded slack (one storage access
    /// may be in flight when the budget expires, plus scheduling noise).
    #[test]
    fn deadline_budget_is_honored_never_hangs(
        budget_ms in 1u64..60,
        delay_ms in 0u64..8,
        rows in 1usize..40,
    ) {
        let events = mk_table("events");
        for i in 0..rows as i64 {
            events.put(&row(1, i as f64, i * 10)).unwrap();
        }
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(v) OVER w AS s FROM events \
                     WINDOW w AS (PARTITION BY k ORDER BY ts \
                     ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
                )
                .unwrap(),
                &Cat,
            )
            .unwrap(),
        );
        let mut provider = SlowProvider::new(Duration::from_millis(delay_ms));
        provider.insert(events);
        let dep = Deployment::new("d", q, &provider).unwrap();
        let opts = RequestOptions {
            deadline: Deadline::within_ms(budget_ms),
            ..RequestOptions::default()
        };

        let t0 = Instant::now();
        let out = execute_request_with(&provider, &dep, &row(1, 1.0, 10_000), &opts);
        let elapsed = t0.elapsed();

        // Slack: one in-flight storage access (delay_ms) + retries'
        // capped backoffs + generous scheduling noise.
        let slack = Duration::from_millis(delay_ms * 4 + 250);
        prop_assert!(
            elapsed <= Duration::from_millis(budget_ms) + slack,
            "took {elapsed:?} against budget {budget_ms} ms"
        );
        match out {
            Ok(o) => prop_assert!(!o.degraded, "no preagg deployed, cannot degrade"),
            Err(Error::Timeout { stage, budget_ms: b }) => {
                prop_assert!(!stage.is_empty());
                prop_assert_eq!(b, budget_ms);
            }
            Err(e) => prop_assert!(false, "only success or Timeout allowed, got {e:?}"),
        }
    }
}
