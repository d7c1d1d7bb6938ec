//! Invariants of the one per-request record and of the views published from
//! it, checked against the process-wide metrics.
//!
//! This suite is a single `#[test]` in a binary of its own on purpose: every
//! assertion below compares process-global totals exactly, which only holds
//! when nothing else in the process is serving requests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use openmldb::obs::flight::{self, PostMortem};
use openmldb::obs::{LabelRegistry, Outcome, ProfileStore, Registry, OVERFLOW_LABEL};
use openmldb::online::{execute_request_with, Deployment, PreAggregator, TableProvider};
use openmldb::sql::{compile_select, parse_select, Catalog};
use openmldb::storage::{Backend, DataTable, IndexSpec, MemTable, Replicator, Ttl};
use openmldb::{Database, Deadline, Error, KeyValue, RequestOptions, Result, Row, Schema, Value};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", openmldb::DataType::Bigint),
        ("v", openmldb::DataType::Double),
        ("ts", openmldb::DataType::Timestamp),
    ])
    .unwrap()
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

/// A table whose streaming scans always fault transiently and whose ranged
/// reads sleep — storage that forces failover, timeouts and degraded answers
/// without the `chaos` feature.
struct Shim {
    inner: Arc<MemTable>,
    fail_scans: bool,
    read_delay: Duration,
}

impl DataTable for Shim {
    fn name(&self) -> &str {
        DataTable::name(&*self.inner)
    }
    fn backend(&self) -> Backend {
        self.inner.backend()
    }
    fn set_max_memory_bytes(&self, limit: usize) {
        DataTable::set_max_memory_bytes(&*self.inner, limit)
    }
    fn schema(&self) -> &Schema {
        DataTable::schema(&*self.inner)
    }
    fn replicator(&self) -> &Arc<Replicator> {
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
    fn latest(&self, index_id: usize, key: &[KeyValue]) -> Result<Option<Row>> {
        DataTable::latest(&*self.inner, index_id, key)
    }
    fn latest_visit(
        &self,
        index_id: usize,
        key: &[KeyValue],
        visitor: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<bool> {
        DataTable::latest_visit(&*self.inner, index_id, key, visitor)
    }
    fn latest_where(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: Option<i64>,
        pred: &mut dyn FnMut(&Row) -> bool,
    ) -> Result<Option<Row>> {
        DataTable::latest_where(&*self.inner, index_id, key, upper_ts, pred)
    }
    fn range_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        std::thread::sleep(self.read_delay);
        DataTable::range_projected(&*self.inner, index_id, key, lower_ts, upper_ts, wanted)
    }
    fn latest_n_projected(
        &self,
        index_id: usize,
        key: &[KeyValue],
        upper_ts: i64,
        limit: usize,
        wanted: Option<&[bool]>,
    ) -> Result<Vec<(i64, Row)>> {
        DataTable::latest_n_projected(&*self.inner, index_id, key, upper_ts, limit, wanted)
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
        if self.fail_scans {
            return Err(Error::Storage(
                "transient fault injected by the shim".into(),
            ));
        }
        DataTable::scan_window(
            &*self.inner,
            index_id,
            key,
            lower_ts,
            upper_ts,
            limit,
            visitor,
        )
    }
    fn scan_all(&self, index_id: usize) -> Result<Vec<Row>> {
        DataTable::scan_all(&*self.inner, index_id)
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

#[derive(Default)]
struct Provider {
    tables: HashMap<String, Arc<dyn DataTable>>,
    fallbacks: HashMap<String, Arc<dyn DataTable>>,
}

impl TableProvider for Provider {
    fn table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        self.tables.get(name).cloned()
    }
    fn fallback_table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        self.fallbacks.get(name).cloned()
    }
}

fn provider(events: &Arc<MemTable>, fail_scans: bool, read_delay: Duration) -> Provider {
    let mut p = Provider::default();
    p.tables.insert(
        "events".into(),
        Arc::new(Shim {
            inner: events.clone(),
            fail_scans,
            read_delay,
        }),
    );
    p.fallbacks.insert("events".into(), events.clone());
    p
}

/// The record's own invariants, read off the post-mortem every request of
/// the mixed loop published: the ledger is exact, timed events never go back
/// in time, and a count-only event carries the time of the timed event
/// before it.
fn assert_record_invariants(pm: &PostMortem) {
    let staged: u64 = pm.stage_self_ns.iter().sum();
    assert_eq!(
        staged + pm.other_ns,
        pm.total_ns,
        "ledger not exact: {pm:?}"
    );
    let mut cursor = 0u64;
    for e in &pm.events {
        if e.kind.is_timed() {
            assert!(e.t_ns >= cursor, "time went back at {e:?}: {pm:?}");
            cursor = e.t_ns;
        } else if pm.dropped_events == 0 {
            assert_eq!(e.t_ns, cursor, "count-only event off the cursor: {pm:?}");
        }
        assert!(e.t_ns <= pm.total_ns, "event after the end reading: {pm:?}");
    }
}

/// Compiled windows, a pre-aggregation hit, a timeout, a degraded answer and
/// a failover, each published as a post-mortem (threshold 0).
fn mixed_loop() {
    let events = Arc::new(
        MemTable::new(
            "events",
            schema(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap(),
    );
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

    let healthy = provider(&events, false, Duration::ZERO);
    let flaky = provider(&events, true, Duration::ZERO);
    let slow = provider(&events, false, Duration::from_millis(40));
    // A deployment reads the tables it was bound to at DEPLOY: one per
    // storage behaviour (equal names share a label slot).
    let scan_on = |p: &Provider| Deployment::new("rec_scan", q.clone(), p).unwrap();
    let preagg_on = |p: &Provider| {
        Deployment::new("rec_preagg", q.clone(), p)
            .unwrap()
            .with_preagg(0, preagg.clone())
    };
    let (scan_dep, flaky_dep) = (scan_on(&healthy), scan_on(&flaky));
    let (preagg_dep, slow_dep) = (preagg_on(&healthy), preagg_on(&slow));
    let request = row(1, 7.0, 5_250);
    let unbounded = RequestOptions::default();

    flight::clear_slow_log();
    let seeks = || {
        Registry::global()
            .counter("openmldb_storage_seeks_total", "")
            .value()
    };
    let mut expected = Vec::new();
    for _ in 0..4 {
        // compiled window over a raw scan
        let seeks_before = seeks();
        let out = execute_request_with(&healthy, &scan_dep, &request, &unbounded).unwrap();
        assert_eq!((out.degraded, out.failovers), (false, 0));
        assert_eq!(
            seeks() - seeks_before,
            1,
            "exact the moment the request returns"
        );
        expected.push(Outcome::Slow);
        // pre-aggregation hit (raw edges read through `range_projected`)
        let out = execute_request_with(&healthy, &preagg_dep, &request, &unbounded).unwrap();
        assert!(!out.degraded);
        expected.push(Outcome::Slow);
        // zero budget: typed timeout
        let zero = RequestOptions::with_deadline(Duration::ZERO);
        let err = execute_request_with(&healthy, &scan_dep, &request, &zero).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
        expected.push(Outcome::Timeout);
        // slow raw edges against a 10 ms budget (a deadline anchors when it
        // is built): buckets-only answer
        let tight = RequestOptions {
            deadline: Deadline::within(Duration::from_millis(10)),
            ..RequestOptions::default()
        };
        let out = execute_request_with(&slow, &slow_dep, &request, &tight).unwrap();
        assert!(out.degraded);
        expected.push(Outcome::Degraded);
        // the primary's scans keep faulting: the replica answers
        let out = execute_request_with(&flaky, &flaky_dep, &request, &unbounded).unwrap();
        assert!(out.failovers > 0 && out.retries > 0);
        expected.push(Outcome::Failover);
    }

    let log = flight::slow_log();
    let outcomes: Vec<Outcome> = log.iter().map(|pm| pm.outcome).collect();
    assert_eq!(outcomes, expected, "every request publishes its record");
    for pm in &log {
        assert_record_invariants(pm);
    }
    let kinds = |pm: &PostMortem| -> Vec<&'static str> {
        pm.events.iter().map(|e| e.kind.name()).collect()
    };
    assert!(kinds(&log[0]).contains(&"compiled_window"), "{:?}", log[0]);
    assert!(kinds(&log[0]).contains(&"scan_rows"), "{:?}", log[0]);
    assert!(kinds(&log[1]).contains(&"preagg_hit"), "{:?}", log[1]);
    assert!(kinds(&log[3]).contains(&"degraded"), "{:?}", log[3]);
    assert!(kinds(&log[4]).contains(&"failover"), "{:?}", log[4]);
    assert!(log[4].retries > 0 && log[4].failovers > 0);
    // One clock: a no-join, one-window request takes a reading at request
    // start and at five of its eight stage boundaries — the boundaries the
    // engine declares adjacent, and the end of the request, share one.
    let stamps: Vec<(&str, u32, u64)> = log[0]
        .events
        .iter()
        .filter(|e| e.kind.is_timed())
        .map(|e| (e.kind.name(), e.a, e.t_ns))
        .collect();
    let stage = |s: openmldb::obs::Stage| s.index() as u32;
    use openmldb::obs::Stage::{Aggregate, Encode, StorageSeek, WindowDispatch};
    let order: Vec<(&str, u32)> = stamps.iter().map(|&(k, a, _)| (k, a)).collect();
    assert_eq!(
        order,
        vec![
            ("stage_enter", stage(WindowDispatch)),
            ("stage_enter", stage(StorageSeek)),
            ("stage_exit", stage(StorageSeek)),
            ("stage_enter", stage(Aggregate)),
            ("stage_exit", stage(Aggregate)),
            ("stage_exit", stage(WindowDispatch)),
            ("stage_enter", stage(Encode)),
            ("stage_exit", stage(Encode)),
        ]
    );
    let t: Vec<u64> = stamps.iter().map(|&(_, _, t)| t).collect();
    assert!(t.windows(2).all(|w| w[0] <= w[1]) && t[0] < t[7], "{t:?}");
    assert_eq!((t[2], t[4], t[5]), (t[3], t[5], t[6]), "{t:?}");
    assert_eq!(
        log[0].total_ns, t[7],
        "the request ends on its last reading"
    );

    let mut ids: Vec<u64> = log.iter().map(|pm| pm.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), log.len(), "request ids are unique");
}

fn series(name: &str) -> HashMap<String, u64> {
    Registry::global()
        .labeled_series(name)
        .into_iter()
        .collect()
}

/// Sum of one labeled series' sample lines in the Prometheus exposition.
fn rendered_sum(render: &str, name: &str) -> u64 {
    let prefix = format!("{name}{{deployment=");
    render
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// Three named deployments plus enough filler names to exhaust the label
/// slots, served from two threads.
fn two_threads_three_deployments_and_other() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE events (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    for i in 0..400i64 {
        db.insert_row("events", &row(i % 8, (i % 10) as f64, i * 25))
            .unwrap();
    }
    let deploy = |name: &str, frame_ms: u32| {
        db.deploy(&format!(
            "DEPLOY {name} AS SELECT k, sum(v) OVER w AS s FROM events WINDOW w AS \
             (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN {frame_ms} PRECEDING AND CURRENT ROW)"
        ))
        .unwrap();
    };
    let named = [("rec_a", 500u32), ("rec_b", 2_000), ("rec_c", 8_000)];
    for (name, frame_ms) in named {
        deploy(name, frame_ms);
    }
    let mut overflow = None;
    for i in 0..openmldb::obs::MAX_LABEL_SLOTS {
        let name = format!("rec_fill_{i}");
        deploy(&name, 1_000);
        if db.deployment(&name).unwrap().label().is_overflow() {
            overflow = Some(name);
            break;
        }
    }
    let overflow = overflow.expect("label slots exhaust into `__other`");

    let before = series("openmldb_online_deployment_requests_total");
    // Per thread: 60 requests to rec_a, 30 to rec_b, 15 to rec_c, 10 to the
    // overflow deployment.
    let plan: Vec<(String, usize)> = vec![
        ("rec_a".into(), 60),
        ("rec_b".into(), 30),
        ("rec_c".into(), 15),
        (overflow, 10),
    ];
    std::thread::scope(|s| {
        for t in 0..2i64 {
            let (db, plan) = (&db, &plan);
            s.spawn(move || {
                for (name, n) in plan {
                    for i in 0..*n as i64 {
                        db.request_readonly(name, &row((i + t) % 8, 1.0, 10_000 + i))
                            .unwrap();
                    }
                }
            });
        }
    });
    let after = series("openmldb_online_deployment_requests_total");
    let served = |label: &str| {
        after.get(label).copied().unwrap_or(0) - before.get(label).copied().unwrap_or(0)
    };
    assert_eq!(served("rec_a"), 120);
    assert_eq!(served("rec_b"), 60);
    assert_eq!(served("rec_c"), 30);
    assert_eq!(served(OVERFLOW_LABEL), 20);

    // The hot-deployments view is the store's exact request counts.
    let top = ProfileStore::global().hot_deployments(openmldb::obs::MAX_LABEL_SLOTS);
    for e in &top {
        assert_eq!((Some(&e.count), e.err), (after.get(&e.key), 0), "{e:?}");
    }
    assert_eq!(top.len(), after.len());
    assert!(top.windows(2).all(|w| w[0].count >= w[1].count));
    let rank = |name: &str| top.iter().position(|e| e.key == name).unwrap();
    assert!(rank("rec_a") < rank("rec_b") && rank("rec_b") < rank("rec_c"));
}

#[test]
fn request_record_invariants() {
    if !openmldb::obs::enabled() {
        return;
    }
    // Every request — not only the anomalous ones — publishes a post-mortem.
    flight::set_slow_query_threshold_ns(0);
    mixed_loop();
    flight::set_slow_query_threshold_ns(u64::MAX);
    two_threads_three_deployments_and_other();

    // Every number of every request above was stored once, under its
    // deployment's label; the rendered per-deployment series (`__other`
    // included) therefore sum exactly to the process-wide counters.
    let reg = Registry::global();
    let render = reg.render();
    let global = |name: &str| reg.counter(name, "").value();
    for (labeled, total) in [
        (
            "openmldb_online_deployment_requests_total",
            global("openmldb_online_requests_total"),
        ),
        (
            "openmldb_online_deployment_scan_rows_total",
            global("openmldb_online_scan_rows"),
        ),
        (
            "openmldb_online_deployment_stage_time_ns_total",
            global("openmldb_online_stage_time_ns"),
        ),
        (
            "openmldb_online_deployment_request_time_ns_total",
            global("openmldb_online_request_time_ns"),
        ),
        (
            "openmldb_online_deployment_duration_ns_sum",
            global("openmldb_online_request_time_ns"),
        ),
        (
            "openmldb_online_deployment_duration_ns_count",
            global("openmldb_online_requests_total"),
        ),
    ] {
        assert!(total > 0, "{labeled}: nothing served");
        assert_eq!(rendered_sum(&render, labeled), total, "{labeled}");
    }
    let duration = reg
        .histogram("openmldb_online_request_duration_ns", "")
        .snapshot();
    assert_eq!(duration.sum(), global("openmldb_online_request_time_ns"));
    assert_eq!(duration.count(), global("openmldb_online_requests_total"));
    let (requests, all) = ProfileStore::global().aggregate_all();
    assert_eq!(requests, duration.count());
    assert_eq!(all.total_ns, duration.sum());
    assert!(all.failovers >= 4 && all.degraded >= 4 && all.preagg_hits >= 4);
    assert!(
        LabelRegistry::deployments().overflow_resolutions() > 0,
        "the overflow slot was exercised"
    );
}
