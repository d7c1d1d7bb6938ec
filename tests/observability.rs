//! End-to-end observability: one process exercises the online engine, the
//! plan cache, storage GC, the incremental executor and the memory manager,
//! then checks that the global registry exposes the full metric surface and
//! that the views over the per-request record (sampled traces, per-deployment
//! series, post-mortems, exemplars) carry what the requests did.

use openmldb::obs::{Registry, Stage, Tracer};
use openmldb::sql::ast::Frame;
use openmldb::{recommend_engine, Row, Value};

fn serve_some_requests() -> openmldb::Database {
    let db = openmldb::Database::new();
    db.execute(
        "CREATE TABLE actions (userid BIGINT, price DOUBLE, ts TIMESTAMP, \
         INDEX(KEY=userid, TS=ts, TTL=10s, TTL_TYPE=absolute))",
    )
    .unwrap();
    for i in 0..100i64 {
        db.execute(&format!(
            "INSERT INTO actions VALUES ({}, {}.5, {})",
            i % 4,
            i % 10,
            i * 100
        ))
        .unwrap();
    }
    db.deploy(
        "DEPLOY f AS SELECT userid, sum(price) OVER w AS spend FROM actions \
         WINDOW w AS (PARTITION BY userid ORDER BY ts \
         ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    for i in 0..128i64 {
        let request = Row::new(vec![
            Value::Bigint(i % 4),
            Value::Double(1.0),
            Value::Timestamp(20_000 + i),
        ]);
        db.request("f", &request).unwrap();
    }
    // offline queries route through the plan cache: first compiles (miss),
    // second reuses (hit)
    for _ in 0..2 {
        db.execute(
            "SELECT userid, sum(price) OVER w AS spend FROM actions \
             WINDOW w AS (PARTITION BY userid ORDER BY ts \
             ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW)",
        )
        .unwrap();
    }
    db
}

#[test]
fn registry_exposes_cross_crate_metric_surface() {
    // trace every request so the tracer assertions below are deterministic
    Tracer::global().set_sample_every(1);

    let db = serve_some_requests();

    // exec: drive a sliding window directly (subtract-and-evict + eviction)
    {
        use openmldb::sql::functions::lookup;
        use openmldb::sql::plan::{BoundAggregate, PhysExpr};
        let aggs = [BoundAggregate {
            window_id: 0,
            func: lookup("sum").unwrap(),
            args: vec![PhysExpr::Column(0)],
            output_type: openmldb::DataType::Double,
        }];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut w =
            openmldb::exec::SlidingWindow::new(Frame::RowsRange { preceding_ms: 10 }, &refs)
                .unwrap();
        for i in 0..50i64 {
            w.push(i * 5, &[Value::Bigint(1)]).unwrap();
        }
    }

    // storage: TTL GC far in the future evicts everything inserted above
    db.gc(10_000_000);

    // core: tier decisions + a memory-monitor poll
    recommend_engine(10, 100, 10);
    recommend_engine(10, 100, 25);
    recommend_engine(200, 100, 10);
    db.memory_monitor().poll();

    let render = Registry::global().render();
    let names = Registry::global().metric_names();

    let expected = [
        // online
        "openmldb_online_requests_total",
        "openmldb_online_request_duration_ns",
        // sql
        "openmldb_sql_plan_cache_hits_total",
        "openmldb_sql_plan_cache_misses_total",
        // storage
        "openmldb_storage_seeks_total",
        "openmldb_storage_scan_len_rows",
        "openmldb_storage_ttl_evictions_total",
        // exec
        "openmldb_exec_incremental_steps_total",
        "openmldb_exec_window_evictions_total",
        // core
        "openmldb_core_tier_inmemory_total",
        "openmldb_core_tier_ondisk_total",
        "openmldb_core_tier_diskrequired_total",
        "openmldb_core_memory_used_bytes",
    ];
    for name in expected {
        assert!(
            names.iter().any(|n| n == name),
            "metric {name} not registered; have: {names:?}"
        );
        assert!(render.contains(name), "render() missing {name}");
    }
    assert!(
        names.len() >= 12,
        "expected >= 12 metrics, got {}: {names:?}",
        names.len()
    );

    // Prometheus text structure
    assert!(render.contains("# TYPE openmldb_online_requests_total counter"));
    assert!(render.contains("# TYPE openmldb_online_request_duration_ns summary"));
    assert!(render.contains("openmldb_online_request_duration_ns{quantile=\"0.99\"}"));

    // JSON exposition parses the same surface
    let json = Registry::global().render_json();
    assert!(json.contains("\"name\":\"openmldb_online_requests_total\""));
    assert!(json.contains("\"p999\""));

    if openmldb::obs::enabled() {
        // The attribution globals register lazily when the first request
        // record is published, so they only exist with obs compiled in.
        for name in [
            "openmldb_online_scan_rows",
            "openmldb_online_request_time_ns",
            "openmldb_online_stage_time_ns",
        ] {
            assert!(
                names.iter().any(|n| n == name),
                "attribution metric {name} not registered; have: {names:?}"
            );
        }
        let requests = Registry::global()
            .counter("openmldb_online_requests_total", "")
            .value();
        assert!(requests >= 128, "served requests recorded: {requests}");
        let dur = Registry::global()
            .histogram("openmldb_online_request_duration_ns", "")
            .snapshot();
        assert!(dur.count() >= 128);
        assert!(dur.percentile(0.999) >= dur.percentile(0.5));

        // the tracer retained request breakdowns with the expected stages
        let traces = Tracer::global().recent();
        assert!(!traces.is_empty(), "sampled traces retained");
        let has = |stage: Stage| {
            traces
                .iter()
                .any(|t| t.spans.iter().any(|s| s.stage == stage))
        };
        assert!(has(Stage::StorageSeek), "storage_seek spans: {traces:?}");
        assert!(has(Stage::WindowDispatch));
        assert!(has(Stage::Aggregate));
        assert!(has(Stage::Encode));
        let trace_json = Tracer::global().render_json();
        assert!(trace_json.contains("\"stage\":\"window_dispatch\""));
    }
}

/// Per-deployment workload attribution: labeled series slice the request
/// traffic by deployment, the cost-profile store renders an EXPLAIN ANALYZE
/// breakdown, and the heavy-hitter sketch surfaces the deployment.
#[test]
fn per_deployment_attribution_is_exposed() {
    let db = serve_some_requests();
    if !openmldb::obs::enabled() {
        return;
    }

    let reg = Registry::global();
    let labeled = reg.labeled_metric_names();
    for name in [
        "openmldb_online_deployment_requests_total",
        "openmldb_online_deployment_scan_rows",
        "openmldb_online_deployment_stage_time_ns",
        "openmldb_online_deployment_request_time_ns",
        "openmldb_online_deployment_duration_ns",
    ] {
        assert!(
            labeled.iter().any(|n| n == name),
            "labeled metric {name} not registered; have: {labeled:?}"
        );
    }
    let series = reg.labeled_series("openmldb_online_deployment_requests_total");
    let served = series
        .iter()
        .find(|(label, _)| label == "f")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert!(served >= 128, "deployment f attributed {served} requests");

    // The Prometheus exposition carries the per-deployment sample line.
    let render = reg.render();
    assert!(
        render.contains("openmldb_online_deployment_requests_total{deployment=\"f\"}"),
        "labeled sample line missing from render()"
    );

    // EXPLAIN ANALYZE: per-stage breakdown plus cost counters, non-empty
    // for a deployment that has served traffic.
    let explain = db.explain_analyze("f");
    assert!(
        explain.contains("EXPLAIN ANALYZE deployment \"f\""),
        "{explain}"
    );
    assert!(!explain.contains("(no samples)"), "{explain}");
    assert!(explain.contains("rows scanned"), "{explain}");
    assert!(explain.contains("stage storage_seek"), "{explain}");
    // An unknown deployment renders a clean empty section, not an error.
    let empty = db.explain_analyze("nosuch");
    assert!(empty.contains("(no samples)"), "{empty}");

    // The hot-deployments view ranks it by its exact request count.
    let top = openmldb::obs::ProfileStore::global().hot_deployments(64);
    let f = top.iter().find(|e| e.key == "f").expect("f is ranked");
    assert!(f.count >= 128 && f.err == 0, "hot deployments: {top:?}");
}

/// One end-of-request clock reading feeds every latency surface: on a
/// deployment only this test serves, the duration histogram's sum, the
/// request-time series and the store's total are the same number.
#[test]
fn duration_histogram_sum_equals_request_time() {
    if !openmldb::obs::enabled() {
        return;
    }
    let db = serve_some_requests();
    db.deploy(
        "DEPLOY obs_sum_owned AS SELECT userid, count(price) OVER w AS n FROM actions \
         WINDOW w AS (PARTITION BY userid ORDER BY ts \
         ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    for i in 0..200i64 {
        let request = Row::new(vec![
            Value::Bigint(i % 4),
            Value::Double(1.0),
            Value::Timestamp(20_000 + i),
        ]);
        db.request("obs_sum_owned", &request).unwrap();
    }
    let id = openmldb::obs::LabelRegistry::deployments()
        .lookup("obs_sum_owned")
        .expect("label resolved at deploy time");
    let hist = openmldb::online::metrics::deployment_duration()
        .snapshot(id)
        .expect("the deployment recorded latencies");
    let series = |name: &str| {
        Registry::global()
            .labeled_series(name)
            .into_iter()
            .find(|(label, _)| label == "obs_sum_owned")
            .map(|(_, v)| v)
    };
    assert_eq!(hist.count(), 200);
    assert_eq!(
        series("openmldb_online_deployment_requests_total"),
        Some(200)
    );
    assert_eq!(
        Some(hist.sum()),
        series("openmldb_online_deployment_request_time_ns"),
        "histogram sum and request-time counter must be the same reading"
    );
    let (requests, total) = openmldb::obs::ProfileStore::global().aggregate(id);
    assert_eq!((requests, total.total_ns), (200, hist.sum()));
}

/// A budget of zero forces a typed timeout; the flight recorder must dump a
/// post-mortem whose per-stage self-times sum exactly to the total.
#[test]
fn timeout_dumps_an_exactly_attributed_post_mortem() {
    use openmldb::obs::flight;
    use openmldb::RequestOptions;
    use std::time::Duration;

    let db = serve_some_requests();
    let request = Row::new(vec![
        Value::Bigint(1),
        Value::Double(1.0),
        Value::Timestamp(30_000),
    ]);
    let opts = RequestOptions::with_deadline(Duration::ZERO);

    let before = flight::published_total();
    let err = db
        .request_readonly_with("f", &request, &opts)
        .expect_err("zero budget must time out");
    assert!(matches!(err, openmldb::Error::Timeout { .. }), "{err:?}");

    if openmldb::obs::enabled() {
        assert!(
            flight::published_total() > before,
            "the timeout must publish a post-mortem"
        );
        let log = Registry::global().slow_queries();
        let pm = log
            .iter()
            .rev()
            .find(|pm| pm.outcome == openmldb::obs::Outcome::Timeout)
            .expect("a timeout post-mortem in the slow-query log");
        let stage_sum: u64 = pm.stage_self_ns.iter().sum();
        assert_eq!(
            stage_sum + pm.other_ns,
            pm.total_ns,
            "attribution must sum exactly to the total: {pm:?}"
        );
        assert!(!pm.culprit.is_empty());
        let text = pm.render_text();
        assert!(text.contains("outcome=timeout"), "{text}");
        let report = Registry::global().render_slow_query_report(false);
        assert!(report.contains("slow-query log:"), "{report}");
    }
}

/// Requests slower than the exemplar threshold leave their trace id and
/// stage breakdown on the latency histogram's buckets.
#[test]
fn slow_requests_attach_exemplars_to_the_latency_histogram() {
    if !openmldb::obs::enabled() {
        return;
    }
    let h = Registry::global().histogram("openmldb_online_request_duration_ns", "");
    // Threshold 0: every request from here on qualifies as an exemplar.
    h.enable_exemplars(0);

    let _db = serve_some_requests();

    let exemplars = h.exemplars();
    assert!(
        !exemplars.is_empty(),
        "requests must have attached exemplars"
    );
    for (_bucket, ex) in &exemplars {
        assert!(ex.trace_id > 0, "exemplars carry a live trace id: {ex:?}");
    }
}
