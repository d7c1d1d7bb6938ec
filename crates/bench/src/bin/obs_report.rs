//! Workload-attribution and slow-query report over a small request-mode
//! workload.
//!
//! Deploys three feature scripts with distinct window frames, interleaves
//! requests across them (deliberately skewed so the heavy-hitter sketch has
//! something to find), and renders:
//!
//! * a per-deployment attribution table (requests, rows scanned, staged
//!   time) sliced from the labeled metric series;
//! * an EXPLAIN ANALYZE-style cost profile per deployment;
//! * the hot deployments (exact, read off the per-deployment store) and the
//!   SpaceSaving top-K hot partition keys (fed from the one request in
//!   `flight::SAMPLE_EVERY` each thread samples — the report serves enough
//!   rounds that every key pattern is sampled);
//! * request-rate trends from the labeled-metric sample rings;
//! * the slow-query post-mortem log (threshold dropped to zero so it is
//!   populated deterministically);
//! * a consistency-audit section: the workload runs with sentinel sampling
//!   on, the queue is drained through the oracle replays before rendering,
//!   and the section reports samples/audits/divergences/queue lag plus a
//!   per-deployment divergence line (clean "no data" when a filtered
//!   deployment served nothing);
//! * a durability & recovery section (WAL / snapshot / recovery counters,
//!   fed by a small durable crash-and-recover roundtrip so the numbers are
//!   live; renders a clean "no data" line when nothing durable has run).
//!
//! Usage: `obs_report [--json] [--deployment <name>]` (reads `BENCH_SCALE`
//! like the other bins). `--deployment` narrows the attribution sections to
//! one deployment; an unknown or idle name renders a clean "no data"
//! section instead of erroring.

use openmldb_bench::harness::scaled;
use openmldb_bench::scenarios::{micro_db, micro_request, micro_sql};
use openmldb_core::Database;
use openmldb_obs::{flight, ProfileStore, Registry, SpaceSaving};
use openmldb_online::sentinel;

/// A small durable write → crash → recover roundtrip so the durability
/// section reports live WAL/snapshot/recovery counters (the attribution
/// workload above is purely in-memory).
fn durable_roundtrip(rows: usize) {
    let dir = std::env::temp_dir().join(format!("openmldb-obs-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::recover(&dir).expect("durable open");
        db.execute("CREATE TABLE d (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
            .expect("create");
        for i in 0..rows as i64 {
            db.execute(&format!(
                "INSERT INTO d VALUES ({}, {}.5, {})",
                i % 8,
                i,
                1_000 + i * 3
            ))
            .expect("insert");
            if i == rows as i64 / 2 {
                db.snapshot_now().expect("snapshot");
            }
        }
        db.sync_durable().expect("sync");
    }
    let _ = Database::recover(&dir).expect("recover");
    let _ = std::fs::remove_dir_all(&dir);
}

fn print_durability_section() {
    let reg = Registry::global();
    let counter = |name: &str| reg.counter(name, "").value();
    let recoveries = counter("openmldb_core_recoveries_total");
    let appends = counter("openmldb_storage_wal_appends_total");
    if recoveries == 0 && appends == 0 {
        println!("  (no data: no durable database has run in this process)");
        return;
    }
    let hist = reg
        .histogram("openmldb_core_recovery_duration_ms", "")
        .snapshot();
    println!(
        "  recoveries              {recoveries} (rows replayed {})",
        counter("openmldb_core_recovered_rows_total")
    );
    println!(
        "  recovery p50/p99 ms     {} / {}",
        hist.percentile(0.50),
        hist.percentile(0.99)
    );
    println!(
        "  wal appends/fsyncs      {appends} / {}",
        counter("openmldb_storage_wal_fsyncs_total")
    );
    let fsync = reg
        .histogram("openmldb_storage_wal_fsync_ns", "")
        .snapshot();
    let group = reg
        .histogram("openmldb_storage_wal_group_records", "")
        .snapshot();
    println!(
        "  wal fsync p50/p99 us    {} / {}",
        fsync.percentile(0.50) / 1_000,
        fsync.percentile(0.99) / 1_000
    );
    println!(
        "  wal groups (mean recs)  {} ({})",
        group.count(),
        group.sum() / group.count().max(1)
    );
    println!(
        "  wal bytes               {}",
        counter("openmldb_storage_wal_bytes_total")
    );
    println!(
        "  wal torn tails          {}",
        counter("openmldb_storage_wal_torn_tails_total")
    );
    println!(
        "  snapshots written       {} (bytes {}, invalid {})",
        counter("openmldb_storage_snapshots_total"),
        counter("openmldb_storage_snapshot_bytes_total"),
        counter("openmldb_storage_snapshots_invalid_total")
    );
}

/// Consistency-audit section: cumulative sentinel counters plus a
/// per-deployment divergence line (sliced from the labeled series, same
/// no-data contract as the attribution table).
fn print_sentinel_section(deployments: &[String]) {
    let s = sentinel::stats();
    if s.samples == 0 {
        println!("  (no data: sentinel sampling has not captured any serves)");
        return;
    }
    println!("  samples / audits        {} / {}", s.samples, s.audits);
    println!("  divergences             {}", s.divergences);
    println!(
        "  stale skips / dropped   {} / {}",
        s.stale_skips, s.dropped
    );
    println!("  bucket-served skips     {}", s.bucket_skips);
    println!("  replay errors           {}", s.errors);
    println!("  queue lag               {}", s.queue);
    let reg = Registry::global();
    let req_series = reg.labeled_series("openmldb_online_deployment_requests_total");
    let div_series = reg.labeled_series("openmldb_online_deployment_divergences_total");
    let per_dep = |series: &[(String, u64)], dep: &str| -> u64 {
        series
            .iter()
            .find(|(l, _)| l == dep)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    for dep in deployments {
        if per_dep(&req_series, dep) == 0 {
            println!("  {dep:<12} (no data: deployment has served no requests)");
        } else {
            println!("  {dep:<12} divergences {}", per_dep(&div_series, dep));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let filter: Option<String> = args
        .iter()
        .position(|a| a == "--deployment")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Threshold 0: every request (even a fast clean one) is "slow", so the
    // post-mortem report below is populated deterministically.
    flight::set_slow_query_threshold_ns(0);

    let rows = scaled(2_000);
    let keys = 10usize;
    let db = micro_db(rows, keys, 0.0, 1);
    // Three deployments with distinct frames: a short window, a long
    // window, and a multi-window script — distinct per-request costs make
    // the attribution table non-degenerate.
    for (name, sql) in [
        ("f_short", micro_sql(1, 1, 10_000, false)),
        ("f_long", micro_sql(1, 0, 60_000, false)),
        ("f_multi", micro_sql(2, 1, 30_000, false)),
    ] {
        db.deploy(&format!("DEPLOY {name} AS {sql}"))
            .expect("deploy");
    }

    // Sentinel sampling on for the whole workload: the consistency-audit
    // section below reports live numbers, not a no-data placeholder.
    sentinel::set_sample_every(4);

    let max_ts = rows as i64 * 10;
    // Skewed interleave: f_short serves 4x the requests of f_long, and
    // partition key 0 is hit far more than the rest — the top-K sections
    // should surface both. The hot-keys sketch sees one request in
    // `SAMPLE_EVERY`, so the workload is 48 of those intervals long: 48
    // sampled requests, and a tick every eight of them.
    let every = flight::SAMPLE_EVERY as i64;
    for i in 0..48 * every {
        let dep = match i % 6 {
            0..=3 => "f_short",
            4 => "f_long",
            _ => "f_multi",
        };
        let key = if i % 3 == 0 { 0 } else { i % keys as i64 };
        db.request_readonly(dep, &micro_request(i, key, max_ts))
            .expect("request");
        // Sample the labeled series every few requests so the trend rings
        // hold a visible ramp by the end of the run.
        if i % (8 * every) == 8 * every - 1 {
            Registry::global().tick();
        }
    }

    // Audit everything captured above before rendering, so the section
    // reports settled verdicts rather than queue depth.
    sentinel::set_sample_every(0);
    while db.sentinel_drain(sentinel::MAX_QUEUE).remaining > 0 {}

    let deployments: Vec<String> = match &filter {
        Some(name) => vec![name.clone()],
        None => db.deployment_names(),
    };

    if !json {
        println!("=== workload attribution ===");
        let reg = Registry::global();
        let req_series = reg.labeled_series("openmldb_online_deployment_requests_total");
        let per_dep = |series: &[(String, u64)], dep: &str| -> u64 {
            series
                .iter()
                .find(|(l, _)| l == dep)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        let rows_series = reg.labeled_series("openmldb_online_deployment_scan_rows");
        let stage_series = reg.labeled_series("openmldb_online_deployment_stage_time_ns");
        println!(
            "{:<12} {:>10} {:>12} {:>14}",
            "deployment", "requests", "rows", "staged_us"
        );
        for dep in &deployments {
            let requests = per_dep(&req_series, dep);
            if requests == 0 {
                println!("{dep:<12} (no data: deployment has served no requests)");
                continue;
            }
            println!(
                "{:<12} {:>10} {:>12} {:>14}",
                dep,
                requests,
                per_dep(&rows_series, dep),
                per_dep(&stage_series, dep) / 1_000,
            );
        }
        println!();

        println!("=== cost profiles ===");
        for dep in &deployments {
            print!("{}", ProfileStore::global().render_explain_analyze(dep));
            println!();
        }

        println!("=== hot deployments (top-5 by requests) ===");
        for e in ProfileStore::global().hot_deployments(5) {
            println!("  {:<24} count={}", e.key, e.count);
        }
        println!();
        println!("=== hot partition keys (SpaceSaving top-5) ===");
        for e in SpaceSaving::hot_keys().top(5) {
            println!("  {:<24} count~{} (err<={})", e.key, e.count, e.err);
        }
        println!();

        println!("=== request trend (per snapshot tick) ===");
        for dep in &deployments {
            let trend = reg.trend_for("openmldb_online_deployment_requests_total", dep);
            if trend.is_empty() {
                println!("  {dep:<12} (no data: no samples ticked)");
            } else {
                let pts: Vec<String> = trend.iter().map(|v| v.to_string()).collect();
                println!("  {:<12} {}", dep, pts.join(" "));
            }
        }
        println!();
        println!("=== consistency audit ===");
        print_sentinel_section(&deployments);
        println!();
        println!("=== durability & recovery ===");
        durable_roundtrip(scaled(200));
        print_durability_section();
        println!();
        println!("=== slow-query post-mortems ===");
    }

    print!("{}", Registry::global().render_slow_query_report(json));
}
