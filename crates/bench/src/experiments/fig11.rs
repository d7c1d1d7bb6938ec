//! **Figure 11** — Long-window optimization via `DEPLOY ... OPTIONS
//! (long_windows="w1:1d")`.
//!
//! Paper result on 860K tuples: request latency drops ~45× (300 ms → 6 ms)
//! with a slightly higher data-loading overhead.

use openmldb_core::Database;
use openmldb_workload::{micro_rows, MicroConfig};

use crate::harness::{fmt, print_table, scale, time_each, time_once, LatencyStats};
use crate::scenarios::micro_request;

pub struct LongWindowResult {
    pub tuples: usize,
    pub plain_load_ms: f64,
    pub preagg_load_ms: f64,
    pub plain_request_ms: f64,
    pub preagg_request_ms: f64,
}

const DAY_MS: i64 = 86_400_000;

pub fn run() -> LongWindowResult {
    // Paper uses 860K tuples; default scale keeps it snappy.
    let tuples = ((860_000.0 * scale()) as usize).max(20_000);
    // Spread tuples over ~100 days for one hot key.
    let step = (100 * DAY_MS) / tuples as i64;
    let data = micro_rows(&MicroConfig {
        rows: tuples,
        distinct_keys: 1,
        ts_step_ms: step.max(1),
        ..Default::default()
    });
    let max_ts = data.last().map(|r| r.ts_at(5)).unwrap_or(0);
    let script =
        "SELECT k, sum(v) OVER w1 AS s, count(v) OVER w1 AS c, avg(v) OVER w1 AS a FROM t1 \
         WINDOW w1 AS (PARTITION BY k ORDER BY ts \
         ROWS_RANGE BETWEEN 100d PRECEDING AND CURRENT ROW)"
            .to_string();

    // Plain deployment: deploy first, then load (no aggregator maintenance).
    let plain_db = Database::new();
    plain_db
        .execute(
            "CREATE TABLE t1 (id BIGINT, k BIGINT, v DOUBLE, category STRING, quantity INT, \
             ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
        )
        .unwrap();
    plain_db.deploy(&format!("DEPLOY lw AS {script}")).unwrap();
    let (_, plain_load_ms) = time_once(|| {
        for row in &data {
            plain_db.insert_row("t1", row).unwrap();
        }
    });

    // Pre-aggregated deployment: every insert also maintains daily buckets
    // through the binlog (the loading overhead the paper mentions).
    let fast_db = Database::new();
    fast_db
        .execute(
            "CREATE TABLE t1 (id BIGINT, k BIGINT, v DOUBLE, category STRING, quantity INT, \
             ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
        )
        .unwrap();
    fast_db
        .deploy(&format!(
            "DEPLOY lw OPTIONS(long_windows=\"w1:1d\") AS {script}"
        ))
        .unwrap();
    let (_, preagg_load_ms) = time_once(|| {
        for row in &data {
            fast_db.insert_row("t1", row).unwrap();
        }
        // Loading isn't done until the async aggregator updates land.
        use openmldb_online::TableProvider;
        fast_db.table("t1").unwrap().replicator().flush();
    });

    let requests = (100.0 * scale().max(0.2)) as usize;
    let plain_stats = LatencyStats::from_samples(time_each(requests, |i| {
        plain_db
            .request_readonly("lw", &micro_request(i as i64, 0, max_ts))
            .unwrap()
    }));
    let fast_stats = LatencyStats::from_samples(time_each(requests, |i| {
        fast_db
            .request_readonly("lw", &micro_request(i as i64, 0, max_ts))
            .unwrap()
    }));
    // Identical features.
    let a = plain_db
        .request_readonly("lw", &micro_request(0, 0, max_ts))
        .unwrap();
    let b = fast_db
        .request_readonly("lw", &micro_request(0, 0, max_ts))
        .unwrap();
    for (x, y) in a.values().iter().zip(b.values()) {
        match (x, y) {
            (openmldb_types::Value::Double(p), openmldb_types::Value::Double(q)) => {
                assert!((p - q).abs() / p.abs().max(1.0) < 1e-9)
            }
            _ => assert_eq!(x, y),
        }
    }

    let result = LongWindowResult {
        tuples,
        plain_load_ms,
        preagg_load_ms,
        plain_request_ms: plain_stats.mean_ms,
        preagg_request_ms: fast_stats.mean_ms,
    };
    print_table(
        &format!("Fig 11: long-window optimization ({tuples} tuples, 100d window)"),
        &["deployment", "load ms", "request ms", "speedup"],
        &[
            vec![
                "plain".into(),
                fmt(result.plain_load_ms),
                fmt(result.plain_request_ms),
                "1.0x".into(),
            ],
            vec![
                "long_windows=w1:1d".into(),
                fmt(result.preagg_load_ms),
                fmt(result.preagg_request_ms),
                format!("{:.1}x", result.plain_request_ms / result.preagg_request_ms),
            ],
        ],
    );
    result
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn long_window_option_accelerates_requests() {
        let r = crate::harness::with_scale(0.05, super::run);
        assert!(
            r.preagg_request_ms < r.plain_request_ms,
            "preagg {:.3}ms vs plain {:.3}ms",
            r.preagg_request_ms,
            r.plain_request_ms
        );
    }
}
