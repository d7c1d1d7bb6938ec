//! **Figures 15, 16, 17** — query/data hyper-parameter sweeps.
//!
//! * Fig 15: number of windows 1..16 — latency grows modestly (<10 ms),
//!   throughput declines.
//! * Fig 16: rows per window 100..100K — latency stays ~10 ms-class.
//! * Fig 17: LAST JOIN count 1..8 — latency stays under a few ms, QPS above
//!   thousands.

use crate::harness::{fmt, print_table, scaled, time_each, time_each_budget, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

pub struct SweepPoint {
    pub x: usize,
    pub mean_ms: f64,
    pub p99_ms: f64,
    pub qps: f64,
}

fn measure(db: &openmldb_core::Database, name: &str, requests: usize) -> LatencyStats {
    LatencyStats::from_samples(time_each(requests, |i| {
        db.request_readonly(name, &micro_request(i as i64, (i % 50) as i64, 1_000_000))
            .unwrap()
    }))
}

/// Fig 15: window-count sweep.
pub fn run_window_count() -> Vec<SweepPoint> {
    let db = micro_db(scaled(10_000), 50, 0.0, 0);
    let requests = scaled(300);
    let mut out = Vec::new();
    for windows in [1usize, 2, 4, 8, 16] {
        let name = format!("f15_{windows}");
        db.deploy(&format!(
            "DEPLOY {name} AS {}",
            micro_sql(windows, 0, 2_000, false)
        ))
        .unwrap();
        let stats = measure(&db, &name, requests);
        out.push(SweepPoint {
            x: windows,
            mean_ms: stats.mean_ms,
            p99_ms: stats.p99_ms,
            qps: stats.qps,
        });
    }
    print_sweep("Fig 15: number of windows", "windows", &out);
    out
}

/// Fig 16: rows-per-window sweep (ts step 1 ms; frame = rows).
pub fn run_window_size() -> Vec<SweepPoint> {
    let max_rows = scaled(100_000);
    let db = {
        use openmldb_storage::{IndexSpec, MemTable, Ttl};
        use openmldb_workload::{micro_rows, micro_schema, MicroConfig};
        use std::sync::Arc;
        let db = openmldb_core::Database::new();
        let table = Arc::new(
            MemTable::new(
                "t1",
                micro_schema(),
                vec![IndexSpec {
                    name: "i".into(),
                    key_cols: vec![1],
                    ts_col: Some(5),
                    ttl: Ttl::Unlimited,
                }],
            )
            .unwrap(),
        );
        for row in micro_rows(&MicroConfig {
            rows: max_rows,
            distinct_keys: 1,
            ts_step_ms: 1,
            ..Default::default()
        }) {
            table.put(&row).unwrap();
        }
        db.register_table(table)
            .expect("registering on an in-memory db cannot fail");
        db
    };
    let requests = scaled(200);
    let mut out = Vec::new();
    // Below `BENCH_SCALE` 1 the table can hold fewer rows than the larger
    // fixed sizes; each size is deployed once (the name carries it).
    let sizes = [100usize, 1_000, 10_000]
        .into_iter()
        .filter(|&n| n < max_rows);
    for rows_in_window in sizes.chain([max_rows]) {
        let name = format!("f16_{rows_in_window}");
        db.deploy(&format!(
            "DEPLOY {name} AS {}",
            micro_sql(1, 0, rows_in_window as i64, false)
        ))
        .unwrap();
        let stats = LatencyStats::from_samples(time_each_budget(requests, 5_000.0, |i| {
            db.request_readonly(&name, &micro_request(i as i64, 0, max_rows as i64))
                .unwrap()
        }));
        out.push(SweepPoint {
            x: rows_in_window,
            mean_ms: stats.mean_ms,
            p99_ms: stats.p99_ms,
            qps: stats.qps,
        });
    }
    print_sweep("Fig 16: rows per window", "window rows", &out);
    out
}

/// Fig 17: LAST JOIN count sweep.
pub fn run_join_count() -> Vec<SweepPoint> {
    let db = micro_db(scaled(10_000), 50, 0.0, 8);
    let requests = scaled(300);
    let mut out = Vec::new();
    for joins in [1usize, 2, 4, 8] {
        let name = format!("f17_{joins}");
        db.deploy(&format!(
            "DEPLOY {name} AS {}",
            micro_sql(1, joins, 2_000, false)
        ))
        .unwrap();
        let stats = measure(&db, &name, requests);
        out.push(SweepPoint {
            x: joins,
            mean_ms: stats.mean_ms,
            p99_ms: stats.p99_ms,
            qps: stats.qps,
        });
    }
    print_sweep("Fig 17: number of LAST JOINs", "joins", &out);
    out
}

fn print_sweep(title: &str, xlabel: &str, points: &[SweepPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.x.to_string(), fmt(p.mean_ms), fmt(p.p99_ms), fmt(p.qps)])
        .collect();
    print_table(title, &[xlabel, "mean ms", "p99 ms", "qps"], &rows);
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn window_count_latency_grows_modestly() {
        let points = crate::harness::with_scale(0.1, super::run_window_count);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.mean_ms >= first.mean_ms * 0.8,
            "more windows cost more"
        );
        assert!(last.qps < first.qps * 1.2, "throughput declines");
    }

    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn join_count_latency_stays_low() {
        let points = crate::harness::with_scale(0.1, super::run_join_count);
        for p in &points {
            assert!(
                p.mean_ms < 50.0,
                "join sweep stays fast: {} ms at {}",
                p.mean_ms,
                p.x
            );
        }
    }
}
