//! **Figure 10** — Pre-aggregation performance over window size.
//!
//! Paper result: without pre-aggregation, latency grows with window size
//! (100K → 5M tuples) and throughput collapses; with pre-aggregation both
//! stay nearly flat.

use std::sync::Arc;

use openmldb_core::Database;
use openmldb_online::PreAggregator;
use openmldb_storage::{IndexSpec, MemTable, Ttl};
use openmldb_types::{CompactCodec, Row, Value};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, scale, time_each_budget, LatencyStats};
use crate::scenarios::{micro_request, micro_sql};

pub struct PreaggPoint {
    pub window_rows: usize,
    pub scan_ms: f64,
    pub preagg_ms: f64,
    pub scan_qps: f64,
    pub preagg_qps: f64,
}

pub fn run() -> Vec<PreaggPoint> {
    // Single hot key so window size == table size (the hotspot case).
    let max_rows = ((1_000_000.0 * scale()) as usize).max(20_000);
    let sizes: Vec<usize> = [max_rows / 50, max_rows / 10, max_rows / 2, max_rows]
        .into_iter()
        .collect();
    let data = micro_rows(&MicroConfig {
        rows: max_rows,
        distinct_keys: 1,
        ts_step_ms: 1,
        ..Default::default()
    });
    let max_ts = data.last().map(|r| r.ts_at(5)).unwrap_or(0);

    let db = Database::new();
    let table = Arc::new(
        MemTable::new(
            "t1",
            micro_schema(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![1],
                ts_col: Some(5),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap(),
    );
    for row in &data {
        table.put(row).unwrap();
    }
    db.register_table(table.clone())
        .expect("registering on an in-memory db cannot fail");

    let requests = (200.0 * scale().max(0.2)) as usize;
    let mut out = Vec::new();
    for (i, &window_rows) in sizes.iter().enumerate() {
        // ts step is 1 ms, so a frame of `window_rows` ms covers that many
        // tuples.
        let frame_ms = window_rows as i64;
        let sql = micro_sql(1, 0, frame_ms, false);
        let plain = format!("p10_{i}");
        db.deploy(&format!("DEPLOY {plain} AS {sql}")).unwrap();

        let scan = LatencyStats::from_samples(time_each_budget(requests, 5_000.0, |j| {
            db.request_readonly(&plain, &micro_request(j as i64, 0, max_ts))
                .unwrap()
        }));

        // Pre-aggregated variant of the same deployment: bucket ≈ 1/100 of
        // the window, two levels.
        let dep = db.deployment(&plain).unwrap();
        let q = &dep.query;
        let preagg = PreAggregator::new(
            &q.windows[0],
            &q.aggregates,
            vec![frame_ms / 100 + 1, frame_ms / 10 + 1],
        )
        .unwrap();
        for row in &data {
            preagg.ingest(row).unwrap();
        }
        preagg.attach(table.replicator(), CompactCodec::new(micro_schema()));
        let fast_dep = openmldb_online::Deployment::new("fast", q.clone(), &db)
            .unwrap()
            .with_preagg(0, preagg);
        let fast = LatencyStats::from_samples(time_each_budget(requests, 5_000.0, |j| {
            openmldb_online::execute_request(&db, &fast_dep, &micro_request(j as i64, 0, max_ts))
                .unwrap()
        }));
        // Both paths agree.
        let a = db
            .request_readonly(&plain, &micro_request(0, 0, max_ts))
            .unwrap();
        let b =
            openmldb_online::execute_request(&db, &fast_dep, &micro_request(0, 0, max_ts)).unwrap();
        assert_agree(&a, &b);

        out.push(PreaggPoint {
            window_rows,
            scan_ms: scan.mean_ms,
            preagg_ms: fast.mean_ms,
            scan_qps: scan.qps,
            preagg_qps: fast.qps,
        });
    }

    let table_rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.window_rows.to_string(),
                fmt(r.scan_ms),
                fmt(r.preagg_ms),
                fmt(r.scan_qps),
                fmt(r.preagg_qps),
                format!("{:.1}x", r.scan_ms / r.preagg_ms),
            ]
        })
        .collect();
    print_table(
        "Fig 10: long-window pre-aggregation sweep",
        &[
            "window rows",
            "scan ms",
            "preagg ms",
            "scan qps",
            "preagg qps",
            "speedup",
        ],
        &table_rows,
    );
    out
}

fn assert_agree(a: &Row, b: &Row) {
    for (x, y) in a.values().iter().zip(b.values()) {
        match (x, y) {
            (Value::Double(p), Value::Double(q)) => {
                assert!((p - q).abs() / p.abs().max(1.0) < 1e-9, "{p} vs {q}")
            }
            _ => assert_eq!(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn preagg_wins_and_stays_flat() {
        let points = crate::harness::with_scale(0.05, super::run);
        let last = points.last().unwrap();
        assert!(
            last.preagg_ms < last.scan_ms,
            "largest window: preagg {:.2}ms vs scan {:.2}ms",
            last.preagg_ms,
            last.scan_ms
        );
        // At the largest window the gap must be decisive (paper: latency
        // grows sharply without pre-aggregation, stays flat with it).
        assert!(
            last.preagg_ms * 3.0 < last.scan_ms,
            "largest window should favor preagg by >3x: {:.2} vs {:.2} ms",
            last.preagg_ms,
            last.scan_ms
        );
    }
}
