//! **Figure 14** — Performance under different thread counts.
//!
//! Paper result: throughput rises with threads; latency grows slightly but
//! stays single-digit milliseconds beyond 20 threads.

use std::sync::Arc;

use openmldb_core::Database;

use crate::harness::{fmt, print_table, scaled, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

pub struct ThreadPoint {
    pub threads: usize,
    pub mean_ms: f64,
    pub p99_ms: f64,
    pub total_qps: f64,
}

pub fn run() -> Vec<ThreadPoint> {
    let rows = scaled(20_000);
    let db: Arc<Database> = Arc::new(micro_db(rows, 100, 0.0, 0));
    db.deploy(&format!("DEPLOY f14 AS {}", micro_sql(2, 0, 5_000, false)))
        .unwrap();
    let per_thread = scaled(500);

    let mut out = Vec::new();
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut samples = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let key = ((t * per_thread + i) % 100) as i64;
                        let req = micro_request(i as i64, key, 1_000_000);
                        let s = std::time::Instant::now();
                        db.request_readonly("f14", &req).unwrap();
                        samples.push(s.elapsed().as_secs_f64() * 1_000.0);
                    }
                    samples
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let wall = start.elapsed().as_secs_f64();
        let stats = LatencyStats::from_samples(all);
        out.push(ThreadPoint {
            threads,
            mean_ms: stats.mean_ms,
            p99_ms: stats.p99_ms,
            total_qps: (threads * per_thread) as f64 / wall,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                fmt(r.mean_ms),
                fmt(r.p99_ms),
                fmt(r.total_qps),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 14: thread-count sweep ({rows} rows, {per_thread} reqs/thread)"),
        &["threads", "mean ms", "p99 ms", "total qps"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn throughput_scales_with_threads() {
        let points = crate::harness::with_scale(0.1, super::run);
        let one = points.iter().find(|p| p.threads == 1).unwrap().total_qps;
        let eight = points.iter().find(|p| p.threads == 8).unwrap().total_qps;
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            assert!(
                eight > one * 1.5,
                "8 threads should clearly outpace 1: {eight:.0} vs {one:.0} qps"
            );
        } else {
            // Single-core: concurrency must at least not collapse under
            // contention (lock-free reads keep serving).
            assert!(
                eight > one * 0.5,
                "8 threads must not collapse on {cores} cores: {eight:.0} vs {one:.0} qps"
            );
        }
    }
}
