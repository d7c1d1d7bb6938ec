//! **Section 8.1** — storage-engine placement: in-memory vs disk-backed
//! tables behind the same deployment.
//!
//! Paper guidance: the in-memory engine serves ~10 ms-class budgets; when a
//! 20–30 ms budget is acceptable, the disk engine saves ~80% of hardware
//! cost. Both backends sit behind the same `DataTable` surface, so the
//! deployment (and its feature values) are identical — only the latency and
//! the resident-memory profile change.

use std::sync::Arc;

use openmldb_core::Database;
use openmldb_storage::{DataTable, DiskTable, IndexSpec, MemTable, Ttl};
use openmldb_types::Value;
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};
use crate::scenarios::{micro_request, micro_sql};

pub struct BackendResult {
    pub backend: String,
    pub mean_ms: f64,
    pub p99_ms: f64,
    pub resident_bytes: usize,
}

fn index_spec() -> IndexSpec {
    IndexSpec {
        name: "by_k".into(),
        key_cols: vec![1],
        ts_col: Some(5),
        ttl: Ttl::Unlimited,
    }
}

pub fn run() -> Vec<BackendResult> {
    let rows = scaled(60_000);
    let requests = scaled(400);
    let data = micro_rows(&MicroConfig {
        rows,
        distinct_keys: 50,
        ts_step_ms: 1,
        ..Default::default()
    });
    let max_ts = data.last().map(|r| r.ts_at(5)).unwrap_or(0);
    let sql = micro_sql(1, 0, 2_000, false);

    let mut out = Vec::new();
    let mut reference: Option<openmldb_types::Row> = None;
    for backend in ["memory", "disk"] {
        let db = Database::new();
        let table: Arc<dyn DataTable> = match backend {
            "memory" => Arc::new(MemTable::new("t1", micro_schema(), vec![index_spec()]).unwrap()),
            _ => Arc::new(DiskTable::new("t1", micro_schema(), vec![index_spec()]).unwrap()),
        };
        for row in &data {
            table.put(row).unwrap();
        }
        let resident_bytes = table.mem_used();
        db.register_table(table)
            .expect("registering on an in-memory db cannot fail");
        db.deploy(&format!("DEPLOY b AS {sql}")).unwrap();
        let stats = LatencyStats::from_samples(time_each(requests, |i| {
            db.request_readonly("b", &micro_request(i as i64, (i % 50) as i64, max_ts))
                .unwrap()
        }));
        // Identical feature values across backends.
        let probe = db
            .request_readonly("b", &micro_request(0, 7, max_ts))
            .unwrap();
        match &reference {
            None => reference = Some(probe),
            Some(r) => {
                for (a, b) in r.values().iter().zip(probe.values()) {
                    match (a, b) {
                        (Value::Double(x), Value::Double(y)) => {
                            assert!((x - y).abs() < 1e-9)
                        }
                        _ => assert_eq!(a, b),
                    }
                }
            }
        }
        out.push(BackendResult {
            backend: backend.into(),
            mean_ms: stats.mean_ms,
            p99_ms: stats.p99_ms,
            resident_bytes,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                fmt(r.mean_ms),
                fmt(r.p99_ms),
                r.resident_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("§8.1: storage-backend placement ({rows} rows, {requests} requests)"),
        &["backend", "mean ms", "p99 ms", "resident bytes"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn both_backends_serve_and_memory_is_leaner_on_disk() {
        let results = crate::harness::with_scale(0.1, super::run);
        let mem = &results[0];
        let disk = &results[1];
        // Disk trades latency for resident memory (the §8.1 trade).
        assert!(
            disk.resident_bytes < mem.resident_bytes,
            "disk resident {} should undercut memory {}",
            disk.resident_bytes,
            mem.resident_bytes
        );
        // Both stay well under interactive budgets at this scale.
        assert!(mem.mean_ms < 50.0 && disk.mean_ms < 200.0);
    }
}
