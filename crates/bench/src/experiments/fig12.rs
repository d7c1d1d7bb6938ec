//! **Figure 12** — Multi-window parallel optimization.
//!
//! Paper result: 4.8× (small windows), 5.3× (medium), 4.6× (large)
//! improvement from computing independent windows in parallel and
//! concat-joining on the index column, vs serial execution.

use openmldb_offline::{compute_windows, OfflineOptions, Tables, WindowExecMode};
use openmldb_sql::{compile_select, parse_select};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, results_close, scaled, time_once};
use crate::scenarios::micro_sql;

pub struct MultiWindowResult {
    pub label: String,
    pub serial_ms: f64,
    pub parallel_ms: f64,
}

struct SchemaCat;
impl openmldb_sql::Catalog for SchemaCat {
    fn table_schema(&self, name: &str) -> Option<openmldb_types::Schema> {
        (name == "t1").then(micro_schema)
    }
}

pub fn run() -> Vec<MultiWindowResult> {
    const WINDOWS: usize = 6;
    let mut out = Vec::new();
    for (label, rows, frame_ms) in [
        ("small (1K-row windows)", scaled(20_000), 1_000i64),
        ("medium (10K-row windows)", scaled(40_000), 10_000),
        ("large (40K-row windows)", scaled(80_000), 40_000),
    ] {
        let data = micro_rows(&MicroConfig {
            rows,
            distinct_keys: 8,
            ts_step_ms: 1,
            ..Default::default()
        });
        let q = compile_select(
            &parse_select(&micro_sql(WINDOWS, 0, frame_ms, false)).unwrap(),
            &SchemaCat,
        )
        .unwrap();
        let tables = Tables::new();
        let serial_opts = OfflineOptions {
            parallel_windows: false,
            threads: 1,
            skew: None,
            mode: WindowExecMode::Incremental,
        };
        let parallel_opts = OfflineOptions {
            parallel_windows: true,
            threads: WINDOWS,
            ..serial_opts.clone()
        };
        let (serial_res, serial_ms) =
            time_once(|| compute_windows(&q, &tables, &data, &serial_opts).unwrap());
        let (parallel_res, parallel_ms) =
            time_once(|| compute_windows(&q, &tables, &data, &parallel_opts).unwrap());
        assert!(
            results_close(&serial_res, &parallel_res),
            "index alignment preserves results"
        );
        out.push(MultiWindowResult {
            label: label.into(),
            serial_ms,
            parallel_ms,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                fmt(r.serial_ms),
                fmt(r.parallel_ms),
                format!("{:.1}x", r.serial_ms / r.parallel_ms),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 12: multi-window parallel optimization, ms ({WINDOWS} windows)"),
        &["workload", "serial", "parallel", "speedup"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn parallel_windows_beat_serial() {
        let results = crate::harness::with_scale(0.2, super::run);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            // At least the larger configurations must show a win (tiny
            // inputs can be noise-bound).
            let wins = results
                .iter()
                .filter(|r| r.parallel_ms < r.serial_ms)
                .count();
            assert!(wins >= 2, "parallel should win most sizes: {wins}/3");
        } else {
            // Single/dual-core machine: thread parallelism cannot speed up
            // wall clock; require only that it does not regress badly.
            for r in &results {
                assert!(
                    r.parallel_ms < r.serial_ms * 1.5,
                    "{}: parallel overhead too high ({:.1} vs {:.1} ms) on {cores} cores",
                    r.label,
                    r.parallel_ms,
                    r.serial_ms
                );
            }
        }
    }
}
