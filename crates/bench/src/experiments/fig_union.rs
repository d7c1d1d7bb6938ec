//! **Section 9.3.2** — Multi-table window union throughput (the in-text
//! figure).
//!
//! Paper result: the static execution approach (Flink-style) collapses to
//! ~1K tuples/s at a 10K-row window, while OpenMLDB's self-adjusting union
//! holds roughly 1M tuples/s across window sizes. The union folds the
//! aggregates that slide exactly ([`union_specs`]).

use openmldb_online::{Scheduling, UnionConfig, WindowUnion};
use openmldb_sql::ast::Frame;
use openmldb_types::{KeyValue, Row, Value};
use openmldb_workload::{micro_schema, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{fmt, print_table, scaled, time_once};
use crate::scenarios::union_specs;

pub struct UnionPoint {
    pub window_rows: usize,
    pub static_tps: f64,
    pub self_adjusting_tps: f64,
}

fn drive(config: UnionConfig, tuples: usize, keys: usize) -> f64 {
    let mut union = WindowUnion::new(config, micro_schema(), union_specs()).unwrap();
    let zipf = Zipf::new(keys, 1.1);
    let mut rng = StdRng::seed_from_u64(5);
    let (_, ms) = time_once(|| {
        for i in 0..tuples {
            let key = KeyValue::Int(zipf.sample(&mut rng) as i64);
            // Two "tables" interleaved: the union routes both streams.
            union.push(
                key,
                i as i64,
                Row::new(vec![
                    Value::Bigint(i as i64),
                    Value::Bigint(0),
                    Value::Double(1.0),
                    Value::string("c"),
                    Value::Int((i % 16) as i32),
                    Value::Timestamp(i as i64),
                ]),
            );
        }
        union.flush().expect("union folds");
    });
    tuples as f64 / (ms / 1_000.0)
}

pub fn run() -> Vec<UnionPoint> {
    let tuples = scaled(60_000);
    let keys = 32;
    let mut out = Vec::new();
    for window_rows in [1_000usize, 10_000, 50_000] {
        let frame = Frame::RowsRange {
            preceding_ms: window_rows as i64,
        };
        let static_tps = drive(
            UnionConfig {
                workers: 4,
                frame,
                scheduling: Scheduling::StaticHash,
                incremental: false, // recompute + re-sort, the Flink model
            },
            tuples,
            keys,
        );
        let dynamic_tps = drive(
            UnionConfig {
                workers: 4,
                frame,
                scheduling: Scheduling::SelfAdjusting {
                    rebalance_every: 2_000,
                },
                incremental: true, // subtract-and-evict where exact
            },
            tuples,
            keys,
        );
        out.push(UnionPoint {
            window_rows,
            static_tps,
            self_adjusting_tps: dynamic_tps,
        });
    }
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.window_rows.to_string(),
                fmt(r.static_tps),
                fmt(r.self_adjusting_tps),
                format!("{:.1}x", r.self_adjusting_tps / r.static_tps),
            ]
        })
        .collect();
    print_table(
        &format!("§9.3.2: window-union throughput, tuples/s ({tuples} tuples, zipf keys)"),
        &["window rows", "static+recompute", "self-adjusting", "gain"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn self_adjusting_union_outperforms_static() {
        let points = crate::harness::with_scale(0.1, super::run);
        let large = points.last().unwrap();
        assert!(
            large.self_adjusting_tps > large.static_tps,
            "at {} rows: {:.0} vs {:.0} tuples/s",
            large.window_rows,
            large.self_adjusting_tps,
            large.static_tps
        );
        // The static approach degrades as windows grow; self-adjusting holds.
        let small = points.first().unwrap();
        let static_drop = small.static_tps / large.static_tps;
        let dynamic_drop = small.self_adjusting_tps / large.self_adjusting_tps;
        assert!(
            static_drop > dynamic_drop,
            "static drops {static_drop:.1}x vs dynamic {dynamic_drop:.1}x"
        );
    }
}
