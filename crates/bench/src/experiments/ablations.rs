//! Design-choice ablations beyond the paper's figures (DESIGN.md §6):
//!
//! * **bucket granularity** — how the pre-aggregation level layout
//!   (fine / coarse / multi-level) trades query latency against bucket
//!   count (Section 5.1's hierarchy-selection discussion);
//! * **rebalance period** — how often the self-adjusting window union
//!   re-maps keys to workers (Section 5.2's scheduler knob).

use openmldb_online::{PreAggregator, Scheduling, UnionConfig, WindowUnion};
use openmldb_sql::ast::Frame;
use openmldb_sql::functions::lookup;
use openmldb_sql::plan::{BoundAggregate, BoundWindow, PhysExpr};
use openmldb_types::{DataType, KeyValue, Row, Value};
use openmldb_workload::{micro_schema, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{fmt, print_table, scaled, time_each, time_once, LatencyStats};
use crate::scenarios::union_specs;

pub struct BucketPoint {
    pub label: String,
    pub query_ms: f64,
    pub bucket_merges: u64,
    /// Total timestamp span the queries had to cover from raw data (the
    /// uncovered edges — smaller is better).
    pub raw_span_ms: u64,
}

fn window() -> BoundWindow {
    BoundWindow {
        name: "w".into(),
        merged_names: vec!["w".into()],
        partition_cols: vec![0],
        order_col: 2,
        order_desc: false,
        frame: Frame::RowsRange {
            preceding_ms: 1 << 40,
        },
        maxsize: None,
        exclude_current_row: false,
        instance_not_in_window: false,
        union_tables: vec![],
    }
}

fn sum_count() -> Vec<BoundAggregate> {
    ["sum", "count"]
        .into_iter()
        .map(|f| BoundAggregate {
            window_id: 0,
            func: lookup(f).unwrap(),
            args: vec![PhysExpr::Column(1)],
            output_type: DataType::Bigint,
        })
        .collect()
}

/// Pre-aggregation bucket-granularity ablation over one large window.
pub fn run_bucket_granularity() -> Vec<BucketPoint> {
    let rows = scaled(500_000);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Bigint(0),
                Value::Bigint((i % 100) as i64),
                Value::Timestamp(i as i64),
            ])
        })
        .collect();
    let span = rows as i64;
    let configs: Vec<(String, Vec<i64>)> = vec![
        ("fine (span/10000)".into(), vec![span / 10_000 + 1]),
        ("coarse (span/50)".into(), vec![span / 50 + 1]),
        ("two-level".into(), vec![span / 10_000 + 1, span / 50 + 1]),
        (
            "three-level".into(),
            vec![span / 10_000 + 1, span / 500 + 1, span / 50 + 1],
        ),
    ];
    let mut out = Vec::new();
    for (label, buckets) in configs {
        let preagg = PreAggregator::new(&window(), &sum_count(), buckets).unwrap();
        for row in &data {
            preagg.ingest(row).unwrap();
        }
        let key = vec![KeyValue::Int(0)];
        let raw_span = std::cell::Cell::new(0u64);
        let samples = time_each(200, |i| {
            // Misaligned windows force edge handling every time.
            let hi = span - 1 - (i as i64 % 37);
            let lo = (i as i64 * 13) % (span / 3);
            preagg
                .query(&key, lo, hi, |l, h| {
                    raw_span.set(raw_span.get() + (h - l + 1) as u64);
                    Ok(Vec::new())
                })
                .unwrap()
        });
        let stats = LatencyStats::from_samples(samples);
        out.push(BucketPoint {
            label,
            query_ms: stats.mean_ms,
            bucket_merges: preagg.level_hits().iter().sum(),
            raw_span_ms: raw_span.get(),
        });
    }
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                fmt(r.query_ms),
                r.bucket_merges.to_string(),
                r.raw_span_ms.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation: pre-agg bucket granularity ({rows} rows, 200 queries)"),
        &["levels", "query ms", "bucket merges", "raw edge span"],
        &table,
    );
    out
}

pub struct RebalancePoint {
    pub period: usize,
    pub tuples_per_sec: f64,
    pub rebalances: u64,
    pub imbalance: f64,
}

/// Window-union rebalance-period ablation under zipf keys.
pub fn run_rebalance_period() -> Vec<RebalancePoint> {
    let tuples = scaled(40_000);
    let mut out = Vec::new();
    for period in [500usize, 2_000, 8_000, usize::MAX] {
        let mut union = WindowUnion::new(
            UnionConfig {
                workers: 4,
                frame: Frame::RowsRange {
                    preceding_ms: 5_000,
                },
                scheduling: if period == usize::MAX {
                    Scheduling::StaticHash
                } else {
                    Scheduling::SelfAdjusting {
                        rebalance_every: period,
                    }
                },
                incremental: true,
            },
            micro_schema(),
            union_specs(),
        )
        .unwrap();
        let zipf = Zipf::new(64, 1.2);
        let mut rng = StdRng::seed_from_u64(9);
        let (_, ms) = time_once(|| {
            for i in 0..tuples {
                union.push(
                    KeyValue::Int(zipf.sample(&mut rng) as i64),
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
        out.push(RebalancePoint {
            period,
            tuples_per_sec: tuples as f64 / (ms / 1_000.0),
            rebalances: union.rebalances(),
            imbalance: union.imbalance(),
        });
    }
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                if r.period == usize::MAX {
                    "static".into()
                } else {
                    r.period.to_string()
                },
                fmt(r.tuples_per_sec),
                r.rebalances.to_string(),
                format!("{:.2}", r.imbalance),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation: union rebalance period ({tuples} zipf tuples, 4 workers)"),
        &["period", "tuples/s", "rebalances", "max/mean load"],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn multi_level_reduces_edge_rows_vs_coarse_only() {
        let points = crate::harness::with_scale(0.05, super::run_bucket_granularity);
        let coarse = points
            .iter()
            .find(|p| p.label.starts_with("coarse"))
            .unwrap();
        let two = points.iter().find(|p| p.label == "two-level").unwrap();
        // Coarse-only pays wide raw scans at the edges every query; adding a
        // fine level shrinks the uncovered span dramatically.
        assert!(
            two.raw_span_ms * 5 < coarse.raw_span_ms,
            "two-level edge span ({}) should be far below coarse-only ({})",
            two.raw_span_ms,
            coarse.raw_span_ms
        );
    }

    #[test]
    fn frequent_rebalancing_reduces_imbalance() {
        let points = crate::harness::with_scale(0.1, super::run_rebalance_period);
        let frequent = &points[0];
        let static_routing = points.last().unwrap();
        assert!(frequent.rebalances > 0);
        assert!(
            frequent.imbalance <= static_routing.imbalance * 1.2,
            "frequent rebalancing ({:.2}) should not be more imbalanced than static ({:.2})",
            frequent.imbalance,
            static_routing.imbalance
        );
    }
}
