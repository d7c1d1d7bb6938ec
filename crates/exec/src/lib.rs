//! # openmldb-exec
//!
//! Shared execution library: the expression interpreter, the scalar and
//! aggregate function implementations (paper Section 4.1's extended SQL),
//! cyclic-binding window evaluation (Section 4.2), subtract-and-evict
//! incremental windows (Section 5.2), and ML-format feature export.
//!
//! This crate is the reproduction's analogue of the "C++ library functions
//! shared by the offline and online execution engines": both engines call
//! into exactly these functions, so a feature value computed offline is
//! bit-identical to the one computed online.

pub mod agg;
pub mod eval;
pub mod export;
pub mod incremental;
pub mod metrics;
pub mod program;
pub mod scalar;
pub mod scratch;
pub mod window;

pub use agg::{create_aggregator, supports_preagg, AggState, Aggregator};
pub use eval::{evaluate, evaluate_with, ColumnSource};
pub use export::{infer_feature_kinds, to_csv, to_libsvm, FeatureKind};
pub use incremental::SlidingWindow;
pub use program::{
    specialize, EntryOrder, ExprProgram, Program, Sweep, SweepState, WindowProgram, WindowState,
};
pub use scratch::{RequestScratch, ScanEntry, REQUEST_ROW};
pub use window::WindowAggSet;

#[cfg(test)]
mod proptests {
    use super::*;
    use openmldb_sql::ast::Frame;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, PhysExpr};
    use openmldb_types::{DataType, Value};
    use proptest::prelude::*;

    fn bound(func: &str) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(func).unwrap(),
            args: vec![PhysExpr::Column(0)],
            output_type: DataType::Double,
        }
    }

    proptest! {
        /// Subtract-and-evict must agree with from-scratch recomputation for
        /// every invertible aggregate, on arbitrary (ts, value) streams.
        #[test]
        fn incremental_equals_recompute(
            stream in proptest::collection::vec((0i64..500, -50i64..50), 1..120),
            frame_ms in 1i64..200,
        ) {
            for func in ["sum", "count", "avg", "min", "max", "distinct_count"] {
                let agg = bound(func);
                let refs = vec![&agg];
                let mut sliding =
                    SlidingWindow::new(Frame::RowsRange { preceding_ms: frame_ms }, &refs).unwrap();
                let mut seen: Vec<(i64, i64)> = Vec::new();
                for (ts, v) in &stream {
                    let out = sliding.push(*ts, &[Value::Bigint(*v)]).unwrap();
                    seen.push((*ts, *v));
                    let anchor = seen.iter().map(|(t, _)| *t).max().unwrap();
                    let in_frame: Vec<i64> = seen
                        .iter()
                        .filter(|(t, _)| anchor - t <= frame_ms)
                        .map(|(_, v)| *v)
                        .collect();
                    let expected = match func {
                        "sum" => Value::Bigint(in_frame.iter().sum()),
                        "count" => Value::Bigint(in_frame.len() as i64),
                        "avg" => Value::Double(
                            in_frame.iter().sum::<i64>() as f64 / in_frame.len() as f64,
                        ),
                        "min" => Value::Bigint(*in_frame.iter().min().unwrap()),
                        "max" => Value::Bigint(*in_frame.iter().max().unwrap()),
                        "distinct_count" => Value::Bigint(
                            in_frame.iter().collect::<std::collections::HashSet<_>>().len()
                                as i64,
                        ),
                        _ => unreachable!(),
                    };
                    prop_assert_eq!(&out[0], &expected, "func={} ts={}", func, ts);
                }
            }
        }

        /// Merging partial states must equal feeding all rows into one
        /// aggregator (the pre-aggregation correctness invariant).
        #[test]
        fn merge_equals_single_pass(
            left in proptest::collection::vec(-100i64..100, 0..40),
            right in proptest::collection::vec(-100i64..100, 0..40),
        ) {
            for func in ["sum", "count", "avg", "min", "max", "distinct_count", "median", "stddev"] {
                let spec = bound(func);
                let mk = || agg::create_aggregator(spec.func, &spec.args).unwrap();
                let mut whole = mk();
                let mut a = mk();
                let mut b = mk();
                for v in &left {
                    whole.update(&[Value::Bigint(*v)]).unwrap();
                    a.update(&[Value::Bigint(*v)]).unwrap();
                }
                for v in &right {
                    whole.update(&[Value::Bigint(*v)]).unwrap();
                    b.update(&[Value::Bigint(*v)]).unwrap();
                }
                let mut merged = mk();
                merged.merge_state(&a.partial_state().unwrap()).unwrap();
                merged.merge_state(&b.partial_state().unwrap()).unwrap();
                let (w, m) = (whole.output(), merged.output());
                // Float-valued outputs tolerate rounding differences.
                match (&w, &m) {
                    (Value::Double(x), Value::Double(y)) => {
                        prop_assert!((x - y).abs() < 1e-9, "func={} {} vs {}", func, x, y)
                    }
                    _ => prop_assert_eq!(&w, &m, "func={}", func),
                }
            }
        }

        /// update/retract round-trips leave invertible aggregates unchanged.
        #[test]
        fn update_retract_identity(
            base in proptest::collection::vec(-100i64..100, 1..30),
            extra in proptest::collection::vec(-100i64..100, 1..30),
        ) {
            for func in ["sum", "count", "avg", "min", "max", "distinct_count", "median"] {
                let spec = bound(func);
                let mut agg = agg::create_aggregator(spec.func, &spec.args).unwrap();
                for v in &base {
                    agg.update(&[Value::Bigint(*v)]).unwrap();
                }
                let before = agg.output();
                for v in &extra {
                    agg.update(&[Value::Bigint(*v)]).unwrap();
                }
                for v in &extra {
                    agg.retract(&[Value::Bigint(*v)]).unwrap();
                }
                let after = agg.output();
                match (&before, &after) {
                    (Value::Double(x), Value::Double(y)) => {
                        prop_assert!((x - y).abs() < 1e-6, "func={} {} vs {}", func, x, y)
                    }
                    _ => prop_assert_eq!(&before, &after, "func={}", func),
                }
            }
        }
    }
}
