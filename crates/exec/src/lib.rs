//! # openmldb-exec
//!
//! Shared execution library: the expression interpreter, the scalar and
//! aggregate function implementations (paper Section 4.1's extended SQL),
//! cyclic-binding window evaluation (Section 4.2), the compiled window
//! programs every engine folds with — a request, the offline sweep and the
//! window union's per-key stream (Section 5.2's subtract-and-evict, where a
//! kernel's fold is exactly invertible) — and ML-format feature export.
//!
//! This crate is the reproduction's analogue of the "C++ library functions
//! shared by the offline and online execution engines": both engines call
//! into exactly these functions, so a feature value computed offline is
//! bit-identical to the one computed online.

pub mod agg;
pub mod eval;
pub mod export;
pub mod metrics;
pub mod program;
pub mod scalar;
pub mod scratch;
pub mod window;

pub use agg::{create_aggregator, supports_preagg, AggState, Aggregator};
pub use eval::{evaluate, evaluate_with, ColumnSource};
pub use export::{infer_feature_kinds, to_csv, to_libsvm, FeatureKind};
pub use program::{
    specialize, EntryOrder, ExprProgram, Program, Sweep, SweepState, WindowProgram, WindowState,
};
pub use scratch::{RequestScratch, RowSource, ScanEntry, REQUEST_ROW};
pub use window::WindowAggSet;

#[cfg(test)]
mod proptests {
    use super::*;
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

    /// A double from a pool that holds both zeros and NaN, so extrema meet
    /// values `total_cmp` orders but `==` does not.
    fn double() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Double(-0.0)),
            Just(Value::Double(0.0)),
            Just(Value::Double(f64::NAN)),
            (-100i64..100).prop_map(|v| Value::Double(v as f64 / 4.0)),
        ]
    }

    fn values() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            proptest::collection::vec((-100i64..100).prop_map(Value::Bigint), 0..40),
            proptest::collection::vec(double(), 0..40),
        ]
    }

    proptest! {
        /// Merging partial states must equal feeding all rows into one
        /// aggregator (the pre-aggregation correctness invariant). Extrema
        /// compare by their debug form: the same instance wins a tie, `-0.0`
        /// and `0.0` included.
        #[test]
        fn merge_equals_single_pass(left in values(), right in values()) {
            for func in ["sum", "count", "avg", "min", "max", "distinct_count", "median", "stddev"] {
                let spec = bound(func);
                let mk = || agg::create_aggregator(spec.func, &spec.args).unwrap();
                let mut whole = mk();
                let mut a = mk();
                let mut b = mk();
                for v in &left {
                    whole.update(std::slice::from_ref(v)).unwrap();
                    a.update(std::slice::from_ref(v)).unwrap();
                }
                for v in &right {
                    whole.update(std::slice::from_ref(v)).unwrap();
                    b.update(std::slice::from_ref(v)).unwrap();
                }
                let mut merged = mk();
                merged.merge_state(&a.partial_state().unwrap()).unwrap();
                merged.merge_state(&b.partial_state().unwrap()).unwrap();
                let (w, m) = (whole.output(), merged.output());
                match (&w, &m) {
                    _ if matches!(func, "min" | "max") => {
                        prop_assert_eq!(format!("{w:?}"), format!("{m:?}"), "func={}", func)
                    }
                    // Float-valued outputs tolerate rounding differences.
                    (Value::Double(x), Value::Double(y)) => prop_assert!(
                        (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-9,
                        "func={} {} vs {}", func, x, y
                    ),
                    _ => prop_assert_eq!(&w, &m, "func={}", func),
                }
            }
        }
    }
}
