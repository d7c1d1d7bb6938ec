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

// A panic inside a request tears down the worker serving it: non-test code
// returns typed errors, and a provably unreachable `expect` says why in an
// `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

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
    specialize, BaseRow, Candidates, EntryOrder, ExprProgram, Program, RowBuffers, RowStage, Sweep,
    SweepState, WindowProgram, WindowState,
};
pub use scratch::{RequestScratch, RowSource, ScanEntry, REQUEST_ROW};
pub use window::{AggStates, WindowAggSet};

#[cfg(test)]
mod proptests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::{BoundAggregate, PhysExpr};
    use openmldb_types::{DataType, Result, Value};
    use proptest::prelude::*;

    const FUNCS: [&str; 8] = [
        "sum",
        "count",
        "avg",
        "min",
        "max",
        "distinct_count",
        "median",
        "stddev",
    ];

    fn bound(func: &str) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(func).unwrap(),
            args: vec![PhysExpr::Column(0)],
            output_type: DataType::Double,
        }
    }

    /// One column of values of `kind`, NULLs mixed in.
    fn column(kind: impl Strategy<Value = Value> + 'static) -> BoxedStrategy<Vec<Value>> {
        let cell = prop_oneof![9 => kind, 1 => Just(Value::Null)];
        proptest::collection::vec(cell, 0..60).boxed()
    }

    /// Columns whose every kind sums exactly in any order — small integers,
    /// quarter-step doubles, or integers next to `i64::MAX` / `i64::MIN`,
    /// which all read as `±2^63` in f64 (so extrema tie under `total_cmp`
    /// while their types differ) — which makes a bucketed fold
    /// comparable to the single pass bit for bit. Doubles include both
    /// zeros and NaN; strings exercise `count`/`min`/`max` and the errors
    /// of the sums.
    fn values() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            column((-100i64..100).prop_map(Value::Bigint)),
            column(prop_oneof![
                Just(Value::Double(-0.0)),
                Just(Value::Double(0.0)),
                Just(Value::Double(f64::NAN)),
                (-100i64..100).prop_map(|v| Value::Double(v as f64 / 4.0)),
            ]),
            column((0i64..4, any::<bool>()).prop_map(|(d, top)| {
                Value::Bigint(if top { i64::MAX - d } else { i64::MIN + d })
            })),
            column(prop_oneof![Just(""), Just("a"), Just("b"), Just("ab")].prop_map(Value::string)),
        ]
    }

    /// Outputs (or the first error) of `set` fed `rows` one by one.
    fn single_pass(set: &mut WindowAggSet, rows: &[Value]) -> Result<Vec<Value>> {
        let fed = rows
            .iter()
            .try_for_each(|v| set.update(std::slice::from_ref(v)));
        fed.map(|()| set.outputs())
    }

    /// Outputs (or the first error) of `set`'s layout over `rows` cut into
    /// buckets at `cuts`, each folded alone, then merged in order.
    fn bucketed(set: &WindowAggSet, rows: &[Value], cuts: &[usize]) -> Result<Vec<Value>> {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.extend([0, rows.len()]);
        bounds.sort_unstable();
        let mut acc = set.fresh_states()?;
        for w in bounds.windows(2) {
            let mut bucket = set.fresh_states()?;
            for v in &rows[w[0]..w[1]] {
                set.update_states(&mut bucket, std::slice::from_ref(v))?;
            }
            acc.merge(&bucket)?;
        }
        Ok(set.outputs_of(&acc))
    }

    proptest! {
        /// Merging bucket states must equal feeding all rows through one
        /// set (the pre-aggregation correctness invariant), for each
        /// function alone and for all of them sharing one layout. Outputs
        /// compare with `Value`'s exact `==`: the same instance wins an
        /// extremum tie, `-0.0` and `0.0` and `Int` and `Bigint` told apart.
        #[test]
        fn merge_equals_single_pass(
            rows in values(),
            cuts in proptest::collection::vec(0usize..64, 0..6),
        ) {
            for funcs in FUNCS.iter().map(std::slice::from_ref).chain([&FUNCS[..]]) {
                let specs: Vec<BoundAggregate> = funcs.iter().map(|f| bound(f)).collect();
                let refs: Vec<&BoundAggregate> = specs.iter().collect();
                let mut set = WindowAggSet::new(&refs).unwrap();
                let merged = bucketed(&set, &rows, &cuts);
                prop_assert_eq!(single_pass(&mut set, &rows), merged, "funcs={:?}", funcs);
            }
        }
    }
}
