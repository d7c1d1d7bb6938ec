//! Window aggregate function implementations.
//!
//! Every aggregate implements [`Aggregator`]:
//!
//! * `update` feeds rows **oldest-to-newest** (time-series functions like
//!   `drawdown` and `ew_avg` depend on this order — the storage layer
//!   pre-ranks tuples by timestamp exactly so this contract is cheap to
//!   satisfy, paper Section 7.2);
//! * `partial_state` / `merge_state` expose mergeable partial aggregates for
//!   the long-window pre-aggregation of Section 5.1 — only decomposable
//!   aggregates support them. The simple statistics (`sum` … `stddev`)
//!   merge through their shared slot instead ([`crate::WindowAggSet`]).

mod categorical;
mod numeric;
mod timeseries;

pub use categorical::{AvgCateAgg, CateVariant, FrequencyAgg, TopAgg};
pub use numeric::{MedianAgg, StatsAgg, WhereAgg};
pub use timeseries::{DrawdownAgg, EwAvgAgg, FirstValueAgg, LagAgg};

use std::cmp::Ordering;
use std::collections::HashMap;

use openmldb_sql::plan::PhysExpr;
use openmldb_sql::FunctionDef;
use openmldb_types::{Error, KeyValue, Result, Value};

use crate::window::projection_for;

/// A window aggregate's running state.
pub trait Aggregator: Send + Sync {
    /// Feed one row's evaluated arguments (oldest → newest).
    fn update(&mut self, args: &[Value]) -> Result<()>;

    /// The current aggregate value.
    fn output(&self) -> Value;

    /// Mergeable partial state, or `None` if this aggregate cannot be
    /// decomposed (then it is ineligible for pre-aggregation).
    fn partial_state(&self) -> Option<AggState> {
        None
    }

    /// Merge a partial state produced by an aggregator of the same kind.
    fn merge_state(&mut self, _state: &AggState) -> Result<()> {
        Err(Error::Eval(
            "aggregate does not support partial-state merging".into(),
        ))
    }

    /// Clear back to the initial state.
    fn reset(&mut self);
}

/// A boxed aggregator's partial state, merged into another's when
/// pre-aggregation buckets combine.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Value → multiplicity, for distinct count / top-n frequency.
    Counts(HashMap<KeyValue, u64>),
    /// Ordered value multiset (median and top keep real values).
    ValueCounts(Vec<(Value, u64)>),
}

/// `Value` wrapper ordered by [`Value::total_cmp`], for multiset-backed
/// aggregates (median/top).
#[derive(Debug, Clone)]
pub struct OrdVal(pub Value);

impl PartialEq for OrdVal {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrdVal {}
impl PartialOrd for OrdVal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdVal {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Extract a constant expression argument (used for parameters like the `N`
/// of `topn_frequency(col, N)`), which must be literal at plan time.
pub fn const_arg(args: &[PhysExpr], idx: usize, func: &str) -> Result<Value> {
    match args.get(idx) {
        Some(PhysExpr::Literal(v)) => Ok(v.clone()),
        _ => Err(Error::Plan(format!(
            "argument {idx} of `{func}` must be a constant literal"
        ))),
    }
}

/// Instantiate the aggregator implementing `func` with the given bound
/// argument expressions (const parameters are extracted here).
pub fn create_aggregator(
    func: &'static FunctionDef,
    args: &[PhysExpr],
) -> Result<Box<dyn Aggregator>> {
    if let Some(proj) = projection_for(func.name) {
        return Ok(Box::new(StatsAgg::new(proj)));
    }
    if let Some(proj) = func.name.strip_suffix("_where").and_then(projection_for) {
        return Ok(Box::new(WhereAgg(StatsAgg::new(proj))));
    }
    Ok(match func.name {
        "median" => Box::new(MedianAgg::default()),
        "distinct_count" => Box::new(FrequencyAgg::default()),
        "topn_frequency" => {
            let n = const_arg(args, 1, func.name)?.as_i64()?.max(0) as usize;
            Box::new(FrequencyAgg::top(n))
        }
        "top" => {
            let n = const_arg(args, 1, func.name)?.as_i64()?.max(0) as usize;
            Box::new(TopAgg::new(n))
        }
        "avg_cate" => Box::new(AvgCateAgg::new(CateVariant::Avg, false)),
        "avg_cate_where" => Box::new(AvgCateAgg::new(CateVariant::Avg, true)),
        "sum_cate_where" => Box::new(AvgCateAgg::new(CateVariant::Sum, true)),
        "count_cate_where" => Box::new(AvgCateAgg::new(CateVariant::Count, true)),
        "drawdown" => Box::new(DrawdownAgg::default()),
        "ew_avg" => {
            let alpha = const_arg(args, 1, func.name)?.as_f64()?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err(Error::Plan(format!(
                    "ew_avg smoothing factor must be in [0, 1], got {alpha}"
                )));
            }
            Box::new(EwAvgAgg::new(alpha))
        }
        "lag" => {
            let n = const_arg(args, 1, func.name)?.as_i64()?.max(0) as usize;
            Box::new(LagAgg::new(n))
        }
        "first_value" => Box::new(FirstValueAgg::default()),
        "geo_grid_count" => {
            let precision = const_arg(args, 2, func.name)?.as_i64()?.clamp(1, 30) as u32;
            Box::new(categorical::GeoGridCountAgg::new(precision))
        }
        other => return Err(Error::Plan(format!("`{other}` is not an aggregate"))),
    })
}

/// Whether `func`'s aggregator exposes mergeable partial state — i.e. is
/// eligible for long-window pre-aggregation (Section 5.1).
pub fn supports_preagg(func: &FunctionDef) -> bool {
    matches!(
        func.name,
        "sum"
            | "count"
            | "avg"
            | "min"
            | "max"
            | "stddev"
            | "median"
            | "distinct_count"
            | "topn_frequency"
            | "top"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;

    #[test]
    fn factory_covers_all_registered_aggregates() {
        use openmldb_sql::functions::{FunctionKind, BUILTINS};
        for def in BUILTINS
            .iter()
            .filter(|d| d.kind == FunctionKind::Aggregate)
        {
            // Provide plausible constant args.
            let args = [
                PhysExpr::Column(0),
                PhysExpr::Literal(Value::Bigint(1)),
                PhysExpr::Literal(Value::Bigint(3)),
            ];
            let args = &args[..def.max_args.min(3)];
            create_aggregator(def, args)
                .unwrap_or_else(|e| panic!("factory missing for {}: {e}", def.name));
        }
    }

    #[test]
    fn const_arg_rejects_non_literals() {
        let def = lookup("topn_frequency").unwrap();
        let err = match create_aggregator(def, &[PhysExpr::Column(0), PhysExpr::Column(1)]) {
            Err(e) => e,
            Ok(_) => panic!("non-literal N should be rejected"),
        };
        assert!(err.to_string().contains("constant"));
    }

    #[test]
    fn ew_avg_alpha_validated() {
        let def = lookup("ew_avg").unwrap();
        assert!(create_aggregator(
            def,
            &[PhysExpr::Column(0), PhysExpr::Literal(Value::Double(1.5))]
        )
        .is_err());
    }

    #[test]
    fn ordval_total_order() {
        let mut v = [
            OrdVal(Value::Double(2.0)),
            OrdVal(Value::Null),
            OrdVal(Value::Double(f64::NAN)),
            OrdVal(Value::Double(1.0)),
        ];
        v.sort();
        assert!(v[0].0.is_null());
        assert_eq!(v[1].0, Value::Double(1.0));
    }
}
