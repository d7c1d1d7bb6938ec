//! Numeric aggregates: sum / count / avg / min / max / stddev (one
//! [`SharedNumeric`] fold), median, and the conditional `*_where` wrappers
//! (paper Section 4.1, category 2).

use std::collections::BTreeMap;

use openmldb_types::{Error, Result, Value};

use super::{AggState, Aggregator, OrdVal};
use crate::window::{Projection, SharedNumeric};

/// `sum` / `count` / `avg` / `min` / `max` / `stddev` as a boxed aggregator:
/// one [`SharedNumeric`] read through one projection — the fold a
/// [`crate::WindowAggSet`] slot runs.
pub struct StatsAgg {
    state: SharedNumeric,
    proj: Projection,
}

impl StatsAgg {
    pub(crate) fn new(proj: Projection) -> Self {
        let mut state = SharedNumeric::default();
        state.track(proj);
        StatsAgg { state, proj }
    }
}

impl Aggregator for StatsAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        match args.first() {
            Some(v) => self.state.update(v),
            None => Err(Error::Eval("aggregate missing its argument".into())),
        }
    }

    fn output(&self) -> Value {
        self.state.project(self.proj)
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// Exact median over an ordered multiset.
#[derive(Debug, Default, Clone)]
pub struct MedianAgg {
    values: BTreeMap<OrdVal, u64>,
    count: u64,
}

impl Aggregator for MedianAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if !args[0].is_null() {
            *self.values.entry(OrdVal(args[0].clone())).or_insert(0) += 1;
            self.count += 1;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        if self.count == 0 {
            return Value::Null;
        }
        // Walk to the middle (and middle+1 for even counts).
        let lo_rank = (self.count - 1) / 2;
        let hi_rank = self.count / 2;
        let mut seen = 0u64;
        let mut lo = None;
        let mut hi = None;
        for (v, c) in &self.values {
            let next = seen + c;
            if lo.is_none() && lo_rank < next {
                lo = Some(v.0.clone());
            }
            if hi.is_none() && hi_rank < next {
                hi = Some(v.0.clone());
                break;
            }
            seen = next;
        }
        match (lo, hi) {
            (Some(a), Some(b)) => match (a.as_f64(), b.as_f64()) {
                (Ok(x), Ok(y)) => Value::Double((x + y) / 2.0),
                _ => a
                    .clone()
                    .cast_to(openmldb_types::DataType::String)
                    .unwrap_or(a),
            },
            _ => Value::Null,
        }
    }

    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::ValueCounts(
            self.values.iter().map(|(k, c)| (k.0.clone(), *c)).collect(),
        ))
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::ValueCounts(vals) = state else {
            return Err(Error::Eval(
                "median expects a ValueCounts partial state".into(),
            ));
        };
        for (v, c) in vals {
            *self.values.entry(OrdVal(v.clone())).or_insert(0) += c;
            self.count += c;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.values.clear();
        self.count = 0;
    }
}

/// Conditional wrapper: `f_where(value, condition)` feeds the statistic
/// only the rows whose condition is true.
pub struct WhereAgg(pub(crate) StatsAgg);

impl Aggregator for WhereAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        let [value, cond, ..] = args else {
            return Err(Error::Eval(
                "conditional aggregate missing condition".into(),
            ));
        };
        if cond.as_bool()? {
            self.0.state.update(value)?;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        self.0.output()
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::create_aggregator;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;

    fn agg(func: &str) -> Box<dyn Aggregator> {
        create_aggregator(lookup(func).unwrap(), &[PhysExpr::Column(0)]).unwrap()
    }

    fn feed(agg: &mut dyn Aggregator, vals: &[Value]) {
        for v in vals {
            agg.update(std::slice::from_ref(v)).unwrap();
        }
    }

    #[test]
    fn sum_integer_preserving() {
        let mut s = agg("sum");
        feed(&mut *s, &[Value::Int(1), Value::Bigint(2), Value::Null]);
        assert_eq!(s.output(), Value::Bigint(3));
        s.update(&[Value::Double(0.5)]).unwrap();
        assert_eq!(s.output(), Value::Double(3.5));
    }

    #[test]
    fn empty_sum_is_null() {
        assert_eq!(agg("sum").output(), Value::Null);
    }

    #[test]
    fn sum_wraps_on_overflow() {
        let mut s = agg("sum");
        feed(&mut *s, &[Value::Bigint(i64::MAX), Value::Bigint(1)]);
        assert_eq!(s.output(), Value::Bigint(i64::MIN));
    }

    #[test]
    fn count_ignores_nulls() {
        let mut c = agg("count");
        feed(&mut *c, &[Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(c.output(), Value::Bigint(2));
    }

    #[test]
    fn avg_is_sum_over_count() {
        let mut a = agg("avg");
        feed(&mut *a, &[Value::Int(1), Value::Int(2), Value::Int(6)]);
        assert_eq!(a.output(), Value::Double(3.0));
        assert_eq!(agg("avg").output(), Value::Null);
    }

    #[test]
    fn minmax_keeps_the_first_seen_extreme() {
        let mut mx = agg("max");
        feed(&mut *mx, &[Value::Int(3), Value::Int(9), Value::Bigint(9)]);
        assert_eq!(mx.output(), Value::Int(9));

        let mut mn = agg("min");
        feed(&mut *mn, &[Value::string("b"), Value::string("a")]);
        assert_eq!(mn.output(), Value::string("a"));
    }

    #[test]
    fn stddev_sample() {
        let mut s = agg("stddev");
        feed(
            &mut *s,
            &[
                Value::Int(2),
                Value::Int(4),
                Value::Int(4),
                Value::Int(4),
                Value::Int(5),
                Value::Int(5),
                Value::Int(7),
                Value::Int(9),
            ],
        );
        let Value::Double(v) = s.output() else {
            panic!()
        };
        assert!((v - 2.138).abs() < 0.01, "{v}");
        assert_eq!(agg("stddev").output(), Value::Null);
    }

    #[test]
    fn median_odd_even() {
        let mut m = MedianAgg::default();
        feed(&mut m, &[Value::Int(1), Value::Int(3), Value::Int(2)]);
        assert_eq!(m.output(), Value::Double(2.0));
        m.update(&[Value::Int(10)]).unwrap();
        assert_eq!(m.output(), Value::Double(2.5));
    }

    #[test]
    fn where_wrapper_gates_updates() {
        let sum_where = lookup("sum_where").unwrap();
        let mut s =
            create_aggregator(sum_where, &[PhysExpr::Column(0), PhysExpr::Column(1)]).unwrap();
        s.update(&[Value::Int(10), Value::Bool(true)]).unwrap();
        s.update(&[Value::Int(99), Value::Bool(false)]).unwrap();
        assert_eq!(s.output(), Value::Bigint(10));
        assert!(s.update(&[Value::Int(1)]).is_err(), "condition missing");
    }
}
