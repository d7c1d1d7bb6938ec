//! Numeric aggregates: sum / count / avg / min / max / stddev / median and
//! the conditional `*_where` wrappers (paper Section 4.1, category 2).
//!
//! All of these are mergeable (support pre-aggregation partial states).

use std::collections::BTreeMap;

use openmldb_types::{Error, Result, Value};

use super::{AggState, Aggregator, OrdVal};

/// Shared integer-preserving running sum.
#[derive(Debug, Default, Clone)]
pub struct SumAgg {
    count: u64,
    sum_i: i64,
    sum_f: f64,
    all_int: bool,
}

impl Aggregator for SumAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        let v = &args[0];
        if v.is_null() {
            return Ok(());
        }
        if self.count == 0 {
            self.all_int = true;
        }
        let integral = v.as_i64().is_ok() && !matches!(v, Value::Float(_) | Value::Double(_));
        if integral {
            self.sum_i = self
                .sum_i
                .checked_add(v.as_i64()?)
                .ok_or_else(|| Error::Eval("sum overflow".into()))?;
        } else {
            self.all_int = false;
        }
        self.sum_f += v.as_f64()?;
        self.count += 1;
        Ok(())
    }

    fn output(&self) -> Value {
        if self.count == 0 {
            Value::Null
        } else if self.all_int {
            Value::Bigint(self.sum_i)
        } else {
            Value::Double(self.sum_f)
        }
    }

    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::Numeric {
            count: self.count,
            sum_i: self.sum_i,
            sum_f: self.sum_f,
            sum_sq: 0.0,
            all_int: self.all_int,
        })
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::Numeric {
            count,
            sum_i,
            sum_f,
            all_int,
            ..
        } = state
        else {
            return Err(Error::Eval("sum expects a Numeric partial state".into()));
        };
        if *count == 0 {
            return Ok(());
        }
        if self.count == 0 {
            self.all_int = true;
        }
        self.all_int &= all_int;
        self.sum_i = self
            .sum_i
            .checked_add(*sum_i)
            .ok_or_else(|| Error::Eval("sum overflow".into()))?;
        self.sum_f += sum_f;
        self.count += count;
        Ok(())
    }

    fn reset(&mut self) {
        *self = SumAgg::default();
    }
}

/// Non-null row count.
#[derive(Debug, Default, Clone)]
pub struct CountAgg {
    count: u64,
}

impl Aggregator for CountAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if !args[0].is_null() {
            self.count += 1;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        Value::Bigint(self.count as i64)
    }

    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::Numeric {
            count: self.count,
            sum_i: 0,
            sum_f: 0.0,
            sum_sq: 0.0,
            all_int: true,
        })
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::Numeric { count, .. } = state else {
            return Err(Error::Eval("count expects a Numeric partial state".into()));
        };
        self.count += count;
        Ok(())
    }

    fn reset(&mut self) {
        self.count = 0;
    }
}

/// Average — derived from sum and count, the canonical cyclic-binding case
/// (Section 4.2: avg reuses the simpler intermediates).
#[derive(Debug, Default, Clone)]
pub struct AvgAgg {
    inner: SumAgg,
}

impl Aggregator for AvgAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.inner.update(args)
    }

    fn output(&self) -> Value {
        if self.inner.count == 0 {
            Value::Null
        } else {
            Value::Double(self.inner.sum_f / self.inner.count as f64)
        }
    }

    fn partial_state(&self) -> Option<AggState> {
        self.inner.partial_state()
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        self.inner.merge_state(state)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Min or max as a running extreme under [`Value::total_cmp`]. Comparisons
/// are strict, so the first-seen instance wins a tie, as in the shared
/// numeric slot of [`crate::WindowAggSet`].
#[derive(Debug, Clone)]
pub struct MinMaxAgg {
    best: Option<Value>,
    is_min: bool,
}

impl MinMaxAgg {
    pub fn min() -> Self {
        MinMaxAgg {
            best: None,
            is_min: true,
        }
    }

    pub fn max() -> Self {
        MinMaxAgg {
            best: None,
            is_min: false,
        }
    }

    fn keep_extreme(&mut self, v: &Value) {
        let wanted = if self.is_min {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        };
        if !v.is_null() && self.best.as_ref().is_none_or(|b| v.total_cmp(b) == wanted) {
            self.best = Some(v.clone());
        }
    }
}

impl Aggregator for MinMaxAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.keep_extreme(&args[0]);
        Ok(())
    }

    fn output(&self) -> Value {
        self.best.clone().unwrap_or(Value::Null)
    }

    /// Only the extreme: min/max is decomposable as min-of-mins /
    /// max-of-maxes, so pre-aggregation buckets stay O(1) regardless of
    /// bucket size.
    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::ValueCounts(
            self.best.iter().map(|v| (v.clone(), 1)).collect(),
        ))
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::ValueCounts(vals) = state else {
            return Err(Error::Eval(
                "min/max expects a ValueCounts partial state".into(),
            ));
        };
        for (v, _) in vals {
            self.keep_extreme(v);
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.best = None;
    }
}

/// Sample standard deviation from (count, sum, sum of squares).
#[derive(Debug, Default, Clone)]
pub struct StddevAgg {
    count: u64,
    sum: f64,
    sum_sq: f64,
}

impl Aggregator for StddevAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if !args[0].is_null() {
            let v = args[0].as_f64()?;
            self.count += 1;
            self.sum += v;
            self.sum_sq += v * v;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        if self.count < 2 {
            return Value::Null;
        }
        let n = self.count as f64;
        let var = ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0);
        Value::Double(var.sqrt())
    }

    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::Numeric {
            count: self.count,
            sum_i: 0,
            sum_f: self.sum,
            sum_sq: self.sum_sq,
            all_int: false,
        })
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::Numeric {
            count,
            sum_f,
            sum_sq,
            ..
        } = state
        else {
            return Err(Error::Eval("stddev expects a Numeric partial state".into()));
        };
        self.count += count;
        self.sum += sum_f;
        self.sum_sq += sum_sq;
        Ok(())
    }

    fn reset(&mut self) {
        *self = StddevAgg::default();
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

/// Conditional wrapper: `f_where(value, condition)` updates the inner
/// aggregate only when the condition argument is true.
pub struct WhereAgg {
    inner: Box<dyn Aggregator>,
}

impl WhereAgg {
    pub fn new(inner: Box<dyn Aggregator>) -> Self {
        WhereAgg { inner }
    }

    fn passes(args: &[Value]) -> Result<bool> {
        match args.get(1) {
            Some(c) => c.as_bool(),
            None => Err(Error::Eval(
                "conditional aggregate missing condition".into(),
            )),
        }
    }
}

impl Aggregator for WhereAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if Self::passes(args)? {
            self.inner.update(&args[..1])?;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        self.inner.output()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(agg: &mut dyn Aggregator, vals: &[Value]) {
        for v in vals {
            agg.update(std::slice::from_ref(v)).unwrap();
        }
    }

    #[test]
    fn sum_integer_preserving() {
        let mut s = SumAgg::default();
        feed(&mut s, &[Value::Int(1), Value::Bigint(2), Value::Null]);
        assert_eq!(s.output(), Value::Bigint(3));
        s.update(&[Value::Double(0.5)]).unwrap();
        assert_eq!(s.output(), Value::Double(3.5));
    }

    #[test]
    fn empty_sum_is_null() {
        assert_eq!(SumAgg::default().output(), Value::Null);
    }

    #[test]
    fn sum_merge_partial_states() {
        let mut a = SumAgg::default();
        feed(&mut a, &[Value::Int(1), Value::Int(2)]);
        let mut b = SumAgg::default();
        feed(&mut b, &[Value::Int(10)]);
        a.merge_state(&b.partial_state().unwrap()).unwrap();
        assert_eq!(a.output(), Value::Bigint(13));
    }

    #[test]
    fn count_ignores_nulls() {
        let mut c = CountAgg::default();
        feed(&mut c, &[Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(c.output(), Value::Bigint(2));
    }

    #[test]
    fn avg_is_sum_over_count() {
        let mut a = AvgAgg::default();
        feed(&mut a, &[Value::Int(1), Value::Int(2), Value::Int(6)]);
        assert_eq!(a.output(), Value::Double(3.0));
        assert_eq!(AvgAgg::default().output(), Value::Null);
    }

    #[test]
    fn minmax_keeps_the_first_seen_extreme() {
        let mut mx = MinMaxAgg::max();
        feed(&mut mx, &[Value::Int(3), Value::Int(9), Value::Bigint(9)]);
        assert_eq!(format!("{:?}", mx.output()), "Int(9)");

        let mut mn = MinMaxAgg::min();
        feed(&mut mn, &[Value::string("b"), Value::string("a")]);
        assert_eq!(mn.output(), Value::string("a"));
    }

    #[test]
    fn minmax_merge() {
        let mut a = MinMaxAgg::max();
        feed(&mut a, &[Value::Int(3)]);
        let mut b = MinMaxAgg::max();
        feed(&mut b, &[Value::Int(11)]);
        a.merge_state(&b.partial_state().unwrap()).unwrap();
        assert_eq!(a.output(), Value::Int(11));
    }

    #[test]
    fn stddev_sample() {
        let mut s = StddevAgg::default();
        feed(
            &mut s,
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
        assert_eq!(StddevAgg::default().output(), Value::Null);
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
        let mut s = WhereAgg::new(Box::new(SumAgg::default()));
        s.update(&[Value::Int(10), Value::Bool(true)]).unwrap();
        s.update(&[Value::Int(99), Value::Bool(false)]).unwrap();
        assert_eq!(s.output(), Value::Bigint(10));
    }
}
