//! Order-dependent time-series aggregates (paper Section 4.1, category 3):
//! `drawdown`, `ew_avg`, `lag`, `first_value`.
//!
//! These depend on chronological feed order, so they are not mergeable —
//! queries using them fall back to window scans (which the pre-ranked
//! skiplist of Section 7.2 keeps cheap) instead of pre-aggregation.

use std::collections::VecDeque;

use openmldb_types::{Result, Value};

use super::Aggregator;

/// Maximum decline percentage from a running peak to a subsequent trough —
/// the quantitative-trading loss measure from the paper.
///
/// Fed oldest → newest; output in `[0, 1]`.
#[derive(Debug, Default, Clone)]
pub struct DrawdownAgg {
    peak: Option<f64>,
    max_drawdown: f64,
    saw_value: bool,
}

impl Aggregator for DrawdownAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if args[0].is_null() {
            return Ok(());
        }
        let v = args[0].as_f64()?;
        self.saw_value = true;
        match &mut self.peak {
            None => self.peak = Some(v),
            Some(p) => {
                if v > *p {
                    *p = v;
                } else if *p > 0.0 {
                    self.max_drawdown = self.max_drawdown.max((*p - v) / *p);
                }
            }
        }
        Ok(())
    }

    fn output(&self) -> Value {
        if self.saw_value {
            Value::Double(self.max_drawdown)
        } else {
            Value::Null
        }
    }

    fn reset(&mut self) {
        *self = DrawdownAgg::default();
    }
}

/// Exponentially weighted average with smoothing factor `alpha`:
/// `ew = alpha * v + (1 - alpha) * ew`, fed oldest → newest so recent values
/// weigh more.
#[derive(Debug, Clone)]
pub struct EwAvgAgg {
    alpha: f64,
    current: Option<f64>,
}

impl EwAvgAgg {
    pub fn new(alpha: f64) -> Self {
        EwAvgAgg {
            alpha,
            current: None,
        }
    }
}

impl Aggregator for EwAvgAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if args[0].is_null() {
            return Ok(());
        }
        let v = args[0].as_f64()?;
        self.current = Some(match self.current {
            None => v,
            Some(ew) => self.alpha * v + (1.0 - self.alpha) * ew,
        });
        Ok(())
    }

    fn output(&self) -> Value {
        self.current.map(Value::Double).unwrap_or(Value::Null)
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

/// `lag(col, n)`: the value `n` rows before the newest row (lag(col, 0) is
/// the newest row's value).
#[derive(Debug, Clone)]
pub struct LagAgg {
    n: usize,
    buf: VecDeque<Value>,
}

impl LagAgg {
    pub fn new(n: usize) -> Self {
        LagAgg {
            n,
            buf: VecDeque::with_capacity(n + 1),
        }
    }
}

impl Aggregator for LagAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if self.buf.len() > self.n {
            self.buf.pop_front();
        }
        self.buf.push_back(args[0].clone());
        Ok(())
    }

    fn output(&self) -> Value {
        if self.buf.len() > self.n {
            self.buf[self.buf.len() - 1 - self.n].clone()
        } else {
            Value::Null
        }
    }

    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// The newest row's value (windows are fed oldest → newest; the final update
/// is the most recent tuple, which in request mode is the request row).
#[derive(Debug, Default, Clone)]
pub struct FirstValueAgg {
    latest: Option<Value>,
}

impl Aggregator for FirstValueAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.latest = Some(args[0].clone());
        Ok(())
    }

    fn output(&self) -> Value {
        self.latest.clone().unwrap_or(Value::Null)
    }

    fn reset(&mut self) {
        self.latest = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(agg: &mut dyn Aggregator, vals: &[f64]) {
        for v in vals {
            agg.update(&[Value::Double(*v)]).unwrap();
        }
    }

    #[test]
    fn drawdown_peak_to_trough() {
        let mut d = DrawdownAgg::default();
        // Peak 100, trough 60 → 40% drawdown; later peak 120 trough 90 → 25%.
        feed(&mut d, &[80.0, 100.0, 60.0, 120.0, 90.0]);
        let Value::Double(v) = d.output() else {
            panic!()
        };
        assert!((v - 0.4).abs() < 1e-9, "{v}");
    }

    #[test]
    fn drawdown_monotone_rise_is_zero() {
        let mut d = DrawdownAgg::default();
        feed(&mut d, &[1.0, 2.0, 3.0]);
        assert_eq!(d.output(), Value::Double(0.0));
        assert_eq!(DrawdownAgg::default().output(), Value::Null);
    }

    #[test]
    fn ew_avg_weights_recent_values() {
        let mut e = EwAvgAgg::new(0.5);
        feed(&mut e, &[0.0, 10.0]);
        assert_eq!(e.output(), Value::Double(5.0));
        e.update(&[Value::Double(10.0)]).unwrap();
        assert_eq!(e.output(), Value::Double(7.5));
        // alpha = 1 → only the latest value matters.
        let mut last = EwAvgAgg::new(1.0);
        feed(&mut last, &[1.0, 2.0, 99.0]);
        assert_eq!(last.output(), Value::Double(99.0));
    }

    #[test]
    fn lag_returns_nth_previous() {
        let mut l = LagAgg::new(2);
        assert_eq!(l.output(), Value::Null);
        for v in [1, 2, 3, 4] {
            l.update(&[Value::Int(v)]).unwrap();
        }
        assert_eq!(l.output(), Value::Int(2), "two rows before the newest (4)");
        let mut l0 = LagAgg::new(0);
        l0.update(&[Value::Int(7)]).unwrap();
        assert_eq!(l0.output(), Value::Int(7));
    }

    #[test]
    fn first_value_is_newest() {
        let mut f = FirstValueAgg::default();
        for v in [1, 2, 3] {
            f.update(&[Value::Int(v)]).unwrap();
        }
        assert_eq!(f.output(), Value::Int(3));
    }

    #[test]
    fn timeseries_aggs_not_mergeable() {
        assert!(DrawdownAgg::default().partial_state().is_none());
        assert!(EwAvgAgg::new(0.5).partial_state().is_none());
    }
}
