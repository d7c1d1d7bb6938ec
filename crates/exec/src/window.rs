//! Window aggregate evaluation with **cyclic binding** (paper Section 4.2).
//!
//! When several aggregate calls over one window share the same argument
//! expression and belong to the "simple statistics" family (`sum`, `count`,
//! `avg`, `min`, `max`, `stddev`), a single shared state is maintained and
//! each output is a projection of it — `avg` literally reuses the `sum` and
//! `count` intermediates, and the argument expression is evaluated once per
//! row instead of once per call.

use openmldb_sql::plan::{BoundAggregate, PhysExpr};
use openmldb_types::{Result, RowView, Value};

use crate::agg::{create_aggregator, Aggregator};
use crate::eval::{evaluate_with, ColumnSource};

/// Shared numeric statistics state for one distinct argument expression.
#[derive(Debug, Default)]
struct SharedNumeric {
    count: u64,
    sum_i: i64,
    sum_f: f64,
    sum_sq: f64,
    all_int: bool,
    /// Running sums, maintained only when sum/avg/stddev projections exist.
    /// Without them the slot may legally feed on non-numeric values —
    /// `count`, `min` and `max` are defined over strings too.
    track_sums: bool,
    /// Running extrema, maintained only when min/max projections exist.
    /// Windows never retract here (requests rebuild from a fresh scan), so a
    /// running pair replaces the ordered multiset the retracting
    /// [`SlidingWindow`](crate::SlidingWindow) still needs.
    track_minmax: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl SharedNumeric {
    fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if self.count == 0 {
            self.all_int = true;
        }
        if self.track_sums {
            let integral = !matches!(v, Value::Float(_) | Value::Double(_)) && v.as_i64().is_ok();
            if integral {
                self.sum_i = self.sum_i.wrapping_add(v.as_i64()?);
            } else {
                self.all_int = false;
            }
            let f = v.as_f64()?;
            self.sum_f += f;
            self.sum_sq += f * f;
        }
        self.count += 1;
        if self.track_minmax {
            // Strict comparisons keep the first-seen instance on ties,
            // matching the ordered-multiset semantics this replaces.
            if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                self.max = Some(v.clone());
            }
        }
        Ok(())
    }

    fn project(&self, proj: Projection) -> Value {
        match proj {
            Projection::Count => Value::Bigint(self.count as i64),
            Projection::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Bigint(self.sum_i)
                } else {
                    Value::Double(self.sum_f)
                }
            }
            Projection::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum_f / self.count as f64)
                }
            }
            Projection::Min => self.min.clone().unwrap_or(Value::Null),
            Projection::Max => self.max.clone().unwrap_or(Value::Null),
            Projection::Stddev => {
                if self.count < 2 {
                    return Value::Null;
                }
                let n = self.count as f64;
                let var = ((self.sum_sq - self.sum_f * self.sum_f / n) / (n - 1.0)).max(0.0);
                Value::Double(var.sqrt())
            }
        }
    }

    fn reset(&mut self) {
        let (sums, minmax) = (self.track_sums, self.track_minmax);
        *self = SharedNumeric::default();
        self.track_sums = sums;
        self.track_minmax = minmax;
    }
}

/// Which statistic of the shared state a binding projects. Shared with the
/// compiled-program kernels in [`crate::program`], which replicate
/// [`SharedNumeric`]'s fold bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Projection {
    Sum,
    Count,
    Avg,
    Min,
    Max,
    Stddev,
}

pub(crate) fn projection_for(func: &str) -> Option<Projection> {
    Some(match func {
        "sum" => Projection::Sum,
        "count" => Projection::Count,
        "avg" => Projection::Avg,
        "min" => Projection::Min,
        "max" => Projection::Max,
        "stddev" => Projection::Stddev,
        _ => return None,
    })
}

enum Slot {
    Shared {
        args: Vec<PhysExpr>,
        state: SharedNumeric,
    },
    Single {
        args: Vec<PhysExpr>,
        agg: Box<dyn Aggregator>,
    },
}

enum Binding {
    Shared { slot: usize, proj: Projection },
    Single { slot: usize },
}

/// Evaluates a group of aggregates over one window in a single pass, with
/// cyclic-binding state sharing.
pub struct WindowAggSet {
    slots: Vec<Slot>,
    bindings: Vec<Binding>,
    /// Reusable argument buffer for `Single` slots — cleared per row, never
    /// reallocated once warm.
    scratch_args: Vec<Value>,
}

impl WindowAggSet {
    /// Build the evaluator for `aggs` (all belonging to one window). Outputs
    /// are produced in the same order.
    pub fn new(aggs: &[&BoundAggregate]) -> Result<Self> {
        let mut slots: Vec<Slot> = Vec::new();
        let mut bindings = Vec::with_capacity(aggs.len());
        // (args) -> shared slot index, for shareable functions.
        let mut shared_index: Vec<(Vec<PhysExpr>, usize)> = Vec::new();

        for agg in aggs {
            if let Some(proj) = projection_for(agg.func.name) {
                let existing = shared_index
                    .iter()
                    .find(|(a, _)| a == &agg.args)
                    .map(|(_, i)| *i);
                let slot = match existing {
                    Some(i) => i,
                    None => {
                        let i = slots.len();
                        slots.push(Slot::Shared {
                            args: agg.args.clone(),
                            state: SharedNumeric::default(),
                        });
                        shared_index.push((agg.args.clone(), i));
                        i
                    }
                };
                if let Slot::Shared { state, .. } = &mut slots[slot] {
                    match proj {
                        Projection::Min | Projection::Max => state.track_minmax = true,
                        Projection::Sum | Projection::Avg | Projection::Stddev => {
                            state.track_sums = true
                        }
                        Projection::Count => {}
                    }
                }
                bindings.push(Binding::Shared { slot, proj });
            } else {
                let i = slots.len();
                slots.push(Slot::Single {
                    args: agg.args.clone(),
                    agg: create_aggregator(agg.func, &agg.args)?,
                });
                bindings.push(Binding::Single { slot: i });
            }
        }
        Ok(WindowAggSet {
            slots,
            bindings,
            scratch_args: Vec::new(),
        })
    }

    /// Feed one window row (oldest → newest).
    pub fn update(&mut self, row: &[Value]) -> Result<()> {
        self.update_src(self.slots.len(), row)
    }

    // HOT: per-scanned-row aggregate feed on the streaming request path —
    // reads columns in place through the borrowed view.
    /// Feed one window row directly from its compact encoding, without
    /// decoding the full row first.
    pub fn update_view(&mut self, row: &RowView<'_>) -> Result<()> {
        self.update_src(self.slots.len(), row)
    }

    /// Feed `row` to the slots of the first `aggs` aggregates only (slots are
    /// created in aggregate order, so those form a prefix). The compiled
    /// program's cold error path uses this to find the error the interpreter
    /// would have reported first.
    pub(crate) fn update_first<S: ColumnSource + ?Sized>(
        &mut self,
        aggs: usize,
        row: &S,
    ) -> Result<()> {
        let slots = self
            .bindings
            .iter()
            .take(aggs)
            .map(|b| match b {
                Binding::Shared { slot, .. } | Binding::Single { slot } => slot + 1,
            })
            .max()
            .unwrap_or(0);
        self.update_src(slots, row)
    }

    /// Feed `row` to the first `n` slots.
    fn update_src<S: ColumnSource + ?Sized>(&mut self, n: usize, row: &S) -> Result<()> {
        let Self {
            slots,
            scratch_args,
            ..
        } = self;
        for slot in slots.iter_mut().take(n) {
            match slot {
                Slot::Shared { args, state } => {
                    let v = evaluate_with(&args[0], row, &[])?;
                    state.update(&v)?;
                }
                Slot::Single { args, agg } => {
                    scratch_args.clear();
                    for a in args.iter() {
                        scratch_args.push(evaluate_with(a, row, &[])?);
                    }
                    agg.update(scratch_args)?;
                }
            }
        }
        Ok(())
    }

    /// Current outputs, one per input aggregate, in input order.
    pub fn outputs(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.bindings.len());
        self.outputs_into(&mut out);
        out
    }

    /// Append the current outputs to `out`, reusing its capacity.
    pub fn outputs_into(&self, out: &mut Vec<Value>) {
        for b in &self.bindings {
            out.push(match b {
                Binding::Shared { slot, proj } => match &self.slots[*slot] {
                    Slot::Shared { state, .. } => state.project(*proj),
                    Slot::Single { .. } => unreachable!("binding/slot mismatch"),
                },
                Binding::Single { slot } => match &self.slots[*slot] {
                    Slot::Single { agg, .. } => agg.output(),
                    Slot::Shared { .. } => unreachable!("binding/slot mismatch"),
                },
            });
        }
    }

    /// Clear all state for the next request.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            match slot {
                Slot::Shared { state, .. } => state.reset(),
                Slot::Single { agg, .. } => agg.reset(),
            }
        }
    }

    /// Number of physical state slots (≤ number of aggregates when cyclic
    /// binding shares state). Exposed for tests and the ablation bench.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of bound aggregate outputs.
    pub fn output_count(&self) -> usize {
        self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_types::DataType;

    fn bound(func: &str, args: Vec<PhysExpr>) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(func).unwrap(),
            args,
            output_type: DataType::Double,
        }
    }

    #[test]
    fn cyclic_binding_shares_state() {
        let aggs = [
            bound("sum", vec![PhysExpr::Column(0)]),
            bound("avg", vec![PhysExpr::Column(0)]),
            bound("count", vec![PhysExpr::Column(0)]),
            bound("max", vec![PhysExpr::Column(0)]),
            bound("sum", vec![PhysExpr::Column(1)]), // different args → new slot
        ];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut set = WindowAggSet::new(&refs).unwrap();
        assert_eq!(set.output_count(), 5);
        assert_eq!(set.slot_count(), 2, "4 calls over col0 share one state");

        for (a, b) in [(1i64, 10i64), (2, 20), (3, 30)] {
            set.update(&[Value::Bigint(a), Value::Bigint(b)]).unwrap();
        }
        let out = set.outputs();
        assert_eq!(out[0], Value::Bigint(6)); // sum col0
        assert_eq!(out[1], Value::Double(2.0)); // avg col0
        assert_eq!(out[2], Value::Bigint(3)); // count col0
        assert_eq!(out[3], Value::Bigint(3)); // max col0
        assert_eq!(out[4], Value::Bigint(60)); // sum col1
    }

    #[test]
    fn non_shareable_functions_get_own_slots() {
        let aggs = [
            bound("distinct_count", vec![PhysExpr::Column(0)]),
            bound("sum", vec![PhysExpr::Column(0)]),
        ];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut set = WindowAggSet::new(&refs).unwrap();
        assert_eq!(set.slot_count(), 2);
        for v in [1, 1, 2] {
            set.update(&[Value::Bigint(v)]).unwrap();
        }
        let out = set.outputs();
        assert_eq!(out[0], Value::Bigint(2));
        assert_eq!(out[1], Value::Bigint(4));
    }

    #[test]
    fn reset_clears_all_slots() {
        let aggs = [
            bound("sum", vec![PhysExpr::Column(0)]),
            bound("min", vec![PhysExpr::Column(0)]),
        ];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut set = WindowAggSet::new(&refs).unwrap();
        set.update(&[Value::Bigint(5)]).unwrap();
        set.reset();
        let out = set.outputs();
        assert_eq!(out[0], Value::Null);
        assert_eq!(out[1], Value::Null);
        // Still usable after reset.
        set.update(&[Value::Bigint(7)]).unwrap();
        assert_eq!(set.outputs()[0], Value::Bigint(7));
    }

    #[test]
    fn arg_expressions_are_evaluated() {
        // sum(col0 * 2)
        let expr = PhysExpr::Binary {
            op: openmldb_sql::BinaryOp::Mul,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Value::Bigint(2))),
        };
        let aggs = [bound("sum", vec![expr])];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut set = WindowAggSet::new(&refs).unwrap();
        set.update(&[Value::Bigint(3)]).unwrap();
        assert_eq!(set.outputs()[0], Value::Bigint(6));
    }
}
