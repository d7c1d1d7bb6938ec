//! Window aggregate evaluation with **cyclic binding** (paper Section 4.2).
//!
//! When several aggregate calls over one window share the same argument
//! expression and belong to the "simple statistics" family (`sum`, `count`,
//! `avg`, `min`, `max`, `stddev`), a single shared state is maintained and
//! each output is a projection of it — `avg` literally reuses the `sum` and
//! `count` intermediates, and the argument expression is evaluated once per
//! row instead of once per call.
//!
//! A set's slot layout (argument expressions and bindings, built once) is
//! kept apart from its per-slot [`AggStates`]: a long-window
//! pre-aggregation bucket (Section 5.1) holds only states, feeds its rows
//! through the set's layout and merges into another bucket slot by slot.

use std::cmp::Ordering;

use openmldb_sql::plan::{BoundAggregate, PhysExpr};
use openmldb_sql::FunctionDef;
use openmldb_types::{Error, Result, RowView, Value};

use crate::agg::{create_aggregator, Aggregator};
use crate::eval::{evaluate_with, ColumnSource};

/// Shared numeric statistics state for one distinct argument expression:
/// the one fold of `sum` / `count` / `avg` / `min` / `max` / `stddev`, run
/// by a window's slot, a pre-aggregation bucket and
/// [`crate::agg::StatsAgg`] alike.
#[derive(Debug, Default, Clone)]
pub(crate) struct SharedNumeric {
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
    /// Windows never retract here (requests rebuild from a fresh scan).
    track_minmax: bool,
    min: Option<Value>,
    max: Option<Value>,
}

/// Keep `v` as the extremum if it beats `best` strictly (`wins`), so the
/// first-seen instance keeps a tie.
fn keep_extreme(best: &mut Option<Value>, v: &Value, wins: Ordering) {
    if best.as_ref().is_none_or(|b| v.total_cmp(b) == wins) {
        *best = Some(v.clone());
    }
}

impl SharedNumeric {
    /// Maintain what `proj` reads.
    pub(crate) fn track(&mut self, proj: Projection) {
        match proj {
            Projection::Min | Projection::Max => self.track_minmax = true,
            Projection::Sum | Projection::Avg | Projection::Stddev => self.track_sums = true,
            Projection::Count => {}
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
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
            keep_extreme(&mut self.min, v, Ordering::Less);
            keep_extreme(&mut self.max, v, Ordering::Greater);
        }
        Ok(())
    }

    /// Fold in `later` — the same statistics over rows that follow this
    /// state's — as if its rows had been fed here: counts and the wrapping
    /// integer sum add exactly, float sums add in merge order, and extrema
    /// compare strictly, so this state's value keeps a tie.
    pub(crate) fn merge(&mut self, later: &SharedNumeric) {
        if later.count == 0 {
            return;
        }
        if self.count == 0 {
            self.all_int = true;
        }
        self.all_int &= later.all_int;
        self.count += later.count;
        self.sum_i = self.sum_i.wrapping_add(later.sum_i);
        self.sum_f += later.sum_f;
        self.sum_sq += later.sum_sq;
        if let Some(min) = &later.min {
            keep_extreme(&mut self.min, min, Ordering::Less);
        }
        if let Some(max) = &later.max {
            keep_extreme(&mut self.max, max, Ordering::Greater);
        }
    }

    pub(crate) fn project(&self, proj: Projection) -> Value {
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

    pub(crate) fn reset(&mut self) {
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

/// One slot of a set's layout: what its state is fed from.
enum Slot {
    /// A [`SharedNumeric`] over one argument; `empty` is its initial state,
    /// tracking what the slot's bindings project.
    Shared { arg: PhysExpr, empty: SharedNumeric },
    /// A boxed aggregator of `func` over its arguments.
    Single {
        func: &'static FunctionDef,
        args: Vec<PhysExpr>,
    },
}

/// One slot's running state.
enum SlotState {
    Shared(SharedNumeric),
    Single(Box<dyn Aggregator>),
}

/// One output: the slot it reads, through `proj` for a shared slot or as
/// the aggregator's own output for a single one.
struct Binding {
    slot: usize,
    proj: Option<Projection>,
}

/// The per-slot states of a [`WindowAggSet`]'s layout, without its
/// argument expressions or bindings — all a pre-aggregation bucket keeps.
/// Make them with [`WindowAggSet::fresh_states`].
pub struct AggStates(Box<[SlotState]>);

impl AggStates {
    /// Fold in `later`, states of the same layout over rows that follow
    /// these, slot by slot: shared slots through their exact merge, single
    /// ones through the aggregator's partial state.
    pub fn merge(&mut self, later: &AggStates) -> Result<()> {
        for (state, later) in self.0.iter_mut().zip(&later.0) {
            match (state, later) {
                (SlotState::Shared(s), SlotState::Shared(l)) => s.merge(l),
                (SlotState::Single(agg), SlotState::Single(l)) => {
                    let partial = l.partial_state().ok_or_else(|| {
                        Error::Eval("aggregate does not support partial-state merging".into())
                    })?;
                    agg.merge_state(&partial)?;
                }
                _ => return Err(foreign_states()),
            }
        }
        Ok(())
    }
}

#[cold]
fn foreign_states() -> Error {
    Error::Eval("aggregate states belong to another window's layout".into())
}

/// Feed `row` to the first `n` slots of `states`, each slot's arguments
/// evaluated once; `args` is the reusable argument buffer of single slots.
fn feed<S: ColumnSource + ?Sized>(
    slots: &[Slot],
    states: &mut [SlotState],
    n: usize,
    row: &S,
    args: &mut Vec<Value>,
) -> Result<()> {
    for (slot, state) in slots.iter().zip(states).take(n) {
        match (slot, state) {
            (Slot::Shared { arg, .. }, SlotState::Shared(s)) => {
                s.update(&evaluate_with(arg, row, &[])?)?;
            }
            (Slot::Single { args: exprs, .. }, SlotState::Single(agg)) => {
                args.clear();
                for a in exprs {
                    args.push(evaluate_with(a, row, &[])?);
                }
                agg.update(args)?;
            }
            _ => return Err(foreign_states()),
        }
    }
    Ok(())
}

/// Evaluates a group of aggregates over one window in a single pass, with
/// cyclic-binding state sharing.
pub struct WindowAggSet {
    slots: Vec<Slot>,
    bindings: Vec<Binding>,
    states: AggStates,
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
        for agg in aggs {
            let Some(proj) = projection_for(agg.func.name) else {
                bindings.push(Binding {
                    slot: slots.len(),
                    proj: None,
                });
                slots.push(Slot::Single {
                    func: agg.func,
                    args: agg.args.clone(),
                });
                continue;
            };
            let [arg] = agg.args.as_slice() else {
                return Err(Error::Plan(format!(
                    "`{}` takes one argument",
                    agg.func.name
                )));
            };
            let slot = slots
                .iter()
                .position(|s| matches!(s, Slot::Shared { arg: a, .. } if a == arg))
                .unwrap_or_else(|| {
                    slots.push(Slot::Shared {
                        arg: arg.clone(),
                        empty: SharedNumeric::default(),
                    });
                    slots.len() - 1
                });
            if let Some(Slot::Shared { empty, .. }) = slots.get_mut(slot) {
                empty.track(proj);
            }
            bindings.push(Binding {
                slot,
                proj: Some(proj),
            });
        }
        let mut set = WindowAggSet {
            slots,
            bindings,
            states: AggStates(Box::default()),
            scratch_args: Vec::new(),
        };
        set.states = set.fresh_states()?;
        Ok(set)
    }

    /// Empty states of this set's layout (a new pre-aggregation bucket).
    pub fn fresh_states(&self) -> Result<AggStates> {
        // Sized exactly: a bucket is one allocation of its slots (a collect
        // through `Result` would reserve room for four).
        let mut states = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            states.push(match slot {
                Slot::Shared { empty, .. } => SlotState::Shared(empty.clone()),
                Slot::Single { func, args } => SlotState::Single(create_aggregator(func, args)?),
            });
        }
        Ok(AggStates(states.into_boxed_slice()))
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

    /// Feed one row to `states` (made by [`WindowAggSet::fresh_states`])
    /// through this set's layout, exactly as [`WindowAggSet::update`] feeds
    /// the set's own.
    pub fn update_states(&self, states: &mut AggStates, row: &[Value]) -> Result<()> {
        feed(
            &self.slots,
            &mut states.0,
            self.slots.len(),
            row,
            &mut Vec::new(),
        )
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
            .map(|b| b.slot + 1)
            .max()
            .unwrap_or(0);
        self.update_src(slots, row)
    }

    /// Feed `row` to the first `n` slots.
    fn update_src<S: ColumnSource + ?Sized>(&mut self, n: usize, row: &S) -> Result<()> {
        let Self {
            slots,
            states,
            scratch_args,
            ..
        } = self;
        feed(slots, &mut states.0, n, row, scratch_args)
    }

    /// Current outputs, one per input aggregate, in input order.
    pub fn outputs(&self) -> Vec<Value> {
        self.outputs_of(&self.states)
    }

    /// The outputs `states` project to, one per input aggregate, in input
    /// order.
    pub fn outputs_of(&self, states: &AggStates) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.bindings.len());
        self.project_into(states, &mut out);
        out
    }

    /// Append the current outputs to `out`, reusing its capacity.
    pub fn outputs_into(&self, out: &mut Vec<Value>) {
        self.project_into(&self.states, out);
    }

    /// Append `states`' outputs to `out`. States of another layout project
    /// to NULL.
    fn project_into(&self, states: &AggStates, out: &mut Vec<Value>) {
        for b in &self.bindings {
            out.push(match (states.0.get(b.slot), b.proj) {
                (Some(SlotState::Shared(s)), Some(proj)) => s.project(proj),
                (Some(SlotState::Single(agg)), None) => agg.output(),
                _ => Value::Null,
            });
        }
    }

    /// Clear all state for the next request.
    pub fn reset(&mut self) {
        for state in &mut self.states.0 {
            match state {
                SlotState::Shared(s) => s.reset(),
                SlotState::Single(agg) => agg.reset(),
            }
        }
    }

    /// Number of physical state slots (≤ number of aggregates when cyclic
    /// binding shares state). Exposed for tests and the ablation bench.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
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
        assert_eq!(set.outputs().len(), 5);
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
    fn merged_states_wrap_the_sum_and_keep_the_earlier_extremum() {
        let aggs = [
            bound("sum", vec![PhysExpr::Column(0)]),
            bound("max", vec![PhysExpr::Column(0)]),
            bound("median", vec![PhysExpr::Column(0)]),
        ];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut set = WindowAggSet::new(&refs).unwrap();
        // `i64::MAX - 1` ties `i64::MAX` under `total_cmp` (both read 2^63).
        let (early, late) = ([i64::MAX], [i64::MAX - 1, 5]);
        let mut merged = set.fresh_states().unwrap();
        for rows in [&early[..], &late[..]] {
            let mut bucket = set.fresh_states().unwrap();
            for &v in rows {
                set.update_states(&mut bucket, &[Value::Bigint(v)]).unwrap();
                set.update(&[Value::Bigint(v)]).unwrap();
            }
            merged.merge(&bucket).unwrap();
        }
        let out = set.outputs_of(&merged);
        assert_eq!(out, set.outputs());
        let sum = i64::MAX.wrapping_add(i64::MAX - 1).wrapping_add(5);
        assert_eq!(out[0], Value::Bigint(sum));
        assert_eq!(out[1], Value::Bigint(i64::MAX));
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
