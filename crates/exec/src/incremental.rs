//! Incremental sliding-window aggregation — the **Subtract-and-Evict**
//! scheme of paper Section 5.2.
//!
//! A [`SlidingWindow`] keeps the rows currently inside the frame. When a new
//! tuple arrives, expired tuples are *retracted* from each invertible
//! aggregate in O(1) each, instead of recomputing the window from scratch.
//! If any aggregate is not invertible (e.g. `drawdown`), the window falls
//! back to recomputation — the same policy the online engine uses.

use std::collections::VecDeque;

use openmldb_sql::ast::Frame;
use openmldb_sql::plan::{BoundAggregate, PhysExpr};
use openmldb_types::{Result, Value};

use crate::agg::{create_aggregator, Aggregator};
use crate::eval::evaluate;

struct Entry {
    ts: i64,
    /// Insertion sequence number, to tell apart entries with equal ts.
    seq: u64,
    /// Evaluated arguments per aggregate, cached so retraction does not
    /// re-evaluate expressions.
    arg_vals: Vec<Vec<Value>>,
}

/// A continuously maintained window over one key's stream.
pub struct SlidingWindow {
    frame: Frame,
    arg_exprs: Vec<Vec<PhysExpr>>,
    aggs: Vec<Box<dyn Aggregator>>,
    buffer: VecDeque<Entry>,
    next_seq: u64,
    all_invertible: bool,
    /// Counts of incremental vs full recomputations, for the ablation bench.
    pub incremental_steps: u64,
    pub recompute_steps: u64,
}

impl SlidingWindow {
    pub fn new(frame: Frame, aggs: &[&BoundAggregate]) -> Result<Self> {
        let mut instances = Vec::with_capacity(aggs.len());
        let mut arg_exprs = Vec::with_capacity(aggs.len());
        for a in aggs {
            instances.push(create_aggregator(a.func, &a.args)?);
            arg_exprs.push(a.args.clone());
        }
        let all_invertible = instances.iter().all(|a| a.invertible());
        Ok(SlidingWindow {
            frame,
            arg_exprs,
            aggs: instances,
            buffer: VecDeque::new(),
            next_seq: 0,
            all_invertible,
            incremental_steps: 0,
            recompute_steps: 0,
        })
    }

    /// Whether the subtract-and-evict fast path is active.
    pub fn incremental(&self) -> bool {
        self.all_invertible
    }

    /// Rows currently inside the frame.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Current aggregate outputs without ingesting a tuple (used by the
    /// offline sweep to emit peer-inclusive results after a run of
    /// equal-timestamp rows).
    pub fn outputs(&self) -> Vec<Value> {
        self.aggs.iter().map(|a| a.output()).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Ingest a tuple and return the aggregate outputs for the window as of
    /// this tuple. Handles out-of-order arrivals by keeping the buffer
    /// sorted on timestamp (paper Section 5.2 / the interval-join work it
    /// cites).
    pub fn push(&mut self, ts: i64, row: &[Value]) -> Result<Vec<Value>> {
        // Evaluate this row's aggregate arguments once.
        let mut arg_vals = Vec::with_capacity(self.arg_exprs.len());
        for exprs in &self.arg_exprs {
            let mut vals = Vec::with_capacity(exprs.len());
            for e in exprs {
                vals.push(evaluate(e, row, &[])?);
            }
            arg_vals.push(vals);
        }

        // Insert keeping the buffer time-ordered (out-of-order tolerant).
        let seq = self.next_seq;
        self.next_seq += 1;
        let insert_at = self.buffer.partition_point(|e| e.ts <= ts);
        self.buffer.insert(insert_at, Entry { ts, seq, arg_vals });

        // Evict rows that fall outside the frame anchored at the max ts.
        let anchor = self.buffer.back().map(|e| e.ts).unwrap_or(ts);
        let mut evicted = Vec::new();
        loop {
            let expired = {
                let Some(front) = self.buffer.front() else {
                    break;
                };
                match self.frame {
                    Frame::RowsRange { preceding_ms } => {
                        front.ts < anchor.saturating_sub(preceding_ms)
                    }
                    Frame::Rows { preceding } => self.buffer.len() as u64 > preceding + 1,
                    Frame::Unbounded => false,
                }
            };
            if !expired {
                break;
            }
            // analysis:allow(panic-path): the `expired` guard above only
            // passes when `front()` saw an entry, so the buffer is non-empty.
            evicted.push(self.buffer.pop_front().expect("non-empty"));
        }

        crate::metrics::window_evictions().add(evicted.len() as u64);
        if self.all_invertible {
            self.incremental_steps += 1;
            crate::metrics::incremental_steps().inc();
            // The just-inserted entry was never applied to the aggregates:
            // retract only genuinely old evictions, and apply the new entry
            // only if it survived (a very late tuple can expire on arrival).
            let mut new_entry_evicted = false;
            for e in &evicted {
                if e.seq == seq {
                    new_entry_evicted = true;
                    continue;
                }
                for (agg, vals) in self.aggs.iter_mut().zip(&e.arg_vals) {
                    agg.retract(vals)?;
                }
            }
            if !new_entry_evicted {
                // Search from the back: in-order streams insert at the end.
                let inserted = self
                    .buffer
                    .iter()
                    .rev()
                    .find(|e| e.seq == seq)
                    // analysis:allow(panic-path): `!new_entry_evicted` means
                    // the entry with this seq is still in the buffer.
                    .expect("inserted entry survived eviction");
                for (agg, vals) in self.aggs.iter_mut().zip(&inserted.arg_vals) {
                    agg.update(vals)?;
                }
            }
        } else {
            // Full recomputation in chronological order.
            self.recompute_steps += 1;
            crate::metrics::recompute_steps().inc();
            for agg in &mut self.aggs {
                agg.reset();
            }
            for e in &self.buffer {
                for (agg, vals) in self.aggs.iter_mut().zip(&e.arg_vals) {
                    agg.update(vals)?;
                }
            }
        }

        Ok(self.aggs.iter().map(|a| a.output()).collect())
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

    fn sum_window(frame: Frame) -> SlidingWindow {
        let aggs = [bound("sum", vec![PhysExpr::Column(0)])];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        SlidingWindow::new(frame, &refs).unwrap()
    }

    #[test]
    fn range_frame_evicts_by_time() {
        let mut w = sum_window(Frame::RowsRange { preceding_ms: 100 });
        assert_eq!(
            w.push(0, &[Value::Bigint(1)]).unwrap(),
            vec![Value::Bigint(1)]
        );
        assert_eq!(
            w.push(50, &[Value::Bigint(2)]).unwrap(),
            vec![Value::Bigint(3)]
        );
        assert_eq!(
            w.push(100, &[Value::Bigint(4)]).unwrap(),
            vec![Value::Bigint(7)]
        );
        // ts=0 and ts=50 now fall out (151 - 50 > 100).
        assert_eq!(
            w.push(151, &[Value::Bigint(8)]).unwrap(),
            vec![Value::Bigint(12)]
        );
        assert_eq!(w.len(), 2);
        assert!(w.incremental());
        assert_eq!(w.recompute_steps, 0);
    }

    #[test]
    fn rows_frame_caps_row_count() {
        let mut w = sum_window(Frame::Rows { preceding: 1 });
        w.push(1, &[Value::Bigint(1)]).unwrap();
        w.push(2, &[Value::Bigint(2)]).unwrap();
        let out = w.push(3, &[Value::Bigint(4)]).unwrap();
        assert_eq!(out, vec![Value::Bigint(6)], "only 2 newest rows remain");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn out_of_order_arrivals_are_ordered() {
        let mut w = sum_window(Frame::RowsRange {
            preceding_ms: 1_000,
        });
        w.push(100, &[Value::Bigint(1)]).unwrap();
        w.push(300, &[Value::Bigint(4)]).unwrap();
        // A late tuple from t=200 still lands inside the window.
        let out = w.push(200, &[Value::Bigint(2)]).unwrap();
        assert_eq!(out, vec![Value::Bigint(7)]);
    }

    #[test]
    fn non_invertible_falls_back_to_recompute() {
        let aggs = [bound("drawdown", vec![PhysExpr::Column(0)])];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut w = SlidingWindow::new(
            Frame::RowsRange {
                preceding_ms: 1_000,
            },
            &refs,
        )
        .unwrap();
        assert!(!w.incremental());
        w.push(0, &[Value::Double(100.0)]).unwrap();
        let out = w.push(10, &[Value::Double(60.0)]).unwrap();
        let Value::Double(dd) = out[0] else { panic!() };
        assert!((dd - 0.4).abs() < 1e-9);
        assert!(w.recompute_steps >= 2);
    }

    #[test]
    fn sliding_matches_full_recompute() {
        // Differential test: incremental result == scratch recompute.
        let aggs = [
            bound("sum", vec![PhysExpr::Column(0)]),
            bound("distinct_count", vec![PhysExpr::Column(0)]),
            bound("max", vec![PhysExpr::Column(0)]),
        ];
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let mut w = SlidingWindow::new(Frame::RowsRange { preceding_ms: 50 }, &refs).unwrap();
        let data: Vec<(i64, i64)> = (0..200).map(|i| (i * 7 % 400, (i * 13) % 10)).collect();
        let mut sorted_so_far: Vec<(i64, i64)> = Vec::new();
        for (ts, v) in data {
            let out = w.push(ts, &[Value::Bigint(v)]).unwrap();
            sorted_so_far.push((ts, v));
            sorted_so_far.sort_unstable();
            let anchor = sorted_so_far.iter().map(|(t, _)| *t).max().unwrap();
            let in_frame: Vec<i64> = sorted_so_far
                .iter()
                .filter(|(t, _)| anchor - t <= 50)
                .map(|(_, v)| *v)
                .collect();
            let expect_sum: i64 = in_frame.iter().sum();
            let expect_distinct = in_frame
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len() as i64;
            let expect_max = in_frame.iter().max().copied().unwrap();
            assert_eq!(out[0], Value::Bigint(expect_sum), "at ts {ts}");
            assert_eq!(out[1], Value::Bigint(expect_distinct), "at ts {ts}");
            assert_eq!(out[2], Value::Bigint(expect_max), "at ts {ts}");
        }
        assert!(w.incremental());
    }
}
