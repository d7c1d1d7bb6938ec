//! Multi-window parallel optimization (paper Section 6.1).
//!
//! A query with several independent windows is traditionally computed
//! serially, one window after another. Here the windows of one shape — the
//! same partition columns, order column and union tables — share one
//! grouping of the snapshot, and every window's work units (whole
//! partitions, or the time slices of hot ones, [`crate::skew`]) go to one
//! queue that the workers pull from. A unit is swept by its window's
//! [`Sweep`](openmldb_exec::Sweep). Every value stays addressed by its base
//! row's id — the synthetic **index column** — so the **Concat Join**
//! stitches the windows back onto each row whatever order their partitions
//! were swept in (`SimpleProject` marks the segment start, `ConcatJoin` the
//! end, in the paper's plan vocabulary): here that is one row-major buffer
//! of every aggregate for every base row.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use openmldb_exec::Program;
use openmldb_sql::plan::CompiledQuery;
use openmldb_types::{Result, Row, Value};

use crate::engine::{decoded, OfflineOptions, Tables, WindowExecMode};
use crate::skew::units;
use crate::snapshot::{Partition, Snapshot};

/// Sweep the windows `wids` into one buffer of every aggregate for every
/// base row, row-major in plan order — what the select list reads a row's
/// slice of. The queue has `opts.threads` workers when windows run in
/// parallel or skew slicing is on, else one.
pub(crate) fn compute(
    query: &CompiledQuery,
    program: &Program,
    snap: &Snapshot,
    opts: &OfflineOptions,
    wids: &[usize],
) -> Result<Vec<Value>> {
    let by_window = query.aggregates_by_window();
    let recompute = opts.mode == WindowExecMode::RecomputePerRow;
    let mut shapes: HashMap<_, Vec<Partition>> = HashMap::new();
    let (mut sweeps, mut queue) = (Vec::new(), Vec::new());
    for &wid in wids {
        let (w, Some(wp)) = (&query.windows[wid], program.window(wid)) else {
            continue; // no aggregates
        };
        // The windows of one shape share one grouping.
        let shape = (&w.partition_cols, w.order_col, &w.union_tables);
        if let Entry::Vacant(e) = shapes.entry(shape) {
            e.insert(snap.partitions(query, w)?);
        }
        let units = units(w, &shapes[&shape], opts.skew.as_ref());
        queue.extend(units.into_iter().map(|(p, range)| (sweeps.len(), p, range)));
        sweeps.push((&by_window[wid], shape, wp.sweep(w, recompute)?));
    }
    // A value's slot: its base row's id (the index column) times the row
    // width, plus its aggregate's position in the plan.
    let (base, next) = (snap.table(&query.base_table)?, AtomicUsize::new(0));
    let stride = query.aggregates.len();
    let aggs = Mutex::new(vec![Value::Null; base.rows.len() * stride]);
    // Each worker pulls units off the queue, sweeps one into its own
    // buffers, then stores it into the shared one: one lock per unit.
    let worker = || -> Result<()> {
        let mut states: Vec<_> = sweeps.iter().map(|(_, _, s)| s.new_state()).collect();
        let (mut rows, mut values) = (Vec::new(), Vec::new());
        while let Some((i, p, range)) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
            let ((ids, s, sweep), st) = (&sweeps[*i], &mut states[*i]);
            let part = &shapes[s][*p];
            let anchors = part.anchors.get(range.clone()).unwrap_or_default();
            let emit = &mut |row, out: &mut Vec<Value>| {
                rows.push(row);
                values.append(out);
            };
            sweep.fold_partition(st, &part.entries, anchors, &snap.arena, &base.codec, emit)?;
            let (mut aggs, mut values) = (aggs.lock(), values.drain(..));
            for row in rows.drain(..) {
                let slots = ids.iter().map(|&a| row as usize * stride + a);
                for (slot, v) in slots.zip(values.by_ref().take(ids.len())) {
                    if let Some(d) = aggs.get_mut(slot) {
                        *d = v;
                    }
                }
            }
        }
        Ok(())
    };
    let parallel = opts.parallel_windows || opts.skew.is_some();
    match opts.threads.min(queue.len()) {
        workers if parallel && workers > 1 => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"));
            joined.collect::<Result<()>>()
        })?,
        _ => worker()?,
    }
    Ok(aggs.into_inner())
}

/// Compute every window's aggregates over decoded `base` rows (union tables
/// from `tables`): `results[window_id][base_row_index]`, values in
/// `aggregates_by_window()[window_id]` order.
pub fn compute_windows(
    query: &CompiledQuery,
    tables: &Tables,
    base: &[Row],
    opts: &OfflineOptions,
) -> Result<Vec<Vec<Vec<Value>>>> {
    let by_window = query.aggregates_by_window();
    let windows: Vec<_> = by_window.iter().map(Vec::as_slice).enumerate().collect();
    decoded(query, tables, base, opts, &windows)
}

/// Concat-join per-window results onto base rows by the index column.
/// Exposed for the multi-window benchmark; `execute` performs the same
/// stitch through one buffer.
pub fn concat_join(base: &[Row], window_results: &[Vec<Vec<Value>>]) -> Vec<Row> {
    let per_row = |(idx, row): (usize, &Row)| {
        let mut values = row.values().to_vec();
        for vals in window_results.iter().filter_map(|w| w.get(idx)) {
            values.extend(vals.iter().cloned());
        }
        Row::new(values)
    };
    base.iter().enumerate().map(per_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WindowExecMode;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_types::{DataType, Schema};
    use std::collections::HashMap;

    struct Cat(Schema);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            (name == "t").then(|| self.0.clone())
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("name", DataType::Bigint),
            ("age", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    /// The Section 6.1 example: w1 partitions by name, w2 by age — no
    /// dependency, different partition orders.
    fn two_window_query() -> CompiledQuery {
        compile_select(
            &parse_select(
                "SELECT name, sum(v) OVER w1 AS by_name, sum(v) OVER w2 AS by_age FROM t \
                 WINDOW w1 AS (PARTITION BY name ORDER BY ts ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW), \
                        w2 AS (PARTITION BY age ORDER BY ts ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &Cat(schema()),
        )
        .unwrap()
    }

    fn rows() -> Vec<Row> {
        (0..100)
            .map(|i| {
                Row::new(vec![
                    Value::Bigint(i % 7),
                    Value::Bigint(i % 3),
                    Value::Double(1.0),
                    Value::Timestamp(i * 10),
                ])
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let q = two_window_query();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rows());
        let base = tables["t"].clone();
        let serial = compute_windows(
            &q,
            &tables,
            &base,
            &OfflineOptions {
                parallel_windows: false,
                threads: 1,
                skew: None,
                mode: WindowExecMode::Incremental,
            },
        )
        .unwrap();
        let parallel = compute_windows(
            &q,
            &tables,
            &base,
            &OfflineOptions {
                parallel_windows: true,
                threads: 4,
                skew: None,
                mode: WindowExecMode::Incremental,
            },
        )
        .unwrap();
        assert_eq!(serial, parallel, "index alignment keeps results identical");
    }

    #[test]
    fn concat_join_aligns_by_index() {
        let base = vec![
            Row::new(vec![Value::Bigint(10)]),
            Row::new(vec![Value::Bigint(20)]),
        ];
        let w1 = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let w2 = vec![vec![Value::Int(7)], vec![Value::Int(8)]];
        let joined = concat_join(&base, &[w1, w2]);
        assert_eq!(
            joined[0].values(),
            &[Value::Bigint(10), Value::Int(1), Value::Int(7)]
        );
        assert_eq!(
            joined[1].values(),
            &[Value::Bigint(20), Value::Int(2), Value::Int(8)]
        );
    }
}
