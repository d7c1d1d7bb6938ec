//! Multi-window parallel optimization (paper Section 6.1).
//!
//! A query with several independent windows is traditionally computed
//! serially, one window after another. Here the windows of one shape — the
//! same partition columns, order column and union tables — share one
//! grouping of the snapshot, and every window's work units (whole
//! partitions, or the time slices of hot ones, [`crate::skew`]) go to one
//! queue that the workers pull from. A unit is swept by its window's
//! [`Sweep`](openmldb_exec::Sweep), which writes each anchor's values
//! straight into that window's own column: a row per base row, in the order
//! the shape's partitions list their anchors, so every unit owns one
//! contiguous run of rows and no two workers write one place. The synthetic
//! **index column** is each base row's place in that order, and the
//! **Concat Join** reads every window's row of a base row by it, whatever
//! order the partitions were swept in (`SimpleProject` marks the segment
//! start, `ConcatJoin` the end, in the paper's plan vocabulary).

use std::collections::hash_map::{Entry, HashMap};

use parking_lot::Mutex;

use openmldb_exec::Program;
use openmldb_sql::plan::CompiledQuery;
use openmldb_types::{Error, Result, Row, Value};

use crate::engine::{decoded, OfflineOptions, Tables, WindowExecMode};
use crate::skew::units;
use crate::snapshot::Snapshot;

/// The windows' values for every base row, one column per window in one
/// buffer.
pub(crate) struct Swept {
    /// Base rows: the rows of each column.
    n: usize,
    /// Per window swept, in column order: its aggregates (plan ids) and its
    /// shape. A base row's values are at its place times their count.
    windows: Vec<(Vec<usize>, usize)>,
    values: Vec<Value>,
    /// Per shape, each base row's place (`u32::MAX`: none).
    places: Vec<Vec<u32>>,
}

impl Swept {
    /// Move base row `id`'s values into `aggs`, at their plan positions.
    pub(crate) fn take(&mut self, id: usize, aggs: &mut [Value]) {
        let mut start = 0;
        for (ids, shape) in &self.windows {
            let place = self.places.get(*shape).and_then(|p| p.get(id));
            let at = place.map_or(usize::MAX, |&o| start + o as usize * ids.len());
            let mut row = self.values.get_mut(at..).unwrap_or_default().iter_mut();
            for &a in ids {
                let v = row
                    .next()
                    .map_or(Value::Null, |v| std::mem::replace(v, Value::Null));
                if let Some(slot) = aggs.get_mut(a) {
                    *slot = v;
                }
            }
            start += self.n * ids.len();
        }
    }
}

/// Sweep the windows `wids`, each into a column of its own. The queue has
/// `opts.threads` workers when windows run in parallel or skew slicing is
/// on, else one.
pub(crate) fn compute(
    query: &CompiledQuery,
    program: &Program,
    snap: &Snapshot,
    opts: &OfflineOptions,
    wids: &[usize],
) -> Result<Swept> {
    let mut by_window = query.aggregates_by_window();
    let recompute = opts.mode == WindowExecMode::RecomputePerRow;
    let base = snap.table(&query.base_table)?;
    let (n, mut shapes, mut groups, mut sweeps) = (base.rows.len(), HashMap::new(), vec![], vec![]);
    let (mut windows, mut places, mut refolds) = (Vec::new(), Vec::new(), Vec::new());
    for &wid in wids {
        let (w, Some(wp), Some(sweep)) =
            (&query.windows[wid], program.window(wid), program.sweep(wid))
        else {
            continue; // no aggregates
        };
        // The plan's sweep was lowered with it; the naive oracle's is
        // lowered here.
        if recompute {
            refolds.push(wp.sweep(w, true)?);
        }
        // The windows of one shape share one grouping.
        let shape = match shapes.entry((&w.partition_cols, w.order_col, &w.union_tables)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let parts = snap.partitions(query, w)?;
                let mut place = vec![u32::MAX; n];
                for (o, &(_, id)) in parts.iter().flat_map(|p| &p.anchors).enumerate() {
                    if let Some(slot) = place.get_mut(id as usize) {
                        *slot = o as u32;
                    }
                }
                groups.push(parts);
                places.push(place);
                *e.insert(groups.len() - 1)
            }
        };
        sweeps.push((w, sweep));
        windows.push((std::mem::take(&mut by_window[wid]), shape));
    }
    if recompute {
        sweeps.iter_mut().zip(&refolds).for_each(|(s, r)| s.1 = r);
    }
    let mut values = vec![Value::Null; n * windows.iter().map(|w| w.0.len()).sum::<usize>()];
    // Each unit owns its anchors' rows of its window's column, split off in
    // the order the units list them: `(window, partition, anchors, rows)`.
    let (mut queue, mut rest) = (Vec::new(), values.as_mut_slice());
    let short = || Error::Eval("more anchors than base rows".into());
    for (i, (ids, shape)) in windows.iter().enumerate() {
        let (mut column, tail) = std::mem::take(&mut rest).split_at_mut(n * ids.len());
        for (p, range) in units(sweeps[i].0, &groups[*shape], opts.skew.as_ref()) {
            let split = std::mem::take(&mut column).split_at_mut_checked(range.len() * ids.len());
            let (rows, more) = split.ok_or_else(short)?;
            queue.push((i, p, range, rows));
            column = more;
        }
        rest = tail;
    }
    let parallel = opts.parallel_windows || opts.skew.is_some();
    let workers = opts.threads.min(queue.len());
    let queue = Mutex::new(queue.into_iter());
    // Each worker takes units off the queue — holding the lock only to take
    // one — and sweeps each into its rows, by the anchors' places.
    let worker = || -> Result<()> {
        let mut states: Vec<_> = sweeps.iter().map(|(_, s)| s.new_state()).collect();
        loop {
            let Some((i, p, range, rows)) = queue.lock().next() else {
                return Ok(());
            };
            let ((ids, shape), (_, sweep), st) = (&windows[i], &sweeps[i], &mut states[i]);
            let (part, place) = (&groups[*shape][p], &places[*shape]);
            let anchors = part.anchors.get(range).unwrap_or_default();
            let place = |row: u32| place.get(row as usize).map_or(usize::MAX, |&o| o as usize);
            let first = anchors.first().map_or(0, |a| place(a.1));
            let emit = &mut |row: u32, out: &mut Vec<Value>| {
                let at = place(row).wrapping_sub(first).saturating_mul(ids.len());
                let slots = rows.get_mut(at..).unwrap_or_default().iter_mut();
                slots.zip(out.drain(..)).for_each(|(d, v)| *d = v);
            };
            sweep.fold_partition(st, &part.entries, anchors, &snap.arena, &base.codec, emit)?;
        }
    };
    match workers {
        workers if parallel && workers > 1 => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"));
            joined.collect::<Result<()>>()
        })?,
        _ => worker()?,
    }
    drop(queue);
    Ok(Swept {
        n,
        windows,
        values,
        places,
    })
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
/// stitch through each window's column.
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
