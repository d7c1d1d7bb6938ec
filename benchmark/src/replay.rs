//! The traced request replay: each request is served by the real call under
//! one root span, then re-enacted layer by layer — the public call each layer
//! would make for this request, with the same inputs — under a second root
//! span that shares the request's id.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use openmldb_core::Database;
use openmldb_exec::{
    evaluate, EntryOrder, Program, ScanEntry, WindowAggSet, WindowState, REQUEST_ROW,
};
use openmldb_online::{Deployment, TableProvider};
use openmldb_sql::ast::Frame;
use openmldb_sql::plan::BoundAggregate;
use openmldb_storage::DataTable;
use openmldb_types::{CompactCodec, KeyValue, Row, Value};

use crate::bench::{err, rows_agree, Tally};
use crate::gen::DEPLOYMENT;
use crate::trace::{self, Span, Tracer};

/// Re-enacts requests of one deployment with the engine's own public calls,
/// reusing its buffers between requests as the engine's scratch pool does.
pub struct Replay<'a> {
    db: &'a Database,
    dep: Arc<Deployment>,
    codec: CompactCodec,
    /// Aggregate ids per window.
    pub by_window: Vec<Vec<usize>>,
    base: Arc<dyn DataTable>,
    /// Index on the base table serving each window.
    window_index: Vec<usize>,
    /// Per join: table and the index its key columns resolve to.
    joins: Vec<(Arc<dyn DataTable>, usize)>,
    arena: Vec<u8>,
    entries: Vec<ScanEntry>,
    key: Vec<KeyValue>,
    combined: Vec<Value>,
    agg_values: Vec<Value>,
    vm_stack: Vec<Value>,
    sets: Vec<Option<WindowAggSet>>,
    states: Vec<Option<WindowState>>,
}

impl<'a> Replay<'a> {
    pub fn new(db: &'a Database) -> Result<Replay<'a>, String> {
        let dep = db.deployment(DEPLOYMENT).ok_or("deployment missing")?;
        let q = dep.query.clone();
        let base = db.table(&q.base_table).ok_or("base table missing")?;
        let mut window_index = Vec::new();
        for w in &q.windows {
            if !w.union_tables.is_empty() || w.instance_not_in_window {
                return Err("replay does not cover window unions".into());
            }
            window_index.push(
                base.find_index(&w.partition_cols, Some(w.order_col))
                    .ok_or("no window index")?,
            );
        }
        let mut joins = Vec::new();
        for j in &q.joins {
            if j.residual.is_some() {
                return Err("replay does not cover residual join predicates".into());
            }
            let table = db.table(&j.table).ok_or("join table missing")?;
            let right: Vec<usize> = j.eq_pairs.iter().map(|&(_, r)| r).collect();
            let index = table
                .find_index(&right, j.order_col)
                .ok_or("no join index")?;
            joins.push((table, index));
        }
        Ok(Replay {
            db,
            codec: CompactCodec::new(q.base_schema.clone()),
            by_window: q.aggregates_by_window(),
            base,
            window_index,
            joins,
            arena: Vec::new(),
            entries: Vec::new(),
            key: Vec::new(),
            combined: Vec::new(),
            agg_values: Vec::new(),
            vm_stack: Vec::new(),
            sets: (0..q.windows.len()).map(|_| None).collect(),
            states: (0..q.windows.len()).map(|_| None).collect(),
            dep,
        })
    }

    /// The engine's scan: seek the key, copy the window's encoded rows into
    /// the arena, newest first. Returns rows copied.
    pub fn scan(&mut self, wid: usize, request: &Row) -> Result<usize, String> {
        let window = &self.dep.query.windows[wid];
        let anchor = request.ts_at(window.order_col);
        let (lower, limit) = match window.frame {
            Frame::RowsRange { preceding_ms } => (anchor - preceding_ms, None),
            // The request row takes one slot of a ROWS frame when included.
            Frame::Rows { preceding } => (
                i64::MIN,
                Some(preceding as usize + usize::from(window.exclude_current_row)),
            ),
            _ => (i64::MIN, None),
        };
        self.key.clear();
        for &c in &window.partition_cols {
            self.key.push(KeyValue::from(&request.values()[c]));
        }
        self.arena.clear();
        self.entries.clear();
        let (arena, entries) = (&mut self.arena, &mut self.entries);
        self.base
            .scan_window(
                self.window_index[wid],
                &self.key,
                lower,
                anchor,
                limit,
                &mut |ts, data| {
                    let start = arena.len();
                    arena.extend_from_slice(data);
                    entries.push(ScanEntry {
                        ts,
                        seq: entries.len(),
                        start,
                        len: data.len(),
                    });
                    true
                },
            )
            .map_err(err("scan_window"))?;
        Ok(self.entries.len())
    }

    /// The compiled fold of `program`'s window `wid` over the scanned
    /// entries, driven as the engine drives it. Returns rows fed.
    pub fn fold_compiled(
        &mut self,
        program: &Program,
        wid: usize,
        request: &Row,
        out: &mut Vec<Value>,
    ) -> Result<usize, String> {
        let wp = program.window(wid).ok_or("window is not compiled")?;
        let n = self.entries.len();
        let total = n + usize::from(wp.include_request);
        let first = wp.first_in_frame(total);
        // Storage yields newest first: a strictly descending scan is folded
        // in reverse without a sort.
        let order = if self.entries.windows(2).all(|w| w[0].ts > w[1].ts) {
            EntryOrder::ReversedScan
        } else {
            self.entries.sort_unstable_by_key(|e| (e.ts, e.seq));
            EntryOrder::Ascending
        };
        let state = self.states[wid].get_or_insert_with(|| wp.new_state());
        let req = (wp.include_request && first < total).then(|| request.values());
        wp.run(
            state,
            &self.entries,
            first.min(n),
            order,
            &self.arena,
            req,
            &self.codec,
            &mut || Ok(()),
        )
        .map_err(err("compiled fold"))?;
        wp.outputs_into(state, &self.arena, req, out)
            .map_err(err("compiled outputs"))?;
        Ok(total - first)
    }

    /// The interpreted fold of the deployment's window `wid` (`WindowAggSet`
    /// over borrowed row views). Returns rows fed.
    pub fn fold_interp(
        &mut self,
        aggs: &[&BoundAggregate],
        wid: usize,
        request: &Row,
        out: &mut Vec<Value>,
    ) -> Result<usize, String> {
        let window = &self.dep.query.windows[wid];
        if !window.exclude_current_row {
            self.entries.push(ScanEntry {
                ts: request.ts_at(window.order_col),
                seq: self.entries.len(),
                start: 0,
                len: REQUEST_ROW,
            });
        }
        self.entries.sort_unstable_by_key(|e| (e.ts, e.seq));
        let mut first = 0usize;
        if let Frame::Rows { preceding } = window.frame {
            first = self.entries.len().saturating_sub(preceding as usize + 1);
        }
        if let Some(maxsize) = window.maxsize {
            first = first.max(self.entries.len().saturating_sub(maxsize));
        }
        if self.sets[wid].is_none() {
            self.sets[wid] = Some(WindowAggSet::new(aggs).map_err(err("agg set"))?);
        }
        let set = self.sets[wid].as_mut().expect("built above");
        set.reset();
        for e in &self.entries[first..] {
            if e.is_request_row() {
                set.update(request.values()).map_err(err("fold"))?;
            } else {
                let view = self.codec.view(e.bytes(&self.arena)).map_err(err("view"))?;
                set.update_view(&view).map_err(err("fold"))?;
            }
        }
        set.outputs_into(out);
        Ok(self.entries.len() - first)
    }

    /// The real call, under a root span of its own. Returns the request id,
    /// the call's duration and its answer.
    fn serve(&self, tr: &mut Tracer, request: &Row) -> (u32, u64, Option<Row>) {
        let db = self.db;
        let root = tr.root("request");
        let call = tr.child("online.request", root);
        let served = db.request_readonly(DEPLOYMENT, black_box(request)).ok();
        tr.close(call, 1);
        tr.close(root, 1);
        (tr.req_of(root), tr.duration_ns(call), served)
    }

    /// One probe per layer for a request already served as `req`. Returns
    /// the probes' total time and the answer they arrive at.
    fn probe(&mut self, tr: &mut Tracer, req: u32, request: &Row) -> Result<(u64, Row), String> {
        let db = self.db;
        let dep = self.dep.clone();
        let q = &dep.query;
        let root = tr.root_of("request.probes", req);

        tr.span("core.lookup", root, || {
            (black_box(db.deployment(DEPLOYMENT)), 1)
        });

        // 1. LAST JOINs: head reads on the join key's time list.
        self.combined.clear();
        self.combined.extend_from_slice(request.values());
        for (join, (table, index)) in q.joins.iter().zip(&self.joins) {
            let (key, combined) = (&mut self.key, &self.combined);
            let matched = tr.span("storage.latest", root, || {
                key.clear();
                key.extend(
                    join.eq_pairs
                        .iter()
                        .map(|&(l, _)| KeyValue::from(&combined[l])),
                );
                (table.latest(*index, key), 1)
            });
            match matched.map_err(err("latest"))? {
                Some(row) => self.combined.extend(row.values().iter().cloned()),
                None => self
                    .combined
                    .extend((0..join.schema.len()).map(|_| Value::Null)),
            }
        }

        // 2. Windows: pre-agg lookup, or scan + fold.
        self.agg_values.clear();
        self.agg_values.resize(q.aggregates.len(), Value::Null);
        let mut outs = Vec::new();
        for (wid, window) in q.windows.iter().enumerate() {
            if self.by_window[wid].is_empty() {
                continue;
            }
            outs.clear();
            if let (Some(preagg), Frame::RowsRange { preceding_ms }) =
                (&dep.preaggs[wid], window.frame)
            {
                let (base, index, key) = (&self.base, self.window_index[wid], &mut self.key);
                outs = tr
                    .span("online.preagg_query", root, || {
                        let anchor = request.ts_at(window.order_col);
                        key.clear();
                        key.extend(
                            window
                                .partition_cols
                                .iter()
                                .map(|&c| KeyValue::from(&request.values()[c])),
                        );
                        // The request row is not stored: it is folded in
                        // after the bucket merge unless the window excludes it.
                        let extra = (!window.exclude_current_row).then_some(request);
                        let answer = preagg.query_with_extra_row(
                            key,
                            anchor - preceding_ms,
                            anchor,
                            extra,
                            // Raw rows for the edges no bucket covers.
                            |lo, hi| {
                                let rows = base.range_projected(index, key, lo, hi, None)?;
                                Ok(rows.into_iter().map(|(_, row)| row).collect())
                            },
                        );
                        (answer, 1)
                    })
                    .map_err(err("preagg query"))?;
            } else {
                let scan = tr.child("storage.scan", root);
                let rows = self.scan(wid, request)?;
                tr.close(scan, rows);
                if dep.program().window(wid).is_some() {
                    let fold = tr.child("exec.fold_compiled", root);
                    let fed = self.fold_compiled(dep.program(), wid, request, &mut outs)?;
                    tr.close(fold, fed);
                } else {
                    let aggs: Vec<&BoundAggregate> = self.by_window[wid]
                        .iter()
                        .map(|&i| &q.aggregates[i])
                        .collect();
                    let fold = tr.child("exec.fold_interp", root);
                    let fed = self.fold_interp(&aggs, wid, request, &mut outs)?;
                    tr.close(fold, fed);
                }
            }
            for (slot, v) in self.by_window[wid].iter().zip(outs.drain(..)) {
                self.agg_values[*slot] = v;
            }
        }

        // 3. Project the select list into the output row.
        let output = tr.child("exec.output", root);
        let projected = project(&dep, &self.combined, &self.agg_values, &mut self.vm_stack)?;
        tr.close(output, q.select.len());
        tr.close(root, 1);
        Ok((tr.children_ns(root), projected))
    }
}

/// Evaluate the select list the way the engine does: compiled expression
/// programs when the plan has them, the tree walk otherwise.
pub fn project(
    dep: &Deployment,
    combined: &[Value],
    agg_values: &[Value],
    vm_stack: &mut Vec<Value>,
) -> Result<Row, String> {
    let q = &dep.query;
    let mut projected = Vec::with_capacity(q.select.len());
    match dep.program().select_programs() {
        Some(programs) => {
            for p in programs {
                projected.push(
                    p.eval(combined, agg_values, vm_stack)
                        .map_err(err("eval"))?,
                );
            }
        }
        None => {
            for col in &q.select {
                projected.push(evaluate(&col.expr, combined, agg_values).map_err(err("eval"))?);
            }
        }
    }
    Ok(Row::new(projected))
}

/// Requests served before their probes run.
const REPLAY_BLOCK: usize = 256;

/// What the traced request replay of all clients produced.
pub struct RequestPhase {
    pub spans: Vec<Span>,
    /// Duration of each real call, in arrival order per client.
    pub whole_ns: Vec<u32>,
    /// Real call minus the sum of its probes, per request.
    pub unattributed_ns: Vec<f64>,
    pub tally: Tally,
}

/// One client's share of the replay: requests `c`, `c + clients`, ...
fn replay_client(
    db: &Database,
    ring: &[Row],
    (c, clients): (usize, usize),
    ops: usize,
    epoch: Instant,
) -> Result<RequestPhase, String> {
    let mut replay = Replay::new(db)?;
    let mut tr = Tracer::new(epoch, (c * ops) as u32, ops * 12);
    let mut phase = RequestPhase {
        spans: Vec::new(),
        whole_ns: Vec::with_capacity(ops),
        unattributed_ns: Vec::with_capacity(ops),
        tally: Tally::default(),
    };
    let mine: Vec<&Row> = (0..ops)
        .map(|i| &ring[(c + i * clients) % ring.len()])
        .collect();
    // Serve a block, then probe the same block: the real calls run back to
    // back as in the untraced phase, instead of each one finding the caches
    // as the previous request's probes left them.
    let mut served = Vec::with_capacity(REPLAY_BLOCK);
    for block in mine.chunks(REPLAY_BLOCK) {
        served.extend(block.iter().map(|request| replay.serve(&mut tr, request)));
        for (request, (req, whole_ns, answer)) in block.iter().zip(served.drain(..)) {
            let (probes_ns, projected) = replay.probe(&mut tr, req, request)?;
            phase
                .whole_ns
                .push(whole_ns.min(u64::from(u32::MAX)) as u32);
            phase
                .unattributed_ns
                .push(whole_ns as f64 - probes_ns as f64);
            // The probes did the request's real work iff they reach its answer.
            phase
                .tally
                .record(answer.is_some_and(|row| rows_agree(&row, &projected)));
        }
    }
    phase.spans = tr.into_spans();
    Ok(phase)
}

/// Replay `ops_per_client` requests from each of `clients` threads.
pub fn replay_requests(
    db: &Database,
    ring: &[Row],
    clients: usize,
    ops_per_client: usize,
    epoch: Instant,
) -> Result<RequestPhase, String> {
    let one = |c: usize| replay_client(db, ring, (c, clients), ops_per_client, epoch);
    let parts: Vec<Result<RequestPhase, String>> = if clients == 1 {
        vec![one(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || one(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        })
    };
    let mut all = RequestPhase {
        spans: Vec::new(),
        whole_ns: Vec::new(),
        unattributed_ns: Vec::new(),
        tally: Tally::default(),
    };
    let mut span_parts = Vec::new();
    for part in parts {
        let part = part?;
        span_parts.push(part.spans);
        all.whole_ns.extend(part.whole_ns);
        all.unattributed_ns.extend(part.unattributed_ns);
        all.tally.add(part.tally);
    }
    all.spans = trace::merge(span_parts);
    Ok(all)
}
