//! The batch engine's input: every row a query reads, as compact-encoded
//! bytes in one arena, grouped per key in the order a request scans them.
//!
//! [`Snapshot::capture`] copies each live table out once through
//! [`DataTable::scan_rows`] over its first index. Those rows are the
//! snapshot — what another index's TTL has dropped included — and that
//! scan numbers them (so it fixes the base table's output order) and is
//! itself the grouping a read of the first index gets. Each other read of
//! the query — a window's base and union tables by partition key and order
//! column, a LAST JOIN's right table by its keys — groups every row per
//! key, newest first. Ties keep the order of the index a request scans for
//! the read: it is visited once more and its rows matched back by bytes; a
//! row it misses (expired there) follows its ties, so every base row is
//! still an anchor. A read no index serves, and every read of
//! [`Snapshot::from_rows`] (the decoded-rows adapter), keeps ties in row
//! order. Nothing is decoded here but the key and ts columns of a grouping.
//!
//! Capture is the one check of a row's bytes ([`CompactCodec::check`]: the
//! header, the length, every string's offsets). Every later read — a
//! grouping's key and ts, the output loop's columns, a join candidate's —
//! goes through a [`Field`] resolved once, bounds-checked, with no second
//! view of the row. The snapshot also holds the one [`Program`] of its
//! query, specialized before any table is read.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::iter::once;
use std::sync::Arc;

use openmldb_exec::{specialize, Program, ScanEntry};
use openmldb_sql::plan::{BoundJoin, BoundWindow, CompiledQuery};
use openmldb_storage::DataTable;
use openmldb_types::{CompactCodec, Error, Field, KeyValue, Result, Row};

use crate::engine::Tables;

/// A read: `(table, key columns, ts column)`.
type Read = (String, Vec<usize>, Option<usize>);
/// A read's rows: per key, newest first, `(row id, ts)`.
pub(crate) type Runs = HashMap<Vec<KeyValue>, Vec<(u32, i64)>>;
/// One key's rows as a scan visits them together.
type Run = (Vec<KeyValue>, Vec<(u32, i64)>);
/// The live tables a snapshot was captured from (none for decoded rows).
type Live = HashMap<String, Arc<dyn DataTable>>;

/// An encoded snapshot of the tables one query reads, and the program
/// that query runs.
pub struct Snapshot {
    pub(crate) program: Arc<Program>,
    pub(crate) arena: Vec<u8>,
    tables: HashMap<String, Table>,
    visits: HashMap<Read, Runs>,
}

pub(crate) struct Table {
    pub(crate) codec: CompactCodec,
    /// `(start, len)` of each row in the arena; a row's id is its position.
    pub(crate) rows: Vec<(usize, usize)>,
}

/// One partition of a window shape: its base rows and the union rows with
/// the same key, in the order a request folds them — ascending `(ts, seq)`
/// with `seq = source << 32 | scan position` (the base table is source 0).
pub(crate) struct Partition {
    pub(crate) entries: Vec<ScanEntry>,
    /// The base rows: `(position in entries, row id)`, in fold order.
    pub(crate) anchors: Vec<(usize, u32)>,
}

/// Every read of `query`, and whether it is a window's (whose index must
/// order by its order column).
fn reads(query: &CompiledQuery) -> impl Iterator<Item = (Read, bool)> + '_ {
    let windows = query.windows.iter().flat_map(|w| {
        let read = |t: &String| (t.clone(), w.partition_cols.clone(), Some(w.order_col));
        once(&query.base_table)
            .chain(&w.union_tables)
            .map(move |t| (read(t), true))
    });
    let joins = query
        .joins
        .iter()
        .map(|j| ((j.table.clone(), right_keys(j), j.order_col), false));
    windows.chain(joins)
}

/// The tables `query` reads, base table first, each once.
fn names(query: &CompiledQuery) -> Vec<String> {
    let mut names = vec![query.base_table.clone()];
    for ((name, ..), _) in reads(query) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Append one key's run of rows to its rows in `runs` (a key the scan
/// visits twice keeps both runs, in visit order).
fn merge_run(runs: &mut Runs, key: Vec<KeyValue>, ids: Vec<(u32, i64)>) {
    match runs.entry(key) {
        Entry::Occupied(mut rows) => rows.get_mut().extend(ids),
        Entry::Vacant(slot) => drop(slot.insert(ids)),
    }
}

fn right_keys(join: &BoundJoin) -> Vec<usize> {
    join.eq_pairs.iter().map(|&(_, r)| r).collect()
}

impl Table {
    /// `(c, reader of column c - at)` of each of `cols` that is a column of
    /// this table when its columns start at `at`.
    pub(crate) fn fields(&self, cols: &[usize], at: usize) -> Vec<(usize, Field)> {
        let field = |&c: &usize| Some((c, self.codec.field(c.checked_sub(at)?)?));
        cols.iter().filter_map(field).collect()
    }
}

impl Snapshot {
    /// An empty snapshot for `query` with its program — or DEPLOY's
    /// refusal.
    fn new(query: &CompiledQuery) -> Result<Snapshot> {
        let program = specialize(query);
        program.accept("offline query")?;
        let (arena, tables, visits) = Default::default();
        Ok(Snapshot {
            program,
            arena,
            tables,
            visits,
        })
    }

    /// Read every table `query` reads through `table`. A plan DEPLOY would
    /// refuse is refused here, before any table is read; a row whose bytes
    /// do not decode is a typed [`Error::Codec`].
    pub fn capture(
        query: &CompiledQuery,
        table: impl Fn(&str) -> Result<Arc<dyn DataTable>>,
    ) -> Result<Snapshot> {
        let (mut snap, mut live) = (Snapshot::new(query)?, Live::new());
        for name in names(query) {
            let t = table(&name)?;
            let codec = CompactCodec::new(t.schema().clone());
            let (mut rows, mut runs, arena) = (Vec::new(), Runs::new(), &mut snap.arena);
            // The scan yields each key's rows together: they gather in one
            // run, looked up in `runs` once, when the key changes.
            let mut run: Option<Run> = None;
            t.scan_rows(0, &mut |key, ts, data| {
                codec.check(data)?;
                let id = (rows.len() as u32, ts);
                if let Some((_, ids)) = run.as_mut().filter(|(k, _)| k.as_slice() == key) {
                    ids.push(id);
                } else if let Some((k, ids)) = run.replace((key.to_vec(), vec![id])) {
                    merge_run(&mut runs, k, ids);
                }
                rows.push((arena.len(), data.len()));
                arena.extend_from_slice(data);
                Ok(())
            })?;
            if let Some((k, ids)) = run {
                merge_run(&mut runs, k, ids);
            }
            // This scan is the visit a read of the first index gets.
            if let Some(first) = t.index_specs().into_iter().next() {
                snap.visits
                    .insert((name.clone(), first.key_cols, first.ts_col), runs);
            }
            snap.tables.insert(name.clone(), Table { codec, rows });
            live.insert(name, t);
        }
        snap.group(query, &live)
    }

    /// The decoded-rows adapter: `base` is the base table, every other
    /// table comes from `tables`; rows are encoded once, base and union
    /// tables with the base codec, joined tables with their own. An
    /// undeployable plan is refused before any row is encoded.
    pub(crate) fn from_rows(
        query: &CompiledQuery,
        base: &[Row],
        tables: &Tables,
    ) -> Result<Snapshot> {
        let mut snap = Snapshot::new(query)?;
        for name in names(query) {
            let join = query.joins.iter().find(|j| j.table == name);
            let join = join.filter(|_| name != query.base_table);
            let codec = CompactCodec::new(join.map_or(&query.base_schema, |j| &j.schema).clone());
            let input = match name == query.base_table {
                true => base,
                false => tables.get(&name).ok_or_else(|| missing(&name))?,
            };
            let (mut rows, mut buf) = (Vec::with_capacity(input.len()), Vec::new());
            for row in input {
                codec.encode_into(row.values(), &mut buf)?;
                rows.push((snap.arena.len(), buf.len()));
                snap.arena.extend_from_slice(&buf);
            }
            snap.tables.insert(name, Table { codec, rows });
        }
        snap.group(query, &Live::new())
    }

    /// Group the rows of every read of `query` not grouped yet, ties in the
    /// order of the `live` index a request scans for it, if one serves it.
    fn group(mut self, query: &CompiledQuery, live: &Live) -> Result<Snapshot> {
        for (read, window) in reads(query) {
            if self.visits.contains_key(&read) {
                continue;
            }
            let index = live.get(&read.0).and_then(|t| {
                let i = t.find_index(&read.1, read.2)?;
                Some((t, i, t.index_specs().get(i)?.ts_col))
            });
            let (ts, rank) = match index.filter(|&(.., ts)| !window || ts == read.2) {
                Some((t, i, ts)) => (ts, self.ranks(&read.0, &**t, i)?),
                None => (read.2, Vec::new()),
            };
            let runs = self.grouped(&read.0, &read.1, ts, &rank)?;
            self.visits.insert(read, runs);
        }
        Ok(self)
    }

    /// Each row's position in a visit of index `index` of `t`, matched back
    /// by bytes (a row stored twice matches in visit order); a row the visit
    /// misses — expired from that index, or gone since the first scan —
    /// ranks last.
    fn ranks(&self, name: &str, t: &dyn DataTable, index: usize) -> Result<Vec<u32>> {
        let rows = &self.table(name)?.rows;
        let mut ids: HashMap<&[u8], Vec<u32>> = HashMap::new();
        for (id, &row) in rows.iter().enumerate().rev() {
            ids.entry(self.bytes(row)).or_default().push(id as u32);
        }
        let (mut rank, mut at) = (vec![u32::MAX; rows.len()], 0);
        t.scan_rows(index, &mut |_, _, data| {
            let id = ids.get_mut(data).and_then(Vec::pop);
            if let Some(slot) = id.and_then(|id| rank.get_mut(id as usize)) {
                *slot = at;
                at += 1;
            }
            Ok(())
        })?;
        Ok(rank)
    }

    /// The rows of table `name` per value of its `keys` columns, each key
    /// newest first by column `ts` (read as `Row::ts_at` reads it), ties by
    /// `rank`, or in row order where `rank` is empty.
    fn grouped(&self, name: &str, keys: &[usize], ts: Option<usize>, rank: &[u32]) -> Result<Runs> {
        let (table, mut runs) = (self.table(name)?, Runs::new());
        let (keys, ts) = (table.fields(keys, 0), table.fields(ts.as_slice(), 0));
        for id in 0..table.rows.len() as u32 {
            let read =
                |(_, f): &(_, Field)| Ok(f.read(&table.codec, self.row(table, id))?.to_value());
            let key = keys.iter().map(|f| Ok((&read(f)?).into()));
            let t = ts.iter().map(read).next().transpose()?;
            let t = t.map_or(0, |v| v.as_i64().unwrap_or(i64::MIN));
            runs.entry(key.collect::<Result<_>>()?)
                .or_default()
                .push((id, t));
        }
        let tie = |id: u32| rank.get(id as usize).copied().unwrap_or(id);
        for run in runs.values_mut() {
            run.sort_unstable_by_key(|&(id, t)| (Reverse(t), tie(id), id));
        }
        Ok(runs)
    }

    pub(crate) fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| missing(name))
    }

    fn bytes(&self, (start, len): (usize, usize)) -> &[u8] {
        self.arena.get(start..start + len).unwrap_or_default()
    }

    /// The bytes of row `id` of `table`.
    pub(crate) fn row(&self, table: &Table, id: u32) -> &[u8] {
        self.bytes(table.rows.get(id as usize).copied().unwrap_or_default())
    }

    fn visit(&self, name: &str, keys: &[usize], ts: Option<usize>) -> Result<&Runs> {
        let runs = self.visits.get(&(name.to_string(), keys.to_vec(), ts));
        runs.ok_or_else(|| Error::Storage(format!("`{name}` was not read for {keys:?}")))
    }

    /// The partitions of `w`'s shape — one grouping per (partition columns,
    /// order column, union tables), shared by every window of it.
    pub(crate) fn partitions(
        &self,
        query: &CompiledQuery,
        w: &BoundWindow,
    ) -> Result<Vec<Partition>> {
        let visit = |name| self.visit(name, &w.partition_cols, Some(w.order_col));
        let mut unions = Vec::new();
        for name in &w.union_tables {
            unions.push((self.table(name)?, visit(name)?));
        }
        let base = self.table(&query.base_table)?;
        let mut parts = Vec::new();
        for (key, rows) in visit(&query.base_table)? {
            let others = unions.iter().filter_map(|(t, m)| Some((*t, m.get(key)?)));
            let mut entries = Vec::with_capacity(rows.len());
            for (src, (table, run)) in once((base, rows)).chain(others).enumerate() {
                // Oldest first: the order the sort below puts them in.
                for (pos, &(id, ts)) in run.iter().enumerate().rev() {
                    let (start, len) = table.rows.get(id as usize).copied().unwrap_or_default();
                    let seq = (src << 32) | pos;
                    entries.push(ScanEntry {
                        ts,
                        seq,
                        start,
                        len,
                    });
                }
            }
            entries.sort_unstable_by_key(|e| (e.ts, e.seq));
            // A base row's `seq` is its position in the base run.
            let base_rows = entries.iter().enumerate().filter(|(_, e)| e.seq >> 32 == 0);
            let anchors = base_rows.filter_map(|(at, e)| Some((at, rows.get(e.seq)?.0)));
            let anchors = anchors.collect();
            parts.push(Partition { entries, anchors });
        }
        Ok(parts)
    }

    /// A LAST JOIN's right table and its candidates per key, newest first.
    pub(crate) fn lookup(&self, join: &BoundJoin) -> Result<(&Table, &Runs)> {
        let runs = self.visit(&join.table, &right_keys(join), join.order_col)?;
        Ok((self.table(&join.table)?, runs))
    }
}

pub(crate) fn missing(name: &str) -> Error {
    Error::Storage(format!("missing table `{name}`"))
}
