//! The read plan of a deployment: everything a request reads, bound once at
//! DEPLOY.
//!
//! For every LAST JOIN and every (window, source table) the plan holds the
//! live table handle and the index id on it, so a request resolves no name
//! and searches no index list; and it records which windows can be folded
//! off one scan (paper Section 4.2's window merging, applied at the storage
//! layer). A plan the catalog cannot serve — a missing table or index — is
//! refused here with a typed [`Error::Deployment`], never at serve time. A
//! plan reads the tables it was bound to: when one is replaced, the database
//! binds a new plan (`Deployment::rebind`).

use std::sync::Arc;

use openmldb_sql::plan::{BoundWindow, CompiledQuery};
use openmldb_storage::DataTable;
use openmldb_types::{Error, Result};

use crate::engine::TableProvider;
use crate::preagg::PreAggregator;

/// One table read, resolved: the live handle and the index id on it, with
/// the catalog name and index columns a replica is re-resolved by on
/// failover. The materializing oracle resolves one per read on purpose.
#[derive(Clone)]
pub(crate) struct BoundRead {
    pub(crate) name: String,
    pub(crate) table: Arc<dyn DataTable>,
    pub(crate) index: usize,
    key_cols: Vec<usize>,
    ts_col: Option<usize>,
}

impl BoundRead {
    /// Resolve `name` and its index on (`key_cols`, `ts_col`) through the
    /// provider.
    pub(crate) fn resolve(
        provider: &dyn TableProvider,
        name: &str,
        key_cols: &[usize],
        ts_col: Option<usize>,
    ) -> Result<Self> {
        let table = provider
            .table(name)
            .ok_or_else(|| Error::Deployment(format!("unknown table `{name}`")))?;
        let unindexed = BoundRead {
            name: name.to_string(),
            table,
            index: 0,
            key_cols: key_cols.to_vec(),
            ts_col,
        };
        let index = unindexed.index_on(&*unindexed.table)?;
        Ok(BoundRead { index, ..unindexed })
    }

    /// The id of this read's index on `table` — its own, or a replica of it.
    pub(crate) fn index_on(&self, table: &dyn DataTable) -> Result<usize> {
        table
            .find_index(&self.key_cols, self.ts_col)
            .ok_or_else(|| {
                Error::Deployment(format!(
                    "no index on `{}` for key columns {:?}",
                    self.name, self.key_cols
                ))
            })
    }
}

/// What one deployment reads, bound (see the module docs).
pub(crate) struct ReadPlan {
    /// One bound read per LAST JOIN, in plan order.
    pub(crate) joins: Vec<BoundRead>,
    /// Per window, its bound sources in scan order: the base table (unless
    /// INSTANCE_NOT_IN_WINDOW), then the union tables. Empty for a window
    /// without aggregates, which is never read.
    pub(crate) windows: Vec<Vec<BoundRead>>,
    /// Scan groups: the windows with aggregates, partitioned so that each
    /// group is read with one scan per source and every member folds its
    /// own newest-first prefix of it. Members are in plan order, groups in
    /// order of their first member.
    pub(crate) groups: Vec<Vec<usize>>,
}

impl ReadPlan {
    /// Bind every read of `query` through `provider`. `by_window` lists the
    /// aggregates of each window; `preaggs` decides the grouping (see
    /// [`ReadPlan::regroup`]).
    pub(crate) fn bind(
        query: &CompiledQuery,
        by_window: &[Vec<usize>],
        preaggs: &[Option<Arc<PreAggregator>>],
        provider: &dyn TableProvider,
    ) -> Result<Self> {
        let joins = query
            .joins
            .iter()
            .map(|j| {
                let right_keys: Vec<usize> = j.eq_pairs.iter().map(|&(_, r)| r).collect();
                BoundRead::resolve(provider, &j.table, &right_keys, j.order_col)
            })
            .collect::<Result<Vec<_>>>()?;
        let windows = query
            .windows
            .iter()
            .zip(by_window)
            .map(|(w, aggs)| {
                if aggs.is_empty() {
                    return Ok(Vec::new());
                }
                let base = (!w.instance_not_in_window).then_some(&query.base_table);
                base.into_iter()
                    .chain(&w.union_tables)
                    .map(|t| BoundRead::resolve(provider, t, &w.partition_cols, Some(w.order_col)))
                    .collect()
            })
            .collect::<Result<Vec<_>>>()?;
        let mut plan = ReadPlan {
            joins,
            windows,
            groups: Vec::new(),
        };
        plan.regroup(query, by_window, preaggs);
        Ok(plan)
    }

    /// Partition the windows that have aggregates into scan groups. Windows
    /// share a group when they read the same time list for a request — same
    /// partition columns and order column, base table only — so one scan
    /// bounded by the widest frame serves them all: each member's
    /// [`WindowProgram`](openmldb_exec::WindowProgram) folds its own prefix
    /// of the raw scan entries. A window that reads union tables (or
    /// excludes the base table) or is served from pre-aggregated buckets is
    /// a group of one.
    pub(crate) fn regroup(
        &mut self,
        query: &CompiledQuery,
        by_window: &[Vec<usize>],
        preaggs: &[Option<Arc<PreAggregator>>],
    ) {
        let shareable = |wid: usize| {
            let w = &query.windows[wid];
            preaggs[wid].is_none() && w.union_tables.is_empty() && !w.instance_not_in_window
        };
        let same_list = |a: &BoundWindow, b: &BoundWindow| {
            (&a.partition_cols, a.order_col, a.order_desc)
                == (&b.partition_cols, b.order_col, b.order_desc)
        };
        self.groups.clear();
        for (wid, window) in query.windows.iter().enumerate() {
            if by_window[wid].is_empty() {
                continue;
            }
            let home = self.groups.iter_mut().find(|g| {
                shareable(wid) && shareable(g[0]) && same_list(window, &query.windows[g[0]])
            });
            match home {
                Some(group) => group.push(wid),
                None => self.groups.push(vec![wid]),
            }
        }
    }
}
