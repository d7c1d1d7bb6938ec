//! Time-aware data-skew resolving (paper Section 6.2).
//!
//! Salting (random key prefixes) breaks window semantics: same-key tuples
//! land in different partitions and lose their time order. Instead, hot
//! partitions are split along the **timestamp** axis: a key is hot when its
//! partition holds at least `hot_threshold` of the rows (an exact count, the
//! grouping has it), and the percentiles of its base rows' timestamps cut
//! them into `factor` time slices (`PART_ID`). A slice is swept from its
//! first anchor with the partition's earlier rows in reach, so its first
//! frames read back into the rows before it (`EXPANDED_ROW`: read in place,
//! never copied), which feed state but produce no output. Every key's
//! slices go to the one queue of [`crate::parallel`] (redistribution).
//! Slicing changes the work layout, never a value: a slice's sweep starts
//! with an empty state and re-folds or slides its way to the same frames a
//! whole-partition sweep reaches.

use std::ops::Range;

use openmldb_sql::ast::Frame;
use openmldb_sql::plan::BoundWindow;

use crate::snapshot::Partition;

/// Skew-resolution configuration.
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Time-slice partitions per hot key ("skew 2" = double partitions).
    pub factor: usize,
    /// A key is *hot* when it holds at least this share of all rows.
    pub hot_threshold: f64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            factor: 2,
            hot_threshold: 0.2,
        }
    }
}

/// The work units of one window — a partition and a range of its base
/// rows: every partition whole, or, with `cfg`, a hot partition of a
/// bounded frame cut into `factor` time slices at the percentiles of its
/// base rows' timestamps (the rows are in time order already, so a
/// percentile is a position).
pub(crate) fn units(
    window: &BoundWindow,
    parts: &[Partition],
    cfg: Option<&SkewConfig>,
) -> Vec<(usize, Range<usize>)> {
    let total = parts.iter().map(|p| p.entries.len()).sum::<usize>() as f64;
    let bounded = !matches!(window.frame, Frame::Unbounded);
    let mut units = Vec::new();
    for (p, part) in parts.iter().enumerate() {
        let n = part.anchors.len();
        let hot = cfg.filter(|c| bounded && part.entries.len() as f64 >= c.hot_threshold * total);
        let slices = hot.map_or(1, |c| c.factor.clamp(1, n.max(1)));
        units.extend((0..slices).map(|i| (p, i * n / slices..(i + 1) * n / slices)));
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{sweep_window, OfflineOptions, Tables, WindowExecMode};
    use crate::parallel::compute_windows;
    use crate::snapshot::Snapshot;
    use openmldb_sql::plan::CompiledQuery;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_types::{DataType, Row, Schema, Value};

    struct Cat(Schema);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            (name == "t").then(|| self.0.clone())
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn query(frame: &str) -> CompiledQuery {
        compile_select(
            &parse_select(&format!(
                "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c, max(v) OVER w AS m FROM t \
                 WINDOW w AS (PARTITION BY k ORDER BY ts {frame})"
            ))
            .unwrap(),
            &Cat(schema()),
        )
        .unwrap()
    }

    /// 90% of rows on key 0 (the skew scenario), the rest spread out.
    fn skewed_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let k = if i % 10 != 0 {
                    0
                } else {
                    1 + (i / 10) as i64 % 5
                };
                Row::new(vec![
                    Value::Bigint(k),
                    Value::Double((i % 13) as f64),
                    Value::Timestamp((i * 7) as i64),
                ])
            })
            .collect()
    }

    fn cfg(factor: usize) -> SkewConfig {
        SkewConfig {
            factor,
            ..SkewConfig::default()
        }
    }

    /// Per base row, the window's values.
    type Values = Vec<Vec<Value>>;

    /// The window's values without and with skew slicing (on `threads`
    /// workers), and the sliced layout: `(hot keys, work units)`.
    fn sweep_both(
        q: &CompiledQuery,
        base: &[Row],
        cfg: &SkewConfig,
        threads: usize,
    ) -> (Values, Values, (usize, usize)) {
        let (tables, w) = (Tables::new(), &q.windows[0]);
        let ids: Vec<usize> = (0..q.aggregates.len()).collect();
        let plain = sweep_window(q, w, &tables, base, &ids, WindowExecMode::Incremental).unwrap();
        let opts = OfflineOptions {
            parallel_windows: false,
            threads,
            skew: Some(cfg.clone()),
            mode: WindowExecMode::Incremental,
        };
        let skewed = compute_windows(q, &tables, base, &opts).unwrap().remove(0);
        let parts = Snapshot::from_rows(q, base, &tables)
            .and_then(|s| s.partitions(q, w))
            .unwrap();
        let units = units(w, &parts, Some(cfg));
        let hot = (0..parts.len())
            .filter(|p| units.iter().filter(|u| u.0 == *p).count() > 1)
            .count();
        (plain, skewed, (hot, units.len()))
    }

    #[test]
    fn skewed_sweep_matches_plain_sweep_range_frame() {
        let q = query("ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW");
        for factor in [2, 4] {
            let (plain, skewed, (hot, slices)) = sweep_both(&q, &skewed_rows(500), &cfg(factor), 4);
            assert_eq!(
                plain, skewed,
                "factor {factor} changes work layout, not results"
            );
            assert_eq!(hot, 1, "key 0 is the hot key");
            assert_eq!(slices, 5 + factor, "hot key split into {factor} slices");
        }
    }

    #[test]
    fn skewed_sweep_matches_plain_sweep_rows_frame() {
        let q = query("ROWS BETWEEN 7 PRECEDING AND CURRENT ROW");
        let (plain, skewed, (hot, _)) = sweep_both(&q, &skewed_rows(300), &cfg(3), 4);
        assert_eq!(plain, skewed);
        assert_eq!(hot, 1);
    }

    /// A NULL order column reads as `i64::MIN`: a stored row with one on the
    /// hot key is sliced and swept without overflow (the parent's histogram
    /// overflowed: a panic in a debug build, a wrap in release).
    #[test]
    fn null_order_column_on_a_hot_key_is_swept() {
        let q = query("ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW");
        let mut base = skewed_rows(200);
        base.push(Row::new(vec![
            Value::Bigint(0),
            Value::Double(5.0),
            Value::Null,
        ]));
        let (plain, skewed, (hot, _)) = sweep_both(&q, &base, &cfg(2), 2);
        assert_eq!(plain, skewed);
        assert_eq!(hot, 1);
        let null_row = plain.last().unwrap();
        assert_eq!(null_row[1], Value::Bigint(1), "only itself at i64::MIN");
    }

    #[test]
    fn unbounded_frames_are_not_split() {
        let q = query("ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW");
        let (plain, skewed, (hot, slices)) = sweep_both(&q, &skewed_rows(100), &cfg(4), 2);
        assert_eq!(plain, skewed);
        assert_eq!(hot, 0, "unbounded frames fall back to whole groups");
        assert_eq!(slices, 6, "one unit per key");
    }
}
