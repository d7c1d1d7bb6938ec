//! DuckDB-style embedded columnar baseline (paper Fig 6).
//!
//! Columnar, in-memory, vectorized — but with no per-key time index and no
//! incremental state: every request is a fresh full-column scan with a
//! key-filter pass plus a temporal-filter pass ("may still require
//! additional passes for complex temporal queries"), then aggregation over
//! the qualifying rows.

use openmldb_exec::WindowAggSet;
use openmldb_sql::plan::BoundAggregate;
use openmldb_types::{Error, Result, Row, Schema, Value};

/// Column-major table.
pub struct DuckDbLikeTable {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
    /// Column values scanned across all queries (the full-scan tax).
    pub values_scanned: u64,
}

impl DuckDbLikeTable {
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        DuckDbLikeTable {
            schema,
            columns,
            rows: 0,
            values_scanned: 0,
        }
    }

    pub fn insert(&mut self, row: &Row) -> Result<()> {
        self.schema.validate_row(row.values())?;
        for (col, v) in self.columns.iter_mut().zip(row.values()) {
            col.push(v.clone());
        }
        self.rows += 1;
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Window query: pass 1 filters the key column, pass 2 filters the
    /// timestamp column, pass 3 gathers + aggregates.
    pub fn window_query(
        &mut self,
        key_col: usize,
        key: &Value,
        ts_col: usize,
        lower_ts: i64,
        upper_ts: i64,
        agg_refs: &[&BoundAggregate],
    ) -> Result<Vec<Value>> {
        if key_col >= self.columns.len() || ts_col >= self.columns.len() {
            return Err(Error::Plan("column out of range".into()));
        }
        // Pass 1: key filter over the whole column (no index). Exact `==`,
        // as the engine's index keys: a row is validated to its column's
        // type, and DOUBLE keys match by bits.
        let mut selection: Vec<usize> = Vec::new();
        for (i, v) in self.columns[key_col].iter().enumerate() {
            self.values_scanned += 1;
            if v == key {
                selection.push(i);
            }
        }
        // Pass 2: temporal filter.
        let mut in_frame: Vec<(i64, usize)> = Vec::new();
        for &i in &selection {
            self.values_scanned += 1;
            let ts = self.columns[ts_col][i].as_i64().unwrap_or(i64::MIN);
            if (lower_ts..=upper_ts).contains(&ts) {
                in_frame.push((ts, i));
            }
        }
        in_frame.sort_unstable();
        // Pass 3: gather + aggregate.
        let mut set = WindowAggSet::new(agg_refs)?;
        let width = self.columns.len();
        for (_, i) in in_frame {
            let mut row = Vec::with_capacity(width);
            for col in &self.columns {
                row.push(col[i].clone());
            }
            self.values_scanned += width as u64;
            set.update(&row)?;
        }
        Ok(set.outputs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;
    use openmldb_types::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn spec(f: &str) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(f).unwrap(),
            args: vec![PhysExpr::Column(1)],
            output_type: DataType::Double,
        }
    }

    #[test]
    fn window_query_scans_everything() {
        let mut t = DuckDbLikeTable::new(schema());
        for i in 0..100 {
            t.insert(&Row::new(vec![
                Value::Bigint(i % 4),
                Value::Double(1.0),
                Value::Timestamp(i * 10),
            ]))
            .unwrap();
        }
        let s = spec("count");
        let out = t
            .window_query(0, &Value::Bigint(1), 2, 0, 10_000, &[&s])
            .unwrap();
        assert_eq!(out[0], Value::Bigint(25));
        assert!(t.values_scanned >= 100, "key pass reads the full column");
    }

    #[test]
    fn temporal_filter_applies() {
        let mut t = DuckDbLikeTable::new(schema());
        for ts in [100, 200, 300] {
            t.insert(&Row::new(vec![
                Value::Bigint(1),
                Value::Double(ts as f64),
                Value::Timestamp(ts),
            ]))
            .unwrap();
        }
        let s = spec("sum");
        let out = t
            .window_query(0, &Value::Bigint(1), 2, 150, 250, &[&s])
            .unwrap();
        assert_eq!(out[0], Value::Double(200.0));
    }
}
