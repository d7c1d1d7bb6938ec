//! Decoded row representation.
//!
//! A [`Row`] is the in-flight, decoded form of a tuple — what expression
//! evaluation and window aggregation operate on. At-rest tuples live in the
//! compact encoded form of [`crate::codec`].

use std::ops::Index;
use std::sync::Arc;

use crate::schema::Schema;
use crate::value::{KeyValue, Value};

/// A decoded tuple. Cloning is cheap: values are shared via `Arc` internally
/// (strings) and the vector is reference-counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Extract the partition key for the named columns.
    pub fn key_for(&self, indices: &[usize]) -> Vec<KeyValue> {
        indices
            .iter()
            .map(|&i| KeyValue::from(&self.values[i]))
            .collect()
    }

    /// Extract a single-column order-by timestamp, as `i64`.
    pub fn ts_at(&self, idx: usize) -> i64 {
        self.values[idx].as_i64().unwrap_or(i64::MIN)
    }

    /// A new row with `extra` appended (offline index column, Section 6.1).
    pub fn with_appended(&self, extra: Value) -> Row {
        let mut v: Vec<Value> = self.values.to_vec();
        v.push(extra);
        Row::new(v)
    }

    /// A new row concatenating `other` (Concat Join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v: Vec<Value> = self.values.to_vec();
        v.extend(other.values.iter().cloned());
        Row::new(v)
    }

    /// A new row keeping only the listed column indices.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Approximate decoded memory footprint.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Row>() + self.values.iter().map(Value::mem_size).sum::<usize>()
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// One allocation where the iterator knows its length exactly (`Vec::drain`).
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

/// A batch of rows sharing one schema — the unit the offline engine moves
/// between partitions.
#[derive(Debug, Clone)]
pub struct RowBatch {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl RowBatch {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        RowBatch { schema, rows }
    }

    pub fn empty(schema: Schema) -> Self {
        RowBatch {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![
            Value::Bigint(42),
            Value::string("shoes"),
            Value::Timestamp(1_000),
        ])
    }

    #[test]
    fn indexing_and_projection() {
        let r = row();
        assert_eq!(r[0], Value::Bigint(42));
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Timestamp(1_000), Value::Bigint(42)]);
    }

    #[test]
    fn concat_and_append() {
        let r = row();
        let c = r.concat(&Row::new(vec![Value::Int(1)]));
        assert_eq!(c.len(), 4);
        let a = r.with_appended(Value::Bool(true));
        assert_eq!(a[3], Value::Bool(true));
    }

    #[test]
    fn key_extraction_is_type_canonical() {
        let r = row();
        let k = r.key_for(&[0]);
        assert_eq!(k, vec![KeyValue::Int(42)]);
        assert_eq!(r.ts_at(2), 1_000);
    }

    #[test]
    fn cheap_clone_shares_storage() {
        let r = row();
        let r2 = r.clone();
        assert_eq!(r.values().as_ptr(), r2.values().as_ptr());
    }
}
