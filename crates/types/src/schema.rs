//! Table schemas and column metadata.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::{DataType, Value};

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered set of columns with O(1) name lookup.
///
/// Schemas are immutable and shared (`Arc`) between the planner, the storage
/// engine, and the codecs — the paper's "unified query plan generator" relies
/// on both execution stages seeing byte-identical schemas.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Arc<[ColumnDef]>,
    by_name: Arc<HashMap<String, usize>>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
    }
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(Error::Schema(format!("duplicate column name `{}`", c.name)));
            }
        }
        Ok(Schema {
            columns: columns.into(),
            by_name: Arc::new(by_name),
        })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(pairs.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::Plan(format!("unknown column `{name}`")))
    }

    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Whether `row` conforms to this schema (arity, types, nullability).
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::Schema(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(self.columns.iter()) {
            match v.data_type() {
                None if !c.nullable => {
                    return Err(Error::Schema(format!(
                        "NULL in non-nullable column `{}`",
                        c.name
                    )))
                }
                Some(t) if t != c.data_type => {
                    return Err(Error::Type {
                        expected: c.data_type.sql_name().into(),
                        found: format!("{} in column `{}`", t.sql_name(), c.name),
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Concatenate two schemas (used by Concat Join in the offline engine);
    /// colliding names get a `_r`/`_r2`/... suffix until unique.
    pub fn concat(&self, other: &Schema) -> Result<Schema> {
        let mut cols: Vec<ColumnDef> = self.columns.to_vec();
        let mut used: std::collections::HashSet<String> =
            cols.iter().map(|c| c.name.clone()).collect();
        for c in other.columns.iter() {
            let mut c = c.clone();
            if used.contains(&c.name) {
                let mut n = 1;
                loop {
                    let candidate = if n == 1 {
                        format!("{}_r", c.name)
                    } else {
                        format!("{}_r{n}", c.name)
                    };
                    if !used.contains(&candidate) {
                        c.name = candidate;
                        break;
                    }
                    n += 1;
                }
            }
            used.insert(c.name.clone());
            cols.push(c);
        }
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("price", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Int)]).unwrap_err();
        assert!(matches!(err, Error::Schema(_)));
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("price").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn row_validation_checks_arity_types_nulls() {
        let s = schema();
        assert!(s
            .validate_row(&[Value::Bigint(1), Value::Double(2.0), Value::Timestamp(3)])
            .is_ok());
        assert!(s.validate_row(&[Value::Bigint(1)]).is_err());
        assert!(s
            .validate_row(&[Value::Bigint(1), Value::string("x"), Value::Timestamp(3)])
            .is_err());
        let strict = Schema::new(vec![ColumnDef::new("a", DataType::Int).not_null()]).unwrap();
        assert!(strict.validate_row(&[Value::Null]).is_err());
    }

    #[test]
    fn concat_renames_collisions() {
        let a = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let b = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.column(1).name, "x_r");
        assert_eq!(c.column(2).name, "y");
    }

    #[test]
    fn display_renders_sql() {
        let s = Schema::new(vec![ColumnDef::new("a", DataType::Int).not_null()]).unwrap();
        assert_eq!(s.to_string(), "(a INT NOT NULL)");
    }
}
