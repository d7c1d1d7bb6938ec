//! Runtime value model.
//!
//! OpenMLDB SQL operates over a small set of scalar types chosen for ML
//! feature pipelines: integers, floats, timestamps and strings. Strings are
//! reference-counted so cloning a decoded row is cheap during window scans.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// Scalar data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    /// 32-bit signed integer (`INT`).
    Int,
    /// 64-bit signed integer (`BIGINT`).
    Bigint,
    /// 32-bit IEEE float (`FLOAT`).
    Float,
    /// 64-bit IEEE float (`DOUBLE`).
    Double,
    /// Millisecond-precision timestamp stored as `i64`.
    Timestamp,
    /// UTF-8 string (`STRING` / `VARCHAR`).
    String,
}

impl DataType {
    /// Size in bytes of the fixed-width encoding, or `None` for var-length.
    ///
    /// These widths drive the compact row format of Section 7.1: integers and
    /// floats use 4 bytes (unlike Spark's 8-byte slots), timestamps 8 bytes.
    pub fn fixed_size(self) -> Option<usize> {
        match self {
            DataType::Bool => Some(1),
            DataType::Int | DataType::Float => Some(4),
            DataType::Bigint | DataType::Double | DataType::Timestamp => Some(8),
            DataType::String => None,
        }
    }

    /// Whether the type is numeric (usable in arithmetic aggregates).
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::Bigint | DataType::Float | DataType::Double
        )
    }

    /// Canonical SQL spelling, used in error messages and `EXPLAIN` output.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Bigint => "BIGINT",
            DataType::Float => "FLOAT",
            DataType::Double => "DOUBLE",
            DataType::Timestamp => "TIMESTAMP",
            DataType::String => "STRING",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A runtime scalar value.
///
/// `Null` is untyped; the schema supplies the column type where needed.
///
/// `==` is exact: the same variant and the same payload, with FLOAT and
/// DOUBLE compared by their bits, so `Int(2) != Double(2.0)` and
/// `Double(0.0) != Double(-0.0)`. It is the identity DEPLOY shares state
/// under and the one the oracles compare answers with. SQL's `=`, which
/// compares numbers across types, is [`Value::sql_eq`].
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i32),
    Bigint(i64),
    Float(f32),
    Double(f64),
    Timestamp(i64),
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn string(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The value's runtime type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Bigint(_) => Some(DataType::Bigint),
            Value::Float(_) => Some(DataType::Float),
            Value::Double(_) => Some(DataType::Double),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Str(_) => Some(DataType::String),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// This value with a FLOAT or DOUBLE NaN replaced by the canonical
    /// quiet NaN (sign clear, payload empty: `0x7fc0_0000` /
    /// `0x7ff8_0000_0000_0000`). Which NaN arithmetic answers is left open
    /// (the sign and payload of `NaN + NaN` depend on operand order, which
    /// a compiler may commute), so every output row passes its float
    /// columns through this; stored rows keep the bits they were given.
    #[inline]
    pub fn canonical_nan(self) -> Value {
        match self {
            Value::Double(d) if d.is_nan() => Value::Double(f64::from_bits(0x7ff8_0000_0000_0000)),
            Value::Float(f) if f.is_nan() => Value::Float(f32::from_bits(0x7fc0_0000)),
            v => v,
        }
    }

    /// Numeric view as `f64`, used by aggregate functions.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Bigint(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v as f64),
            Value::Double(v) => Ok(*v),
            Value::Timestamp(v) => Ok(*v as f64),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(Error::Type {
                expected: "numeric".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Integer view as `i64` (timestamps included).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v as i64),
            Value::Bigint(v) => Ok(*v),
            Value::Timestamp(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(Error::Type {
                expected: "integer".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// String view; errors on non-strings.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::Type {
                expected: "string".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Boolean view; numeric values are truthy when non-zero.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            Value::Int(v) => Ok(*v != 0),
            Value::Bigint(v) => Ok(*v != 0),
            other => Err(Error::Type {
                expected: "bool".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Cast to the target type, following SQL-style widening rules.
    pub fn cast_to(&self, target: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let mismatch = || Error::Type {
            expected: target.sql_name().into(),
            found: format!("{self:?}"),
        };
        Ok(match target {
            DataType::Bool => Value::Bool(self.as_bool()?),
            DataType::Int => Value::Int(i32::try_from(self.as_i64()?).map_err(|_| mismatch())?),
            DataType::Bigint => Value::Bigint(self.as_i64()?),
            DataType::Float => Value::Float(self.as_f64()? as f32),
            DataType::Double => Value::Double(self.as_f64()?),
            DataType::Timestamp => Value::Timestamp(self.as_i64()?),
            DataType::String => match self {
                Value::Str(s) => Value::Str(s.clone()),
                other => Value::string(other.to_string()),
            },
        })
    }

    /// Approximate heap + inline memory footprint of the decoded value, used
    /// by the memory accounting of Section 8.
    pub fn mem_size(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => inline + s.len(),
            _ => inline,
        }
    }

    /// Total ordering used by ORDER BY and window sorting.
    ///
    /// NULLs sort first; cross-type numeric comparisons go through `f64`;
    /// NaN floats sort after all other numbers (total order).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => {
                let fa = a.as_f64().unwrap_or(f64::NAN);
                let fb = b.as_f64().unwrap_or(f64::NAN);
                fa.total_cmp(&fb)
            }
        }
    }

    /// SQL's `=`: numbers compare across types through `f64` (`2 = 2.0`,
    /// `-0.0 = 0.0`, a NaN equals nothing); strings and booleans compare
    /// only with their own kind. SQL's NULL propagation is the caller's
    /// (`eval::binary` answers NULL first); here `Null` equals only `Null`.
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null | Bool(_) | Str(_), _) | (_, Null | Bool(_) | Str(_)) => self == other,
            (a, b) => matches!((a.as_f64(), b.as_f64()), (Ok(x), Ok(y)) if x == y),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Bigint(a), Bigint(b)) | (Timestamp(a), Timestamp(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bigint(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Hashable key wrapper for group-by / partition-by keys.
///
/// `Value` itself cannot implement `Hash` (floats); partition keys in feature
/// scripts are strings, integers or timestamps, so we canonicalize through
/// this enum. Floats used as keys are hashed by their bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyValue {
    Null,
    Bool(bool),
    Int(i64),
    Bits(u64),
    Str(Arc<str>),
}

impl From<&Value> for KeyValue {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => KeyValue::Null,
            Value::Bool(b) => KeyValue::Bool(*b),
            Value::Int(i) => KeyValue::Int(*i as i64),
            Value::Bigint(i) => KeyValue::Int(*i),
            Value::Timestamp(i) => KeyValue::Int(*i),
            Value::Float(f) => KeyValue::Bits((*f as f64).to_bits()),
            Value::Double(f) => KeyValue::Bits(f.to_bits()),
            Value::Str(s) => KeyValue::Str(s.clone()),
        }
    }
}

impl KeyValue {
    /// Render the key for index storage (composite keys in the disk engine).
    pub fn render(&self) -> String {
        match self {
            KeyValue::Null => "\u{0}NULL".to_string(),
            KeyValue::Bool(b) => b.to_string(),
            KeyValue::Int(i) => i.to_string(),
            KeyValue::Bits(b) => format!("f{b:016x}"),
            KeyValue::Str(s) => s.to_string(),
        }
    }

    /// Approximate memory footprint (for the Section 8.1 estimation model).
    pub fn mem_size(&self) -> usize {
        let inline = std::mem::size_of::<KeyValue>();
        match self {
            KeyValue::Str(s) => inline + s.len(),
            _ => inline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sizes_match_compact_format() {
        assert_eq!(DataType::Int.fixed_size(), Some(4));
        assert_eq!(DataType::Float.fixed_size(), Some(4));
        assert_eq!(DataType::Timestamp.fixed_size(), Some(8));
        assert_eq!(DataType::String.fixed_size(), None);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(3).sql_eq(&Value::Double(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Double(3.5)));
        assert!(Value::Double(0.0).sql_eq(&Value::Double(-0.0)));
        assert!(!Value::Double(f64::NAN).sql_eq(&Value::Double(f64::NAN)));
        assert_ne!(
            Value::Null,
            Value::Null
                .cast_to(DataType::Int)
                .map(|_| Value::Int(0))
                .unwrap_or(Value::Int(0))
        );
    }

    #[test]
    fn equality_is_exact_in_type_and_bits() {
        assert_ne!(Value::Int(2), Value::Double(2.0));
        assert_ne!(Value::Int(2), Value::Bigint(2));
        assert_ne!(Value::Bigint(2), Value::Timestamp(2));
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
        assert_ne!(Value::Float(2.0), Value::Double(2.0));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::string("a"), Value::string("a"));
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(2), Value::Null, Value::Int(1)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert!(v[0].is_null());
        assert_eq!(v[1], Value::Int(1));
    }

    #[test]
    fn cast_widening_and_narrowing() {
        assert_eq!(
            Value::Int(7).cast_to(DataType::Double).unwrap(),
            Value::Double(7.0)
        );
        assert_eq!(
            Value::Bigint(1 << 40).cast_to(DataType::Int).unwrap_err(),
            Error::Type {
                expected: "INT".into(),
                found: "Bigint(1099511627776)".into()
            }
        );
        assert_eq!(
            Value::Double(2.5).cast_to(DataType::String).unwrap(),
            Value::string("2.5")
        );
    }

    #[test]
    fn key_value_roundtrip_groups_numerics() {
        assert_eq!(
            KeyValue::from(&Value::Int(5)),
            KeyValue::from(&Value::Bigint(5))
        );
        assert_ne!(
            KeyValue::from(&Value::Int(5)),
            KeyValue::from(&Value::string("5"))
        );
    }

    #[test]
    fn as_bool_truthiness() {
        assert!(Value::Int(2).as_bool().unwrap());
        assert!(!Value::Null.as_bool().unwrap());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::string("x").as_bool().is_err());
    }

    #[test]
    fn mem_size_counts_string_heap() {
        let s = Value::string("hello");
        assert_eq!(s.mem_size(), std::mem::size_of::<Value>() + 5);
    }
}
