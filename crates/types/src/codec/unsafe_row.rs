//! Spark-`UnsafeRow`-style row format, used as the memory baseline.
//!
//! Layout (following the accounting in the paper's Section 7.1 example):
//!
//! ```text
//! +--------------------+------------------------+------------------+
//! | null bitset        | one 8-byte word / field| var-length bytes |
//! | ⌈n/64⌉ × 8 bytes   | n × 8 bytes            | Σ string lens    |
//! +--------------------+------------------------+------------------+
//! ```
//!
//! Every field — bool, int, float, timestamp — occupies a full 8-byte word.
//! A string's word packs `(offset << 32) | length` pointing into the
//! var-length tail. This reproduces Spark's 556-byte figure for the paper's
//! example row (vs 255 bytes for the compact codec).

use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

use super::RowCodec;

/// Per-schema UnsafeRow-style codec.
#[derive(Debug, Clone)]
pub struct UnsafeRowCodec {
    schema: Schema,
    bitset_len: usize,
}

impl UnsafeRowCodec {
    pub fn new(schema: Schema) -> Self {
        let bitset_len = schema.len().div_ceil(64) * 8;
        UnsafeRowCodec { schema, bitset_len }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn fixed_len(&self) -> usize {
        self.bitset_len + self.schema.len() * 8
    }
}

impl RowCodec for UnsafeRowCodec {
    fn encoded_size(&self, row: &Row) -> Result<usize> {
        self.schema.validate_row(row.values())?;
        let var: usize = row
            .values()
            .iter()
            .map(|v| if let Value::Str(s) = v { s.len() } else { 0 })
            .sum();
        Ok(self.fixed_len() + var)
    }

    fn encode(&self, row: &Row) -> Result<Vec<u8>> {
        self.schema.validate_row(row.values())?;
        let total = self.encoded_size(row)?;
        let mut buf = vec![0u8; total];
        let words_start = self.bitset_len;
        let mut var_cursor = self.fixed_len();

        for (i, v) in row.values().iter().enumerate() {
            if v.is_null() {
                buf[i / 64 * 8 + (i % 64) / 8] |= 1 << (i % 8);
                continue;
            }
            let at = words_start + i * 8;
            let word: u64 = match v {
                Value::Bool(b) => *b as u64,
                Value::Int(x) => *x as u32 as u64,
                Value::Bigint(x) | Value::Timestamp(x) => *x as u64,
                Value::Float(x) => x.to_bits() as u64,
                Value::Double(x) => x.to_bits(),
                Value::Str(s) => {
                    let off = var_cursor as u64;
                    buf[var_cursor..var_cursor + s.len()].copy_from_slice(s.as_bytes());
                    var_cursor += s.len();
                    (off << 32) | s.len() as u64
                }
                Value::Null => unreachable!(),
            };
            buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        Ok(buf)
    }

    fn decode(&self, buf: &[u8]) -> Result<Row> {
        if buf.len() < self.fixed_len() {
            return Err(Error::Codec(format!(
                "buffer too short: {} bytes",
                buf.len()
            )));
        }
        let words_start = self.bitset_len;
        let mut values = Vec::with_capacity(self.schema.len());
        for (i, col) in self.schema.columns().iter().enumerate() {
            let null = buf[i / 64 * 8 + (i % 64) / 8] & (1 << (i % 8)) != 0;
            if null {
                values.push(Value::Null);
                continue;
            }
            let at = words_start + i * 8;
            let word = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
            values.push(match col.data_type {
                DataType::Bool => Value::Bool(word != 0),
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "an INT slot holds its 32 bits in the low half of the word"
                )]
                DataType::Int => Value::Int(word as u32 as i32),
                DataType::Bigint => Value::Bigint(word as i64),
                DataType::Timestamp => Value::Timestamp(word as i64),
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a FLOAT slot holds its 32 bits in the low half of the word"
                )]
                DataType::Float => Value::Float(f32::from_bits(word as u32)),
                DataType::Double => Value::Double(f64::from_bits(word)),
                DataType::String => {
                    let off = (word >> 32) as usize;
                    let len = (word & 0xFFFF_FFFF) as usize;
                    let bytes = buf
                        .get(off..off + len)
                        .ok_or_else(|| Error::Codec("string slot out of bounds".into()))?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|e| Error::Codec(format!("invalid UTF-8: {e}")))?;
                    Value::string(s)
                }
            });
        }
        Ok(Row::new(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CompactCodec;
    use crate::schema::ColumnDef;

    fn paper_example() -> (Schema, Row) {
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("i{i}"), DataType::Int));
            vals.push(Value::Int(i));
        }
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("f{i}"), DataType::Float));
            vals.push(Value::Float(i as f32));
        }
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("s{i}"), DataType::String));
            vals.push(Value::string("x"));
        }
        for i in 0..5 {
            cols.push(ColumnDef::new(format!("t{i}"), DataType::Timestamp));
            vals.push(Value::Timestamp(i));
        }
        (Schema::new(cols).unwrap(), Row::new(vals))
    }

    /// Paper arithmetic: 16-byte null bitset + 65×8 words + 20 string bytes
    /// = 556 bytes; compact format = 255 bytes → >54% saving.
    #[test]
    fn paper_example_is_556_bytes_and_54_percent_saving() {
        let (schema, row) = paper_example();
        let unsafe_codec = UnsafeRowCodec::new(schema.clone());
        assert_eq!(unsafe_codec.encoded_size(&row).unwrap(), 556);

        let compact = CompactCodec::new(schema);
        let saving = 1.0 - compact.encoded_size(&row).unwrap() as f64 / 556.0;
        assert!(saving > 0.54, "saving was {saving}");
    }

    #[test]
    fn roundtrip_with_nulls_and_strings() {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::String),
            ("c", DataType::Double),
            ("d", DataType::String),
        ])
        .unwrap();
        let codec = UnsafeRowCodec::new(schema);
        let row = Row::new(vec![
            Value::Null,
            Value::string("αβγ"),
            Value::Double(3.25),
            Value::string(""),
        ]);
        let buf = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), row);
    }

    #[test]
    fn every_field_costs_a_word() {
        let schema = Schema::from_pairs(&[("b", DataType::Bool)]).unwrap();
        let codec = UnsafeRowCodec::new(schema);
        // 8-byte bitset + 8-byte word: booleans are as expensive as doubles.
        assert_eq!(
            codec
                .encoded_size(&Row::new(vec![Value::Bool(true)]))
                .unwrap(),
            16
        );
    }
}
