//! # openmldb-types
//!
//! Foundation crate for the OpenMLDB reproduction: the value model, table
//! schemas, decoded rows, the shared error type, and the two row codecs
//! (the compact in-memory format of the paper's Section 7.1 and the
//! Spark-`UnsafeRow`-style baseline used for memory comparisons).
//!
//! Everything above this crate — SQL planning, execution, storage — shares
//! these definitions, which is what makes the offline and online engines
//! produce byte-identical feature values.

pub mod codec;
pub mod deadline;
pub mod error;
pub mod row;
pub mod schema;
pub mod value;

pub use codec::{CompactCodec, Field, RowCodec, RowView, UnsafeRowCodec, ValueRef};
pub use deadline::Deadline;
pub use error::{Error, Result};
pub use row::{Row, RowBatch};
pub use schema::{ColumnDef, Schema};
pub use value::{DataType, KeyValue, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value(dt: DataType) -> BoxedStrategy<Value> {
        let non_null: BoxedStrategy<Value> = match dt {
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
            DataType::Int => any::<i32>().prop_map(Value::Int).boxed(),
            DataType::Bigint => any::<i64>().prop_map(Value::Bigint).boxed(),
            DataType::Float => any::<f32>().prop_map(Value::Float).boxed(),
            DataType::Double => any::<f64>().prop_map(Value::Double).boxed(),
            DataType::Timestamp => any::<i64>().prop_map(Value::Timestamp).boxed(),
            DataType::String => "[a-zA-Z0-9 ]{0,40}".prop_map(Value::string).boxed(),
        };
        prop_oneof![9 => non_null, 1 => Just(Value::Null)].boxed()
    }

    fn arb_schema_and_row() -> impl Strategy<Value = (Schema, Row)> {
        proptest::collection::vec(
            prop_oneof![
                Just(DataType::Bool),
                Just(DataType::Int),
                Just(DataType::Bigint),
                Just(DataType::Float),
                Just(DataType::Double),
                Just(DataType::Timestamp),
                Just(DataType::String),
            ],
            1..20,
        )
        .prop_flat_map(|types| {
            let schema = Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, t)| ColumnDef::new(format!("c{i}"), *t))
                    .collect(),
            )
            .unwrap();
            let values: Vec<BoxedStrategy<Value>> = types.iter().map(|t| arb_value(*t)).collect();
            (Just(schema), values).prop_map(|(s, v)| (s, Row::new(v)))
        })
    }

    fn values_bitwise_eq(a: &Value, b: &Value) -> bool {
        // NaN-safe structural equality for roundtrip checks.
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null) => true,
            _ => a == b,
        }
    }

    proptest! {
        /// Compact codec roundtrips any schema-conformant row.
        #[test]
        fn compact_roundtrip((schema, row) in arb_schema_and_row()) {
            let codec = CompactCodec::new(schema);
            let buf = codec.encode(&row).unwrap();
            prop_assert_eq!(buf.len(), codec.encoded_size(&row).unwrap());
            let back = codec.decode(&buf).unwrap();
            prop_assert!(row.values().iter().zip(back.values()).all(|(a, b)| values_bitwise_eq(a, b)));
        }

        /// UnsafeRow codec roundtrips any schema-conformant row.
        #[test]
        fn unsafe_row_roundtrip((schema, row) in arb_schema_and_row()) {
            let codec = UnsafeRowCodec::new(schema);
            let buf = codec.encode(&row).unwrap();
            prop_assert_eq!(buf.len(), codec.encoded_size(&row).unwrap());
            let back = codec.decode(&buf).unwrap();
            prop_assert!(row.values().iter().zip(back.values()).all(|(a, b)| values_bitwise_eq(a, b)));
        }

        /// The compact format is never meaningfully larger than UnsafeRow.
        #[test]
        fn compact_never_larger((schema, row) in arb_schema_and_row()) {
            let c = CompactCodec::new(schema.clone()).encoded_size(&row).unwrap();
            let u = UnsafeRowCodec::new(schema).encoded_size(&row).unwrap();
            // The 6-byte header is the only overhead compact can add over the
            // UnsafeRow layout (fixed fields always shrink or stay equal).
            prop_assert!(c <= u + 6, "compact {} vs unsafe {}", c, u);
        }

        /// The borrowed RowView reads every field bit-identically to the
        /// owning decoder on any schema-conformant row.
        #[test]
        fn rowview_matches_owning_decoder((schema, row) in arb_schema_and_row()) {
            let codec = CompactCodec::new(schema);
            let buf = codec.encode(&row).unwrap();
            let decoded = codec.decode(&buf).unwrap();
            let view = codec.view(&buf).unwrap();
            prop_assert_eq!(view.len(), decoded.values().len());
            for (i, owned) in decoded.values().iter().enumerate() {
                let via_view = view.get_value(i).unwrap();
                prop_assert!(
                    values_bitwise_eq(&via_view, owned),
                    "column {}: view {:?} vs decode {:?}", i, via_view, owned
                );
                prop_assert_eq!(view.is_null(i), owned.is_null());
            }
        }

        /// total_cmp is antisymmetric.
        #[test]
        fn value_order_total(a in arb_value(DataType::Double), b in arb_value(DataType::Double)) {
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }
    }
}
