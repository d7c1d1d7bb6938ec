//! The field reader every kernel family shares: a column resolved against
//! the compact encoding at deploy time ([`FieldRef`]), its bounds-checked
//! fixed-width read ([`FieldRef::stored`]), and the typed errors a hostile
//! row meets.

use openmldb_sql::BinaryOp;
use openmldb_types::codec::compact::HEADER_SIZE;
use openmldb_types::{CompactCodec, DataType, Error, Result, RowView, ValueRef};

/// Column class a kernel is monomorphized for. Decides the byte-level read,
/// the running-state fields used, and the output `Value` constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum KernelClass {
    Int,
    Bigint,
    Timestamp,
    Float,
    Double,
    Str,
}

impl KernelClass {
    #[inline]
    pub(super) fn is_int(self) -> bool {
        matches!(
            self,
            KernelClass::Int | KernelClass::Bigint | KernelClass::Timestamp
        )
    }
}

/// One fixed-width field, read from a row's bytes — the common currency of
/// the column, expression and count-map families.
#[derive(Debug, Clone, Copy)]
pub(super) enum Fixed {
    Int(i64),
    Float(f32),
    Double(f64),
}

impl Fixed {
    /// The value as f64: a FLOAT widened, an integer converted.
    #[inline(always)]
    pub(super) fn as_f64(self) -> f64 {
        match self {
            Fixed::Int(v) => v as f64,
            Fixed::Float(v) => v as f64,
            Fixed::Double(v) => v,
        }
    }

    /// The canonical [`KeyValue`](openmldb_types::KeyValue) payload of this
    /// field as a `u64`: integers by value, floats by their f64 bit pattern
    /// (FLOAT promotes first, exactly like `KeyValue::from`).
    #[inline(always)]
    pub(super) fn key_bits(self) -> u64 {
        match self {
            Fixed::Int(v) => v as u64,
            Fixed::Float(v) => (v as f64).to_bits(),
            Fixed::Double(v) => v.to_bits(),
        }
    }
}

/// A column resolved against the compact encoding at deploy time: the byte
/// offset of its fixed-width field and its NULL-bitmap probe baked to a
/// `(byte, mask)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct FieldRef {
    /// Base-schema column index.
    pub(super) col: usize,
    pub(super) class: KernelClass,
    /// Absolute byte offset of the fixed-width field in the compact
    /// encoding (header + NULL bitmap included). Unused for `Str`.
    pub(super) at: usize,
    pub(super) null_byte: usize,
    pub(super) null_mask: u8,
}

impl FieldRef {
    /// Resolve column `col`, or `None` when it has no byte-level kernel
    /// (BOOL columns, indices outside the schema).
    pub(super) fn resolve(codec: &CompactCodec, col: usize) -> Option<FieldRef> {
        let class = match codec.schema().columns().get(col)?.data_type {
            DataType::Int => KernelClass::Int,
            DataType::Bigint => KernelClass::Bigint,
            DataType::Timestamp => KernelClass::Timestamp,
            DataType::Float => KernelClass::Float,
            DataType::Double => KernelClass::Double,
            DataType::String => KernelClass::Str,
            DataType::Bool => return None,
        };
        let at = match class {
            KernelClass::Str => 0,
            _ => codec.fixed_field_offset(col)?,
        };
        Some(FieldRef {
            col,
            class,
            at,
            null_byte: HEADER_SIZE + col / 8,
            null_mask: 1 << (col % 8),
        })
    }

    // One checked `slice::get`.
    #[inline(always)]
    pub(super) fn null_in(&self, buf: &[u8]) -> bool {
        buf.get(self.null_byte)
            .is_none_or(|b| b & self.null_mask != 0)
    }

    /// The one fixed-width read every family shares, NULL-aware: a
    /// bounds-checked little-endian load at the baked offset.
    // Reads go through `read4`/`read8` (checked `slice::get`); a short row
    // is a typed error.
    #[inline(always)]
    pub(super) fn stored(&self, buf: &[u8]) -> Result<Option<Fixed>> {
        if self.null_in(buf) {
            return Ok(None);
        }
        let (v, width) = match self.class {
            KernelClass::Int => (
                read4(buf, self.at).map(|b| Fixed::Int(i32::from_le_bytes(b).into())),
                4,
            ),
            KernelClass::Bigint | KernelClass::Timestamp => (
                read8(buf, self.at).map(|b| Fixed::Int(i64::from_le_bytes(b))),
                8,
            ),
            KernelClass::Float => (
                read4(buf, self.at).map(|b| Fixed::Float(f32::from_le_bytes(b))),
                4,
            ),
            KernelClass::Double => (
                read8(buf, self.at).map(|b| Fixed::Double(f64::from_le_bytes(b))),
                8,
            ),
            // Unreachable: string fields are read through the row view.
            KernelClass::Str => return Err(str_without_view()),
        };
        v.map(Some)
            .ok_or_else(|| truncated_row(buf.len(), self.at + width))
    }
}

/// The STRING field `col` of a validated row (`None` for NULL).
// `RowView::get` indexes only offsets its view validated.
#[inline(always)]
pub(super) fn str_field<'a>(view: &RowView<'a>, col: usize) -> Result<Option<&'a str>> {
    match view.get(col)? {
        ValueRef::Str(s) => Ok(Some(s)),
        ValueRef::Null => Ok(None),
        _ => Err(str_class_mismatch()),
    }
}

/// Bounds-checked fixed-width little-endian reads — `None` instead of a
/// panic path when the row is shorter than the baked offset promises.
#[inline(always)]
pub(super) fn read4(buf: &[u8], at: usize) -> Option<[u8; 4]> {
    let s = buf.get(at..at.checked_add(4)?)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    Some(b)
}

#[inline(always)]
pub(super) fn read8(buf: &[u8], at: usize) -> Option<[u8; 8]> {
    let s = buf.get(at..at.checked_add(8)?)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(b)
}

#[cold]
pub(super) fn truncated_row(len: usize, need: usize) -> Error {
    Error::Codec(format!("row too short: {len} bytes, need {need}"))
}

#[cold]
pub(super) fn length_mismatch(declared: usize, actual: usize) -> Error {
    Error::Codec(format!(
        "row length mismatch: declared {declared}, got {actual}"
    ))
}

#[cold]
pub(super) fn version_mismatch(got: u8, want: u8) -> Error {
    Error::Codec(format!("schema version mismatch: row {got}, codec {want}"))
}

#[cold]
pub(super) fn str_without_view() -> Error {
    Error::Eval("view-backed kernel dispatched without a row view".into())
}

#[cold]
fn str_class_mismatch() -> Error {
    Error::Eval("string kernel read a non-string field".into())
}

/// The interpreter's overflow error ([`binary`](crate::eval::binary)),
/// verbatim.
#[cold]
pub(super) fn integer_overflow(op: BinaryOp) -> Error {
    Error::Eval(format!("integer overflow in {}", op.symbol()))
}

#[cold]
pub(super) fn row_out_of_range() -> Error {
    Error::Eval("string kernel row or length past 32 bits".into())
}

#[cold]
pub(super) fn binding_out_of_bounds() -> Error {
    Error::Eval("kernel binding out of bounds".into())
}

#[cold]
pub(super) fn generic_state_mismatch() -> Error {
    Error::Eval("window state does not match its program's generic aggregates".into())
}

/// Lane `n` of a window as a [`Binding`](super::fold::Binding) indexes it,
/// or the typed error of a window with more lanes than that index reaches.
pub(super) fn lane_index(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| Error::Plan(format!("window lane {n} is past a binding's index")))
}
