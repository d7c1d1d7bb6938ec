//! OpenMLDB compact row format (paper Section 7.1, Figure 5).
//!
//! Layout, in order:
//!
//! ```text
//! +--------+---------+--------------------+------------------+-----------+
//! | header | bitmap  | fixed-width fields | var-field offsets| var bytes |
//! | 6 B    | ⌈n/8⌉ B | Σ fixed sizes      | n_var × ow       | Σ lens    |
//! +--------+---------+--------------------+------------------+-----------+
//! ```
//!
//! * **Header (6 bytes)** — field version (1 B), schema version (1 B), and
//!   total row size (4 B little-endian). Fewer than 64 versions are expected,
//!   so one byte each suffices (paper wording).
//! * **BitMap** — one bit per column marking NULL, allocated in byte units.
//! * **Fixed fields** — packed at their natural width: `INT`/`FLOAT` take
//!   4 bytes (unlike Spark's uniform 8-byte slots), `BIGINT`/`DOUBLE`/
//!   `TIMESTAMP` take 8, `BOOL` takes 1. Offsets are precomputed per schema
//!   ("compact offset calculation"), so field access is one add, not a scan.
//! * **Var fields** — only *end offsets* are stored, at the narrowest width
//!   (1/2/4 bytes) that can address the string area; a string's length is the
//!   difference between its offset and the previous one, so no 32-bit length
//!   words are spent per string.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

use super::RowCodec;

/// Fixed header length: field version (1) + schema version (1) + size (4).
pub const HEADER_SIZE: usize = 6;

/// Per-schema compact codec with precomputed field offsets.
#[derive(Debug, Clone)]
pub struct CompactCodec {
    schema: Schema,
    /// Byte offset of each fixed-width column within the fixed area;
    /// `usize::MAX` for var-length columns.
    fixed_offsets: Arc<[usize]>,
    /// Total size of the fixed-width area.
    fixed_area: usize,
    /// Column indices of var-length (string) columns, in schema order.
    var_columns: Arc<[usize]>,
    /// Per-column ordinal within the var area (`usize::MAX` for fixed
    /// columns) so a view can locate a string's offsets in O(1).
    var_pos: Arc<[usize]>,
    bitmap_len: usize,
    field_version: u8,
    schema_version: u8,
}

impl CompactCodec {
    pub fn new(schema: Schema) -> Self {
        Self::with_versions(schema, 1, 1)
    }

    /// Codec with explicit format/schema versions (recorded in the header).
    pub fn with_versions(schema: Schema, field_version: u8, schema_version: u8) -> Self {
        let mut fixed_offsets = Vec::with_capacity(schema.len());
        let mut var_columns = Vec::new();
        let mut var_pos = Vec::with_capacity(schema.len());
        let mut cursor = 0usize;
        for (i, col) in schema.columns().iter().enumerate() {
            match col.data_type.fixed_size() {
                Some(sz) => {
                    fixed_offsets.push(cursor);
                    var_pos.push(usize::MAX);
                    cursor += sz;
                }
                None => {
                    fixed_offsets.push(usize::MAX);
                    var_pos.push(var_columns.len());
                    var_columns.push(i);
                }
            }
        }
        let bitmap_len = schema.len().div_ceil(8);
        CompactCodec {
            schema,
            fixed_offsets: fixed_offsets.into(),
            fixed_area: cursor,
            var_columns: var_columns.into(),
            var_pos: var_pos.into(),
            bitmap_len,
            field_version,
            schema_version,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Absolute byte offset of fixed-width column `i` within an encoded row
    /// (`None` for var-length columns). Deploy-time plan specialization bakes
    /// these into compiled programs so the per-row read is a single indexed
    /// load with no layout lookup.
    pub fn fixed_field_offset(&self, i: usize) -> Option<usize> {
        let off = *self.fixed_offsets.get(i)?;
        (off != usize::MAX).then(|| HEADER_SIZE + self.bitmap_len + off)
    }

    /// Minimum valid encoded length for this schema: header + null bitmap +
    /// fixed area. Every fixed-width field of a buffer at least this long is
    /// addressable via [`Self::fixed_field_offset`].
    pub fn min_encoded_len(&self) -> usize {
        HEADER_SIZE + self.bitmap_len + self.fixed_area
    }

    /// Schema version recorded in (and required of) every row header.
    pub fn schema_version(&self) -> u8 {
        self.schema_version
    }

    /// Width in bytes of one var-field offset, given the string area size.
    /// The narrowest of 1/2/4 that can address `var_bytes` is used.
    fn offset_width(var_bytes: usize) -> usize {
        if var_bytes < (1 << 8) {
            1
        } else if var_bytes < (1 << 16) {
            2
        } else {
            4
        }
    }

    /// Total byte length of string data in `row` (NULLs contribute zero).
    fn var_bytes(&self, row: &[Value]) -> Result<usize> {
        let mut total = 0;
        for &ci in self.var_columns.iter() {
            match row.get(ci) {
                None | Some(Value::Null) => {}
                Some(Value::Str(s)) => total += s.len(),
                Some(other) => {
                    return Err(Error::Codec(format!(
                        "column {ci} expects STRING, row has {other:?}"
                    )))
                }
            }
        }
        Ok(total)
    }

    fn layout(&self, row: &[Value]) -> Result<(usize, usize)> {
        let var_bytes = self.var_bytes(row)?;
        let ow = Self::offset_width(var_bytes);
        let total = HEADER_SIZE
            + self.bitmap_len
            + self.fixed_area
            + self.var_columns.len() * ow
            + var_bytes;
        Ok((total, ow))
    }
}

#[cold]
fn row_too_long(len: usize) -> Error {
    Error::Codec(format!(
        "encoded row of {len} bytes past the 32-bit length field"
    ))
}

/// Write `bytes` at `at` of `buf`, an encoded row sized by its layout.
fn put(buf: &mut [u8], at: usize, bytes: &[u8]) -> Result<()> {
    let dst = at
        .checked_add(bytes.len())
        .and_then(|end| buf.get_mut(at..end));
    let dst = dst.ok_or_else(|| Error::Codec(format!("encoded field at {at} outside its row")))?;
    dst.copy_from_slice(bytes);
    Ok(())
}

impl RowCodec for CompactCodec {
    fn encoded_size(&self, row: &Row) -> Result<usize> {
        self.schema.validate_row(row.values())?;
        Ok(self.layout(row.values())?.0)
    }

    fn encode(&self, row: &Row) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(row.values(), &mut buf)?;
        Ok(buf)
    }

    fn decode(&self, buf: &[u8]) -> Result<Row> {
        self.decode_projected(buf, None)
    }
}

impl CompactCodec {
    /// Encode into a caller-owned buffer, clearing it first — the pooled
    /// variant of [`RowCodec::encode`]: the buffer's capacity is reused
    /// across calls, so a warm caller encodes without allocating.
    pub fn encode_into(&self, row: &[Value], buf: &mut Vec<u8>) -> Result<()> {
        self.schema.validate_row(row)?;
        let (total, ow) = self.layout(row)?;
        buf.clear();
        buf.resize(total, 0);

        // Header.
        put(buf, 0, &[self.field_version, self.schema_version])?;
        let declared = u32::try_from(total).map_err(|_| row_too_long(total))?;
        put(buf, 2, &declared.to_le_bytes())?;

        // Null bitmap and fixed-width fields.
        let fixed_start = HEADER_SIZE + self.bitmap_len;
        for (i, (v, &off)) in row.iter().zip(self.fixed_offsets.iter()).enumerate() {
            if v.is_null() {
                if let Some(bits) = buf.get_mut(HEADER_SIZE + i / 8) {
                    *bits |= 1 << (i % 8);
                }
                continue;
            }
            // A var-width column's offset is `usize::MAX`: no fixed field.
            let Some(at) = off.checked_add(fixed_start) else {
                continue;
            };
            match v {
                Value::Bool(b) => put(buf, at, &[u8::from(*b)])?,
                Value::Int(x) => put(buf, at, &x.to_le_bytes())?,
                Value::Float(x) => put(buf, at, &x.to_le_bytes())?,
                Value::Bigint(x) | Value::Timestamp(x) => put(buf, at, &x.to_le_bytes())?,
                Value::Double(x) => put(buf, at, &x.to_le_bytes())?,
                Value::Null | Value::Str(_) => {}
            }
        }

        // Var-length offsets + data. Offsets are *end* positions within the
        // string area so length(i) = offset(i) - offset(i-1), each `ow`
        // little-endian bytes (`offset_width` makes the cursor fit).
        let offsets_start = fixed_start + self.fixed_area;
        let data_start = offsets_start + self.var_columns.len() * ow;
        let mut cursor = 0usize;
        for (vi, &ci) in self.var_columns.iter().enumerate() {
            if let Some(Value::Str(s)) = row.get(ci) {
                put(buf, data_start + cursor, s.as_bytes())?;
                cursor += s.len();
            }
            let end = u32::try_from(cursor).unwrap_or(declared).to_le_bytes();
            put(buf, offsets_start + vi * ow, end.get(..ow).unwrap_or(&end))?;
        }
        Ok(())
    }

    /// Decode only the columns marked in `wanted` (others become `Null`),
    /// or everything when `wanted` is `None`.
    ///
    /// This is the "compact offset calculation" fast path of Section 7.1:
    /// fixed-width fields are read by precomputed offset without touching
    /// the rest of the row, so a window scan evaluating `sum(price)` never
    /// pays for decoding (or allocating) the row's strings.
    pub fn decode_projected(&self, buf: &[u8], wanted: Option<&[bool]>) -> Result<Row> {
        let view = self.view(buf)?;
        let skip = |i: usize| wanted.is_some_and(|w| !w.get(i).copied().unwrap_or(false));
        let read = |i| if skip(i) { Ok(Value::Null) } else { view.get_value(i) };
        (0..self.schema.len())
            .map(read)
            .collect::<Result<_>>()
            .map(Row::new)
    }

    /// Validate `buf` against this codec and resolve the section starts.
    ///
    /// All whole-buffer checks (declared length, schema version, offset
    /// width inference) happen here exactly once; every later per-field
    /// read only needs bounds-checked slice indexing.
    fn parse_layout(&self, buf: &[u8]) -> Result<BufLayout> {
        if buf.len() < HEADER_SIZE + self.bitmap_len + self.fixed_area {
            return Err(Error::Codec(format!(
                "buffer too short: {} bytes",
                buf.len()
            )));
        }
        let declared = u32::from_le_bytes(buf[2..6].try_into().unwrap()) as usize;
        if declared != buf.len() {
            return Err(Error::Codec(format!(
                "header row size {declared} does not match buffer length {}",
                buf.len()
            )));
        }
        if buf[1] != self.schema_version {
            return Err(Error::Codec(format!(
                "schema version mismatch: buffer has v{}, codec expects v{}",
                buf[1], self.schema_version
            )));
        }

        self.sections(buf.len())
            .ok_or_else(|| Error::Codec("cannot infer var offset width".into()))
    }

    /// The section starts of a row `len` bytes long: the layout is
    /// deterministic in the length, the var-offset width the one that fits
    /// (`None` when none does).
    #[inline]
    fn sections(&self, len: usize) -> Option<BufLayout> {
        let fixed_start = HEADER_SIZE + self.bitmap_len;
        let offsets_start = fixed_start + self.fixed_area;
        let remaining = len.checked_sub(offsets_start)?;
        let n = self.var_columns.len();
        let fits =
            |ow: &usize| remaining >= n * ow && Self::offset_width(remaining - n * ow) == *ow;
        let ow = match n {
            0 => 1,
            _ => [1, 2, 4].into_iter().find(fits)?,
        };
        Some(BufLayout {
            fixed_start,
            offsets_start,
            data_start: offsets_start + n * ow,
            ow,
        })
    }

    /// Validate `buf` whole: [`Self::view`]'s checks, and every string's
    /// end offset in order and inside the string area. A row that passes
    /// reads any column through a [`Field`] with no codec error but a
    /// string's invalid UTF-8.
    pub fn check(&self, buf: &[u8]) -> Result<()> {
        let layout = self.parse_layout(buf)?;
        let area = buf.len().saturating_sub(layout.data_start);
        let mut start = 0;
        for vi in 0..self.var_columns.len() {
            let end = layout.read_offset(buf, vi);
            if end < start || end > area {
                return Err(Error::Codec(format!(
                    "string offset {end} outside {start}..={area}"
                )));
            }
            start = end;
        }
        Ok(())
    }

    /// The reader of column `i` (`None` past the schema).
    pub fn field(&self, i: usize) -> Option<Field> {
        let ty = self.schema.columns().get(i)?.data_type;
        let at = self.fixed_field_offset(i);
        Some(Field { col: i, ty, at })
    }

    /// `(c, reader of column c - at)` of each of `cols` that is a column of
    /// this codec's rows when their columns start at `at` in a wider row.
    pub fn fields(&self, cols: &[usize], at: usize) -> Vec<(usize, Field)> {
        let field = |&c: &usize| Some((c, self.field(c.checked_sub(at)?)?));
        cols.iter().filter_map(field).collect()
    }

    /// Borrow `buf` as a [`RowView`]: header/version/offset-width validation
    /// happens once here, after which every field read is in place — no
    /// `Vec<Value>` per row, strings as `&str` slices into the buffer.
    ///
    /// This is the zero-allocation counterpart of [`Self::decode_projected`];
    /// the owning decoder remains the right tool when values must outlive
    /// the buffer (e.g. rows staged into a request's combined row).
    pub fn view<'a>(&'a self, buf: &'a [u8]) -> Result<RowView<'a>> {
        let layout = self.parse_layout(buf)?;
        Ok(RowView {
            codec: self,
            buf,
            layout,
        })
    }
}

/// Resolved section starts of one validated compact buffer.
#[derive(Debug, Clone, Copy)]
struct BufLayout {
    fixed_start: usize,
    offsets_start: usize,
    data_start: usize,
    ow: usize,
}

impl BufLayout {
    /// End offset of var field `vi` within the string area.
    // The layout is produced by `CompactCodec::view`, which validates that
    // the offsets section lies inside `buf` for every var field before a
    // view exists.
    fn read_offset(&self, buf: &[u8], vi: usize) -> usize {
        let at = self.offsets_start + vi * self.ow;
        match self.ow {
            1 => buf[at] as usize,
            2 => u16::from_le_bytes(buf[at..at + 2].try_into().unwrap()) as usize,
            _ => u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize,
        }
    }
}

/// A borrowed scalar read out of a [`RowView`] — the non-owning analogue of
/// [`Value`], with strings as slices into the encoded buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i32),
    Bigint(i64),
    Float(f32),
    Double(f64),
    Timestamp(i64),
    Str(&'a str),
}

impl ValueRef<'_> {
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Promote to an owning [`Value`]. Allocates only for `Str`.
    pub fn to_value(&self) -> Value {
        match *self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(x) => Value::Int(x),
            ValueRef::Bigint(x) => Value::Bigint(x),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Double(x) => Value::Double(x),
            ValueRef::Timestamp(x) => Value::Timestamp(x),
            ValueRef::Str(s) => Value::string(s),
        }
    }
}

/// Borrowed, validated view over one compact-encoded row (paper §7.1).
///
/// Constructed by [`CompactCodec::view`]; all header checks are already
/// done, so [`RowView::get`] is a bitmap probe plus one offset add — the
/// "compact offset calculation" fast path with zero heap traffic.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    codec: &'a CompactCodec,
    buf: &'a [u8],
    layout: BufLayout,
}

impl<'a> RowView<'a> {
    /// Number of columns in the backing schema.
    pub fn len(&self) -> usize {
        self.codec.schema.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether column `i` is NULL (out-of-range columns read as NULL).
    // `i < schema.len()` is checked above the read, and view construction
    // validated the header + bitmap span.
    pub fn is_null(&self, i: usize) -> bool {
        if i >= self.codec.schema.len() {
            return true;
        }
        self.buf[HEADER_SIZE + i / 8] & (1 << (i % 8)) != 0
    }

    // HOT: per-row field read on the online scan path — no allocation.
    /// Read column `i` in place.
    pub fn get(&self, i: usize) -> Result<ValueRef<'a>> {
        let col = self
            .codec
            .schema
            .columns()
            .get(i)
            .ok_or_else(|| Error::Codec(format!("column {i} out of range")))?;
        if self.is_null(i) {
            return Ok(ValueRef::Null);
        }
        let (buf, layout) = (self.buf, &self.layout);
        let outside = || Error::Codec(format!("column {i} outside the row"));
        if col.data_type == DataType::String {
            let vi = *self.codec.var_pos.get(i).ok_or_else(outside)?;
            let end = layout.read_offset(buf, vi);
            let start = match vi.checked_sub(1) {
                Some(prev) => layout.read_offset(buf, prev),
                None => 0,
            };
            let bytes = buf
                .get(layout.data_start + start..layout.data_start + end)
                .ok_or_else(|| Error::Codec("string offset out of bounds".into()))?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| Error::Codec(format!("invalid UTF-8: {e}")))?;
            return Ok(ValueRef::Str(s));
        }
        let at = layout.fixed_start + self.codec.fixed_offsets.get(i).ok_or_else(outside)?;
        fixed(col.data_type, buf.get(at..).unwrap_or_default()).ok_or_else(outside)
    }

    /// Owned read of column `i` (allocates only for strings). Matches what
    /// [`CompactCodec::decode_projected`] would produce for that column.
    pub fn get_value(&self, i: usize) -> Result<Value> {
        Ok(self.get(i)?.to_value())
    }
}

/// The fixed-width field of type `ty` that `field` starts with (`None`: it
/// is shorter, or `ty` is not fixed-width).
#[inline]
fn fixed(ty: DataType, field: &[u8]) -> Option<ValueRef<'_>> {
    let b4 = || field.first_chunk::<4>().copied();
    let b8 = || field.first_chunk::<8>().copied();
    Some(match ty {
        DataType::Bool => ValueRef::Bool(*field.first()? != 0),
        DataType::Int => ValueRef::Int(i32::from_le_bytes(b4()?)),
        DataType::Float => ValueRef::Float(f32::from_le_bytes(b4()?)),
        DataType::Bigint => ValueRef::Bigint(i64::from_le_bytes(b8()?)),
        DataType::Timestamp => ValueRef::Timestamp(i64::from_le_bytes(b8()?)),
        DataType::Double => ValueRef::Double(f64::from_le_bytes(b8()?)),
        DataType::String => return None,
    })
}

/// One column of a codec's rows, resolved once ([`CompactCodec::field`]):
/// read as a NULL-bit probe, then a fixed-width load at its offset or a
/// string through the offsets its row's length places — every access
/// bounds-checked, the row itself not validated again. For rows
/// [`CompactCodec::check`] (or a view) validated.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    col: usize,
    ty: DataType,
    /// Absolute offset of a fixed-width field (`None`: a string).
    at: Option<usize>,
}

impl Field {
    /// This column of `buf`, a row of `codec` (the codec that resolved it).
    pub fn read<'a>(&self, codec: &'a CompactCodec, buf: &'a [u8]) -> Result<ValueRef<'a>> {
        let outside = || Error::Codec(format!("column {} outside the row", self.col));
        let bits = buf.get(HEADER_SIZE + self.col / 8).ok_or_else(outside)?;
        if bits & (1 << (self.col % 8)) != 0 {
            return Ok(ValueRef::Null);
        }
        let Some(at) = self.at else {
            let layout = codec.sections(buf.len()).ok_or_else(outside)?;
            return RowView { codec, buf, layout }.get(self.col);
        };
        fixed(self.ty, buf.get(at..).unwrap_or_default()).ok_or_else(outside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn paper_example_schema() -> Schema {
        // 20 ints, 20 floats, 20 strings, 5 timestamps — Section 7.1 example.
        let mut cols = Vec::new();
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("i{i}"), DataType::Int));
        }
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("f{i}"), DataType::Float));
        }
        for i in 0..20 {
            cols.push(ColumnDef::new(format!("s{i}"), DataType::String));
        }
        for i in 0..5 {
            cols.push(ColumnDef::new(format!("t{i}"), DataType::Timestamp));
        }
        Schema::new(cols).unwrap()
    }

    fn paper_example_row() -> Row {
        let mut v = Vec::new();
        for i in 0..20 {
            v.push(Value::Int(i));
        }
        for i in 0..20 {
            v.push(Value::Float(i as f32));
        }
        for _ in 0..20 {
            v.push(Value::string("x")); // 1-byte strings
        }
        for i in 0..5 {
            v.push(Value::Timestamp(i));
        }
        Row::new(v)
    }

    /// The paper's memory-saving arithmetic, verified byte-for-byte:
    /// header 6 + bitmap 9 + (20×4 + 20×4 + 5×8 = 200) + 20 offsets + 20 data
    /// = 255 bytes.
    #[test]
    fn paper_example_is_255_bytes() {
        let codec = CompactCodec::new(paper_example_schema());
        let row = paper_example_row();
        assert_eq!(codec.encoded_size(&row).unwrap(), 255);
        assert_eq!(codec.encode(&row).unwrap().len(), 255);
    }

    #[test]
    fn roundtrip_all_types_with_nulls() {
        let schema = Schema::from_pairs(&[
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("l", DataType::Bigint),
            ("f", DataType::Float),
            ("d", DataType::Double),
            ("t", DataType::Timestamp),
            ("s1", DataType::String),
            ("s2", DataType::String),
        ])
        .unwrap();
        let codec = CompactCodec::new(schema);
        let row = Row::new(vec![
            Value::Bool(true),
            Value::Null,
            Value::Bigint(-7),
            Value::Float(1.5),
            Value::Double(-2.25),
            Value::Timestamp(1_700_000_000_000),
            Value::Null,
            Value::string("hello world"),
        ]);
        let buf = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&buf).unwrap(), row);
    }

    #[test]
    fn offset_width_scales_with_string_size() {
        let schema = Schema::from_pairs(&[("s", DataType::String)]).unwrap();
        let codec = CompactCodec::new(schema);
        let small = Row::new(vec![Value::string("ab")]);
        // header 6 + bitmap 1 + 1 offset byte + 2 data bytes
        assert_eq!(codec.encoded_size(&small).unwrap(), 10);
        let big = Row::new(vec![Value::string("x".repeat(300))]);
        // 2-byte offsets once string area ≥ 256 bytes
        assert_eq!(codec.encoded_size(&big).unwrap(), 6 + 1 + 2 + 300);
        let huge = Row::new(vec![Value::string("x".repeat(70_000))]);
        assert_eq!(codec.encoded_size(&huge).unwrap(), 6 + 1 + 4 + 70_000);
        for row in [small, big, huge] {
            let buf = codec.encode(&row).unwrap();
            assert_eq!(codec.decode(&buf).unwrap(), row);
        }
    }

    #[test]
    fn header_records_versions_and_size() {
        let schema = Schema::from_pairs(&[("i", DataType::Int)]).unwrap();
        let codec = CompactCodec::with_versions(schema.clone(), 3, 9);
        let buf = codec.encode(&Row::new(vec![Value::Int(1)])).unwrap();
        assert_eq!(buf[0], 3);
        assert_eq!(buf[1], 9);
        assert_eq!(
            u32::from_le_bytes(buf[2..6].try_into().unwrap()) as usize,
            buf.len()
        );
        // Wrong schema version is rejected at decode time.
        let other = CompactCodec::with_versions(schema, 3, 10);
        assert!(matches!(other.decode(&buf), Err(Error::Codec(_))));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let schema = Schema::from_pairs(&[("i", DataType::Int)]).unwrap();
        let codec = CompactCodec::new(schema);
        let buf = codec.encode(&Row::new(vec![Value::Int(5)])).unwrap();
        assert!(codec.decode(&buf[..buf.len() - 1]).is_err());
        assert!(codec.decode(&buf[..3]).is_err());
    }

    #[test]
    fn type_mismatch_rejected_at_encode() {
        let schema = Schema::from_pairs(&[("s", DataType::String)]).unwrap();
        let codec = CompactCodec::new(schema);
        assert!(codec.encode(&Row::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn view_reads_every_field_in_place() {
        let schema = Schema::from_pairs(&[
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("l", DataType::Bigint),
            ("f", DataType::Float),
            ("d", DataType::Double),
            ("t", DataType::Timestamp),
            ("s1", DataType::String),
            ("s2", DataType::String),
        ])
        .unwrap();
        let codec = CompactCodec::new(schema);
        let row = Row::new(vec![
            Value::Bool(true),
            Value::Null,
            Value::Bigint(-7),
            Value::Float(1.5),
            Value::Double(-2.25),
            Value::Timestamp(1_700_000_000_000),
            Value::Null,
            Value::string("hello world"),
        ]);
        let buf = codec.encode(&row).unwrap();
        let view = codec.view(&buf).unwrap();
        assert_eq!(view.len(), 8);
        assert_eq!(view.get(0).unwrap(), ValueRef::Bool(true));
        assert!(view.is_null(1));
        assert_eq!(view.get(1).unwrap(), ValueRef::Null);
        assert_eq!(view.get(2).unwrap(), ValueRef::Bigint(-7));
        assert_eq!(view.get(3).unwrap(), ValueRef::Float(1.5));
        assert_eq!(view.get(4).unwrap(), ValueRef::Double(-2.25));
        assert_eq!(view.get(5).unwrap(), ValueRef::Timestamp(1_700_000_000_000));
        assert_eq!(view.get(6).unwrap(), ValueRef::Null);
        // The string is a slice into the encoded buffer, not a copy.
        let ValueRef::Str(s) = view.get(7).unwrap() else {
            panic!("expected string")
        };
        assert_eq!(s, "hello world");
        let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(buf_range.contains(&(s.as_ptr() as usize)));
        // Out-of-range access is a typed error, not a panic.
        assert!(view.get(8).is_err());
        assert!(view.is_null(8));
    }

    #[test]
    fn view_rejects_what_decode_rejects() {
        let schema = Schema::from_pairs(&[("i", DataType::Int)]).unwrap();
        let codec = CompactCodec::with_versions(schema.clone(), 1, 2);
        let buf = codec.encode(&Row::new(vec![Value::Int(5)])).unwrap();
        assert!(codec.view(&buf[..buf.len() - 1]).is_err());
        assert!(codec.view(&buf[..3]).is_err());
        let other = CompactCodec::with_versions(schema, 1, 3);
        assert!(other.view(&buf).is_err());
        assert!(codec.view(&buf).is_ok());
    }

    #[test]
    fn view_matches_decode_on_wide_offsets() {
        // 2-byte and 4-byte var offsets exercise every read_offset arm.
        let schema =
            Schema::from_pairs(&[("a", DataType::String), ("b", DataType::String)]).unwrap();
        let codec = CompactCodec::new(schema);
        for size in [10usize, 300, 70_000] {
            let row = Row::new(vec![Value::string("x".repeat(size)), Value::string("tail")]);
            let buf = codec.encode(&row).unwrap();
            let view = codec.view(&buf).unwrap();
            for i in 0..2 {
                assert_eq!(view.get_value(i).unwrap(), row[i]);
            }
        }
    }
}
