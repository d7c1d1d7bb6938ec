//! Row encoding formats.
//!
//! Two codecs live here:
//!
//! * [`compact`] — OpenMLDB's compact in-memory format (paper Section 7.1,
//!   Figure 5): a 6-byte header, a byte-granular NULL bitmap, tightly packed
//!   fixed-width fields (4-byte ints/floats), and variable-length fields
//!   stored as offsets with no per-string length words.
//! * [`unsafe_row`] — a Spark-`UnsafeRow`-style format used as the memory
//!   baseline: a word-aligned null bitset and one 8-byte slot per field.
//!
//! The paper's worked example (20 ints + 20 floats + 20 one-byte strings +
//! 5 timestamps → 255 bytes vs 556 bytes, a 54% saving) is verified exactly
//! by unit tests in both modules.
//!
//! Despite the `unsafe_row` name (inherited from Spark's `UnsafeRow`),
//! neither codec contains any `unsafe` code: both work on plain byte
//! slices with bounds-checked indexing. The remaining sharp edge is an `as`
//! cast that drops bits of row data: clippy's `cast_possible_truncation` is
//! denied here, so a narrowing cast uses `try_from`, or states in an
//! `#[expect(.., reason = "...")]` why the dropped bits are not data (the
//! two 32-bit slot reads of `unsafe_row`).

#![deny(clippy::cast_possible_truncation)]

pub mod compact;
pub mod unsafe_row;

pub use compact::{CompactCodec, Field, RowView, ValueRef};
pub use unsafe_row::UnsafeRowCodec;

use crate::error::Result;
use crate::row::Row;

/// Common interface over the row codecs so benches can swap them.
pub trait RowCodec {
    /// Encode a decoded row into a fresh byte buffer.
    fn encode(&self, row: &Row) -> Result<Vec<u8>>;
    /// Decode a buffer produced by [`RowCodec::encode`].
    fn decode(&self, buf: &[u8]) -> Result<Row>;
    /// The exact encoded size of `row` without materializing the buffer.
    fn encoded_size(&self, row: &Row) -> Result<usize>;
}
