//! Pins the Section 8.1 memory model to the allocator: `MemTable::mem_used()`
//! must stay within 10% of the heap bytes a table's indexes really hold.
//!
//! The binary installs a global allocator that keeps a running total of
//! live heap bytes as glibc accounts them (`malloc_usable_size` plus the
//! chunk header), so node rounding is measured, not assumed. One `#[test]`
//! only: the total is process-wide.

#![cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::c_void;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use openmldb_storage::{IndexSpec, MemTable, Replicator, Ttl};
use openmldb_types::{DataType, Row, Schema, Value};

extern "C" {
    fn malloc_usable_size(ptr: *mut c_void) -> usize;
}

static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Heap bytes behind `ptr`: what the caller may use plus the chunk header.
fn held(ptr: *mut u8) -> isize {
    // SAFETY: `ptr` is a live allocation of the system allocator (glibc
    // malloc or posix_memalign), which is what `malloc_usable_size` takes.
    (unsafe { malloc_usable_size(ptr.cast()) } + std::mem::size_of::<usize>()) as isize
}

struct LiveBytes;

// SAFETY: every method forwards to `System`, which upholds the `GlobalAlloc`
// contract; the wrapper only reads the size of live allocations.
unsafe impl GlobalAlloc for LiveBytes {
    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout contract as our caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(held(ptr), Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(held(ptr), Ordering::Relaxed);
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let before = held(ptr);
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(held(new) - before, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("user", DataType::Bigint),
        ("merchant", DataType::Bigint),
        ("amount", DataType::Double),
        ("note", DataType::String),
        ("ts", DataType::Timestamp),
    ])
    .unwrap()
}

fn index(name: &str, key_col: usize) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![key_col],
        ts_col: Some(4),
        ttl: Ttl::Unlimited,
    }
}

/// Heap bytes of `puts` rows in a table with `indexes`, binlog excluded,
/// next to the model's estimate.
fn measure(indexes: Vec<IndexSpec>, puts: usize) -> (isize, usize) {
    let rows: Vec<Row> = (0..puts as i64)
        .map(|i| {
            Row::new(vec![
                Value::Bigint(i % 2_000),
                Value::Bigint(i % 317),
                Value::Double(i as f64 * 0.5),
                Value::string("note".repeat(1 + (i % 5) as usize)),
                Value::Timestamp(i),
            ])
        })
        .collect();

    let before = live();
    let table = MemTable::new("t", schema(), indexes).unwrap();
    for row in &rows {
        table.put(row).unwrap();
    }
    table.replicator().flush();
    let with_binlog = live() - before;

    // `put` also appends to the in-memory binlog, which the table model
    // does not cover: rebuild exactly that log on its own and subtract it.
    // The payload `Arc`s are shared with the table, so they stay counted.
    let mut entries = Vec::with_capacity(puts);
    table.replicator().replay(0, |e| entries.push(e.clone()));
    let before = live();
    let binlog = Replicator::new();
    for e in &entries {
        binlog.append_entry(
            e.table.clone(),
            Arc::from(e.key.to_vec().into_boxed_slice()),
            e.ts,
            e.data.clone(),
        );
    }
    binlog.flush();
    let binlog_only = live() - before;

    (with_binlog - binlog_only, table.mem_used())
}

/// The model's rounding is glibc malloc's (25 requested bytes occupy a
/// 48-byte chunk, 40 of them usable). A sanitizer build swaps the allocator
/// underneath; there is nothing to pin there.
fn allocator_is_glibc_malloc() -> bool {
    let probe = Vec::<u8>::with_capacity(25);
    held(probe.as_ptr().cast_mut()) == 48
}

#[test]
fn mem_used_is_within_ten_percent_of_the_allocator() {
    if !allocator_is_glibc_malloc() {
        println!("not glibc malloc: memory model not checked");
        return;
    }
    for (label, indexes) in [
        ("one index", vec![index("by_user", 0)]),
        (
            "two indexes",
            vec![index("by_user", 0), index("by_merchant", 1)],
        ),
    ] {
        let (heap, model) = measure(indexes, 100_000);
        let ratio = model as f64 / heap as f64;
        assert!(
            (0.90..=1.10).contains(&ratio),
            "{label}: mem_used() = {model} B, allocator = {heap} B (ratio {ratio:.3})"
        );
        println!("{label}: mem_used() = {model} B, allocator = {heap} B (ratio {ratio:.3})");
    }
}
