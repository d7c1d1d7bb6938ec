//! One warm allocation on the `serve_short` shape: two windows on one key
//! plus a LAST JOIN, with and without a residual condition. Once a
//! deployment's scratch is warm, the only heap a request may touch is its
//! output row, built in one exact-size block — each candidate's joined
//! columns are read from its stored bytes straight into the pooled
//! combined row, the residual runs over that row, the two windows fold off
//! one pooled scan, and the select list is copied into the row. A sampled
//! request (one in 64) allocates nothing more: its key goes to the
//! hot-keys sketch through a pooled string, and the record keeps no copy
//! of its events. The same holds for a window mixing every kernel family:
//! expression registers, count-map tables and the generic unit's
//! aggregators are pooled state, cleared and never freed. And for windows
//! of 100 DOUBLE sums, 100 averages and 50 `avg(v * 2.0 + 1.0)`: the
//! one-load lanes' arrays and the expression lane's member registers are
//! pooled state too.
//!
//! A binary of its own with a single test: the counting allocator is
//! process-wide, and only the serving thread's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use openmldb::{Database, Row, Value};

thread_local! {
    // `const` + `Cell<u64>`: no lazy initialization and no destructor, so
    // touching it from inside the allocator cannot allocate or re-enter.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System`, which upholds the `GlobalAlloc`
// contract; the wrapper adds only a thread-local counter bump.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: defers to `System` under the caller's layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` was produced by this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

/// A row of the `wide` table: key, timestamp, 100 DOUBLEs (one NULL in
/// seven rows, so the lane meets sparse rows too).
fn wide_row(i: i64, k: i64, ts: i64) -> Row {
    let mut values = vec![Value::Bigint(k), Value::Timestamp(ts)];
    values.extend((0..100).map(|c| match (i + c) % 7 == 0 && i % 3 == 0 {
        true => Value::Null,
        false => Value::Double(((i * 31 + c) % 64) as f64 * 0.25),
    }));
    Row::new(values)
}

fn t1_row(id: i64, k: i64, v: f64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(k),
        Value::Double(v),
        Value::Timestamp(ts),
    ])
}

#[test]
fn a_warm_request_allocates_only_its_output_row() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t1 (id BIGINT, k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE dim0 (k BIGINT, w0 DOUBLE, updated TIMESTAMP, INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    for i in 0..4_000i64 {
        // Every fourth row repeats a timestamp: the scan meets ties too.
        let ts = (i - i % 4) * 10;
        db.insert_row("t1", &t1_row(i, i % 8, (i % 97) as f64 * 0.5, ts))
            .unwrap();
    }
    for k in 0..8i64 {
        let dim = vec![
            Value::Bigint(k),
            Value::Double(k as f64 + 0.5),
            Value::Timestamp(1),
        ];
        db.insert_row("dim0", &Row::new(dim)).unwrap();
    }
    db.deploy(
        "DEPLOY short AS SELECT t1.id, t1.k, sum(v) OVER w0 AS s0, count(v) OVER w0 AS c0, \
         max(v) OVER w0 AS m0, avg(v) OVER w1 AS a1, min(v) OVER w1 AS n1, dim0.w0 \
         FROM t1 LAST JOIN dim0 ORDER BY dim0.updated ON t1.k = dim0.k \
         WINDOW w0 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW), \
         w1 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    // The residual rejects the candidate of every key but 0 here.
    db.deploy(
        "DEPLOY residual AS SELECT t1.id, sum(v) OVER w0 AS s0, dim0.w0 \
         FROM t1 LAST JOIN dim0 ORDER BY dim0.updated ON t1.k = dim0.k AND dim0.w0 < t1.v \
         WINDOW w0 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    let dep = db.deployment("short").unwrap();
    assert_eq!(dep.scan_groups(), [vec![0, 1]], "one scan for both windows");
    drop(dep);
    // Column, expression, count-map and generic kernels in one window.
    db.deploy(
        "DEPLOY mixed AS SELECT t1.id, sum(v) OVER w AS a, avg(v * 2.0 + 1.0) OVER w AS b, \
         min(id % 3) OVER w AS c, distinct_count(id) OVER w AS d, \
         count_where(v, id > 1) OVER w AS e FROM t1 \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    // 100 sums on one window, 100 averages and 50 computed averages on
    // another (`serve_wide`'s shape): two one-load lanes of 100 members
    // each and an expression lane of 50.
    let columns: Vec<String> = (0..100).map(|c| format!("v{c} DOUBLE")).collect();
    db.execute(&format!(
        "CREATE TABLE wide (k BIGINT, ts TIMESTAMP, {}, INDEX(KEY=k, TS=ts))",
        columns.join(", ")
    ))
    .unwrap();
    for i in 0..2_000i64 {
        db.insert_row("wide", &wide_row(i, i % 8, i * 20)).unwrap();
    }
    let sums = (0..100).map(|c| format!("sum(v{c}) OVER w AS s{c}, avg(v{c}) OVER w2 AS a{c}"));
    let exprs = (50..100).map(|c| format!("avg(v{c} * 2.0 + 1.0) OVER w2 AS e{c}"));
    db.deploy(&format!(
        "DEPLOY wide AS SELECT {} FROM wide \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW), \
         w2 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 20 PRECEDING AND CURRENT ROW)",
        sums.chain(exprs).collect::<Vec<_>>().join(", ")
    ))
    .unwrap();
    // A latency spike must not dump a (heap-allocated) post-mortem mid-count.
    openmldb::obs::flight::set_slow_query_threshold_ns(u64::MAX);
    let t1_requests: Vec<Row> = (0..512i64)
        .map(|i| t1_row(900_000 + i, i % 9, 1.5, 30_000 + i * 17))
        .collect();
    for name in ["short", "residual", "mixed"] {
        assert_warm_requests_allocate_only_their_output_row(&db, name, &t1_requests);
    }
    let wide_requests: Vec<Row> = (0..512i64)
        .map(|i| wide_row(i, i % 9, 38_000 + i * 3))
        .collect();
    assert_warm_requests_allocate_only_their_output_row(&db, "wide", &wide_requests);
}

fn assert_warm_requests_allocate_only_their_output_row(
    db: &Database,
    name: &str,
    requests: &[Row],
) {
    // Warm-up: the scratch pool, the scan arena, the sampled-key sketch.
    // Every 64th request offers its key to the sketch; a round one request
    // longer than a multiple of 64 shifts which ones, so nine rounds offer
    // each of the nine keys before the count starts.
    for _ in 0..9 {
        for request in requests.iter().chain(&requests[..1]) {
            db.request_readonly(name, request).unwrap();
        }
    }

    // The answer holds no string, so its row is one block of values: the
    // one allocation a warm request makes.
    let answer = db.request_readonly(name, &requests[0]).unwrap();
    assert!(answer.values().iter().all(|v| !matches!(v, Value::Str(_))));

    let counts: Vec<u64> = requests
        .iter()
        .map(|request| {
            let (out, n) = allocations(|| db.request_readonly(name, request));
            out.unwrap();
            n
        })
        .collect();
    assert!(
        counts.iter().all(|&n| n == 1),
        "a warm `{name}` request allocates its output row, in one block, and nothing else: {counts:?}"
    );
}
