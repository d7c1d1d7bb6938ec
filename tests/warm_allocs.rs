//! Zero warm allocations on the `serve_short` shape: two windows on one key
//! plus a LAST JOIN. Once a deployment's scratch is warm, the only heap a
//! request may touch is its output row — the joined row is decoded from its
//! stored bytes straight into the pooled combined row, the two windows fold
//! off one pooled scan. (One request in 64 is the span tracer's sample, and
//! hands it one retained `Vec` more.) The same holds for a window mixing every
//! kernel family: expression registers, count-map tables and the generic
//! unit's aggregators are pooled state, cleared and never freed.
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
    // A latency spike must not dump a (heap-allocated) post-mortem mid-count.
    openmldb::obs::flight::set_slow_query_threshold_ns(u64::MAX);
    for name in ["short", "mixed"] {
        assert_warm_requests_allocate_only_their_output_row(&db, name);
    }
}

fn assert_warm_requests_allocate_only_their_output_row(db: &Database, name: &str) {
    let requests: Vec<Row> = (0..512i64)
        .map(|i| t1_row(900_000 + i, i % 9, 1.5, 30_000 + i * 17))
        .collect();
    // Warm-up: the scratch pool, the scan arena, the sampled-key sketch.
    // Every 64th request offers its key to the sketch; a round one request
    // longer than a multiple of 64 shifts which ones, so nine rounds offer
    // each of the nine keys before the count starts.
    for _ in 0..9 {
        for request in requests.iter().chain(&requests[..1]) {
            db.request_readonly(name, request).unwrap();
        }
    }

    // What building the answer costs on its own: the projected `Vec` and
    // the `Row` that takes it over.
    let answer = db.request_readonly(name, &requests[0]).unwrap();
    assert!(answer.values().iter().all(|v| !matches!(v, Value::Str(_))));
    let (_, output_row) = allocations(|| {
        let mut projected = Vec::with_capacity(answer.len());
        projected.extend(answer.values().iter().cloned());
        Row::new(projected)
    });

    // The tracer keeps the span trace of one request in `sample_every`: that
    // request allocates the `Vec` the tracer retains, every other one the
    // output row alone.
    let counts: Vec<u64> = requests
        .iter()
        .map(|request| {
            let (out, n) = allocations(|| db.request_readonly(name, request));
            out.unwrap();
            n
        })
        .collect();
    let traced = requests.len() as u64 / openmldb::obs::Tracer::global().sample_every() + 1;
    let above = counts.iter().filter(|&&n| n > output_row).count() as u64;
    assert_eq!(counts.iter().min(), Some(&output_row));
    assert!(
        counts.iter().all(|&n| n <= output_row + 1) && above <= traced,
        "a warm `{name}` request allocates its output row ({output_row}) and nothing else: {counts:?}"
    );
}
