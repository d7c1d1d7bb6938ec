//! The batch engine's write, move and read paths against request mode, and
//! its one check of row bytes.
//!
//! * Every probe's offline feature row equals what the deployed request
//!   returned for it, by `Value`'s exact `==` — serially, with parallel
//!   windows on two threads, and with skew slicing over Zipf-skewed keys —
//!   for select lists that read one aggregate twice, compute over an
//!   aggregate, filter with WHERE, cut with LIMIT, LAST JOIN with a
//!   residual and union a second table.
//! * `Snapshot::capture` validates each row it copies; a table whose scan
//!   yields a corrupt row fails `Database::offline_query` with a typed
//!   `Error::Codec` — never a panic — even when the query reads none of
//!   the corrupt columns.

use std::sync::Arc;

use openmldb::offline::{OfflineOptions, SkewConfig, WindowExecMode};
use openmldb::storage::sync::epoch::Guard;
use openmldb::storage::{DataTable, IndexSpec, MemTable, RowVisitor, ScanRow, Ttl};
use openmldb::{Database, Error, ExecResult, KeyValue, Result, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: usize = 12;

/// A key drawn with Zipf weights `1/k`: the first key holds about a third
/// of the rows, so skew slicing cuts it.
fn zipf(rng: &mut StdRng) -> i64 {
    let total: f64 = (1..=KEYS).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.gen_range(0.0..total);
    for k in 0..KEYS {
        u -= 1.0 / (k + 1) as f64;
        if u <= 0.0 {
            return k as i64;
        }
    }
    KEYS as i64 - 1
}

fn event(rng: &mut StdRng, id: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(zipf(rng)),
        Value::Double(rng.gen_range(-10.0..10.0)),
        Value::Int(rng.gen_range(0..4)),
        Value::string(["a", "b", "c"][rng.gen_range(0..3usize)]),
        Value::Timestamp(ts),
    ])
}

/// `events` (the base table), `extra` (its union table) and `dim` (joined),
/// filled with rows older than every probe.
fn setup(seed: u64) -> Database {
    let db = Database::new();
    for table in ["events", "extra"] {
        db.execute(&format!(
            "CREATE TABLE {table} (id BIGINT, k BIGINT, v DOUBLE, q INT, cat STRING, \
             ts TIMESTAMP, INDEX(KEY=k, TS=ts))"
        ))
        .unwrap();
    }
    db.execute(
        "CREATE TABLE dim (k BIGINT, weight DOUBLE, updated TIMESTAMP, \
         INDEX(KEY=k, TS=updated))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for id in 0..500 {
        let table = if id % 5 == 0 { "extra" } else { "events" };
        let ts = rng.gen_range(0..20_000);
        let row = event(&mut rng, id, ts);
        db.insert_row(table, &row).unwrap();
    }
    for k in 0..KEYS as i64 {
        for updated in [100, 200, 300] {
            let weight = Value::Double(rng.gen_range(-10.0..10.0));
            let row = Row::new(vec![Value::Bigint(k), weight, Value::Timestamp(updated)]);
            db.insert_row("dim", &row).unwrap();
        }
    }
    db
}

/// Probes newer than every stored row and than each other, so no probe is
/// in an earlier probe's frame.
fn probes(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    (0..60)
        .map(|i| event(&mut rng, 10_000 + i, 30_000 + 7 * i))
        .collect()
}

fn options() -> [(&'static str, OfflineOptions); 3] {
    let base = OfflineOptions {
        parallel_windows: false,
        threads: 1,
        skew: None,
        mode: WindowExecMode::Incremental,
    };
    let parallel = OfflineOptions {
        parallel_windows: true,
        threads: 2,
        ..base.clone()
    };
    let skew = OfflineOptions {
        threads: 2,
        skew: Some(SkewConfig {
            factor: 3,
            hot_threshold: 0.2,
        }),
        ..base.clone()
    };
    [("serial", base), ("parallel", parallel), ("skew", skew)]
}

/// Deploy `sql`, request every probe (each is stored after its answer),
/// then batch the base table under each option set: a probe's offline row
/// is its request's answer, or — WHERE dropped it — that answer is all
/// NULL. Returns the serial batch.
fn assert_offline_equals_request(seed: u64, name: &str, sql: &str) -> Vec<Row> {
    let db = setup(seed);
    db.deploy(&format!("DEPLOY {name} AS {sql}")).unwrap();
    let probes = probes(seed);
    let online: Vec<Row> = probes
        .iter()
        .map(|p| db.request(name, p).unwrap())
        .collect();
    let mut serial = Vec::new();
    for (mode, opts) in options() {
        let batch = db.offline_query_with(sql, &opts).unwrap().rows;
        for (probe, answer) in probes.iter().zip(&online) {
            match batch.iter().find(|r| r[0] == probe[0]) {
                Some(row) => assert_eq!(row, answer, "{name} {mode}: probe {:?}", probe[0]),
                None => assert!(
                    sql.contains("WHERE") && answer.values().iter().all(Value::is_null),
                    "{name} {mode}: probe {:?} missing",
                    probe[0]
                ),
            }
        }
        if mode == "serial" {
            serial = batch;
        } else {
            assert_eq!(
                batch, serial,
                "{name}: {mode} batch differs from the serial one"
            );
        }
    }
    serial
}

#[test]
fn shared_and_computed_aggregates_over_a_union_and_two_shapes() {
    assert_offline_equals_request(
        1,
        "shared",
        "SELECT id, sum(v) OVER w AS a, sum(v) OVER w AS b, sum(v) OVER w * 2 AS c, \
                count(v) OVER w2 AS n, max(v) OVER w2 AS m, distinct_count(cat) OVER w AS d \
         FROM events WINDOW \
         w AS (UNION extra PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW), \
         w2 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)",
    );
}

#[test]
fn last_join_with_a_residual() {
    assert_offline_equals_request(
        2,
        "joined",
        "SELECT events.id, dim.weight, sum(v) OVER w AS s, sum(v) OVER w + dim.weight AS t \
         FROM events LAST JOIN dim ORDER BY dim.updated \
         ON events.k = dim.k AND dim.weight < events.v \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)",
    );
}

#[test]
fn where_and_limit() {
    let filtered = "SELECT id, count(v) OVER w AS c, avg(v) OVER w AS a, min(q) OVER w AS lo \
                    FROM events WHERE q > 1 \
                    WINDOW w AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)";
    let all = assert_offline_equals_request(3, "filtered", filtered);
    assert!(all.iter().all(|r| r[0] != Value::Null));
    // LIMIT keeps the first rows WHERE passes, in the same order.
    let db = setup(3);
    let ExecResult::Batch(full) = db.execute(filtered).unwrap() else {
        panic!("a SELECT answers a batch")
    };
    for (mode, opts) in options() {
        let cut = db.offline_query_with(&format!("{filtered} LIMIT 25"), &opts);
        let cut = cut.unwrap().rows;
        assert_eq!(cut.len(), 25, "{mode}");
        assert_eq!(cut[..], full.rows[..25], "{mode}");
    }
}

// ---------------------------------------------------------------- capture --

/// How [`Corrupting`] damages the third row its scan yields.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Cut to fewer bytes than the fixed area.
    Short,
    /// The header declares one byte more than the row has.
    DeclaredLength,
    /// The string's end offset points past the string area.
    StringOffset,
}

/// A table whose full scan yields one damaged row; every other read goes
/// to the inner table.
struct Corrupting {
    inner: Arc<MemTable>,
    damage: Damage,
}

impl Corrupting {
    fn damaged(&self, data: &[u8]) -> Vec<u8> {
        let mut row = data.to_vec();
        match self.damage {
            Damage::Short => row.truncate(4),
            Damage::DeclaredLength => {
                let declared = u32::try_from(row.len() + 1).unwrap();
                row[2..6].copy_from_slice(&declared.to_le_bytes());
            }
            Damage::StringOffset => {
                // The one string's end offset, the byte before its data: one
                // byte wide while the string area is under 256 bytes.
                let text = "damaged".len();
                let at = row.len() - text - 1;
                row[at] = u8::MAX;
            }
        }
        row
    }
}

impl DataTable for Corrupting {
    fn name(&self) -> &str {
        DataTable::name(&*self.inner)
    }
    fn backend(&self) -> openmldb::storage::Backend {
        self.inner.backend()
    }
    fn set_max_memory_bytes(&self, limit: usize) {
        DataTable::set_max_memory_bytes(&*self.inner, limit)
    }
    fn schema(&self) -> &Schema {
        DataTable::schema(&*self.inner)
    }
    fn codec(&self) -> &openmldb::CompactCodec {
        self.inner.codec()
    }
    fn replicator(&self) -> &Arc<openmldb::storage::Replicator> {
        DataTable::replicator(&*self.inner)
    }
    fn index_specs(&self) -> Vec<IndexSpec> {
        DataTable::index_specs(&*self.inner)
    }
    fn find_index(&self, key_cols: &[usize], ts_col: Option<usize>) -> Option<usize> {
        DataTable::find_index(&*self.inner, key_cols, ts_col)
    }
    fn put(&self, row: &Row) -> Result<u64> {
        DataTable::put(&*self.inner, row)
    }
    #[allow(clippy::too_many_arguments)]
    fn walk_rows<'g>(
        &'g self,
        guard: &'g Guard,
        index_id: usize,
        key: &[KeyValue],
        lower_ts: i64,
        upper_ts: i64,
        limit: Option<usize>,
        visitor: &mut dyn FnMut(i64, ScanRow<'g, '_>) -> bool,
    ) -> Result<u64> {
        let inner = &*self.inner;
        inner.walk_rows(guard, index_id, key, lower_ts, upper_ts, limit, visitor)
    }
    fn scan_rows(&self, index_id: usize, visitor: &mut RowVisitor<'_>) -> Result<()> {
        let mut seen = 0;
        DataTable::scan_rows(&*self.inner, index_id, &mut |key, ts, data| {
            seen += 1;
            match seen {
                3 => visitor(key, ts, &self.damaged(data)),
                _ => visitor(key, ts, data),
            }
        })
    }
    fn gc(&self, now_ms: i64) -> usize {
        DataTable::gc(&*self.inner, now_ms)
    }
    fn mem_used(&self) -> usize {
        DataTable::mem_used(&*self.inner)
    }
    fn row_count(&self) -> usize {
        DataTable::row_count(&*self.inner)
    }
}

fn corrupted_db(damage: Damage) -> Database {
    let schema = Schema::from_pairs(&[
        ("id", openmldb::DataType::Bigint),
        ("k", openmldb::DataType::Bigint),
        ("v", openmldb::DataType::Double),
        ("cat", openmldb::DataType::String),
        ("ts", openmldb::DataType::Timestamp),
    ])
    .unwrap();
    let index = IndexSpec {
        name: "k_ts".into(),
        key_cols: vec![1],
        ts_col: Some(4),
        ttl: Ttl::Unlimited,
    };
    let inner = Arc::new(MemTable::new("t", schema, vec![index]).unwrap());
    for id in 0..6 {
        let row = Row::new(vec![
            Value::Bigint(id),
            Value::Bigint(id % 2),
            Value::Double(id as f64),
            Value::string("damaged"),
            Value::Timestamp(id * 10),
        ]);
        inner.put(&row).unwrap();
    }
    let db = Database::new();
    db.register_table(Arc::new(Corrupting { inner, damage }))
        .unwrap();
    db
}

#[test]
fn a_corrupt_row_fails_the_batch_with_a_codec_error() {
    let reads_the_string = "SELECT id, cat, count(v) OVER w AS c FROM t \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)";
    let reads_no_string = "SELECT id, sum(v) OVER w AS s FROM t \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)";
    for damage in [Damage::Short, Damage::DeclaredLength, Damage::StringOffset] {
        let db = corrupted_db(damage);
        for sql in [reads_the_string, reads_no_string] {
            match db.offline_query(sql) {
                Err(Error::Codec(_)) => {}
                other => panic!("{damage:?} `{sql}`: {other:?}"),
            }
        }
    }
}
