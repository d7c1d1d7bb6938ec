//! Seeded input generation: the table rows, the request ring and the ingest
//! stream of every workload come from `--seed` and are built before any
//! clock starts. The program under test receives only the generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use openmldb_types::{Row, Value};

/// What a workload's timed phase drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Database::request_readonly` from this many closed-loop clients.
    Serve { clients: usize },
    /// `Database::insert_row` on a durable database, a request after every
    /// eighth put, then drain and recover.
    Ingest,
    /// `Database::offline_query_with` (one thread) of the whole table, batch
    /// after batch.
    Offline,
}

/// One workload: its name, what it drives and how much.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Timed operations per client per second of `--seconds`. Counts are
    /// fixed, not durations, so streams, answers and counters are identical
    /// on both sides of a comparison; the rates are sized so that the timed
    /// phase takes about 0.8 × `--seconds` on the 2-core sandbox, and the
    /// phase stops early at 3 × `--seconds` if the host is that slow.
    pub ops_per_second: f64,
    /// Distinct requests each serving client cycles through in the timed
    /// phase; the end-to-end estimators keep the fastest repeat of each.
    /// Few, so that each is repeated hundreds of times in a default run:
    /// with 8,192 distinct requests (110 repeats) ten `serve_short` runs
    /// ranged over 10%, with 1,024 (880 repeats) over 3%. Not read by the
    /// other kinds (puts cannot be repeated, batches are all alike).
    pub distinct: usize,
    /// Operations replayed with tracing on in a `--trace 1` run.
    pub traced_ops: usize,
    /// Base-table rows loaded during set-up.
    pub rows: usize,
    /// Rows of the base table the put and offline probes of a traced run use.
    pub probe_rows: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve_short",
        kind: Kind::Serve { clients: 1 },
        ops_per_second: 150_000.0,
        distinct: 1_024,
        traced_ops: 40_000,
        rows: 200_000,
        probe_rows: 20_000,
    },
    Workload {
        name: "serve_short_2t",
        kind: Kind::Serve { clients: 2 },
        ops_per_second: 95_000.0,
        distinct: 512,
        traced_ops: 40_000,
        rows: 200_000,
        probe_rows: 20_000,
    },
    Workload {
        name: "serve_scan",
        kind: Kind::Serve { clients: 1 },
        ops_per_second: 60_000.0,
        distinct: 128,
        traced_ops: 4_000,
        rows: 40_000,
        probe_rows: 20_000,
    },
    Workload {
        name: "serve_wide",
        kind: Kind::Serve { clients: 1 },
        ops_per_second: 3_600.0,
        distinct: 32,
        traced_ops: 600,
        rows: 16_000,
        probe_rows: 1_000,
    },
    Workload {
        name: "ingest_mixed",
        kind: Kind::Ingest,
        ops_per_second: 40_000.0,
        distinct: 1,
        traced_ops: 10_000,
        // Few: every preloaded row is a WAL write, and the disk is the
        // host's (see the README on `setup_s`).
        rows: 2_000,
        probe_rows: 2_000,
    },
    Workload {
        name: "offline_batch",
        kind: Kind::Offline,
        ops_per_second: 55.0,
        distinct: 1,
        traced_ops: 10_000,
        rows: 4_000,
        probe_rows: 4_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A `--quick` run divides every size by this (the 1/50-scale smoke test).
pub const QUICK_DIVISOR: usize = 50;

/// One table of a workload: DDL and the rows set-up loads.
pub struct TableData {
    pub name: &'static str,
    pub ddl: String,
    pub rows: Vec<Row>,
}

/// Everything a workload's set-up, timed phase and probes consume.
pub struct Shape {
    /// Base table first, then LAST JOIN tables.
    pub tables: Vec<TableData>,
    /// The feature script, without the `DEPLOY ... AS` prefix.
    pub select_sql: String,
    /// `OPTIONS(...) ` with a trailing space, or empty.
    pub deploy_options: &'static str,
    /// Ring of request rows for the base table.
    pub requests: Vec<Row>,
    /// Rows the timed phase of `ingest_mixed` inserts, continuing the base
    /// table's ids and clock. Empty elsewhere.
    pub stream: Vec<Row>,
}

impl Shape {
    pub fn deploy_sql(&self, name: &str) -> String {
        format!(
            "DEPLOY {name} {}AS {}",
            self.deploy_options, self.select_sql
        )
    }
}

/// Name every workload deploys its feature script under.
pub const DEPLOYMENT: &str = "bench";

const CATEGORIES: [&str; 6] = ["shoes", "bags", "shirts", "phones", "books", "toys"];

const T1_COLUMNS: &str =
    "id BIGINT, k BIGINT, v DOUBLE, category STRING, quantity INT, ts TIMESTAMP";

/// Column positions in `t1`.
pub const T1_ID: usize = 0;
pub const T1_KEY: usize = 1;

fn t1_row(rng: &mut StdRng, cats: &[Value], id: i64, key: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(key),
        Value::Double(rng.gen_range(1.0..500.0)),
        cats[rng.gen_range(0..cats.len())].clone(),
        Value::Int(rng.gen_range(1..5)),
        Value::Timestamp(ts),
    ])
}

fn categories() -> Vec<Value> {
    CATEGORIES.iter().map(|c| Value::string(*c)).collect()
}

/// Request ids start here so they never collide with stored row ids.
const REQUEST_ID_BASE: i64 = 1_000_000_000;

/// `rows` rows of `t1`, `step_ms` apart, keys drawn by `key`.
fn t1_rows(
    rng: &mut StdRng,
    rows: usize,
    first_id: i64,
    step_ms: i64,
    mut key: impl FnMut(&mut StdRng) -> i64,
) -> Vec<Row> {
    let cats = categories();
    (0..rows as i64)
        .map(|i| {
            let id = first_id + i;
            let k = key(rng);
            t1_row(rng, &cats, id, k, id * step_ms)
        })
        .collect()
}

/// A ring of `n` `t1` requests with uniform keys and timestamps uniform in
/// the last `recent_ms` of the table's clock (`end_ts`), so the hot set stays
/// near the per-core L2 while the table itself is larger.
fn t1_requests(rng: &mut StdRng, n: usize, keys: i64, end_ts: i64, recent_ms: i64) -> Vec<Row> {
    let cats = categories();
    (0..n as i64)
        .map(|i| {
            // Odd timestamps never tie with a stored row (stored rows sit on
            // multiples of the even step), so which rows a ROWS frame holds
            // does not depend on how equal timestamps happen to be ordered.
            let ts = (end_ts - rng.gen_range(0..recent_ms.max(1))).max(0) | 1;
            let k = rng.gen_range(0..keys);
            t1_row(rng, &cats, REQUEST_ID_BASE + i, k, ts)
        })
        .collect()
}

/// Request-ring length for the narrow `t1` schema.
const RING: usize = 65_536;
/// The wide schema's rows are ~2.5 KB decoded; a 65,536-row ring would be
/// 160 MB of benchmark memory inside `peak_rss_mb`.
const WIDE_RING: usize = 4_096;

fn scaled(n: usize, quick: bool) -> usize {
    if quick {
        (n / QUICK_DIVISOR).max(64)
    } else {
        n
    }
}

const SHORT_SQL: &str = "SELECT t1.id, t1.k, sum(v) OVER w0 AS s0, count(v) OVER w0 AS c0, \
     max(v) OVER w0 AS m0, avg(v) OVER w1 AS a1, min(v) OVER w1 AS n1, dim0.w0 \
     FROM t1 LAST JOIN dim0 ORDER BY dim0.updated ON t1.k = dim0.k \
     WINDOW w0 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW), \
     w1 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)";

const SCAN_SQL: &str =
    "SELECT t1.id, sum(v) OVER w AS s, count(v) OVER w AS c, max(v) OVER w AS m, \
     avg(v) OVER w AS a, min(quantity) OVER w AS q FROM t1 \
     WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 80s PRECEDING AND CURRENT ROW)";

const LONG_SQL: &str =
    "SELECT t1.id, sum(v) OVER w1 AS s, count(v) OVER w1 AS c, avg(v) OVER w1 AS a \
     FROM t1 \
     WINDOW w1 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)";

const OFFLINE_SQL: &str = "SELECT t1.id, sum(v) OVER wa AS s, count(v) OVER wa AS c, \
     max(v) OVER wb AS m, avg(v) OVER wb AS a, \
     distinct_count(category) OVER wc AS d, min(quantity) OVER wc AS q FROM t1 \
     WINDOW wa AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 30s PRECEDING AND CURRENT ROW), \
     wb AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 600s PRECEDING AND CURRENT ROW), \
     wc AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 50 PRECEDING AND CURRENT ROW)";

/// `wide`: `k, ts, cat, v0..v99`.
pub const WIDE_VALUES: usize = 100;

fn wide_ddl() -> String {
    let cols: Vec<String> = (0..WIDE_VALUES).map(|i| format!("v{i} DOUBLE")).collect();
    format!(
        "CREATE TABLE wide (k BIGINT, ts TIMESTAMP, cat STRING, {}, INDEX(KEY=k, TS=ts))",
        cols.join(", ")
    )
}

/// 100 sums and 10 distinct counts on the 2 s range window, 50 plain and 50
/// computed averages and a top-2 frequency on the 20-row window: 211
/// features, Table 3's middle row.
fn wide_sql() -> String {
    let mut select = Vec::new();
    for i in 0..WIDE_VALUES {
        select.push(format!("sum(v{i}) OVER w AS s{i}"));
    }
    for i in 0..10 {
        select.push(format!("distinct_count(v{i}) OVER w AS d{i}"));
    }
    for i in 0..50 {
        select.push(format!("avg(v{i}) OVER w2 AS a{i}"));
    }
    for i in 50..WIDE_VALUES {
        select.push(format!("avg(v{i} * 2.0 + 1.0) OVER w2 AS e{i}"));
    }
    select.push("topn_frequency(cat, 2) OVER w2 AS top".into());
    format!(
        "SELECT {} FROM wide \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW), \
         w2 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 20 PRECEDING AND CURRENT ROW)",
        select.join(", ")
    )
}

fn wide_row(rng: &mut StdRng, cats: &[Value], key: i64, ts: i64) -> Row {
    let mut values = Vec::with_capacity(3 + WIDE_VALUES);
    values.push(Value::Bigint(key));
    values.push(Value::Timestamp(ts));
    values.push(cats[rng.gen_range(0..cats.len())].clone());
    // Few distinct values per column so distinct_count has something to do.
    values.extend((0..WIDE_VALUES).map(|_| Value::Double(f64::from(rng.gen_range(0..64)) * 0.25)));
    Row::new(values)
}

fn t1_ddl(indexes: &str) -> String {
    format!("CREATE TABLE t1 ({T1_COLUMNS}, {indexes})")
}

/// Zipf sampler over `{0, .., n-1}` with exponent 1.0 (inverse-CDF lookup).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                cum += w / total;
                cum
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as i64
    }
}

/// Build the inputs of `w` from `seed`. `stream_rows` is how many rows the
/// ingest timed phase may insert (0 for other kinds).
pub fn shape(w: &Workload, seed: u64, quick: bool, stream_rows: usize) -> Shape {
    // Each workload gets its own stream of the seed, so adding a workload
    // never changes another's inputs.
    let salt = w.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let rows = scaled(w.rows, quick);
    match w.name {
        "serve_short" | "serve_short_2t" => {
            // Both share one database shape: the 2-client run must differ from
            // the 1-client run in contention only.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e72_7665_5f73_686f);
            let keys = 64;
            // One row per 10 ms, 64 uniform keys: one row / 640 ms / key.
            let base = t1_rows(&mut rng, rows, 0, 10, |r| r.gen_range(0..keys));
            let end_ts = rows as i64 * 10;
            let dim = (0..keys)
                .map(|k| {
                    Row::new(vec![
                        Value::Bigint(k),
                        Value::Double(k as f64 + 0.5),
                        Value::Timestamp(1),
                    ])
                })
                .collect();
            Shape {
                requests: t1_requests(&mut rng, RING, keys, end_ts, 60_000),
                tables: vec![
                    TableData {
                        name: "t1",
                        ddl: t1_ddl("INDEX(KEY=k, TS=ts)"),
                        rows: base,
                    },
                    TableData {
                        name: "dim0",
                        ddl: "CREATE TABLE dim0 (k BIGINT, w0 DOUBLE, updated TIMESTAMP, \
                              INDEX(KEY=k, TS=updated))"
                            .into(),
                        rows: dim,
                    },
                ],
                select_sql: SHORT_SQL.into(),
                deploy_options: "",
                stream: Vec::new(),
            }
        }
        "serve_scan" => {
            // One row per 40 ms, 4 keys: one row / 160 ms / key, so the 80 s
            // window holds ~500 rows.
            let keys = 4;
            let base = t1_rows(&mut rng, rows, 0, 40, |r| r.gen_range(0..keys));
            let end_ts = rows as i64 * 40;
            Shape {
                requests: t1_requests(&mut rng, RING, keys, end_ts, 40_000),
                tables: vec![TableData {
                    name: "t1",
                    ddl: t1_ddl("INDEX(KEY=k, TS=ts)"),
                    rows: base,
                }],
                select_sql: SCAN_SQL.into(),
                deploy_options: "",
                stream: Vec::new(),
            }
        }
        "serve_wide" => {
            // 8 keys, one row / 50 ms / key: ~40 rows in the 2 s window.
            let keys = 8;
            let cats = categories();
            let ts_of = |i: usize| (i as i64 * 50) / keys;
            let base = (0..rows)
                .map(|i| {
                    let k = rng.gen_range(0..keys);
                    wide_row(&mut rng, &cats, k, ts_of(i))
                })
                .collect();
            let end_ts = ts_of(rows);
            let requests = (0..WIDE_RING)
                .map(|_| {
                    let ts = (end_ts - rng.gen_range(0..2_500i64)).max(0);
                    let k = rng.gen_range(0..keys);
                    wide_row(&mut rng, &cats, k, ts)
                })
                .collect();
            Shape {
                requests,
                tables: vec![TableData {
                    name: "wide",
                    ddl: wide_ddl(),
                    rows: base,
                }],
                select_sql: wide_sql(),
                deploy_options: "",
                stream: Vec::new(),
            }
        }
        "ingest_mixed" => {
            // 256 keys, rows 2 s apart; a second index on `category`.
            let keys = 256;
            let step = 2_000;
            let base = t1_rows(&mut rng, rows, 0, step, |r| r.gen_range(0..keys));
            let stream = t1_rows(&mut rng, stream_rows, rows as i64, step, |r| {
                r.gen_range(0..keys)
            });
            // One request per eight stream rows, on the newest stored
            // timestamp; the ring for probes sits at the end of the preload.
            let cats = categories();
            let n_requests = if stream.is_empty() {
                RING.min(rows * 4)
            } else {
                stream.len() / 8
            };
            let requests = (0..n_requests)
                .map(|m| {
                    let ts = match stream.get(m * 8 + 7) {
                        Some(row) => row.ts_at(5),
                        None => rows as i64 * step,
                    };
                    let k = rng.gen_range(0..keys);
                    t1_row(&mut rng, &cats, REQUEST_ID_BASE + m as i64, k, ts)
                })
                .collect();
            Shape {
                requests,
                tables: vec![TableData {
                    name: "t1",
                    ddl: t1_ddl("INDEX(KEY=k, TS=ts), INDEX(KEY=category, TS=ts)"),
                    rows: base,
                }],
                select_sql: LONG_SQL.into(),
                deploy_options: "OPTIONS(long_windows=\"w1:1h\") ",
                stream,
            }
        }
        "offline_batch" => {
            // 200 keys, Zipf s=1.0 (the skewed keys of Fig 13), one row per
            // 500 ms: the hottest key sees a row every ~3 s.
            let keys = 200;
            let zipf = Zipf::new(keys);
            let base = t1_rows(&mut rng, rows, 0, 500, |r| zipf.sample(r));
            let end_ts = rows as i64 * 500;
            Shape {
                requests: t1_requests(&mut rng, RING.min(rows * 4), keys as i64, end_ts, 60_000),
                tables: vec![TableData {
                    name: "t1",
                    ddl: t1_ddl("INDEX(KEY=k, TS=ts)"),
                    rows: base,
                }],
                select_sql: OFFLINE_SQL.into(),
                deploy_options: "",
                stream: Vec::new(),
            }
        }
        other => unreachable!("no shape for workload `{other}`"),
    }
}

// ------------------------------------------------------------- digests ---

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn hash_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.write(&[0]),
        Value::Bool(b) => h.write(&[1, u8::from(*b)]),
        Value::Int(x) => {
            h.write(&[2]);
            h.write(&x.to_le_bytes());
        }
        Value::Bigint(x) => {
            h.write(&[3]);
            h.write(&x.to_le_bytes());
        }
        Value::Float(x) => {
            h.write(&[4]);
            h.write(&x.to_bits().to_le_bytes());
        }
        Value::Double(x) => {
            h.write(&[5]);
            h.write(&x.to_bits().to_le_bytes());
        }
        Value::Timestamp(x) => {
            h.write(&[6]);
            h.write(&x.to_le_bytes());
        }
        Value::Str(s) => {
            h.write(&[7]);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
    }
}

/// Digest of one row (type tags included, so `1` and `1.0` differ).
pub fn row_hash(row: &Row) -> u64 {
    let mut h = Fnv::default();
    for v in row.values() {
        hash_value(&mut h, v);
    }
    h.finish()
}

/// Order-dependent digest of a row sequence (generator determinism).
pub fn rows_digest(rows: &[Row]) -> u64 {
    let mut h = Fnv::default();
    for row in rows {
        h.write(&row_hash(row).to_le_bytes());
    }
    h.finish()
}

/// Order-independent digest of a set of answers: the wrapping sum of the
/// rows' hashes, so two clients may interleave freely.
#[derive(Default, Clone, Copy)]
pub struct AnswersDigest(u64);

impl AnswersDigest {
    pub fn add(&mut self, row: &Row) {
        self.0 = self.0.wrapping_add(row_hash(row));
    }

    pub fn merge(&mut self, other: AnswersDigest) {
        self.0 = self.0.wrapping_add(other.0);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(seed: u64) -> Vec<(u64, u64, u64)> {
        WORKLOADS
            .iter()
            .map(|w| {
                let s = shape(w, seed, true, 400);
                (
                    rows_digest(&s.tables[0].rows),
                    rows_digest(&s.requests),
                    rows_digest(&s.stream),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_tables_and_streams() {
        assert_eq!(digests(1), digests(1));
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        for ((t1, r1, _), (t2, r2, _)) in digests(1).into_iter().zip(digests(2)) {
            assert_ne!(t1, t2);
            assert_ne!(r1, r2);
        }
    }

    #[test]
    fn short_workloads_share_one_database_shape() {
        let a = shape(workload("serve_short").unwrap(), 3, true, 0);
        let b = shape(workload("serve_short_2t").unwrap(), 3, true, 0);
        assert_eq!(
            rows_digest(&a.tables[0].rows),
            rows_digest(&b.tables[0].rows)
        );
        assert_eq!(rows_digest(&a.requests), rows_digest(&b.requests));
    }

    #[test]
    fn answers_digest_ignores_order_but_not_content() {
        let rows = t1_rows(&mut StdRng::seed_from_u64(9), 3, 0, 10, |_| 1);
        let mut fwd = AnswersDigest::default();
        let mut rev = AnswersDigest::default();
        rows.iter().for_each(|r| fwd.add(r));
        rows.iter().rev().for_each(|r| rev.add(r));
        assert_eq!(fwd.hex(), rev.hex());
        let mut fewer = AnswersDigest::default();
        rows[..2].iter().for_each(|r| fewer.add(r));
        assert_ne!(fwd.hex(), fewer.hex());
        assert_ne!(
            row_hash(&Row::new(vec![Value::Bigint(1)])),
            row_hash(&Row::new(vec![Value::Double(1.0)]))
        );
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        assert!(workload("nope").is_none());
    }
}
