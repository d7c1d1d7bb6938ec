//! Every output row holds one NaN: the canonical quiet NaN, whatever NaNs
//! went in. Stored rows carry NaNs of both signs and several payloads, in
//! DOUBLE and FLOAT columns, and the requests carry them too; they flow
//! through `sum`, `avg` and `stddev` column kernels, one-load lanes (two or
//! more bare sums of a class), expression lanes (`avg(d * 2.0 + 1.0)`
//! twice), bare base and joined columns, and select-list arithmetic. The
//! served row, the materializing reference and the offline batch agree bit
//! for bit, every FLOAT/DOUBLE NaN in them is the canonical one, storage
//! keeps the bits it was given, and the consistency sentinel audits every
//! request with zero divergences.
//!
//! A binary of its own with a single test: the sentinel's queue and
//! sampling rate are process-wide.

use openmldb::online::{execute_request_materialized, sentinel, TableProvider};
use openmldb::{Database, Row, Value};

const DOUBLE_NANS: [u64; 5] = [
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0xfff8_dead_beef_0000,
    0x7ff0_0000_0000_0001,
];
const FLOAT_NANS: [u32; 5] = [
    0x7fc0_0000,
    0xffc0_0000,
    0x7fc0_0001,
    0xffc0_beef,
    0x7f80_0001,
];

/// A DOUBLE of row `i`, column `c`: a NaN of the palette in two rows of
/// five, a plain number otherwise.
fn double(i: i64, c: i64) -> Value {
    match (i + c) % 5 {
        0 | 3 => Value::Double(f64::from_bits(DOUBLE_NANS[((i / 5 + c) % 5) as usize])),
        _ => Value::Double((i * 7 + c) as f64 * 0.25 - 3.0),
    }
}

fn float(i: i64, c: i64) -> Value {
    match (i + c) % 5 {
        1 | 4 => Value::Float(f32::from_bits(FLOAT_NANS[((i / 5 + c) % 5) as usize])),
        _ => Value::Float((i * 3 + c) as f32 * 0.5 - 2.0),
    }
}

/// `t(id, k, d0..d3, f0, f1, ts)`.
fn t_row(id: i64, k: i64, ts: i64) -> Row {
    let mut values = vec![Value::Bigint(id), Value::Bigint(k)];
    values.extend((0..4).map(|c| double(id, c)));
    values.extend((0..2).map(|c| float(id, c)));
    values.push(Value::Timestamp(ts));
    Row::new(values)
}

const QUERY: &str = "SELECT t.id, t.d0, t.f0, p.pd, p.pf, \
     sum(d0) OVER w AS s0, sum(d1) OVER w AS s1, avg(d0) OVER w AS a0, avg(d1) OVER w AS a1, \
     stddev(d2) OVER w AS sd2, sum(d2) OVER w AS s2, sum(f0) OVER w AS sf0, \
     sum(f1) OVER w AS sf1, avg(f0) OVER w AS af0, stddev(f1) OVER w AS sdf1, \
     avg(d0 * 2.0 + 1.0) OVER w AS e0, avg(d1 * 2.0 + 1.0) OVER w AS e1, \
     sum(d3) OVER w AS s3, max(d3) OVER w AS m3, min(f1) OVER w AS n1, \
     sum(d0) OVER w AS s0_again, sum(d0) OVER w + p.pd AS x, t.d0 - t.d1 AS y \
     FROM t LAST JOIN p ORDER BY p.ts ON t.k = p.k \
     WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW)";

/// Every FLOAT/DOUBLE NaN of `row` is the canonical quiet NaN.
fn assert_canonical(row: &Row) {
    for v in row.values() {
        match v {
            Value::Double(d) if d.is_nan() => {
                assert_eq!(d.to_bits(), 0x7ff8_0000_0000_0000, "{row:?}")
            }
            Value::Float(f) if f.is_nan() => assert_eq!(f.to_bits(), 0x7fc0_0000, "{row:?}"),
            _ => {}
        }
    }
}

#[test]
fn every_output_nan_is_canonical_on_every_engine() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (id BIGINT, k BIGINT, d0 DOUBLE, d1 DOUBLE, d2 DOUBLE, d3 DOUBLE, \
         f0 FLOAT, f1 FLOAT, ts TIMESTAMP, INDEX(KEY=k, TS=ts))",
    )
    .unwrap();
    db.execute("CREATE TABLE p (k BIGINT, pd DOUBLE, pf FLOAT, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    for i in 0..120i64 {
        db.insert_row("t", &t_row(i, i % 4, i * 50)).unwrap();
    }
    for k in 0..4i64 {
        let dim = vec![
            Value::Bigint(k),
            double(k, 1),
            float(k, 0),
            Value::Timestamp(1),
        ];
        db.insert_row("p", &Row::new(dim)).unwrap();
    }
    // Storage keeps the bits it was given.
    let stored = TableProvider::table(&db, "t").unwrap().scan_all(0).unwrap();
    let bits: Vec<u64> = (stored.iter())
        .filter_map(|r| match r[2] {
            Value::Double(d) => Some(d.to_bits()),
            _ => None,
        })
        .collect();
    assert!(
        DOUBLE_NANS.iter().all(|nan| bits.contains(nan)),
        "{bits:x?}"
    );

    db.deploy(&format!("DEPLOY nans AS {QUERY}")).unwrap();
    let dep = db.deployment("nans").unwrap();
    let probes: Vec<Row> = (0..40i64)
        .map(|n| t_row(1_000 + n, n % 5, 6_000 + n * 10))
        .collect();

    // Served read-only, every request sampled: the sentinel replays each
    // through the reference and finds nothing to report.
    sentinel::reset();
    sentinel::set_sample_every(1);
    for probe in &probes {
        let served = db.request_readonly("nans", probe).unwrap();
        let reference = execute_request_materialized(&db, &dep, probe).unwrap();
        assert_eq!(served, reference, "probe {probe:?}");
        assert_canonical(&served);
    }
    sentinel::set_sample_every(0);
    if openmldb::obs::enabled() {
        let stats = db.sentinel_drain(4096);
        assert_eq!(
            (stats.audited, stats.divergences, stats.errors),
            (probes.len() as u64, 0, 0),
            "{stats:?}"
        );
    }
    sentinel::reset();

    // Stored once answered, each probe anchors one offline row that reads
    // what its request read.
    let mut answers = Vec::new();
    for probe in &probes {
        let reference = execute_request_materialized(&db, &dep, probe).unwrap();
        let served = db.request("nans", probe).unwrap();
        assert_eq!(served, reference, "probe {probe:?} stored");
        answers.push(served);
    }
    let nans = (answers.iter().flat_map(|r| r.values()))
        .filter(|v| {
            matches!(v, Value::Double(d) if d.is_nan())
                || matches!(v, Value::Float(f) if f.is_nan())
        })
        .count();
    assert!(nans > answers.len() * 5, "only {nans} NaNs answered");
    let batch = db.offline_query(QUERY).unwrap().rows;
    assert_eq!(batch.len(), 160);
    for row in &batch {
        assert_canonical(row);
    }
    for answer in &answers {
        let offline = batch.iter().find(|r| r[0] == answer[0]).unwrap();
        assert_eq!(offline, answer);
    }
}
