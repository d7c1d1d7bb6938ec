//! **Figure 7** — RTP (item ranking) TopN performance.
//!
//! Paper result: OpenMLDB scales near-linearly from ~0.98 ms (Top1) to
//! ~5 ms (Top8); Flink sits in the sub-100 ms range and GreenPlum worse.
//!
//! The measured unit is one *service step*: ingest `EVENTS_PER_REQUEST` new
//! ranking events, then read the user's TopN. OpenMLDB ingests into the
//! pre-ranked skiplist and computes lazily at request time; the Flink model
//! recomputes the ranking eagerly on every event; the GreenPlum model
//! rescans the full table per read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use openmldb_baselines::{FlinkLikeTopN, GreenplumLikeRanker};
use openmldb_core::Database;
use openmldb_types::{Row, Value};
use openmldb_workload::{rtp_rows, rtp_schema};

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};

const WINDOW_MS: i64 = 2_000;
const EVENTS_PER_REQUEST: usize = 20;

pub struct TopNResult {
    pub n: usize,
    pub openmldb_ms: f64,
    pub flink_ms: f64,
    pub greenplum_ms: f64,
}

pub fn run() -> Vec<TopNResult> {
    let events = scaled(50_000);
    let users = 10usize;
    let requests = scaled(500);
    let data = rtp_rows(events, users, 200, 11);
    let max_ts = events as i64;

    // OpenMLDB: a fresh database + deployment per N (matching the fresh
    // baseline state per N) over a `top(score, N)` window.
    let fresh_db = |data: &[Row]| {
        use openmldb_storage::{IndexSpec, MemTable, Ttl};
        use std::sync::Arc;
        let db = Database::new();
        let table = Arc::new(
            MemTable::new(
                "rtp",
                rtp_schema(),
                vec![IndexSpec {
                    name: "by_user".into(),
                    key_cols: vec![0],
                    ts_col: Some(3),
                    ttl: Ttl::Unlimited,
                }],
            )
            .unwrap(),
        );
        for row in data {
            table.put(row).unwrap();
        }
        db.register_table(table)
            .expect("registering on an in-memory db cannot fail");
        db
    };

    let mut rng = StdRng::seed_from_u64(3);
    let reqs: Vec<i64> = (0..requests)
        .map(|_| rng.gen_range(0..users as i64))
        .collect();
    let live_event = |i: usize, j: usize, ts: i64| {
        (reqs[i], format!("live_{i}_{j}"), 0.3 + (j as f64) * 0.1, ts)
    };
    // Each request advances the stream clock so windows slide (live events
    // eventually expire for every system).
    let anchor = |i: usize| max_ts + (i as i64 + 1) * 50;
    let mut out = Vec::new();
    for n in 1..=8usize {
        let db = fresh_db(&data);
        db.deploy(&format!(
            "DEPLOY top{n} AS SELECT user, top(score, {n}) OVER w AS ranked FROM rtp \
             WINDOW w AS (PARTITION BY user ORDER BY ts \
             ROWS_RANGE BETWEEN {WINDOW_MS} PRECEDING AND CURRENT ROW)"
        ))
        .unwrap();
        // Flink and GreenPlum runs are fresh per N (their operators/queries
        // are parameterized by N).
        let mut flink = FlinkLikeTopN::new(WINDOW_MS, n);
        let mut green = GreenplumLikeRanker::new();
        for row in &data {
            flink.insert(
                &row[0].to_string(),
                row.ts_at(3),
                row[1].as_str().unwrap(),
                row[2].as_f64().unwrap(),
            );
            green.insert(
                &row[0].to_string(),
                row.ts_at(3),
                row[1].as_str().unwrap(),
                row[2].as_f64().unwrap(),
            );
        }
        let ours = LatencyStats::from_samples(time_each(requests, |i| {
            let now = anchor(i);
            for j in 0..EVENTS_PER_REQUEST {
                let (user, item, score, ts) = live_event(i, j, now);
                db.insert_row(
                    "rtp",
                    &Row::new(vec![
                        Value::Bigint(user),
                        Value::string(item),
                        Value::Double(score),
                        Value::Timestamp(ts),
                    ]),
                )
                .unwrap();
            }
            let request = Row::new(vec![
                Value::Bigint(reqs[i]),
                Value::string("live"),
                Value::Double(0.5),
                Value::Timestamp(now),
            ]);
            db.request_readonly(&format!("top{n}"), &request).unwrap()
        }));
        let flink_stats = LatencyStats::from_samples(time_each(requests, |i| {
            let now = anchor(i);
            for j in 0..EVENTS_PER_REQUEST {
                let (user, item, score, ts) = live_event(i, j, now);
                flink.insert(&user.to_string(), ts, &item, score);
            }
            flink.query(&reqs[i].to_string(), now, n)
        }));
        // GreenPlum plans every statement: per-request SQL parse + dispatch.
        let gp_sql = format!("SELECT item, score FROM rtp WHERE user = 1 LIMIT {n}");
        let green_stats = LatencyStats::from_samples(time_each(requests, |i| {
            let now = anchor(i);
            for j in 0..EVENTS_PER_REQUEST {
                let (user, item, score, ts) = live_event(i, j, now);
                green.insert(&user.to_string(), ts, &item, score);
            }
            let plan = openmldb_sql::parse_select(&gp_sql).unwrap();
            std::hint::black_box(&plan);
            green.query(&reqs[i].to_string(), now, WINDOW_MS, n)
        }));
        out.push(TopNResult {
            n,
            openmldb_ms: ours.mean_ms,
            flink_ms: flink_stats.mean_ms,
            greenplum_ms: green_stats.mean_ms,
        });
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                format!("Top{}", r.n),
                fmt(r.openmldb_ms),
                fmt(r.flink_ms),
                fmt(r.greenplum_ms),
                format!("{:.1}x", r.flink_ms / r.openmldb_ms),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 7: RTP TopN latency, ms ({events} events, {users} users)"),
        &[
            "query",
            "OpenMLDB",
            "Flink-like",
            "GreenPlum-like",
            "vs Flink",
        ],
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn openmldb_beats_baselines_fig07() {
        // Deep enough history that the baselines' full-scan costs dominate
        // in debug builds as well.
        let results = crate::harness::with_scale(0.7, super::run);
        // Average across N: OpenMLDB under both baselines.
        let ours: f64 = results.iter().map(|r| r.openmldb_ms).sum();
        let flink: f64 = results.iter().map(|r| r.flink_ms).sum();
        let green: f64 = results.iter().map(|r| r.greenplum_ms).sum();
        assert!(ours < flink, "OpenMLDB {ours:.3} vs Flink {flink:.3}");
        assert!(ours < green, "OpenMLDB {ours:.3} vs GreenPlum {green:.3}");
    }
}
