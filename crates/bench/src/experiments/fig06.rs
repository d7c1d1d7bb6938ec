//! **Figure 6** — Online MicroBench performance comparison.
//!
//! Paper result: OpenMLDB beats MySQL(in-mem) by >68% latency, DuckDB by
//! 87.7%, Trino+Redis by >96%, with >17× throughput over the baselines.
//!
//! Workload: request-mode feature queries (window aggregates + LAST JOIN)
//! over the three MicroBench stream tables; each system stores the same
//! rows and answers the same window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use openmldb_baselines::{DuckDbLikeTable, MySqlLikeTable, TrinoRedisLike};
use openmldb_types::Value;
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_specs, micro_sql};

const FRAME_MS: i64 = 60_000;

pub fn run() -> Vec<(String, LatencyStats)> {
    let rows = scaled(20_000);
    let keys = 20usize;
    let requests = scaled(2_000);
    let cfg = MicroConfig {
        rows,
        distinct_keys: keys,
        ..Default::default()
    };
    let data = micro_rows(&cfg);
    let max_ts = data.iter().map(|r| r.ts_at(5)).max().unwrap_or(0);
    let specs = micro_specs();
    let spec_refs: Vec<_> = specs.iter().collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mut reqs: Vec<(i64, i64)> = Vec::with_capacity(requests);
    for _ in 0..requests {
        reqs.push((
            rng.gen_range(0..keys as i64),
            max_ts + rng.gen_range(0..100i64),
        ));
    }

    let mut results: Vec<(String, LatencyStats)> = Vec::new();

    // --- OpenMLDB: deployed plan, request mode -------------------------
    {
        let db = micro_db(rows, keys, 0.0, 1);
        db.deploy(&format!(
            "DEPLOY f6 AS {}",
            micro_sql(1, 1, FRAME_MS, false)
        ))
        .unwrap();
        let samples = time_each(requests, |i| {
            let (k, ts) = reqs[i];
            db.request_readonly("f6", &micro_request(1_000_000 + i as i64, k, ts))
                .unwrap()
        });
        results.push(("OpenMLDB".into(), LatencyStats::from_samples(samples)));
    }

    // --- MySQL(in-mem)-like --------------------------------------------
    {
        let mut mysql = MySqlLikeTable::new(micro_schema(), 5);
        for row in &data {
            mysql
                .insert(&row[1].to_string(), row.ts_at(5), row)
                .unwrap();
        }
        // MySQL executes interpreted SQL: every request re-parses the
        // statement (no compiled-plan reuse — the paper's point about
        // missing compilation caching).
        let sql_text = micro_sql(1, 1, FRAME_MS, false);
        let samples = time_each(requests, |i| {
            let parsed = openmldb_sql::parse_select(&sql_text).unwrap();
            std::hint::black_box(&parsed);
            let (k, ts) = reqs[i];
            let out = mysql
                .window_query(&k.to_string(), ts - FRAME_MS, ts, &spec_refs)
                .unwrap();
            let joined = mysql.latest(&k.to_string()).unwrap();
            (out, joined)
        });
        results.push((
            "MySQL(in-mem)-like".into(),
            LatencyStats::from_samples(samples),
        ));
    }

    // --- DuckDB-like -----------------------------------------------------
    {
        let mut duck = DuckDbLikeTable::new(micro_schema());
        for row in &data {
            duck.insert(row).unwrap();
        }
        let samples = time_each(requests, |i| {
            let (k, ts) = reqs[i];
            duck.window_query(1, &Value::Bigint(k), 5, ts - FRAME_MS, ts, &spec_refs)
                .unwrap()
        });
        results.push(("DuckDB-like".into(), LatencyStats::from_samples(samples)));
    }

    // --- Trino+Redis-like --------------------------------------------------
    {
        let mut trino = TrinoRedisLike::new(micro_schema());
        for row in &data {
            trino.put(&row[1].to_string(), row.ts_at(5), row);
        }
        trino.sync();
        let samples = time_each(requests, |i| {
            let (k, ts) = reqs[i];
            trino
                .window_query(&k.to_string(), ts - FRAME_MS, ts, &spec_refs)
                .unwrap()
        });
        results.push((
            "Trino+Redis-like".into(),
            LatencyStats::from_samples(samples),
        ));
    }

    let base_qps = results[0].1.qps;
    let table: Vec<Vec<String>> = results
        .iter()
        .map(|(name, s)| {
            vec![
                name.clone(),
                fmt(s.mean_ms),
                fmt(s.p99_ms),
                fmt(s.qps),
                format!("{:.1}x", base_qps / s.qps),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 6: online MicroBench ({rows} rows/stream, {requests} requests)"),
        &["system", "mean ms", "p99 ms", "qps", "OpenMLDB speedup"],
        &table,
    );
    results
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "wall-clock paper shape: runs alone in its own CI step, not in the parallel suite"]
    fn openmldb_wins_fig06() {
        // Large enough that DuckDB's O(table) scan loses to our O(window)
        // path in debug builds too (tiny tables make flat scans free).
        let results = crate::harness::with_scale(0.4, super::run);
        let ours = results[0].1.qps;
        for (name, stats) in &results[1..] {
            assert!(
                ours > stats.qps,
                "OpenMLDB ({ours:.0} qps) should beat {name} ({:.0} qps)",
                stats.qps
            );
        }
    }
}
