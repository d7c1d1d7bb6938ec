//! **Chaos serving** — the fig06-style request loop under deterministic
//! fault injection at rates {0, 0.1%, 1%} on the storage seek path, with a
//! deadline budget, bounded retries, and replica failover enabled. The
//! table counts each rate's outcomes (ok, degraded, typed `Timeout`, any
//! other error) and its latency percentiles. `tests/resilience.rs` asserts
//! the contracts: no request is lost
//! (`fixed_seeds_one_percent_faults_zero_lost`), and each request of its
//! seeded fault loop resolves within budget + slack (`serve_loop_with`).
//! Without the `chaos` cargo feature the injector is compiled out; the
//! loop still runs (all rates behave like 0).

use std::time::{Duration, Instant};

use openmldb_chaos::{InjectionPoint, Plan};
use openmldb_core::RequestOptions;
use openmldb_types::Error;

use crate::harness::{fmt, print_table, scaled, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

/// Deterministic seed for the injection plan (one of the CI triple).
pub const SEED: u64 = 0xC0FFEE;

/// Per-request deadline budget.
pub const BUDGET: Duration = Duration::from_millis(250);

pub fn run() {
    let rows = scaled(8_000);
    let keys = 20usize;
    let requests = scaled(2_000);
    let rates = [0.0, 0.001, 0.01];

    let db = micro_db(rows, keys, 0.0, 1);
    db.deploy(&format!(
        "DEPLOY f_chaos AS {}",
        micro_sql(1, 1, 60_000, false)
    ))
    .unwrap();
    // A caught-up replica of the base stream: reads fail over to it when
    // the primary keeps faulting.
    db.enable_failover("t1").unwrap();
    let max_ts = rows as i64 * 10;

    // Warm-up with no faults installed.
    openmldb_chaos::reset();
    for i in 0..16i64 {
        db.request_readonly("f_chaos", &micro_request(i, i % keys as i64, max_ts))
            .unwrap();
    }

    let mut table = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        // Errors and latency spikes on the skiplist seek every read takes;
        // same seed each round so runs are reproducible end to end.
        openmldb_chaos::install(
            Plan::new(SEED)
                .error_rate(InjectionPoint::SkiplistSeek, rate)
                .latency(
                    InjectionPoint::SkiplistSeek,
                    rate,
                    Duration::from_micros(200),
                ),
        );
        let (mut ok, mut degraded, mut timeouts, mut lost) = (0usize, 0usize, 0usize, 0usize);
        let (mut retries, mut failovers) = (0u64, 0u64);
        let mut samples = Vec::with_capacity(requests);
        for i in 0..requests {
            let req = micro_request(
                (10 + ri) as i64 * 1_000_000 + i as i64,
                (i % keys) as i64,
                max_ts + (i % 100) as i64,
            );
            // A deadline anchors when it is built: one budget per request.
            let opts = RequestOptions::with_deadline(BUDGET);
            let t0 = Instant::now();
            let out = db.request_readonly_with("f_chaos", &req, &opts);
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(o) => {
                    ok += 1;
                    if o.degraded {
                        degraded += 1;
                    }
                    retries += u64::from(o.retries);
                    failovers += u64::from(o.failovers);
                }
                Err(Error::Timeout { .. }) => timeouts += 1,
                // Any other error: a lost request.
                Err(_) => lost += 1,
            }
        }
        openmldb_chaos::reset();
        let stats = LatencyStats::from_samples(samples);
        table.push(vec![
            format!("{:.2}%", rate * 100.0),
            ok.to_string(),
            degraded.to_string(),
            timeouts.to_string(),
            lost.to_string(),
            retries.to_string(),
            failovers.to_string(),
            fmt(stats.p50_ms),
            fmt(stats.p99_ms),
        ]);
    }

    print_table(
        &format!(
            "Chaos serving: fig06 loop under injected faults ({requests} requests/rate, \
             budget {} ms, chaos {})",
            BUDGET.as_millis(),
            if openmldb_chaos::enabled() {
                "on"
            } else {
                "off"
            }
        ),
        &[
            "rate", "ok", "degraded", "timeout", "lost", "retries", "failover", "p50 ms", "p99 ms",
        ],
        &table,
    );
}
