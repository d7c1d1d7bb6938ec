//! **Obs cross-check** — the harness measures the fig06-style request loop
//! with wall-clock timers while `openmldb-obs` measures the same requests
//! from inside the engine; this experiment runs one loop, extracts both
//! sets of percentiles, and its test fails when they diverge.
//!
//! Two independent clocks around the same code path agreeing within the
//! histogram's bucket error is the end-to-end proof that the metrics layer
//! reports truthful latencies — the property dashboards depend on. The
//! snapshot (harness numbers, obs-derived percentiles, divergence, and the
//! full registry exposition) is written as `BENCH_obs.json` next to the
//! criterion output (override the path with `BENCH_OBS_JSON`).

use std::fmt::Write as _;

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

/// Allowed relative divergence between harness and obs percentiles. The
/// log-linear histogram quantizes to ≤1/16 relative error and the harness
/// timer includes call overhead the in-engine timer does not, so the 10%
/// contract from the issue gets the bucket error on top.
pub const REL_TOLERANCE: f64 = 0.10 + 1.0 / 16.0;

/// Absolute floor (milliseconds): below this, timer quantization noise
/// dominates any relative comparison.
pub const ABS_FLOOR_MS: f64 = 0.02;

/// Requests the measured loop runs past its highest compared percentile
/// (p999), so no percentile of either clock rests on a single request.
const TAIL_REQUESTS: usize = 10;

#[derive(Debug, Clone)]
pub struct ObsComparison {
    /// Requests issued in the measured loop.
    pub requests: usize,
    /// Wall-clock statistics measured by the harness.
    pub harness: LatencyStats,
    /// Percentiles extracted from the engine-side latency histogram of this
    /// experiment's own deployment, over the measured loop.
    pub obs_p50_ms: f64,
    pub obs_p90_ms: f64,
    pub obs_p99_ms: f64,
    pub obs_p999_ms: f64,
    /// Requests the obs histogram saw during the loop (0 under `obs-off`).
    pub obs_count: u64,
    /// Any percentile pair diverged beyond tolerance.
    pub diverged: bool,
    /// The JSON document written to `BENCH_obs.json`.
    pub json: String,
}

fn rel_divergence(a_ms: f64, b_ms: f64) -> f64 {
    let scale = a_ms.abs().max(b_ms.abs());
    if scale <= ABS_FLOOR_MS {
        return 0.0;
    }
    (a_ms - b_ms).abs() / scale
}

pub fn run() -> ObsComparison {
    let rows = scaled(8_000);
    // Two keys, so each request scans hundreds of rows: the harness clock
    // also covers the deployment lookup, the scratch pool and the record's
    // publication, which the engine's one end-of-request reading leaves out;
    // that fixed part must stay small beside the interval both clocks share.
    let keys = 2usize;
    // At least `TAIL_REQUESTS` requests beyond the p999 both clocks report:
    // fewer, and each p999 is one request's latency.
    let requests = scaled(2_000).max(TAIL_REQUESTS * 1_000);

    let db = micro_db(rows, keys, 0.0, 1);
    db.deploy(&format!(
        "DEPLOY f_obs AS {}",
        micro_sql(1, 1, 60_000, false)
    ))
    .unwrap();
    // Anchor requests just past the generated history (ts_step_ms = 10) so
    // every window scan covers real rows, like fig06.
    let max_ts = rows as i64 * 10;

    // Warm up outside the measured region so both clocks see steady state.
    for i in 0..16i64 {
        db.request_readonly("f_obs", &micro_request(i, i % keys as i64, max_ts))
            .unwrap();
    }

    // This experiment's own slice of `openmldb_online_deployment_duration_ns`:
    // no other request in the process lands in it, so the delta over the
    // loop holds exactly the measured requests.
    let label = db.deployment("f_obs").expect("deployed above").label();
    let own_latencies = || {
        openmldb_online::metrics::deployment_duration()
            .snapshot(label)
            .expect("the warm-up requests recorded into this deployment's slot")
    };
    let before = own_latencies();
    let samples = time_each(requests, |i| {
        db.request_readonly(
            "f_obs",
            &micro_request(
                2_000_000 + i as i64,
                (i % keys) as i64,
                max_ts + (i % 100) as i64,
            ),
        )
        .unwrap()
    });
    let delta = own_latencies().delta(&before);

    let harness = LatencyStats::from_samples(samples);
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    let obs_p50_ms = ns_to_ms(delta.percentile(0.50));
    let obs_p90_ms = ns_to_ms(delta.percentile(0.90));
    let obs_p99_ms = ns_to_ms(delta.percentile(0.99));
    let obs_p999_ms = ns_to_ms(delta.percentile(0.999));

    let pairs = [
        ("p50", harness.p50_ms, obs_p50_ms),
        ("p90", harness.p90_ms, obs_p90_ms),
        ("p99", harness.p99_ms, obs_p99_ms),
        ("p999", harness.p999_ms, obs_p999_ms),
    ];
    // Under obs-off the histogram never fills; there is nothing to compare
    // (and the snapshot records that explicitly).
    let comparable = delta.count() > 0;
    let diverged = comparable
        && pairs
            .iter()
            .any(|(_, h, o)| rel_divergence(*h, *o) > REL_TOLERANCE);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"obs_snapshot\",");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"obs_enabled\": {},", openmldb_obs::enabled());
    let _ = writeln!(json, "  \"obs_count\": {},", delta.count());
    let _ = writeln!(
        json,
        "  \"harness\": {{\"mean_ms\": {:.6}, \"p50_ms\": {:.6}, \"p90_ms\": {:.6}, \"p99_ms\": {:.6}, \"p999_ms\": {:.6}, \"qps\": {:.1}}},",
        harness.mean_ms, harness.p50_ms, harness.p90_ms, harness.p99_ms, harness.p999_ms, harness.qps
    );
    let _ = writeln!(
        json,
        "  \"obs\": {{\"p50_ms\": {obs_p50_ms:.6}, \"p90_ms\": {obs_p90_ms:.6}, \"p99_ms\": {obs_p99_ms:.6}, \"p999_ms\": {obs_p999_ms:.6}}},"
    );
    let mut div = String::new();
    for (i, (name, h, o)) in pairs.iter().enumerate() {
        if i > 0 {
            div.push_str(", ");
        }
        let _ = write!(div, "\"{name}\": {:.4}", rel_divergence(*h, *o));
    }
    let _ = writeln!(json, "  \"divergence\": {{{div}}},");
    let _ = writeln!(json, "  \"tolerance\": {REL_TOLERANCE:.4},");
    let _ = writeln!(json, "  \"diverged\": {diverged},");
    let _ = writeln!(
        json,
        "  \"registry\": {}",
        openmldb_obs::Registry::global().render_json()
    );
    json.push_str("}\n");

    let path = std::env::var("BENCH_OBS_JSON").unwrap_or_else(|_| "target/BENCH_obs.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("obs snapshot written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    let table: Vec<Vec<String>> = pairs
        .iter()
        .map(|(name, h, o)| {
            vec![
                name.to_string(),
                fmt(*h),
                if comparable { fmt(*o) } else { "-".into() },
                if comparable {
                    format!("{:.1}%", rel_divergence(*h, *o) * 100.0)
                } else {
                    "obs-off".into()
                },
            ]
        })
        .collect();
    print_table(
        &format!("Obs cross-check: harness vs engine histogram ({requests} requests)"),
        &["pct", "harness ms", "obs ms", "divergence"],
        &table,
    );

    ObsComparison {
        requests,
        harness,
        obs_p50_ms,
        obs_p90_ms,
        obs_p99_ms,
        obs_p999_ms,
        obs_count: delta.count(),
        diverged,
        json,
    }
}

#[cfg(test)]
mod tests {
    /// Runs alone (its own CI step and `scripts/analysis.sh` step): the
    /// harness clock also covers code outside the engine's interval, so
    /// under the parallel suite one preemption there in a thousand
    /// requests moves the harness p999 and not the engine's.
    #[test]
    #[ignore = "timing cross-check: runs alone in its own CI step, not in the parallel suite"]
    fn obs_and_harness_percentiles_agree() {
        let result = crate::harness::with_scale(0.1, super::run);
        assert!(!result.diverged, "{}", result.json);
        if openmldb_obs::enabled() {
            assert_eq!(result.obs_count, result.requests as u64);
            assert!(result.obs_p999_ms >= result.obs_p50_ms);
        } else {
            assert_eq!(result.obs_count, 0);
        }
        assert!(result.json.contains("\"experiment\": \"obs_snapshot\""));
        assert!(result.json.contains("\"registry\":"));
    }
}
