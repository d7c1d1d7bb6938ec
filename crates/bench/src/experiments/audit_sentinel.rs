//! **Audit sentinel** — the serving cost of the consistency sentinel.
//!
//! Runs the fig06-scale request loop (one window + one LAST JOIN) twice,
//! interleaved: sampling off versus sampling 1-in-[`SAMPLE_EVERY`], and
//! reports the p50 regression of the sampled configuration — the sentinel
//! must be effectively free on the warm path. This module's test bounds
//! that regression at reduced scale; at full scale it is reported, not
//! asserted. What the sentinel catches is asserted by `tests/sentinel.rs`:
//! `clean_serving_audits_with_zero_divergences` and
//! `corrupted_compiled_kernel_divergence_is_detected`.

use openmldb_online::sentinel;

use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

/// Maximum p50 regression with sampling on, at the test's reduced scale:
/// microsecond-class requests make a 1 % delta unmeasurable, so the bound
/// is "no gross regression".
pub const MAX_P50_OVERHEAD_REDUCED: f64 = 0.25;

/// Production-shaped sampling rate used for the overhead measurement.
pub const SAMPLE_EVERY: u32 = 64;

const FRAME_MS: i64 = 60_000;
const TRIALS: usize = 5;

#[derive(Debug, Clone)]
pub struct AuditSentinelResult {
    /// Best-of-trials p50 with sampling off / on.
    pub off_p50_ms: f64,
    pub on_p50_ms: f64,
    /// `(on - off) / off`, clamped at 0 (faster-with-sampling is noise).
    pub overhead: f64,
}

pub fn run() -> AuditSentinelResult {
    let rows = scaled(20_000);
    let keys = 20usize;
    let requests = scaled(2_000);

    let db = micro_db(rows, keys, 0.0, 1);
    let sql = micro_sql(1, 1, FRAME_MS, false);
    db.deploy(&format!("DEPLOY audit_f AS {sql}")).unwrap();
    let max_ts = rows as i64 * 10;
    let request_at = |i: usize| {
        micro_request(
            1_000_000 + i as i64,
            (i % keys) as i64,
            max_ts + (i % 100) as i64,
        )
    };

    sentinel::set_sample_every(0);
    sentinel::reset();

    // Warm-up fills scratch pools and lazily registers every metric.
    for i in 0..64 {
        db.request_readonly("audit_f", &request_at(i)).unwrap();
    }

    // Interleaved off/on trials; best-of-trials p50 per configuration is
    // robust against scheduler noise at micro scales.
    let mut off_p50 = f64::MAX;
    let mut on_p50 = f64::MAX;
    for _ in 0..TRIALS {
        sentinel::set_sample_every(0);
        let off = LatencyStats::from_samples(time_each(requests, |i| {
            db.request_readonly("audit_f", &request_at(i)).unwrap()
        }));
        off_p50 = off_p50.min(off.p50_ms);
        sentinel::set_sample_every(SAMPLE_EVERY);
        let on = LatencyStats::from_samples(time_each(requests, |i| {
            db.request_readonly("audit_f", &request_at(i)).unwrap()
        }));
        on_p50 = on_p50.min(on.p50_ms);
    }
    // The queued samples are not audited here: drop them.
    sentinel::set_sample_every(0);
    sentinel::reset();
    let overhead = ((on_p50 - off_p50) / off_p50.max(1e-9)).max(0.0);

    print_table(
        &format!(
            "Audit sentinel: 1-in-{SAMPLE_EVERY} sampling overhead \
             ({requests} requests/trial, overhead {:.2}%)",
            overhead * 100.0
        ),
        &["config", "p50 ms"],
        &[
            vec!["sampling off".into(), fmt(off_p50)],
            vec![format!("sampling 1/{SAMPLE_EVERY}"), fmt(on_p50)],
        ],
    );

    AuditSentinelResult {
        off_p50_ms: off_p50,
        on_p50_ms: on_p50,
        overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::MAX_P50_OVERHEAD_REDUCED;

    /// Runs alone (its own CI step and `scripts/analysis.sh` step): it
    /// compares two p50s of microsecond requests, and the parallel suite's
    /// other tests moved them past the bound in one run of five.
    #[test]
    #[ignore = "timing bound: runs alone in its own CI step, not in the parallel suite"]
    fn sampled_p50_overhead_stays_within_bound() {
        let r = crate::harness::with_scale(0.1, super::run);
        assert!(
            r.overhead <= MAX_P50_OVERHEAD_REDUCED,
            "p50 overhead {:.2}% (max {:.2}%): off {} ms, on {} ms",
            r.overhead * 100.0,
            MAX_P50_OVERHEAD_REDUCED * 100.0,
            r.off_p50_ms,
            r.on_p50_ms
        );
    }
}
