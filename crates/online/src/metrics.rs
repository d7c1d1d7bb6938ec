//! Global observability handles for the online request-mode engine.
//!
//! Accessors lazily register in the process-wide
//! [`Registry`](openmldb_obs::Registry) and cache the handle in a
//! `OnceLock`; a request's numbers are published once, when its record
//! closes, as a handful of sharded relaxed atomics.

use openmldb_obs::{
    Counter, Gauge, Histogram, LabeledCounter, LabeledHistogram, ProfileStore, Registry,
};
use std::sync::{Arc, OnceLock};

fn counter(cell: &'static OnceLock<Arc<Counter>>, name: &str, help: &str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name, help))
}

/// Requests executed through `execute_request`.
pub fn requests() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_requests_total",
        "Request-mode executions through the online engine",
    )
}

/// End-to-end request latency distribution.
pub fn request_duration() -> &'static Histogram {
    static M: OnceLock<Arc<Histogram>> = OnceLock::new();
    M.get_or_init(|| {
        let h = Registry::global().histogram(
            "openmldb_online_request_duration_ns",
            "End-to-end online request latency",
        );
        // Buckets at or above the slow-query threshold keep the most recent
        // offending request's trace id + stage breakdown as an exemplar.
        h.enable_exemplars(openmldb_obs::flight::slow_query_threshold_ns());
        h
    })
}

/// Rows scanned out of storage by request executions, summed across all
/// deployments. The labeled `openmldb_online_deployment_scan_rows` series
/// slices this same number per deployment; both come from the identical
/// [`CostProfile`](openmldb_obs::CostProfile), so the per-deployment sums
/// (including `__other`) reconcile exactly with this global.
pub fn scan_rows() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_scan_rows",
        "Storage rows scanned by online request executions",
    )
}

/// Wall-clock nanoseconds spent serving requests (sum over requests).
pub fn request_time_ns() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_request_time_ns",
        "Total wall-clock time spent serving online requests",
    )
}

/// Nanoseconds attributed to named pipeline stages (sum of per-stage self
/// time over requests; excludes un-staged "other" time).
pub fn stage_time_ns() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_stage_time_ns",
        "Request time attributed to named pipeline stages",
    )
}

/// Register the per-deployment counter series. Nothing writes them on the
/// request path: each is a read of the per-deployment
/// [`ProfileStore`](openmldb_obs::ProfileStore) taken at exposition time, so
/// a request's numbers are stored once and the series sum exactly to the
/// globals above. Called at deployment time; idempotent.
pub fn register_deployment_views() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let reg = Registry::global();
        reg.labeled_view(
            "openmldb_online_deployment_requests_total",
            "Request-mode executions per deployment",
            || ProfileStore::global().per_slot(|requests, _| requests),
        );
        reg.labeled_view(
            "openmldb_online_deployment_scan_rows",
            "Storage rows scanned per deployment",
            || ProfileStore::global().per_slot(|_, p| p.rows_scanned),
        );
        reg.labeled_view(
            "openmldb_online_deployment_stage_time_ns",
            "Staged pipeline time per deployment",
            || ProfileStore::global().per_slot(|_, p| p.stage_sum_ns()),
        );
        reg.labeled_view(
            "openmldb_online_deployment_request_time_ns",
            "Total wall-clock request time per deployment",
            || ProfileStore::global().per_slot(|_, p| p.total_ns),
        );
    });
}

/// Per-deployment end-to-end latency distribution (mergeable histograms —
/// one log-linear histogram per deployment label slot).
pub fn deployment_duration() -> &'static LabeledHistogram {
    static M: OnceLock<Arc<LabeledHistogram>> = OnceLock::new();
    M.get_or_init(|| {
        Registry::global().labeled_histogram(
            "openmldb_online_deployment_duration_ns",
            "End-to-end online request latency per deployment",
        )
    })
}

/// Windows served by the pre-aggregation fast path.
pub fn preagg_hits() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_preagg_hits_total",
        "Windows served by the pre-aggregation fast path",
    )
}

/// Windows that had a pre-aggregator attached but fell back to a raw scan
/// (frame shape or window attributes made the fast path inapplicable).
pub fn preagg_skips() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_preagg_skips_total",
        "Windows with a pre-aggregator that still took the raw scan path",
    )
}

/// Pre-aggregated buckets merged into answers.
pub fn preagg_bucket_hits() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_preagg_bucket_hits_total",
        "Pre-aggregated buckets merged into window answers",
    )
}

/// Windows served by the compiled bytecode fast path.
pub fn compiled_windows() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_compiled_windows_total",
        "Windows served by compiled bytecode programs",
    )
}

/// Transient-fault retries performed by the resilient request path.
pub fn retries() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_retries_total",
        "Transient storage faults absorbed by request-path retries",
    )
}

/// Reads that failed over from the primary table to its replica.
pub fn failovers() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_failovers_total",
        "Reads failed over from a faulting primary to a replica",
    )
}

/// Requests answered from pre-agg buckets alone after budget exhaustion.
pub fn degraded() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_degraded_total",
        "Windows answered buckets-only after the deadline budget ran out",
    )
}

/// Requests that surfaced a typed deadline timeout.
pub fn timeouts() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_timeouts_total",
        "Requests that exceeded their deadline budget",
    )
}

/// Tuples pushed through window-union workers.
pub fn union_tuples() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_union_tuples_total",
        "Tuples routed through self-adjusting window-union workers",
    )
}

/// Worker imbalance of the most recently flushed window union
/// (max load / mean load; 1.0 is perfectly balanced).
pub fn union_imbalance() -> &'static Gauge {
    static M: OnceLock<Arc<Gauge>> = OnceLock::new();
    M.get_or_init(|| {
        Registry::global().gauge(
            "openmldb_online_union_imbalance_ratio",
            "Window-union worker imbalance (max/mean tuple load)",
        )
    })
}

/// Per-worker tuple load of the most recently flushed window union.
pub fn union_worker_load(worker: usize) -> Arc<Gauge> {
    Registry::global().gauge(
        &format!("openmldb_online_union_worker_load_rows{{worker=\"{worker}\"}}"),
        "Tuples processed per window-union worker",
    )
}

/// Requests sampled onto the consistency-sentinel audit queue.
pub fn sentinel_samples() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_samples_total",
        "Served requests captured for consistency auditing",
    )
}

/// Sampled requests the auditor actually replayed through the oracle.
pub fn sentinel_audits() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_audits_total",
        "Sampled requests re-executed through the materializing oracle",
    )
}

/// Confirmed online/offline divergences (served output or scan inputs
/// disagreed with an oracle replay at an unchanged table version).
pub fn sentinel_divergences() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_divergences_total",
        "Confirmed consistency divergences between served and oracle results",
    )
}

/// Audits skipped because the table version changed between capture and
/// replay (a concurrent write makes the comparison meaningless, not wrong).
pub fn sentinel_stale_skips() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_stale_skips_total",
        "Audits skipped because the table version moved under the sample",
    )
}

/// Samples dropped because the bounded audit queue was full.
pub fn sentinel_dropped() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_dropped_total",
        "Sentinel samples dropped on a full audit queue",
    )
}

/// Oracle replays that errored (deployment vanished, replay failure).
pub fn sentinel_errors() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_online_sentinel_errors_total",
        "Sentinel oracle replays that failed outright",
    )
}

/// Current depth of the sentinel audit queue (captured, not yet audited).
pub fn sentinel_lag() -> &'static Gauge {
    static M: OnceLock<Arc<Gauge>> = OnceLock::new();
    M.get_or_init(|| {
        Registry::global().gauge(
            "openmldb_online_sentinel_lag_count",
            "Sentinel samples waiting in the audit queue",
        )
    })
}

/// Per-deployment confirmed divergences (labeled by deployment name).
pub fn deployment_divergences() -> &'static LabeledCounter {
    static M: OnceLock<Arc<LabeledCounter>> = OnceLock::new();
    M.get_or_init(|| {
        Registry::global().labeled_counter(
            "openmldb_online_deployment_divergences_total",
            "Confirmed consistency divergences per deployment",
        )
    })
}
