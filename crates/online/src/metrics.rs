//! Global observability handles for the online request-mode engine.
//!
//! Accessors lazily register in the process-wide
//! [`Registry`](openmldb_obs::Registry) and cache the handle in a
//! `OnceLock`. A request's numbers are published once, when its record
//! closes, into the per-deployment store and latency histogram; the request
//! series are views over those ([`register_deployment_views`]).

use openmldb_obs::{
    CostProfile, Counter, Gauge, LabeledCounter, LabeledHistogram, ProfileStore, Registry,
};
use std::sync::{Arc, OnceLock};

/// One lazily registered counter accessor per entry:
/// `accessor => "metric_name", "help";`, each entry's docs its accessor's.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident => $metric:literal, $help:literal;)*) => {$(
        $(#[doc = $doc])*
        pub fn $name() -> &'static Counter {
            static M: OnceLock<Arc<Counter>> = OnceLock::new();
            M.get_or_init(|| Registry::global().counter($metric, $help))
        }
    )*};
}

/// Register the request series. Nothing writes them on the request path:
/// a request's numbers are stored once, in the per-deployment
/// [`ProfileStore`](openmldb_obs::ProfileStore) and the
/// [`deployment_duration`] histogram, and every series below is a read of
/// those taken at exposition time — the per-deployment counters one slot at
/// a time, the process-wide counters and the `request_duration` histogram
/// merged over every slot (`__other` included), so each global equals the
/// sum of its per-deployment series by construction. Called at deployment
/// time; idempotent.
pub fn register_deployment_views() {
    fn all() -> (u64, CostProfile) {
        ProfileStore::global().aggregate_all()
    }
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let reg = Registry::global();
        deployment_duration();
        reg.counter_view(
            "openmldb_online_requests_total",
            "Request-mode executions through the online engine",
            || all().0,
        );
        reg.counter_view(
            "openmldb_online_scan_rows",
            "Storage rows scanned by online request executions",
            || all().1.rows_scanned,
        );
        reg.counter_view(
            "openmldb_online_request_time_ns",
            "Total wall-clock time spent serving online requests",
            || all().1.total_ns,
        );
        reg.counter_view(
            "openmldb_online_stage_time_ns",
            "Request time attributed to named pipeline stages",
            || all().1.stage_sum_ns(),
        );
        reg.counter_view(
            "openmldb_online_compiled_windows_total",
            "Windows served by compiled bytecode programs",
            || all().1.compiled_windows,
        );
        reg.histogram_view(
            "openmldb_online_request_duration_ns",
            "End-to-end online request latency",
            || deployment_duration().merged(),
        );
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

counters! {
    /// Windows served by the pre-aggregation fast path.
    preagg_hits => "openmldb_online_preagg_hits_total",
        "Windows served by the pre-aggregation fast path";
    /// Windows that had a pre-aggregator attached but fell back to a raw scan
    /// (frame shape or window attributes made the fast path inapplicable).
    preagg_skips => "openmldb_online_preagg_skips_total",
        "Windows with a pre-aggregator that still took the raw scan path";
    /// Pre-aggregated buckets merged into answers.
    preagg_bucket_hits => "openmldb_online_preagg_bucket_hits_total",
        "Pre-aggregated buckets merged into window answers";
    /// Transient-fault retries performed by the resilient request path.
    retries => "openmldb_online_retries_total",
        "Transient storage faults absorbed by request-path retries";
    /// Reads that failed over from the primary table to its replica.
    failovers => "openmldb_online_failovers_total",
        "Reads failed over from a faulting primary to a replica";
    /// Requests answered from pre-agg buckets alone after budget exhaustion.
    degraded => "openmldb_online_degraded_total",
        "Windows answered buckets-only after the deadline budget ran out";
    /// Requests that surfaced a typed deadline timeout.
    timeouts => "openmldb_online_timeouts_total",
        "Requests that exceeded their deadline budget";
    /// Tuples pushed through window-union workers.
    union_tuples => "openmldb_online_union_tuples_total",
        "Tuples routed through self-adjusting window-union workers";
    /// Requests sampled onto the consistency-sentinel audit queue.
    sentinel_samples => "openmldb_online_sentinel_samples_total",
        "Served requests captured for consistency auditing";
    /// Sampled requests the auditor actually replayed through the oracle.
    sentinel_audits => "openmldb_online_sentinel_audits_total",
        "Sampled requests re-executed through the materializing oracle";
    /// Confirmed online/offline divergences (served output or scan inputs
    /// disagreed with an oracle replay at an unchanged table version).
    sentinel_divergences => "openmldb_online_sentinel_divergences_total",
        "Confirmed consistency divergences between served and oracle results";
    /// Audits skipped because the table version changed between capture and
    /// replay (a concurrent write makes the comparison meaningless, not wrong).
    sentinel_stale_skips => "openmldb_online_sentinel_stale_skips_total",
        "Audits skipped because the table version moved under the sample";
    /// Audits whose output compare was skipped because the serve answered a
    /// window from pre-aggregated buckets (bucket merges add f64 partials in
    /// another order than the raw replay folds them).
    sentinel_bucket_skips => "openmldb_online_sentinel_bucket_skips_total",
        "Audits whose output compare was skipped for a bucket-served window";
    /// Samples dropped because the bounded audit queue was full.
    sentinel_dropped => "openmldb_online_sentinel_dropped_total",
        "Sentinel samples dropped on a full audit queue";
    /// Oracle replays that errored (deployment vanished, replay failure).
    sentinel_errors => "openmldb_online_sentinel_errors_total",
        "Sentinel oracle replays that failed outright";
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
