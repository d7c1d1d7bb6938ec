//! Consistency sentinel: continuous online/offline audit of served results.
//!
//! The serving path samples 1-in-N requests (see
//! [`execute_request_with`](crate::engine::execute_request_with)): for a
//! sampled request it arms the scratch's [`ScanDigest`] so the window scan
//! folds a digest of every raw input row, then captures the request row
//! bytes, the served output digest, and a version signature of every table
//! the deployment reads. Capture is allocation-recycling — samples come
//! from a pool and the encoded request row reuses the pooled buffer — and
//! strictly off the unsampled warm path.
//!
//! A background auditor ([`drain`]) re-executes each sample once, through
//! the materializing reference pipeline — name-resolved reads, decoded rows,
//! tree-walked expressions, no pre-aggregators, nothing shared with the
//! compiled program or the bound read plan — and compares bit-for-bit: the
//! served row against the replay's (`Value`'s exact `==`), and per window
//! the digest of the `(ts, bytes)` the reference read against the one the
//! served scan took. Before either, every served value must be NULL or of
//! its output column's declared type. Compiled serves, materialized checks.
//! Divergences at an unchanged table version are
//! confirmed faults: they increment per-deployment labeled counters, publish
//! a `consistency_divergence` flight-recorder post-mortem carrying both row
//! encodings, and land in the bounded divergence log
//! ([`openmldb_obs::audit`]). Audits whose table version moved between
//! capture and replay are counted as stale skips, never as divergences.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use openmldb_exec::RequestScratch;
use openmldb_obs::audit::{publish_divergence, DivergenceKind, DivergenceReport};
use openmldb_obs::flight::{self, PostMortem, NUM_STAGES};
use openmldb_obs::{Fnv, Outcome, ScanDigest};
use openmldb_sql::plan::CompiledQuery;
use openmldb_storage::DataTable;
use openmldb_types::codec::RowCodec;
use openmldb_types::{Result, Row, Schema};

use crate::engine::{materialized, Deployment, TableProvider};
use crate::resilience::{Ctx, RequestOptions, RequestOutput};

/// Bound on captured-but-unaudited samples. A full queue drops new samples
/// (counted) rather than stalling the serving path.
pub const MAX_QUEUE: usize = 1024;

/// One captured serve awaiting audit. All owned buffers are recycled
/// through the sample pool, so steady-state capture performs no allocation
/// once the pool and buffers are warm.
#[derive(Default)]
struct AuditSample {
    /// Deployment name (reused String buffer).
    deployment: String,
    /// Request row, compact-encoded with the deployment's base codec.
    request: Vec<u8>,
    /// The served output row (shares the answer's values).
    served: Option<Row>,
    /// Per-window digests of the raw rows the serve actually scanned.
    scan: ScanDigest,
    /// Version signature of every read table at capture time.
    version_sig: u64,
    /// Trace id of the served request (links the post-mortem back).
    trace_id: u64,
    /// Whether the serve answered a window from pre-aggregated buckets.
    /// Bucket merges add f64 partial sums in another order than one fold,
    /// so its output cannot be held bit for bit against the raw replay.
    bucketed: bool,
}

struct Sentinel {
    /// Sample 1-in-N requests; 0 disables sampling entirely.
    every: AtomicU32,
    /// Captured samples awaiting audit, oldest first.
    queue: Mutex<VecDeque<AuditSample>>,
    /// Recycled sample shells (buffers keep their capacity).
    pool: Mutex<Vec<AuditSample>>,
}

fn sentinel() -> &'static Sentinel {
    static S: OnceLock<Sentinel> = OnceLock::new();
    S.get_or_init(|| Sentinel {
        every: AtomicU32::new(0),
        queue: Mutex::new(VecDeque::new()),
        pool: Mutex::new(Vec::new()),
    })
}

/// Set the sampling rate: each serving thread audits one in `n` of its
/// requests (`0` = off, the default — serving pays one load and a branch
/// per request).
pub fn set_sample_every(n: u32) {
    sentinel().every.store(n, Ordering::Relaxed);
}

/// The current 1-in-N sampling rate (`0` = off).
pub fn sample_every() -> u32 {
    sentinel().every.load(Ordering::Relaxed)
}

/// Captured samples currently waiting in the audit queue.
pub fn queue_len() -> usize {
    sentinel().queue.lock().map(|q| q.len()).unwrap_or(0)
}

/// Drop all pending samples. Cumulative metrics are left alone (they are
/// process-wide monotonic counters); tests work with deltas.
pub fn reset() {
    if let Ok(mut q) = sentinel().queue.lock() {
        q.clear();
    }
    crate::metrics::sentinel_lag().set(0.0);
}

/// Per-request sampling decision, taken just before the request's record is
/// entered: the 1-in-N test reads the sequence number that record is about
/// to take, so the sentinel keeps no request counter of its own.
// HOT: a thread-local read + modulo when sampling is on; a single load and
// branch when it is off or observability is compiled out.
pub(crate) fn should_sample() -> bool {
    if !openmldb_obs::enabled() {
        return false;
    }
    let every = sentinel().every.load(Ordering::Relaxed);
    every != 0 && openmldb_obs::flight::thread_seq().is_multiple_of(u64::from(every))
}

/// Hash the replication offset of every table `query` reads, as `table`
/// resolves it, into one signature. Equal signatures: no write landed in
/// any of them between the two observations (a replay reproduces the
/// serve, a cached preview is current).
pub fn version_signature(
    query: &CompiledQuery,
    table: impl Fn(&str) -> Option<Arc<dyn DataTable>>,
) -> u64 {
    let mut f = Fnv::new();
    for name in query.read_tables() {
        f.write(name.as_bytes());
        f.write_u64(table(name).map_or(u64::MAX, |t| t.replicator().len()));
    }
    f.finish()
}

/// [`version_signature`] of the tables `dep` is bound to.
pub(crate) fn deployment_signature(dep: &Deployment) -> u64 {
    let joins = dep.reads.joins.iter();
    let reads = joins.chain(dep.reads.windows.iter().flatten());
    version_signature(&dep.query, |name| {
        (reads.clone())
            .find(|r| r.name == name)
            .map(|r| Arc::clone(&r.table))
    })
}

/// Capture one sampled serve onto the audit queue. Called by the engine
/// after the request finished, outside the latency measurement; only
/// clean (non-degraded, non-error) serves are auditable. `bucketed`: the
/// serve answered some window from pre-aggregated buckets.
pub(crate) fn capture(
    dep: &Deployment,
    request: &Row,
    scratch: &RequestScratch,
    result: &Result<RequestOutput>,
    pre_sig: u64,
    bucketed: bool,
) {
    let out = match result {
        Ok(out) if !out.degraded => out,
        // Errors and degraded answers are already surfaced through their
        // own metrics; the sentinel audits only answers claimed correct.
        _ => return,
    };
    // A write landed mid-serve: the scan digests describe a state no
    // replay can reproduce. Skip, counted.
    if deployment_signature(dep) != pre_sig {
        crate::metrics::sentinel_stale_skips().inc();
        return;
    }
    let s = sentinel();
    // Pool and queue are never held together: the pool guard lives only
    // inside this block, and the overflow path below recycles after the
    // queue guard has been released.
    let mut sample = {
        let popped = s.pool.lock().ok().and_then(|mut p| p.pop());
        popped.unwrap_or_default()
    };
    sample.deployment.clear();
    sample.deployment.push_str(&dep.name);
    // The serve's own encoding, when it made one (a bucket-served request
    // encodes nothing).
    if !scratch.request_row.is_empty() {
        sample.request.clear();
        sample.request.extend_from_slice(&scratch.request_row);
    } else if dep
        .codec
        .encode_into(request.values(), &mut sample.request)
        .is_err()
    {
        // The serve validated this row already; an encode failure here is
        // unreachable in practice but must not panic the serving path.
        recycle(sample);
        return;
    }
    sample.served = Some(out.row.clone());
    sample.scan = scratch.audit;
    sample.version_sig = pre_sig;
    sample.trace_id = out.trace_id;
    sample.bucketed = bucketed;

    crate::metrics::sentinel_samples().inc();
    let mut overflow = None;
    let depth = {
        match s.queue.lock() {
            Ok(mut q) if q.len() < MAX_QUEUE => {
                q.push_back(sample);
                q.len()
            }
            Ok(_) => {
                overflow = Some(sample);
                0
            }
            Err(_) => return,
        }
    };
    if let Some(sample) = overflow {
        crate::metrics::sentinel_dropped().inc();
        recycle(sample);
        return;
    }
    crate::metrics::sentinel_lag().set(depth as f64);
}

fn recycle(mut sample: AuditSample) {
    sample.scan.clear();
    sample.served = None;
    if let Ok(mut pool) = sentinel().pool.lock() {
        if pool.len() < 64 {
            pool.push(sample);
        }
    }
}

/// Outcome of one [`drain`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuditStats {
    /// Samples replayed through the oracle.
    pub audited: u64,
    /// Confirmed divergences among them.
    pub divergences: u64,
    /// Samples skipped because the table version moved.
    pub stale_skips: u64,
    /// Audited samples whose output compare was skipped because the serve
    /// answered a window from pre-aggregated buckets (their scan digests
    /// are still compared).
    pub bucket_skips: u64,
    /// Replays that errored (deployment gone, oracle failure).
    pub errors: u64,
    /// Samples still queued after this drain.
    pub remaining: usize,
}

/// Cumulative sentinel state, read from the process-wide metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SentinelStats {
    pub samples: u64,
    pub audits: u64,
    pub divergences: u64,
    pub stale_skips: u64,
    pub bucket_skips: u64,
    pub dropped: u64,
    pub errors: u64,
    pub queue: usize,
}

/// Cumulative totals since process start.
pub fn stats() -> SentinelStats {
    use crate::metrics as m;
    SentinelStats {
        samples: m::sentinel_samples().value(),
        audits: m::sentinel_audits().value(),
        divergences: m::sentinel_divergences().value(),
        stale_skips: m::sentinel_stale_skips().value(),
        bucket_skips: m::sentinel_bucket_skips().value(),
        dropped: m::sentinel_dropped().value(),
        errors: m::sentinel_errors().value(),
        queue: queue_len(),
    }
}

/// Audit up to `max` queued samples: replay each through the materializing
/// oracle and compare digests. `lookup` resolves a deployment name to its
/// live deployment (samples for dropped deployments count as errors).
pub fn drain(
    provider: &dyn TableProvider,
    lookup: &dyn Fn(&str) -> Option<Arc<Deployment>>,
    max: usize,
) -> AuditStats {
    let s = sentinel();
    let mut stats = AuditStats::default();
    for _ in 0..max {
        let Some(sample) = s.queue.lock().ok().and_then(|mut q| q.pop_front()) else {
            break;
        };
        audit_one(provider, lookup, &sample, &mut stats);
        recycle(sample);
    }
    stats.remaining = queue_len();
    crate::metrics::sentinel_lag().set(stats.remaining as f64);
    stats
}

fn audit_one(
    provider: &dyn TableProvider,
    lookup: &dyn Fn(&str) -> Option<Arc<Deployment>>,
    sample: &AuditSample,
    stats: &mut AuditStats,
) {
    let Some(dep) = lookup(&sample.deployment) else {
        crate::metrics::sentinel_errors().inc();
        stats.errors += 1;
        return;
    };
    // The table moved since capture: replays would legitimately differ.
    if deployment_signature(&dep) != sample.version_sig {
        crate::metrics::sentinel_stale_skips().inc();
        stats.stale_skips += 1;
        return;
    }
    let request = match dep.codec.decode(&sample.request) {
        Ok(row) => row,
        Err(_) => {
            crate::metrics::sentinel_errors().inc();
            stats.errors += 1;
            return;
        }
    };
    // One replay: the plan through the reference pipeline with no
    // pre-aggregators, so every window is raw-scanned and digests what it
    // read — comparable to a raw-scanned serve, independent of a bucketed one.
    let opts = RequestOptions::default();
    let mut replay_scan = ScanDigest::default();
    let ctx = Ctx::new(&opts);
    let replay = materialized(
        provider,
        &dep.query,
        &[],
        &request,
        &ctx,
        Some(&mut replay_scan),
    );
    let Ok(oracle) = replay else {
        crate::metrics::sentinel_errors().inc();
        stats.errors += 1;
        return;
    };
    crate::metrics::sentinel_audits().inc();
    stats.audited += 1;
    if sample.bucketed {
        crate::metrics::sentinel_bucket_skips().inc();
        stats.bucket_skips += 1;
    }

    let Some(served) = &sample.served else {
        return;
    };
    let mismatch = first_mismatch(
        &dep.query.output_schema,
        sample,
        served,
        &oracle,
        &replay_scan,
    );
    let Some((kind, window, oracle)) = mismatch else {
        return;
    };
    // Confirm before reporting: a write that landed during the replay
    // makes the disagreement stale, not wrong.
    if deployment_signature(&dep) != sample.version_sig {
        crate::metrics::sentinel_stale_skips().inc();
        stats.stale_skips += 1;
        return;
    }
    stats.divergences += 1;
    crate::metrics::sentinel_divergences().inc();
    crate::metrics::deployment_divergences().inc(dep.label());
    let report = DivergenceReport {
        deployment: sample.deployment.clone(),
        trace_id: sample.trace_id,
        kind,
        window,
        served: format!("{:?}", served.values()),
        oracle,
    };
    let mut note = String::new();
    let _ = write!(
        note,
        "{}: served={} oracle={}",
        kind.name(),
        report.served,
        report.oracle
    );
    flight::publish(PostMortem {
        trace_id: sample.trace_id,
        outcome: Outcome::Divergence,
        culprit: "consistency",
        total_ns: 0,
        stage_self_ns: [0; NUM_STAGES],
        other_ns: 0,
        retries: 0,
        failovers: 0,
        faults: 0,
        dropped_events: 0,
        events: Vec::new(),
        note,
    });
    publish_divergence(report);
}

/// Compare the served sample against the oracle replay; the first
/// disagreement wins: a served value not of its output column's declared
/// type, then the output mismatch, then a scan-input mismatch. A
/// bucket-served sample skips the output compare only: its type check and
/// its raw-scanned windows' digests still run.
fn first_mismatch(
    outputs: &Schema,
    sample: &AuditSample,
    served: &Row,
    oracle: &Row,
    replay_scan: &ScanDigest,
) -> Option<(DivergenceKind, Option<usize>, String)> {
    if let Err(e) = outputs.validate_row(served.values()) {
        return Some((DivergenceKind::OutputType, None, e.to_string()));
    }
    if !sample.bucketed && oracle != served {
        return Some((
            DivergenceKind::OutputMaterialized,
            None,
            format!("{:?}", oracle.values()),
        ));
    }
    for wid in 0..openmldb_obs::audit::DIGEST_WINDOWS {
        if let (Some(served), Some(oracle)) = (sample.scan.slot(wid), replay_scan.slot(wid)) {
            if served != oracle {
                return Some((
                    DivergenceKind::ScanInput,
                    Some(wid),
                    format!("scan digest {oracle:#018x} (served {served:#018x})"),
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::{ColumnDef, DataType, Value};

    fn sample(served: &Row) -> AuditSample {
        AuditSample {
            served: Some(served.clone()),
            ..AuditSample::default()
        }
    }

    #[test]
    fn a_served_value_of_another_type_is_a_divergence() {
        let outputs = Schema::new(vec![
            ColumnDef::new("id", DataType::Bigint),
            ColumnDef::new("total", DataType::Double),
        ])
        .unwrap();
        let scan = ScanDigest::default();
        // Served and replay agree, and a NULL is of every type.
        let ok = Row::new(vec![Value::Bigint(1), Value::Null]);
        assert!(first_mismatch(&outputs, &sample(&ok), &ok, &ok, &scan).is_none());
        // Served and replay agree on a BIGINT where DOUBLE is declared.
        let wrong = Row::new(vec![Value::Bigint(1), Value::Bigint(20)]);
        let mut bucketed = sample(&wrong);
        bucketed.bucketed = true;
        for s in [sample(&wrong), bucketed] {
            let found = first_mismatch(&outputs, &s, &wrong, &wrong, &scan);
            assert!(
                matches!(found, Some((DivergenceKind::OutputType, None, _))),
                "{found:?}"
            );
        }
        // Of the declared type but a different bit pattern: an output mismatch.
        let served = Row::new(vec![Value::Bigint(1), Value::Double(-0.0)]);
        let oracle = Row::new(vec![Value::Bigint(1), Value::Double(0.0)]);
        let found = first_mismatch(&outputs, &sample(&served), &served, &oracle, &scan);
        assert!(
            matches!(found, Some((DivergenceKind::OutputMaterialized, None, _))),
            "{found:?}"
        );
    }
}
