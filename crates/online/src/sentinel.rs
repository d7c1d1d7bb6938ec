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
//! output value digest, and per window the digest of the `(ts, bytes)` the
//! reference read against the one the served scan took. Compiled serves,
//! materialized checks. Divergences at an unchanged table version are
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
use openmldb_types::codec::RowCodec;
use openmldb_types::{Result, Row, Value};

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
    /// FNV digest of the served output row's values.
    row_digest: u64,
    /// Debug render of the served output row (for the divergence report).
    row_repr: String,
    /// Per-window digests of the raw rows the serve actually scanned.
    scan: ScanDigest,
    /// Version signature of every read table at capture time.
    version_sig: u64,
    /// Trace id of the served request (links the post-mortem back).
    trace_id: u64,
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

/// Hash the replication offset of every table the deployment is bound to
/// into one signature. Two equal signatures mean no write landed in any
/// table the deployment reads between the two observations, so a replay
/// must reproduce the serve bit-for-bit.
pub(crate) fn version_signature(dep: &Deployment) -> u64 {
    let mut f = Fnv::new();
    for read in dep.reads.all() {
        f.write(read.name.as_bytes());
        f.write_u64(read.table.replicator().len());
    }
    f.finish()
}

/// FNV digest over a row's values: type discriminant plus exact bit
/// pattern per value, so any served/oracle difference — including a float
/// ULP or a NULL flip — changes the digest.
fn digest_row(values: &[Value]) -> u64 {
    let mut f = Fnv::new();
    for v in values {
        match v {
            Value::Null => f.write_u64(0),
            Value::Bool(b) => {
                f.write_u64(1);
                f.write_u64(u64::from(*b));
            }
            Value::Int(x) => {
                f.write_u64(2);
                f.write_u64(*x as u64);
            }
            Value::Bigint(x) => {
                f.write_u64(3);
                f.write_u64(*x as u64);
            }
            Value::Float(x) => {
                f.write_u64(4);
                f.write_u64(u64::from(x.to_bits()));
            }
            Value::Double(x) => {
                f.write_u64(5);
                f.write_u64(x.to_bits());
            }
            Value::Timestamp(x) => {
                f.write_u64(6);
                f.write_u64(*x as u64);
            }
            Value::Str(s) => {
                f.write_u64(7);
                f.write(s.as_bytes());
            }
        }
    }
    f.finish()
}

/// Capture one sampled serve onto the audit queue. Called by the engine
/// after the request finished, outside the latency measurement; only
/// clean (non-degraded, non-error) serves are auditable.
pub(crate) fn capture(
    dep: &Deployment,
    request: &Row,
    scratch: &RequestScratch,
    result: &Result<RequestOutput>,
    pre_sig: u64,
) {
    let out = match result {
        Ok(out) if !out.degraded => out,
        // Errors and degraded answers are already surfaced through their
        // own metrics; the sentinel audits only answers claimed correct.
        _ => return,
    };
    // A write landed mid-serve: the scan digests describe a state no
    // replay can reproduce. Skip, counted.
    if version_signature(dep) != pre_sig {
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
    if dep.codec.encode_into(request, &mut sample.request).is_err() {
        // The serve validated this row already; an encode failure here is
        // unreachable in practice but must not panic the serving path.
        recycle(sample);
        return;
    }
    sample.row_digest = digest_row(out.row.values());
    sample.row_repr.clear();
    let _ = write!(sample.row_repr, "{:?}", out.row.values());
    sample.scan = scratch.audit;
    sample.version_sig = pre_sig;
    sample.trace_id = out.trace_id;

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
    if version_signature(&dep) != sample.version_sig {
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

    let mismatch = first_mismatch(sample, &oracle, &replay_scan);
    let Some((kind, window, oracle)) = mismatch else {
        return;
    };
    // Confirm before reporting: a write that landed during the replay
    // makes the disagreement stale, not wrong.
    if version_signature(&dep) != sample.version_sig {
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
        served: sample.row_repr.clone(),
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
/// disagreement wins (the output mismatch before a scan-input mismatch).
fn first_mismatch(
    sample: &AuditSample,
    oracle: &Row,
    replay_scan: &ScanDigest,
) -> Option<(DivergenceKind, Option<usize>, String)> {
    if digest_row(oracle.values()) != sample.row_digest {
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
