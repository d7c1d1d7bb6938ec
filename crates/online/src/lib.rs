//! # openmldb-online
//!
//! The online real-time execution engine (paper Sections 3.2 and 5):
//!
//! * [`engine`] — request-mode execution: a request tuple is virtually
//!   inserted, the deployed plan runs against the pre-ranked stores, and one
//!   feature row returns;
//! * `readplan` — what a deployment reads, bound once at DEPLOY: a table
//!   handle and index id per LAST JOIN and window source, and the scan
//!   groups of windows folded off one scan;
//! * [`preagg`] — long-window pre-aggregation with a multi-level bucket
//!   hierarchy maintained asynchronously through the binlog (Section 5.1);
//! * [`window_union`] — the self-adjusted multi-table window union with
//!   dynamic key→worker load balancing (Section 5.2); each key streams
//!   through the compiled window program's sweep, sliding the exactly
//!   invertible kernels, with static hashing and per-tuple recomputation
//!   as the baselines for ablation;
//! * [`resilience`] — deadline budgets, bounded retries, replica failover,
//!   and the buckets-only degradation tier for the request path;
//! * [`sentinel`] — the consistency sentinel: 1-in-N sampled serves are
//!   re-executed through the materializing reference pipeline and compared
//!   bit-for-bit, turning the differential-test oracle into a continuous
//!   production audit.

// A panic inside a request tears down the worker serving it: non-test code
// returns typed errors, and a provably unreachable `expect` says why in an
// `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod engine;
pub mod metrics;
pub mod preagg;
mod readplan;
pub mod resilience;
pub mod sentinel;
pub mod window_union;

pub use engine::{
    execute_request, execute_request_materialized, execute_request_materialized_with,
    execute_request_with, Deployment, MapProvider, TableProvider,
};
pub use preagg::PreAggregator;
pub use resilience::{RequestOptions, RequestOutput, RetryPolicy};
pub use sentinel::{version_signature, AuditStats, SentinelStats};
pub use window_union::{Scheduling, UnionConfig, WindowUnion};
