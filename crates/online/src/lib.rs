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
//!   dynamic key→worker load balancing and incremental computation
//!   (Section 5.2), plus the static/recompute baselines for ablation;
//! * [`segtree`] — segment-tree range-merge structure and the query
//!   frequency tracker behind hierarchy adaptation;
//! * [`resilience`] — deadline budgets, bounded retries, replica failover,
//!   and the buckets-only degradation tier for the request path;
//! * [`sentinel`] — the consistency sentinel: 1-in-N sampled serves are
//!   re-executed through the materializing reference pipeline and compared
//!   bit-for-bit, turning the differential-test oracle into a continuous
//!   production audit.

pub mod engine;
pub mod metrics;
pub mod preagg;
mod readplan;
pub mod resilience;
pub mod segtree;
pub mod sentinel;
pub mod window_union;

pub use engine::{
    execute_request, execute_request_materialized, execute_request_materialized_with,
    execute_request_with, Deployment, MapProvider, TableProvider,
};
pub use preagg::PreAggregator;
pub use resilience::{RequestOptions, RequestOutput, RetryPolicy};
pub use segtree::{FrequencyTracker, Mergeable, SegmentTree};
pub use sentinel::{AuditStats, SentinelStats};
pub use window_union::{Scheduling, UnionConfig, WindowUnion};
