//! # openmldb-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section 9). Run individual experiments via the binaries
//! (`cargo run --release -p openmldb-bench --bin fig06_online_microbench`)
//! or everything via `--bin run_all`. Scale row counts with `BENCH_SCALE`
//! (default 1.0 finishes in minutes; larger values approach paper scale).

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod scenarios;
