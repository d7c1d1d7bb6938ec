//! # openmldb-offline
//!
//! The offline batch execution engine (paper Section 6): the program a
//! deployment serves with, run over a historical snapshot, one training
//! feature row per base-table row — the same values the online engine
//! returns, bit for bit.
//!
//! * [`snapshot`] — the encoded input: every row's bytes in one arena,
//!   grouped per key in the order a request scans;
//! * [`engine`] — execution: the window sweeps, then LAST JOIN, WHERE and
//!   the select list per row; the adapters over decoded rows;
//! * [`parallel`] — one grouping per window shape, one work queue for every
//!   window, and the Concat Join by index column (Section 6.1);
//! * [`skew`] — time-aware skew repartitioning: hot keys cut into time
//!   slices at timestamp percentiles, context rows (Section 6.2).

pub mod engine;
pub mod parallel;
pub mod skew;
pub mod snapshot;

pub use engine::{execute, execute_batch, sweep_window, OfflineOptions, Tables, WindowExecMode};
pub use parallel::{compute_windows, concat_join};
pub use skew::SkewConfig;
pub use snapshot::Snapshot;
