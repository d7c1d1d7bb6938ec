//! Global observability handles for the execution library.

use openmldb_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

fn counter(cell: &'static OnceLock<Arc<Counter>>, name: &str, help: &str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name, help))
}

/// Sliding-window pushes served by the subtract-and-evict fast path.
pub fn incremental_steps() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_exec_incremental_steps_total",
        "Sliding-window pushes served by subtract-and-evict",
    )
}

/// Sliding-window pushes that fell back to full recomputation.
pub fn recompute_steps() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_exec_recompute_steps_total",
        "Sliding-window pushes that recomputed the frame from scratch",
    )
}

/// Rows evicted from sliding-window frames.
pub fn window_evictions() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_exec_window_evictions_total",
        "Rows evicted from sliding-window frames",
    )
}

/// Plans lowered to specialized bytecode programs at deploy time.
pub fn program_plans() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_exec_program_plans_total",
        "Plans specialized into bytecode programs",
    )
}

/// Windows compiled to monomorphized aggregate kernels.
pub fn program_windows() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    counter(
        &M,
        "openmldb_exec_program_windows_total",
        "Windows compiled to specialized aggregate kernels",
    )
}
