//! Global observability handles for the execution library.

use openmldb_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

fn counter(cell: &'static OnceLock<Arc<Counter>>, name: &str, help: &str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name, help))
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
