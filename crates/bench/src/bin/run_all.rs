//! Run every experiment of the evaluation section in sequence and print
//! its tables. `BENCH_SCALE` scales row counts (default 1.0). Nothing here
//! gates: each contract an experiment exercises is asserted by one test
//! under `tests/` (DESIGN.md, "Contracts and their tests").

use openmldb_bench::experiments as e;

fn main() {
    println!(
        "OpenMLDB reproduction — full evaluation (BENCH_SCALE={})",
        openmldb_bench::harness::scale()
    );
    e::tab_rowsize::run();
    e::fig06::run();
    e::fig07::run();
    e::tab02::run();
    e::fig08::run();
    e::fig09::run();
    e::fig10::run();
    e::fig11::run();
    e::fig_union::run();
    e::fig12::run();
    e::fig13::run();
    e::fig14::run();
    e::sweeps::run_window_count();
    e::sweeps::run_window_size();
    e::sweeps::run_join_count();
    e::tab03::run();
    e::backend::run();
    e::ablations::run_bucket_granularity();
    e::ablations::run_rebalance_period();
    e::obs_snapshot::run();
    e::chaos_serving::run();
    e::recovery::run();
    e::audit_sentinel::run();
    println!("\nAll experiments complete.");
}
