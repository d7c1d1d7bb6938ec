//! Run every experiment of the evaluation section in sequence.
//! `BENCH_SCALE` scales row counts (default 1.0).

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
    let obs = e::obs_snapshot::run();
    if obs.diverged {
        eprintln!("obs snapshot diverged from harness measurements beyond tolerance");
        std::process::exit(1);
    }
    let chaos = e::chaos_serving::run();
    if chaos.lost > 0 || chaos.p99_exceeded {
        eprintln!(
            "chaos serving violated the resilience contract (lost={}, p99_exceeded={})",
            chaos.lost, chaos.p99_exceeded
        );
        std::process::exit(1);
    }
    let tail = e::tailtrace::run();
    if tail.gate_failed {
        eprintln!(
            "tail-latency attribution gate failed: {}/{} anomalies matched to a \
             post-mortem, {} stage-sum mismatches",
            tail.matched, tail.anomalies, tail.sum_mismatches
        );
        std::process::exit(1);
    }
    let profile = e::workload_profile::run();
    if profile.gate_failed {
        eprintln!(
            "workload attribution gate failed: per-deployment totals diverge from \
             globals beyond {:.0}% (requests {:.4}, rows {:.4}, stage time {:.4})",
            e::workload_profile::TOLERANCE * 100.0,
            profile.divergence[0],
            profile.divergence[1],
            profile.divergence[2]
        );
        std::process::exit(1);
    }
    let recovery = e::recovery::run();
    if recovery.gate_failed {
        eprintln!(
            "recovery gate failed: {} violations across {} seeded crash/restart cycles \
             (lost, duplicated, or corrupted rows after recovery)",
            recovery.violations, recovery.cycles
        );
        std::process::exit(1);
    }
    let audit = e::audit_sentinel::run();
    if audit.gate_failed {
        eprintln!(
            "audit sentinel gate failed: p50 overhead {:.2}% (max {:.2}%), audited {}, \
             divergences {}, chaos caught {} attributed {}",
            audit.overhead * 100.0,
            audit.max_overhead * 100.0,
            audit.audited,
            audit.divergences,
            audit.chaos_divergences,
            audit.chaos_attributed
        );
        std::process::exit(1);
    }
    println!("\nAll experiments complete.");
}
