#!/usr/bin/env bash
# Full local analysis gauntlet: formatting, clippy, the workspace lint,
# tests, the deterministic schedule explorer, and (when installed) miri.
# Optional tools are detected at runtime and skipped with a notice — this
# script must pass on a box that has only stable rustc + cargo.
#
# Usage: scripts/analysis.sh [--quick]
#   --quick   skip the release build and the raised-case proptest pass

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings, incl. undocumented_unsafe_blocks)"
cargo clippy --workspace --all-targets -- -D warnings

step "workspace lint (line rules + call-graph rules, SARIF emitted)"
cargo run -q -p openmldb-analysis -- lint
[ -s target/analysis.sarif ] || { echo "missing target/analysis.sarif"; exit 1; }

if [ "$QUICK" -eq 0 ]; then
    step "release build"
    cargo build --workspace --release
fi

step "workspace tests"
cargo test --workspace -q

step "observability compiled out (obs-off build + tests)"
cargo build -q -p openmldb --features obs-off
cargo test -q -p openmldb-obs --features obs-off
cargo test -q -p openmldb --features obs-off --test observability

step "schedule explorer (model-check feature)"
cargo test -q -p openmldb-storage --features model-check

step "fault injection armed (chaos build + seeded resilience suite)"
cargo build -q -p openmldb --features chaos
cargo test -q --test resilience --features chaos
cargo test -q --test scan_groups --features chaos
cargo test -q -p openmldb-storage -p openmldb-online -p openmldb-core --features chaos

step "fault injection compiled out (resilience suite, clean path)"
cargo test -q --test resilience

step "crash recovery suite (clean path, then WalFsync/SnapshotWrite kills armed)"
cargo test -q --test recovery
cargo test -q --test recovery --features chaos

step "recovery experiment gate (reduced-scale seeded crash sweep)"
cargo test -q -p openmldb-bench --features chaos seeded_crash_cycles

step "scan path under chaos + obs-off (feature-matrix corner)"
cargo test -q -p openmldb-storage -p openmldb-online --features chaos,obs-off

if [ "$QUICK" -eq 0 ]; then
    step "scan groups + warm allocations of the serve_short shape (release)"
    cargo test -q --release --test scan_groups --test warm_allocs

    # benchmark/ is a package of its own; its replay probes call the
    # specializer's public API directly (the script lists the calls and the
    # one stale pin it tolerates).
    step "benchmark-api (omlbench builds and its tests pass against the engine API)"
    ./scripts/benchmark_api.sh

    step "observability budget (serve_short, obs on / obs-off latency ratio <= 1.50)"
    ./scripts/obs_overhead.sh
fi

step "tail-latency attribution contract (tailtrace gate, chaos on)"
BENCH_SCALE=0.1 cargo test -q -p openmldb-bench --features chaos tailtrace

step "slow-query report smoke (obs_report, text + json + durability section)"
cargo run -q -p openmldb-bench --bin obs_report > target/obs_report.txt
grep -q "slow-query log:" target/obs_report.txt
grep -q "durability & recovery" target/obs_report.txt
cargo run -q -p openmldb-bench --bin obs_report -- --json | grep -q '"slow_queries"'

if [ "$QUICK" -eq 0 ]; then
    step "property tests, raised case count"
    OPENMLDB_PROPTEST_CASES=512 cargo test -q -p openmldb-storage -p openmldb-types
fi

step "miri (optional)"
if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
    # Miri cannot run the OS-thread-heavy suites; the proptest shim caps
    # its case count under cfg(miri) and heavy tests are #[ignore]d there.
    cargo +nightly miri test -p openmldb-types
    # The single-allocation skiplist nodes (header + inline tower behind a
    # raw pointer) and the epoch reclamation that frees them.
    cargo +nightly miri test -p openmldb-storage --lib -- skiplist:: sync::epoch::
    # Hostile row bytes through the compiled kernels, the only reader a
    # served window has.
    cargo +nightly miri test -p openmldb-exec --lib -- hostile_row_bytes
else
    echo "miri not installed; skipping (rustup +nightly component add miri)"
fi

step "all analysis steps passed"
