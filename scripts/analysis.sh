#!/usr/bin/env bash
# Full local analysis gauntlet: formatting, clippy, the tests (the workspace
# lint is one of them, `tests/lint.rs`), the feature-armed suites of
# .github/workflows/ci.yml command for command, the deterministic schedule
# explorer, and (when installed) miri.
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

step "cargo clippy (deny warnings: unsafe docs, unwrap/expect in storage, online, exec, truncating casts in types::codec)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$QUICK" -eq 0 ]; then
    step "release build"
    cargo build --workspace --release
fi

step "workspace tests (the workspace lint included; every crate runs even when one fails)"
cargo test --workspace -q --no-fail-fast

# The bench tests that assert a paper shape or a bound from wall-clock
# timings (`#[ignore]`d in the parallel suite), one at a time: under the
# parallel harness another test's load moves their clocks. Among them the obs
# cross-check (the harness clock also covers code outside the engine's
# interval) and the sentinel sampling overhead (two microsecond p50s).
step "wall-clock bench tests (alone, one at a time)"
cargo test -q -p openmldb-bench --lib -- --ignored --test-threads=1

step "observability compiled out (obs-off build + tests)"
cargo build -q -p openmldb --features obs-off
cargo test -q -p openmldb-obs --features obs-off
cargo test -q -p openmldb --features obs-off --test observability
cargo test -q -p openmldb --features obs-off --test request_record
cargo test -q -p openmldb --features obs-off --test workload_attribution
cargo test -q -p openmldb --features obs-off --test streaming_oracle
cargo test -q -p openmldb --features obs-off --test sentinel
cargo test -q -p openmldb --features obs-off --test scan_groups
cargo test -q -p openmldb --features obs-off --test warm_allocs
cargo run -q -p openmldb-bench --features obs-off --bin ops_smoke

step "schedule explorer (model-check feature)"
cargo test -q -p openmldb-storage --features model-check
# Rows a pinned scan lends outlive a racing TTL truncation, freed after the pin.
cargo test -q -p openmldb-storage --features model-check --test schedule_explorer \
    pinned_scan_borrows_outlive_a_concurrent_truncation

step "fault injection armed (chaos build + seeded resilience suite)"
cargo build -q --workspace --features chaos
cargo test -q --test resilience --features chaos
cargo test -q -p openmldb-storage --features chaos
cargo test -q -p openmldb-online --features chaos
cargo test -q -p openmldb-core --features chaos

step "compiled-vs-materialized oracle and consistency sentinel under chaos"
cargo test -q --test streaming_oracle --features chaos
cargo test -q --test scan_groups --features chaos
cargo test -q --test sentinel --features chaos

step "fault injection compiled out (resilience suite, clean path)"
cargo test -q --test resilience

step "batched delivery + WAL bytes under kills"
cargo test -q -p openmldb-storage --features chaos --test binlog_kills --test wal_format
cargo test -q -p openmldb-storage --features chaos --lib binlog::

step "scan path under chaos + obs-off (feature-matrix corner)"
cargo test -q -p openmldb-storage --features chaos,obs-off
cargo test -q -p openmldb-online --features chaos,obs-off
cargo test -q -p openmldb --features chaos,obs-off --test request_record
cargo test -q -p openmldb --features chaos,obs-off --test streaming_oracle
cargo test -q -p openmldb --features chaos,obs-off --test sentinel

step "crash recovery suite (clean path, then WalFsync/SnapshotWrite kills armed; release)"
cargo test -q --release --test recovery
cargo test -q --release --test recovery --features chaos

step "sticky WAL failures (clean path, then WalFsync errors armed; release)"
cargo test -q --release --test wal_failures
cargo test -q --release --test wal_failures --features chaos

if [ "$QUICK" -eq 0 ]; then
    step "scan groups + warm allocations of the serve_short shape (release)"
    cargo test -q --release --test scan_groups --test warm_allocs

    step "offline oracle: online == offline and sweep == re-fold, bit for bit (release)"
    cargo test -q --release --test consistency --test proptest_consistency
    cargo test -q --release -p openmldb-offline

    step "streamed sweep: every push == fold_partition, slide (extrema deques, column-folded f64 sums) == re-fold, block and lane folds == interpreter (release)"
    cargo test -q --release -p openmldb-exec sweep
    cargo test -q --release -p openmldb-exec retract_contract
    cargo test -q --release -p openmldb-exec block_fold
    cargo test -q --release -p openmldb-exec lane_fold
    cargo test -q --release -p openmldb-exec count_map_spread
    cargo test -q --release -p openmldb-online window_union

    step "zero-copy window scan: pinned fold == arena fold == interpreter (release)"
    cargo test -q --release -p openmldb-exec pinned_fold

    # benchmark/ is a package of its own; its replay probes call the
    # specializer's public API directly (the script lists the calls and the
    # one stale pin it tolerates).
    step "benchmark-api (omlbench builds and its tests pass against the engine API)"
    ./scripts/benchmark_api.sh

    step "observability budget (serve_short, obs on / obs-off latency ratio <= 1.40)"
    ./scripts/obs_overhead.sh
fi

step "slow-query report smoke (obs_report, text + json + durability section)"
cargo run -q -p openmldb-bench --bin obs_report > target/obs_report.txt
grep -q "slow-query log:" target/obs_report.txt
grep -q "durability & recovery" target/obs_report.txt
cargo run -q -p openmldb-bench --bin obs_report -- --json | grep -q '"slow_queries"'

if [ "$QUICK" -eq 0 ]; then
    step "property tests, raised case count"
    OPENMLDB_PROPTEST_CASES=512 cargo test -q -p openmldb-storage -p openmldb-types
    # Bucket states merged == one pass: pre-aggregation's invariant.
    OPENMLDB_PROPTEST_CASES=512 cargo test -q -p openmldb-exec --lib merge_equals_single_pass
    # Served == reference == offline by `Value`'s exact `==`, NaN bits
    # included: at this case count a NaN-payload divergence shows.
    OPENMLDB_PROPTEST_CASES=2000 cargo test -q --release --test streaming_oracle
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
