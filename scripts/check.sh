#!/usr/bin/env bash
# CI gate: formatting, lints, release build, docs, and the test suites.
# Run from anywhere inside the repository.
#
# This script is the single entrypoint for both local runs and CI: every
# job in .github/workflows/ci.yml invokes it with one step name, so the
# two can never drift.
#
# Usage:
#   scripts/check.sh                  run every step (the full gate)
#   scripts/check.sh --quick          full gate minus the release build
#   scripts/check.sh <step> [...]     run only the named steps, in order
#
# Steps (each is the run_<step> function of the same name; a new step is
# one more function plus its name here): fmt clippy build test planoff
# specoff spill health healthoff proc doc stress bench benchmark
# (proc, stress, bench and benchmark are CI-job-only: they are not part of
# the default full gate because of their runtime.)
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    # Print the leading comment block (however long it grows), shebang
    # excluded — a hard-coded line range here silently truncates the
    # help text every time a step is added above.
    awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
    exit 2
}

run_fmt() {
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "== cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_build() {
    echo "== cargo build --release"
    cargo build --release --workspace
}

# Wall-clock watchdog for the test steps: a scheduler regression that
# wedges a job (admission never draining, a deadline never firing, a lost
# wake-up) otherwise hangs CI until the runner's global timeout. Override
# with WATCHDOG_SECS; 0 disables.
WATCHDOG_SECS="${WATCHDOG_SECS:-600}"

watchdog() {
    if [ "$WATCHDOG_SECS" -gt 0 ] && command -v timeout >/dev/null; then
        timeout --signal=KILL "$WATCHDOG_SECS" "$@"
    else
        "$@"
    fi
}

run_test() {
    echo "== cargo test (watchdog ${WATCHDOG_SECS}s)"
    watchdog cargo test -q --workspace
}

# The adaptive plan layer (narrow-chain fusion, shuffle elision, runtime
# partition coalescing) defaults on; this step proves the unoptimised
# execution paths still work by running the whole suite with every
# planner rewrite disabled. Tests that assert a rewrite's own behaviour
# pin their flags through the builder, which wins over the env default.
run_planoff() {
    echo "== cargo test with SPANGLE_DISABLE_PLANNER=1 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_DISABLE_PLANNER=1 watchdog cargo test -q --workspace
}

# Speculative execution defaults on; this step proves the scheduler is
# correct without its straggler mitigation by running the whole suite
# with speculation disabled. Tests that assert speculation's own
# behaviour pin it on through the builder, which wins over the env
# default.
run_specoff() {
    echo "== cargo test with SPANGLE_DISABLE_SPECULATION=1 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_DISABLE_SPECULATION=1 watchdog cargo test -q --workspace
}

# The tiered block store defaults to a disabled watermark (usize::MAX);
# this step proves the spill/rehydrate machinery is load-bearing by
# running the whole suite with an artificially low watermark, so cold
# shuffle blocks and cached partitions constantly demote to disk and
# rehydrate mid-job. Tests that pin their own watermark (or disable
# spilling) through the builder win over the env default.
run_spill() {
    echo "== cargo test with SPANGLE_MEMORY_WATERMARK_BYTES=262144 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_MEMORY_WATERMARK_BYTES=262144 watchdog cargo test -q --workspace
}

# Health monitoring defaults to forgiving intervals (1 s loss threshold,
# 10 s watchdog); this step tightens both (400 ms loss, 1 s watchdog) and
# runs the whole suite under the aggressive monitor, proving loss
# detection (fed by the pool's dedicated heartbeater) and the
# body-driven no-progress watchdog stay false-positive-free near their
# margins. Tests that assert the monitor's own behaviour pin their
# intervals through the builder, which wins over the env default.
run_health() {
    echo "== cargo test with SPANGLE_HEARTBEAT_MS=40 SPANGLE_WATCHDOG_MS=1000 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_HEARTBEAT_MS=40 SPANGLE_WATCHDOG_MS=1000 watchdog cargo test -q --workspace
}

# Health monitoring (and its retry backoff) defaults on; this step proves
# the announced-failures-only paths still work by running the whole suite
# with the layer's kill switch thrown — exactly the pre-health scheduler.
# Tests that assert the monitor's own behaviour pin it on through the
# builder, which wins over the env default.
run_healthoff() {
    echo "== cargo test with SPANGLE_DISABLE_HEALTH=1 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_DISABLE_HEALTH=1 watchdog cargo test -q --workspace
}

run_doc() {
    echo "== cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

# The executor backend defaults to the in-process pool; this step runs
# the whole suite with SPANGLE_BACKEND=proc, so every context's spillable
# shuffle blocks and cached partitions live in real worker OS processes
# behind the Unix-socket wire protocol, then runs the SIGKILL crash gate:
# fig11's PageRank with one worker process killed per iteration, detected
# purely by missed socket heartbeats and recovered from lineage to the
# clean in-process ranks. Tests that pin a backend through the builder
# win over the env default.
run_proc() {
    echo "== cargo test with SPANGLE_BACKEND=proc (watchdog ${WATCHDOG_SECS}s)"
    cargo build -q -p spangle-dataflow --bin spangle_worker
    local worker_bin="$PWD/target/debug/spangle_worker"
    SPANGLE_BACKEND=proc SPANGLE_WORKER_BIN="$worker_bin" \
        SPANGLE_PROC_MAX_WORKERS=4 \
        watchdog cargo test -q --workspace
    echo "== proc: SIGKILL crash-recovery gate"
    SPANGLE_WORKER_BIN="$worker_bin" \
        watchdog cargo test -q -p spangle --test proc_crash_gate -- --ignored
}

run_stress() {
    echo "== stress: concurrent jobs, admission overload (watchdog ${WATCHDOG_SECS}s)"
    # Serial: both scenarios assert on process-wide thread counts.
    watchdog cargo test -q -p spangle-dataflow --test stress_concurrent_jobs -- \
        --ignored --test-threads=1
    echo "== stress: executor-kill chaos recovery"
    watchdog cargo test -q -p spangle-dataflow --test chaos_recovery -- --ignored
}

# Perf-trajectory gate: regenerate the fig10/fig11 wall-clock artifacts
# in release mode and fail if they regressed more than
# BENCH_REGRESSION_PCT (default 25%) against the committed baselines.
# The fresh BENCH_*.json files are left in the working tree so CI can
# upload them and a genuine improvement can be committed as the new
# baseline.
run_bench() {
    echo "== bench: fig10/fig11 perf-trajectory gate (watchdog ${WATCHDOG_SECS}s)"
    local baseline_dir
    baseline_dir="$(mktemp -d)"
    cp BENCH_fig10.json BENCH_fig11.json "$baseline_dir"/
    cargo build --release -p spangle-bench
    watchdog cargo run --release -q -p spangle-bench --bin fig10
    watchdog cargo run --release -q -p spangle-bench --bin fig11
    local status=0
    for fig in fig10 fig11; do
        cargo run --release -q -p spangle-bench --bin bench_compare -- \
            "$baseline_dir/BENCH_$fig.json" "BENCH_$fig.json" || status=1
    done
    rm -rf "$baseline_dir"
    return "$status"
}

# The repository benchmark (benchmark/, a cargo package with its own
# workspace, so `--workspace` never reaches it): its own tests include a
# smoke-scale run of every workload through the block store, gram's
# spill probe included.
run_benchmark() {
    echo "== benchmark: package tests (watchdog ${WATCHDOG_SECS}s)"
    watchdog cargo test --release --offline --manifest-path benchmark/Cargo.toml
}

steps=()
for arg in "$@"; do
    case "$arg" in
    --quick) steps+=(fmt clippy test planoff specoff spill health healthoff doc) ;;
    -h | --help) usage ;;
    *)
        # A step is any run_<name> function above.
        declare -F "run_$arg" >/dev/null || usage
        steps+=("$arg")
        ;;
    esac
done
if [ ${#steps[@]} -eq 0 ]; then
    steps=(fmt clippy build test planoff specoff spill health healthoff doc)
fi

for step in "${steps[@]}"; do
    "run_$step"
done

echo "== all checks passed"
