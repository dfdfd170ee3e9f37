#!/usr/bin/env bash
# Full CI sweep: builds the Release, ThreadSanitizer and
# AddressSanitizer configurations, runs ctest on each, and validates
# every BENCH_*.json artifact via the `check-json` target of the
# Release build — including the smoke run of the sim-throughput
# microbenchmark, whose BENCH_kernels.json must carry a valid
# sim_throughput section (thread-count-invariant robust picks are
# checked inside it). After ctest, the release leg also runs the whole
# `ms_tests` suite once as a single process: ctest gives every test a
# process of its own, which hides failures that depend on test order or
# on a death test forking a process whose thread pool is running. Every
# ctest pass also runs the `sim-throughput-smoke`- and
# `profiler-smoke`-labelled tests, so the concurrent-candidate path
# and the critical-path recorder execute under both sanitizers. The
# release leg finishes with a bench-diff report: the smoke BENCH
# artifacts are regenerated and compared against the previous run's
# via tools/bench_diff.py (throughput keys gated at 20%, embedded
# cross-checks must stay true).
#
# Usage: tools/run_ci.sh [build-root]
#   build-root defaults to ./build-ci; one subdirectory per config.
#
# Environment:
#   CTEST_PARALLEL  parallel test jobs (default: nproc)
#   CONFIGS         space-separated subset of "release thread address"
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
root=${1:-"$repo/build-ci"}
jobs=${CTEST_PARALLEL:-$(nproc)}
configs=${CONFIGS:-"release thread address"}

failures=()

build_and_test() {
    local name=$1
    shift
    local dir="$root/$name"
    echo "=== [$name] configure ==="
    cmake -S "$repo" -B "$dir" "$@" > "$dir-configure.log" 2>&1 ||
        { echo "configure failed (see $dir-configure.log)"; return 1; }
    echo "=== [$name] build ==="
    cmake --build "$dir" -j "$jobs" > "$dir-build.log" 2>&1 ||
        { echo "build failed (see $dir-build.log)"; return 1; }
    echo "=== [$name] ctest ==="
    # --timeout is the per-test watchdog: a wedged simulation (e.g. an
    # elastic run that never drains) fails its one test instead of
    # hanging the whole CI leg. Individual tests may still set tighter
    # TIMEOUT properties of their own.
    (cd "$dir" && ctest -j "$jobs" --timeout 900 --output-on-failure)
}

mkdir -p "$root"

for config in $configs; do
    case "$config" in
      release)
        if build_and_test release \
               -DCMAKE_BUILD_TYPE=Release -DMESHSLICE_SANITIZE=; then
            echo "=== [release] ms_tests as one process ==="
            "$root/release/tests/ms_tests" --gtest_brief=1 ||
                failures+=("release/ms_tests-one-process")
            echo "=== [release] check-json (BENCH_*.json artifacts) ==="
            cmake --build "$root/release" --target check-json ||
                failures+=("release/check-json")
            # Bench-diff report: regenerate the profiler/kernel/
            # elastic/plan-server smoke artifacts and diff them
            # against the previous CI run's
            # (seeded on the first run; override the baseline location
            # with BENCH_BASELINE_DIR). Gates throughput keys and the
            # embedded cross-checks via tools/bench_diff.py.
            echo "=== [release] bench-diff (vs previous run) ==="
            artifacts="$root/release/bench-artifacts"
            baseline="${BENCH_BASELINE_DIR:-$root/bench-baseline}"
            mkdir -p "$artifacts"
            if (cd "$artifacts" &&
                "$root/release/bench/explain_report" --smoke \
                    > explain_report.out &&
                "$root/release/bench/micro_kernels" --smoke \
                    > micro_kernels.out &&
                "$root/release/bench/elastic_report" --smoke \
                    > elastic_report.out &&
                "$root/release/bench/plan_server_report" --smoke \
                    > plan_server_report.out); then
                if ls "$baseline"/BENCH_*.json > /dev/null 2>&1; then
                    for f in "$artifacts"/BENCH_*.json; do
                        name=$(basename "$f")
                        [ -f "$baseline/$name" ] || continue
                        python3 "$repo/tools/bench_diff.py" \
                            "$baseline/$name" "$f" ||
                            failures+=("release/bench-diff:$name")
                    done
                else
                    echo "no baseline in $baseline; seeding from this run"
                fi
                mkdir -p "$baseline"
                cp "$artifacts"/BENCH_*.json "$baseline"/
            else
                failures+=("release/bench-artifacts")
            fi
        else
            failures+=("release")
        fi
        ;;
      thread)
        # TSan slows the simulator ~10x; the suite still finishes in
        # minutes. MESHSLICE_THREADS is left alone so the thread pool
        # actually exercises cross-thread access.
        build_and_test thread \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DMESHSLICE_SANITIZE=thread || failures+=("thread")
        ;;
      address)
        build_and_test address \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DMESHSLICE_SANITIZE=address || failures+=("address")
        ;;
      *)
        echo "unknown config '$config' (want: release thread address)"
        failures+=("$config")
        ;;
    esac
done

echo
if [ ${#failures[@]} -gt 0 ]; then
    echo "CI FAILED: ${failures[*]}"
    exit 1
fi
echo "CI OK: all configs passed ($configs)"
