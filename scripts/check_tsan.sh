#!/usr/bin/env bash
# Build every target that runs a thread pool under ThreadSanitizer and
# run the concurrency-sensitive tests plus a small multi-threaded bench
# sweep: the batch driver (support::parallelFor over a shared
# MachineModel), the schedule service's workers, cache and cached
# results shared across threads (DepGraphs included), and the fuzz
# campaign. Then the service smoke runs against the TSan ims-serve, whose
# workers fill its in-order answer slots concurrently (the `--threads 2`
# replay and the liveness check). Any data race fails the script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DIMS_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j \
    --target batch_pipeliner_test telemetry_test pipeliner_test \
             ii_search_test service_test fuzz_test bench_batch_throughput \
             ims-serve

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

echo "== batch_pipeliner_test (tsan) =="
"$BUILD_DIR/tests/batch_pipeliner_test"
echo "== telemetry_test (tsan) =="
"$BUILD_DIR/tests/telemetry_test"
echo "== pipeliner_test (tsan) =="
"$BUILD_DIR/tests/pipeliner_test"
echo "== ii_search_test (tsan) =="
"$BUILD_DIR/tests/ii_search_test"
echo "== service_test (tsan) =="
"$BUILD_DIR/tests/service_test"
echo "== fuzz_test (tsan) =="
"$BUILD_DIR/tests/fuzz_test"
echo "== bench_batch_throughput (tsan, small sweep) =="
"$BUILD_DIR/bench/bench_batch_throughput" --loops 40 --threads 1,4,8
echo "== service smoke (tsan ims-serve) =="
TSAN_OPTIONS=halt_on_error=1 scripts/check_service.sh "$BUILD_DIR"

echo "tsan: all checks passed"
