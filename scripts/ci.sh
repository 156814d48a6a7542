#!/usr/bin/env bash
# Full local CI: tier-1 tests, the tier-1 tests and the service smoke
# again under AddressSanitizer + UBSan, ThreadSanitizer concurrency checks, the
# scheduler hot-path performance gate, a differential-fuzz smoke run,
# a whole-program equivalence smoke, and a schedule-service replay
# smoke.
#
# Usage: scripts/ci.sh
#   IMS_CI_SKIP_ASAN=1  skips the AddressSanitizer + UBSan stage.
#   IMS_CI_SKIP_TSAN=1  skips the ThreadSanitizer stage (e.g. where the
#                       toolchain lacks tsan runtime support).
#   IMS_CI_SKIP_PERF=1  skips the performance gate (e.g. on loaded or
#                       throttled machines where timing is meaningless).
#   IMS_CI_SKIP_FUZZ=1  skips the fuzz smoke stage.
#   IMS_CI_SKIP_PROGRAM=1  skips the program equivalence smoke.
#   IMS_CI_SKIP_SERVICE=1  skips the service replay smoke.
#   FUZZ_BUDGET=<N>     fuzz case count (default 500 — the quick smoke
#                       run; set e.g. 20000 for a long overnight run).
#   SLACK_FUZZ_BUDGET=<N>  slack-backend fuzz case count (default 200).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==== stage 1/7: tier-1 tests ===="
# The -Wall -Wextra build is warning-free, and -Werror keeps it so.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Schedule-identity check + quick hot-path smoke on the default build.
# Unlike the Release-mode perf gate (stage 4, skippable on loaded
# machines), identity is timing-independent and always runs: every
# corpus kernel must still produce the bit-identical seed schedule.
build/bench/bench_sched_hotpath --quick \
    --golden bench/data/sched_identity_seed.json \
    --out build/BENCH_sched_hotpath_quick.json

# perfbench's traced replica re-enacts pipeline() call by call and checks
# that its results and counters match the library's (the digest check
# that keeps the post-schedule MinDist in place); every workload must be
# correct with it. One second each: this checks outputs, not speed.
for workload in corpus_batch unroll_ladder hard_ii serve_mix; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace 1 | tail -n 1
done

# Independent JSON check: Python's json module, which shares no code with
# the library's writers, must parse every telemetry record of the kernel
# corpus on all three backends and every `--program all` summary line.
# NaN and Infinity are not JSON, so they are rejected too.
kernel_args=()
for kernel in $(build/tools/ims-schedule --list-kernels \
        | grep -v '(program' | awk '{print $1}'); do
    kernel_args+=(--kernel "$kernel")
done
for scheduler in iterative slack exact; do
    build/tools/ims-schedule --scheduler "$scheduler" --telemetry --quiet \
        "${kernel_args[@]}" | grep '^{'
done > build/telemetry-records.jsonl
build/tools/ims-schedule --program all --quiet > build/program-summary.jsonl
python3 - "$((3 * ${#kernel_args[@]} / 2))" build/telemetry-records.jsonl \
    build/program-summary.jsonl <<'PY'
import json
import sys

def reject(constant):
    raise ValueError("not JSON: " + constant)

want_records = int(sys.argv[1])
for path in sys.argv[2:]:
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    for number, line in enumerate(lines, 1):
        try:
            json.loads(line, parse_constant=reject)
        except ValueError as error:
            sys.exit(f"ci: {path}:{number}: {error}")
    if not lines:
        sys.exit(f"ci: {path} is empty")
    if path.endswith("telemetry-records.jsonl") and len(lines) != want_records:
        sys.exit(f"ci: {len(lines)} telemetry records, want {want_records}")
    print(f"ci: all {len(lines)} lines of {path} parse as JSON")
PY

if [ "${IMS_CI_SKIP_ASAN:-0}" != "1" ]; then
    echo "==== stage 2/7: AddressSanitizer + UBSan ===="
    # The test binaries ctest runs and ims-serve; any sanitizer report (an
    # out-of-range index, signed overflow, ...) aborts its test or the
    # service smoke, whose hostile requests then run under the
    # sanitizers too. A Debug build, so this stage also runs every assert
    # in src/ (the default RelWithDebInfo build defines NDEBUG).
    cmake -B build-asan -S . -DIMS_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=Debug >/dev/null
    cmake --build build-asan -j --target ims_tests ims-serve
    (cd build-asan &&
        UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j)
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        scripts/check_service.sh build-asan
else
    echo "==== stage 2/7: AddressSanitizer + UBSan (skipped) ===="
fi

if [ "${IMS_CI_SKIP_TSAN:-0}" != "1" ]; then
    echo "==== stage 3/7: ThreadSanitizer ===="
    scripts/check_tsan.sh
else
    echo "==== stage 3/7: ThreadSanitizer (skipped) ===="
fi

if [ "${IMS_CI_SKIP_PERF:-0}" != "1" ]; then
    echo "==== stage 4/7: performance gate ===="
    scripts/check_perf.sh
else
    echo "==== stage 4/7: performance gate (skipped) ===="
fi

if [ "${IMS_CI_SKIP_FUZZ:-0}" != "1" ]; then
    echo "==== stage 5/7: differential fuzz smoke ===="
    # Fixed seed so the stage is reproducible; any finding fails CI and
    # leaves its minimized reproducer under build/fuzz-repro/ for replay
    # with `build/tools/ims-fuzz --replay <file>`.
    build/tools/ims-fuzz --seed 20260806 --cases "${FUZZ_BUDGET:-500}" \
        --repro-dir build/fuzz-repro --out build/fuzz-report.json
    # The same oracle stack on the slack backend.
    build/tools/ims-fuzz --seed 20260808 \
        --cases "${SLACK_FUZZ_BUDGET:-200}" --scheduler slack \
        --repro-dir build/fuzz-repro --out build/fuzz-slack-report.json
    # Optimality smoke: re-pipeline each clean case with the exact
    # backend (capped node budget; budget-exhausted searches are
    # skipped). opt.ii_gap findings are *known heuristic quality gaps*
    # (Rau: near-optimal, not optimal) and are tolerated; any other code
    # — opt.exact_invalid above all, an unsound exact proof — fails the
    # stage.
    build/tools/ims-fuzz --seed 20260806 --cases "${OPT_GAP_BUDGET:-150}" \
        --machine cydra5 --oracle opt.ii_gap --exact-budget 100000 \
        --repro-dir build/fuzz-repro \
        --out build/fuzz-optgap-report.json || true
    if grep -o '"code":"[^"]*"' build/fuzz-optgap-report.json \
            | grep -v '"code":"opt.ii_gap"'; then
        echo "ci: optimality smoke found non-gap findings" >&2
        exit 1
    fi
else
    echo "==== stage 5/7: differential fuzz smoke (skipped) ===="
fi

if [ "${IMS_CI_SKIP_PROGRAM:-0}" != "1" ]; then
    echo "==== stage 6/7: whole-program equivalence smoke ===="
    # Every corpus program through the program-level driver (EC/LC loop
    # control, stage predicates, pipeline compression) at trip counts
    # {0,1,2,5,17}, compiled execution vs the sequential reference with
    # a fixed input seed — timing-independent, so it always gates. The
    # fuzz campaign covers the same driver on random loops via
    # --oracle program.equiv.
    build/tools/ims-schedule --program all --verify --quiet
    build/tools/ims-fuzz --seed 20260807 \
        --cases "${PROGRAM_FUZZ_BUDGET:-60}" \
        --machine cydra5 --oracle program.equiv \
        --repro-dir build/fuzz-repro \
        --out build/fuzz-program-report.json
else
    echo "==== stage 6/7: whole-program equivalence smoke (skipped) ===="
fi

if [ "${IMS_CI_SKIP_SERVICE:-0}" != "1" ]; then
    echo "==== stage 7/7: schedule-service replay smoke ===="
    scripts/check_service.sh build
else
    echo "==== stage 7/7: schedule-service replay smoke (skipped) ===="
fi

echo "ci: all stages passed"
