#!/usr/bin/env bash
# Build the performance benchmarks in Release mode and run the gates:
#
#  1. bench_sched_hotpath — verify schedule identity against the
#     checked-in seed golden, and fail if any throughput metric regresses
#     by more than 10% against the checked-in baseline
#     (BENCH_sched_hotpath.json at the repo root). --scaling-gate also
#     requires the BatchPipeliner to reach >=3x loops/s at 8 threads
#     over 1 thread — enforced only when the host reports >= 8
#     hardware threads; smaller machines record the ratio with
#     "gate_enforced": false in the JSON.
#  2. bench_ii_search — the Figure-2 II walk on hard-II workloads: their
#     (II, attempts, schedule hash), one of the three identity oracles,
#     are drift-checked against the checked-in BENCH_ii_search.json
#     baseline.
#  3. bench_service — schedule-cache traffic replay: cache hits must be
#     bit-identical to cold runs, the replay pass must hit >=95% of the
#     time, and the hit-path p50 latency must be >=10x faster than the
#     cold-path p50.
#  4. bench_program_compile — whole-program driver gates: pipeline
#     compression must never increase the cycle count on any corpus
#     program at any checked trip, must strictly reduce it on at least
#     one, and every compiled program must match the sequential
#     reference (baseline: BENCH_program.json at the repo root).
#
# Usage: scripts/check_perf.sh [build-dir]   (default: build-perf)
#
# To refresh the baselines after an intentional performance change:
#   <build-dir>/bench/bench_sched_hotpath \
#       --golden bench/data/sched_identity_seed.json \
#       --out BENCH_sched_hotpath.json
#   <build-dir>/bench/bench_ii_search --out BENCH_ii_search.json
#   <build-dir>/bench/bench_service --out BENCH_service.json
#   <build-dir>/bench/bench_program_compile --out BENCH_program.json
# and commit the new BENCH_*.json files.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"
BASELINE="BENCH_sched_hotpath.json"

if [ ! -f "$BASELINE" ]; then
    echo "check_perf: missing baseline $BASELINE" >&2
    exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_sched_hotpath bench_ii_search \
    bench_service bench_program_compile

echo "== bench_sched_hotpath (identity + >10% regression + scaling gate) =="
"$BUILD_DIR/bench/bench_sched_hotpath" \
    --golden bench/data/sched_identity_seed.json \
    --baseline "$BASELINE" \
    --scaling-gate \
    --out "$BUILD_DIR/BENCH_sched_hotpath.json"

echo "== bench_ii_search (hard-II identity) =="
"$BUILD_DIR/bench/bench_ii_search" \
    --out "$BUILD_DIR/BENCH_ii_search.json"
# The hard-II results are deterministic: any drift from the checked-in
# baseline is a search or scheduler change that needs a deliberate
# baseline refresh.
python3 - "$BUILD_DIR/BENCH_ii_search.json" BENCH_ii_search.json <<'EOF'
import json, sys
new = {r["name"]: r for r in json.load(open(sys.argv[1]))["workloads"]}
old = json.load(open(sys.argv[2]))["workloads"]
drift = []
for baseline in old:
    name = baseline["name"]
    current = new.get(name)
    if current is None:
        drift.append(f"{name}: missing from the new report")
        continue
    for field in ("ii", "attempts", "hash"):
        if current[field] != baseline[field]:
            drift.append(f"{name}: {field} "
                         f"{baseline[field]} -> {current[field]}")
if drift:
    print("check_perf: bench_ii_search drifted from BENCH_ii_search.json:",
          file=sys.stderr)
    for line in drift:
        print("  " + line, file=sys.stderr)
    sys.exit(1)
EOF

echo "== scheduler backend gate (exact must stay off the hot path) =="
# The hot-path configurations use default options, which select the
# iterative backend; the exact branch-and-bound backend is an optimality
# prover, not a production scheduler, and must never end up here.
if grep -q '"scheduler": "exact"' "$BUILD_DIR/BENCH_sched_hotpath.json"; then
    echo "check_perf: exact backend selected on a hot-path config" >&2
    exit 1
fi
if ! grep -q '"scheduler": "iterative"' "$BUILD_DIR/BENCH_sched_hotpath.json"; then
    echo "check_perf: hot-path samples missing the iterative backend" >&2
    exit 1
fi

echo "== bench_service (hit identity + >=95% replay hits + 10x hit p50) =="
"$BUILD_DIR/bench/bench_service" --quick --min-hit-speedup 10 \
    --out "$BUILD_DIR/BENCH_service.json"

echo "== bench_program_compile (compression never regresses, wins >=1) =="
"$BUILD_DIR/bench/bench_program_compile" \
    --out "$BUILD_DIR/BENCH_program.json"
# The compressed cycle counts are deterministic: any drift from the
# checked-in baseline is a scheduling or compression change that needs a
# deliberate baseline refresh.
python3 - "$BUILD_DIR/BENCH_program.json" BENCH_program.json <<'EOF'
import json, sys
new = {r["program"]: r for r in json.load(open(sys.argv[1]))["results"]}
old = {r["program"]: r for r in json.load(open(sys.argv[2]))["results"]}
drift = []
for name, baseline in old.items():
    current = new.get(name)
    if current is None:
        drift.append(f"{name}: missing from the new report")
        continue
    for key in ("ii", "naive_cycles", "compressed_cycles"):
        if current[key] != baseline[key]:
            drift.append(f"{name}: {key} {baseline[key]} -> {current[key]}")
if drift:
    print("check_perf: program cycle counts drifted from BENCH_program.json:",
          file=sys.stderr)
    for line in drift:
        print("  " + line, file=sys.stderr)
    sys.exit(1)
EOF

echo "perf: all checks passed"
