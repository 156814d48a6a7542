#!/usr/bin/env bash
# Schedule-service replay smoke: drive a canned, fixed request stream
# through ims-serve twice in one server run and assert
#
#  1. every `result` line of pass 2 is byte-identical to pass 1 (the
#     result line is a pure function of (loop, machine, options); the
#     cache must never change what is computed, only how fast),
#  2. >= 95% of pass-2 requests are cache hits (here: all of them —
#     the stream repeats pass 1 exactly),
#  3. a second, fresh server process replaying the same stream produces
#     byte-identical `result` lines (cross-process determinism),
#  4. hostile byte counts (negative, oversized) each get a structured
#     `error service.bad_request ...` line and the server exits 0,
#  5. a loop whose value lifetimes overflow `int` (two registers read
#     1.5e9 iterations later at II 2) answers promptly with a
#     `result ... failed code=codegen.too_large` line,
#  6. a machine with a negative reservation time answers
#     `error service.bad_machine`, and a loop whose distance has
#     trailing bytes answers `error service.bad_loop`,
#  7. `load` of a cache file with a hostile entry count answers
#     `error service.bad_cache_file` and the server exits 0,
#  8. on a registered machine whose `asub` takes 2e9 cycles, a
#     self-recurrence answers `code=mii.too_large` and a chain of three
#     `asub`s answers `code=sched.too_large`,
#  9. a loop with memory offsets at the int limits answers a `result`
#     line,
# 10. `load` of a cache entry whose options ask for sim verification at
#     100000 iterations answers `error service.bad_cache_file` (the same
#     entry at 17 iterations loads), and an entry storing `@ X 1000000000`
#     with sim verification on loads at once (its arrays would pass
#     sim::kMaxSimulatedValues, so verification answers sim.too_large
#     before allocating),
# 11. the `stats` line parses with Python's json module and counts every
#     submitted request as completed,
# 12. a lone request is answered before any further input: one daxpy
#     request to `--threads 2` gets its `result` line within 10 s with
#     stdin still open, and the server then exits 0 on EOF.
#
# Usage: scripts/check_service.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/ims-serve"
SMOKE_DIR="$BUILD_DIR/service-smoke"

if [ ! -x "$SERVE" ]; then
    echo "check_service: $SERVE not built" >&2
    exit 1
fi
mkdir -p "$SMOKE_DIR"

cat > "$SMOKE_DIR/daxpy.ir" <<'EOF'
loop daxpy
livein a
recurrence ax
ax = aadd ax[3], #24
xv = load ax @ X 0
yv = load ax @ Y 0
t = mul a, xv
s = add t, yv
_ = store ax, s @ Y 0
recurrence n
n = asub n[3], #3
_ = branch n
EOF

cat > "$SMOKE_DIR/dot.ir" <<'EOF'
loop dot
recurrence ax
ax = aadd ax[1], #8
recurrence bx
bx = aadd bx[1], #8
xv = load ax @ X 0
yv = load bx @ Y 0
p = mul xv, yv
recurrence acc
acc = add acc[1], p
recurrence n
n = asub n[1], #1
_ = branch n
EOF

cat > "$SMOKE_DIR/scale.ir" <<'EOF'
loop scale
livein k
recurrence ax
ax = aadd ax[2], #16
xv = load ax @ X 0
y = mul k, xv
_ = store ax, y @ X 0
recurrence n
n = asub n[2], #2
_ = branch n
EOF

# One pass of the canned stream: each loop on two machines, from two
# clients, with the hot loop repeated — 8 requests per pass.
emit_pass() {
    local loop
    for loop in daxpy dot scale daxpy; do
        printf 'schedule %s client=ci machine=cydra5\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
    done
    for loop in daxpy scale; do
        printf 'schedule %s client=ci2 machine=clean64\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
    done
}
emit_pass > "$SMOKE_DIR/pass.req"
PASS_REQUESTS=6

cat "$SMOKE_DIR/pass.req" "$SMOKE_DIR/pass.req" > "$SMOKE_DIR/stream.req"

# Single worker for the replay run: requests complete strictly in
# order, so every pass-2 request finds its pass-1 entry resident.
"$SERVE" --threads 1 < "$SMOKE_DIR/stream.req" > "$SMOKE_DIR/run1.out"
grep '^result' "$SMOKE_DIR/run1.out" > "$SMOKE_DIR/run1.results"

TOTAL=$(wc -l < "$SMOKE_DIR/run1.results")
if [ "$TOTAL" -ne $((2 * PASS_REQUESTS)) ]; then
    echo "check_service: expected $((2 * PASS_REQUESTS)) results, got $TOTAL" >&2
    exit 1
fi

echo "== replay identity (pass 2 vs pass 1, byte-for-byte) =="
head -n "$PASS_REQUESTS" "$SMOKE_DIR/run1.results" > "$SMOKE_DIR/pass1.results"
tail -n "$PASS_REQUESTS" "$SMOKE_DIR/run1.results" > "$SMOKE_DIR/pass2.results"
if ! diff -u "$SMOKE_DIR/pass1.results" "$SMOKE_DIR/pass2.results"; then
    echo "check_service: replayed results differ from the cold pass" >&2
    exit 1
fi

echo "== pass-2 hit rate (floor: 95%) =="
PASS2_HITS=$(grep '^meta' "$SMOKE_DIR/run1.out" | tail -n "$PASS_REQUESTS" \
    | grep -c 'hit=1' || true)
# ceil(0.95 * PASS_REQUESTS)
MIN_HITS=$(( (PASS_REQUESTS * 95 + 99) / 100 ))
echo "pass-2 hits: $PASS2_HITS / $PASS_REQUESTS (need >= $MIN_HITS)"
if [ "$PASS2_HITS" -lt "$MIN_HITS" ]; then
    echo "check_service: pass-2 hit rate below 95%" >&2
    exit 1
fi

echo "== cross-process determinism (fresh server, same stream) =="
"$SERVE" --threads 2 < "$SMOKE_DIR/stream.req" | grep '^result' \
    > "$SMOKE_DIR/run2.results"
if ! diff -u "$SMOKE_DIR/run1.results" "$SMOKE_DIR/run2.results"; then
    echo "check_service: results differ across server processes" >&2
    exit 1
fi

echo "== hostile byte counts (structured error, clean exit) =="
# The oversized count reads to EOF in bounded chunks, so each case runs
# in its own server.
for hostile in 'schedule -5' 'register foo -5' 'schedule 99999999999'; do
    if ! printf '%s\n' "$hostile" | "$SERVE" --threads 1 \
            > "$SMOKE_DIR/hostile.out"; then
        echo "check_service: '$hostile' crashed ims-serve" >&2
        exit 1
    fi
    if ! grep -q '^error service\.bad_request ' "$SMOKE_DIR/hostile.out"; then
        echo "check_service: '$hostile' got no service.bad_request error" >&2
        exit 1
    fi
    echo "$hostile -> $(cat "$SMOKE_DIR/hostile.out")"
done

echo "== hostile operand distance (structured codegen.too_large) =="
cat > "$SMOKE_DIR/toolong.ir" <<'EOF'
loop toolong
recurrence x
x = asub x[1500000000], #3
recurrence y
y = asub y[1500000000], #3
EOF
{
    printf 'schedule %s client=ci machine=scalar-toy\n' \
        "$(wc -c < "$SMOKE_DIR/toolong.ir")"
    cat "$SMOKE_DIR/toolong.ir"
} > "$SMOKE_DIR/toolong.req"
if ! timeout 10 "$SERVE" --threads 1 < "$SMOKE_DIR/toolong.req" \
        > "$SMOKE_DIR/toolong.out"; then
    echo "check_service: the overflowing loop crashed or hung ims-serve" >&2
    exit 1
fi
if ! grep -q '^result toolong failed code=codegen\.too_large ' \
        "$SMOKE_DIR/toolong.out"; then
    echo "check_service: no codegen.too_large result for the overflowing loop" >&2
    cat "$SMOKE_DIR/toolong.out" >&2
    exit 1
fi
grep '^result' "$SMOKE_DIR/toolong.out"

# Sends the request file $1 to a fresh server and requires exit 0 and a
# line starting with $2.
expect_answer() {
    if ! timeout 10 "$SERVE" --threads 1 < "$1" > "$SMOKE_DIR/answer.out"; then
        echo "check_service: $1 crashed or hung ims-serve" >&2
        exit 1
    fi
    if ! grep -q "^$2" "$SMOKE_DIR/answer.out"; then
        echo "check_service: $1 got no '$2' answer" >&2
        cat "$SMOKE_DIR/answer.out" >&2
        exit 1
    fi
    echo "$(basename "$1") -> $(grep "^$2" "$SMOKE_DIR/answer.out")"
}

echo "== hostile machine and loop text (structured errors, clean exit) =="
printf 'machine neg2\nresource r\nresource s\nopcode add 1\nalt a 0:s 0:r -7:r\n' \
    > "$SMOKE_DIR/neg2.machine"
printf 'loop fives\nlivein a\nb = add a, a\nc = add b, a\nd = add c, a\ne = add d, a\nf = add e, a\n' \
    > "$SMOKE_DIR/fives.ir"
{
    printf 'register neg2 %s\n' "$(wc -c < "$SMOKE_DIR/neg2.machine")"
    cat "$SMOKE_DIR/neg2.machine"
    printf 'schedule %s client=ci machine=neg2\n' \
        "$(wc -c < "$SMOKE_DIR/fives.ir")"
    cat "$SMOKE_DIR/fives.ir"
} > "$SMOKE_DIR/neg2.req"
expect_answer "$SMOKE_DIR/neg2.req" 'error service\.bad_machine '
printf 'loop junk\nrecurrence x\nx = add x[1junk], #1\n' > "$SMOKE_DIR/junk.ir"
{
    printf 'schedule %s client=ci machine=cydra5\n' \
        "$(wc -c < "$SMOKE_DIR/junk.ir")"
    cat "$SMOKE_DIR/junk.ir"
} > "$SMOKE_DIR/junk.req"
expect_answer "$SMOKE_DIR/junk.req" 'error service\.bad_loop '

echo "== hostile latencies (structured too_large results) =="
printf 'machine big\nresource r\nopcode asub 2000000000\nalt a 0:r\n' \
    > "$SMOKE_DIR/big.machine"
printf 'loop rec1\nrecurrence n\nn = asub n[1], #3\n' > "$SMOKE_DIR/rec1.ir"
printf 'loop chain3\nlivein a\nb = asub a, #1\nc = asub b, #1\nd = asub c, #1\n' \
    > "$SMOKE_DIR/chain3.ir"
for case in rec1:mii chain3:sched; do
    loop="${case%%:*}"
    {
        printf 'register big %s\n' "$(wc -c < "$SMOKE_DIR/big.machine")"
        cat "$SMOKE_DIR/big.machine"
        printf 'schedule %s client=ci machine=big\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
    } > "$SMOKE_DIR/$loop.req"
    expect_answer "$SMOKE_DIR/$loop.req" \
        "result $loop failed code=${case#*:}\\.too_large "
done

echo "== memory offsets at the int limits (a result line) =="
printf 'loop extreme\nlivein t\nrecurrence ax\nax = aadd ax[1], #8\nxv = load ax @ X -2147483648\n_ = store ax, t @ X 2147483647\n' \
    > "$SMOKE_DIR/extreme.ir"
{
    printf 'schedule %s client=ci machine=cydra5\n' \
        "$(wc -c < "$SMOKE_DIR/extreme.ir")"
    cat "$SMOKE_DIR/extreme.ir"
} > "$SMOKE_DIR/extreme.req"
expect_answer "$SMOKE_DIR/extreme.req" 'result extreme '

echo "== hostile cache file (structured error, clean exit) =="
for count in 18446744073709551615 -1; do
    printf 'ims-schedule-cache v1\nentry %s 0 0\n' "$count" \
        > "$SMOKE_DIR/hostile.cache"
    printf 'load %s\n' "$SMOKE_DIR/hostile.cache" > "$SMOKE_DIR/load.req"
    expect_answer "$SMOKE_DIR/load.req" 'error service\.bad_cache_file '
done

# Saved entries, their options rewritten to sim-verify at `trips`.
printf 'loop far\nlivein t\nrecurrence ax\nax = aadd ax[1], #8\n_ = store ax, t @ X 1000000000\n' \
    > "$SMOKE_DIR/far.ir"
for loop in daxpy far; do
    {
        printf 'schedule %s client=ci machine=cydra5\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
        printf 'save %s\n' "$SMOKE_DIR/$loop.cache"
    } | "$SERVE" --threads 1 > /dev/null
done
for case in daxpy:17:'ok loaded 1' \
        daxpy:100000:'error service\.bad_cache_file .*verify_sim_trips' \
        far:17:'ok loaded 1'; do
    loop="${case%%:*}"
    trips="${case#*:}"
    python3 - "$SMOKE_DIR/$loop.cache" "${trips%%:*}" \
        > "$SMOKE_DIR/trips.cache" <<'PY'
import re
import sys

header, entry, body = open(sys.argv[1]).read().split("\n", 2)
loop, machine, options = (int(n) for n in entry.split()[1:])
text = body[loop + machine:loop + machine + options]
text = text.replace("verify_sim 0\n", "verify_sim 1\n")
text = re.sub(r"verify_sim_trips [^\n]*", "verify_sim_trips " + sys.argv[2],
              text)
sys.stdout.write(f"{header}\nentry {loop} {machine} {len(text)}\n"
                 + body[:loop + machine] + text)
PY
    printf 'load %s\n' "$SMOKE_DIR/trips.cache" > "$SMOKE_DIR/trips.req"
    expect_answer "$SMOKE_DIR/trips.req" "${trips#*:}"
done

echo "== stats line is JSON =="
{ cat "$SMOKE_DIR/pass.req"; echo stats; } | "$SERVE" --threads 1 \
    | grep '^{' > "$SMOKE_DIR/stats.json"
python3 - "$SMOKE_DIR/stats.json" <<'PY'
import json
import sys

def reject(constant):
    raise ValueError("not JSON: " + constant)

with open(sys.argv[1]) as f:
    lines = f.read().splitlines()
if len(lines) != 1:
    sys.exit(f"check_service: want one stats line, got {len(lines)}")
stats = json.loads(lines[0], parse_constant=reject)
if stats.get("schema") != "ims.service_stats.v1":
    sys.exit("check_service: stats line has the wrong schema")
if stats["svc_completed"] != stats["svc_submitted"]:
    sys.exit("check_service: stats counts fewer completed than submitted")
print("stats:", lines[0])
PY

echo "== liveness (a lone request is answered with stdin open) =="
python3 - "$SERVE" "$SMOKE_DIR/daxpy.ir" <<'PY'
import os
import re
import select
import subprocess
import sys
import time

serve, loop_path = sys.argv[1:3]
with open(loop_path, "rb") as f:
    payload = f.read()
server = subprocess.Popen([serve, "--threads", "2"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE)
server.stdin.write(b"schedule %d client=ci machine=cydra5\n" % len(payload)
                   + payload)
server.stdin.flush()
received = b""
deadline = time.monotonic() + 10
while not re.search(rb"^result [^\n]*\n", received, re.M):
    left = max(0.0, deadline - time.monotonic())
    ready = select.select([server.stdout], [], [], left)[0]
    chunk = os.read(server.stdout.fileno(), 4096) if ready else b""
    if not chunk:
        server.kill()
        sys.exit("check_service: no result line for a lone request in 10 s")
    received += chunk
server.stdin.close()
try:
    status = server.wait(timeout=10)
except subprocess.TimeoutExpired:
    server.kill()
    sys.exit("check_service: ims-serve did not exit within 10 s of EOF")
if status != 0:
    sys.exit(f"check_service: ims-serve exited {status} on EOF")
print("lone request ->", received.decode().splitlines()[0])
PY

echo "service smoke: all checks passed"
