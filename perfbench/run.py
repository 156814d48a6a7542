#!/usr/bin/env python3
"""End-to-end benchmark of the ims modulo scheduler.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds ims-perfbench and ims-serve from the repository's sources in
.bench_build/perfbench (Release), runs one workload for --seconds seconds
and prints, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
with --trace 0, every per-layer metric with --trace 1. A traced run also
writes its spans as Chrome trace-event JSON under .bench_build/perfbench/
traces/. The line before the result records the host and the build.

Workloads, latency limits, the serve_mix rate and the layer -> end-to-end
metric map are in perfbench/config.json. Exit codes: 0 when every output
was correct, 1 when some output was wrong (the result is still printed),
2 when the benchmark could not run (no result is printed).
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build; all build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc())],
                   stdout=sys.stderr, check=True)


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_record(hardware_concurrency):
    cpu = ""
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cache_value("CMAKE_CXX_COMPILER")
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as text:
            found = re.search(r'CMAKE_CXX_COMPILER_ID "(\w+)".*?'
                              r'CMAKE_CXX_COMPILER_VERSION "([\w.]+)"',
                              text.read(), re.S)
        if found:
            compiler = found.group(1) + " " + found.group(2)
    return {"nproc": nproc(), "hardware_concurrency": hardware_concurrency,
            "cpu": cpu, "compiler": compiler,
            "build_type": cache_value("CMAKE_BUILD_TYPE")}


def main():
    with open(os.path.join(HERE, "config.json")) as text:
        config = json.load(text)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        print("perfbench: refusing to report from a non-Release build",
              file=sys.stderr)
        return 2

    settings = config["workloads"][args.workload]
    command = [os.path.join(BUILD, "ims-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(nproc()), "--slo-ms", str(settings["slo_ms"])]
    if args.workload == "serve_mix":
        command += ["--rate", str(settings["rate_per_s"]),
                    "--cache-capacity", str(settings["cache_capacity"]),
                    "--serve-binary", os.path.join(BUILD, "ims-serve")]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print("perfbench: ims-perfbench failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    hardware_concurrency = 0
    for line in lines[:-1]:
        if line.startswith("host hardware_concurrency="):
            hardware_concurrency = int(line.split("=", 1)[1])
        else:
            print(line)
    host = host_record(hardware_concurrency)
    host.update(workload=args.workload, seed=args.seed,
                held_out_seed=config["held_out_seed"])
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
