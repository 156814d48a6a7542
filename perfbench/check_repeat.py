#!/usr/bin/env python3
"""Check that the benchmark's deterministic counts repeat exactly.

Usage (from the repository root):

    python3 perfbench/check_repeat.py [--seed N] [--seconds S] [workload ...]

Runs each workload (default: all of perfbench/config.json) twice untraced
and twice traced at one seed, and requires ii_over_mii, exec_time_ratio,
sched.attempts, sched.steps and mii.mindist_inner_steps to be exactly
equal between the two runs. These are counts of work and schedule
quality, not timings: a change that claims to move one may cite it only
if it repeats. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATING = {0: ["ii_over_mii", "exec_time_ratio"],
             1: ["sched.attempts", "sched.steps", "mii.mindist_inner_steps"]}


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    with open(os.path.join(HERE, "config.json")) as text:
        config = json.load(text)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("workloads", nargs="*",
                        default=sorted(config["workloads"]))
    args = parser.parse_args()
    differences = 0
    for workload in args.workloads:
        for trace, names in REPEATING.items():
            first = run(workload, args.seed, args.seconds, trace)
            second = run(workload, args.seed, args.seconds, trace)
            for name in names:
                same = first[name]["value"] == second[name]["value"]
                differences += 0 if same else 1
                print("%-14s %-24s %-22r %s" % (
                    workload, name, first[name]["value"],
                    "repeats" if same else
                    "DIFFERS: %r" % second[name]["value"]))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
