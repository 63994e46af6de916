#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source and runs one
X-SSD workload, printing its metrics as one JSON object on the last line of
stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build/perfbench
(Release, built incrementally on every run); a traced run also writes its
critical-path span report to .bench_build/perfbench/spans/. --selftest
runs every planted fault and checks that the benchmark reports each one as
a failure.
README.md beside this file documents the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tpcc_villars", "destage_mixed_io", "replicated_appends",
             "ftl_gc_churn"]
# Planted faults and the workload whose correctness check must catch each.
PLANTS = [
    ("tpcc_villars", "tpcc_commit_status", 0),
    ("tpcc_villars", "breakdown_conservation", 1),
    ("destage_mixed_io", "destage_tail_bytes", 0),
    ("replicated_appends", "replicated_credit", 0),
    ("replicated_appends", "replicated_bytes", 0),
    ("ftl_gc_churn", "ftl_read_verify", 0),
    ("ftl_gc_churn", "ftl_oob_rebuild", 0),
]
# A run (build excluded) must end well within the 180 s allowed.
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "xssd_perfbench")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, capture=False):
    cmd = [BINARY] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return done


def selftest():
    ok = True
    for workload, plant, trace in PLANTS:
        done = run_binary(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace),
                           "--plant", plant], capture=True)
        lines = done.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        caught = result.get("correct") is False and result.get("failed", 0) > 0
        print("%-20s %-24s %s" % (workload, plant,
                                  "caught" if caught else "MISSED"))
        ok &= caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()  # exits 2 on unknown flags or bad values

    if "XSSD_SIM_SCHEDULER" in os.environ:
        fail("refusing to run with XSSD_SIM_SCHEDULER set: it would change "
             "the scheduler backend between compared runs")
    if args.selftest:
        build()
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        fail("--seed must not be negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # The traced run's span breakdown is written beside the build.
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        flags += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    return run_binary(flags).returncode


if __name__ == "__main__":
    sys.exit(main())
