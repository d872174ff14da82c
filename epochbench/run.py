#!/usr/bin/env python3
"""Build and run the end-to-end epoch benchmark.

Run from the repository root:

    python3 epochbench/run.py --workload azure_churn --seed 1 --seconds 30 \
        --trace 0
    python3 epochbench/run.py --test   # build and run the benchmark's tests

The benchmark is built from source into .bench_build/ (CMake, RelWithDebInfo)
on first use. The run prints one report line per metric and, as its last
line, the JSON result. The metric names and units in that result are checked
against BENCHMARK.json: --trace 0 must emit exactly its end_to_end metrics,
--trace 1 exactly its per_layer metrics. The exit status is 0 only when the
build succeeded, every output check passed and the result matches the
declaration.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "epochbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "epochbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"epochbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "goldilocks.h")):
        fail("simulator sources (src/) not found next to epochbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs]
                 + (["--target", target] if target else []))
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "end_to_end" if trace == 0 else "per_layer"
    return {m["name"]: m["unit"] for m in bench[key]}


def result_problems(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"declared metric {name} missing")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, entry in metrics.items():
        if name not in declared:
            continue
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if entry.get("unit") != declared[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r} != "
                            f"declared {declared[name]!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--partition-threads", type=int,
                        help="override msr_fig13's partitioner width")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(None)
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD,
                                 "--output-on-failure"], cwd=ROOT).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    declared = declared_metrics(args.trace)
    build("epochbench")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.partition_threads is not None:
        cmd += ["--partition-threads", str(args.partition_threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print(lines[-1])
        fail(f"last line is not a JSON result (exit {proc.returncode})")
    problems = result_problems(result, declared)
    for problem in problems:
        print(f"FAIL   {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result, separators=(",", ":")))
    if proc.returncode != 0 or problems or result.get("correct") is not True:
        sys.exit(1)


if __name__ == "__main__":
    main()
