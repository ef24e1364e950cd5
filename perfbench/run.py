#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The benchmark is an OCaml executable (perfbench/perfbench.ml) linked
against the repository's own libraries.  This script builds it with
dune, runs it, passes its output through and checks that the last line
is the result object.  --smoke runs every workload at a tiny size, with
and without tracing, and asserts that every metric BENCHMARK.json names
is printed with its unit and that no verdict failed.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("table1", "recorded", "wide")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("neither dune nor opam is on PATH")


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a repository checkout")
    done = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")


def host():
    nproc = len(os.sched_getaffinity(0))
    ram_mb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    return f"nproc={nproc} ram_mb={ram_mb}"


def run(workload, seed, seconds, trace, size="full"):
    """Runs the benchmark once; returns its output lines and the result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--host", host()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        fail(f"{workload} printed no result line")
    return lines, result


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run(workload, 1, 1, trace, size="tiny")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in wanted.items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{workload} --trace {trace}: {name} missing")
                elif got.get("unit") != unit:
                    problems.append(f"{workload} --trace {trace}: {name} has "
                                    f"unit {got.get('unit')!r}, not {unit!r}")
                elif not isinstance(got.get("value"), (int, float)) \
                        or not math.isfinite(got["value"]):
                    problems.append(f"{workload} --trace {trace}: {name} "
                                    f"is not a number")
            for name in set(metrics) - set(wanted):
                problems.append(f"{workload} --trace {trace}: {name} "
                                f"is not in BENCHMARK.json")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{workload} --trace {trace}: "
                                f"{result['failed']} of {result['attempted']} "
                                f"verdicts failed")
            print(f"smoke: {workload} --trace {trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} verdicts")
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checking the output")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        sys.exit(smoke())
    lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
