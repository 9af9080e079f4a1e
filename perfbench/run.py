#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|serve-hot|serve-cold \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced

Run from any directory; the repository root is this file's parent's
parent. The first run configures and builds the program from the
repository's sources into .bench_build/ (CMake, RelWithDebInfo), later
runs only rebuild what changed. All scratch files (server sockets,
on-disk caches, access logs) live under .bench_build/ and are removed
when the run ends.

The last line of standard output is one JSON object with exactly the
keys "correct", "attempted", "failed" and "metrics": the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The line before it records the workload and the seed. The
exit code is 0 only when every operation produced the reference output
and every metric BENCHMARK.json names was measured with its unit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep", "serve-hot", "serve-cold")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the perfbench target; returns the
    binary's path. Build output goes to stderr."""
    for need in ("src/CMakeLists.txt", "bench/common.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise RuntimeError("program sources missing: " + need)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    workdir = os.path.join(".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(workload, "printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(workload, "last line is not a result: " + lines[-1][:200])
        return proc.returncode or 1, None
    problems = check(result, declared_metrics(trace))
    for p in problems:
        log(workload, "contract:", p)
    code = proc.returncode
    if code == 0 and (problems or not result["correct"]):
        code = 1
    return code, result


def check(result, declared):
    """Every declared metric, and no other, with its unit and a finite
    value; whole-number counts of operations."""
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name]["unit"] != unit:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, metrics[name]["unit"], unit))
        elif not math.isfinite(metrics[name]["value"]):
            problems.append("metric %s is not finite" % name)
    for name in metrics:
        if name not in declared:
            problems.append("metric %s is not declared" % name)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.time()
    try:
        binary = build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log("build failed:", e)
        return 2
    log("built in %.1f s" % (time.time() - started))

    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
        if result is None:
            return code
        print("perfbench: workload %s seed %d trace %d"
              % (args.workload, args.seed, args.trace))
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return code

    # Every workload, untraced: one table of end-to-end metrics.
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, workload, args.seed,
                                    args.seconds, 0)
        worst = worst or code
        if result is None:
            continue
        print("%s (seed %d): %d attempted, %d failed%s"
              % (workload, args.seed, result["attempted"], result["failed"],
                 "" if result["correct"] else ", INCORRECT"))
        for name, m in result["metrics"].items():
            print("  %-18s %16.6f %s" % (name, m["value"], m["unit"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
