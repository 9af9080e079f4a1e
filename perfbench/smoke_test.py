#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload briefly through perfbench/run.py and checks that:
  - every end-to-end metric of BENCHMARK.json is printed with its unit,
    with no failed operation;
  - the exact totals (sim_cycles_total, cost_words_total) are the same
    in two short runs with different seeds, and on `sweep` equal the
    six-configuration sums of bench/baselines/BENCH_sim.json, the sweep
    the perf test tier pins;
  - a traced run prints every per-layer metric with its unit, and each
    workload exercises the layers it was chosen for;
  - run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SECONDS = "2"

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    expect(proc.returncode == 0 and result is not None,
           "%s seed %d trace %d exits 0 with a result"
           % (workload, seed, trace))
    return result or {"metrics": {}}


def value(result, name):
    return result["metrics"].get(name, {}).get("value")


def baseline_totals():
    with open(os.path.join(ROOT, "bench", "baselines", "BENCH_sim.json")) as f:
        doc = json.load(f)
    cycles = cost = 0
    for bench in doc["benchmarks"]:
        for mode in bench["modes"].values():
            cycles += mode["cycles"]
            cost += mode["cost_total"]
    return cycles, cost


def check_metrics(result, declared, what):
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(printed == declared, what + ": every declared metric, with its unit")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in spec["workloads"]:
        name = w["name"]
        first, second = run(name, 1, 0), run(name, 2, 0)
        for r in (first, second):
            check_metrics(r, end_to_end, name)
            expect(r.get("correct") is True and r.get("failed") == 0,
                   name + ": no failed operation")
        for total in ("sim_cycles_total", "cost_words_total"):
            expect(value(first, total) == value(second, total)
                   and value(first, total) > 0,
                   "%s: %s repeats exactly across seeds (%s, %s)"
                   % (name, total, value(first, total),
                      value(second, total)))
        if name == "sweep":
            cycles, cost = baseline_totals()
            expect(value(first, "sim_cycles_total") == cycles
                   and value(first, "cost_words_total") == cost,
                   "sweep: totals equal bench/baselines/BENCH_sim.json "
                   "(%d cycles, %d words)" % (cycles, cost))

        traced = run(name, 3, 1)
        check_metrics(traced, per_layer, name + " traced")
        v = lambda metric: value(traced, metric)  # noqa: E731
        if name == "sweep":
            expect(v("compile.calls") == 138 and v("sim.profile.share") > 0
                   and v("serve.total.p50_us") == 0,
                   "sweep: compiles 6 configurations x 23 programs, "
                   "profiles on the instrumented engine, never serves")
        elif name == "serve-hot":
            expect(v("cache.mem.hit_ratio") == 1 and v("compile.calls") == 0
                   and v("sim.fast.ms") > 0,
                   "serve-hot: every timed request is an L1 hit, "
                   "simulated on the fast engine, with no compile")
        elif name == "serve-cold":
            expect(v("cache.mem.hits") == 0 and v("cache.disk.hits") == 0
                   and v("cache.disk.misses") > 0
                   and v("cache.mem.evictions") > 0,
                   "serve-cold: every request misses both cache tiers "
                   "and L1 evicts")

    # Without the program's sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare directory: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
