#!/usr/bin/env python3
"""Steadiness check: run workloads several times and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), from the root of the
source tree, and prints for every metric the median, the quartiles
(statistics.quantiles, n=4), the interquartile range and (max - min),
both as shares of the median. An end-to-end metric whose interquartile
share exceeds its bound in BENCHMARK.json is flagged FAIL; one above a
third of its bound is flagged WARN. A run with a failed operation or
with correct false is flagged FAIL too. With --trace 1 it prints the per-layer metrics;
give one seed several times (--seeds 7,7) to see that the deterministic
counts repeat exactly. Exits 1 when anything is flagged FAIL.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1]), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    flagged = False
    for w in args.workloads.split(","):
        results = []
        for seed in seeds:
            res, wall = run_once(w, seed, args.seconds, args.trace)
            results.append(res)
            print("%s seed %d: %.1f s, correct %s, %d/%d failed, %s" % (
                w, seed, wall, res["correct"], res["failed"], res["attempted"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items()
                         if k in bounds)), flush=True)
        if any(r["failed"] > 0 or not r["correct"] for r in results):
            print("FAIL %s: failed %s, correct %s" % (
                w, [r["failed"] for r in results], [r["correct"] for r in results]))
            flagged = True
        print("%-36s %12s %12s %12s %8s %8s %6s  %s" % (
            w, "median", "q1", "q3", "iqr/med", "rng/med", "bound", "unit"))
        for name, m in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if iqr > bound:
                    flag, flagged = "FAIL", True
                elif iqr > bound / 3:
                    flag = "WARN"
            print("%-36s %12.6g %12.6g %12.6g %8.4f %8.4f %6s  %s %s" % (
                name, med, q1, q3, iqr, rng, "" if bound is None else bound,
                m["unit"], flag), flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
