#!/usr/bin/env python3
"""Summarizes perfbench runs across seeds.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each file holds the standard output of one run (its last two lines are the
run record and the result). For every workload and metric it prints the
sample count, median and quartiles across the runs, and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json: "ok"
when the spread is under a third of the bound. It exits 1 if a run was
incorrect or a spread exceeds its bound.
"""
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(paths):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    groups = {}
    for p in paths:
        rec, res = load(p)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(res)
    bad = False
    for (workload, trace), runs in sorted(groups.items()):
        correct = all(r["correct"] for r in runs)
        bad |= not correct
        print(f"== {workload} trace={int(trace)} runs={len(runs)} correct={correct}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1 = q3 = med
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("near" if spread <= bound else "WIDE")
                bad |= spread > bound
            print(f"  {name:38s} {unit:6s} n={len(vals):2d} median={med:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={spread:.3f} bound={bound} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
