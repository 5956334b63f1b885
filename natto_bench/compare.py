#!/usr/bin/env python3
"""Compares natto_bench results of a parent commit and a change.

    python3 natto_bench/compare.py --parent p1.json p2.json ... \\
                                   --change c1.json c2.json ...

Give N parent and N change result files from alternating runs (parent[i]
and change[i] form pair i, run with the same seed). A result file is a
merged report written by `run.py` (natto_bench.json) or a one-workload
report written with --out. For each (metric, workload) the table shows each
side's median and interquartile range (IQR), the change's pair win rate,
the spread of the pairs' relative differences, and a verdict:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or the change loses
              >= 9/10 of the pairs and the medians differ by more than the
              parent's IQR (a steady loss smaller than the bound)
  unresolved  the pairs' relative differences spread (IQR) wider than the
              bound, and not every change run beats every parent run
  changed     a simulated metric moved; they are deterministic for a seed,
              so a performance change must leave them identical

Pairs share a seed, so their differences cancel what the seed does to a
metric and keep only run-to-run noise. A move smaller than a metric's
absolute floor (FLOORS) is never a regression or unresolved.

Exit status is 1 when any verdict is regression, unresolved or changed, or
when the commit fraction falls (more transactions exhausting their retries).
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
# Outputs of the simulation itself: exact for a seed, so any move is real.
SIMULATED = {"p50_high_ms", "p95_high_ms", "p50_low_ms", "p95_low_ms",
             "goodput_tps", "attempts_per_commit", "commit_fraction"}
# Absolute floors, in the metric's unit. setup_s is 40-150 us on `writes`
# and `site_parallel`, where a move of any share is too small to matter to a
# user, and about 13 ms with a Zipf table, where 1 ms is 8%.
FLOORS = {"setup_s": 0.001}


def load(path):
    """Returns {workload: {metric: value}} from either report shape."""
    with open(path) as f:
        d = json.load(f)
    reports = d["workloads"] if "workloads" in d else {d["workload"]: d}
    return {w: {name: m["value"] for name, m in r["metrics"].items()}
            for w, r in reports.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair_gains(parent, change, higher):
    """Relative difference of each pair, signed so that > 0 is better."""
    return [((c - p) if higher else (p - c)) / abs(p) if p else 0.0
            for p, c in zip(parent, change)]


def verdict(name, parent, change, spec):
    """Returns (wins, pair spread, verdict) for one (metric, workload)."""
    higher = spec.get("better", "lower") == "higher"
    bound = spec.get("bound")
    gains = pair_gains(parent, change, higher)
    wins = sum(1 for g in gains if g > 0)
    losses = sum(1 for g in gains if g < 0)
    g1, gm, g3 = quartiles(gains)
    spread = g3 - g1
    if name in SIMULATED:
        return wins, spread, "changed" if parent != change else "identical"
    if bound is None:
        return wins, spread, ""
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gap = abs(cm - pm)
    worse_by = (pm - cm if higher else cm - pm) / abs(pm) if pm else 0.0
    consistent = gap > p3 - p1
    floor = FLOORS.get(name, 0.0)
    if wins >= 0.9 * len(gains) and consistent:
        return wins, spread, "gain"
    if gap > floor and (worse_by > bound or
                        (losses >= 0.9 * len(gains) and consistent)):
        return wins, spread, "regression"
    every_run_better = all(((c > p) if higher else (c < p))
                           for c in change for p in parent)
    if (spread > bound and spread * abs(pm) > floor and
            not every_run_better):
        return wins, spread, "unresolved"
    return wins, spread, "ok"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--benchmark", default=BENCHMARK)
    args = p.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare: give as many change files as parent files")

    specs = {}
    if os.path.isfile(args.benchmark):
        with open(args.benchmark) as f:
            bench = json.load(f)
        for m in bench.get("end_to_end", []) + bench.get("per_layer", []):
            specs[m["name"]] = m
    parents = [load(f) for f in args.parent]
    changes = [load(f) for f in args.change]

    bad = 0
    print("%-14s %-38s %12s %12s %12s %12s %5s %9s  %s" % (
        "workload", "metric", "parent med", "parent IQR", "change med",
        "change IQR", "wins", "pair IQR", "verdict"))
    for w in sorted(parents[0]):
        for name in sorted(parents[0][w]):
            try:
                pv = [r[w][name] for r in parents]
                cv = [r[w][name] for r in changes]
            except KeyError:
                print("%-14s %-38s missing from some result files" % (w, name))
                bad += 1
                continue
            wins, spread, v = verdict(name, pv, cv, specs.get(name, {}))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-14s %-38s %12.5g %12.5g %12.5g %12.5g %2d/%-2d %8.1f%%  %s"
                  % (w, name, pm, p3 - p1, cm, c3 - c1, wins, len(pv),
                     100 * spread, v))
            if v in ("regression", "unresolved", "changed"):
                bad += 1
            if name == "commit_fraction" and cm < pm:
                print("%-14s failed_fraction rose: %.6f -> %.6f"
                      % (w, 1 - pm, 1 - cm))
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
