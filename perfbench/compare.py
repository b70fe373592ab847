#!/usr/bin/env python3
"""Paired comparison of two benchmark result sets (parent vs change).

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the lines `perfbench/run.py --record FILE` appends. Run
the two commits alternately (parent, change, change, parent, ...) with
identical settings, recording each side to its own file; the i-th parent
run of a workload is paired with the i-th change run of that workload.

One row per workload x end-to-end metric of BENCHMARK.json: each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

  improved      the change won at least 9 in 10 pairs (10+ pairs), and
                the medians differ by more than the parent's own
                quartile spread
  within bound  the change's median is no worse than the parent's by
                more than the metric's bound
  regressed     the change's median is worse by more than the bound, and
                the parent's spread is within the bound
  unresolved    the parent's spread exceeds the bound, and not every
                change run beat every parent run
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Classifies one workload x metric; `parent` and `change` are the
    paired value lists (same length)."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs)
    gain = sign * (cm - pm)
    worse_by = -gain / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(pairs) >= 10 and share >= 0.9 and gain > (p3 - p1):
        return share, "improved"
    if spread > bound and not all_better:
        return share, "unresolved"
    if worse_by > bound:
        return share, "regressed"
    return share, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':18s} {'metric':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'pairs':>6s} {'won':>5s}  verdict")
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload:18s} (no paired runs)")
            status = 1
            continue
        bad = [i for i in range(n)
               if not (p_runs[i]["correct"] and c_runs[i]["correct"])]
        if bad:
            print(f"{workload:18s} pairs {bad} have an incorrect run; "
                  f"verdicts below use them anyway")
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs[:n]]
            cv = [r["metrics"][name]["value"] for r in c_runs[:n]]
            share, word = verdict(pv, cv, metric["better"], metric["bound"])
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:18s} {name:14s} "
                  f"{pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
                  f"{n:6d} {share:5.0%}  {word}")
            if word == "regressed":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
