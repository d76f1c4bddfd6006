#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit's and a change's.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark FILE]

Each input holds the lines `perfbench/run.py --record FILE` appends, one
per run. Runs of one workload pair up by seed (the i-th run of a seed in
one file with the i-th run of that seed in the other), else by order.

For every workload x end-to-end metric of BENCHMARK.json it prints the
medians, the quartiles, the share of pairs the change wins (ties count for
neither side) and a verdict:

  improved    the change wins >= 9 of 10 pairs and its median is better
              than the parent's by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  the parent's own IQR is wider than the bound, and not every
              change run reads better than every parent run
  unchanged   otherwise

The exit code is 1 when any verdict is "worse". Traced runs are ignored:
end-to-end numbers come only from untraced runs.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load_runs(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace") or not run.get("correct"):
                continue
            runs[run["workload"]].append(run)
    return runs


def pair_up(parent, change):
    """Pairs of (parent run, change run): same seed first, then by order."""
    by_seed = defaultdict(list)
    for run in change:
        by_seed[run["seed"]].append(run)
    pairs, unmatched_parent = [], []
    for run in parent:
        if by_seed[run["seed"]]:
            pairs.append((run, by_seed[run["seed"]].pop(0)))
        else:
            unmatched_parent.append(run)
    unmatched_change = [r for runs in by_seed.values() for r in runs]
    pairs += list(zip(unmatched_parent, unmatched_change))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p))
    win_share = wins / len(pairs) if pairs else 0.0
    gap = abs(cmed - pmed)
    # Signed relative change, positive when the change is worse.
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) \
        if pmed else 0.0
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if pairs and win_share >= 0.9 and better(cmed, pmed) and gap > p3 - p1:
        v = "improved"
    elif worse_by > metric["bound"]:
        v = "worse"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return (p1, pmed, p3), quartiles(change), win_share, worse_by, v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    print(f"{'workload':12s} {'metric':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>5s} {'worse_by':>9s} verdict")
    any_worse = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        if not parent or not change:
            print(f"{workload:12s} missing runs on one side "
                  f"(parent {len(parent)}, change {len(change)})")
            continue
        pairs = pair_up(parent, change)
        for metric in metrics:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pq, cq, wins, worse_by, v = verdict(
                metric, pv, cv,
                [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in pairs])
            any_worse |= v == "worse"
            fq = "/".join(f"{x:.4g}" for x in pq)
            fc = "/".join(f"{x:.4g}" for x in cq)
            print(f"{workload:12s} {name:14s} {fq:>32s} {fc:>32s} "
                  f"{wins:5.0%} {worse_by:+9.2%} {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
