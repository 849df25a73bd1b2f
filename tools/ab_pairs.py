#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize each end-to-end metric.

    python3 tools/ab_pairs.py --parent ../parent --change . --workload serve_100k --pairs 10 --seconds 20 --seed 31

Both arguments are checkouts of the repository (a ``git worktree`` of the
parent commit will do). Pair i runs ``perfbench/run.py --seed SEED+i
--trace 0`` in each, the parent first in even pairs and the change first in
odd ones, so a drift in machine speed falls on both sides alike. For every
end-to-end metric of BENCHMARK.json it prints the medians and quartiles of
both sides, the change of the change's median against the parent's, the
median over pairs of each pair's change/parent ratio (as a change, "n/a"
when a parent value is 0), how many pairs the change won, and whether the
gap between the medians is wider than the parent's interquartile range;
then the failed and attempted ops of each side. Each metric's verdict
reads as a benchmark gate would: "gain" when the change won at least 9 in
10 of the pairs and its median is better than the parent's by more than
the parent's interquartile range, "worse" when its median is worse than
the parent's by more than the metric's relative ``bound`` in
BENCHMARK.json, "same" otherwise. The paired ratio compares
runs made back to back, so a drift of the machine's speed across the
pairs moves it less than it moves the side medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _quartiles(values):
    """(q1, median, q3); the middle cut point of statistics.quantiles is the median."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def verdict(spec, parent, change, wins, pairs):
    """"gain", "worse" or "same" for one metric from both sides' (q1, median, q3) and the change's wins."""
    better_by = (parent[1] - change[1]) * (1.0 if spec["better"] == "lower" else -1.0)
    if 10 * wins >= 9 * pairs and better_by > parent[2] - parent[0]:
        return "gain"
    if -better_by > spec["bound"] * abs(parent[1]):
        return "worse"
    return "same"


def summarize(metrics, parent_lines, change_lines):
    """Per-metric rows and per-side (failed, attempted) ops from each run's JSON result line, paired in order."""
    parent, change = ([json.loads(line) for line in lines] for lines in (parent_lines, change_lines))
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    rows = []
    for spec in metrics:
        a, b = ([run["metrics"][spec["name"]]["value"] for run in side] for side in (parent, change))
        better = (lambda x, y: y < x) if spec["better"] == "lower" else (lambda x, y: y > x)
        pq, cq, wins = _quartiles(a), _quartiles(b), sum(map(better, a, b))
        rows.append({
            "metric": spec["name"], "unit": spec["unit"], "parent": pq, "change": cq,
            "paired": statistics.median(y / x for x, y in zip(a, b)) if all(a) else None,
            "wins": wins, "pairs": len(a), "beyond_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "verdict": verdict(spec, pq, cq, wins, len(a)),
        })
    ops = {name: (sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
           for name, side in (("parent", parent), ("change", change))}
    return rows, ops


def _change(ratio):
    return "    n/a" if ratio is None else f"{100.0 * (ratio - 1.0):+6.1f}%"


def report(rows, ops):
    lines = [f"{'metric':14s} {'verdict':7s} {'parent median [q1, q3]':>33s} {'change median [q1, q3]':>33s}  {'change':>7s}  "
             f"{'paired':>7s}  wins  gap>IQR"]
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        lines.append(f"{r['metric']:14s} {r['verdict']:7s} {pm:12.4g} [{p1:8.4g}, {p3:8.4g}] {cm:12.4g} [{c1:8.4g}, {c3:8.4g}]  "
                     f"{_change(cm / pm if pm else None)}  {_change(r['paired'])} {r['wins']:2d}/{r['pairs']:<2d}  "
                     f"{'yes' if r['beyond_iqr'] else 'no'}")
    lines += [f"{side} ops: {failed} failed / {attempted} attempted" for side, (failed, attempted) in ops.items()]
    return "\n".join(lines)


def _run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0, help="pair i runs seed SEED+i")
    args = parser.parse_args(argv)
    lines = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            lines[side].append(_run(getattr(args, side), args.workload, args.seed + i, args.seconds))
            print(f"pair {i} {side}: {lines[side][-1]}", file=sys.stderr, flush=True)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    print(report(*summarize(metrics, lines["parent"], lines["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
