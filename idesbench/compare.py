#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 idesbench/compare.py parent.jsonl change.jsonl

Each file holds one result line (the last stdout line of run.py) per run;
line i of both files must come from the same workload and seed. For every
metric, prints each side's median and quartiles, the change's median
relative to the parent's, the share of pairs the change wins, and a verdict
against the metric's bound in BENCHMARK.json: "regressed" when the change's
median is worse by more than the bound, "unresolved" when the parent's own
spread is wider than the bound, "ok" otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.startswith("{")]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    if len(parent) != len(change) or len(parent) < 2:
        sys.exit("need the same number (>= 2) of results on both sides")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(r["failed"] for r in change) - sum(r["failed"] for r in parent)
    print(f"{len(parent)} pairs; failed operations change - parent: {failed}")
    print(f"{'metric':34s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'ratio':>7s} {'wins':>5s}  verdict")
    for name in parent[0]["metrics"]:
        meta = declared.get(name, {"better": "lower"})
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        lower = meta["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ratio = mb / ma if ma else float("nan")
        verdict = ""
        if "bound" in meta and ma:
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spread = (qa[2] - qa[0]) / ma
            if worse > meta["bound"]:
                verdict = "regressed"
            elif spread > meta["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{name:34s} {ma:12.5g} [{qa[0]:.4g}, {qa[2]:.4g}] "
              f"{mb:12.5g} [{qb[0]:.4g}, {qb[2]:.4g}] {ratio:7.3f} "
              f"{wins:2d}/{len(a):<2d}  {verdict}")


if __name__ == "__main__":
    main()
