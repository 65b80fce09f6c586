"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGED.jsonl

Each file holds the records run.py appends with ``--out``.  For every
workload and metric the table gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the ratio of the medians with its
base, and a verdict.  An end-to-end metric whose run-to-run spread (quartile
distance over median) on either side is wider than its bound in
BENCHMARK.json is "unresolved": the runs cannot tell a change of that size
from noise.  Otherwise it is "worse" when the changed median is worse than
the base median by more than the bound, "better" when it improves by more,
and "same" in between.  Per-layer metrics have no bound and get no verdict.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a JSON-lines result file."""
    runs: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], changed: list[float], bound: float, better: str) -> str:
    if max(spread(base), spread(changed)) > bound:
        return "unresolved"
    ratio = summary(changed)[1] / summary(base)[1]
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(base: dict, changed: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{'workload':14s} {'metric':44s} {'base q1/med/q3':>30s} "
             f"{'changed q1/med/q3':>30s} {'ratio':>8s}  verdict"]
    for key in sorted(set(base) & set(changed)):
        workload, trace = key
        for name in base[key]:
            if name not in changed[key]:
                continue
            a, b = base[key][name], changed[key][name]
            qa, qb = summary(a), summary(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            if name in bounds and not trace:
                note = verdict(a, b, bounds[name]["bound"], bounds[name]["better"])
            else:
                note = "-"
            lines.append(
                f"{workload:14s} {name:44s} "
                f"{'/'.join(f'{v:.4g}' for v in qa):>30s} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>30s} "
                f"{ratio:8.4f}  {note} (base {qa[1]:.4g}, n={len(a)}/{len(b)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("base")
    parser.add_argument("changed")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    for line in compare(load(args.base), load(args.changed), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
