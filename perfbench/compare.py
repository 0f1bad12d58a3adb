"""Compare result lines of two commits against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the last stdout lines of ``run.py`` runs of one workload
(one JSON object per line, several seeds).  For every metric the script
prints both medians, each side's quartile spread as a share of its median,
and whether the change is worse than the parent by more than the bound.
Exits 1 if any bounded metric regressed or any run failed its gate.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(path: str) -> tuple[dict[str, list[float]], int]:
    values: dict[str, list[float]] = {}
    failed = 0
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            result = json.loads(line)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values, failed


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (parent, parent_failed), (change, change_failed) = load(argv[0]), load(argv[1])
    regressed = parent_failed + change_failed > 0
    print(f"{'metric':40s} {'parent':>12s} {'spread':>7s} {'change':>12s} "
          f"{'spread':>7s} {'worse by':>9s} {'bound':>6s}")
    for name in sorted(set(parent) & set(change), key=list(better).index):
        p, c = statistics.median(parent[name]), statistics.median(change[name])
        sign = 1.0 if better[name] == "lower" else -1.0
        worse = sign * (c - p) / abs(p) if p else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and worse > bound:
            flag, regressed = "  REGRESSED", True
        print(f"{name:40s} {p:12.6g} {spread(parent[name]):7.1%} {c:12.6g} "
              f"{spread(change[name]):7.1%} {worse:9.1%} "
              f"{'' if bound is None else format(bound, '.0%'):>6s}{flag}")
    print(f"failed runs: parent {parent_failed}, change {change_failed}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
