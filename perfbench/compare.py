#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds full run reports, one JSON line per run, as written by
``run.py --out`` or ``sweep.py``.  For each end-to-end metric of
``BENCHMARK.json`` the table gives both sides' quartiles and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* ``better``: runs are paired by seed (in file order when seeds differ), the
  change wins at least 9 of every 10 pairs (ties count for neither), and the
  medians differ by more than the parent's interquartile distance;
* ``unresolved``: neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path) -> dict[str, list[dict]]:
    """Untraced, correct runs grouped by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        report = json.loads(line)
        if report.get("trace") or not report.get("metrics"):
            continue
        runs.setdefault(report["workload"], []).append(report)
    return runs


def pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r["metrics"][name] for r in parent}
    if all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]], r["metrics"][name]) for r in change]
    return [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)]


def verdict(parent_values, change_values, paired, better: str, bound: float) -> tuple[str, int]:
    """The verdict and the number of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = stats.quartiles(parent_values)
    c_med = stats.quartiles(change_values)[1]
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse", wins
    if paired and wins >= WIN_SHARE * len(paired) and sign * (c_med - p_med) > (p_q3 - p_q1):
        return "better", wins
    return "unresolved", wins


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':18s} {'metric':12s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'pairs won':>9s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:18s} (missing from one side)")
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name] for r in parent[workload]]
            cv = [r["metrics"][name] for r in change[workload]]
            paired = pairs(parent[workload], change[workload], name)
            result, wins = verdict(pv, cv, paired, m["better"], m["bound"])
            print(f"{workload:18s} {name:12s} {_fmt(stats.quartiles(pv)):>32s} "
                  f"{_fmt(stats.quartiles(cv)):>32s} {wins:>4d}/{len(paired):<4d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
