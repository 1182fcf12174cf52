#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/sweep.py --workloads cli small_batch --seeds 1-10 \\
        --out perfbench/out/parent.jsonl

Runs are sequential, one child process at a time.  Each run's full report is
appended to ``--out``; the table gives, per workload and end-to-end metric,
the median and the interquartile distance as a share of the median next to
the metric's bound from ``BENCHMARK.json``.  ``compare.py`` compares two
such files.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            runs.setdefault(workload, []).append(last["metrics"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)

    print(f"\n{'workload':18s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in runs.items():
        for name, bound in bounds.items():
            values = [m[name]["value"] for m in metrics]
            spread = stats.relative_spread(values)
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-- over bound/3"
            print(f"{workload:18s} {name:12s} {stats.quartiles(values)[1]:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
