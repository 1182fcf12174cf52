#!/usr/bin/env python3
"""Layered, verified benchmark of the coverentropy package.

Usage, from the repository root::

    python3 perfbench/run.py --workload search_ladder --seed 1 --seconds 15 --trace 0

Workloads: ``search_ladder``, ``small_batch``, ``division_sampling``, ``cli``
(see ``workloads.py`` for what one op is in each and why it was chosen).
One process drives a closed loop: one op at a time, no threads, CLI children
one after another.  The package is imported from ``src/`` of this checkout,
with whatever backend it picks by default; the run aborts, printing no
result, if that import fails or resolves elsewhere.

``--trace 0`` prints the end-to-end metrics of the named workload.  Ops run
in whole rounds (every round is the same mix in a seeded order), and each
round's outputs are verified after it, outside the timed region.  Ops are
timed in CPU time of the process and its children (``control.cpu_ns``), so
time slices lost to other processes do not count.  Every block of up to
``BLOCK_S`` seconds of ops is run at the same time, on the same CPU, by the
control, a frozen copy of the package in a child process, and the block's
times are scaled by how much slower than its reference the control ran (see
``control.py``), so figures are in reference seconds and do not move with
the load on the shared host.  The number of rounds is fixed by
``--seconds`` and the reference round time, so every run at one setting
times the same work.  Throughput is the median over rounds.  Set-up is the
median of ``IMPORT_PROBES`` fresh-interpreter imports plus the median of
``SETUP_REPS`` set-ups (inputs, reference solves, warm-up), each paired and
scaled the same way.

``--trace 1`` reports the per-layer metrics.  They come from all four
workloads, each metric from the workload it should move, so the named
workload only sets the order.  Each workload runs an untraced and a traced
pass of about ``seconds / 4``, without the control; the gap between their
throughputs is the tracing overhead.  Spans are written to
``perfbench/out/spans-<workload>.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also appends the full report
(metrics, latency details, input properties, run metadata) to FILE as one
JSON line, which ``sweep.py`` and ``compare.py`` read.
"""

import argparse
import array
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
NPROC = len(os.sched_getaffinity(0))   # before pin_to_one_cpu narrows it
SETUP_REPS = 5
IMPORT_PROBES = 5
#: Most reference seconds of ops in a block that the control runs alongside
#: (a longer op is a block of its own).  Short enough that the host's speed
#: barely changes within a block, long enough that the control's own jitter
#: averages out; 50 ms left the ladder's median op twice as noisy.
BLOCK_S = 0.02
#: Fewest ops a run times, so that its tail is at least the p75 (see
#: ``stats.pick_tail_percentile``).
MIN_OPS = 50

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_op_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def abort(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "coverentropy" / "__init__.py").is_file():
        abort(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coverentropy
    import coverentropy.cli  # noqa: F401  (workloads and tracing need it)

    resolved = Path(coverentropy.__file__).resolve().parent
    if resolved != (SRC / "coverentropy").resolve():
        abort(f"coverentropy imported from {resolved}, not from {SRC}")
    return coverentropy


def metadata(pkg) -> dict:
    import numpy

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None if sha is None else bool(git("status", "--porcelain"))
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "coverentropy").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": pkg._kernels.BACKEND,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "backend_env": os.environ.get("COVERENTROPY_BACKEND"),
        "nproc": NPROC,
        "git_sha": sha,
        "git_dirty": dirty,
        "package_file": pkg.__file__,
        "src_lines": src_lines,
    }


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Pass:
    """Latencies and counts of one timed pass made of whole rounds."""

    def __init__(self) -> None:
        # a packed array, so that the harness's own memory barely grows with
        # the number of ops and peak_rss_mb stays a figure of the program
        self.latencies_ns = array.array("d")
        self.round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.live_ns = 0       # measured, before scaling
        self.control_ns = 0
        self.reference_ns = 0

    @property
    def ops_per_s(self) -> float:
        """Median over rounds of verified ops per second of op time.

        Every round is the same mix, so the median discards rounds slowed by
        other load on the machine."""
        return statistics.median(self.round_rates)


def planned_rounds(seconds: float, round_s: float, min_rounds: int = 1) -> int:
    """Whole rounds that fill ``seconds`` at reference speed, at least ``min_rounds``."""
    return max(min_rounds, round(seconds / round_s))


def blocks(order: list[int], op_s: list[float], block_s: float) -> list[list[int]]:
    """Cut ``order`` into consecutive runs of at most ``block_s`` reference
    seconds; an op longer than that is a block of its own.

    A block is scaled by one factor, so it should not mix a millisecond op
    with a one-second one: the factor would be the long op's, measured over
    a stretch of time the short op saw little of."""
    out, cur, acc = [], [], 0.0
    for j in order:
        if cur and acc + op_s[j] > block_s:
            out.append(cur)
            cur, acc = [], 0.0
        cur.append(j)
        acc += op_s[j]
    if cur:
        out.append(cur)
    return out


def scale(reference_s: float, control_ns) -> float:
    """Factor that turns this block's measured times into reference times."""
    return reference_s * 1e9 / sum(control_ns)


def timed_pass(wl, rounds: int, recorder=None, control=None, ref=None,
               clock=time.perf_counter_ns) -> Pass:
    """Run ``rounds`` whole rounds, each block paired with the control if given.

    An op that raises counts as failed; so does a CLI op whose output
    ``op_ok`` rejects.  Outputs are verified after each round, untimed.
    Without a control, times are as measured.
    """
    res = Pass()
    for r in range(rounds):
        ops = wl.ops()
        order = wl.order(r)
        groups = [order] if control is None else blocks(order, ref["op_s"], BLOCK_S)
        outputs = []
        for group in groups:
            if control is not None:   # it runs the block while this process does
                control.send(cmd="run", ops=group)
            if recorder is not None:
                recorder.active = True
            live = []
            for j in group:
                key, op = ops[j]
                if recorder is not None:
                    recorder.op = res.attempted + len(outputs) + len(live)
                t0 = clock()
                try:
                    out, err = op(), None
                except Exception as exc:  # a failed op is counted, the loop goes on
                    out, err = None, exc
                live.append((key, out, err, clock() - t0))
            if recorder is not None:
                recorder.active = False
            factor = 1.0
            if control is not None:
                ctrl = control.result()["ns"]
                reference_s = sum(ref["op_s"][j] for j in group)
                factor = scale(reference_s, ctrl)
                res.control_ns += sum(ctrl)
                res.reference_ns += reference_s * 1e9
            res.live_ns += sum(lat for *_, lat in live)
            outputs.extend((key, out, err, lat * factor) for key, out, err, lat in live)
        good = []
        for key, out, err, lat in outputs:
            res.attempted += 1
            if err is None and wl.op_ok(key, out):
                res.latencies_ns.append(lat)
                good.append((key, out))
            else:
                res.failed += 1
                if len(res.failures) < 20:
                    res.failures.append(f"{key}: {err if err else out!r}"[:300])
        wl.verify(good)
        res.round_rates.append(len(good) / (sum(lat for *_, lat in outputs) / 1e9))
        res.rounds += 1
    return res


def pin_to_one_cpu() -> int:
    """Keep this process and its children (the control too) on one CPU, so
    that a block and its control share one core, time slice by time slice."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def paired(live, control, cmd: str, reference_s: float) -> float:
    """One live measurement in seconds, scaled by the control's of ``cmd``,
    which runs at the same time on the same CPU."""
    control.send(cmd=cmd)
    v = live()
    return v * reference_s / control.result()["s"]


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    import control
    import stats
    import workloads

    ref = control.load_reference(wl.name)
    cpu = pin_to_one_cpu()
    env = workloads.child_env(SRC)
    ctl = control.Control(wl.name, OUT_DIR)
    try:
        import_s = [paired(lambda: workloads.import_seconds(env), ctl, "import",
                           ref["import_s"]) for _ in range(IMPORT_PROBES)]

        def live_setup():
            t0 = control.cpu_ns()
            wl.setup(seed)
            return (control.cpu_ns() - t0) / 1e9

        setup_s = [paired(live_setup, ctl, "setup", ref["setup_s"])
                   for _ in range(SETUP_REPS)]
        rounds = planned_rounds(seconds, 2 * sum(ref["op_s"]),
                                -(-MIN_OPS // len(ref["op_s"])))
        res = timed_pass(wl, rounds, control=ctl, ref=ref, clock=control.cpu_ns)
        # read before the control exits: once reaped, it would count as a child
        peak = peak_rss_mb(with_children=wl.name == "cli")
    finally:
        ctl.close()
    lat = stats.latency_summary(res.latencies_ns)
    metrics = {
        "ops_per_s": res.ops_per_s,
        "op_ms_p50": lat["p50_ms"],
        "op_ms_tail": lat["tail_ms"],
        "ok_op_share": (res.attempted - res.failed) / res.attempted,
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "peak_rss_mb": peak,
    }
    detail = {
        "attempted": res.attempted,
        "failed": res.failed,
        "failed_op_share": res.failed / res.attempted,
        "failures": res.failures,
        "rounds": res.rounds,
        "live_s": res.live_ns / 1e9,
        "control_s": res.control_ns / 1e9,
        "control_over_reference": res.control_ns / res.reference_ns,
        "cpu": cpu,
        "tail_percentile": lat["tail_percentile"],
        "tail_samples_beyond": lat["tail_beyond"],
        "latency_samples": lat["samples"],
        "import_s": import_s,
        "setup_reps_s": setup_s,
    }
    return metrics, detail


def traced(pkg, order, seed: int, seconds: float) -> tuple[dict, dict]:
    import layers
    import spans
    import workloads

    per_layer, detail = {}, {"attempted": 0, "failed": 0, "passes": {}}
    OUT_DIR.mkdir(exist_ok=True)
    for name in order:
        wl = workloads.make(name, SRC, OUT_DIR)
        extra = {}
        try:
            wl.setup(seed)
            if name == "cli":
                extra = cli_probes(wl)
                wl.in_process = True   # spans can only be seen in this process
            first = timed_pass(wl, 1)   # also a warm-up
            rounds = planned_rounds(seconds / 4, sum(first.latencies_ns) / 1e9)
            plain = timed_pass(wl, rounds)
            rec = spans.Recorder()
            layers.patch_all(rec, pkg)
            try:
                res = timed_pass(wl, rounds, rec)
            finally:
                rec.restore()
            rec.dump(OUT_DIR / f"spans-{name}.jsonl")
        finally:
            wl.close()
        overhead = 100.0 * (plain.ops_per_s - res.ops_per_s) / plain.ops_per_s
        per_layer.update(layers.compute(name, rec.spans, res.attempted, res.rounds,
                                        overhead, wl.properties(), extra))
        detail["attempted"] += res.attempted
        detail["failed"] += res.failed
        detail["passes"][name] = {
            "untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": res.ops_per_s,
            "rounds": res.rounds, "spans": len(rec.spans), "failures": res.failures,
            "properties": wl.properties(),
        }
    return per_layer, detail


def cli_probes(wl) -> dict:
    """Import time of a bare child and CPU time per CLI child over one round."""
    import workloads

    import_ms = statistics.median([workloads.import_seconds(wl.env)
                                   for _ in range(IMPORT_PROBES)]) * 1e3
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops = wl.ops()
    for _, op in ops:
        op()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"import_ms": import_ms, "child_cpu_ms": cpu / len(ops) * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search_ladder", "small_batch", "division_sampling", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full report to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pkg = import_package()
    import checks
    import layers
    import workloads

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    correct = True
    try:
        if args.trace:
            order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
            metrics, detail = traced(pkg, order, args.seed, args.seconds)
            units = {name: unit for name, unit, _, _ in layers.TABLE}
            moves = {name: target for name, _, _, target in layers.TABLE}
        else:
            wl = workloads.make(args.workload, SRC, OUT_DIR)
            try:
                metrics, detail = end_to_end(wl, args.seed, args.seconds)
                detail["properties"] = wl.properties()
            finally:
                wl.close()
            units, moves = E2E_UNITS, {}
    except checks.GateError as exc:
        correct = False
        metrics, detail, units, moves = {}, {"attempted": 1, "failed": 0}, {}, {}
        print(f"verification failed: {exc}")
    report.update(detail)
    report["metrics"] = metrics
    report["meta"] = metadata(pkg)

    for name, value in metrics.items():
        target = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name:58s} {value:14.6g} {units[name]}{target}")
    if not args.trace and correct:
        print(f"tail is p{detail['tail_percentile']:g} of {detail['latency_samples']} ops "
              f"({detail['tail_samples_beyond']} beyond); failed_op_share "
              f"{detail['failed_op_share']:.4g}")
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
