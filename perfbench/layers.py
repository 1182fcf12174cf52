"""Per-layer metrics: what the traced run patches, and what it reports.

Every per-layer metric is measured on the workload named in its prefix and
is listed with the end-to-end metric of that workload it should move.
``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

import statistics

import gen
import spans as sp
from spans import COUNT, NAME, PARENT

# (name, unit, better, end-to-end metric it should move)
_FIXED = [
    ("search_ladder._kernels.scan_ms", "ms", "lower", "search_ladder op_ms_p50"),
    ("search_ladder._kernels.scan_ns_per_assignment", "ns", "lower", "search_ladder op_ms_p50"),
    ("search_ladder._kernels.bb_ms", "ms", "lower", "search_ladder op_ms_tail"),
    ("search_ladder._kernels.bb_leaves", "count", "lower", "search_ladder op_ms_tail"),
    ("search_ladder._kernels.bb_leaves_per_s", "1/s", "higher", "search_ladder op_ms_tail"),
    ("search_ladder.classical.explored", "count", "lower", "search_ladder ops_per_s"),
    ("search_ladder.trace_overhead_pct", "%", "lower", "search_ladder ops_per_s"),
    ("small_batch.measure.cover_check_us", "us", "lower", "small_batch op_ms_p50"),
    ("small_batch.functionals.evaluate_us", "us", "lower", "small_batch ops_per_s"),
    ("small_batch.functionals.evaluate_calls", "count", "lower", "small_batch ops_per_s"),
    ("small_batch.classical.minimizing_assignment_self_us", "us", "lower", "small_batch op_ms_p50"),
    ("small_batch.classical.witness_us", "us", "lower", "small_batch op_ms_p50"),
    ("small_batch._kernels.scan_call_us", "us", "lower", "small_batch op_ms_p50"),
    ("small_batch.weighted.division_from_assignment_us", "us", "lower", "small_batch ops_per_s"),
    ("small_batch.mixture.verify_ms", "ms", "lower", "small_batch op_ms_tail"),
    ("small_batch.mixture.component_searches", "count", "lower", "small_batch op_ms_tail"),
    ("small_batch.trace_overhead_pct", "%", "lower", "small_batch ops_per_s"),
    ("division_sampling.functionals.evaluate_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.functionals.evaluate_calls", "count", "lower", "division_sampling ops_per_s"),
    ("division_sampling.weighted.random_division_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.weighted.division_build_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.weighted.weighted_entropy_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.weighted.disjointify_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.weighted.certificate_us", "us", "lower", "division_sampling ops_per_s"),
    ("division_sampling.trace_overhead_pct", "%", "lower", "division_sampling ops_per_s"),
    ("cli.measure.parse_us", "us", "lower", "cli op_ms_p50"),
    ("cli.cli.import_ms", "ms", "lower", "cli op_ms_p50"),
    ("cli.cli.dumps_canonical_us", "us", "lower", "cli op_ms_p50"),
    ("cli.cli.report_bytes", "bytes", "lower", "cli op_ms_p50"),
    ("cli.cli.child_cpu_ms", "ms", "lower", "cli op_ms_p50"),
    ("cli.trace_overhead_pct", "%", "lower", "cli ops_per_s"),
]

# Input properties of each ladder rung (mean over the rung's instances).
_RUNGS = [
    (f"search_ladder.rung.{r.name}.{prop}", unit, "lower", "search_ladder op_ms_p50")
    for r in gen.LADDER
    for prop, unit in (("space_log10", "log10"), ("venn_cells", "count"))
]

TABLE = _FIXED + _RUNGS


def patch_all(recorder, pkg) -> None:
    """Wrap every layer boundary of the package in a span."""
    classical, weighted, kernels = pkg.classical, pkg.weighted, pkg._kernels
    targets = [
        (pkg.measure.load_instance, "measure.parse", None),
        (pkg.measure.parse_instance, "measure.parse", None),
        (pkg.measure.is_mu_cover, "measure.cover_check", None),
        (pkg.measure.is_mu_partition, "measure.cover_check", None),
        (pkg.functionals.evaluate, "functionals.evaluate", None),
        (classical.cover_entropy, "classical.cover_entropy", lambda r: r.explored),
        (classical.minimizing_assignment, "classical.minimizing_assignment", None),
        (classical.assignment_to_partition, "classical.witness", None),
        (classical.partition_entropy, "classical.partition_entropy", None),
        (kernels.scan_assignments, "_kernels.scan", lambda r: r[2]),
        (kernels.branch_and_bound, "_kernels.bb", lambda r: r[2]),
        (weighted.cover_entropy_weighted, "weighted.cover_entropy_weighted", None),
        (weighted.division_from_assignment, "weighted.division_from_assignment", None),
        (weighted.random_division, "weighted.random_division", None),
        (weighted.weighted_entropy, "weighted.weighted_entropy", None),
        (weighted.disjointify, "weighted.disjointify", None),
        (weighted.disjointify_certificate, "weighted.certificate", None),
        (pkg.mixture.verify_mixture_bounds, "mixture.verify", None),
        (pkg.cli.dumps_canonical, "cli.dumps_canonical", len),
    ]
    for fn, name, count in targets:
        recorder.patch(fn, name, count)
    recorder.patch_method(weighted.WeightedDivision, "__post_init__", "weighted.division_build")


class SpanStats:
    """Aggregates over one traced pass."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.kids = sp.children_index(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def outer(self, *names) -> list[int]:
        return sp.outermost(self.spans, names)

    def total_ns(self, idx) -> int:
        return sum(sp.duration(self.spans[i]) for i in idx)

    def mean_us(self, *names) -> float:
        idx = self.outer(*names)
        return self.total_ns(idx) / len(idx) / 1e3 if idx else 0.0

    def mean_self_us(self, name) -> float:
        idx = self.by_name.get(name, [])
        if not idx:
            return 0.0
        return sum(sp.self_ns(self.spans, self.kids, i) for i in idx) / len(idx) / 1e3

    def count(self, name) -> int:
        return len(self.by_name.get(name, []))

    def counted(self, name) -> int:
        return sum(self.spans[i][COUNT] or 0 for i in self.by_name.get(name, []))

    def with_parent(self, name, parent) -> list[int]:
        return [i for i in self.by_name.get(name, [])
                if self.spans[i][PARENT] is not None
                and self.spans[self.spans[i][PARENT]][NAME] == parent]

    def under(self, name, ancestor) -> int:
        return sum(1 for i in self.by_name.get(name, [])
                   if sp.has_ancestor(self.spans, i, {ancestor}))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def compute(workload: str, spans, ops: int, rounds: int, overhead_pct: float,
            properties: list[dict], extra: dict) -> dict:
    """Per-layer metrics of one workload's traced pass, keyed by full name."""
    st = SpanStats(spans)
    out = {f"{workload}.trace_overhead_pct": overhead_pct}
    if workload == "search_ladder":
        scans, bbs = st.by_name.get("_kernels.scan", []), st.by_name.get("_kernels.bb", [])
        scan_ns, bb_ns = st.total_ns(scans), st.total_ns(bbs)
        leaves = st.counted("_kernels.bb")
        out.update({
            "search_ladder._kernels.scan_ms": _ratio(scan_ns, len(scans)) / 1e6,
            "search_ladder._kernels.scan_ns_per_assignment": _ratio(scan_ns, st.counted("_kernels.scan")),
            "search_ladder._kernels.bb_ms": _ratio(bb_ns, len(bbs)) / 1e6,
            "search_ladder._kernels.bb_leaves": leaves / rounds,
            "search_ladder._kernels.bb_leaves_per_s": _ratio(leaves, bb_ns / 1e9),
            "search_ladder.classical.explored": st.counted("classical.cover_entropy") / rounds,
        })
        for rung in gen.LADDER:
            rows = [p for p in properties if p["rung"] == rung.name]
            for prop in ("space_log10", "venn_cells"):
                out[f"search_ladder.rung.{rung.name}.{prop}"] = statistics.fmean(
                    p[prop] for p in rows)
    elif workload == "small_batch":
        searches = st.count("classical.cover_entropy")
        witness = st.by_name.get("classical.witness", []) + st.with_parent(
            "classical.partition_entropy", "classical.cover_entropy")
        verifies = st.count("mixture.verify")
        out.update({
            "small_batch.measure.cover_check_us": st.mean_us("measure.cover_check"),
            "small_batch.functionals.evaluate_us": st.mean_us("functionals.evaluate"),
            "small_batch.functionals.evaluate_calls": _ratio(st.count("functionals.evaluate"), ops),
            "small_batch.classical.minimizing_assignment_self_us":
                st.mean_self_us("classical.minimizing_assignment"),
            "small_batch.classical.witness_us": _ratio(st.total_ns(witness), searches) / 1e3,
            "small_batch._kernels.scan_call_us": st.mean_us("_kernels.scan"),
            "small_batch.weighted.division_from_assignment_us":
                st.mean_us("weighted.division_from_assignment"),
            "small_batch.mixture.verify_ms": st.mean_us("mixture.verify") / 1e3,
            "small_batch.mixture.component_searches":
                _ratio(st.under("classical.cover_entropy", "mixture.verify"), verifies),
        })
    elif workload == "division_sampling":
        out.update({
            "division_sampling.functionals.evaluate_us": st.mean_us("functionals.evaluate"),
            "division_sampling.functionals.evaluate_calls":
                _ratio(st.count("functionals.evaluate"), ops),
            "division_sampling.weighted.random_division_us": st.mean_us("weighted.random_division"),
            "division_sampling.weighted.division_build_us": st.mean_us("weighted.division_build"),
            "division_sampling.weighted.weighted_entropy_us": st.mean_us("weighted.weighted_entropy"),
            "division_sampling.weighted.disjointify_us": st.mean_us("weighted.disjointify"),
            "division_sampling.weighted.certificate_us": st.mean_us("weighted.certificate"),
        })
    elif workload == "cli":
        out.update({
            "cli.measure.parse_us": st.mean_us("measure.parse"),
            "cli.cli.dumps_canonical_us": st.mean_us("cli.dumps_canonical"),
            "cli.cli.report_bytes": _ratio(st.counted("cli.dumps_canonical"),
                                           st.count("cli.dumps_canonical")),
            "cli.cli.import_ms": extra["import_ms"],
            "cli.cli.child_cpu_ms": extra["child_cpu_ms"],
        })
    return out
