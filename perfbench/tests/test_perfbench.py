"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
import types

import pytest

import checks
import gen
import layers
import spans
import stats
from conftest import BENCH


# -- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (10 ** 6, 95.0),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = stats.pick_tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert stats.beyond(p, n) >= stats.MIN_BEYOND
    higher = [q for q in stats.TAIL_PERCENTILES if q > p]
    assert all(stats.beyond(q, n) < stats.MIN_BEYOND for q in higher)


def test_latency_summary_reads_nearest_rank():
    lat = [i * 1_000_000 for i in range(1, 101)]   # 1..100 ms
    s = stats.latency_summary(reversed(lat))
    assert s["p50_ms"] == 50.0
    assert s["tail_percentile"] == 90.0
    assert s["tail_ms"] == 90.0
    assert s["tail_beyond"] == 10


# -- span arithmetic -------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_the_union_of_children():
    s = [
        _span("outer", 0, 100, None),
        _span("a", 10, 30, 0),
        _span("b", 20, 50, 0),    # overlaps a: union of a and b is 40
        _span("c", 60, 70, 0),
        _span("leaf", 62, 68, 3),  # grandchild: not subtracted from outer
    ]
    kids = spans.children_index(s)
    assert spans.self_ns(s, kids, 0) == 100 - 50
    assert spans.self_ns(s, kids, 3) == 10 - 6
    assert spans.self_ns(s, kids, 4) == 6
    assert spans.outermost(s, {"c", "leaf"}) == [3]


def test_recorder_patches_every_binding_and_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    mod.inner, mod.outer, sub.inner = inner, outer, inner
    sys.modules["fakepkg"], sys.modules["fakepkg.sub"] = mod, sub
    try:
        rec = spans.Recorder()
        assert rec.patch(inner, "inner", count=lambda r: r, package="fakepkg") == 2
        rec.patch(outer, "outer", package="fakepkg")
        assert mod.outer(1) == 4 and rec.spans == []   # inactive: no spans
        rec.active = True
        assert mod.outer(1) == 4
        names = [(s[spans.NAME], s[spans.PARENT], s[spans.COUNT]) for s in rec.spans]
        assert names == [("outer", None, None), ("inner", 0, 2)]
        kids = spans.children_index(rec.spans)
        assert spans.self_ns(rec.spans, kids, 0) <= spans.duration(rec.spans[0])
        rec.restore()
        assert mod.inner is inner and sub.inner is inner and mod.outer is outer
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


# -- generators ------------------------------------------------------------

def test_generators_are_deterministic_in_the_seed():
    assert gen.small_instance(gen.SMALL_STREAM, 7, 3) == gen.small_instance(gen.SMALL_STREAM, 7, 3)
    assert gen.small_instance(gen.SMALL_STREAM, 7, 3) != gen.small_instance(gen.SMALL_STREAM, 8, 3)
    assert gen.cli_file_set(5, 0, "shannon") == gen.cli_file_set(5, 0, "shannon")
    a = gen.mixture_components(2, 4, gen.small_instance(gen.SMALL_STREAM, 2, 4))
    b = gen.mixture_components(2, 4, gen.small_instance(gen.SMALL_STREAM, 2, 4))
    assert a == b


def test_ladder_matches_the_recorded_reference():
    recorded = json.loads((BENCH / "ladder_reference.json").read_text())["instances"]
    pool = gen.ladder_pool()
    assert [(r["rung"], r["index"], r["digest"]) for r in recorded] == [
        (rung, p, gen.instance_digest(inst)) for rung, p, inst in pool]
    for (rung, _, inst), r in zip(pool, recorded):
        props = gen.properties(inst)
        spec = next(x for x in gen.LADDER if x.name == rung)
        assert props["regime"] == ("scan" if spec.max_space <= gen.DEFAULT_BUDGET
                                   else "branch-and-bound")
        assert props == r["properties"]


# -- verification gate -----------------------------------------------------

def test_ladder_gate_rejects_a_value_off_by_1e9():
    import workloads
    from coverentropy import cover_entropy, parse_functional
    from coverentropy.measure import parse_instance

    ref = workloads.load_reference()
    rung, p, inst = gen.ladder_pool()[0]
    value = ref[(rung, p)]["values"]["shannon"]
    mu, q = parse_instance(inst)
    result = cover_entropy(parse_functional("shannon"), mu, q)
    blocks = result.witness.as_lists()
    workloads.check_ladder_result(inst, "shannon", value, result.value, blocks, "ok")
    with pytest.raises(checks.GateError):
        workloads.check_ladder_result(inst, "shannon", value, result.value + 1e-9, blocks, "off")
    with pytest.raises(checks.GateError):   # a witness that is not a partition
        workloads.check_ladder_result(inst, "shannon", value, result.value,
                                      blocks + [blocks[0]], "overlap")


def test_canonical_report_check():
    assert checks.parse_report('{"a":1,"b":0.10000000000000001}\n') == {"a": 1, "b": 0.1}
    assert checks.parse_report('{"b":1,"a":1}\n') is None        # keys unsorted
    assert checks.parse_report('{"a":NaN}\n') is None
    assert checks.parse_report('{"a":1}\n{"a":1}\n') is None
    assert checks.parse_report("") is None


# -- pairing with the control ---------------------------------------------

def test_blocks_cover_the_order_in_runs_of_at_most_block_s():
    import run

    op_s = [0.01, 0.02, 0.5, 0.01, 0.01, 0.01]
    order = [5, 0, 2, 1, 3, 4]
    got = run.blocks(order, op_s, 0.03)
    assert got == [[5, 0], [2], [1, 3], [4]]   # the long op stands alone
    assert [j for b in got for j in b] == order


def test_scale_turns_control_time_into_reference_time():
    import run

    # the control took 1.5x its reference: the host ran 1.5x slow
    assert run.scale(0.2, [150_000_000, 150_000_000]) == pytest.approx(2 / 3)

    class FakeControl:
        def __init__(self):
            self.calls = []

        def send(self, cmd):
            self.calls.append(("send", cmd))

        def result(self):
            self.calls.append("result")
            return {"s": 2.0}

    ctl = FakeControl()
    live = lambda: ctl.calls.append("live") or 3.0  # noqa: E731
    assert run.paired(live, ctl, "import", 1.0) == 1.5
    assert ctl.calls == [("send", "import"), "live", "result"]   # the two overlap


def test_planned_rounds_fill_the_seconds_at_reference_speed():
    import run

    assert run.planned_rounds(16, 2 * 0.25) == 32
    assert run.planned_rounds(16, 2 * 9.3) == 1
    assert run.planned_rounds(16, 2 * 3.5, min_rounds=4) == 4


@pytest.mark.parametrize("name", ["search_ladder", "small_batch", "division_sampling", "cli"])
def test_live_ops_line_up_with_the_control_reference(name, tmp_path):
    import control
    import workloads

    wl = workloads.make(name, BENCH.parent / "src", tmp_path)
    try:
        wl.setup(5)
        assert len(wl.ops()) == len(control.load_reference(name)["op_s"])
        assert sorted(wl.order(2)) == list(range(len(wl.ops())))
        assert wl.order(2) == wl.order(2) != wl.order(3)
    finally:
        wl.close()


# -- benchmark definition --------------------------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    import run

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [row[0] for row in layers.TABLE]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(__import__("workloads").WORKLOADS)
