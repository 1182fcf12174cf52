"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything randomized is seeded, so reruns are bit-for-bit stable.

Criteria 1-6, 8 and 9 are properties of the seeded self test: each reads its
verdict, the checks and failures of one property, from a single
``run_selftest("full")``, whose sizes are the criteria's counts.  Criterion 5
values each mixture with the naive oracle (the enumeration minimum) and
criterion 6 compares the extreme mixtures with the closed forms.  A planted
defect per property shows that each of them can fail.

Criterion 7 compares the Tsallis upper bound with the base-2 Shannon bound
as alpha -> 1.  Tsallis entropy is in natural units, so its bound tends to
the Shannon bound in nats: the test feeds it the component entropies in nats
(``h * ln 2``) and divides its upper bound by ``ln 2`` before comparing.
The raw, unconverted limit (``1 + ln 2`` at the criterion's inputs) is
covered in tests/test_mixture.py::TestLimitBridge.
"""

import math
import os
import subprocess
import sys
import time

import pytest

from coverentropy import (
    CoverEntropyResult,
    shannon,
    shannon_mixture_bounds,
    tsallis_mixture_bounds,
)
from coverentropy import selftest
from coverentropy.selftest import run_selftest

POOL_SEED = 20240801


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_selftest():
    """Each property's outcome in one timed ``selftest --scale full`` run,
    by name, and the run's seconds."""
    start = time.perf_counter()
    outcomes, _ = run_selftest("full", seed=POOL_SEED)
    return {o.name: o for o in outcomes}, time.perf_counter() - start


def _report_property(num, name, outcome, checks, detail="", ok=True):
    """Report criterion ``num`` from a property's outcome: it passes when the
    property made its ``checks`` checks and none failed."""
    ok = ok and outcome.passed and outcome.checks == checks
    detail = f"{outcome.checks} checks{detail}, {outcome.failures} failures"
    if outcome.counterexample is not None:
        detail += f", first: {outcome.counterexample}"
    _report(num, name, ok, detail)


def test_criterion_01_weighted_equals_classical(full_selftest):
    outcomes, elapsed = full_selftest
    _report_property(1, "weighted cover entropy equals classical",
                     outcomes["classical-weighted-agreement"], 2500,
                     f" of 500 instances x 5 functionals in a {elapsed:.1f}s full selftest",
                     ok=elapsed < 60.0)


def test_criterion_02_random_division_sandwich(full_selftest):
    _report_property(2, "sampled divisions dominate the classical minimum",
                     full_selftest[0]["random-division-lower-bound"], 100_000,
                     " of 100 instances x 1000 divisions")


def test_criterion_03_disjointify_inequality(full_selftest):
    _report_property(3, "disjointified partition never beats its division",
                     full_selftest[0]["disjointify-dominates"], 10_000)


def test_criterion_04_partition_to_division_inequality(full_selftest):
    _report_property(4, "induced division never beats its partition",
                     full_selftest[0]["partition-to-division-dominates"], 10_000)


def test_criterion_05_mixture_containment_against_oracle(full_selftest):
    _report_property(5, "mixture entropy stays within its bounds (brute-force oracle)",
                     full_selftest[0]["mixture-bound-containment"], 400,
                     " of 200 mixtures x (tsallis, renyi)")


def test_criterion_06_sharpness_of_both_bounds(full_selftest):
    _report_property(6, "both bounds are attained at the extreme mixtures",
                     full_selftest[0]["sharpness-extremes"], 108,
                     " of 9 weights x 3 orders x (tsallis, renyi) x (upper, lower)")


def test_criterion_07_alpha_to_one_bridge():
    # stated target: the base-2 Shannon upper bound at a=(0.5,0.5), H=(1,1)
    a = [0.5, 0.5]
    entropies = [1.0, 1.0]
    _, shannon_upper = shannon_mixture_bounds(entropies, a)
    assert shannon_upper == pytest.approx(2.0)
    # Tsallis is in nats: convert the bits in, and the bound back out
    ln2 = math.log(2.0)
    entropies_nats = [h * ln2 for h in entropies]
    near = {}
    for alpha in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 + 1e-4, 1 + 1e-3, 1 + 1e-2):
        _, upper = tsallis_mixture_bounds(entropies_nats, a, alpha)
        near[alpha] = abs(upper / ln2 - shannon_upper)
    close_enough = near[1 - 1e-4] <= 1e-3 and near[1 + 1e-4] <= 1e-3
    shrink_below = near[1 - 1e-2] >= near[1 - 1e-3] >= near[1 - 1e-4]
    shrink_above = near[1 + 1e-2] >= near[1 + 1e-3] >= near[1 + 1e-4]
    ok = close_enough and shrink_below and shrink_above
    gaps = ", ".join(f"{k:.4f}:{v:.3e}" for k, v in sorted(near.items()))
    _report(7, "upper bound approaches the base-2 Shannon bound as alpha -> 1",
            ok, f"|u_a / ln 2 - 2.0| by alpha: {gaps}")


def test_criterion_08_structure_validator(full_selftest):
    _report_property(8, "structure checks pass for built-ins and catch the planted fake",
                     full_selftest[0]["structure-checks"], 10,
                     " of 9 built-ins and 1 planted counterexample")


def test_criterion_09_hlp_comparator(full_selftest):
    _report_property(9, "prefix-dominance comparison holds for all probe maps",
                     full_selftest[0]["hlp-comparison"], 30_000,
                     " of 10000 inputs x 3 maps")


def test_criterion_10_deterministic_reports(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(
        '{"n": 4, "mu": [0.4, 0.3, 0.2, 0.1], '
        '"cover": [[0, 1, 2], [1, 2, 3], [0, 3]]}'
    )

    def run(args, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        out = subprocess.run(
            [sys.executable, "-m", "coverentropy.cli", *args],
            capture_output=True, env=env)
        return out.stdout

    cover_args = ["cover", str(instance), "--functional", "tsallis:2",
                  "--mode", "both", "--samples", "200", "--seed", "7"]
    selftest_args = ["selftest", "--scale", "quick", "--seed", "11"]
    cover_runs = [run(cover_args, h) for h in (0, 0, 12345)]
    selftest_runs = [run(selftest_args, h) for h in (0, 0, 12345)]
    ok = (
        len(set(cover_runs)) == 1
        and len(set(selftest_runs)) == 1
        and cover_runs[0]
        and selftest_runs[0]
    )
    _report(10, "reports are byte-identical across runs and hash seeds",
            ok, "cover x3, selftest x3")


def _one_ulp_up(real):
    def call(*args, **kwargs):
        r = real(*args, **kwargs)
        return r if r.is_infinite else CoverEntropyResult(
            math.nextafter(r.value, math.inf), r.witness, r.explored, r.assignment)
    return call


#: One planted defect per property that criteria 1-6, 8 and 9 read: the name
#: the self test calls, and a wrong stand-in built from the real one.
PLANTED = {
    "classical-weighted-agreement": ("cover_entropy_weighted", _one_ulp_up),
    "random-division-lower-bound": ("weighted_entropy", lambda real: lambda *a: real(*a) - 1),
    "disjointify-dominates": ("weighted_entropy", lambda real: lambda *a: real(*a) - 1),
    "partition-to-division-dominates": ("weighted_entropy", lambda real: lambda *a: real(*a) + 1),
    "mixture-bound-containment": ("tsallis_mixture_bounds", lambda real: lambda *a: tuple(
        b + 1 for b in real(*a))),
    "sharpness-extremes": ("renyi", lambda real: lambda alpha: real(alpha + 1)),
    "structure-checks": ("check_structure", lambda real: lambda e, **kw: real(shannon(), **kw)),
    "hlp-comparison": ("hlp_compare", lambda real: lambda inp, phi, shape, **kw: real(
        inp, phi, {"concave": "convex", "convex": "concave"}[shape], **kw)),
}


@pytest.mark.parametrize("prop", PLANTED)
def test_planted_defect_fails_its_property(prop, monkeypatch):
    # a property that stopped checking would pass both the CLI and the criteria
    name, defect = PLANTED[prop]
    monkeypatch.setattr(selftest, name, defect(getattr(selftest, name)))
    monkeypatch.setitem(selftest.SCALES, "tiny", dict(
        agree=4, sandwich=(2, 5), disjoint=20, refine=20, mixtures=1, hlp=20, search=1))
    outcomes, _ = run_selftest("tiny", seed=POOL_SEED)
    assert {o.name: o.failures for o in outcomes}[prop] > 0
