"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything randomized is seeded, so reruns are bit-for-bit stable.

Criterion 7 compares the Tsallis upper bound with the base-2 Shannon bound
as alpha -> 1.  Tsallis entropy is in natural units, so its bound tends to
the Shannon bound in nats: the test feeds it the component entropies in nats
(``h * ln 2``) and divides its upper bound by ``ln 2`` before comparing.
The raw, unconverted limit (``1 + ln 2`` at the criterion's inputs) is
covered in tests/test_mixture.py::TestLimitBridge.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

from coverentropy import (
    CompositionCase,
    DiscreteSpace,
    EntropyFunctional,
    Measure,
    MixtureSpec,
    SetFamily,
    check_structure,
    cover_entropy,
    cover_entropy_weighted,
    disjointify,
    enumerate_acceptable_partitions,
    hlp_compare,
    is_mu_cover,
    mix,
    partition_entropy,
    partition_to_division,
    random_division,
    renyi,
    shannon,
    shannon_mixture_bounds,
    tsallis,
    tsallis_mixture_bounds,
    verify_mixture_bounds,
    weighted_entropy,
)
from coverentropy.selftest import (
    random_acceptable_partition,
    random_cover,
    random_hlp_input,
    random_instance,
    random_probability,
)

TOL = 1e-9
SHARP_TOL = 1e-12
POOL_SEED = 20240801

FUNCTIONALS = (shannon(), renyi(0.5), renyi(2.0), tsallis(0.5), tsallis(2.0))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def instance_pool():
    rng = random.Random(POOL_SEED)
    return [random_instance(rng, n_range=(2, 8), k_range=(2, 5)) for _ in range(500)]


def oracle_cover_entropy(e, mu, q):
    """Brute-force reference: minimum over every enumerated partition."""
    if not is_mu_cover(q, mu):
        return None
    return min(
        partition_entropy(e, mu, p) for p in enumerate_acceptable_partitions(mu, q)
    )


def test_criterion_01_weighted_equals_classical(instance_pool):
    start = time.perf_counter()
    worst = 0.0
    unequal = 0  # the vertex division's row masses are the witness's block masses
    for mu, q in instance_pool:
        for e in FUNCTIONALS:
            a = cover_entropy(e, mu, q)
            b = cover_entropy_weighted(e, mu, q)
            assert a.is_infinite == b.is_infinite
            if not a.is_infinite:
                worst = max(worst, abs(a.value - b.value))
                unequal += a.value != b.value
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and unequal == 0 and elapsed < 60.0
    _report(1, "weighted cover entropy equals classical",
            ok, f"500 instances x 5 functionals, max |diff|={worst:.2e}, "
                f"{unequal} not bit-identical, {elapsed:.1f}s")


def test_criterion_02_random_division_sandwich(instance_pool):
    violations = 0
    checked = 0
    for idx, (mu, q) in enumerate(instance_pool[:100]):
        e = FUNCTIONALS[idx % len(FUNCTIONALS)]
        floor = cover_entropy(e, mu, q).value
        for s in range(1000):
            d = random_division(mu, q, seed=idx * 1000 + s)
            checked += 1
            if weighted_entropy(e, d) < floor - TOL:
                violations += 1
    _report(2, "sampled divisions dominate the classical minimum",
            violations == 0, f"{checked} divisions, {violations} violations")


def test_criterion_03_disjointify_inequality(instance_pool):
    violations = 0
    for k in range(10000):
        mu, q = instance_pool[k % len(instance_pool)]
        e = FUNCTIONALS[k % len(FUNCTIONALS)]
        d = random_division(mu, q, seed=10_000_000 + k)
        p = disjointify(d)
        if partition_entropy(e, mu, p) > weighted_entropy(e, d) + TOL:
            violations += 1
    _report(3, "disjointified partition never beats its division",
            violations == 0, f"10000 pairs, {violations} violations")


def test_criterion_04_partition_to_division_inequality(instance_pool):
    rng = random.Random(POOL_SEED + 4)
    violations = 0
    for k in range(10000):
        mu, q = instance_pool[k % len(instance_pool)]
        p = random_acceptable_partition(rng, mu, q)
        e = FUNCTIONALS[k % len(FUNCTIONALS)]
        d = partition_to_division(mu, p, q)
        if weighted_entropy(e, d) > partition_entropy(e, mu, p) + TOL:
            violations += 1
    _report(4, "induced division never beats its partition",
            violations == 0, f"10000 pairs, {violations} violations")


def test_criterion_05_mixture_containment_against_oracle():
    rng = random.Random(POOL_SEED + 5)
    alphas = (0.5, 2.0, 3.0)
    violations = 0
    for k in range(200):
        n = rng.randint(2, 6)
        parts = rng.randint(2, 3)
        mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(parts)]
        mean = [math.fsum(column) / parts for column in zip(*(m.masses for m in mus))]
        carrier = Measure(DiscreteSpace(n), mean, probability=True)
        q = random_cover(rng, carrier, rng.randint(2, 4))
        coeffs = random_probability(rng, parts, zero_chance=0.0).masses
        alpha = alphas[k % 3]
        e = tsallis(alpha)
        comp = [oracle_cover_entropy(e, m, q) for m in mus]
        spec = MixtureSpec(tuple((float(c), m) for c, m in zip(coeffs, mus)))
        achieved = oracle_cover_entropy(e, mix(spec), q)
        lower, upper = tsallis_mixture_bounds(comp, coeffs, alpha)
        assert lower is not None and achieved is not None
        if not (lower - TOL <= achieved <= upper + TOL):
            violations += 1
        # Renyi has no closed form; its bounds come from the g-sum rule
        e = renyi(alpha)
        report = verify_mixture_bounds(e, spec, q)
        achieved = oracle_cover_entropy(e, mix(spec), q)
        if not (report.lower - TOL <= achieved <= report.upper + TOL):
            violations += 1
    _report(5, "mixture entropy stays within its bounds (brute-force oracle)",
            violations == 0, f"200 mixtures x (tsallis, renyi), {violations} violations")


def test_criterion_06_sharpness_of_both_bounds():
    space2 = DiscreteSpace(2)
    d0 = Measure(space2, [1.0, 0.0], probability=True)
    d1 = Measure(space2, [0.0, 1.0], probability=True)
    singles = SetFamily.of(space2, [[0], [1]])
    space3 = DiscreteSpace(3)
    shared = Measure(space3, [0.2, 0.3, 0.5], probability=True)
    overlap = SetFamily.of(space3, [[0, 1], [1, 2]])
    worst_upper = worst_lower = 0.0
    for a1 in [x / 10 for x in range(1, 10)]:
        a2 = 1.0 - a1
        for alpha in (0.5, 2.0, 3.0):
            e = tsallis(alpha)
            closed_form = (a1 ** alpha + a2 ** alpha - 1.0) / (1.0 - alpha)
            # split point masses: the upper bound is attained exactly
            achieved = cover_entropy(
                e, Measure(space2, [a1, a2], probability=True), singles).value
            comp = [cover_entropy(e, m, singles).value for m in (d0, d1)]
            _, upper = tsallis_mixture_bounds(comp, [a1, a2], alpha)
            worst_upper = max(worst_upper, abs(achieved - upper),
                              abs(achieved - closed_form))
            # identical components: the lower bound is attained exactly
            spec = MixtureSpec(((a1, shared), (a2, shared)))
            achieved_same = cover_entropy(e, mix(spec), overlap).value
            h = cover_entropy(e, shared, overlap).value
            lower, _ = tsallis_mixture_bounds([h, h], [a1, a2], alpha)
            worst_lower = max(worst_lower, abs(achieved_same - lower))
            # the same extremes for Renyi, whose bounds come from the g-sum rule
            e = renyi(alpha)
            closed_form = math.log2(a1 ** alpha + a2 ** alpha) / (1.0 - alpha)
            report = verify_mixture_bounds(e, MixtureSpec(((a1, d0), (a2, d1))), singles)
            worst_upper = max(worst_upper, abs(report.achieved - report.upper),
                              abs(report.achieved - closed_form))
            report = verify_mixture_bounds(e, spec, overlap)
            worst_lower = max(worst_lower, abs(report.achieved - report.lower))
    ok = worst_upper <= SHARP_TOL and worst_lower <= SHARP_TOL
    _report(6, "both bounds are attained at the extreme mixtures",
            ok, f"upper gap {worst_upper:.2e}, lower gap {worst_lower:.2e}")


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


def test_criterion_08_structure_validator():
    probes = [shannon()]
    for alpha in (0.25, 0.5, 2.0, 4.0):
        probes.append(renyi(alpha))
        probes.append(tsallis(alpha))
    all_pass = all(
        check_structure(e, grid_size=201, tol=TOL).passed for e in probes
    )
    planted = EntropyFunctional(
        name="planted-square", alpha=None, f=lambda x: x, g=lambda t: t * t,
        case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
    )
    planted_fails = not check_structure(planted, grid_size=201, tol=TOL).passed
    _report(8, "structure checks pass for built-ins and catch the planted fake",
            all_pass and planted_fails,
            f"{len(probes)} built-ins pass, planted counterexample rejected")


def test_criterion_09_hlp_comparator():
    rng = random.Random(POOL_SEED + 9)
    phis = (
        (lambda t: -t * math.log2(t) if t > 0 else 0.0, "concave"),
        (lambda t: math.sqrt(t), "concave"),
        (lambda t: t * t, "convex"),
    )
    violations = 0
    for _ in range(10000):
        inp = random_hlp_input(rng, rng.randint(2, 8), transfers=rng.randint(1, 5))
        for phi, shape in phis:
            if not hlp_compare(inp, phi, shape, tol=TOL).confirmed:
                violations += 1
    _report(9, "prefix-dominance comparison holds for all probe maps",
            violations == 0, f"10000 inputs x 3 maps, {violations} violations")


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
