"""Seeded randomized property suite, runnable from the CLI (`selftest`).

Each property is a generator that yields once per check: ``None`` when the
check holds, or a counterexample dict when it fails.  ``_run`` counts the
checks and failures and keeps the first counterexample.  Each property draws
from its own ``random.Random``, seeded with a string of the base seed and the
property's index, so a run is reproducible from ``(seed, scale)`` on every
Python version; the suite, like the division sampler, never loads numpy.  At
``--scale full`` it is acceptance criteria 1-6, 8 and 9: ``tests/`` reads
their verdicts from one full run, and shares the generators and the oracle.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .classical import (
    DEFAULT_BUDGET,
    _searched_atoms,
    assignment_to_partition,
    cover_entropy,
    enumerate_acceptable_partitions,
    minimizing_assignment,
    partition_entropy,
)
from .errors import ValidationError
from .functionals import (
    CompositionCase,
    EntropyFunctional,
    HlpInput,
    builtin_functionals,
    renyi,
    shannon,
    tsallis,
)
from .measure import (
    CHECK_TOL, AtomSet, DiscreteSpace, Measure, SetFamily, check_integer, frozen,
    instance_dict)
from .mixture import MixtureSpec, mix, tsallis_mixture_bounds, verify_mixture_bounds
from .probes import check_structure, hlp_compare
from .weighted import (
    cover_entropy_weighted,
    disjointify,
    disjointify_certificate,
    partition_to_division,
    random_division,
    weighted_entropy,
)

SHARP_TOL = 1e-12

#: Per-property workload by scale.
SCALES = {
    "quick": dict(agree=40, sandwich=(10, 100), disjoint=500, refine=500,
                  mixtures=20, hlp=1000, search=100),
    "default": dict(agree=150, sandwich=(30, 300), disjoint=2000, refine=2000,
                    mixtures=60, hlp=3000, search=300),
    "full": dict(agree=500, sandwich=(100, 1000), disjoint=10000, refine=10000,
                 mixtures=200, hlp=10000, search=1000),
}


@frozen
class PropertyOutcome:
    name: str
    checks: int
    failures: int
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# ---------------------------------------------------------------------------
# Random generators (shared with the acceptance tests)
# ---------------------------------------------------------------------------

def random_probability(rng: random.Random, n: int, zero_chance: float = 0.25) -> Measure:
    """Flat-Dirichlet mass (unit exponentials over their sum), occasionally
    zeroing one atom to exercise null atoms."""
    draws = [rng.expovariate(1.0) for _ in range(n)]
    if n >= 3 and rng.random() < zero_chance:
        draws[rng.randrange(n)] = 0.0
    total = math.fsum(draws)
    return Measure(DiscreteSpace(n), [x / total for x in draws], probability=True)


def random_cover(rng: random.Random, mu: Measure, k: int) -> SetFamily:
    """Random sets patched so every positive-mass atom is covered."""
    n = mu.space.n
    blocks = []
    for _ in range(k):
        members = [i for i in range(n) if rng.random() < rng.uniform(0.3, 0.8)]
        if not members:
            members = [rng.randrange(n)]
        blocks.append(members)
    covered = set().union(*map(set, blocks))
    for atom in range(n):
        if mu.masses[atom] > 0.0 and atom not in covered:
            blocks[rng.randrange(k)].append(atom)
    return SetFamily.of(mu.space, blocks)


def random_instance(
    rng: random.Random,
    n_range: tuple[int, int] = (2, 8),
    k_range: tuple[int, int] = (2, 5),
) -> tuple[Measure, SetFamily]:
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    mu = random_probability(rng, n)
    return mu, random_cover(rng, mu, k)


def random_acceptable_partition(
    rng: random.Random, mu: Measure, q: SetFamily, split_chance: float = 0.5
) -> SetFamily:
    """A random partition finer than ``q``: each atom picks one of its sets, then blocks may split."""
    searched, cands = _searched_atoms(mu, q)
    blocks: dict[int, list[int]] = {}
    for atom, options in zip(searched, cands):
        blocks.setdefault(rng.choice(options), []).append(atom)
    out: list[tuple[int, ...]] = []
    for idx in sorted(blocks):
        atoms = blocks[idx]
        if len(atoms) >= 2 and rng.random() < split_chance:
            cut = rng.randrange(1, len(atoms))
            order = rng.sample(atoms, len(atoms))
            out.append(tuple(sorted(order[:cut])))
            out.append(tuple(sorted(order[cut:])))
        else:
            out.append(tuple(atoms))
    return SetFamily(mu.space, tuple(AtomSet(mu.space, b) for b in out))


def enumeration_minimum(e: EntropyFunctional, mu: Measure, q: SetFamily) -> float:
    """The naive oracle: the least partition entropy over the acceptable partitions."""
    return min(partition_entropy(e, mu, p) for p in enumerate_acceptable_partitions(mu, q))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _run(name: str, checks: Iterator[dict | None]) -> PropertyOutcome:
    """Count a property's checks and failures, keeping the first counterexample."""
    count = failures = 0
    first = None
    for counterexample in checks:
        count += 1
        if counterexample is not None:
            failures += 1
            if first is None:
                first = counterexample
    return PropertyOutcome(name, count, failures, first)


def prop_classical_weighted_agreement(rng, count, budget) -> Iterator[dict | None]:
    """Classical and weighted cover entropies agree bit for bit (both None
    in the infinite case): the vertex division's row masses are the blocks'."""
    functionals = builtin_functionals()
    for _ in range(count):
        mu, q = random_instance(rng)
        for e in functionals:
            a = cover_entropy(e, mu, q, budget=budget)
            b = cover_entropy_weighted(e, mu, q, budget=budget)
            ok = a.value == b.value
            yield None if ok else dict(
                instance=instance_dict(mu, q), functional=e.name,
                classical=a.value, weighted=b.value)


def prop_random_division_lower_bound(rng, shape, budget) -> Iterator[dict | None]:
    """Every sampled division's entropy dominates the classical minimum."""
    n_instances, n_samples = shape
    functionals = builtin_functionals()
    for i in range(n_instances):
        mu, q = random_instance(rng)
        e = functionals[i % len(functionals)]
        floor = cover_entropy(e, mu, q, budget=budget).value
        for s in range(n_samples):
            d = random_division(mu, q, seed=rng.randrange(2 ** 31))
            value = weighted_entropy(e, d)
            yield None if not value < floor - CHECK_TOL else dict(
                instance=instance_dict(mu, q), functional=e.name,
                sample=s, value=value, floor=floor)


def prop_disjointify_dominates(rng, count, budget) -> Iterator[dict | None]:
    """disjointify never increases entropy, and its certificate is valid."""
    functionals = builtin_functionals()
    for i in range(count):
        mu, q = random_instance(rng)
        e = functionals[i % len(functionals)]
        d = random_division(mu, q, seed=rng.randrange(2 ** 31))
        p = disjointify(d)
        ok = partition_entropy(e, mu, p) <= weighted_entropy(e, d) + CHECK_TOL
        try:
            disjointify_certificate(d)
        except Exception:
            ok = False
        yield None if ok else dict(instance=instance_dict(mu, q), functional=e.name)


def prop_partition_to_division_dominates(rng, count, budget) -> Iterator[dict | None]:
    """The induced division's entropy never exceeds the partition's."""
    functionals = builtin_functionals()
    for i in range(count):
        mu, q = random_instance(rng)
        p = random_acceptable_partition(rng, mu, q)
        e = functionals[i % len(functionals)]
        value = weighted_entropy(e, partition_to_division(mu, p, q))
        yield None if not value > partition_entropy(e, mu, p) + CHECK_TOL else dict(
            instance=instance_dict(mu, q), functional=e.name, partition=p.as_lists())


def prop_mixture_containment(rng, count, budget) -> Iterator[dict | None]:
    """Each mixture's oracle entropy lies within its verified bounds and, for
    Tsallis, within the closed form over the components' oracle entropies."""
    alphas = (0.5, 2.0, 3.0)
    for i in range(count):
        n = rng.randint(2, 6)
        k = rng.randint(2, 4)
        parts = rng.randint(2, 3)
        mus = [random_probability(rng, n) for _ in range(parts)]
        mean = [math.fsum(column) / parts for column in zip(*(m.masses for m in mus))]
        q = random_cover(rng, Measure(DiscreteSpace(n), mean, probability=True), k)
        coeffs = random_probability(rng, parts, zero_chance=0.0).masses
        spec = MixtureSpec(tuple(zip(coeffs, mus)))
        alpha = alphas[i % len(alphas)]
        for make in (tsallis, renyi):
            e = make(alpha)
            try:
                report = verify_mixture_bounds(e, spec, q, budget=budget)
                bounds = [(report.lower, report.upper)]
                if make is tsallis:
                    components = [enumeration_minimum(e, m, q) for m in mus]
                    bounds.append(tsallis_mixture_bounds(components, coeffs, alpha))
                achieved = enumeration_minimum(e, mix(spec), q)
                ok = all(lo - CHECK_TOL <= achieved <= hi + CHECK_TOL for lo, hi in bounds)
                found = dict(achieved=achieved, bounds=bounds)
            except Exception as exc:
                ok, found = False, dict(error=str(exc))
            yield None if ok else dict(mixture=dict(
                n=n, coefficients=list(coeffs), measures=[list(m.masses) for m in mus],
                cover=q.as_lists(), functional=e.name), **found)


def prop_sharpness_extremes(budget) -> Iterator[dict | None]:
    """Split point masses attain the upper bounds, equal components the lower."""
    space2 = DiscreteSpace(2)
    delta0 = Measure(space2, [1.0, 0.0], probability=True)
    delta1 = Measure(space2, [0.0, 1.0], probability=True)
    singletons = SetFamily.of(space2, [[0], [1]])
    space3 = DiscreteSpace(3)
    shared = Measure(space3, [0.2, 0.3, 0.5], probability=True)
    overlap = SetFamily.of(space3, [[0, 1], [1, 2]])
    for a1 in [x / 10 for x in range(1, 10)]:
        a2 = 1.0 - a1
        for alpha in (0.5, 2.0, 3.0):
            for make in (tsallis, renyi):
                e = make(alpha)
                split = verify_mixture_bounds(
                    e, MixtureSpec(((a1, delta0), (a2, delta1))), singletons, budget=budget)
                same = verify_mixture_bounds(
                    e, MixtureSpec(((a1, shared), (a2, shared))), overlap, budget=budget)
                uppers, lowers = [split.upper], [same.lower]
                if make is tsallis:
                    _, upper = tsallis_mixture_bounds(split.component_entropies, [a1, a2], alpha)
                    lower, _ = tsallis_mixture_bounds(same.component_entropies, [a1, a2], alpha)
                    uppers += [(a1 ** alpha + a2 ** alpha - 1.0) / (1.0 - alpha), upper]
                    lowers.append(lower)
                else:
                    uppers.append(math.log2(a1 ** alpha + a2 ** alpha) / (1.0 - alpha))
                for case, report, targets in (("upper", split, uppers), ("lower", same, lowers)):
                    ok = all(abs(report.achieved - t) <= SHARP_TOL for t in targets)
                    yield None if ok else dict(case=case, a1=a1, functional=e.name,
                                               achieved=report.achieved, targets=targets)


def prop_structure_checks() -> Iterator[dict | None]:
    """Built-ins satisfy their declared case; a planted counterexample fails."""
    probes = [shannon()]
    for alpha in (0.25, 0.5, 2.0, 4.0):
        probes.append(renyi(alpha))
        probes.append(tsallis(alpha))
    for e in probes:
        passed = check_structure(e, grid_size=201, tol=CHECK_TOL).passed
        yield None if passed else dict(functional=e.name)
    planted = EntropyFunctional(
        name="planted-square",
        alpha=None,
        f=lambda x: x,
        g=lambda t: t * t,
        case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
    )
    passed = check_structure(planted, grid_size=201, tol=CHECK_TOL).passed
    yield None if not passed else dict(functional=planted.name, note="should have failed")


def random_hlp_input(rng: random.Random, length: int, transfers: int) -> HlpInput:
    """Start from y = x and push mass toward earlier positions of y."""
    x = sorted((rng.random() for _ in range(length)), reverse=True)
    y = list(x)
    for _ in range(transfers):
        i, j = sorted(rng.sample(range(length), 2))
        room = min(y[j], 1.0 - y[i])
        delta = rng.uniform(0.0, room)
        y[i] += delta
        y[j] -= delta
    return HlpInput(x_seq=tuple(x), y_seq=tuple(y))


def prop_hlp_comparison(rng, count) -> Iterator[dict | None]:
    """The predicted inequality direction holds for concave and convex maps."""
    phis = (
        ("neg-t-log2-t", lambda t: -t * math.log2(t) if t > 0 else 0.0, "concave"),
        ("sqrt", lambda t: math.sqrt(t), "concave"),
        ("square", lambda t: t * t, "convex"),
    )
    for i in range(count):
        length = rng.randint(2, 8)
        inp = random_hlp_input(rng, length, transfers=rng.randint(1, 5))
        for name, phi, shape in phis:
            report = hlp_compare(inp, phi, shape, tol=CHECK_TOL)
            yield None if report.confirmed else dict(
                phi=name, x=list(inp.x_seq), y=list(inp.y_seq))


def prop_search_agreement(rng, count, budget) -> Iterator[dict | None]:
    """The search's witness attains the enumeration minimum."""
    functionals = builtin_functionals()
    for i in range(count):
        mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
        e = functionals[i % len(functionals)]
        expected = enumeration_minimum(e, mu, q)
        assignment, _ = minimizing_assignment(e, mu, q, budget=budget)
        got = partition_entropy(e, mu, assignment_to_partition(assignment))
        yield None if not abs(got - expected) > SHARP_TOL else dict(
            instance=instance_dict(mu, q), functional=e.name,
            search=got, enumeration=expected,
            choice=list(map(list, assignment.choice)))


def run_selftest(scale: str = "default", seed: int = 0, budget: int = DEFAULT_BUDGET):
    """Run every property; returns (outcomes, all_passed)."""
    if not isinstance(scale, str) or scale not in SCALES:
        raise ValidationError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    check_integer(seed, 0, "seed")
    check_integer(budget, 1, "budget")
    sizes = SCALES[scale]
    # a str seed is hashed by SHA-512, the same on every Python version
    rngs = [random.Random(f"{seed}:{i}") for i in range(7)]
    outcomes = [
        _run("classical-weighted-agreement",
             prop_classical_weighted_agreement(rngs[0], sizes["agree"], budget)),
        _run("random-division-lower-bound",
             prop_random_division_lower_bound(rngs[1], sizes["sandwich"], budget)),
        _run("disjointify-dominates",
             prop_disjointify_dominates(rngs[2], sizes["disjoint"], budget)),
        _run("partition-to-division-dominates",
             prop_partition_to_division_dominates(rngs[3], sizes["refine"], budget)),
        _run("mixture-bound-containment",
             prop_mixture_containment(rngs[4], sizes["mixtures"], budget)),
        _run("sharpness-extremes", prop_sharpness_extremes(budget)),
        _run("structure-checks", prop_structure_checks()),
        _run("hlp-comparison", prop_hlp_comparison(rngs[5], sizes["hlp"])),
        _run("search-agreement", prop_search_agreement(rngs[6], sizes["search"], budget)),
    ]
    return outcomes, all(o.passed for o in outcomes)
