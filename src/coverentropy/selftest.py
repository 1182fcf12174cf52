"""Seeded randomized property suite, runnable from the CLI (`selftest`).

Each property is a generator that yields once per check: ``None`` when the
check holds, or a counterexample dict when it fails.  ``_run`` counts the
checks and failures and keeps the first counterexample.  Each property draws
its own deterministic generator from the base seed, so a run is fully
reproducible from ``(seed, scale)``.  The same instance generators back the
heavier acceptance tests in ``tests/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classical import (
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
    builtin_functionals,
    check_structure,
    renyi,
    shannon,
    tsallis,
)
from .measure import AtomSet, DiscreteSpace, Measure, SetFamily, check_integer, instance_dict
from .mixture import MixtureSpec, verify_mixture_bounds
from .weighted import (
    HlpInput,
    cover_entropy_weighted,
    disjointify,
    disjointify_certificate,
    hlp_compare,
    partition_to_division,
    random_division,
    weighted_entropy,
)

TOL = 1e-9
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


@dataclass
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

def random_probability(rng: np.random.Generator, n: int, zero_chance: float = 0.25) -> Measure:
    """Dirichlet mass, occasionally zeroing one atom to exercise null atoms."""
    mass = rng.dirichlet(np.ones(n))
    if n >= 3 and rng.random() < zero_chance:
        mass[int(rng.integers(n))] = 0.0
        mass = mass / mass.sum()
    return Measure(DiscreteSpace(n), mass, probability=True)


def random_cover(rng: np.random.Generator, mu: Measure, k: int) -> SetFamily:
    """Random sets patched so every positive-mass atom is covered."""
    n = mu.space.n
    blocks = []
    for _ in range(k):
        members = [i for i in range(n) if rng.random() < rng.uniform(0.3, 0.8)]
        if not members:
            members = [int(rng.integers(n))]
        blocks.append(members)
    covered = set().union(*map(set, blocks))
    for atom in range(n):
        if mu.mass[atom] > 0.0 and atom not in covered:
            blocks[int(rng.integers(k))].append(atom)
    return SetFamily.of(mu.space, blocks)


def random_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (2, 8),
    k_range: tuple[int, int] = (2, 5),
) -> tuple[Measure, SetFamily]:
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    mu = random_probability(rng, n)
    return mu, random_cover(rng, mu, k)


def random_acceptable_partition(
    rng: np.random.Generator, mu: Measure, q: SetFamily, split_chance: float = 0.5
) -> SetFamily:
    """A random partition finer than ``q``: one draw assigns atoms, then blocks may split."""
    searched, cands = _searched_atoms(mu, q)
    picks = rng.integers(0, [len(options) for options in cands]).tolist()
    blocks: dict[int, list[int]] = {}
    for atom, options, pick in zip(searched, cands, picks):
        blocks.setdefault(options[pick], []).append(atom)
    out: list[tuple[int, ...]] = []
    for idx in sorted(blocks):
        atoms = blocks[idx]
        if len(atoms) >= 2 and rng.random() < split_chance:
            cut = int(rng.integers(1, len(atoms)))
            order = list(rng.permutation(atoms))
            out.append(tuple(sorted(order[:cut])))
            out.append(tuple(sorted(order[cut:])))
        else:
            out.append(tuple(atoms))
    return SetFamily(mu.space, tuple(AtomSet(mu.space, b) for b in out))


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
    """Classical and weighted cover entropies agree within TOL."""
    functionals = builtin_functionals()
    for _ in range(count):
        mu, q = random_instance(rng)
        for e in functionals:
            a = cover_entropy(e, mu, q, budget=budget)
            b = cover_entropy_weighted(e, mu, q, budget=budget)
            ok = a.is_infinite == b.is_infinite and (
                a.is_infinite or abs(a.value - b.value) <= TOL)
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
            d = random_division(mu, q, seed=int(rng.integers(2 ** 31)))
            value = weighted_entropy(e, d)
            yield None if not value < floor - TOL else dict(
                instance=instance_dict(mu, q), functional=e.name,
                sample=s, value=value, floor=floor)


def prop_disjointify_dominates(rng, count, budget) -> Iterator[dict | None]:
    """disjointify never increases entropy, and its certificate is valid."""
    functionals = builtin_functionals()
    for i in range(count):
        mu, q = random_instance(rng)
        e = functionals[i % len(functionals)]
        d = random_division(mu, q, seed=int(rng.integers(2 ** 31)))
        p = disjointify(d)
        ok = partition_entropy(e, mu, p) <= weighted_entropy(e, d) + TOL
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
        yield None if not value > partition_entropy(e, mu, p) + TOL else dict(
            instance=instance_dict(mu, q), functional=e.name, partition=p.as_lists())


def prop_mixture_containment(rng, count, budget) -> Iterator[dict | None]:
    """Random Tsallis mixtures stay inside their bounds."""
    alphas = (0.5, 2.0, 3.0)
    for i in range(count):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        parts = int(rng.integers(2, 4))
        mus = [random_probability(rng, n) for _ in range(parts)]
        carrier = Measure(
            DiscreteSpace(n),
            np.mean([m.mass for m in mus], axis=0),
            probability=True,
        )
        q = random_cover(rng, carrier, k)
        coeffs = rng.dirichlet(np.ones(parts))
        spec = MixtureSpec(tuple((float(a), m) for a, m in zip(coeffs, mus)))
        e = tsallis(alphas[i % len(alphas)])
        try:
            verify_mixture_bounds(e, spec, q, budget=budget)
        except Exception as exc:
            yield dict(
                mixture=dict(
                    n=n,
                    coefficients=[float(a) for a in coeffs],
                    measures=[[float(v) for v in m.mass] for m in mus],
                    cover=q.as_lists(),
                    functional=e.name,
                ),
                error=str(exc),
            )
        else:
            yield None


def prop_sharpness_extremes(budget) -> Iterator[dict | None]:
    """Point masses on split atoms hit the upper bound; equal components the lower."""
    space2 = DiscreteSpace(2)
    delta0 = Measure(space2, [1.0, 0.0], probability=True)
    delta1 = Measure(space2, [0.0, 1.0], probability=True)
    singletons = SetFamily.of(space2, [[0], [1]])
    space3 = DiscreteSpace(3)
    shared = Measure(space3, [0.2, 0.3, 0.5], probability=True)
    overlap = SetFamily.of(space3, [[0, 1], [1, 2]])
    for a1 in [x / 10 for x in range(1, 10)]:
        for alpha in (0.5, 2.0, 3.0):
            e = tsallis(alpha)
            spec = MixtureSpec(((a1, delta0), (1.0 - a1, delta1)))
            report = verify_mixture_bounds(e, spec, singletons, budget=budget)
            yield None if not abs(report.achieved - report.upper) > SHARP_TOL else dict(
                case="upper", a1=a1, alpha=alpha,
                achieved=report.achieved, upper=report.upper)
            spec_same = MixtureSpec(((a1, shared), (1.0 - a1, shared)))
            report = verify_mixture_bounds(e, spec_same, overlap, budget=budget)
            yield None if not abs(report.achieved - report.lower) > SHARP_TOL else dict(
                case="lower", a1=a1, alpha=alpha,
                achieved=report.achieved, lower=report.lower)


def prop_structure_checks() -> Iterator[dict | None]:
    """Built-ins satisfy their declared case; a planted counterexample fails."""
    probes = [shannon()]
    for alpha in (0.25, 0.5, 2.0, 4.0):
        probes.append(renyi(alpha))
        probes.append(tsallis(alpha))
    for e in probes:
        passed = check_structure(e, grid_size=201, tol=TOL).passed
        yield None if passed else dict(functional=e.name)
    planted = EntropyFunctional(
        name="planted-square",
        alpha=None,
        f=lambda x: x,
        g=lambda t: t * t,
        case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
    )
    passed = check_structure(planted, grid_size=201, tol=TOL).passed
    yield None if not passed else dict(functional=planted.name, note="should have failed")


def random_hlp_input(rng: np.random.Generator, length: int, transfers: int) -> HlpInput:
    """Start from y = x and push mass toward earlier positions of y."""
    x = np.sort(rng.uniform(0.0, 1.0, size=length))[::-1]
    y = x.copy()
    for _ in range(transfers):
        i, j = sorted(rng.choice(length, size=2, replace=False))
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
        length = int(rng.integers(2, 9))
        inp = random_hlp_input(rng, length, transfers=int(rng.integers(1, 6)))
        for name, phi, shape in phis:
            report = hlp_compare(inp, phi, shape, tol=TOL)
            yield None if report.confirmed else dict(
                phi=name, x=list(inp.x_seq), y=list(inp.y_seq))


def prop_search_agreement(rng, count, budget) -> Iterator[dict | None]:
    """The search's witness attains the enumeration minimum."""
    functionals = builtin_functionals()
    for i in range(count):
        mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
        e = functionals[i % len(functionals)]
        expected = min(partition_entropy(e, mu, p)
                       for p in enumerate_acceptable_partitions(mu, q))
        assignment, _ = minimizing_assignment(e, mu, q, budget=budget)
        got = partition_entropy(e, mu, assignment_to_partition(assignment))
        yield None if not abs(got - expected) > SHARP_TOL else dict(
            instance=instance_dict(mu, q), functional=e.name,
            search=got, enumeration=expected,
            choice=list(map(list, assignment.choice)))


def run_selftest(scale: str = "default", seed: int = 0, budget: int = 10 ** 6):
    """Run every property; returns (outcomes, all_passed)."""
    if not isinstance(scale, str) or scale not in SCALES:
        raise ValidationError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    check_integer(seed, 0, "seed")
    check_integer(budget, 1, "budget")
    sizes = SCALES[scale]
    seq = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in seq.spawn(8)]
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
