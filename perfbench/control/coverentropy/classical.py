"""Partition entropy and the exact classical cover entropy.

The cover entropy of a measure ``mu`` under a cover ``q`` is the least
partition entropy over partitions finer than ``q`` (infinite when no such
partition exists).  Because merging blocks that share a cover set never
increases an admissible functional, an optimal partition always groups the
positive-mass atoms by an atom-to-cover-set assignment, so the search space
is the finite product of per-atom candidate sets.  The search itself runs in
:mod:`coverentropy._kernels`; it may be split across workers as long as the
lexicographic tie-break is preserved, and the sequential kernels used here
make the result independent of any thread-count setting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import _kernels
from .errors import BudgetExceededError, SpaceMismatchError, ValidationError
from .functionals import G_CUSTOM, EntropyFunctional, evaluate
from .measure import (
    AtomSet,
    DiscreteSpace,
    Measure,
    SetFamily,
    is_mu_cover,
    is_mu_partition,
)

#: Default cap on the number of candidate assignments a search may examine.
DEFAULT_BUDGET = 10 ** 6

#: Hard cap for the exhaustive partition generator.
ENUMERATION_CAP = 10 ** 7


@dataclass(frozen=True)
class Assignment:
    """A choice of one containing cover set per assigned atom.

    ``choice`` maps atom index to cover-set index, stored as sorted pairs.
    Zero-mass atoms are simply absent.  The induced partition groups the
    assigned atoms by their chosen set.
    """

    space: DiscreteSpace
    cover: SetFamily
    choice: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.cover.space != self.space:
            raise SpaceMismatchError("assignment cover lives on a different space")
        pairs = tuple(sorted((int(a), int(c)) for a, c in self.choice))
        atoms = [a for a, _ in pairs]
        if len(set(atoms)) != len(atoms):
            raise ValidationError("an atom is assigned more than once")
        for atom, idx in pairs:
            if idx < 0 or idx >= len(self.cover):
                raise ValidationError(f"cover index {idx} out of range")
            if atom not in self.cover[idx]:
                raise ValidationError(f"atom {atom} is not a member of cover set {idx}")
        object.__setattr__(self, "choice", pairs)

    @classmethod
    def from_mapping(cls, cover: SetFamily, mapping: Mapping[int, int]) -> "Assignment":
        return cls(cover.space, cover, tuple(mapping.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.choice)


def assignment_to_partition(a: Assignment) -> SetFamily:
    """Group assigned atoms by chosen cover set (ascending cover index)."""
    blocks: dict[int, list[int]] = {}
    for atom, idx in a.choice:
        blocks.setdefault(idx, []).append(atom)
    ordered = [AtomSet(a.space, tuple(blocks[i])) for i in sorted(blocks)]
    return SetFamily(a.space, tuple(ordered))


@dataclass(frozen=True)
class CoverEntropyResult:
    """Outcome of a cover-entropy search.

    ``value is None`` tags the infinite case (no acceptable partition), which
    always comes without a witness.  ``explored`` counts the candidate
    assignments the search actually evaluated.
    """

    value: float | None
    witness: SetFamily | None
    explored: int

    def __post_init__(self) -> None:
        if (self.value is None) != (self.witness is None):
            raise ValidationError("value and witness must be absent together")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def value_or_inf(self) -> float:
        return float("inf") if self.value is None else self.value


def partition_entropy(e: EntropyFunctional, mu: Measure, p: SetFamily) -> float:
    """Entropy of an explicit partition: ``f`` of the g-sum of block masses."""
    if not is_mu_partition(p, mu):
        raise ValidationError("family is not a mu-partition (overlap or uncovered mass)")
    return evaluate(e, [mu.mass_of(block) for block in p])


def _searched_atoms(mu: Measure, q: SetFamily) -> tuple[list[int], list[list[int]]]:
    """Positive-mass atoms plus their ascending candidate cover indices.

    Positive atoms contained in no cover set are dropped; ``is_mu_cover``
    guarantees their joint mass is mu-null, so leaving them out keeps every
    induced family a valid mu-partition.
    """
    membership: dict[int, list[int]] = {}
    for idx, s in enumerate(q.sets):
        for atom in s.members:
            membership.setdefault(atom, []).append(idx)
    atoms: list[int] = []
    cands: list[list[int]] = []
    for atom in range(mu.space.n):
        if mu.mass[atom] <= 0.0:
            continue
        options = membership.get(atom)
        if options:
            atoms.append(atom)
            cands.append(options)
    return atoms, cands


def search_space_size(mu: Measure, q: SetFamily) -> int:
    """Number of atom-to-set assignments for this instance (Python int)."""
    _, cands = _searched_atoms(mu, q)
    return _kernels.assignment_count(cands)


def enumerate_acceptable_partitions(mu: Measure, q: SetFamily) -> Iterator[SetFamily]:
    """Yield every assignment-induced mu-partition exactly once.

    Order follows the lexicographic choice order; assignments inducing the
    same family of blocks are deduplicated.  This is the reference oracle the
    searches are tested against, so it stays deliberately naive.
    """
    if not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    atoms, cands = _searched_atoms(mu, q)
    if _kernels.assignment_count(cands) > ENUMERATION_CAP:
        raise BudgetExceededError(
            f"assignment space exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for combo in itertools.product(*cands):
        blocks: dict[int, list[int]] = {}
        for atom, idx in zip(atoms, combo):
            blocks.setdefault(idx, []).append(atom)
        ordered = tuple(tuple(blocks[i]) for i in sorted(blocks))
        key = tuple(sorted(ordered))  # sameness is as a set of blocks
        if key in seen:
            continue
        seen.add(key)
        yield SetFamily(mu.space, tuple(AtomSet(mu.space, b) for b in ordered))


def minimizing_assignment(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> tuple[Assignment, int]:
    """Find the entropy-minimizing assignment; shared by both cover entropies.

    ``method`` is ``auto`` (scan when the space fits the budget, otherwise
    branch and bound), ``scan`` or ``branch-and-bound``.  Ties go to the
    lexicographically smallest choice vector.  Raises
    :class:`BudgetExceededError` when no certified optimum fits the budget.
    """
    if method not in ("auto", "scan", "branch-and-bound"):
        raise ValidationError(f"unknown search method {method!r}")
    atoms, cands = _searched_atoms(mu, q)
    masses = mu.mass[atoms] if atoms else np.zeros(0)
    space_size = _kernels.assignment_count(cands)
    maximize = not e.minimizes_g_sum
    alpha = 0.0 if e.alpha is None else float(e.alpha)

    if e.g_code == G_CUSTOM:
        if space_size > budget:
            raise BudgetExceededError(
                f"{space_size} assignments exceed budget {budget} and no compiled "
                "bound is available for a custom functional"
            )
        return _minimize_interpreted(e, mu, q, atoms, cands)

    if method == "scan" or (method == "auto" and space_size <= budget):
        if space_size > budget:
            raise BudgetExceededError(
                f"{space_size} assignments exceed budget {budget}"
            )
        _, choice, explored = _kernels.scan_assignments(
            masses, cands, len(q), e.g_code, alpha, maximize)
    else:
        _, choice, explored, completed = _kernels.branch_and_bound(
            masses, cands, len(q), e.g_code, alpha, maximize, budget)
        if not completed:
            raise BudgetExceededError(
                f"branch and bound passed {budget} candidates without certifying "
                "an optimum"
            )
    assignment = Assignment(mu.space, q, tuple(zip(atoms, (int(c) for c in choice))))
    return assignment, explored


def _minimize_interpreted(e, mu, q, atoms, cands):
    best_value = None
    best_combo = None
    explored = 0
    for combo in itertools.product(*cands):
        explored += 1
        blocks: dict[int, float] = {}
        for atom, idx in zip(atoms, combo):
            blocks[idx] = blocks.get(idx, 0.0) + float(mu.mass[atom])
        value = evaluate(e, [blocks[i] for i in sorted(blocks)])
        if best_value is None or value < best_value:
            best_value = value
            best_combo = combo
    assignment = Assignment(mu.space, q, tuple(zip(atoms, best_combo)))
    return assignment, explored


def cover_entropy(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> CoverEntropyResult:
    """Exact minimum of partition entropy over partitions finer than ``q``.

    Returns the tagged infinite result when ``q`` is not a mu-cover (the
    minimum over an empty set).  The witness is an optimal mu-partition finer
    than ``q`` and attains the reported value exactly.
    """
    if mu.space != q.space:
        raise SpaceMismatchError("measure and cover live on different spaces")
    if not is_mu_cover(q, mu):
        return CoverEntropyResult(value=None, witness=None, explored=0)
    assignment, explored = minimizing_assignment(e, mu, q, budget=budget, method=method)
    witness = assignment_to_partition(assignment)
    return CoverEntropyResult(
        value=partition_entropy(e, mu, witness),
        witness=witness,
        explored=explored,
    )
