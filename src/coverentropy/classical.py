"""Partition entropy and the exact classical cover entropy.

The cover entropy of a measure ``mu`` under a cover ``q`` is the least
partition entropy over partitions finer than ``q`` (infinite when no such
partition exists).  Because merging blocks that share a cover set never
increases an admissible functional, an optimal partition always groups the
positive-mass atoms by an atom-to-cover-set assignment, and some optimal
assignment never splits a Venn cell and is induced by an ordering of the
cover sets (see :func:`minimizing_assignment`).  The search therefore
assigns whole cells with the dynamic program over set orderings of
:mod:`coverentropy._kernels`; it is sequential and deterministic, so
results do not depend on any thread-count setting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from . import _kernels
from .errors import BudgetExceededError, ValidationError
from .functionals import EntropyFunctional, evaluate
from .measure import (
    AtomSet,
    DiscreteSpace,
    Measure,
    SetFamily,
    _require_shared_space,
    check_integer,
    is_integer,
    is_mu_cover,
    is_mu_partition,
)

#: Default cap on the DP transitions (witness walk included) of one search.
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
        _require_shared_space(self, self.cover)
        # a pair of Python ints, as the search builds them, skips the call
        pairs = tuple(sorted(
            (a, c) if type(a) is int is type(c) else _index_pair(a, c)
            for a, c in self.choice))
        atoms = [a for a, _ in pairs]
        sets = [c for _, c in pairs]
        if len(set(atoms)) != len(atoms):
            raise ValidationError("an atom is assigned more than once")
        if pairs and not 0 <= min(sets) <= max(sets) < len(self.cover):
            raise ValidationError(f"cover indices must lie in 0..{len(self.cover) - 1}")
        if pairs and not 0 <= atoms[0] <= atoms[-1] < self.space.n:
            raise ValidationError(f"assigned atoms must lie in 0..{self.space.n - 1}")
        member = self.cover.incidence[sets, atoms]
        if not member.all():
            j = int(member.argmin())
            raise ValidationError(f"atom {atoms[j]} is not a member of cover set {sets[j]}")
        object.__setattr__(self, "choice", pairs)

    @classmethod
    def from_mapping(cls, cover: SetFamily, mapping: Mapping[int, int]) -> "Assignment":
        return cls(cover.space, cover, tuple(mapping.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.choice)


def _index_pair(atom, idx) -> tuple[int, int]:
    """``(atom, idx)`` as Python ints if both are integers, else a ValidationError."""
    if not (is_integer(atom) and is_integer(idx)):
        raise ValidationError(
            f"atoms and cover indices must be integers, got ({atom!r}, {idx!r})")
    return int(atom), int(idx)


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
    always comes without a witness.  ``explored`` counts the DP transitions
    the search evaluated, witness walk included.
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
    induced family a valid mu-partition.  Read from ``q.atom_signatures``.
    """
    _require_shared_space(mu, q)
    mass = mu.mass.tolist()
    searched = sorted(
        (atom, options)
        for options, atoms in q.atom_signatures
        for atom in atoms
        if mass[atom] > 0.0
    )
    return [atom for atom, _ in searched], [list(options) for _, options in searched]


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


def _venn_cells(
    mu: Measure, q: SetFamily
) -> list[tuple[float, list[int], tuple[int, ...]]]:
    """Searched atoms grouped by the cover sets that hold them.

    Returns ``(mass, atoms, candidate sets)`` per cell: first the cells that
    only one cover set holds (forced cells), then the others, each part
    heaviest first with the smallest atom breaking ties.  A cell's mass adds
    its atoms in ascending order.  Each cell is the positive-mass part of a
    group of ``q.atom_signatures``.
    """
    mass = mu.mass.tolist()
    cells = []
    for options, group in q.atom_signatures:
        atoms = [atom for atom in group if mass[atom] > 0.0]
        if atoms:
            m = 0.0
            for atom in atoms:
                m += mass[atom]
            cells.append((m, atoms, options))
    cells.sort(key=lambda cell: (len(cell[2]) > 1, -cell[0], cell[1][0]))
    return cells


def minimizing_assignment(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Assignment, int]:
    """Find the entropy-minimizing assignment; shared by both cover entropies.

    The searched atoms are grouped into Venn cells (atoms held by exactly
    the same cover sets), and :func:`coverentropy._kernels.ordering_dp`
    assigns whole cells; every atom then gets its cell's set.  Cells are
    exact: within one cell the g-sum is concave (minimising case) or convex
    (maximising case) in how the cell's mass splits between two groups, so
    some optimum never splits a cell; by the same condition some optimum
    puts every cell in its heaviest candidate group, which ordering the
    sets by group mass induces (README, "Search").  Custom functionals take
    the same path, and the result is exact whenever their declared case
    holds.

    Witness tie-break: the lexicographically smallest optimal cell-choice
    vector, with the forced cells (one candidate set) first and then the
    other cells by decreasing mass (smallest atom breaking ties), each cell
    trying its candidate sets in ascending order.  Forced cells have one
    choice, so the order among the other cells decides.  Groups add their
    cells' masses in that order, so optima that tie within rounding may
    resolve either way.

    ``budget`` caps the DP transitions evaluated, witness walk included
    (README, "Search", bounds them), and the returned count is the
    transitions evaluated.  Raises :class:`BudgetExceededError` when no
    certified optimum fits the budget, and :class:`ValidationError` when
    ``q`` is not a mu-cover or ``budget`` is not an integer of at least 1.
    """
    budget = check_integer(budget, 1, "budget")
    _require_shared_space(mu, q)
    cells = _venn_cells(mu, q)
    # the cells hold every positive atom unless some atom lies in no cover set
    if q.uncovered_atoms.size and not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    _, choice, explored, completed = _kernels.ordering_dp(
        [m for m, _, _ in cells], [c for _, _, c in cells], len(q), e.g,
        not e.minimizes_g_sum, budget)
    if not completed:
        raise BudgetExceededError(
            f"the search evaluated {budget} transitions without certifying "
            "an optimum"
        )
    if len(choice) != len(cells):
        raise ValidationError("the search left a Venn cell without a cover set")
    pairs = tuple(
        (atom, idx) for (_, atoms, _), idx in zip(cells, choice) for atom in atoms
    )
    return Assignment(mu.space, q, pairs), explored


def cover_entropy(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
) -> CoverEntropyResult:
    """Exact minimum of partition entropy over partitions finer than ``q``.

    Returns the tagged infinite result when ``q`` is not a mu-cover (the
    minimum over an empty set).  The witness is an optimal mu-partition finer
    than ``q`` and attains the reported value exactly: the value is
    :func:`partition_entropy` of the witness, the same arithmetic without
    its partition check, which the search has already made (``Assignment``
    places each atom once, inside its set, and
    :func:`minimizing_assignment` checks coverage).
    """
    check_integer(budget, 1, "budget")
    if not is_mu_cover(q, mu):
        return CoverEntropyResult(value=None, witness=None, explored=0)
    assignment, explored = minimizing_assignment(e, mu, q, budget=budget)
    witness = assignment_to_partition(assignment)
    return CoverEntropyResult(
        value=evaluate(e, [mu.mass_of(block) for block in witness]),
        witness=witness,
        explored=explored,
    )
