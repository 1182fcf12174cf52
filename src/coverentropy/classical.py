"""Partition entropy and the exact classical cover entropy.

The cover entropy of a measure ``mu`` under a cover ``q`` is the least
partition entropy over partitions finer than ``q`` (infinite when no such
partition exists).  Because merging blocks that share a cover set never
increases an admissible functional, an optimal partition always groups the
positive-mass atoms by an atom-to-cover-set assignment, and some optimal
assignment never splits a Venn cell and is induced by an ordering of the
cover sets (see :func:`minimizing_assignment`).  The search therefore
assigns whole cells with the dynamic program over set orderings of
:mod:`coverentropy._kernels`.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator

# by name, not through the package root's __getattr__, so -X importtime logs it
import coverentropy._kernels as _kernels
from .errors import BudgetExceededError, ValidationError
from .functionals import EntropyFunctional, _g_sum_value
from .measure import (
    DEFAULT_BUDGET,
    AtomSet,
    DiscreteSpace,
    Measure,
    SetFamily,
    _require_shared_space,
    _unchecked,
    check_integer,
    check_type,
    frozen,
    is_integer,
    is_mu_cover,
    is_mu_partition,
)

if TYPE_CHECKING:
    from .weighted import WeightedDivision

#: Hard cap for the exhaustive partition generator.
ENUMERATION_CAP = 10 ** 7


@frozen
class Assignment:
    """A choice of one containing cover set per assigned atom.

    ``choice`` maps atom index to cover-set index, stored as sorted pairs.
    Zero-mass atoms are simply absent.  The induced partition groups the
    assigned atoms by their chosen set.  The constructor checks each pair;
    the search checks the same per Venn cell and skips it, so the witness
    builders trust any ``Assignment``.
    """

    space: DiscreteSpace
    cover: SetFamily
    choice: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_type(self.space, DiscreteSpace, "space")
        check_type(self.cover, SetFamily, "cover")
        _require_shared_space(self, self.cover)
        try:
            pairs = tuple(sorted(_index_pair(a, c) for a, c in self.choice))
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # not iterable, or an entry not a pair
            raise ValidationError(
                "choice must be a sequence of (atom, cover index) pairs") from exc
        atoms = [a for a, _ in pairs]
        sets = [c for _, c in pairs]
        if len(set(atoms)) != len(atoms):
            raise ValidationError("an atom is assigned more than once")
        if pairs and not 0 <= min(sets) <= max(sets) < len(self.cover):
            raise ValidationError(f"cover indices must lie in 0..{len(self.cover) - 1}")
        if pairs and not 0 <= atoms[0] <= atoms[-1] < self.space.n:
            raise ValidationError(f"assigned atoms must lie in 0..{self.space.n - 1}")
        for atom, idx in pairs:
            if atom not in self.cover[idx]:
                raise ValidationError(f"atom {atom} is not a member of cover set {idx}")
        object.__setattr__(self, "choice", pairs)


def _index_pair(atom, idx) -> tuple[int, int]:
    """``(atom, idx)`` as Python ints if both are integers, else a ValidationError."""
    if not (is_integer(atom) and is_integer(idx)):
        raise ValidationError(
            f"atoms and cover indices must be integers, got ({atom!r}, {idx!r})")
    return int(atom), int(idx)


def assignment_to_partition(a: Assignment) -> SetFamily:
    """Group assigned atoms by chosen cover set (ascending cover index);
    the blocks reuse the atoms that ``Assignment`` checked and sorted."""
    check_type(a, Assignment, "assignment")
    groups: dict[int, list[int]] = {}
    for atom, idx in a.choice:
        groups.setdefault(idx, []).append(atom)
    return _partition_of(a.space, groups)


def _partition_of(space: DiscreteSpace, groups: dict[int, list[int]]) -> SetFamily:
    """The blocks ``groups[i]``, ``i`` ascending, of checked atoms: distinct,
    sorted within each group and inside the space."""
    ordered = tuple(
        _unchecked(AtomSet, space=space, members=tuple(groups[i])) for i in sorted(groups))
    return _unchecked(SetFamily, space=space, sets=ordered)


@frozen
class CoverEntropyResult:
    """Outcome of a cover-entropy search, classical or weighted.

    ``value is None`` tags the infinite case (no acceptable partition), which
    always comes without a witness or an assignment.  ``assignment`` is the
    optimal :class:`Assignment` that either witness is built from.  ``explored``
    counts the DP transitions the search evaluated, witness walk included.
    """

    value: float | None
    witness: SetFamily | WeightedDivision | None
    explored: int
    assignment: Assignment | None

    def __post_init__(self) -> None:
        if not (self.value is None) == (self.witness is None) == (self.assignment is None):
            raise ValidationError("value, witness and assignment must be absent together")

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def _check_operands(e: EntropyFunctional, mu: Measure, fam: SetFamily) -> None:
    check_type(e, EntropyFunctional, "functional")
    check_type(mu, Measure, "measure")
    check_type(fam, SetFamily, "family")


def partition_entropy(e: EntropyFunctional, mu: Measure, p: SetFamily) -> float:
    """Entropy of an explicit partition: ``f`` of the g-sum of block masses."""
    _check_operands(e, mu, p)
    if not is_mu_partition(p, mu):
        raise ValidationError("family is not a mu-partition (overlap or uncovered mass)")
    # disjoint blocks of a checked measure: their masses form a mass vector
    return _g_sum_value(e, _block_masses(mu, p))


def _block_masses(mu: Measure, blocks: Iterable[AtomSet]) -> list[float]:
    """Each block's mass, the ``math.fsum`` of :meth:`Measure.mass_of` without
    its type and space checks: for blocks of a family checked against ``mu``."""
    masses = mu.masses
    return [math.fsum([masses[atom] for atom in block.members]) for block in blocks]


def _searched_atoms(mu: Measure, q: SetFamily) -> tuple[list[int], list[list[int]]]:
    """Positive-mass atoms plus their ascending candidate cover indices.

    Positive atoms contained in no cover set are dropped; ``is_mu_cover``
    guarantees their joint mass is mu-null, so leaving them out keeps every
    induced family a valid mu-partition.  Read from :func:`_venn_cells`.
    """
    _require_shared_space(mu, q)
    searched = sorted(
        (atom, list(options)) for _, atoms, options in _venn_cells(mu, q) for atom in atoms)
    return [atom for atom, _ in searched], [options for _, options in searched]


def enumerate_acceptable_partitions(mu: Measure, q: SetFamily) -> Iterator[SetFamily]:
    """Yield every assignment-induced mu-partition exactly once.

    Order follows the lexicographic choice order; assignments inducing the
    same family of blocks are deduplicated.  This is the reference oracle the
    searches are tested against, so it stays deliberately naive.
    """
    if not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    atoms, cands = _searched_atoms(mu, q)
    if math.prod(map(len, cands)) > ENUMERATION_CAP:
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

    Returns ``(mass, atoms, candidate sets)`` per cell, one per group of
    ``q.atom_signatures`` that holds a positive-mass atom, in that order
    (by first atom).  A cell's atoms are that group's positive-mass atoms,
    and its mass adds them in ascending order.
    """
    mass = mu.masses
    cells = []
    for options, group in q.atom_signatures:
        atoms = [atom for atom in group if mass[atom] > 0.0]
        if atoms:
            m = 0.0
            for atom in atoms:
                m += mass[atom]
            cells.append((m, atoms, options))
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
    the same path, exact whenever their declared case holds.

    The DP's search graph (:func:`coverentropy._kernels.search_graph`)
    depends only on the cells' candidate sets, so the cover keeps the last
    one it built, as one entry for as long as the cover lives, keyed by the
    positive cells' candidate tuples.  Every later search of ``q`` whose
    positive cells are the same, under another functional, the weighted
    form or another measure, values that graph instead of expanding it
    again.  A build that ran out of budget is not kept.  Results never
    depend on whether the graph was kept.

    Witness tie-break: the assignment induced by the lexicographically
    first ordering of the cover sets whose g-sum lies within
    ``_kernels._PRUNE_SLACK`` (relative) of the optimum, the g-sum adding
    groups in set order and each group's cells in cell order (the order of
    their first atoms).  The cell order fixes only these additions.

    ``budget`` caps the DP transitions evaluated, witness walk included
    (README, "Search", bounds them), and the count returned is theirs.
    Raises :class:`BudgetExceededError` when no certified optimum fits the
    budget, and :class:`ValidationError` when ``q`` is not a mu-cover,
    ``budget`` is not an integer of at least 1, or a ``g`` value is not a
    finite real; an exception raised inside ``g`` propagates unchanged.  A
    spent budget is raised before ``g`` is called.
    The DP's choice is checked per Venn cell (one set, one of the cell's
    candidates); the cells partition the searched atoms, so this implies
    every per-atom check of :class:`Assignment`, which is built unchecked.
    """
    budget = check_integer(budget, 1, "budget")
    _check_operands(e, mu, q)
    if not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    assignment, _, explored = _search(e, mu, q, budget)
    return assignment, explored


def _search(
    e: EntropyFunctional, mu: Measure, q: SetFamily, budget: int
) -> tuple[Assignment, dict[int, list[int]], int]:
    """:func:`minimizing_assignment` of checked operands: ``budget`` an int,
    ``q`` a mu-cover on ``mu``'s space.  Returns the assignment, its atoms
    grouped by chosen set (each group ascending), and the transitions."""
    cells = _venn_cells(mu, q)
    cands = tuple([c for _, _, c in cells])
    kept = q.__dict__.get("_search_graph")
    if kept is not None and kept[0] == cands:
        graph = kept[1]
    else:
        graph = _kernels.search_graph(cands, len(q), budget)
        q.__dict__["_search_graph"] = (cands, graph)
    _, choice, explored = _kernels.ordering_dp(
        [m for m, _, _ in cells], cands, len(q), e.g, not e.minimizes_g_sum, budget, graph)
    if len(choice) != len(cells):
        raise ValidationError("the search left a Venn cell without a cover set")
    chosen: list[int | None] = [None] * mu.space.n
    for (_, atoms, options), idx in zip(cells, choice):
        if idx not in options:
            raise ValidationError(f"atom {atoms[0]} is not a member of cover set {idx}")
        for atom in atoms:
            chosen[atom] = idx
    # checked per cell above: each atom of the space once, inside its set;
    # read in atom order, the pairs and each group come sorted
    pairs = []
    groups: dict[int, list[int]] = {}
    for atom, idx in enumerate(chosen):
        if idx is not None:
            pairs.append((atom, idx))
            if idx in groups:
                groups[idx].append(atom)
            else:
                groups[idx] = [atom]
    assignment = _unchecked(Assignment, space=mu.space, cover=q, choice=tuple(pairs))
    return assignment, groups, explored


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
    :func:`partition_entropy` of the witness, the same g-sum helper on the
    same block masses without the partition check, which the search has
    already made (it checks coverage and places each atom once, inside its
    set).  The checks of :func:`minimizing_assignment` run once, here, and
    the assignment and the witness blocks come from one pass over its choice.
    """
    budget = check_integer(budget, 1, "budget")
    _check_operands(e, mu, q)
    if not is_mu_cover(q, mu):
        return CoverEntropyResult(value=None, witness=None, explored=0, assignment=None)
    assignment, groups, explored = _search(e, mu, q, budget)
    witness = _partition_of(mu.space, groups)
    return CoverEntropyResult(
        value=_g_sum_value(e, _block_masses(mu, witness)),
        witness=witness,
        explored=explored,
        assignment=assignment,
    )
