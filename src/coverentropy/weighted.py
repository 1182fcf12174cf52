"""Weighted divisions of a measure over a cover, and the weighted cover entropy.

A weighted division splits the measure itself instead of the space: each
cover set receives a submeasure supported inside it, and the submeasures add
back up to the original measure.  The weighted entropy applies the functional
to the vector of submeasure totals.  Two constructive bridges connect the
picture to partitions:

* ``partition_to_division`` turns a partition finer than the cover into a
  division with no larger entropy (blocks sharing a cover set get merged);
* ``disjointify`` turns a division into a partition with no larger entropy,
  by sorting the cover sets by submeasure mass and taking set differences.

The second direction is certified by prefix-sum dominance between the sorted
row masses and the block masses (a Hardy-Littlewood-Polya comparison, see
:func:`~coverentropy.probes.hlp_compare`).  Minimising the weighted
entropy over the whole division polytope therefore matches the classical
cover entropy; the minimum is attained at an assignment-induced (vertex)
division, which is how :func:`cover_entropy_weighted` computes it.  The
vertex division and the sampler check only sum-back, and the difference
chain and its partition none: the rest holds by construction.  All
operations are pure, and the random sampler draws from the standard
library's ``random.Random(seed)``, so it depends only on ``(seed,
instance)``; numpy is imported only by the dense ``rows`` view.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import TYPE_CHECKING

from .classical import (
    DEFAULT_BUDGET,
    Assignment,
    CoverEntropyResult,
    _block_masses,
    _search,
)
from .errors import ValidationError
from .functionals import EntropyFunctional, HlpInput, _g_sum_value
from .measure import (
    MASS_TOL,
    AtomSet,
    Measure,
    SetFamily,
    _block_routes,
    _require_shared_space,
    _unchecked,
    check_integer,
    check_type,
    frozen,
    is_mu_cover,
    is_mu_partition,
    real_list,
)

if TYPE_CHECKING:
    import numpy as np


@frozen(eq=False)
class WeightedDivision:
    """Per-cover-set submeasures, stored per membership: ``values[i][j]`` is
    set ``i``'s mass on its member atom ``cover[i].members[j]``.

    ``values`` is a list or tuple of one row per cover set, each row a list,
    tuple or 1-D array of numbers (:func:`~coverentropy.measure.real_list`)
    exactly as long as its set; it is kept as a tuple of tuples of floats.
    :func:`parse_division` reads dense rows of atom masses.

    Invariants (validated on construction): values are finite and
    nonnegative, and the gaps between each atom's mass and the ``math.fsum``
    of its values total at most ``MASS_TOL`` (an exact ``math.fsum`` too), so
    every division that passes is valued and certified with no mass check.
    :func:`division_from_assignment` and :func:`random_division` check only
    the gaps, as the rest holds by construction.

    Quantities derived from the values are computed on first use and kept on
    the division, so every reader shares one copy: ``row_masses`` (the
    ``math.fsum`` of each row, a tuple), ``rows`` (the dense read-only
    float64 array, which imports numpy) and the sorted difference chain
    behind :func:`disjointify` and :func:`disjointify_certificate` (tuples).
    """

    mu: Measure
    cover: SetFamily
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        check_type(self.mu, Measure, "measure")
        check_type(self.cover, SetFamily, "cover")
        _require_shared_space(self.mu, self.cover)
        sets = self.cover.sets
        raw = self.values
        if not isinstance(raw, (list, tuple)) or len(raw) != len(sets):
            raise ValidationError(f"division rows must match the cover's shape: a list or "
                                  f"tuple of {len(sets)} rows, one per cover set")
        values = []
        for i, (row, s) in enumerate(zip(raw, sets)):
            row = real_list(row, f"row {i} of the division rows")
            if len(row) != len(s.members):
                raise ValidationError(f"row {i} of the division rows must list the "
                                      f"{len(s.members)} member values of cover set {i}, "
                                      f"got {len(row)} entries")
            values.append(row)
        # false for NaN and infinity too; the sum-back check rejects any value
        # above 1 + 2 * MASS_TOL, and bounding values first keeps its sums finite
        if not all(0.0 <= v <= 2.0 for row in values for v in row):
            raise ValidationError("division rows must be finite, nonnegative and at most 1")
        _check_sum_back(_sum_back_gaps(self.mu, sets, values))
        object.__setattr__(self, "values", tuple(values))

    @cached_property
    def row_masses(self) -> tuple[float, ...]:
        """Each row's total, the ``math.fsum`` of its values."""
        return tuple(map(math.fsum, self.values))

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only ``(sets, atoms)`` float64 array: ``rows[i][x]`` is set
        ``i``'s mass on atom ``x``, zero outside the set."""
        import numpy as np
        rows = np.array(_dense_rows(self), dtype=np.float64).reshape(len(self.cover),
                                                                    self.mu.space.n)
        rows.setflags(write=False)
        return rows

    @cached_property
    def _chain(self) -> tuple[tuple[int, ...], tuple[AtomSet, ...], tuple[float, ...]]:
        """``(order, blocks, block_masses)`` of the greedy difference chain.

        ``order`` lists the rows of positive mass, heaviest first, the cover
        index breaking ties; ``blocks[j]`` is cover set ``order[j]`` minus
        every set before it, and ``block_masses[j]`` its mass under ``mu``.
        """
        masses = self.row_masses
        # a stable sort keeps ascending indices in order among equal masses
        order = sorted((i for i, m in enumerate(masses) if m > 0.0),
                       key=masses.__getitem__, reverse=True)
        taken: set[int] = set()
        blocks = []
        for i in order:
            fresh = tuple(a for a in self.cover[i].members if a not in taken)
            taken.update(fresh)
            # a sorted subset of a checked cover set's members
            blocks.append(_unchecked(AtomSet, space=self.mu.space, members=fresh))
        return tuple(order), tuple(blocks), tuple(_block_masses(self.mu, blocks))


def _check_sum_back(gaps: list[float]) -> None:
    """A ValidationError naming the worst atom unless the per-atom gaps
    total at most ``MASS_TOL``, an exact ``math.fsum`` as in ``is_mu_cover``."""
    total = math.fsum(gaps)
    if total > MASS_TOL:
        worst = max(gaps)
        raise ValidationError(f"rows do not sum back to the measure at atom {gaps.index(worst)} "
                              f"(off by {worst}, {total} over all atoms)")


def _sum_back_gaps(mu: Measure, sets: tuple[AtomSet, ...], values) -> list[float]:
    """Each atom's gap between its mass and the ``math.fsum`` of its values,
    added in set order; ``values[i]`` lists set ``sets[i]``'s member values."""
    parts: list[list[float]] = [[] for _ in mu.masses]
    for s, row in zip(sets, values):
        for atom, v in zip(s.members, row):
            parts[atom].append(v)
    return [abs(math.fsum(p) - m) for p, m in zip(parts, mu.masses)]


def _dense_rows(d: WeightedDivision) -> list[list[float]]:
    """One list of ``n`` atom masses per cover set, zero outside the set."""
    rows = []
    for s, values in zip(d.cover.sets, d.values):
        row = [0.0] * d.mu.space.n
        for atom, v in zip(s.members, values):
            row[atom] = v
        rows.append(row)
    return rows


def weighted_entropy(e: EntropyFunctional, d: WeightedDivision) -> float:
    """Apply the functional to the submeasure totals (zero rows drop out)."""
    check_type(e, EntropyFunctional, "functional")
    check_type(d, WeightedDivision, "division")
    # the row masses of a checked division need no mass check of their own
    return _g_sum_value(e, d.row_masses)


def division_from_assignment(a: Assignment, mu: Measure) -> WeightedDivision:
    """Vertex division: each atom's full mass goes to its assigned set's row.

    A valid ``Assignment`` implies every division invariant but one, which
    alone is checked: the unassigned atoms carry at most ``MASS_TOL`` in all.
    """
    check_type(a, Assignment, "assignment")
    check_type(mu, Measure, "measure")
    _require_shared_space(mu, a.cover)
    placed: list[dict[int, float]] = [{} for _ in a.cover.sets]
    unplaced = list(mu.masses)
    for atom, idx in a.choice:
        placed[idx][atom] = unplaced[atom]
        unplaced[atom] = 0.0
    _check_sum_back(unplaced)
    values = tuple(tuple([got.get(atom, 0.0) for atom in s.members])
                   for got, s in zip(placed, a.cover.sets))
    # checked by Assignment (each atom once, inside its set) and above
    return _unchecked(WeightedDivision, mu=mu, cover=a.cover, values=values)


def partition_to_division(mu: Measure, p: SetFamily, q: SetFamily) -> WeightedDivision:
    """Division induced by a partition finer than the cover.

    Every block is routed to the lowest-index cover set containing it, and
    the vertex division of the assignment that routing makes is returned.
    The weighted entropy of the result never exceeds the partition entropy
    of ``p`` (merging within one cover set only helps).
    """
    check_type(mu, Measure, "measure")
    check_type(p, SetFamily, "partition")
    check_type(q, SetFamily, "cover")
    if not is_mu_partition(p, mu):
        raise ValidationError("p is not a mu-partition")
    routes = list(_block_routes(p, q))
    if any(target is None for _, target in routes):
        raise ValidationError("p is not finer than q")
    choice = tuple((atom, target) for block, target in routes for atom in block.members)
    return division_from_assignment(Assignment(mu.space, q, choice), mu)


def disjointify(d: WeightedDivision) -> SetFamily:
    """Greedy disjointification of the cover sets whose rows have positive mass.

    Sort the rows of positive mass by submeasure mass (descending, cover index
    breaks ties), peel each set by everything taken before it, and drop mu-null
    blocks.  The result is a mu-partition finer than the cover whose entropy
    never exceeds the division's weighted entropy.  The blocks need no
    coverage check: an atom in no row of positive mass has all-zero values,
    so its whole mass is part of the sum-back gap, which totals at most
    ``MASS_TOL``.
    """
    check_type(d, WeightedDivision, "division")
    _, blocks, block_masses = d._chain
    # blocks of the chain, each an AtomSet on the division's space
    return _unchecked(SetFamily, space=d.mu.space,
                      sets=tuple(b for b, m in zip(blocks, block_masses) if m > 0.0))


def disjointify_certificate(d: WeightedDivision) -> HlpInput:
    """Prefix-dominance certificate behind :func:`disjointify`.

    ``x`` holds the sorted masses of the rows of positive mass and ``y`` the
    corresponding block masses; ``x`` is prefix-dominated by ``y`` with equal
    totals, which is exactly what the concave/convex comparison needs.
    """
    check_type(d, WeightedDivision, "division")
    order, _, block_masses = d._chain
    masses = d.row_masses
    return HlpInput(x_seq=tuple(masses[i] for i in order), y_seq=block_masses)


# ---------------------------------------------------------------------------
# Weighted cover entropy and random divisions
# ---------------------------------------------------------------------------

def cover_entropy_weighted(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
) -> CoverEntropyResult:
    """Minimum weighted entropy over all divisions of ``mu`` with respect to ``q``.

    The division polytope is empty exactly when ``q`` is not a mu-cover, in
    which case the tagged infinite result is returned.  Otherwise the minimum
    sits at a vertex division induced by an assignment, so the same certified
    search as the classical side runs and the witness division is rebuilt
    from its optimal assignment into the :class:`WeightedDivision` witness;
    the reported value is recomputed from the witness's row masses.  The
    result carries that assignment; the witness partition is not built.
    """
    budget = check_integer(budget, 1, "budget")
    check_type(e, EntropyFunctional, "functional")
    if not is_mu_cover(q, mu):
        return CoverEntropyResult(value=None, witness=None, explored=0, assignment=None)
    assignment, _, explored = _search(e, mu, q, budget)
    witness = division_from_assignment(assignment, mu)
    return CoverEntropyResult(
        value=_g_sum_value(e, witness.row_masses),
        witness=witness,
        explored=explored,
        assignment=assignment,
    )


def random_division(mu: Measure, q: SetFamily, seed: int) -> WeightedDivision:
    """Seeded uniform sample from the division polytope.

    One ``random.Random(seed)`` gives a unit exponential ``-log(1 - u)`` for
    every (set, atom) membership, ``u`` from its ``.random()``, set by set
    and atoms ascending within a set, so the result depends only on ``(seed,
    instance)`` and is the same on every Python version.  Each atom's draws
    are added in set order, and each draw ``x`` of an atom with draw total
    ``t`` and mass ``m`` becomes ``(x / t) * m``: flat-Dirichlet weights over
    the sets containing the atom, scaled by its mass.  Atoms contained in a
    single set keep their exact mass there (``x / x == 1.0``) regardless of
    the seed; atoms in no set get no mass.  Only the sum-back gaps are
    checked: ``mu`` and ``q`` pass :func:`is_mu_cover`, and each value lies
    in ``[0, m]``, since ``t`` is at least each of its draws.
    """
    uniform = random.Random(check_integer(seed, 0, "seed")).random
    if not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    log = math.log
    total = [0.0] * mu.space.n
    chunks = []
    for s in q.sets:
        chunk = [-log(1.0 - uniform()) for _ in s.members]
        for atom, x in zip(s.members, chunk):
            total[atom] += x
        chunks.append(chunk)
    # an atom whose draws are all 0.0 gets no mass, as it would by 0 / 0
    total = [t if t > 0.0 else math.inf for t in total]
    masses = mu.masses
    values = tuple(tuple([(x / total[atom]) * masses[atom] for atom, x in zip(s.members, chunk)])
                   for s, chunk in zip(q.sets, chunks))
    _check_sum_back(_sum_back_gaps(mu, q.sets, values))
    # checked by is_mu_cover and above; each value (x / t) * m lies in [0, m],
    # as the float total t of an atom's nonnegative draws is at least each x
    return _unchecked(WeightedDivision, mu=mu, cover=q, values=values)


# ---------------------------------------------------------------------------
# Division JSON schema (CLI exchange format)
# ---------------------------------------------------------------------------

def parse_division(data: dict, mu: Measure, cover: SetFamily) -> WeightedDivision:
    """Validate ``{"cover_index_rows": [[...], ...]}`` against an instance.

    One dense row of ``n`` atom masses per cover set, in the instance's
    cover order and zero outside the set; misaligned shapes are rejected
    before the division invariants run on the rows' member values.
    """
    check_type(mu, Measure, "measure")
    check_type(cover, SetFamily, "cover")
    if not isinstance(data, dict) or "cover_index_rows" not in data:
        raise ValidationError('division JSON needs a "cover_index_rows" key')
    rows_raw = data["cover_index_rows"]
    if not isinstance(rows_raw, list) or len(rows_raw) != len(cover):
        raise ValidationError(
            f'"cover_index_rows" must hold {len(cover)} rows (one per cover set)'
        )
    for i, row in enumerate(rows_raw):
        if not isinstance(row, list) or len(row) != mu.space.n:
            raise ValidationError(f"row {i} of the division rows must list {mu.space.n} atom masses")
    _require_shared_space(mu, cover)
    values = []
    for i, (row, s) in enumerate(zip(rows_raw, cover.sets)):
        dense = real_list(row, f"row {i} of the division rows")
        members = tuple([dense[atom] for atom in s.members])
        # its nonzeros must all be members
        if len(dense) - dense.count(0.0) != len(members) - members.count(0.0):
            raise ValidationError(f"row {i} carries mass outside its cover set")
        values.append(members)
    return WeightedDivision(mu, cover, values)


def division_dict(d: WeightedDivision) -> dict:
    """Inverse of :func:`parse_division`."""
    check_type(d, WeightedDivision, "division")
    return {"cover_index_rows": _dense_rows(d)}
