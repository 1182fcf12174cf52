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
:func:`~coverentropy.functionals.hlp_compare`).  Minimising the weighted
entropy over the whole division polytope therefore matches the classical
cover entropy; the minimum is attained at an assignment-induced (vertex)
division, which is how :func:`cover_entropy_weighted` computes it.  All
operations are pure and the random sampler depends only on ``(seed,
instance)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import (
    DEFAULT_BUDGET,
    Assignment,
    CoverEntropyResult,
    _check_operands,
    minimizing_assignment,
)
from .errors import ValidationError
from .functionals import EntropyFunctional, HlpInput, _g_sum_value, evaluate
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
    is_mu_cover,
    is_mu_partition,
    real_list,
)


@dataclass(frozen=True, eq=False)
class WeightedDivision:
    """Per-cover-set submeasures: ``rows[i][x]`` is set ``i``'s mass on atom ``x``.

    Invariants (validated on construction): entries are nonnegative, a row is
    exactly zero outside its cover set, and the rows sum atomwise to the
    measure within ``MASS_TOL``.

    Quantities derived from the rows are computed on first use and kept on
    the division, so every reader shares one copy: ``row_masses`` (a
    read-only array) and the sorted difference chain behind
    :func:`disjointify` and :func:`disjointify_certificate` (tuples).  The
    rows themselves are read-only, so neither can go stale.
    """

    mu: Measure
    cover: SetFamily
    rows: np.ndarray

    def __post_init__(self) -> None:
        check_type(self.mu, Measure, "measure")
        check_type(self.cover, SetFamily, "cover")
        _require_shared_space(self.mu, self.cover)
        # an integer or float array is read by its dtype, a list or tuple of
        # rows one row at a time
        rows, k, n = self.rows, len(self.cover), self.mu.space.n
        if not (isinstance(rows, np.ndarray) and rows.shape == (k, n) and rows.dtype.kind in "iuf"):
            if not isinstance(rows, (list, tuple)) or len(rows) != k:
                raise ValidationError(f"division rows must be numbers of shape {(k, n)} "
                                      f"(cover size x atom count), as an array or a list of rows")
            rows = [real_list(row, f"row {i} of the division rows") for i, row in enumerate(rows)]
            for i, row in enumerate(rows):
                if len(row) != n:
                    raise ValidationError(f"row {i} of the division rows must list {n} atom masses")
        rows = np.array(rows, dtype=np.float64).reshape(k, n)
        # false for NaN and infinity too; the sum-back check rejects any entry
        # above 1 + 2 * MASS_TOL, and bounding entries first keeps its sums finite
        if not ((rows >= 0.0) & (rows <= 2.0)).all():
            raise ValidationError("division rows must be finite, nonnegative and at most 1")
        stray = ((rows != 0.0) & ~self.cover.incidence).any(axis=1)
        if stray.any():
            raise ValidationError(
                f"row {stray.argmax()} carries mass outside its cover set"
            )
        gap = np.abs(rows.sum(axis=0) - self.mu.mass)
        if float(gap.max(initial=0.0)) > MASS_TOL:
            atom = int(gap.argmax())
            raise ValidationError(
                f"rows do not sum back to the measure at atom {atom} "
                f"(off by {float(gap[atom])})"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def row_masses(self) -> np.ndarray:
        """Read-only vector of row totals, one per cover set."""
        masses = self.rows.sum(axis=1)
        masses.setflags(write=False)
        return masses

    @cached_property
    def _chain(self) -> tuple[tuple[int, ...], tuple[AtomSet, ...], tuple[float, ...]]:
        """``(order, blocks, block_masses)`` of the greedy difference chain.

        ``order`` lists the rows of positive mass, heaviest first, the cover
        index breaking ties; ``blocks[j]`` is cover set ``order[j]`` minus
        every set before it, and ``block_masses[j]`` its mass under ``mu``.
        """
        masses = self.row_masses.tolist()
        order = sorted((i for i, m in enumerate(masses) if m > 0.0),
                       key=lambda i: (-masses[i], i))
        taken: set[int] = set()
        blocks = []
        for i in order:
            fresh = tuple(a for a in self.cover[i].members if a not in taken)
            taken.update(fresh)
            blocks.append(AtomSet(self.mu.space, fresh))
        return tuple(order), tuple(blocks), tuple(self.mu.mass_of(b) for b in blocks)


def weighted_entropy(e: EntropyFunctional, d: WeightedDivision) -> float:
    """Apply the functional to the submeasure totals (zero rows drop out)."""
    check_type(e, EntropyFunctional, "functional")
    check_type(d, WeightedDivision, "division")
    return evaluate(e, d.row_masses)


def division_from_assignment(a: Assignment, mu: Measure) -> WeightedDivision:
    """Vertex division: each atom's full mass goes to its assigned set's row.

    A valid ``Assignment`` implies every division invariant but one, which
    alone is checked: no unassigned atom carries more than ``MASS_TOL``.
    """
    check_type(a, Assignment, "assignment")
    check_type(mu, Measure, "measure")
    _require_shared_space(mu, a.cover)
    rows = np.zeros((len(a.cover), mu.space.n), dtype=np.float64)
    unplaced = list(mu.masses)
    for atom, idx in a.choice:
        rows[idx, atom] = unplaced[atom]
        unplaced[atom] = 0.0
    worst = max(unplaced)
    if worst > MASS_TOL:
        raise ValidationError(f"rows do not sum back to the measure at atom "
                              f"{unplaced.index(worst)} (off by {worst})")
    rows.setflags(write=False)
    # checked by Assignment (each atom once, inside its set) and above
    return _unchecked(WeightedDivision, mu=mu, cover=a.cover, rows=rows)


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
    never exceeds the division's weighted entropy.
    """
    check_type(d, WeightedDivision, "division")
    order, blocks, block_masses = d._chain
    missed = ~d.cover.incidence[list(order)].any(axis=0)
    if math.fsum(d.mu.mass[missed].tolist()) > MASS_TOL:
        raise ValidationError(
            "rows of positive mass do not cover the measure's support"
        )
    pruned = tuple(b for b, m in zip(blocks, block_masses) if m > 0.0)
    return SetFamily(d.mu.space, pruned)


def disjointify_certificate(d: WeightedDivision) -> HlpInput:
    """Prefix-dominance certificate behind :func:`disjointify`.

    ``x`` holds the sorted masses of the rows of positive mass and ``y`` the
    corresponding block masses; ``x`` is prefix-dominated by ``y`` with equal
    totals, which is exactly what the concave/convex comparison needs.
    """
    check_type(d, WeightedDivision, "division")
    order, _, block_masses = d._chain
    masses = d.row_masses
    return HlpInput(x_seq=tuple(float(masses[i]) for i in order), y_seq=block_masses)


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
    the reported value is recomputed from the witness's row masses.
    """
    check_integer(budget, 1, "budget")
    _check_operands(e, mu, q)
    if not is_mu_cover(q, mu):
        return CoverEntropyResult(value=None, witness=None, explored=0)
    assignment, explored = minimizing_assignment(e, mu, q, budget=budget)
    witness = division_from_assignment(assignment, mu)
    return CoverEntropyResult(
        value=_g_sum_value(e, witness.row_masses.tolist()),
        witness=witness,
        explored=explored,
    )


def random_division(mu: Measure, q: SetFamily, seed: int) -> WeightedDivision:
    """Seeded uniform sample from the division polytope.

    One call to ``numpy.random.default_rng(seed).standard_exponential`` draws
    a unit exponential for every (set, atom) membership of ``q.incidence``,
    set by set in row-major order, so the result depends only on ``(seed,
    instance)``.  Each atom's draws are divided by their sum, which gives
    flat-Dirichlet weights over the sets containing it, and scaled by the
    atom's mass.  Atoms contained in a single set keep their exact mass there
    (``x / x == 1.0``) regardless of the seed; atoms in no set get no mass.
    """
    check_integer(seed, 0, "seed")
    if not is_mu_cover(q, mu):
        raise ValidationError("family is not a mu-cover of the measure")
    rng = np.random.default_rng(seed)
    inc = q.incidence
    rows = np.zeros(inc.shape, dtype=np.float64)
    rows[inc] = rng.standard_exponential(int(inc.sum()))
    total = rows.sum(axis=0)
    np.divide(rows, total, out=rows, where=total > 0.0)
    rows *= mu.mass
    return WeightedDivision(mu, q, rows)


# ---------------------------------------------------------------------------
# Division JSON schema (CLI exchange format)
# ---------------------------------------------------------------------------

def parse_division(data: dict, mu: Measure, cover: SetFamily) -> WeightedDivision:
    """Validate ``{"cover_index_rows": [[...], ...]}`` against an instance.

    Rows align with the instance's cover order; misaligned shapes are
    rejected before the division invariants run.
    """
    if not isinstance(data, dict) or "cover_index_rows" not in data:
        raise ValidationError('division JSON needs a "cover_index_rows" key')
    rows_raw = data["cover_index_rows"]
    if not isinstance(rows_raw, list) or len(rows_raw) != len(cover):
        raise ValidationError(
            f'"cover_index_rows" must hold {len(cover)} rows (one per cover set)'
        )
    return WeightedDivision(mu, cover, rows_raw)


def division_dict(d: WeightedDivision) -> dict:
    """Inverse of :func:`parse_division`."""
    return {"cover_index_rows": [[float(v) for v in row] for row in d.rows]}
