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
row masses and the block masses (a Hardy-Littlewood-Polya comparison, exposed
via :func:`hlp_compare`).  Minimising the weighted entropy over the whole
division polytope therefore matches the classical cover entropy; the minimum
is attained at an assignment-induced (vertex) division, which is how
:func:`cover_entropy_weighted` computes it.  All operations are pure and the
random sampler depends only on ``(seed, instance)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .classical import (
    DEFAULT_BUDGET,
    Assignment,
    CoverEntropyResult,
    minimizing_assignment,
)
from .errors import ValidationError
from .functionals import EntropyFunctional, evaluate
from .measure import (
    MASS_TOL,
    AtomSet,
    Measure,
    SetFamily,
    _first_container,
    _require_shared_space,
    check_integer,
    check_tolerance,
    finer_than,
    is_finite_number,
    is_mu_cover,
    is_mu_partition,
    parse_numbers,
    real_array,
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
        if not isinstance(self.mu, Measure) or not isinstance(self.cover, SetFamily):
            raise ValidationError("a division needs a Measure and a SetFamily")
        _require_shared_space(self.mu, self.cover)
        rows = real_array(self.rows, "division rows").copy()
        expected = (len(self.cover), self.mu.space.n)
        if rows.shape != expected:
            raise ValidationError(
                f"rows must have shape {expected} (cover size x atom count), "
                f"got {rows.shape}"
            )
        # false for NaN too; an infinite entry fails the sum-back check
        if not (rows >= 0.0).all():
            raise ValidationError("division rows must be finite and nonnegative")
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
    return evaluate(e, d.row_masses)


def division_from_assignment(a: Assignment, mu: Measure) -> WeightedDivision:
    """Vertex division: each atom's full mass goes to its assigned set's row."""
    rows = np.zeros((len(a.cover), mu.space.n), dtype=np.float64)
    for atom, idx in a.choice:
        rows[idx, atom] = mu.mass[atom]
    return WeightedDivision(mu, a.cover, rows)


def partition_to_division(mu: Measure, p: SetFamily, q: SetFamily) -> WeightedDivision:
    """Division induced by a partition finer than the cover.

    Every block is routed to the lowest-index cover set containing it; row
    ``i`` carries ``mu`` on the blocks routed to set ``i`` and is zero
    elsewhere.  The weighted entropy of the result never exceeds the
    partition entropy of ``p`` (merging within one cover set only helps).
    """
    if not is_mu_partition(p, mu):
        raise ValidationError("p is not a mu-partition")
    if not finer_than(p, q):
        raise ValidationError("p is not finer than q")
    rows = np.zeros((len(q), mu.space.n), dtype=np.float64)
    for block in p.sets:
        if block.members:
            atoms = list(block.members)
            rows[_first_container(q, block), atoms] = mu.mass[atoms]
    return WeightedDivision(mu, q, rows)


def disjointify(d: WeightedDivision) -> SetFamily:
    """Greedy disjointification of the cover sets whose rows have positive mass.

    Sort the rows of positive mass by submeasure mass (descending, cover index
    breaks ties), peel each set by everything taken before it, and drop mu-null
    blocks.  The result is a mu-partition finer than the cover whose entropy
    never exceeds the division's weighted entropy.
    """
    order, blocks, block_masses = d._chain
    missed = ~d.cover.incidence[list(order)].any(axis=0)
    if float(d.mu.mass[missed].sum()) > MASS_TOL:
        raise ValidationError(
            "rows of positive mass do not cover the measure's support"
        )
    pruned = tuple(b for b, m in zip(blocks, block_masses) if m > 0.0)
    return SetFamily(d.mu.space, pruned)


def disjointify_certificate(d: WeightedDivision) -> "HlpInput":
    """Prefix-dominance certificate behind :func:`disjointify`.

    ``x`` holds the sorted masses of the rows of positive mass and ``y`` the
    corresponding block masses; ``x`` is prefix-dominated by ``y`` with equal
    totals, which is exactly what the concave/convex comparison needs.
    """
    order, _, block_masses = d._chain
    masses = d.row_masses
    return HlpInput(x_seq=tuple(float(masses[i]) for i in order), y_seq=block_masses)


# ---------------------------------------------------------------------------
# Hardy-Littlewood-Polya comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HlpInput:
    """Equal-total sequences with ``x`` nonincreasing and prefix-dominated by ``y``.

    Each is given as a list or tuple of finite nonnegative numbers and kept
    as a tuple of floats.
    """

    x_seq: tuple[float, ...]
    y_seq: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.x_seq, (list, tuple)) and isinstance(self.y_seq, (list, tuple))):
            raise ValidationError("x and y must be lists or tuples of numbers")
        x, y = tuple(self.x_seq), tuple(self.y_seq)
        for v in x + y:
            if not is_finite_number(v) or v < 0:
                raise ValidationError(
                    f"sequence entries must be finite and nonnegative numbers, got {v!r}")
        x, y = tuple(map(float, x)), tuple(map(float, y))
        object.__setattr__(self, "x_seq", x)
        object.__setattr__(self, "y_seq", y)
        if len(x) != len(y):
            raise ValidationError("x and y must have the same length")
        if any(x[i] < x[i + 1] for i in range(len(x) - 1)):
            raise ValidationError("x must be nonincreasing")
        if abs(sum(x) - sum(y)) > MASS_TOL:
            raise ValidationError(
                f"totals differ: sum x = {sum(x)}, sum y = {sum(y)}"
            )
        px = py = 0.0
        for i in range(len(x)):
            px += x[i]
            py += y[i]
            if px > py + MASS_TOL:
                raise ValidationError(
                    f"prefix dominance fails at position {i}: {px} > {py}"
                )


@dataclass(frozen=True)
class ComparisonReport:
    """Both transformed sums plus whether the predicted direction held."""

    sum_x: float
    sum_y: float
    shape: str
    confirmed: bool


def hlp_compare(
    inp: HlpInput,
    phi: Callable[[float], float],
    shape: Literal["concave", "convex"],
    tol: float = 1e-9,
) -> ComparisonReport:
    """Compare ``sum phi(x)`` against ``sum phi(y)``.

    For a continuous ``phi`` with ``phi(0) = 0``, prefix dominance of the
    nonincreasing ``x`` by ``y`` (equal totals) forces ``sum phi(x) >= sum
    phi(y)`` when ``phi`` is concave and ``<=`` when convex; ``confirmed``
    reports that direction within ``tol``.
    """
    if shape not in ("concave", "convex"):
        raise ValidationError(f"shape must be 'concave' or 'convex', got {shape!r}")
    check_tolerance(tol)
    sum_x = float(sum(phi(v) for v in inp.x_seq))
    sum_y = float(sum(phi(v) for v in inp.y_seq))
    if shape == "concave":
        confirmed = sum_x >= sum_y - tol
    else:
        confirmed = sum_x <= sum_y + tol
    return ComparisonReport(sum_x=sum_x, sum_y=sum_y, shape=shape, confirmed=confirmed)


# ---------------------------------------------------------------------------
# Weighted cover entropy and random divisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedCoverEntropyResult(CoverEntropyResult):
    """Like the classical result, but the witness is an optimal division."""

    witness: WeightedDivision | None


def cover_entropy_weighted(
    e: EntropyFunctional,
    mu: Measure,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
) -> WeightedCoverEntropyResult:
    """Minimum weighted entropy over all divisions of ``mu`` with respect to ``q``.

    The division polytope is empty exactly when ``q`` is not a mu-cover, in
    which case the tagged infinite result is returned.  Otherwise the minimum
    sits at a vertex division induced by an assignment, so the same certified
    search as the classical side runs and the witness division is rebuilt
    from its optimal assignment; the reported value is recomputed from the
    witness's row masses.
    """
    check_integer(budget, 1, "budget")
    if not is_mu_cover(q, mu):
        return WeightedCoverEntropyResult(value=None, witness=None, explored=0)
    assignment, explored = minimizing_assignment(e, mu, q, budget=budget)
    witness = division_from_assignment(assignment, mu)
    return WeightedCoverEntropyResult(
        value=weighted_entropy(e, witness),
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
    rows = []
    for i, row in enumerate(rows_raw):
        if not isinstance(row, list) or len(row) != mu.space.n:
            raise ValidationError(f"row {i} must list {mu.space.n} atom masses")
        rows.append(parse_numbers(row, f"row {i}"))
    return WeightedDivision(mu, cover, rows)


def division_dict(d: WeightedDivision) -> dict:
    """Inverse of :func:`parse_division`."""
    return {"cover_index_rows": [[float(v) for v in row] for row in d.rows]}
