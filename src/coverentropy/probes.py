"""Numerical probes: the grid check of a functional's declared composition
case (:func:`check_structure`) and the Hardy-Littlewood-Polya comparison
(:func:`hlp_compare`).

Neither is on the path of an entropy computation: the search trusts the
declared case, and the weighted side builds only the comparison's input,
:class:`~coverentropy.functionals.HlpInput`.
"""

from __future__ import annotations

import math
from typing import Callable, Literal

from .errors import ValidationError
from .functionals import CompositionCase, EntropyFunctional, HlpInput, _sum_in_order
from .measure import CHECK_TOL, check_integer, check_tolerance, check_type, frozen, is_real


# ---------------------------------------------------------------------------
# Numerical structure check
# ---------------------------------------------------------------------------

#: Largest grid of :func:`check_structure`: about a million pairs, a second.
MAX_GRID_SIZE = 2001


@frozen
class StructureReport:
    """Grid-based verdicts for the three conditions of the declared case.

    ``worst_*`` fields record the largest violation found (0 when clean);
    a check passes when its violation stays within ``tol``.
    """

    case: CompositionCase
    grid_size: int
    tol: float
    f_monotone: bool
    g_additive: bool
    g_curvature: bool
    worst_f_violation: float
    worst_additive_violation: float
    worst_curvature_violation: float

    @property
    def passed(self) -> bool:
        return self.f_monotone and self.g_additive and self.g_curvature


def _real(fn, x, what: str) -> float:
    """``fn(x)`` as a float if it is a real
    (:func:`~coverentropy.measure.is_real`), NaN and infinity included, else
    a ValidationError naming ``what``; an integer beyond float range is an
    infinity of its sign."""
    value = fn(x)
    if not is_real(value):
        raise ValidationError(f"{what} gives {value!r} at {x!r}, not a real number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _grid(lo: float, hi: float, size: int) -> list[float]:
    """numpy's ``linspace(lo, hi, size)`` in plain Python: ``lo + i * step``,
    the last point exactly ``hi``."""
    step = (hi - lo) / (size - 1)
    return [lo + i * step for i in range(size - 1)] + [hi]


def _worst(violations: list[float], probes: list[float]) -> float:
    """The largest violation (0 when none is positive), or infinity when a
    probed value is not finite."""
    return max([0.0, *violations]) if all(map(math.isfinite, probes)) else math.inf


def check_structure(e: EntropyFunctional, grid_size: int = 201, tol: float = CHECK_TOL) -> StructureReport:
    """Check the declared composition case of ``e`` on an evenly spaced grid.

    ``g`` is probed on ``[0, 1]``: sub/superadditivity on all grid pairs with
    ``s + t <= 1`` and concavity/convexity via midpoint second differences.
    ``f`` is probed for monotonicity on the span of g-sums reachable with at
    most ``grid_size`` blocks (between ``g(1)`` and ``grid_size*g(1/grid_size)``);
    ``f`` is never evaluated outside that span.  A non-finite value of ``g``
    or ``f`` makes its checks' violations infinite; one that is not a real
    number (:func:`_real`) is a ValidationError.  ``grid_size`` is at most
    ``MAX_GRID_SIZE``: the additivity check calls ``g`` on about
    ``grid_size**2 / 4`` pairs.
    """
    check_type(e, EntropyFunctional, "functional")
    if check_integer(grid_size, 3, "grid_size") > MAX_GRID_SIZE:
        raise ValidationError(f"grid_size must be at most {MAX_GRID_SIZE}, got {grid_size!r}")
    check_tolerance(tol)
    ts = _grid(0.0, 1.0, grid_size)
    gv = [_real(e.g, t, "g") for t in ts]
    # a positive violation breaks the concave case when sign is 1, the convex one when -1
    sign = 1.0 if e.case is CompositionCase.INCREASING_SUBADDITIVE_CONCAVE else -1.0

    # Midpoint second differences on the grid interior.
    worst_curv = _worst([sign * (a + c - 2.0 * b) for a, b, c in zip(gv, gv[1:], gv[2:])], gv)

    # Additivity on grid pairs (s, t) with s + t <= 1: about grid_size**2 / 4
    # probes, so only their running worst and finiteness are kept, as _worst
    # would read them
    isfinite = math.isfinite
    worst_add, finite = 0.0, all(map(isfinite, gv))
    for i in range(grid_size):
        gi = gv[i]
        for j in range(i, grid_size):
            u = ts[i] + ts[j]
            if u > 1.0 + 1e-15:
                break
            s = _real(e.g, min(u, 1.0), "g")
            # g(s + t) - (g(s) + g(t)): subadditive wants it <= 0, superadditive >= 0
            gap = sign * (s - (gi + gv[j]))
            if gap > worst_add:
                worst_add = gap
            if not isfinite(s):
                finite = False
    if not finite:
        worst_add = math.inf

    # Monotonicity of f over the reachable span of g-sums.
    m = grid_size
    end_a = gv[-1]  # g(1.0): the grid ends exactly at 1
    end_b = m * _real(e.g, 1.0 / m, "g")
    lo, hi = min(end_a, end_b), max(end_a, end_b)
    if hi - lo < 1e-15:
        lo, hi = lo - 0.5, hi + 0.5  # degenerate custom g; probe a unit span
    fv = [_real(e.f, x, "f") for x in _grid(lo, hi, grid_size)]
    # f must increase (concave case) or decrease (convex case)
    worst_f = _worst([sign * (a - b) for a, b in zip(fv, fv[1:])], fv)

    return StructureReport(
        case=e.case,
        grid_size=grid_size,
        tol=tol,
        f_monotone=worst_f <= tol,
        g_additive=worst_add <= tol,
        g_curvature=worst_curv <= tol,
        worst_f_violation=worst_f,
        worst_additive_violation=worst_add,
        worst_curvature_violation=worst_curv,
    )


# ---------------------------------------------------------------------------
# Hardy-Littlewood-Polya comparison
# ---------------------------------------------------------------------------

@frozen
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
    tol: float = CHECK_TOL,
) -> ComparisonReport:
    """Compare ``sum phi(x)`` against ``sum phi(y)``.

    For a continuous ``phi`` with ``phi(0) = 0``, prefix dominance of the
    nonincreasing ``x`` by ``y`` (equal totals) forces ``sum phi(x) >= sum
    phi(y)`` when ``phi`` is concave and ``<=`` when convex; ``confirmed``
    reports that direction within ``tol``.  Each sum adds left to right; a
    ``phi`` value that is not a real number (:func:`_real`), or a sum
    beyond float range, is a ValidationError."""
    check_type(inp, HlpInput, "comparison input")
    if not callable(phi):
        raise ValidationError(f"phi must be callable, got {phi!r}")
    if not isinstance(shape, str) or shape not in ("concave", "convex"):
        raise ValidationError(f"shape must be 'concave' or 'convex', got {shape!r}")
    check_tolerance(tol)
    try:
        sum_x, sum_y = (_sum_in_order([_real(phi, v, "phi") for v in seq])
                        for seq in (inp.x_seq, inp.y_seq))
    except OverflowError:
        raise ValidationError("phi of an entry exceeds float range") from None
    if not (math.isfinite(sum_x) and math.isfinite(sum_y)):
        raise ValidationError(f"the phi sums are not finite: {sum_x} and {sum_y}")
    if shape == "concave":
        confirmed = sum_x >= sum_y - tol
    else:
        confirmed = sum_x <= sum_y + tol
    return ComparisonReport(sum_x=sum_x, sum_y=sum_y, shape=shape, confirmed=confirmed)
