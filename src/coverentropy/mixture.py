"""Mixtures of probability measures and sharp cover-entropy bounds.

For a convex combination ``mu = sum a_i * mu_i``, a cover ``q`` and any
admissible ``f(sum g(.))``, let ``m_ij`` be the block masses of component
``i``'s optimal partition and ``s_i = sum_j g(m_ij)``.  The mixture's cover
entropy lies between ``f(L)`` and ``f(U)``, where ``L = sum_i a_i * s_i`` and
``U = sum_i sum_j g(a_i * m_ij)``.  Proof for concave ``g`` (convex flips
every inequality, and ``f`` decreases): by concavity every partition's
g-sum is at least ``L``; by subadditivity the mixed division ``a_i * m_ij``
has a g-sum at most ``U``, and divisions attain the partition optimum.
For Tsallis this is ``sum a_i * H_i`` and ``sum a_i**alpha * H_i + (sum
a_i**alpha - 1) / (1 - alpha)``, for Shannon ``sum a_i * H_i`` plus the
base-2 coefficient entropy: :func:`tsallis_mixture_bounds` and
:func:`shannon_mixture_bounds`.  Both ends are attained: point masses on
disjoint atoms with a singleton cover hit the upper bound exactly,
identical components hit the lower one.  An infinite weighted component
entropy makes both bounds infinite, and they hold vacuously when the
mixture's entropy is infinite too; :func:`verify_mixture_bounds` rejects
the one other case, a mixture covered within ``MASS_TOL`` with a weighted
component that is not.

Component entropies are computed with the exact classical search, so the
containment checks here are exact at this scale rather than epsilon
approximate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .classical import DEFAULT_BUDGET, _block_masses, cover_entropy
from .errors import ValidationError
from .functionals import (
    EntropyFunctional, _check_alpha, _f_value, _g_sum, _sum_in_order, parse_functional)
from .measure import (
    CHECK_TOL,
    MASS_TOL,
    DiscreteSpace,
    Measure,
    SetFamily,
    _mass_vector,
    _require_shared_space,
    check_integer,
    check_type,
    frozen,
    is_finite_number,
    parse_blocks,
    real_list,
)

if TYPE_CHECKING:
    from .weighted import WeightedDivision


def _listed(values, what: str) -> list:
    """``values`` as a list if it is iterable, else a ValidationError."""
    try:
        return list(values)
    except TypeError as exc:
        raise ValidationError(f"{what} must be a sequence, got {values!r}") from exc


def _coefficients(values) -> tuple[float, ...]:
    """``values`` as floats if they form a probability vector
    (:func:`~coverentropy.measure._mass_vector`), else a ValidationError."""
    return _mass_vector(_listed(values, "coefficients"), "coefficients", probability=True)


@frozen
class MixtureSpec:
    """Coefficients and probability measures of a mixture, on one space."""

    components: tuple[tuple[float, Measure], ...]

    def __post_init__(self) -> None:
        comps = _listed(self.components, "components")
        if not comps:
            raise ValidationError("a mixture needs at least one component")
        if not all(isinstance(c, (tuple, list)) and len(c) == 2 for c in comps):
            raise ValidationError("components must be (coefficient, Measure) pairs")
        coeffs = _coefficients([a for a, _ in comps])
        for _, m in comps:
            check_type(m, Measure, "components")
            _require_shared_space(m, comps[0][1])
            if abs(m.total - 1.0) > MASS_TOL:
                raise ValidationError("every component must be a probability measure")
        object.__setattr__(self, "components", tuple(zip(coeffs, [m for _, m in comps])))

    @property
    def space(self):
        return self.components[0][1].space

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.components)

    @property
    def measures(self) -> tuple[Measure, ...]:
        return tuple(m for _, m in self.components)

    def drop_zero_coefficients(self) -> "MixtureSpec":
        """Components with zero weight contribute nothing and are removed."""
        kept = tuple((a, m) for a, m in self.components if a > 0.0)
        if len(kept) == len(self.components):
            return self
        return MixtureSpec(kept)


def mix(spec: MixtureSpec) -> Measure:
    """Atomwise convex combination of the components, divided by its total
    when that misses 1 by more than ``MASS_TOL`` (the coefficients and each
    component's total may each miss 1 by that much)."""
    check_type(spec, MixtureSpec, "spec")
    return _mix(spec)[0]


def _mix(spec: MixtureSpec) -> tuple[Measure, float]:
    """The mixture, and the total it was divided by (1.0 when it was not)."""
    mass = [0.0] * spec.space.n
    for a, m in spec.components:
        mass = [x + a * y for x, y in zip(mass, m.masses)]
    total = math.fsum(mass)
    scale = total if abs(total - 1.0) > MASS_TOL else 1.0
    return Measure(spec.space, [x / scale for x in mass], probability=True), scale


def mix_division(
    spec: MixtureSpec, divisions: Sequence[WeightedDivision]
) -> WeightedDivision:
    """Combine one division per component into a division of the mixture.

    All divisions must live over the same cover and match their component
    measures; each membership's values combine linearly with the mixture
    coefficients, added in component order, and the result is validated
    against the mixed measure (both divided by the same total when
    :func:`mix` divides).
    """
    from .weighted import WeightedDivision  # the bounds themselves never load weighted

    check_type(spec, MixtureSpec, "spec")
    divisions = _listed(divisions, "divisions")
    if len(divisions) != len(spec.components):
        raise ValidationError(
            f"expected {len(spec.components)} divisions, got {len(divisions)}"
        )
    for (_, m), d in zip(spec.components, divisions):
        check_type(d, WeightedDivision, "divisions")
        if d.cover != divisions[0].cover:
            raise ValidationError("all divisions must share one cover")
        if d.mu.masses != m.masses:
            raise ValidationError("division does not divide its component measure")
    mu, scale = _mix(spec)
    cover = divisions[0].cover
    values = [[0.0] * len(s) for s in cover.sets]
    for (a, _), d in zip(spec.components, divisions):
        values = [[x + a * v for x, v in zip(row, more)] for row, more in zip(values, d.values)]
    return WeightedDivision(mu, cover, [[x / scale for x in row] for row in values])


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def _clean_inputs(component_entropies, a):
    """(coefficient, entropy) pairs with a positive coefficient; coefficients
    must be finite numbers, entropies finite numbers or ``None`` (infinite)."""
    entropies = _listed(component_entropies, "component entropies")
    coeffs = _coefficients(a)
    if len(entropies) != len(coeffs):
        raise ValidationError("entropies and coefficients must align")
    for h in entropies:
        if h is not None and not is_finite_number(h):
            raise ValidationError(
                f"component entropies must be finite numbers or None, got {h!r}")
    return [(c, h) for c, h in zip(coeffs, entropies) if c > 0.0]


def _bounds(kept, alpha) -> tuple[float | None, float | None]:
    """Lower and upper bound from (coefficient, entropy) pairs with positive
    coefficients: Tsallis of order ``alpha``, or Shannon when ``alpha is
    None``.  A ``None`` (infinite) entropy makes both bounds ``None``; a
    bound beyond float range is a ValidationError."""
    if any(h is None for _, h in kept):
        return None, None
    lower = _sum_in_order(c * h for c, h in kept)
    if alpha is None:  # the upper bound adds the coefficient entropy
        upper = lower - _sum_in_order(c * math.log2(c) for c, _ in kept)
    else:
        powers = [c ** alpha for c, _ in kept]
        upper = (_sum_in_order(p * h for p, (_, h) in zip(powers, kept))
                 + (_sum_in_order(powers) - 1.0) / (1.0 - alpha))
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValidationError(f"mixture bounds leave float range: {(lower, upper)}")
    return lower, upper


def tsallis_mixture_bounds(
    component_entropies: Sequence[float | None],
    a: Sequence[float],
    alpha: float,
) -> tuple[float | None, float | None]:
    """Sharp Tsallis bounds from component cover entropies.

    ``None`` entries mark infinite component entropies; with a positive
    coefficient they force both bounds to the tagged infinity ``(None,
    None)``.  Zero-coefficient components are dropped first.
    """
    alpha = _check_alpha(alpha)
    return _bounds(_clean_inputs(component_entropies, a), alpha)


def shannon_mixture_bounds(
    component_entropies: Sequence[float | None],
    a: Sequence[float],
) -> tuple[float | None, float | None]:
    """Sharp Shannon bounds: the upper bound adds the coefficient entropy."""
    return _bounds(_clean_inputs(component_entropies, a), None)


# ---------------------------------------------------------------------------
# Verified report
# ---------------------------------------------------------------------------

@frozen
class MixtureBoundReport:
    """Bounds, achieved mixture entropy, and the per-component entropies.

    ``None`` tags infinite values.  Construction raises ValidationError
    unless each value is ``None`` or a finite number and ``lower - tol <=
    achieved <= upper + tol`` whenever all three are finite, so holding a
    report is already the verification.
    """

    lower: float | None
    upper: float | None
    achieved: float | None
    component_entropies: tuple[float | None, ...]
    coefficients: tuple[float, ...]
    alpha: float | None

    def __post_init__(self) -> None:
        entropies = self.component_entropies
        if not isinstance(entropies, (list, tuple)):
            raise ValidationError(
                f"component_entropies must be of type list or tuple, got {type(entropies).__name__}")
        for what, value in (("lower", self.lower), ("upper", self.upper),
                            ("achieved", self.achieved), ("alpha", self.alpha),
                            *(("component entropy", h) for h in entropies)):
            if value is not None and not is_finite_number(value):
                raise ValidationError(f"{what} must be None or a finite number, got {value!r}")
        object.__setattr__(self, "component_entropies", tuple(entropies))
        object.__setattr__(self, "coefficients", real_list(self.coefficients, "coefficients"))
        finite = None not in (self.lower, self.upper, self.achieved)
        if finite and not (self.lower - CHECK_TOL <= self.achieved <= self.upper + CHECK_TOL):
            raise ValidationError(
                f"achieved entropy {self.achieved} escapes [{self.lower}, {self.upper}]")

    @property
    def is_infinite(self) -> bool:
        return self.achieved is None


def verify_mixture_bounds(
    e: EntropyFunctional,
    spec: MixtureSpec,
    q: SetFamily,
    budget: int = DEFAULT_BUDGET,
) -> MixtureBoundReport:
    """Compute component entropies, the achieved value, and check containment.

    For any admissible ``e`` the bounds are ``f(L)`` and ``f(U)``, read from
    ``e.f``, ``e.g`` and the block masses ``m_ij`` of each component's
    witness: ``L = sum a_i * sum_j g(m_ij)`` bounds every partition's g-sum
    by the concavity of ``g``, and ``U = sum g(a_i * m_ij)`` bounds the
    mixed division's by its subadditivity (flipped when convex).  All cover
    entropies come from the exact classical search; budget errors propagate
    to the caller.  A mixture covered within ``MASS_TOL`` with a weighted
    component that is not has no valid bound (the lower one is infinite,
    the achieved value finite): ValidationError.
    """
    check_integer(budget, 1, "budget")
    check_type(e, EntropyFunctional, "functional")
    check_type(spec, MixtureSpec, "spec")
    check_type(q, SetFamily, "cover")
    spec = spec.drop_zero_coefficients()
    _require_shared_space(q, spec)
    results = [cover_entropy(e, m, q, budget=budget) for m in spec.measures]
    achieved = cover_entropy(e, mix(spec), q, budget=budget).value
    lower = upper = None
    if any(r.is_infinite for r in results):
        if achieved is not None:  # the mixture averages the uncovered masses
            raise ValidationError(
                "the mixture is covered within MASS_TOL but a weighted component is not")
    else:
        coeffs = spec.coefficients
        # each witness is a partition the search checked against its measure
        blocks = [_block_masses(m, r.witness) for m, r in zip(spec.measures, results)]
        low = _sum_in_order(a * _g_sum(e, ms) for a, ms in zip(coeffs, blocks))
        high = _g_sum(e, [a * x for a, ms in zip(coeffs, blocks) for x in ms])
        lower, upper = _f_value(e, low), _f_value(e, high)
    return MixtureBoundReport(
        lower=lower,
        upper=upper,
        achieved=achieved,
        component_entropies=tuple(r.value for r in results),
        coefficients=spec.coefficients,
        alpha=e.alpha,
    )


# ---------------------------------------------------------------------------
# Mixture JSON schema
# ---------------------------------------------------------------------------

def parse_mixture(data: dict) -> tuple[MixtureSpec, SetFamily, EntropyFunctional]:
    """Validate ``{"n":, "coefficients":, "measures":, "cover":, "functional":}``."""
    if not isinstance(data, dict):
        raise ValidationError("mixture must be a JSON object")
    missing = {"n", "coefficients", "measures", "cover", "functional"} - set(data)
    if missing:
        raise ValidationError(f"mixture is missing keys: {sorted(missing)}")
    space = DiscreteSpace(data["n"])
    coeffs = data["coefficients"]
    measures = data["measures"]
    if not isinstance(coeffs, list) or not isinstance(measures, list):
        raise ValidationError('"coefficients" and "measures" must be lists')
    if len(coeffs) != len(measures):
        raise ValidationError("one coefficient per measure is required")
    comps = []  # MixtureSpec applies the coefficient rule
    for i, (weight, raw) in enumerate(zip(coeffs, measures)):
        mass = real_list(raw, f"measure {i}")
        if len(mass) != space.n:
            raise ValidationError(f"measure {i} must list {space.n} masses")
        comps.append((weight, Measure(space, mass, probability=True)))
    cover = SetFamily.of(space, parse_blocks(data["cover"], '"cover"'))
    functional = parse_functional(str(data["functional"]))
    return MixtureSpec(tuple(comps)), cover, functional
