"""Generalized entropy functionals of the form ``f(sum_i g(m_i))``.

A functional is admissible for this package when either

* ``f`` is increasing and ``g`` is subadditive and concave, or
* ``f`` is decreasing and ``g`` is superadditive and convex.

Under either case, merging two positive masses never increases the value,
which is what makes the cover-entropy search over merged assignments exact.
Shannon, Renyi-alpha and Tsallis-alpha (base-2 logs, ``alpha`` in
``(0, inf) \\ {1}``) are provided as built-ins; arbitrary ``(f, g)`` pairs can
be wrapped and checked numerically with
:func:`~coverentropy.probes.check_structure`.

Functionals are immutable value objects; :func:`evaluate` is pure.  The
input of the Hardy-Littlewood-Polya comparison, :class:`HlpInput`, lives
here too; the comparison itself is :func:`~coverentropy.probes.hlp_compare`.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, Sequence

from .errors import ValidationError
from .measure import (
    MASS_TOL,
    _mass_vector,
    check_type,
    frozen,
    is_finite_number,
    real_list,
)

class CompositionCase(enum.Enum):
    """Which of the two admissible (f, g) shapes a functional declares."""

    INCREASING_SUBADDITIVE_CONCAVE = "increasing-subadditive-concave"
    DECREASING_SUPERADDITIVE_CONVEX = "decreasing-superadditive-convex"


@frozen
class EntropyFunctional:
    """An ``f(sum g(mass))`` functional with its declared composition case.

    The cover-entropy search calls ``g`` itself and relies on the declared
    case; :func:`~coverentropy.probes.check_structure` probes it
    numerically.  Construction checks the field types: a ``str`` name,
    callable ``f`` and ``g``, a :class:`CompositionCase`, and ``alpha``
    ``None`` or a finite number.
    """

    name: str
    alpha: float | None
    f: Callable[[float], float]
    g: Callable[[float], float]
    case: CompositionCase

    def __post_init__(self) -> None:
        check_type(self.name, str, "name")
        if not (callable(self.f) and callable(self.g)):
            raise ValidationError(f"f and g must be callable, got {self.f!r} and {self.g!r}")
        check_type(self.case, CompositionCase, "case")
        if self.alpha is not None and not is_finite_number(self.alpha):
            raise ValidationError(f"alpha must be None or a finite number, got {self.alpha!r}")

    @property
    def minimizes_g_sum(self) -> bool:
        """True when minimizing the functional means minimizing ``sum g``."""
        return self.case is CompositionCase.INCREASING_SUBADDITIVE_CONCAVE

    def __call__(self, masses: Sequence[float]) -> float:
        return evaluate(self, masses)

    def __repr__(self) -> str:  # keep reprs short in reports and errors
        return f"EntropyFunctional({self.name!r})"


def evaluate(e: EntropyFunctional, masses: Sequence[float]) -> float:
    """Apply ``f`` to the g-sum over the strictly positive entries.

    The checked entry for a caller's list: ``masses`` must be a mass vector
    (:func:`~coverentropy.measure._mass_vector`), so a NaN, a negative entry
    or a string is rejected; zero entries contribute nothing (the ``g(0) =
    0`` convention built into every ``g`` here).
    """
    check_type(e, EntropyFunctional, "functional")
    return _g_sum_value(e, _mass_vector(masses, "masses"))


def _g_sum(e: EntropyFunctional, masses: Sequence[float]) -> float:
    """The g-sum over the positive entries, added in list order; a ``g``
    term that is not a finite real (:func:`is_finite_number`) is a
    ValidationError."""
    g, inf, s = e.g, math.inf, 0.0
    for m in masses:
        if m > 0.0:
            t = g(m)
            # a float is tested inline, without a call per term
            if not (-inf < t < inf if t.__class__ is float else is_finite_number(t)):
                raise ValidationError(f"g is not finite at mass {m!r}: it gives {t!r}")
            s += t
    return s


def _f_value(e: EntropyFunctional, s: float) -> float:
    """``f(s)`` as a float; a value that is not a finite real is a ValidationError."""
    value = e.f(s)
    if not (-math.inf < value < math.inf if value.__class__ is float else is_finite_number(value)):
        raise ValidationError(f"{e!r} is not finite at g-sum {s}: f gives {value!r}")
    return float(value)


def _g_sum_value(e: EntropyFunctional, masses: Sequence[float]) -> float:
    """``f`` of :func:`_g_sum`: the one definition of the value, its masses
    unchecked.  :func:`evaluate` is the mass-vector rule plus this; masses
    derived from an already valid object (a witness, a checked partition, a
    division) are valued by this directly."""
    return _f_value(e, _g_sum(e, masses))


def _sum_in_order(values) -> float:
    """``values`` added left to right: builtin ``sum`` compensates float sums
    from Python 3.12 on, so reports built on it would change with the version."""
    s = 0.0
    for v in values:
        s += v
    return float(s)


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------

def _g_shannon(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


_SHANNON = EntropyFunctional(
    name="shannon",
    alpha=None,
    f=lambda x: -x,
    g=_g_shannon,
    # f is decreasing; t*log2(t) is convex and, with g(0)=0, superadditive.
    case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX,
)


def shannon() -> EntropyFunctional:
    """Base-2 Shannon entropy: ``f(x) = -x``, ``g(t) = t*log2(t)``; one
    value, so every call returns an equal functional."""
    return _SHANNON


def _check_alpha(alpha) -> float:
    if not is_finite_number(alpha) or alpha <= 0:
        raise ValidationError(f"alpha must be a finite number in (0, inf), got {alpha!r}")
    if alpha == 1:
        raise ValidationError("alpha=1 is excluded; use shannon() for that limit")
    return float(alpha)


def _power_functional(family: str, alpha, f) -> EntropyFunctional:
    """The ``family:alpha`` functional with ``g(t) = t**alpha`` and outer map
    ``f(s, alpha)``; the one place the power families check ``alpha``.  Each
    ``(family, alpha)`` is built once and kept while the process runs, so
    equal orders give one value, equal and with one hash."""
    return _power_of(family, _check_alpha(alpha), f)


@functools.cache
def _power_of(family: str, alpha: float, f) -> EntropyFunctional:
    # t**alpha is concave and subadditive for alpha < 1, convex and
    # superadditive for alpha > 1; the outer map's direction flips with the
    # sign of 1/(1-alpha) so both regimes stay admissible.
    return EntropyFunctional(
        name=f"{family}:{alpha:g}",
        alpha=alpha,
        f=lambda s: f(s, alpha),
        g=lambda t: t ** alpha if t > 0.0 else 0.0,
        case=(CompositionCase.INCREASING_SUBADDITIVE_CONCAVE if alpha < 1.0
              else CompositionCase.DECREASING_SUPERADDITIVE_CONVEX),
    )


def _renyi_f(s: float, alpha: float) -> float:
    # no positive g-sum: all masses zero, or their powers below float range
    if not s > 0.0:
        raise ValidationError(f"the Renyi entropy needs a positive g-sum, got {s}")
    return math.log2(s) / (1.0 - alpha)


def _tsallis_f(s: float, alpha: float) -> float:
    return (s - 1.0) / (1.0 - alpha)


def renyi(alpha: float) -> EntropyFunctional:
    """Renyi entropy of order alpha: ``f(s) = log2(s)/(1-alpha)``, ``g(t) = t**alpha``.

    A g-sum that is not positive has no logarithm: ValidationError."""
    return _power_functional("renyi", alpha, _renyi_f)


def tsallis(alpha: float) -> EntropyFunctional:
    """Tsallis entropy of order alpha: ``f(s) = (s-1)/(1-alpha)``, ``g(t) = t**alpha``."""
    return _power_functional("tsallis", alpha, _tsallis_f)


def builtin_functionals() -> tuple[EntropyFunctional, ...]:
    """A representative spread used by the self test and benchmarks."""
    return (shannon(), renyi(0.5), renyi(2.0), tsallis(0.5), tsallis(2.0))


def parse_functional(spec: str) -> EntropyFunctional:
    """Parse a selection string: ``shannon``, ``renyi:ALPHA`` or ``tsallis:ALPHA``."""
    if not isinstance(spec, str):
        raise ValidationError(f"functional must be a string, got {spec!r}")
    text = spec.strip().lower()
    if text == "shannon":
        return shannon()
    for prefix, ctor in (("renyi:", renyi), ("tsallis:", tsallis)):
        if text.startswith(prefix):
            raw = text[len(prefix):]
            try:
                alpha = float(raw)
            except ValueError as exc:
                raise ValidationError(f"bad alpha literal {raw!r} in {spec!r}") from exc
            return ctor(alpha)
    raise ValidationError(
        f"unknown functional {spec!r}; expected shannon, renyi:ALPHA or tsallis:ALPHA"
    )


# ---------------------------------------------------------------------------
# Hardy-Littlewood-Polya input
# ---------------------------------------------------------------------------

@frozen
class HlpInput:
    """Equal-total sequences with ``x`` nonincreasing and prefix-dominated by ``y``.

    Each is given as a list or tuple of finite nonnegative numbers
    (:func:`~coverentropy.measure.real_list`) and kept as a tuple of floats;
    totals must stay in float range."""

    x_seq: tuple[float, ...]
    y_seq: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.x_seq, (list, tuple)) and isinstance(self.y_seq, (list, tuple))):
            raise ValidationError("x and y must be lists or tuples of numbers")
        x, y = real_list(self.x_seq, "x"), real_list(self.y_seq, "y")
        if not all(0.0 <= v < math.inf for v in x + y):  # false for NaN too
            raise ValidationError("sequence entries must be finite and nonnegative numbers")
        object.__setattr__(self, "x_seq", x)
        object.__setattr__(self, "y_seq", y)
        if len(x) != len(y):
            raise ValidationError("x and y must have the same length")
        if any(x[i] < x[i + 1] for i in range(len(x) - 1)):
            raise ValidationError("x must be nonincreasing")
        try:
            sum_x, sum_y = math.fsum(x), math.fsum(y)
        except OverflowError:
            raise ValidationError("the totals of x and y exceed float range") from None
        if abs(sum_x - sum_y) > MASS_TOL:
            raise ValidationError(
                f"totals differ: sum x = {sum_x}, sum y = {sum_y}"
            )
        px = py = 0.0
        for i in range(len(x)):
            px += x[i]
            py += y[i]
            # running sums drift by rounding, past MASS_TOL at large totals: a
            # prefix they flag is decided on its exact totals, which the
            # running sums then restart from
            if px > py + MASS_TOL:
                px, py = math.fsum(x[:i + 1]), math.fsum(y[:i + 1])
                if px > py + MASS_TOL:
                    raise ValidationError(
                        f"prefix dominance fails at position {i}: {px} > {py}"
                    )
