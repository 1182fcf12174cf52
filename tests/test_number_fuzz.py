"""Fuzz of the boundaries that read lists of numbers: whatever they are given,
they return or raise ValidationError, and no other exception escapes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
    DiscreteSpace,
    HlpInput,
    Measure,
    MixtureSpec,
    SetFamily,
    ValidationError,
    WeightedDivision,
    evaluate,
    hlp_compare,
    parse_division,
    parse_instance,
    parse_mixture,
    renyi,
    shannon,
    tsallis,
    tsallis_mixture_bounds,
)

SPACE = DiscreteSpace(2)
MU = Measure(SPACE, [0.5, 0.5], probability=True)
Q = SetFamily.of(SPACE, [[0, 1], [1]])
FUNCTIONALS = (shannon(), tsallis(2.0), renyi(2.0))

FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, 5e-324,
                          0.25, 0.5, 1.0]) | st.floats()
# int64 ends, beyond int64, and beyond float range
INTS = st.sampled_from([0, 1, 2 ** 63, 2 ** 64, -(2 ** 63) - 1, 10 ** 400, -(10 ** 400)]) | st.integers()
NUMPY_SCALARS = st.sampled_from([np.float64(0.5), np.float32(0.25), np.float64("nan"),
                                 np.int64(1), np.uint8(0), np.bool_(True), np.array(0.5)])
ARRAYS = (st.lists(FLOATS, max_size=4).map(np.array)
          | st.lists(st.integers(-3, 3), max_size=4).map(np.array)
          | st.lists(st.booleans(), max_size=4).map(np.array)
          | st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=3).map(np.array))
LEAVES = (FLOATS | INTS | st.booleans() | NUMPY_SCALARS | ARRAYS
          | st.text(max_size=3) | st.none() | st.binary(max_size=2))
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=12)


def rejects_or_returns(call):
    try:
        call()
    except ValidationError:
        pass


def boundary_calls(u, v):
    """One call of each number-reading boundary on the values ``u`` and ``v``."""
    yield lambda: Measure(SPACE, v)
    for e in FUNCTIONALS:
        yield lambda e=e: evaluate(e, v)
    yield lambda: WeightedDivision(MU, Q, v)
    yield lambda: parse_instance({"n": 2, "mu": v, "cover": [[0, 1]]})
    yield lambda: parse_division({"cover_index_rows": v}, MU, Q)
    yield lambda: parse_mixture({"n": 2, "coefficients": u, "measures": v,
                                 "cover": [[0, 1]], "functional": "shannon"})
    yield lambda: HlpInput(u, v)
    for e in FUNCTIONALS:
        shape = "concave" if e.minimizes_g_sum else "convex"
        yield lambda e=e, shape=shape: hlp_compare(HlpInput(u, v), e.g, shape)
    pairs = [(c, MU) for c in u] if isinstance(u, (list, tuple)) else u
    yield lambda: MixtureSpec(pairs)
    yield lambda: tsallis_mixture_bounds(u, v, 2.0)


@given(VALUES, VALUES)
@settings(max_examples=400, deadline=None)
def test_number_boundaries_raise_only_validation_errors(u, v):
    for call in boundary_calls(u, v):
        rejects_or_returns(call)


@given(st.lists(FLOATS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_float_sequences_raise_only_validation_errors(x):
    # equal sequences pass every HLP order check, so the sums get reached
    y = sorted(x, reverse=True)
    for call in boundary_calls(y, y):
        rejects_or_returns(call)
