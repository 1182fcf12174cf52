import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
    CompositionCase,
    DiscreteSpace,
    EntropyFunctional,
    HlpInput,
    Measure,
    SetFamily,
    ValidationError,
    builtin_functionals,
    check_structure,
    cover_entropy,
    evaluate,
    hlp_compare,
    parse_functional,
    partition_entropy,
    renyi,
    shannon,
    tsallis,
    tsallis_mixture_bounds,
)

from bad_values import BAD_ALPHAS, BAD_GRID_SIZES, BAD_TOLS

# frozen against an independent 50-digit evaluation (mpmath)
RENYI3_HALF_QUARTERS = 1.3390359525563188
TSALLIS_HALF_QUARTER_THREEQ = 0.7320508075688773


@st.composite
def sub_probability_vectors(draw, max_len=8):
    n = draw(st.integers(min_value=1, max_value=max_len))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    total = sum(raw)
    if total <= 1e-9:
        return [1.0 / n] * n
    return [v / total for v in raw]


class TestBuiltinValues:
    def test_shannon_uniform_two(self):
        assert evaluate(shannon(), [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_shannon_deterministic(self):
        assert evaluate(shannon(), [1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_shannon_uniform_four(self):
        assert evaluate(shannon(), [0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_renyi_two_uniform_four(self):
        assert evaluate(renyi(2), [0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_renyi_two_deterministic(self):
        assert evaluate(renyi(2), [1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_renyi_half_uniform_two(self):
        assert evaluate(renyi(0.5), [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_renyi_three_mixed(self):
        v = evaluate(renyi(3), [0.5, 0.25, 0.25])
        assert v == pytest.approx(RENYI3_HALF_QUARTERS, abs=1e-12)

    def test_tsallis_two_uniform_two(self):
        assert evaluate(tsallis(2), [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_tsallis_two_deterministic(self):
        assert evaluate(tsallis(2), [1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_tsallis_half_skewed(self):
        v = evaluate(tsallis(0.5), [0.25, 0.75])
        assert v == pytest.approx(TSALLIS_HALF_QUARTER_THREEQ, abs=1e-12)


class TestAlphaValidation:
    @pytest.mark.parametrize("ctor", [renyi, tsallis])
    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_rejects_bad_alpha(self, ctor, alpha):
        with pytest.raises(ValidationError):
            ctor(alpha)

    @pytest.mark.parametrize("ctor", [renyi, tsallis])
    def test_alpha_one_points_to_shannon(self, ctor):
        with pytest.raises(ValidationError, match="shannon"):
            ctor(1.0)


def custom(**fields):
    """A functional with tsallis(2)'s fields, some replaced by ``fields``."""
    t = tsallis(2.0)
    base = dict(name="custom", alpha=None, f=t.f, g=t.g, case=t.case)
    return EntropyFunctional(**{**base, **fields})


class TestFunctionalFields:
    @pytest.mark.parametrize("fields, what", [
        (dict(name=3), "name"),
        (dict(name=None), "name"),
        (dict(f=None), "callable"),
        (dict(g=None), "callable"),
        (dict(g=2.0), "callable"),
        (dict(case="x"), "case"),
        (dict(case="increasing-subadditive-concave"), "case"),
        (dict(alpha=math.nan), "alpha"),
        (dict(alpha=math.inf), "alpha"),
        (dict(alpha=True), "alpha"),
        (dict(alpha="2"), "alpha"),
    ], ids=["int-name", "no-name", "no-f", "no-g", "number-g", "string-case",
            "case-value", "nan-alpha", "inf-alpha", "bool-alpha", "string-alpha"])
    def test_bad_field_rejected(self, fields, what):
        with pytest.raises(ValidationError, match=what):
            custom(**fields)

    @pytest.mark.parametrize("alpha", [None, 2.0, 2, np.float64(0.5)])
    def test_good_fields_accepted(self, alpha):
        assert custom(alpha=alpha).alpha == alpha


class TestEvaluateContract:
    @pytest.mark.parametrize("g_value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, g_value):
        # f is the identity, so f of the g-sum is g_value itself
        e = custom(f=lambda s: s, g=lambda t: g_value)
        with pytest.raises(ValidationError, match="not finite"):
            evaluate(e, [0.5, 0.5])
        space = DiscreteSpace(2)
        mu = Measure(space, [0.5, 0.5], probability=True)
        with pytest.raises(ValidationError, match="not finite"):
            cover_entropy(e, mu, SetFamily.of(space, [[0], [1]]))

    @pytest.mark.parametrize("fields", [
        dict(g=lambda t: None),
        dict(f=lambda s: None),
        dict(f=lambda s: "a"),
        # a string that float() would read is no number either
        dict(f=lambda s: "0.5"),
    ], ids=["g-none", "f-none", "f-letter", "f-numeric-string"])
    def test_value_that_is_no_real_rejected(self, fields):
        e = custom(**fields)
        with pytest.raises(ValidationError, match="not finite"):
            evaluate(e, [0.5, 0.5])
        space = DiscreteSpace(2)
        mu = Measure(space, [0.5, 0.5], probability=True)
        with pytest.raises(ValidationError, match="not finite"):
            partition_entropy(e, mu, SetFamily.of(space, [[0], [1]]))

    def test_zero_masses_skipped(self):
        assert evaluate(shannon(), [0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            evaluate(shannon(), [-0.1, 0.5])

    def test_rejects_mass_above_one(self):
        with pytest.raises(ValidationError):
            evaluate(shannon(), [1.5])

    def test_rejects_total_above_one(self):
        with pytest.raises(ValidationError):
            evaluate(shannon(), [0.8, 0.8])

    @pytest.mark.parametrize("masses", [[math.nan, 0.5], [0.5, math.nan], [math.nan]])
    def test_rejects_nan_mass(self, masses):
        with pytest.raises(ValidationError, match="non-finite"):
            evaluate(shannon(), masses)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            evaluate(shannon(), [[0.5], [0.5]])

    # no positive mass, or one whose square is below float range: the g-sum
    # is 0 and has no logarithm
    @pytest.mark.parametrize("masses", [[0.0], [], [5e-324]])
    def test_renyi_without_positive_g_sum_rejected(self, masses):
        with pytest.raises(ValidationError, match="positive g-sum"):
            evaluate(renyi(2.0), masses)

    # numpy would cast a boolean mixed with numbers to 1.0 or 0.0
    @pytest.mark.parametrize("masses", [["a"], [0.5, "0.5"], [None], [True], "ab",
                                        [True, 0.0], [0.5, np.True_], (0.5, False)])
    def test_rejects_non_numbers(self, masses):
        with pytest.raises(ValidationError, match="numbers"):
            evaluate(shannon(), masses)

    @given(sub_probability_vectors())
    @settings(max_examples=150)
    def test_nonnegative_on_distributions(self, p):
        for e in builtin_functionals():
            assert evaluate(e, p) >= -1e-12

    def test_zero_on_point_mass(self):
        for e in builtin_functionals():
            assert evaluate(e, [1.0]) == pytest.approx(0.0, abs=1e-15)

    @given(sub_probability_vectors(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance(self, p, rnd):
        q = list(p)
        rnd.shuffle(q)
        for e in builtin_functionals():
            assert evaluate(e, q) == pytest.approx(evaluate(e, p), abs=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1e-6, max_value=0.5),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    )
    @settings(max_examples=200)
    def test_merging_never_increases(self, a, b, rest):
        # merging two positive masses lowers (or keeps) every built-in value
        total_rest = sum(rest)
        if total_rest > 0:
            budget = 1.0 - (a + b)
            rest = [v / total_rest * budget * 0.999 for v in rest]
        merged = [a + b] + rest
        split = [a, b] + rest
        for e in builtin_functionals():
            assert evaluate(e, merged) <= evaluate(e, split) + 1e-12


class TestAlphaNearOneLimit:
    """The power form converges in natural-log units: a factor ln 2 away from
    the base-2 Shannon value."""

    @given(sub_probability_vectors())
    @settings(max_examples=100)
    def test_limit_matches_natural_log_shannon(self, p):
        target = math.log(2) * evaluate(shannon(), p)
        for eps in (1e-4, -1e-4):
            assert evaluate(tsallis(1 + eps), p) == pytest.approx(target, abs=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="(sum p**a - 1)/(1-a) tends to the natural-log entropy, which is "
        "ln2 times the base-2 value; base-2 agreement at a = 1 +/- 1e-4 "
        "therefore cannot hold for distributions with entropy of order 1",
    )
    def test_limit_does_not_match_base_two_shannon(self):
        p = [0.5, 0.25, 0.25]
        for eps in (1e-4, -1e-4):
            assert evaluate(tsallis(1 + eps), p) == pytest.approx(
                evaluate(shannon(), p), abs=1e-3
            )


class TestCaseClassification:
    def test_shannon_is_decreasing_convex(self):
        assert shannon().case is CompositionCase.DECREASING_SUPERADDITIVE_CONVEX

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.99])
    def test_low_alpha_is_increasing_concave(self, alpha):
        expected = CompositionCase.INCREASING_SUBADDITIVE_CONCAVE
        assert renyi(alpha).case is expected
        assert tsallis(alpha).case is expected

    @pytest.mark.parametrize("alpha", [1.01, 2.0, 4.0])
    def test_high_alpha_is_decreasing_convex(self, alpha):
        expected = CompositionCase.DECREASING_SUPERADDITIVE_CONVEX
        assert renyi(alpha).case is expected
        assert tsallis(alpha).case is expected

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 4.0])
    def test_declared_cases_confirmed_numerically(self, alpha):
        # the classification is not taken on trust: the grid check agrees
        for e in (renyi(alpha), tsallis(alpha)):
            assert check_structure(e, grid_size=201, tol=1e-9).passed


class TestStructureCheck:
    def test_shannon_passes(self):
        report = check_structure(shannon(), grid_size=101, tol=1e-9)
        assert report.passed

    def test_tsallis_two_passes(self):
        assert check_structure(tsallis(2), grid_size=101, tol=1e-9).passed

    def test_planted_square_fails_additivity_and_curvature(self):
        planted = EntropyFunctional(
            name="planted-square",
            alpha=None,
            f=lambda x: x,
            g=lambda t: t * t,
            case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
        )
        report = check_structure(planted, grid_size=101, tol=1e-9)
        assert report.f_monotone          # identity is increasing
        assert not report.g_additive      # t^2 is superadditive, not subadditive
        assert not report.g_curvature     # and convex, not concave
        assert not report.passed

    def test_grid_too_small(self):
        with pytest.raises(ValidationError):
            check_structure(shannon(), grid_size=2)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            check_structure(shannon(), grid_size=11, tol=tol)

    @pytest.mark.parametrize("grid_size", BAD_GRID_SIZES)
    def test_bad_grid_size_rejected(self, grid_size):
        with pytest.raises(ValidationError, match="grid_size"):
            check_structure(shannon(), grid_size=grid_size)

    def test_violation_magnitudes_reported(self):
        planted = EntropyFunctional(
            name="planted-square", alpha=None, f=lambda x: x, g=lambda t: t * t,
            case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
        )
        report = check_structure(planted, grid_size=101, tol=1e-9)
        assert report.worst_additive_violation > 0.1
        assert report.worst_curvature_violation > 0.0
        # a non-finite probe is an infinite violation, not a false comparison
        nan_g = EntropyFunctional(
            name="nan-g", alpha=None, f=lambda x: x, g=lambda t: math.nan,
            case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
        )
        report = check_structure(nan_g, grid_size=11, tol=1e-9)
        assert not report.passed
        assert report.worst_additive_violation == report.worst_curvature_violation == math.inf
        inf_f = EntropyFunctional(
            name="inf-f", alpha=None, f=lambda x: math.inf, g=shannon().g,
            case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX,
        )
        report = check_structure(inf_f, grid_size=11, tol=1e-9)
        assert not report.passed and not report.f_monotone
        assert report.worst_f_violation == math.inf
        assert report.g_additive and report.g_curvature

    @pytest.mark.parametrize("big", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
    def test_integer_beyond_float_range_is_an_infinite_violation(self, big):
        # float(10**400) raises OverflowError; the probe counts it as an
        # infinity of its sign, so the check reports it rather than raising
        huge_g = EntropyFunctional(
            name="huge-g", alpha=None, f=lambda x: x, g=lambda t: big if t > 0.5 else t,
            case=CompositionCase.INCREASING_SUBADDITIVE_CONCAVE,
        )
        report = check_structure(huge_g, grid_size=11, tol=1e-9)
        assert not report.passed
        assert report.worst_additive_violation == report.worst_curvature_violation == math.inf
        huge_f = EntropyFunctional(
            name="huge-f", alpha=None, f=lambda x: big, g=shannon().g,
            case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX,
        )
        report = check_structure(huge_f, grid_size=11, tol=1e-9)
        assert report.worst_f_violation == math.inf and not report.f_monotone
        assert report.g_additive and report.g_curvature


    def test_probes_at_the_grid_cap_fit_in_little_memory(self):
        # the additivity check makes about 1e6 probes at grid_size 2001, and
        # keeps only their running worst and finiteness, not the probes
        tracemalloc.start()
        try:
            check_structure(shannon(), 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10 ** 6


class TestParseFunctional:
    def test_shannon(self):
        assert parse_functional("shannon").name == "shannon"

    def test_renyi_with_alpha(self):
        e = parse_functional("renyi:2.0")
        assert e.name == "renyi:2" and e.alpha == 2.0

    def test_tsallis_with_alpha(self):
        e = parse_functional("tsallis:0.5")
        assert e.alpha == 0.5

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            parse_functional("hartley")

    def test_bad_alpha_literal(self):
        with pytest.raises(ValidationError):
            parse_functional("tsallis:x")

    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError):
            parse_functional("renyi:1")

    @pytest.mark.parametrize("spec", [5, None, b"shannon", ["shannon"]])
    def test_non_string_rejected(self, spec):
        with pytest.raises(ValidationError, match="string"):
            parse_functional(spec)

    def test_equal_orders_give_equal_functionals(self):
        assert shannon() == shannon() and hash(shannon()) == hash(parse_functional("shannon"))
        assert renyi(2) == renyi(2.0) and hash(renyi(2)) == hash(renyi(2.0))
        assert tsallis(0.5) == parse_functional("tsallis:0.5")
        assert hash(tsallis(0.5)) == hash(parse_functional(" Tsallis:0.50 "))
        for e in builtin_functionals():
            assert e == parse_functional(e.name) and hash(e) == hash(parse_functional(e.name))
        assert renyi(2) != tsallis(2) and renyi(2) != renyi(3) and shannon() != tsallis(2)


def _custom(f=lambda x: -x, g=shannon().g):
    return EntropyFunctional(name="custom", alpha=None, f=f, g=g,
                             case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX)


_HLP = HlpInput((0.5, 0.5), (0.7, 0.3))

# a caller's f, g or phi that returns something other than a real number
NOT_REAL = {
    "check_structure f str": (lambda: check_structure(_custom(f=str)), "f"),
    "check_structure g None": (lambda: check_structure(_custom(g=lambda t: None)), "g"),
    "check_structure g str": (lambda: check_structure(_custom(g=lambda t: str(t * t))), "g"),
    "check_structure g bool": (lambda: check_structure(_custom(g=lambda t: t > 0.5)), "g"),
    "hlp_compare phi None": (lambda: hlp_compare(_HLP, lambda t: None, "convex"), "phi"),
    "hlp_compare phi str": (lambda: hlp_compare(_HLP, lambda t: "0.1", "convex"), "phi"),
}


@pytest.mark.parametrize("call, what", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_caller_function_values_must_be_real(call, what):
    with pytest.raises(ValidationError, match=f"^{what} gives .* not a real number"):
        call()


def test_reported_sums_add_left_to_right():
    # builtin sum compensates from Python 3.12 on; a report added left to
    # right reads the same under every Python version
    tenths = [0.1] * 10
    left = functools.partial(functools.reduce, operator.add)
    assert left(tenths) != math.fsum(tenths)
    assert hlp_compare(HlpInput(tenths, tenths), lambda t: t, "concave").sum_x == left(tenths)
    lower, upper = tsallis_mixture_bounds([1.0] * 10, tenths, 2.0)
    powers = [c ** 2.0 for c in tenths]
    assert lower == left(tenths)
    assert upper == left(powers) + (left(powers) - 1.0) / (1.0 - 2.0)
