import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
    CompositionCase,
    EntropyFunctional,
    ValidationError,
    builtin_functionals,
    check_structure,
    evaluate,
    parse_functional,
    renyi,
    shannon,
    tsallis,
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


class TestEvaluateContract:
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
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            evaluate(shannon(), masses)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            evaluate(shannon(), [[0.5], [0.5]])

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
