import math
import random

import numpy as np
import pytest

from coverentropy import (
    DiscreteSpace,
    EntropyFunctional,
    Measure,
    MixtureSpec,
    SetFamily,
    ValidationError,
    mix,
    mix_division,
    partition_entropy,
    partition_to_division,
    random_division,
    renyi,
    shannon,
    shannon_mixture_bounds,
    tsallis,
    tsallis_mixture_bounds,
    verify_mixture_bounds,
    weighted_entropy,
)
from coverentropy.measure import MASS_TOL
from coverentropy.mixture import MixtureBoundReport
from coverentropy.selftest import random_acceptable_partition, random_probability

from bad_values import BAD_ALPHAS

# mpmath-frozen: 3/sqrt(2) + (2*sqrt(0.5) - 1)/0.5
TSALLIS_UPPER_HALF = 2.9497474683058327
LN2 = math.log(2)


def measure(*mass):
    return Measure(DiscreteSpace(len(mass)), list(mass), probability=True)


def family(n, *blocks):
    return SetFamily.of(DiscreteSpace(n), blocks)


def delta_pair():
    space = DiscreteSpace(2)
    d0 = Measure(space, [1.0, 0.0], probability=True)
    d1 = Measure(space, [0.0, 1.0], probability=True)
    return d0, d1, SetFamily.of(space, [[0], [1]])


class TestMixtureSpec:
    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="must have total 1"):
            MixtureSpec(((0.5, measure(1.0)), (0.4, measure(1.0))))

    def test_components_must_be_probability(self):
        bad = Measure(DiscreteSpace(1), [0.9])
        with pytest.raises(ValidationError, match="probability"):
            MixtureSpec(((1.0, bad),))

    def test_coefficient_range(self):
        with pytest.raises(ValidationError):
            MixtureSpec(((1.5, measure(1.0)), (-0.5, measure(1.0))))

    def test_zero_coefficients_dropped(self):
        spec = MixtureSpec(((1.0, measure(1.0, 0.0)), (0.0, measure(0.0, 1.0))))
        assert len(spec.drop_zero_coefficients().components) == 1

    @pytest.mark.parametrize("coefficient", ["half", "0.5", None, True])
    def test_non_numeric_coefficient_rejected(self, coefficient):
        with pytest.raises(ValidationError, match="coefficients"):
            MixtureSpec(((coefficient, measure(1.0)), (0.5, measure(1.0))))

    @pytest.mark.parametrize("components", [5, None, ((1.0,),), ((1.0, "mu", 0.0),), (1.0,)])
    def test_malformed_components_rejected(self, components):
        with pytest.raises(ValidationError, match="components"):
            MixtureSpec(components)

    @pytest.mark.parametrize("component", [[1.0], np.array([1.0]), None, "mu"])
    def test_non_measure_component_rejected(self, component):
        with pytest.raises(ValidationError, match="Measure"):
            MixtureSpec(((1.0, component),))
        with pytest.raises(ValidationError, match="Measure"):
            MixtureSpec(((0.5, measure(1.0)), (0.5, component)))


class TestMix:
    def test_single_component_identity(self):
        m = measure(0.25, 0.75)
        assert mix(MixtureSpec(((1.0, m),))).masses == (0.25, 0.75)

    def test_point_mass_blend(self):
        d0, d1, _ = delta_pair()
        got = mix(MixtureSpec(((0.5, d0), (0.5, d1))))
        assert got.masses == (0.5, 0.5)

    def test_weighted_blend(self):
        got = mix(MixtureSpec(((0.3, measure(1.0, 0.0)), (0.7, measure(0.5, 0.5)))))
        assert got.masses == pytest.approx((0.65, 0.35))

    def test_total_drift_within_the_spec_tolerances_is_accepted(self):
        # coefficients and the component's total each exceed 1 by 0.9 MASS_TOL,
        # so the blend's total exceeds it by 1.8 MASS_TOL
        m = measure(0.5 + 4.5e-13, 0.5 + 4.5e-13)
        spec = MixtureSpec(((0.5 + 9e-13, m), (0.5, m)))
        assert abs(sum(spec.coefficients) * m.total - 1.0) > MASS_TOL
        got = mix(spec)
        assert got.total == pytest.approx(1.0, abs=1e-15)
        q = family(2, [0, 1])
        d = mix_division(spec, [partition_to_division(m, q, q)] * 2)
        assert d.mu.masses == got.masses
        assert d.rows.sum() == pytest.approx(1.0, abs=1e-15)


class TestMixDivision:
    def test_single_component_identity(self):
        mu = measure(0.5, 0.5)
        q = family(2, [0, 1], [0, 1])
        d = random_division(mu, q, seed=3)
        out = mix_division(MixtureSpec(((1.0, mu),)), [d])
        assert np.allclose(out.rows, d.rows)

    def test_rows_combine_linearly(self):
        d0, d1, q = delta_pair()
        div0 = partition_to_division(d0, family(2, [0]), q)
        div1 = partition_to_division(d1, family(2, [1]), q)
        out = mix_division(MixtureSpec(((0.25, d0), (0.75, d1))), [div0, div1])
        assert out.rows.tolist() == [[0.25, 0.0], [0.0, 0.75]]

    def test_output_always_validates(self):
        rng = random.Random(7)
        for i in range(30):
            n = rng.randint(2, 5)
            mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(2)]
            q = family(n, list(range(n)), list(range(n)))
            divs = [random_division(m, q, seed=i * 2 + j) for j, m in enumerate(mus)]
            a = rng.uniform(0.1, 0.9)
            out = mix_division(MixtureSpec(((a, mus[0]), (1 - a, mus[1]))), divs)
            assert math.fsum(out.row_masses) == pytest.approx(1.0, abs=1e-9)

    def test_cover_mismatch_rejected(self):
        mu = measure(0.5, 0.5)
        d = random_division(mu, family(2, [0, 1], [0, 1]), seed=0)
        d2 = random_division(mu, family(2, [0, 1]), seed=0)
        with pytest.raises(ValidationError, match="cover"):
            mix_division(MixtureSpec(((0.5, mu), (0.5, mu))), [d, d2])

    @pytest.mark.parametrize("divisions", [[None], ["d"], 5, None])
    def test_non_division_rejected(self, divisions):
        with pytest.raises(ValidationError, match="divisions"):
            mix_division(MixtureSpec(((1.0, measure(1.0)),)), divisions)

    def test_measure_mismatch_rejected(self):
        mu = measure(0.5, 0.5)
        other = measure(0.25, 0.75)
        q = family(2, [0, 1], [0, 1])
        d = random_division(mu, q, seed=0)
        with pytest.raises(ValidationError, match="component"):
            mix_division(MixtureSpec(((0.5, other), (0.5, mu))), [d, d])


class TestTsallisBounds:
    def test_zero_entropies_uniform_pair(self):
        lower, upper = tsallis_mixture_bounds([0.0, 0.0], [0.5, 0.5], alpha=2)
        assert lower == 0.0
        assert upper == pytest.approx(0.5)

    def test_degenerate_single_component(self):
        lower, upper = tsallis_mixture_bounds([3.7], [1.0], alpha=2)
        assert lower == upper == pytest.approx(3.7)

    def test_half_alpha_pair(self):
        lower, upper = tsallis_mixture_bounds([1.0, 2.0], [0.5, 0.5], alpha=0.5)
        assert lower == pytest.approx(1.5)
        assert upper == pytest.approx(TSALLIS_UPPER_HALF, abs=1e-12)

    @pytest.mark.parametrize("alpha", [*BAD_ALPHAS, 1.0, -2.0])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValidationError):
            tsallis_mixture_bounds([0.0], [1.0], alpha=alpha)

    def test_infinite_component_propagates(self):
        assert tsallis_mixture_bounds([None, 1.0], [0.5, 0.5], alpha=2) == (None, None)

    def test_zero_weight_infinite_component_ignored(self):
        lower, upper = tsallis_mixture_bounds([1.0, None], [1.0, 0.0], alpha=2)
        assert lower == upper == pytest.approx(1.0)


class TestShannonBounds:
    def test_uniform_coefficients_add_one_bit(self):
        assert shannon_mixture_bounds([1.0, 1.0], [0.5, 0.5]) == (
            pytest.approx(1.0), pytest.approx(2.0))

    def test_zero_coefficient_contributes_nothing(self):
        lower, upper = shannon_mixture_bounds([3.0, 99.0], [1.0, 0.0])
        assert lower == upper == pytest.approx(3.0)

    def test_pure_coefficient_entropy(self):
        lower, upper = shannon_mixture_bounds([0.0, 0.0], [0.5, 0.5])
        assert lower == 0.0 and upper == pytest.approx(1.0)

    def test_coefficients_validated(self):
        with pytest.raises(ValidationError):
            shannon_mixture_bounds([0.0, 0.0], [0.7, 0.7])


NAN = float("nan")
BOUND_FUNCTIONS = {
    "tsallis": lambda h, a: tsallis_mixture_bounds(h, a, 2.0),
    "shannon": shannon_mixture_bounds,
}


class TestBoundInputValidation:
    @pytest.mark.parametrize("bounds", BOUND_FUNCTIONS.values(), ids=BOUND_FUNCTIONS)
    def test_nan_coefficient_rejected(self, bounds):
        # NaN is neither negative nor beyond the total, so the rule names it non-finite
        with pytest.raises(ValidationError, match="non-finite"):
            bounds([1.0, 1.0], [NAN, 1.0])

    @pytest.mark.parametrize("bounds", BOUND_FUNCTIONS.values(), ids=BOUND_FUNCTIONS)
    def test_nan_entropy_rejected(self, bounds):
        with pytest.raises(ValidationError, match="entropies"):
            bounds([NAN, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("entropy", ["1.0", True])
    @pytest.mark.parametrize("bounds", BOUND_FUNCTIONS.values(), ids=BOUND_FUNCTIONS)
    def test_non_numeric_entropy_rejected(self, bounds, entropy):
        with pytest.raises(ValidationError, match="entropies"):
            bounds([entropy, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("coeffs", [["half", 0.5], ["0.5", 0.5], [False, 1.0]])
    @pytest.mark.parametrize("bounds", BOUND_FUNCTIONS.values(), ids=BOUND_FUNCTIONS)
    def test_non_numeric_coefficient_rejected(self, bounds, coeffs):
        with pytest.raises(ValidationError, match="coefficients"):
            bounds([1.0, 1.0], coeffs)

    @pytest.mark.parametrize("call, what", [
        (lambda: tsallis_mixture_bounds(5, [1.0], 2.0), "entropies"),
        (lambda: tsallis_mixture_bounds([1.0], None, 2.0), "coefficients"),
        (lambda: shannon_mixture_bounds([0.0], 5), "coefficients"),
    ], ids=["tsallis-entropies", "tsallis-coefficients", "shannon-coefficients"])
    def test_non_sequence_rejected(self, call, what):
        with pytest.raises(ValidationError, match=what):
            call()

    def test_missing_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            tsallis_mixture_bounds([1.0], [1.0], None)

    @pytest.mark.parametrize("call", [
        lambda: tsallis_mixture_bounds([1.7e308, 1.7e308], [0.5, 0.5], 0.5),
    ], ids=["tsallis"])
    def test_bound_beyond_float_range_rejected(self, call):
        # finite entropies whose upper bound, 2**0.5 * 1.7e308, is not
        with pytest.raises(ValidationError, match="float range"):
            call()


class TestVerifyMixtureBounds:
    def test_disjoint_point_masses_hit_upper_bound(self):
        d0, d1, singles = delta_pair()
        for alpha in (0.5, 2.0, 3.0):
            spec = MixtureSpec(((0.5, d0), (0.5, d1)))
            report = verify_mixture_bounds(tsallis(alpha), spec, singles)
            closed_form = (0.5 ** alpha + 0.5 ** alpha - 1) / (1 - alpha)
            assert report.achieved == pytest.approx(report.upper, abs=1e-12)
            assert report.achieved == pytest.approx(closed_form, abs=1e-12)

    def test_identical_components_hit_lower_bound(self):
        shared = measure(0.2, 0.3, 0.5)
        q = family(3, [0, 1], [1, 2])
        spec = MixtureSpec(((0.3, shared), (0.7, shared)))
        report = verify_mixture_bounds(tsallis(2), spec, q)
        assert report.achieved == pytest.approx(report.lower, abs=1e-12)

    def test_shannon_variant(self):
        d0, d1, singles = delta_pair()
        spec = MixtureSpec(((0.5, d0), (0.5, d1)))
        report = verify_mixture_bounds(shannon(), spec, singles)
        assert report.achieved == pytest.approx(1.0)
        assert report.upper == pytest.approx(1.0)
        assert report.lower == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_renyi_attains_both_bounds(self, alpha):
        d0, d1, singles = delta_pair()
        e = renyi(alpha)
        report = verify_mixture_bounds(e, MixtureSpec(((0.3, d0), (0.7, d1))), singles)
        closed_form = math.log2(0.3 ** alpha + 0.7 ** alpha) / (1 - alpha)
        assert report.achieved == pytest.approx(report.upper, abs=1e-12)
        assert report.achieved == pytest.approx(closed_form, abs=1e-12)
        shared = measure(0.2, 0.3, 0.5)
        spec = MixtureSpec(((0.3, shared), (0.7, shared)))
        report = verify_mixture_bounds(e, spec, family(3, [0, 1], [1, 2]))
        assert report.achieved == pytest.approx(report.lower, abs=1e-12)
        assert report.alpha == alpha

    def test_tsallis_without_alpha_gets_bounds(self):
        d0, d1, singles = delta_pair()
        spec = MixtureSpec(((0.5, d0), (0.5, d1)))
        t = tsallis(2)
        custom = EntropyFunctional(name=t.name, alpha=None, f=t.f, g=t.g, case=t.case)
        report = verify_mixture_bounds(custom, spec, singles)
        want = verify_mixture_bounds(t, spec, singles)
        assert (report.lower, report.upper) == (want.lower, want.upper)
        assert report.upper == pytest.approx(0.5, abs=1e-12)
        assert report.alpha is None

    def test_bounds_ignore_the_name(self):
        d0, d1, singles = delta_pair()
        spec = MixtureSpec(((0.5, d0), (0.5, d1)))
        for alpha, name in ((2.0, "renamed"), (0.5, "tsallis:2")):
            t = tsallis(alpha)
            relabelled = EntropyFunctional(name=name, alpha=2.0, f=t.f, g=t.g, case=t.case)
            got = verify_mixture_bounds(relabelled, spec, singles)
            want = verify_mixture_bounds(t, spec, singles)
            assert (got.lower, got.upper, got.achieved) == (want.lower, want.upper, want.achieved)

    def test_bounds_match_the_closed_forms(self):
        rng = random.Random(23)
        for i in range(60):
            n = rng.randint(2, 5)
            parts = rng.randint(2, 3)
            mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(parts)]
            q = family(n, *[rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
                       + [list(range(n))])
            coeffs = random_probability(rng, parts, zero_chance=0.0).masses
            spec = MixtureSpec(tuple(zip(coeffs, mus)))
            alpha = (None, 0.5, 2.0, 3.0)[i % 4]
            if alpha is None:
                report = verify_mixture_bounds(shannon(), spec, q)
                want = shannon_mixture_bounds(report.component_entropies, coeffs)
            else:
                report = verify_mixture_bounds(tsallis(alpha), spec, q)
                want = tsallis_mixture_bounds(report.component_entropies, coeffs, alpha)
            assert report.lower == pytest.approx(want[0], abs=1e-12)
            assert report.upper == pytest.approx(want[1], abs=1e-12)

    def test_infinite_component_propagates(self):
        d0, d1, _ = delta_pair()
        spec = MixtureSpec(((0.5, d0), (0.5, d1)))
        only_zero = family(2, [0])  # misses atom 1, carried by component 2
        report = verify_mixture_bounds(tsallis(2), spec, only_zero)
        assert report.is_infinite
        assert report.lower is None and report.upper is None
        assert report.component_entropies[1] is None

    def test_mixture_covered_within_tol_with_uncovered_component_rejected(self):
        # component 0 leaves 2e-12 > MASS_TOL uncovered, so its entropy is
        # infinite; the mixture leaves 0.4 * 2e-12 <= MASS_TOL, so its entropy
        # is finite and no bound holds
        spec = MixtureSpec(((0.4, measure(1 - 2e-12, 2e-12)), (0.6, measure(1.0, 0.0))))
        with pytest.raises(ValidationError, match="MASS_TOL"):
            verify_mixture_bounds(tsallis(2), spec, family(2, [0]))

    def test_random_containment(self):
        rng = random.Random(19)
        for i in range(40):
            n = rng.randint(2, 5)
            parts = rng.randint(2, 3)
            mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(parts)]
            q = family(n, *[rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
                       + [list(range(n))])  # final full set guarantees coverage
            coeffs = random_probability(rng, parts, zero_chance=0.0).masses
            spec = MixtureSpec(tuple(zip(coeffs, mus)))
            alpha = (0.5, 2.0, 3.0)[i % 3]
            report = verify_mixture_bounds(tsallis(alpha), spec, q)
            assert report.lower - 1e-9 <= report.achieved <= report.upper + 1e-9

    def test_report_invariant_enforced(self):
        with pytest.raises(ValidationError, match="escapes"):
            MixtureBoundReport(
                lower=1.0, upper=2.0, achieved=5.0,
                component_entropies=(1.0,), coefficients=(1.0,), alpha=2.0,
            )


class TestComponentwiseInequalities:
    def test_partition_level_superadditivity(self):
        # Tsallis entropy of the mixture under a fixed partition dominates the
        # coefficient-weighted component entropies
        rng = random.Random(29)
        for i in range(50):
            n = rng.randint(2, 6)
            parts = rng.randint(2, 3)
            mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(parts)]
            coeffs = random_probability(rng, parts, zero_chance=0.0).masses
            spec = MixtureSpec(tuple(zip(coeffs, mus)))
            mixed = mix(spec)
            q = family(n, list(range(n)), list(range(n)))
            p = random_acceptable_partition(rng, mixed, q, split_chance=0.5)
            alpha = (0.5, 2.0, 3.0)[i % 3]
            e = tsallis(alpha)
            lhs = partition_entropy(e, mixed, p)
            rhs = sum(c * partition_entropy(e, m, p) for c, m in spec.components)
            assert lhs >= rhs - 1e-9

    def test_division_level_upper_bound(self):
        # mixing divisions: entropy of the blend stays below the power-weighted
        # component entropies plus the additive term
        rng = random.Random(37)
        for i in range(50):
            n = rng.randint(2, 5)
            parts = 2
            mus = [random_probability(rng, n, zero_chance=0.0) for _ in range(parts)]
            q = family(n, list(range(n)), list(range(n)), list(range(n)))
            divs = [random_division(m, q, seed=i * 7 + j) for j, m in enumerate(mus)]
            coeffs = random_probability(rng, parts, zero_chance=0.0).masses
            spec = MixtureSpec(tuple(zip(coeffs, mus)))
            blend = mix_division(spec, divs)
            alpha = (0.5, 2.0, 3.0)[i % 3]
            e = tsallis(alpha)
            lhs = weighted_entropy(e, blend)
            rhs = sum(
                float(c) ** alpha * weighted_entropy(e, d)
                for c, d in zip(spec.coefficients, divs)
            ) + (sum(float(c) ** alpha for c in spec.coefficients) - 1) / (1 - alpha)
            assert lhs <= rhs + 1e-9


class TestLimitBridge:
    """The alpha -> 1 bridge of criterion 7 on the closed forms, at
    coefficients (0.5, 0.5) and component entropies (1, 1)."""

    @staticmethod
    def bounds(alpha):
        return tsallis_mixture_bounds([1.0, 1.0], [0.5, 0.5], alpha)

    def test_lower_gap_identically_zero(self):
        shannon_lower, _ = shannon_mixture_bounds([1.0, 1.0], [0.5, 0.5])
        for alpha in (0.5, 0.9, 1.1, 2.0):
            lower, _ = self.bounds(alpha)
            assert lower == shannon_lower == pytest.approx(1.0)

    def test_degenerate_coefficient_pins_upper(self):
        for alpha in (0.5, 2.0, 3.0):
            lower, upper = tsallis_mixture_bounds([1.5, 99.0], [1.0, 0.0], alpha)
            assert upper == pytest.approx(1.5)
            assert lower == pytest.approx(1.5)

    def test_frozen_upper_values(self):
        # mpmath-frozen samples of the upper bound
        assert self.bounds(0.99)[1] == pytest.approx(1.70251055573, abs=1e-9)
        assert self.bounds(1.01)[1] == pytest.approx(1.68384295173, abs=1e-9)

    def test_upper_converges_to_natural_log_coefficient_entropy(self):
        # the additive term (sum a^alpha - 1)/(1 - alpha) tends to
        # -sum a*ln(a): natural-log units, i.e. ln2 below the base-2 term
        target = 1.0 + LN2
        gaps = [abs(self.bounds(alpha)[1] - target)
                for alpha in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 + 1e-4, 1 + 1e-3, 1 + 1e-2)]
        assert gaps[2] <= 1e-3 and gaps[3] <= 1e-3
        assert gaps[0] >= gaps[1] >= gaps[2]  # shrinking from below
        assert gaps[5] >= gaps[4] >= gaps[3]  # shrinking from above

    @pytest.mark.xfail(
        strict=True,
        reason="the upper bound's additive term converges to the natural-log "
        "coefficient entropy (1+ln2 here), not to the base-2 Shannon term "
        "(2.0); base-2 agreement within 1e-3 near alpha=1 cannot hold",
        raises=AssertionError,
    )
    def test_upper_matches_base_two_shannon_bound_near_one(self):
        _, shannon_upper = shannon_mixture_bounds([1.0, 1.0], [0.5, 0.5])
        for alpha in (1 - 1e-4, 1 + 1e-4):
            assert abs(self.bounds(alpha)[1] - shannon_upper) <= 1e-3
