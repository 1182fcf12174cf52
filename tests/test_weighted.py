import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverentropy.weighted as weighted
from coverentropy import (
    Assignment,
    AtomSet,
    DiscreteSpace,
    HlpInput,
    Measure,
    SetFamily,
    SpaceMismatchError,
    ValidationError,
    WeightedDivision,
    builtin_functionals,
    cover_entropy,
    cover_entropy_weighted,
    disjointify,
    disjointify_certificate,
    division_dict,
    division_from_assignment,
    evaluate,
    hlp_compare,
    parse_division,
    partition_entropy,
    partition_to_division,
    random_division,
    shannon,
    tsallis,
    weighted_entropy,
)
from coverentropy.selftest import random_acceptable_partition, random_instance

from bad_values import BAD_SEEDS, BAD_TOLS
from oracles import covers_with_dust, incidence

# mpmath-frozen comparison sums for x=(0.5,0.5) vs y=(0.7,0.3)
NEG_TLOG_SUM_Y = 0.8812908992306926
OVERLAP_UNIFORM3 = 0.9182958340544896


def measure(*mass):
    return Measure(DiscreteSpace(len(mass)), list(mass), probability=True)


def family(n, *blocks):
    return SetFamily.of(DiscreteSpace(n), blocks)


def uniform(n):
    return Measure(DiscreteSpace(n), [1.0 / n] * n, probability=True)


class TestWeightedDivisionValidation:
    def test_support_violation(self):
        with pytest.raises(ValidationError, match="outside"):
            parse_division({"cover_index_rows": [[0.5, 0.1], [0.0, 0.4]]},
                           measure(0.5, 0.5), family(2, [0], [1]))

    def test_support_violation_names_first_row(self):
        with pytest.raises(ValidationError, match="row 1 carries"):
            parse_division({"cover_index_rows": [[0.1, 0.1, 0.5], [0.0, 0.2, 0.0],
                                                 [0.1, 0.0, 0.0]]},
                           measure(0.2, 0.3, 0.5), family(3, [0, 1, 2], [0], [1]))

    def test_decomposition_violation(self):
        with pytest.raises(ValidationError, match="sum back"):
            WeightedDivision(measure(0.5, 0.5), family(2, [0, 1], [0, 1]),
                             [[0.2, 0.2], [0.2, 0.2]])

    def test_shape_violation(self):
        with pytest.raises(ValidationError, match="shape"):
            WeightedDivision(measure(0.5, 0.5), family(2, [0, 1]),
                             [[0.5, 0.5], [0.0, 0.0]])

    def test_negative_entry(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            WeightedDivision(measure(0.5, 0.5), family(2, [0, 1], [0, 1]),
                             [[0.6, 0.5], [-0.1, 0.0]])

    def test_non_finite_entry(self):
        # a NaN inside the row's set passes every range and sum check
        with pytest.raises(ValidationError, match="finite"):
            WeightedDivision(measure(0.5, 0.5), family(2, [0, 1], [0, 1]),
                             [[float("nan"), 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("rows", ["ab", [["a", 0.5], [0.5, 0.0]], [[True, False]] * 2,
                                      [[0.5], [0.5, 0.0]], [[0.5, True], [0.0, 0.0]],
                                      [[0.5, 0.5], [np.False_, 0.0]],
                                      ([0.5, 0.5], (False, 0.0))])
    def test_non_number_rows(self, rows):
        with pytest.raises(ValidationError, match="rows"):
            WeightedDivision(measure(0.5, 0.5), family(2, [0, 1], [0, 1]), rows)

    def test_measure_and_cover_types(self):
        q = family(2, [0, 1])
        with pytest.raises(ValidationError, match="Measure"):
            WeightedDivision([0.5, 0.5], q, [[0.5, 0.5]])
        with pytest.raises(ValidationError, match="SetFamily"):
            WeightedDivision(measure(0.5, 0.5), [[0, 1]], [[0.5, 0.5]])

    def test_member_values_and_dense_rows_agree(self):
        # the constructor takes member values; parse_division reads dense rows
        mu, q = measure(0.2, 0.3, 0.5), family(3, [0, 1], [1, 2])
        members = WeightedDivision(mu, q, [[0.2, 0.1], [0.2, 0.5]])
        dense = parse_division({"cover_index_rows": [[0.2, 0.1, 0.0], [0.0, 0.2, 0.5]]}, mu, q)
        mixed = WeightedDivision(mu, q, ((0.2, 0.1), np.array([0.2, 0.5])))
        assert members.values == dense.values == mixed.values == ((0.2, 0.1), (0.2, 0.5))
        assert members.rows.tolist() == [[0.2, 0.1, 0.0], [0.0, 0.2, 0.5]]
        assert members.row_masses == (math.fsum([0.2, 0.1]), 0.7)
        with pytest.raises(ValidationError, match="2 member values of cover set 1"):
            WeightedDivision(mu, q, [[0.2, 0.1], [0.7]])
        # dense rows, as lists or as one array, are not member values
        dense = [[0.2, 0.1, 0.0], [0.0, 0.2, 0.5]]
        with pytest.raises(ValidationError, match="row 0 .* 2 member values of cover set 0"):
            WeightedDivision(mu, q, dense)
        with pytest.raises(ValidationError, match="shape"):
            WeightedDivision(mu, q, np.array(dense))

    def test_rows_readonly(self):
        d = random_division(uniform(2), family(2, [0, 1], [0, 1]), seed=0)
        with pytest.raises(ValueError):
            d.rows[0, 0] = 1.0


class TestSharedDerivations:
    def test_row_masses_cached_and_read_only(self):
        d = random_division(uniform(3), family(3, [0, 1], [1, 2]), seed=5)
        masses = d.row_masses
        assert d.row_masses is masses
        with pytest.raises(TypeError):
            masses[0] = 0.0
        assert masses == tuple(math.fsum(row) for row in d.rows.tolist())

    def test_call_order_does_not_change_results(self):
        rng = random.Random(59)
        for i in range(40):
            mu, q = random_instance(rng)
            rows = random_division(mu, q, seed=i).values
            first = WeightedDivision(mu, q, rows)
            p_first = disjointify(first)
            cert_first = disjointify_certificate(first)
            second = WeightedDivision(mu, q, rows)
            cert_second = disjointify_certificate(second)
            p_second = disjointify(second)
            fresh_p = disjointify(WeightedDivision(mu, q, rows))
            fresh_cert = disjointify_certificate(WeightedDivision(mu, q, rows))
            assert p_first.as_lists() == p_second.as_lists() == fresh_p.as_lists()
            assert cert_first == cert_second == fresh_cert


class TestWeightedEntropy:
    def test_partition_induced_division_matches_partition_entropy(self):
        mu = measure(0.2, 0.3, 0.5)
        p = family(3, [0, 1], [2])
        d = partition_to_division(mu, p, p)
        for e in builtin_functionals():
            assert weighted_entropy(e, d) == pytest.approx(
                partition_entropy(e, mu, p), abs=1e-15)

    def test_even_split_on_duplicate_cover(self):
        # splitting each atom in half gives row masses (0.5, 0.5): one full bit,
        # although the coarsest partition of the same cover has entropy 0
        mu = measure(0.5, 0.5)
        q = family(2, [0, 1], [0, 1])
        d = WeightedDivision(mu, q, [[0.25, 0.25], [0.25, 0.25]])
        assert weighted_entropy(shannon(), d) == pytest.approx(1.0)
        assert cover_entropy(shannon(), mu, q).value == pytest.approx(0.0, abs=1e-15)

    def test_single_set_cover_scores_zero(self):
        mu = measure(0.4, 0.6)
        q = family(2, [0, 1])
        d = WeightedDivision(mu, q, [[0.4, 0.6]])
        for e in builtin_functionals():
            assert weighted_entropy(e, d) == pytest.approx(0.0, abs=1e-15)


class TestSumBackTotal:
    """MASS_TOL bounds the total of the per-atom sum-back gaps, so every
    division the constructor accepts is also valued and certified."""

    @staticmethod
    def rows_missing(gap):
        # uniform mu on 1,000 atoms over the full set twice: each atom's two
        # values of 1/2000 + gap / 2 miss its mass by about ``gap``
        n = 1000
        mu = Measure(DiscreteSpace(n), [1 / n] * n, probability=True)
        return mu, family(n, range(n), range(n)), [[1 / (2 * n) + gap / 2] * n] * 2

    def test_mass_tol_bounds_the_total_gap(self):
        # 9e-13 at each atom, 9e-10 in all: each gap passes, the total does not
        with pytest.raises(ValidationError, match="do not sum back"):
            WeightedDivision(*self.rows_missing(9e-13))
        # 9e-16 at each atom, 9e-13 in all
        d = WeightedDivision(*self.rows_missing(9e-16))
        for e in builtin_functionals():
            assert weighted_entropy(e, d) == pytest.approx(evaluate(e, [0.5, 0.5]))
        assert disjointify(d).as_lists() == [list(range(1000))]
        cert = disjointify_certificate(d)
        assert hlp_compare(cert, lambda t: t * t, "convex").confirmed


class TestDivisionFromAssignment:
    """The vertex division checks only what a valid Assignment leaves open."""

    def test_positive_mass_left_unplaced_is_rejected(self):
        q = family(3, [0, 1], [1, 2])
        a = Assignment(q.space, q, ((0, 0), (2, 1)))
        with pytest.raises(ValidationError, match="rows do not sum back .* atom 1 "):
            division_from_assignment(a, measure(0.5, 0.25, 0.25))

    def test_unplaced_mass_is_bounded_in_all(self):
        # 20 unplaced atoms of mass 1e-13: each under MASS_TOL, together over
        mu = Measure(DiscreteSpace(21), [1 - 2e-12] + [1e-13] * 20)
        q = family(21, [0], range(1, 21))
        with pytest.raises(ValidationError, match=r"atom 1 \(off by 1e-13, 2e-12 over all atoms\)"):
            division_from_assignment(Assignment(q.space, q, ((0, 0),)), mu)
        a = Assignment(q.space, q, ((0, 0), *((atom, 1) for atom in range(11, 21))))
        assert division_from_assignment(a, mu).values[1][10:] == mu.masses[11:]

    def test_measure_on_another_space_is_rejected(self):
        q = family(2, [0, 1])
        a = Assignment(q.space, q, ((0, 0), (1, 0)))
        with pytest.raises(SpaceMismatchError):
            division_from_assignment(a, uniform(3))


class TestPartitionToDivision:
    def test_identity_when_partition_equals_cover(self):
        mu = measure(0.2, 0.8)
        p = family(2, [0], [1])
        d = partition_to_division(mu, p, p)
        assert d.rows.tolist() == [[0.2, 0.0], [0.0, 0.8]]

    def test_merging_into_one_cover_set(self):
        mu = measure(0.5, 0.5)
        d = partition_to_division(mu, family(2, [0], [1]), family(2, [0, 1]))
        assert d.rows.tolist() == [[0.5, 0.5]]
        assert weighted_entropy(shannon(), d) == pytest.approx(0.0, abs=1e-15)
        assert partition_entropy(shannon(), mu, family(2, [0], [1])) == pytest.approx(1.0)

    def test_forced_placement_with_null_atom(self):
        mu = measure(0.5, 0.0, 0.5)
        d = partition_to_division(mu, family(3, [0], [2]), family(3, [0, 1], [1, 2]))
        assert d.rows.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]]
        assert d.row_masses == (0.5, 0.5)

    def test_lowest_index_routing(self):
        # block {1} fits both cover sets; it must land in set 0
        mu = uniform(3)
        d = partition_to_division(
            mu, family(3, [0], [1], [2]), family(3, [0, 1], [1, 2]))
        assert d.rows[0].tolist() == pytest.approx([1 / 3, 1 / 3, 0.0])

    def test_rejects_partition_not_finer(self):
        with pytest.raises(ValidationError, match="finer"):
            partition_to_division(uniform(2), family(2, [0, 1]), family(2, [0], [1]))

    def test_rejects_non_partition(self):
        with pytest.raises(ValidationError, match="partition"):
            partition_to_division(uniform(2), family(2, [0, 1], [1]), family(2, [0, 1]))

    def test_never_increases_entropy(self):
        rng = random.Random(31)
        for _ in range(60):
            mu, q = random_instance(rng)
            p = random_acceptable_partition(rng, mu, q)
            d = partition_to_division(mu, p, q)
            for e in builtin_functionals():
                assert weighted_entropy(e, d) <= partition_entropy(e, mu, p) + 1e-9


class TestDisjointify:
    def test_partition_induced_division_round_trips(self):
        mu = measure(0.2, 0.3, 0.5)
        p = family(3, [0, 1], [2])
        got = disjointify(partition_to_division(mu, p, p))
        assert sorted(got.as_lists()) == sorted(p.as_lists())

    def test_even_split_collapses_to_single_block(self):
        mu = measure(0.5, 0.5)
        q = family(2, [0, 1], [0, 1])
        d = WeightedDivision(mu, q, [[0.25, 0.25], [0.25, 0.25]])
        p = disjointify(d)
        assert p.as_lists() == [[0, 1]]
        assert partition_entropy(shannon(), mu, p) == pytest.approx(0.0, abs=1e-15)
        assert weighted_entropy(shannon(), d) == pytest.approx(1.0)

    def test_mass_sorted_difference_chain(self):
        mu = uniform(3)
        q = family(3, [0, 1], [1, 2])
        d = WeightedDivision(mu, q, [[1 / 3, 1 / 3], [0.0, 1 / 3]])
        assert disjointify(d).as_lists() == [[0, 1], [2]]

    def test_tie_breaks_by_cover_index(self):
        mu = measure(0.5, 0.5)
        q = family(2, [0, 1], [0, 1])
        d = WeightedDivision(mu, q, [[0.25, 0.25], [0.25, 0.25]])
        # equal row masses: set 0 must be peeled first
        assert disjointify(d).as_lists() == [[0, 1]]

    def test_requires_positive_rows_to_cover(self):
        mu = measure(0.5, 0.5)
        q = family(2, [0], [0, 1])
        d = WeightedDivision(mu, q, [[0.5], [0.0, 0.5]])
        # fine here: both rows positive.  Now starve row 1 so coverage fails.
        bad_mu = measure(1.0, 0.0)
        bad = WeightedDivision(bad_mu, family(2, [0], [1]), [[1.0], [0.0]])
        assert disjointify(bad).as_lists() == [[0]]
        assert disjointify(d).as_lists() == [[0], [1]]

    def test_zero_rows_missing_mass_past_tol_rejected(self):
        # 20 atoms of mass 1e-13 sit only in set 1, whose row is all zero:
        # each atom misses less than MASS_TOL, together they miss more, and
        # the sum-back check compares their total
        mu = Measure(DiscreteSpace(21), [1 - 2e-12] + [1e-13] * 20)
        q = family(21, [0], range(1, 21))
        rows = [mu.masses[:1], [0.0] * 20]
        with pytest.raises(ValidationError, match="do not sum back .* atom 1 "):
            WeightedDivision(mu, q, rows)
        rows[1] = mu.masses[1:]
        assert disjointify(WeightedDivision(mu, q, rows)).as_lists() == [[0], list(range(1, 21))]

    def test_small_rows_past_mass_tol_are_kept(self):
        # each small row is under MASS_TOL, but the two together are not
        mu = measure(1 - 1.8e-12, 9e-13, 9e-13)
        d = WeightedDivision(mu, family(3, [0], [1], [2]), [[m] for m in mu.masses])
        assert disjointify(d).as_lists() == [[0], [1], [2]]
        cert = disjointify_certificate(d)
        assert len(cert.x_seq) == len(cert.y_seq) == 3

    def test_never_beats_division(self):
        rng = random.Random(47)
        for i in range(120):
            mu, q = random_instance(rng)
            d = random_division(mu, q, seed=i)
            p = disjointify(d)
            for e in builtin_functionals():
                assert (
                    partition_entropy(e, mu, p)
                    <= weighted_entropy(e, d) + 1e-9
                )

    def test_certificate_is_valid_and_prefix_dominated(self):
        rng = random.Random(53)
        for i in range(60):
            mu, q = random_instance(rng)
            d = random_division(mu, q, seed=1000 + i)
            cert = disjointify_certificate(d)  # construction validates
            assert abs(sum(cert.x_seq) - sum(cert.y_seq)) <= 1e-12


class TestHlpCompare:
    def test_non_finite_entries_rejected(self):
        for x, y in (((float("nan"), 0.5), (0.5, 0.5)),
                     ((0.5, 0.5), (0.5, float("inf")))):
            with pytest.raises(ValidationError, match="finite"):
                HlpInput(x, y)

    def test_concave_direction(self):
        inp = HlpInput((0.5, 0.5), (0.7, 0.3))
        phi = lambda t: -t * math.log2(t) if t > 0 else 0.0
        report = hlp_compare(inp, phi, "concave")
        assert report.sum_x == pytest.approx(1.0)
        assert report.sum_y == pytest.approx(NEG_TLOG_SUM_Y, abs=1e-12)
        assert report.confirmed

    def test_equal_sequences(self):
        inp = HlpInput((0.4, 0.4), (0.4, 0.4))
        for shape in ("concave", "convex"):
            report = hlp_compare(inp, lambda t: t * t, shape)
            assert report.confirmed
            assert report.sum_x == report.sum_y

    def test_convex_direction(self):
        inp = HlpInput((0.5, 0.5), (0.7, 0.3))
        report = hlp_compare(inp, lambda t: t * t, "convex")
        assert report.sum_x == pytest.approx(0.5)
        assert report.sum_y == pytest.approx(0.58)
        assert report.confirmed

    def test_bad_shape_string(self):
        with pytest.raises(ValidationError):
            hlp_compare(HlpInput((0.5,), (0.5,)), lambda t: t, "linear")

    def test_sums_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="float range"):
            HlpInput((1e308, 1e308), (1e308, 1e308))
        inp = HlpInput((1e300,), (1e300,))
        with pytest.raises(ValidationError, match="float range"):
            hlp_compare(inp, lambda t: t ** 2, "convex")
        with pytest.raises(ValidationError, match="not finite"):
            hlp_compare(inp, lambda t: t * 1e10, "convex")

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            hlp_compare(HlpInput((0.5, 0.5), (0.7, 0.3)), lambda t: t * t, "convex", tol=tol)

    def test_input_not_nonincreasing(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            HlpInput((0.3, 0.7), (0.5, 0.5))

    def test_totals_must_match(self):
        with pytest.raises(ValidationError, match="totals"):
            HlpInput((0.5, 0.4), (0.5, 0.5))

    def test_prefix_dominance_enforced(self):
        with pytest.raises(ValidationError, match="prefix"):
            HlpInput((0.7, 0.3), (0.5, 0.5))

    def test_prefix_dominance_decided_on_exact_totals(self):
        # every exact prefix gap y - x is at least 0, but left-to-right sums
        # of the first three entries round 5.8e-11 apart, past MASS_TOL
        x = [343342.47127859795, 45.47016300456639, 23.634577631987064,
             0.49649365599282835, 0.18803930475131292]
        y = [343342.47127859795, 68.29084892583037, 0.8138917107230803,
             0.49649365599282835, 0.18803930475131292]
        assert all(sum(map(Fraction, y[:i])) >= sum(map(Fraction, x[:i])) for i in range(6))
        assert HlpInput(x, y).x_seq == tuple(x)
        # a real failure at that scale is still one
        with pytest.raises(ValidationError, match="position 1"):
            HlpInput((343342.0, 2.0, 1.0), (343342.0, 1.5, 1.5))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            HlpInput((0.5,), (0.3, 0.2))

    def test_negative_entries(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            HlpInput((0.5, -0.1), (0.2, 0.2))

    @pytest.mark.parametrize("seq", [{}, set(), "0.5", b"1", 0.5, None, range(1)],
                             ids=["dict", "set", "str", "bytes", "float", "None", "range"])
    def test_sequences_must_be_lists_or_tuples(self, seq):
        with pytest.raises(ValidationError, match="lists or tuples"):
            HlpInput(seq, [])
        with pytest.raises(ValidationError, match="lists or tuples"):
            HlpInput([], seq)

    @pytest.mark.parametrize("entry", ["0.5", True, None, b"1"])
    def test_non_number_entries(self, entry):
        with pytest.raises(ValidationError, match="numbers"):
            HlpInput((entry,), (1.0,))


class TestCoverEntropyWeighted:
    def test_matches_overlap_example(self):
        r = cover_entropy_weighted(shannon(), uniform(3), family(3, [0, 1], [1, 2]))
        assert r.value == pytest.approx(OVERLAP_UNIFORM3, abs=1e-12)
        assert r.witness.row_masses == pytest.approx((2 / 3, 1 / 3))

    def test_empty_polytope_is_infinite(self):
        r = cover_entropy_weighted(shannon(), measure(0.5, 0.5), family(2, [0]))
        assert r.is_infinite and r.witness is None and r.assignment is None

    def test_witness_division_validates_and_attains_value(self):
        rng = random.Random(71)
        for _ in range(30):
            mu, q = random_instance(rng)
            for e in (shannon(), tsallis(2)):
                r = cover_entropy_weighted(e, mu, q)
                assert weighted_entropy(e, r.witness) == r.value

    def test_equals_classical_on_random_instances(self):
        rng = random.Random(83)
        for _ in range(60):
            mu, q = random_instance(rng)
            for e in builtin_functionals():
                a = cover_entropy(e, mu, q)
                b = cover_entropy_weighted(e, mu, q)
                # one search, one optimum: the README's bit-for-bit claim
                assert (a.value, a.explored, a.assignment) == (b.value, b.explored, b.assignment)
                assert division_from_assignment(a.assignment, mu).values == b.witness.values
                # the value is the g-sum helper on the row masses, bit for bit
                assert b.value == weighted_entropy(e, b.witness)

    def test_round_trip_domination(self):
        # partition -> division -> disjointify never increases entropy
        rng = random.Random(97)
        for _ in range(50):
            mu, q = random_instance(rng)
            p = random_acceptable_partition(rng, mu, q)
            d = partition_to_division(mu, p, q)
            back = disjointify(d)
            for e in builtin_functionals():
                assert (
                    partition_entropy(e, mu, back)
                    <= partition_entropy(e, mu, p) + 1e-9
                )


class TestRandomDivision:
    def test_single_candidate_atom_fully_placed(self):
        mu = measure(0.3, 0.7)
        q = family(2, [0], [0, 1])
        for seed in (0, 1, 99):
            d = random_division(mu, q, seed=seed)
            assert d.rows[1, 1] == pytest.approx(0.7)
            assert d.rows[0, 0] + d.rows[1, 0] == pytest.approx(0.3)

    def test_same_seed_same_division(self):
        mu, q = uniform(4), family(4, [0, 1, 2], [1, 2, 3], [0, 3])
        a = random_division(mu, q, seed=1234)
        b = random_division(mu, q, seed=1234)
        assert np.array_equal(a.rows, b.rows)

    def test_different_seeds_differ(self):
        mu, q = uniform(2), family(2, [0, 1], [0, 1])
        a = random_division(mu, q, seed=0)
        b = random_division(mu, q, seed=1)
        assert not np.array_equal(a.rows, b.rows)

    def test_requires_cover(self):
        with pytest.raises(ValidationError, match="family is not a mu-cover of the measure"):
            random_division(measure(0.5, 0.5), family(2, [0]), seed=0)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            random_division(uniform(2), family(2, [0, 1], [0, 1]), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        mu, q = uniform(2), family(2, [0, 1], [0, 1])
        a = random_division(mu, q, seed=np.uint32(7))
        assert np.array_equal(a.rows, random_division(mu, q, seed=7).rows)

    def test_matches_the_dense_formula(self):
        # the sampler as dense numpy rows: one unit exponential -log(1 - u)
        # per membership in row-major order, u from random.Random(seed), each
        # atom's draws added over the sets, each draw divided by its atom's
        # total and scaled by the atom's mass
        instances = random.Random(43)
        cases = [random_instance(instances) for _ in range(60)]
        rng = np.random.default_rng(43)
        n = 2000
        member = rng.random((8, n)) < 0.4
        member[0] |= ~member.any(axis=0)
        cases.append((Measure(DiscreteSpace(n), rng.dirichlet(np.ones(n)), probability=True),
                      family(n, *(np.flatnonzero(row).tolist() for row in member))))
        for seed, (mu, q) in enumerate(cases):
            inc = incidence(q)
            uniform01 = random.Random(seed).random
            rows = np.zeros(inc.shape)
            rows[inc] = [-math.log(1.0 - uniform01()) for _ in range(int(inc.sum()))]
            total = rows.sum(axis=0)
            np.divide(rows, total, out=rows, where=total > 0.0)
            rows *= mu.masses
            assert random_division(mu, q, seed=seed).rows.tobytes() == rows.tobytes()

    def test_pinned_draw(self):
        # random.Random(0).random() begins 0.8444218515250481, 0.7579544029403025,
        # 0.420571580830845, 0.25891675029296335 on every Python version
        d = random_division(uniform(2), family(2, [0, 1], [0, 1]), seed=0)
        assert d.values == ((0.38660837142452725, 0.4128070510728489),
                            (0.11339162857547275, 0.08719294892715114))

    def test_sampled_division_validates(self):
        rng = random.Random(13)
        for i in range(40):
            mu, q = random_instance(rng)
            d = random_division(mu, q, seed=i)  # the sampler checks sum-back
            assert math.fsum(d.row_masses) == pytest.approx(1.0, abs=1e-9)

    def test_flat_dirichlet_law(self):
        mu = measure(0.5, 0.3, 0.2)
        q = family(3, [0, 1, 2], [0, 1], [0])
        rows = np.array([random_division(mu, q, seed=s).rows for s in range(4000)])
        w0 = rows[:, :, 0] / 0.5
        assert np.abs(w0.mean(axis=0) - 1 / 3).max() < 0.025
        assert np.abs((w0 ** 2).mean(axis=0) - 1 / 6).max() < 0.025
        assert np.abs(rows[:, :2, 1].mean(axis=0) / 0.3 - 1 / 2).max() < 0.025
        assert (rows[:, 0, 2] == 0.2).all()

    def test_ten_thousand_atoms(self):
        rng = np.random.default_rng(8)
        n = 10_000
        mu = Measure(DiscreteSpace(n), rng.dirichlet(np.ones(n)), probability=True)
        inc = rng.random((8, n)) < 0.6
        inc[0] |= ~inc.any(axis=0)
        q = family(n, *(np.flatnonzero(row).tolist() for row in inc))
        d = random_division(mu, q, seed=0)  # the sampler checks sum-back
        floor = cover_entropy(shannon(), mu, q).value
        assert weighted_entropy(shannon(), d) >= floor - 1e-9
        assert_built_as_checked(d)


def assert_built_as_checked(d):
    """The sampler, the difference chain and ``disjointify`` build their
    values without the constructors' checks; each must be a value those
    constructors accept unchanged."""
    mu = d.mu
    assert WeightedDivision(mu, d.cover, d.values).values == d.values
    _, blocks, block_masses = d._chain
    for b, m in zip(blocks, block_masses):
        assert b == AtomSet(mu.space, b.members)
        assert m.hex() == mu.mass_of(b).hex()
    p = disjointify(d)
    assert p == SetFamily(mu.space, p.sets)


class TestUncheckedBuilds:
    @given(covers_with_dust(), st.integers(min_value=0, max_value=2 ** 64))
    @settings(max_examples=150, deadline=None)
    def test_dusty_instances(self, instance, seed):
        mu, q = instance
        assert_built_as_checked(random_division(mu, q, seed=seed))

    def test_sampler_runs_the_sum_back_check(self, monkeypatch):
        def planted(gaps):
            raise ValidationError("planted sum-back failure")

        monkeypatch.setattr(weighted, "_check_sum_back", planted)
        with pytest.raises(ValidationError, match="planted sum-back failure"):
            random_division(uniform(2), family(2, [0, 1], [0, 1]), seed=0)


class TestDivisionSchema:
    def test_round_trip(self):
        mu, q = uniform(3), family(3, [0, 1], [1, 2])
        d = random_division(mu, q, seed=5)
        again = parse_division(division_dict(d), mu, q)
        assert np.array_equal(d.rows, again.rows)

    def test_rejects_missing_key(self):
        with pytest.raises(ValidationError, match="cover_index_rows"):
            parse_division({}, uniform(2), family(2, [0, 1]))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValidationError, match="rows"):
            parse_division({"cover_index_rows": [[0.5, 0.5]]},
                           uniform(2), family(2, [0, 1], [0, 1]))

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValidationError, match="atom masses"):
            parse_division({"cover_index_rows": [[1.0]]}, uniform(2), family(2, [0, 1]))

    def test_rejects_member_values_as_rows(self):
        # rows are dense over all atoms, not one value per member
        with pytest.raises(ValidationError, match="atom masses"):
            parse_division({"cover_index_rows": [[0.5], [0.5]]},
                           uniform(2), family(2, [0], [1]))

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_rejects_non_number_entry(self, bad):
        with pytest.raises(ValidationError, match="row 0"):
            parse_division({"cover_index_rows": [[bad, 0.5]]}, uniform(2), family(2, [0, 1]))
