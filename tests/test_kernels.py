"""The certified search (the DP over set orderings) against a naive
orderings oracle and the exhaustive reference scan.

The DP's witness is defined as the choice induced by the lexicographically
first ordering of the sets whose g-sum, scored as the scan scores it, lies
within ``_PRUNE_SLACK`` (relative) of the optimum; the oracle tries every
ordering in that order, so the DP's choice, and that choice's score, must
equal the oracle's exactly.  Against the scan the choice's score is within
the slack of its optimum and never beats it, and the DP's own value (the
same terms added in another order) is within the slack.  Inputs are packed
as the package packs them: one unit per Venn cell, cells in the order of
their first atom.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
    BudgetExceededError,
    CompositionCase,
    EntropyFunctional,
    _kernels,
    builtin_functionals,
    cover_entropy,
    enumerate_acceptable_partitions,
    partition_entropy,
    tsallis,
)
from coverentropy.classical import _searched_atoms, _venn_cells
from coverentropy.selftest import random_instance


def _packed_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        mu, q = random_instance(rng, n_range=(2, 7), k_range=(2, 5))
        cells = _venn_cells(mu, q)
        masses = [m for m, _, _ in cells]
        cands = [c for _, _, c in cells]
        for e in builtin_functionals():
            yield masses, cands, len(q), e.g, not e.minimizes_g_sum


def _dyadic_cases(seed, count):
    # dyadic masses make many groupings tie exactly
    rng = np.random.default_rng(seed)
    functionals = builtin_functionals()
    for trial in range(count):
        n_sets = int(rng.integers(1, 5))
        cands = [sorted(rng.choice(n_sets, size=int(rng.integers(1, n_sets + 1)),
                                   replace=False).tolist())
                 for _ in range(int(rng.integers(1, 7)))]
        masses = [int(rng.integers(1, 5)) / 8 for _ in cands]
        e = functionals[trial % len(functionals)]
        yield masses, cands, n_sets, e.g, not e.minimizes_g_sum


def _score(masses, choice, n_sets, g):
    """The g-sum of a choice as the scan scores it: groups in set order, each
    adding its units in unit order."""
    group = [0.0] * n_sets
    for m, c in zip(masses, choice):
        group[c] += m
    s = 0.0
    for m in group:
        if m > 0.0:
            s += g(m)
    return s


def _ordering_oracle(masses, cands, n_sets, g, maximize):
    """(g-sum, choice) of the first ordering of the sets, in lexicographic
    order, whose g-sum lies within the slack of the best ordering's.

    An ordering sends each unit to its lowest-ranked candidate set, and its
    g-sum is :func:`_score` of that choice.
    """
    scored = []
    for order in itertools.permutations(range(n_sets)):
        rank = [0] * n_sets
        for pos, i in enumerate(order):
            rank[i] = pos
        choice = [min(c, key=rank.__getitem__) for c in cands]
        scored.append((_score(masses, choice, n_sets, g), choice))
    best = (max if maximize else min)(s for s, _ in scored)
    slack = _kernels._PRUNE_SLACK * (1.0 + abs(best))
    return next((s, c) for s, c in scored if abs(s - best) <= slack)


def _check_against_oracle_and_scan(masses, cands, n_sets, g, maximize):
    """Assert the DP's choice and its score are the oracle's, the score is
    within the slack of the scan's optimum without beating it, and the DP's
    value is within the slack too; return (score, choice, transitions)."""
    value, choice, explored = _kernels.ordering_dp(
        masses, cands, n_sets, g, maximize, 10 ** 7)
    score = _score(masses, choice, n_sets, g)
    assert (score, choice) == _ordering_oracle(masses, cands, n_sets, g, maximize)
    best, _, _ = _kernels.scan_assignments(masses, cands, n_sets, g, maximize)
    slack = _kernels._PRUNE_SLACK * (1.0 + abs(best))
    assert abs(score - best) <= slack
    assert (score <= best) if maximize else (score >= best)
    assert abs(value - best) <= slack
    return score, choice, explored


class TestScanAgreement:
    def test_ordering_dp_matches_oracle(self):
        for masses, cands, n_sets, g, maximize in (
                case for seed in range(4, 60) for case in _packed_cases(seed, 120)):
            _, _, explored = _check_against_oracle_and_scan(
                masses, cands, n_sets, g, maximize)
            # the DP's transitions, then a walk of at most k + (k-1) + ... + 1
            assert explored <= n_sets * 2 ** (n_sets - 1) + n_sets * (n_sets + 1) // 2

    def test_ordering_dp_matches_oracle_with_exact_ties(self):
        # many orderings tie exactly; the walk must take the first of them
        for case in _dyadic_cases(8, 3000):
            _check_against_oracle_and_scan(*case)

    def test_atom_scan_matches_cell_search(self):
        # the reference scan over atoms (no cells) reaches the value that the
        # cell search behind cover_entropy reports
        rng = random.Random(3)
        for _ in range(30):
            mu, q = random_instance(rng, n_range=(2, 7), k_range=(2, 5))
            atoms, cands = _searched_atoms(mu, q)
            masses = [mu.masses[a] for a in atoms]
            for e in builtin_functionals():
                best, _, _ = _kernels.scan_assignments(
                    masses, cands, len(q), e.g, not e.minimizes_g_sum)
                assert cover_entropy(e, mu, q).value == pytest.approx(
                    e.f(best), abs=1e-12)

    def test_general_power_scan_matches_ordering_dp(self):
        # witnesses [3, 0, 1, 0, 0, 0] and [3, 0, 4, 0, 0, 0] have the same
        # block masses; only the set order of the g-sum's additions tells
        # them apart, so the DP must score its choice as the scan does
        masses = [0.06344219993644984, 0.4224902862436267,
                  0.08822773484715178, 0.1401024813496706,
                  0.06875713472022942, 0.21698016290287164]
        cands = [[3], [0, 1, 2, 3, 4], [1, 2, 4], [0, 1, 3], [0, 1, 2, 4], [0]]
        _, choice, _ = _check_against_oracle_and_scan(
            masses, cands, 5, tsallis(0.25).g, False)
        assert choice == [3, 0, 1, 0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ordering_dp_matches_oracle_on_random_packings(self, data):
        # any unit order, forced (single-candidate) units included
        n_sets = data.draw(st.integers(1, 4), label="n_sets")
        n = data.draw(st.integers(1, 6), label="units")
        forced = data.draw(st.integers(0, n), label="forced")
        sets = st.integers(0, n_sets - 1)
        cands = [sorted(data.draw(st.sets(sets, min_size=1, max_size=1 if u < forced
                                          else n_sets)))
                 for u in range(n)]
        cands = data.draw(st.permutations(cands), label="cands")
        masses = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n),
                           label="masses")
        e = data.draw(st.sampled_from(builtin_functionals()), label="functional")
        _check_against_oracle_and_scan(masses, cands, n_sets, e.g, not e.minimizes_g_sum)

    def test_benchmark_name_is_the_dp(self):
        # the benchmark harness traces the search as _kernels.branch_and_bound
        assert _kernels.branch_and_bound is _kernels.ordering_dp

    def test_empty_atom_list(self):
        g = builtin_functionals()[0].g
        best, choice, total = _kernels.scan_assignments([], [], 3, g, True)
        assert best == 0.0 and total == 1 and choice == []
        assert _kernels.ordering_dp([], [], 3, g, True, 1) == (0.0, [], 0)


class TestTieBreak:
    def test_first_lexicographic_optimum_wins(self):
        # two identical cover sets: merging into set 0 and into set 1 tie
        masses = [0.5, 0.5]
        cands = [[0, 1], [0, 1]]
        for e in builtin_functionals():
            maximize = not e.minimizes_g_sum
            _, choice, _ = _kernels.scan_assignments(masses, cands, 2, e.g, maximize)
            assert choice == [0, 0]
            _, choice, _ = _check_against_oracle_and_scan(masses, cands, 2, e.g, maximize)
            assert choice == [0, 0]

    def test_relabelled_optimum_yields_to_first_optimum(self):
        # putting the middle unit with the forced one (choice [1, 1, 0]) is
        # optimal, but [1, 0, 0] has the same blocks under other labels and
        # is induced by the first ordering (0, 1, 2), so both searches return it
        masses = [0.25, 0.5, 0.25]
        cands = [[1], [0, 1, 2], [0, 2]]
        for e in builtin_functionals():
            maximize = not e.minimizes_g_sum
            best, choice, _ = _kernels.scan_assignments(masses, cands, 3, e.g, maximize)
            assert choice == [1, 0, 0]
            best2, choice, _ = _check_against_oracle_and_scan(
                masses, cands, 3, e.g, maximize)
            assert best2 == best
            assert choice == [1, 0, 0]

    def test_first_ordering_decides_not_first_choice_vector(self):
        # uniform edges of K_4 under the four vertex stars: every ordering
        # gives blocks of 3, 2 and 1 edges.  The first ordering, (0, 1, 2, 3),
        # sends each edge to its lower end.  Under shannon the scan returns
        # [0, 0, 0, 1, 3, 3] instead: the same blocks, whose set-order g-sum
        # rounds 1 ulp better
        cands = [list(edge) for edge in itertools.combinations(range(4), 2)]
        masses = [1 / 6] * 6
        for e in builtin_functionals():
            maximize = not e.minimizes_g_sum
            _, choice, _ = _check_against_oracle_and_scan(masses, cands, 4, e.g, maximize)
            assert choice == [0, 0, 0, 1, 1, 2]


class TestCustomFunctional:
    def test_g_is_never_called_on_empty_groups(self):
        # a g undefined at 0 still works: empty groups are skipped
        def g(t):
            if t <= 0.0:
                raise AssertionError("g called on an empty group")
            return t * math.log2(t)

        e = EntropyFunctional(name="shannon-strict", alpha=None, f=lambda x: -x,
                              g=g, case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX)
        rng = random.Random(7)
        for _ in range(40):
            mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
            expected = min(partition_entropy(e, mu, p)
                           for p in enumerate_acceptable_partitions(mu, q))
            assert cover_entropy(e, mu, q).value == pytest.approx(expected, abs=1e-12)


#: Transitions that ordering_dp evaluates over all of _guard_cases().
TOTAL_EXPLORED = 24_646


def _guard_cases():
    yield from (case for seed in range(4, 12) for case in _packed_cases(seed, 40))
    yield from _dyadic_cases(8, 600)


class TestBudgetGuard:
    """The transition count is part of the result: these pin it, so a rewrite
    of the kernel that moves a single count fails here."""

    def test_budget_of_exactly_explored_completes(self):
        for case in _guard_cases():
            full = _kernels.ordering_dp(*case, 10 ** 7)
            assert _kernels.ordering_dp(*case, full[2]) == full

    def test_budget_one_short_fails_with_that_count(self):
        for case in _guard_cases():
            explored = _kernels.ordering_dp(*case, 10 ** 7)[2]
            with pytest.raises(BudgetExceededError) as info:
                _kernels.ordering_dp(*case, explored - 1)
            assert str(info.value) == (f"the search evaluated {explored - 1} transitions "
                                       "without certifying an optimum")

    def test_total_explored_is_pinned(self):
        total = sum(_kernels.ordering_dp(*case, 10 ** 7)[2] for case in _guard_cases())
        assert total == TOTAL_EXPLORED
