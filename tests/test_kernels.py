"""The certified search (the DP over set orderings) against the exhaustive
reference scan.

Inputs are packed as the package packs them: one unit per Venn cell, cells
with a single candidate set first, then heaviest first.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
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
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mu, q = random_instance(rng, n_range=(2, 7), k_range=(2, 5))
        cells = _venn_cells(mu, q)
        masses = [m for m, _, _ in cells]
        cands = [c for _, _, c in cells]
        for e in builtin_functionals():
            yield masses, cands, len(q), e.g, not e.minimizes_g_sum


class TestScanAgreement:
    def test_ordering_dp_matches_scan_bitwise(self):
        for masses, cands, n_sets, g, maximize in (
                case for seed in range(4, 60) for case in _packed_cases(seed, 120)):
            b1, ch1, _ = _kernels.scan_assignments(masses, cands, n_sets, g, maximize)
            b2, ch2, explored, done = _kernels.ordering_dp(
                masses, cands, n_sets, g, maximize, 10 ** 7)
            assert done and explored <= n_sets * 2 ** n_sets
            assert b1 == b2  # same g and add order in the ranking: bit identical
            assert ch1 == ch2

    def test_ordering_dp_matches_scan_with_exact_ties(self):
        # dyadic masses make many groupings tie exactly, so the witness
        # walk must collect every optimal ordering and rank them as the scan
        rng = np.random.default_rng(8)
        functionals = builtin_functionals()
        for trial in range(3000):
            n_sets = int(rng.integers(1, 5))
            cands = [sorted(rng.choice(n_sets, size=int(rng.integers(1, n_sets + 1)),
                                       replace=False).tolist())
                     for _ in range(int(rng.integers(1, 7)))]
            masses = [int(rng.integers(1, 5)) / 8 for _ in cands]
            e = functionals[trial % len(functionals)]
            maximize = not e.minimizes_g_sum
            b1, ch1, _ = _kernels.scan_assignments(masses, cands, n_sets, e.g, maximize)
            b2, ch2, _, done = _kernels.ordering_dp(masses, cands, n_sets, e.g,
                                                    maximize, 10 ** 7)
            assert done
            assert b1 == b2
            assert ch1 == ch2

    def test_atom_scan_matches_cell_search(self):
        # the reference scan over atoms (no cells) reaches the value that the
        # cell search behind cover_entropy reports
        rng = np.random.default_rng(3)
        for _ in range(30):
            mu, q = random_instance(rng, n_range=(2, 7), k_range=(2, 5))
            atoms, cands = _searched_atoms(mu, q)
            masses = [float(mu.mass[a]) for a in atoms]
            for e in builtin_functionals():
                best, _, _ = _kernels.scan_assignments(
                    masses, cands, len(q), e.g, not e.minimizes_g_sum)
                assert cover_entropy(e, mu, q).value == pytest.approx(
                    e.f(best), abs=1e-12)

    def test_general_power_scan_matches_ordering_dp(self):
        # witnesses [3, 0, 1, 0, 0, 0] and [3, 0, 4, 0, 0, 0] have the same
        # block masses; only the set order of the g-sum's additions tells
        # them apart, so both searches must add in the same order
        masses = [0.06344219993644984, 0.4224902862436267,
                  0.08822773484715178, 0.1401024813496706,
                  0.06875713472022942, 0.21698016290287164]
        cands = [[3], [0, 1, 2, 3, 4], [1, 2, 4], [0, 1, 3], [0, 1, 2, 4], [0]]
        g = tsallis(0.25).g
        b1, ch1, _ = _kernels.scan_assignments(masses, cands, 5, g, False)
        b2, ch2, _, done = _kernels.ordering_dp(masses, cands, 5, g, False, 10 ** 7)
        assert done
        assert b1 == b2
        assert ch1 == ch2 == [3, 0, 4, 0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ordering_dp_matches_scan_on_random_packings(self, data):
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
        maximize = not e.minimizes_g_sum
        b1, ch1, _ = _kernels.scan_assignments(masses, cands, n_sets, e.g, maximize)
        b2, ch2, _, done = _kernels.ordering_dp(masses, cands, n_sets, e.g, maximize,
                                                10 ** 7)
        assert done
        assert b1 == b2
        assert ch1 == ch2

    def test_benchmark_name_is_the_dp(self):
        # the benchmark harness traces the search as _kernels.branch_and_bound
        assert _kernels.branch_and_bound is _kernels.ordering_dp

    def test_empty_atom_list(self):
        g = builtin_functionals()[0].g
        best, choice, total = _kernels.scan_assignments([], [], 3, g, True)
        assert best == 0.0 and total == 1 and choice == []
        best, choice, explored, done = _kernels.ordering_dp([], [], 3, g, True, 1)
        assert best == 0.0 and choice == [] and explored == 0 and done


class TestTieBreak:
    def test_first_lexicographic_optimum_wins(self):
        # two identical cover sets: merging into set 0 and into set 1 tie
        masses = [0.5, 0.5]
        cands = [[0, 1], [0, 1]]
        for e in builtin_functionals():
            maximize = not e.minimizes_g_sum
            _, choice, _ = _kernels.scan_assignments(masses, cands, 2, e.g, maximize)
            assert choice == [0, 0]
            _, choice, _, _ = _kernels.ordering_dp(masses, cands, 2, e.g, maximize,
                                                   10 ** 6)
            assert choice == [0, 0]

    def test_relabelled_optimum_yields_to_first_optimum(self):
        # putting the middle unit with the forced one (choice [1, 1, 0]) is
        # optimal, but [1, 0, 0] has the same blocks under other labels and
        # comes first, so both searches return it
        masses = [0.25, 0.5, 0.25]
        cands = [[1], [0, 1, 2], [0, 2]]
        for e in builtin_functionals():
            maximize = not e.minimizes_g_sum
            best, choice, _ = _kernels.scan_assignments(masses, cands, 3, e.g, maximize)
            assert choice == [1, 0, 0]
            best2, choice, _, done = _kernels.ordering_dp(masses, cands, 3, e.g,
                                                          maximize, 10 ** 6)
            assert done and best2 == best
            assert choice == [1, 0, 0]


class TestCustomFunctional:
    def test_g_is_never_called_on_empty_groups(self):
        # a g undefined at 0 still works: empty groups are skipped
        def g(t):
            if t <= 0.0:
                raise AssertionError("g called on an empty group")
            return t * math.log2(t)

        e = EntropyFunctional(name="shannon-strict", alpha=None, f=lambda x: -x,
                              g=g, case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX)
        rng = np.random.default_rng(7)
        for _ in range(40):
            mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
            expected = min(partition_entropy(e, mu, p)
                           for p in enumerate_acceptable_partitions(mu, q))
            assert cover_entropy(e, mu, q).value == pytest.approx(expected, abs=1e-12)
