import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import _kernels
from coverentropy import (
    Assignment,
    BudgetExceededError,
    DiscreteSpace,
    Measure,
    MixtureSpec,
    SetFamily,
    SpaceMismatchError,
    ValidationError,
    assignment_to_partition,
    builtin_functionals,
    cover_entropy,
    cover_entropy_weighted,
    enumerate_acceptable_partitions,
    finer_than,
    is_mu_cover,
    is_mu_partition,
    partition_entropy,
    renyi,
    search_space_size,
    shannon,
    tsallis,
    verify_mixture_bounds,
)
from coverentropy.classical import (
    DEFAULT_BUDGET,
    _searched_atoms,
    _venn_cells,
    minimizing_assignment,
)
from coverentropy.measure import MASS_TOL
from coverentropy.selftest import random_acceptable_partition, random_instance, run_selftest

from bad_values import BAD_BUDGETS

OVERLAP_UNIFORM3 = 0.9182958340544896  # shannon entropy of (2/3, 1/3), mpmath-frozen


def measure(*mass):
    return Measure(DiscreteSpace(len(mass)), list(mass), probability=True)


def family(n, *blocks):
    return SetFamily.of(DiscreteSpace(n), blocks)


def uniform(n):
    return Measure(DiscreteSpace(n), [1.0 / n] * n, probability=True)


def _dense_instance(rng, n, k, density=0.6):
    """Dirichlet masses on n atoms under k random sets of the given density."""
    space = DiscreteSpace(n)
    mu = Measure(space, rng.dirichlet(np.ones(n)), probability=True)
    member = rng.random((k, n)) < density
    for atom in np.flatnonzero(~member.any(axis=0)):
        member[rng.integers(k), atom] = True
    return mu, SetFamily.of(space, [np.flatnonzero(row).tolist() for row in member])


@st.composite
def instances_with_gaps(draw):
    """A measure with some zero-mass atoms under up to five sets, which may
    leave atoms (of either mass) in no set."""
    n = draw(st.integers(min_value=1, max_value=7))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n))
    raw[0] = raw[0] or 1.0
    total = sum(raw)
    space = DiscreteSpace(n)
    sets = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5))
    return Measure(space, [v / total for v in raw]), SetFamily.of(space, sets)


class TestPartitionEntropy:
    def test_uniform_four_singletons(self):
        p = family(4, [0], [1], [2], [3])
        assert partition_entropy(shannon(), uniform(4), p) == pytest.approx(2.0)

    def test_tsallis_two_singletons(self):
        p = family(2, [0], [1])
        assert partition_entropy(tsallis(2), measure(0.5, 0.5), p) == pytest.approx(0.5)

    def test_single_block_is_zero_for_all_builtins(self):
        p = family(3, [0, 1, 2])
        for e in builtin_functionals():
            assert partition_entropy(e, uniform(3), p) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_partition(self):
        with pytest.raises(ValidationError):
            partition_entropy(shannon(), measure(0.5, 0.5), family(2, [0, 1], [1]))


class TestAssignment:
    def test_grouping(self):
        cover = family(3, [0, 1], [1, 2])
        a = Assignment.from_mapping(cover, {0: 0, 1: 0, 2: 1})
        assert assignment_to_partition(a).as_lists() == [[0, 1], [2]]

    def test_all_to_one_set(self):
        cover = family(2, [0, 1], [1])
        a = Assignment.from_mapping(cover, {0: 0, 1: 0})
        assert assignment_to_partition(a).as_lists() == [[0, 1]]

    def test_zero_mass_atom_absent(self):
        # mu = (0.5, 0, 0.5): atom 1 is simply never assigned
        cover = family(3, [0], [2], [1])
        a = Assignment.from_mapping(cover, {0: 0, 2: 1})
        assert assignment_to_partition(a).as_lists() == [[0], [2]]

    def test_rejects_non_member(self):
        cover = family(2, [0], [1])
        with pytest.raises(ValidationError):
            Assignment.from_mapping(cover, {0: 1})

    @pytest.mark.parametrize("atom", [-1, 2])
    def test_rejects_atom_outside_space(self, atom):
        # a negative atom must not wrap around to the last one
        cover = family(2, [0, 1])
        with pytest.raises(ValidationError, match="atoms must lie in"):
            Assignment(cover.space, cover, ((atom, 0),))

    def test_rejects_duplicate_atom(self):
        cover = family(2, [0, 1], [0, 1])
        with pytest.raises(ValidationError):
            Assignment(cover.space, cover, ((0, 0), (0, 1)))

    def test_rejects_index_out_of_range(self):
        cover = family(2, [0], [1])
        with pytest.raises(ValidationError):
            Assignment.from_mapping(cover, {0: 5})

    @pytest.mark.parametrize("pair", [(0.5, 0), (0, 0.9), (True, 0), (0, False), ("0", 0),
                                      (0, "0"), (np.float64(1.0), 0), (None, 0)])
    def test_admits_only_integers(self, pair):
        # a float or boolean must not be truncated onto an atom or a set
        cover = family(2, [0, 1])
        with pytest.raises(ValidationError, match="integers"):
            Assignment(cover.space, cover, (pair,))

    def test_accepts_numpy_integers(self):
        cover = family(2, [0, 1], [1])
        a = Assignment(cover.space, cover, ((np.int64(1), np.uint8(1)), (np.int32(0), 0)))
        assert a.choice == ((0, 0), (1, 1))
        assert all(type(v) is int for pair in a.choice for v in pair)


class TestCoverEntropy:
    def test_forced_singletons(self):
        r = cover_entropy(shannon(), uniform(2), family(2, [0], [1]))
        assert r.value == pytest.approx(1.0)
        assert r.witness.as_lists() == [[0], [1]]

    def test_coarsest_block_wins(self):
        # adding the merged set lets the search reach entropy zero
        r = cover_entropy(shannon(), uniform(2), family(2, [0, 1], [0], [1]))
        assert r.value == pytest.approx(0.0, abs=1e-15)
        assert r.witness.as_lists() == [[0, 1]]

    def test_non_cover_is_infinite(self):
        for e in builtin_functionals():
            r = cover_entropy(e, measure(0.5, 0.5), family(2, [0]))
            assert r.is_infinite
            assert r.witness is None
            assert r.value_or_inf() == float("inf")

    def test_minimizing_assignment_rejects_non_cover(self):
        # the search alone would drop atom 2 and its 0.5 of the mass
        with pytest.raises(ValidationError, match="mu-cover"):
            minimizing_assignment(shannon(), measure(0.2, 0.3, 0.5), family(3, [0, 1]))

    def test_minimizing_assignment_allows_null_uncovered_mass(self):
        mu = Measure(DiscreteSpace(3), [0.5, 0.5, 1e-13], probability=True)
        a, _ = minimizing_assignment(shannon(), mu, family(3, [0, 1]))
        assert a.as_dict() == {0: 0, 1: 0}

    def test_minimizing_assignment_checks_space(self):
        with pytest.raises(SpaceMismatchError):
            minimizing_assignment(shannon(), uniform(2), family(3, [0, 1, 2]))

    def test_overlap_instance(self):
        r = cover_entropy(shannon(), uniform(3), family(3, [0, 1], [1, 2]))
        assert r.value == pytest.approx(OVERLAP_UNIFORM3, abs=1e-12)
        # DP: 2 transitions from the root and 1 from each residual; the two
        # optima tie, so the witness walk evaluates the same 4 again
        assert r.explored == 8

    def test_agrees_with_partition_entropy_when_cover_is_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            mass = rng.dirichlet(np.ones(n))
            mu = Measure(DiscreteSpace(n), mass, probability=True)
            cut = int(rng.integers(1, n))
            q = family(n, list(range(cut)), list(range(cut, n)))
            for e in builtin_functionals():
                r = cover_entropy(e, mu, q)
                assert r.value == pytest.approx(partition_entropy(e, mu, q), abs=1e-12)

    def test_witness_is_acceptable_partition(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            mu, q = random_instance(rng)
            for e in (shannon(), tsallis(0.5)):
                r = cover_entropy(e, mu, q)
                assert not r.is_infinite
                assert is_mu_partition(r.witness, mu)
                assert finer_than(r.witness, q)
                assert partition_entropy(e, mu, r.witness) == r.value

    def test_monotone_in_the_cover(self):
        # widening the family can only lower the minimum
        rng = np.random.default_rng(17)
        for _ in range(30):
            mu, q1 = random_instance(rng)
            extra = [
                [int(a) for a in rng.choice(mu.space.n, size=int(rng.integers(1, mu.space.n + 1)), replace=False)]
            ]
            q2 = SetFamily.of(mu.space, q1.as_lists() + extra)
            for e in (shannon(), renyi(2)):
                assert (
                    cover_entropy(e, mu, q2).value
                    <= cover_entropy(e, mu, q1).value + 1e-12
                )

    def test_deterministic_witness(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu, q = random_instance(rng)
            a = cover_entropy(shannon(), mu, q)
            b = cover_entropy(shannon(), mu, q)
            assert a.value == b.value
            assert a.witness.as_lists() == b.witness.as_lists()

    def test_tie_break_is_lexicographic(self):
        # duplicated cover set: assignments (0,0) and (1,1) tie; lex wins
        mu = measure(0.5, 0.5)
        q = family(2, [0, 1], [0, 1])
        for e in builtin_functionals():
            a, _ = minimizing_assignment(e, mu, q)
            assert a.choice == ((0, 0), (1, 0))


class TestSearchStructure:
    """The search reads the cover's cached signature map; these pin it to
    the incidence matrix and the witness to the partition entropy."""

    @given(instances_with_gaps())
    @settings(max_examples=200, deadline=None)
    def test_cells_and_cover_check_agree_with_incidence(self, instance):
        mu, q = instance
        inc = q.incidence
        mass = mu.mass.tolist()
        searched = [a for a in range(mu.space.n) if mass[a] > 0.0 and inc[:, a].any()]
        cands = [np.flatnonzero(inc[:, a]).tolist() for a in searched]
        assert _searched_atoms(mu, q) == (searched, cands)
        groups = {}
        for atom, sets in zip(searched, cands):
            groups.setdefault(tuple(sets), []).append(atom)
        cells = [(sum(mass[a] for a in atoms), atoms, sets) for sets, atoms in groups.items()]
        cells.sort(key=lambda c: (len(c[2]) > 1, -c[0], c[1][0]))
        assert _venn_cells(mu, q) == cells
        uncovered = float(mu.mass[~inc.any(axis=0)].sum())
        assert is_mu_cover(q, mu) is (uncovered <= MASS_TOL)

    @given(instances_with_gaps())
    @settings(max_examples=100, deadline=None)
    def test_value_is_the_witness_partition_entropy(self, instance):
        mu, q = instance
        for e in builtin_functionals():
            r = cover_entropy(e, mu, q)
            if not is_mu_cover(q, mu):
                assert r.is_infinite
                continue
            assert r.value == partition_entropy(e, mu, r.witness)

    @pytest.mark.parametrize("search", [cover_entropy, cover_entropy_weighted])
    def test_cell_sent_outside_its_sets_is_rejected(self, monkeypatch, search):
        search_dp = _kernels.ordering_dp

        def misplacing_dp(masses, cands, n_sets, *rest):
            best, choice, explored, done = search_dp(masses, cands, n_sets, *rest)
            outside = next(i for i in range(n_sets) if i not in cands[0])
            return best, [outside, *choice[1:]], explored, done

        monkeypatch.setattr(_kernels, "ordering_dp", misplacing_dp)
        with pytest.raises(ValidationError, match="not a member"):
            search(shannon(), measure(0.5, 0.25, 0.25), family(3, [0, 1], [1, 2]))

    @pytest.mark.parametrize("search", [cover_entropy, cover_entropy_weighted])
    def test_cell_left_without_a_set_is_rejected(self, monkeypatch, search):
        search_dp = _kernels.ordering_dp

        def short_dp(*args):
            best, choice, explored, done = search_dp(*args)
            return best, choice[:-1], explored, done

        monkeypatch.setattr(_kernels, "ordering_dp", short_dp)
        with pytest.raises(ValidationError, match="without a cover set"):
            search(shannon(), measure(0.5, 0.25, 0.25), family(3, [0, 1], [1, 2]))


class TestEnumeration:
    def test_overlap_instance_yields_two(self):
        parts = list(enumerate_acceptable_partitions(uniform(3), family(3, [0, 1], [1, 2])))
        assert [p.as_lists() for p in parts] == [[[0, 1], [2]], [[0], [1, 2]]]

    def test_partition_cover_yields_itself(self):
        q = family(3, [0, 1], [2])
        parts = list(enumerate_acceptable_partitions(uniform(3), q))
        assert len(parts) == 1
        assert parts[0].as_lists() == q.as_lists()

    def test_zero_mass_atom_dropped(self):
        parts = list(enumerate_acceptable_partitions(measure(1.0, 0.0), family(2, [0], [1])))
        assert [p.as_lists() for p in parts] == [[[0]]]

    def test_requires_cover(self):
        with pytest.raises(ValidationError):
            list(enumerate_acceptable_partitions(measure(0.5, 0.5), family(2, [0])))

    def test_cap_on_combinatorial_blowup(self):
        n = 24
        mu = uniform(n)
        q = family(n, list(range(n)), list(range(n)))  # 2^24 > 10^7 assignments
        assert search_space_size(mu, q) == 2 ** 24
        with pytest.raises(BudgetExceededError):
            list(enumerate_acceptable_partitions(mu, q))

    def test_deduplicates_identical_partitions(self):
        # both cover sets equal: every grouping appears once
        parts = list(enumerate_acceptable_partitions(uniform(2), family(2, [0, 1], [0, 1])))
        seen = [p.as_lists() for p in parts]
        assert seen == [[[0, 1]], [[0], [1]]]


class TestOracleAgreement:
    """The compiled search must match the naive enumeration minimum."""

    def test_search_equals_enumeration_minimum(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
            for e in builtin_functionals():
                expected = min(
                    partition_entropy(e, mu, p)
                    for p in enumerate_acceptable_partitions(mu, q)
                )
                got = cover_entropy(e, mu, q).value
                assert got == pytest.approx(expected, abs=1e-12)

    def test_enumeration_minimum_beats_arbitrary_refinements(self):
        # any finer partition (even one splitting within a block) does no better
        rng = np.random.default_rng(202)
        for _ in range(60):
            mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 4))
            refined = random_acceptable_partition(rng, mu, q, split_chance=0.9)
            for e in builtin_functionals():
                best = cover_entropy(e, mu, q).value
                assert best <= partition_entropy(e, mu, refined) + 1e-12


class TestRandomAcceptablePartition:
    def test_uniform_set_choice_law(self):
        # each atom picks one of three identical sets: they share one w.p. 1/3
        mu, q = uniform(2), family(2, [0, 1], [0, 1], [0, 1])
        rng = np.random.default_rng(3)
        draws = [random_acceptable_partition(rng, mu, q, split_chance=0.0)
                 for _ in range(4000)]
        shared = np.mean([len(p) == 1 for p in draws])
        assert abs(shared - 1 / 3) < 0.03

    def test_no_searched_atoms(self):
        mu = Measure(DiscreteSpace(2), [0.0, 0.0])
        p = random_acceptable_partition(np.random.default_rng(0), mu, family(2, [0, 1]))
        assert len(p) == 0


def _enumeration_minimum(e, mu, q):
    return min(partition_entropy(e, mu, p) for p in enumerate_acceptable_partitions(mu, q))


# every public function that takes a budget, called on a non-cover, so a
# budget checked only after the cover check would go unchecked
BUDGET_ENTRY_POINTS = {
    "cover_entropy": lambda mu, q, budget: cover_entropy(shannon(), mu, q, budget=budget),
    "cover_entropy_weighted":
        lambda mu, q, budget: cover_entropy_weighted(shannon(), mu, q, budget=budget),
    "minimizing_assignment":
        lambda mu, q, budget: minimizing_assignment(shannon(), mu, q, budget=budget),
    "verify_mixture_bounds": lambda mu, q, budget: verify_mixture_bounds(
        shannon(), MixtureSpec(((1.0, mu),)), q, budget=budget),
    "run_selftest": lambda mu, q, budget: run_selftest("quick", 0, budget=budget),
}


class TestBudgetAndBranchBound:
    def test_budget_error(self):
        # the smallest valid budget; this instance needs four transitions
        mu, q = uniform(4), family(4, [0, 1, 2, 3], [0, 1, 2, 3])
        with pytest.raises(BudgetExceededError):
            cover_entropy(shannon(), mu, q, budget=1)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    @pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
    def test_bad_budget_rejected_before_any_work(self, entry, budget):
        mu, q = uniform(2), family(2, [0])
        with pytest.raises(ValidationError, match="budget"):
            BUDGET_ENTRY_POINTS[entry](mu, q, budget)

    def test_numpy_integer_budget_accepted(self):
        mu, q = uniform(3), family(3, [0, 1], [1, 2])
        assert cover_entropy(shannon(), mu, q, budget=np.int64(8)).explored == 8

    def test_budget_counts_every_transition(self):
        # the budget is exact: the reported count fits, one less does not
        mu, q = uniform(3), family(3, [0, 1], [1, 2])
        assert cover_entropy(shannon(), mu, q, budget=8).explored == 8
        with pytest.raises(BudgetExceededError):
            cover_entropy(shannon(), mu, q, budget=7)

    def test_search_matches_enumeration_on_thousand_instances(self):
        # exactness of the cell search: the enumeration minimum everywhere,
        # attained by the witness
        rng = np.random.default_rng(404)
        for _ in range(1000):
            mu, q = random_instance(rng, n_range=(2, 6), k_range=(2, 5))
            e = builtin_functionals()[int(rng.integers(5))]
            a, _ = minimizing_assignment(e, mu, q)
            value = partition_entropy(e, mu, assignment_to_partition(a))
            assert value == pytest.approx(_enumeration_minimum(e, mu, q), abs=1e-12)

    def test_search_explores_fewer_transitions_than_assignments(self):
        mu, q = uniform(8), family(8, *( [list(range(8))] * 4 ))
        full = search_space_size(mu, q)
        r = cover_entropy(shannon(), mu, q, budget=full)
        assert r.explored < full
        assert r.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_transitions_do_not_grow_with_atoms(self, k):
        # the DP makes at most k * 2**(k-1) transitions and, with a single
        # optimal choice vector, the witness walk at most as many again
        rng = np.random.default_rng(k)
        for n in (20, 200, 2000):
            mu, q = _dense_instance(rng, n, k)
            for e in (shannon(), tsallis(2)):
                assert cover_entropy(e, mu, q).explored <= k * 2 ** k


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDisjointAndDeepCovers:
    """Covers with many sets that the DP must not branch or recurse on."""

    @pytest.mark.parametrize("n, blocks", [
        pytest.param(200, [list(range(10 * j, 10 * j + 10)) for j in range(20)],
                     id="20-blocks"),
        pytest.param(2000, [[a] for a in range(2000)], id="2000-singletons"),
    ])
    def test_partition_cover_is_placed_in_one_move(self, n, blocks):
        # every set's cells are its own, so the DP places all of them in one
        # move: k transitions, and k more in the witness walk
        rng = np.random.default_rng(n)
        mu = Measure(DiscreteSpace(n), rng.dirichlet(np.ones(n)), probability=True)
        q = family(n, *blocks)
        for e in builtin_functionals():
            r = cover_entropy(e, mu, q, budget=DEFAULT_BUDGET)
            assert r.value == pytest.approx(partition_entropy(e, mu, q), abs=1e-12)
            assert r.explored == 2 * len(blocks)

    def test_transitions_count_only_sets_that_share_cells(self):
        # c = 4 dense sets sharing cells plus 30 disjoint blocks: the DP
        # evaluates at most (k - c) + c * 2**(c-1) transitions and, with a
        # single optimal choice vector, the walk at most as many again
        rng = np.random.default_rng(5)
        n_dense, k_dense, n_blocks = 100, 4, 30
        member = rng.random((k_dense, n_dense)) < 0.6
        for atom in np.flatnonzero(~member.any(axis=0)):
            member[0, atom] = True
        dense = [np.flatnonzero(row).tolist() for row in member]
        blocks = [[n_dense + 2 * j, n_dense + 2 * j + 1] for j in range(n_blocks)]
        n = n_dense + 2 * n_blocks
        mu = Measure(DiscreteSpace(n), rng.dirichlet(np.ones(n)), probability=True)
        q = family(n, *dense, *blocks)
        bound = n_blocks + k_dense * 2 ** (k_dense - 1)
        for e in (shannon(), tsallis(2)):
            r = cover_entropy(e, mu, q)
            assert r.explored <= 2 * bound
            assert r.value == pytest.approx(
                cover_entropy(e, mu, family(n, *dense, *blocks[::-1])).value, abs=1e-12)

    def test_search_does_not_recurse(self):
        # 200 nested sets: the chain of moves is 200 deep, deeper than the
        # recursion limit allowed here; all mass goes to the largest set
        n = 200
        q = family(n, *[list(range(j + 1)) for j in range(n)])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            r = cover_entropy(shannon(), uniform(n), q)
        finally:
            sys.setrecursionlimit(old)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.witness.as_lists() == [list(range(n))]

    def test_long_chain_exhausts_the_budget(self):
        # 2000 sets {j, j+1}: each state branches on about 2000 sets, so the
        # budget, not the stack, ends the search
        n = 2001
        q = family(n, *[[j, j + 1] for j in range(n - 1)])
        with pytest.raises(BudgetExceededError):
            cover_entropy(shannon(), uniform(n), q, budget=100_000)


class TestLargeInstances:
    """Many atoms over k sets collapse to at most 2**k - 1 Venn cells."""

    @staticmethod
    def _instance(n, seed, k=3):
        rng = np.random.default_rng(seed)
        sets = [[a for a in range(n) if rng.random() < 0.6] for _ in range(k)]
        covered = set().union(*sets)
        for a in range(n):
            if a not in covered:
                sets[int(rng.integers(k))].append(a)
        mu = Measure(DiscreteSpace(n), rng.dirichlet(np.ones(n)), probability=True)
        return mu, family(n, *sets)

    @staticmethod
    def _collapsed(mu, q):
        # one atom per Venn cell, carrying the cell's mass
        cells = {}
        for a in range(mu.space.n):
            key = tuple(np.flatnonzero(q.incidence[:, a]).tolist())
            cells[key] = cells.get(key, 0.0) + float(mu.mass[a])
        keys = sorted(cells)
        space = DiscreteSpace(len(keys))
        blocks = [[i for i, key in enumerate(keys) if j in key] for j in range(len(q))]
        mu = Measure(space, [cells[key] for key in keys], probability=True)
        return mu, SetFamily.of(space, blocks)

    @pytest.mark.parametrize("n, k", [
        pytest.param(40, 3, id="40"),
        pytest.param(2000, 3, id="2000"),
        pytest.param(10_000, 4, id="10000-k4"),
    ])
    def test_value_is_the_collapsed_enumeration_minimum(self, n, k):
        mu, q = self._instance(n, seed=n, k=k)
        small_mu, small_q = self._collapsed(mu, q)
        assert small_mu.space.n <= 2 ** k - 1
        partitions = list(enumerate_acceptable_partitions(small_mu, small_q))
        for e in builtin_functionals():
            r = cover_entropy(e, mu, q)
            assert is_mu_partition(r.witness, mu) and finer_than(r.witness, q)
            assert r.value == pytest.approx(
                min(partition_entropy(e, small_mu, p) for p in partitions), abs=1e-12)

    def test_ten_thousand_atoms_over_eight_sets(self):
        # beyond any enumeration: the witness is checked, and no random
        # acceptable partition does better
        rng = np.random.default_rng(0)
        mu, q = _dense_instance(rng, 10_000, 8)
        r = cover_entropy(shannon(), mu, q, budget=DEFAULT_BUDGET)
        assert is_mu_partition(r.witness, mu) and finer_than(r.witness, q)
        assert partition_entropy(shannon(), mu, r.witness) == r.value
        assert r.explored == 1060  # 8 * 2**7 DP transitions, 8 + 7 + ... + 1 walked
        for _ in range(50):
            p = random_acceptable_partition(rng, mu, q)
            assert r.value <= partition_entropy(shannon(), mu, p)
