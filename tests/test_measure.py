import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverentropy import (
    AtomSet,
    DiscreteSpace,
    Measure,
    SetFamily,
    SpaceMismatchError,
    ValidationError,
    complement,
    finer_than,
    instance_dict,
    is_mu_cover,
    is_mu_partition,
    parse_instance,
    restrict,
)


def measure(*mass, probability=False):
    return Measure(DiscreteSpace(len(mass)), list(mass), probability=probability)


def family(n, *blocks):
    return SetFamily.of(DiscreteSpace(n), blocks)


# -- strategies --------------------------------------------------------------

@st.composite
def probability_vectors(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    raw = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    )
    total = sum(raw)
    if total < 1e-6:
        raw = [1.0] * n
        total = float(n)
    return [v / total for v in raw]


@st.composite
def measure_and_subset(draw):
    mass = draw(probability_vectors())
    space = DiscreteSpace(len(mass))
    members = draw(st.sets(st.integers(min_value=0, max_value=len(mass) - 1)))
    return Measure(space, mass, probability=True), AtomSet(space, tuple(members))


# -- types -------------------------------------------------------------------

class TestTypes:
    def test_space_requires_positive_n(self):
        with pytest.raises(ValidationError):
            DiscreteSpace(0)
        with pytest.raises(ValidationError):
            DiscreteSpace(-2)

    def test_measure_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            measure(0.5, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_measure_rejects_non_finite_mass(self, bad):
        # every comparison with NaN is False, so range checks alone let it in
        with pytest.raises(ValidationError, match="non-finite"):
            measure(0.5, bad)
        with pytest.raises(ValidationError, match="non-finite"):
            measure(bad, 0.5, probability=True)
        with pytest.raises(ValidationError, match="non-finite"):
            parse_instance({"n": 2, "mu": [bad, 0.5], "cover": [[0, 1]]})

    def test_measure_rejects_super_probability(self):
        with pytest.raises(ValidationError):
            measure(0.8, 0.5)

    def test_probability_flag_pins_total(self):
        measure(0.5, 0.5, probability=True)
        with pytest.raises(ValidationError):
            measure(0.5, 0.4, probability=True)

    def test_sub_probability_allowed_without_flag(self):
        m = measure(0.2, 0.1)
        assert m.total == pytest.approx(0.3)

    def test_measure_mass_is_readonly(self):
        m = measure(0.5, 0.5)
        with pytest.raises(ValueError):
            m.mass[0] = 1.0

    def test_atomset_canonicalizes(self):
        s = AtomSet(DiscreteSpace(5), (3, 1, 3, 1))
        assert s.members == (1, 3)

    def test_atomset_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            AtomSet(DiscreteSpace(2), (2,))

    @pytest.mark.parametrize("member", [0.5, 1.0, True, "a", None, -1, np.float64(0.0)])
    def test_atomset_admits_only_integers(self, member):
        with pytest.raises(ValidationError, match="atom"):
            AtomSet(DiscreteSpace(2), (member,))

    def test_atomset_accepts_numpy_integers(self):
        s = AtomSet(DiscreteSpace(3), (np.int64(2), np.uint8(0)))
        assert s.members == (0, 2)
        assert all(type(m) is int for m in s.members)

    @pytest.mark.parametrize("n", [True, 2.0, "2", None])
    def test_space_admits_only_positive_integers(self, n):
        with pytest.raises(ValidationError, match="atom count"):
            DiscreteSpace(n)

    def test_space_stores_a_python_int(self):
        space = DiscreteSpace(np.int64(3))
        assert type(space.n) is int
        assert space == DiscreteSpace(3) and hash(space) == hash(DiscreteSpace(3))

    # numpy would cast a boolean mixed with numbers to 1.0 or 0.0
    @pytest.mark.parametrize("mass", [["a", 0.5], [None, 0.5], [True, False], "ab",
                                      [0.0, True], [np.True_, 0.0], (1.0, False)])
    def test_measure_admits_only_numbers(self, mass):
        with pytest.raises(ValidationError, match="mass"):
            Measure(DiscreteSpace(2), mass)

    def test_family_requires_shared_space(self):
        a = AtomSet(DiscreteSpace(2), (0,))
        b = AtomSet(DiscreteSpace(3), (0,))
        with pytest.raises(SpaceMismatchError):
            SetFamily(DiscreteSpace(2), (a, b))

    def test_incidence_matches_members_and_is_readonly(self):
        fam = family(4, [2, 0], [], [1, 2, 3])
        inc = fam.incidence
        assert inc.dtype == bool and inc.shape == (3, 4)
        for i, s in enumerate(fam):
            assert np.flatnonzero(inc[i]).tolist() == list(s.members)
        with pytest.raises(ValueError):
            inc[1, 0] = True
        assert fam.incidence is inc


# -- restrict ----------------------------------------------------------------

class TestRestrict:
    def test_indicator_restriction(self):
        m = restrict(measure(0.5, 0.5), AtomSet(DiscreteSpace(2), (0,)))
        assert m.mass.tolist() == [0.5, 0.0]

    def test_identity_case(self):
        m = restrict(measure(0.5, 0.5), AtomSet(DiscreteSpace(2), (0, 1)))
        assert m.mass.tolist() == [0.5, 0.5]

    def test_partial_restriction(self):
        m = restrict(measure(0.2, 0.3, 0.5), AtomSet(DiscreteSpace(3), (1, 2)))
        assert m.mass.tolist() == [0.0, 0.3, 0.5]

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            restrict(measure(1.0), AtomSet(DiscreteSpace(2), (0,)))

    @given(measure_and_subset())
    def test_idempotent(self, pair):
        mu, a = pair
        once = restrict(mu, a)
        twice = restrict(once, a)
        assert np.array_equal(once.mass, twice.mass)

    @given(measure_and_subset())
    def test_complement_split_preserves_total(self, pair):
        mu, a = pair
        total = restrict(mu, a).total + restrict(mu, complement(a)).total
        assert total == pytest.approx(mu.total, abs=1e-12)


# -- partition / cover predicates ---------------------------------------------

class TestPredicates:
    def test_partition_true(self):
        assert is_mu_partition(family(2, [0], [1]), measure(0.5, 0.5))

    def test_partition_overlap_false(self):
        assert not is_mu_partition(family(2, [0, 1], [1]), measure(0.5, 0.5))

    def test_partition_uncovered_mass_false(self):
        assert not is_mu_partition(family(2, [0]), measure(0.5, 0.5))

    def test_partition_ignores_null_atoms(self):
        assert is_mu_partition(family(2, [0]), measure(1.0, 0.0))

    def test_cover_with_overlap(self):
        assert is_mu_cover(family(3, [0, 1], [1, 2]), measure(0.3, 0.4, 0.3))

    def test_cover_ignores_null_atoms(self):
        assert is_mu_cover(family(2, [0]), measure(1.0, 0.0))

    def test_empty_family_not_a_cover(self):
        assert not is_mu_cover(SetFamily(DiscreteSpace(1), ()), measure(1.0))


@st.composite
def families(draw, max_n=7, max_k=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    atoms = st.sets(st.integers(min_value=0, max_value=n - 1))
    return family(n, *draw(st.lists(atoms, max_size=max_k)))


def signatures_from_incidence(fam):
    """``(atom_signatures, uncovered atoms)`` read off the incidence columns."""
    groups = {}
    for atom in fam.space.atoms():
        sets = tuple(np.flatnonzero(fam.incidence[:, atom]).tolist())
        groups.setdefault(sets, []).append(atom)
    uncovered = groups.pop((), [])
    return tuple((sets, tuple(atoms)) for sets, atoms in groups.items()), uncovered


class TestSignatureMap:
    def test_groups_atoms_by_their_sets(self):
        fam = family(6, [2, 0, 5], [], [0, 2, 4], [4])
        assert fam.atom_signatures == (((0, 2), (0, 2)), ((2, 3), (4,)), ((0,), (5,)))
        assert fam.uncovered_atoms.tolist() == [1, 3]

    def test_cached_and_readonly(self):
        fam = family(4, [0, 1], [1])
        sigs, missed = fam.atom_signatures, fam.uncovered_atoms
        assert fam.atom_signatures is sigs and fam.uncovered_atoms is missed
        assert isinstance(sigs, tuple)
        assert all(type(sets) is tuple and type(atoms) is tuple for sets, atoms in sigs)
        assert missed.dtype == np.intp
        with pytest.raises(ValueError):
            missed[0] = 0

    @given(families())
    @settings(max_examples=200)
    def test_agrees_with_incidence(self, fam):
        sigs, uncovered = signatures_from_incidence(fam)
        assert fam.atom_signatures == sigs
        assert fam.uncovered_atoms.tolist() == uncovered

    def test_two_thousand_singletons(self):
        n = 2000
        fam = family(n, *([a] for a in range(n)))
        assert fam.atom_signatures == tuple(((a,), (a,)) for a in range(n))
        assert fam.uncovered_atoms.size == 0
        assert (fam.atom_signatures, []) == signatures_from_incidence(fam)
        gap = family(n, *([a] for a in range(1, n)))
        assert gap.uncovered_atoms.tolist() == [0]
        mass = np.full(n, 1.0 / n)
        assert is_mu_cover(fam, Measure(fam.space, mass))
        assert not is_mu_cover(gap, Measure(fam.space, mass))
        mass[1] += mass[0]
        mass[0] = 0.0
        assert is_mu_cover(gap, Measure(fam.space, mass))


class TestFinerThan:
    def test_singletons_finer_than_union(self):
        assert finer_than(family(2, [0], [1]), family(2, [0, 1]))

    def test_coarser_not_finer(self):
        assert not finer_than(family(2, [0, 1]), family(2, [0], [1]))

    def test_blocks_may_use_different_supersets(self):
        assert finer_than(family(3, [0], [2]), family(3, [0, 1], [1, 2]))

    def test_reflexive(self):
        fam = family(4, [0, 1], [2], [3])
        assert finer_than(fam, fam)

    def test_empty_blocks_ignored(self):
        assert finer_than(family(2, [], [0]), family(2, [0]))

    @given(st.data())
    @settings(max_examples=100)
    def test_transitive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        space = DiscreteSpace(n)
        atoms = st.sets(st.integers(min_value=0, max_value=n - 1))
        fams = [
            SetFamily.of(space, data.draw(st.lists(atoms, min_size=1, max_size=4)))
            for _ in range(3)
        ]
        a, b, c = fams
        if finer_than(a, b) and finer_than(b, c):
            assert finer_than(a, c)

    def test_cover_follows_from_finer_partition(self):
        # any family coarser than a mu-partition is a mu-cover
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mass = rng.dirichlet(np.ones(n))
            mu = Measure(DiscreteSpace(n), mass, probability=True)
            split = int(rng.integers(1, n))
            p = family(n, list(range(split)), list(range(split, n)))
            extra = [int(x) for x in rng.choice(n, size=2)]
            q = family(n, list(range(split)) + extra, list(range(split, n)))
            assert finer_than(p, q)
            assert is_mu_cover(q, mu)


# -- instance JSON -------------------------------------------------------------

class TestInstanceSchema:
    def test_round_trip(self):
        data = {"n": 3, "mu": [0.2, 0.3, 0.5], "cover": [[0, 1], [1, 2]]}
        mu, cover = parse_instance(data)
        assert mu.probability
        assert instance_dict(mu, cover) == data

    def test_missing_keys(self):
        with pytest.raises(ValidationError, match="missing"):
            parse_instance({"n": 2, "mu": [0.5, 0.5]})

    def test_bad_mu_length(self):
        with pytest.raises(ValidationError):
            parse_instance({"n": 3, "mu": [0.5, 0.5], "cover": [[0]]})

    def test_mu_must_be_probability(self):
        with pytest.raises(ValidationError):
            parse_instance({"n": 2, "mu": [0.5, 0.6], "cover": [[0, 1]]})

    def test_cover_entries_must_be_ints(self):
        with pytest.raises(ValidationError):
            parse_instance({"n": 2, "mu": [0.5, 0.5], "cover": [["0"]]})

    def test_atoms_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_instance({"n": 2, "mu": [0.5, 0.5], "cover": [[0, 5]]})

    def test_not_json_object(self):
        with pytest.raises(ValidationError):
            parse_instance([1, 2, 3])
