import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bad_values import BAD_ALPHAS, BAD_BUDGETS, BAD_GRID_SIZES, BAD_SEEDS, BAD_TOLS
from oracles import incidence
from coverentropy import (
    AtomSet,
    DiscreteSpace,
    MASS_TOL,
    Measure,
    SetFamily,
    SpaceMismatchError,
    ValidationError,
    cover_entropy,
    evaluate,
    finer_than,
    instance_dict,
    is_mu_cover,
    is_mu_partition,
    parse_division,
    parse_instance,
    parse_mixture,
    partition_entropy,
    shannon,
)
from coverentropy.measure import is_finite_number, is_integer, real_list


def measure(*mass, probability=False):
    return Measure(DiscreteSpace(len(mass)), list(mass), probability=probability)


def family(n, *blocks):
    return SetFamily.of(DiscreteSpace(n), blocks)


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
        with pytest.raises(TypeError):
            m.masses[0] = 1.0

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

    @pytest.mark.parametrize("blocks", [5, None, [5], [[0], 1], [None]])
    def test_family_of_rejects_non_iterable_blocks(self, blocks):
        with pytest.raises(ValidationError, match="blocks"):
            SetFamily.of(DiscreteSpace(2), blocks)

    @pytest.mark.parametrize("build", [AtomSet, SetFamily])
    @pytest.mark.parametrize("members", [5, None, 0.5])
    def test_constructors_reject_non_iterable_members(self, build, members):
        with pytest.raises(ValidationError, match="must be iterable"):
            build(DiscreteSpace(2), members)

    def test_family_requires_shared_space(self):
        a = AtomSet(DiscreteSpace(2), (0,))
        b = AtomSet(DiscreteSpace(3), (0,))
        with pytest.raises(SpaceMismatchError):
            SetFamily(DiscreteSpace(2), (a, b))


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
    inc = incidence(fam)
    for atom in range(fam.space.n):
        sets = tuple(np.flatnonzero(inc[:, atom]).tolist())
        groups.setdefault(sets, []).append(atom)
    uncovered = groups.pop((), [])
    return tuple((sets, tuple(atoms)) for sets, atoms in groups.items()), uncovered


def signatures_from_lists(fam):
    """The same, from one list of holding sets per atom, scanning every set."""
    held = [[] for _ in range(fam.space.n)]
    for idx, s in enumerate(fam.sets):
        for atom in s.members:
            held[atom].append(idx)
    groups = {}
    for atom, sets in enumerate(held):
        groups.setdefault(tuple(sets), []).append(atom)
    uncovered = tuple(groups.pop((), ()))
    return tuple((sets, tuple(atoms)) for sets, atoms in groups.items()), uncovered


class TestSignatureMap:
    def test_groups_atoms_by_their_sets(self):
        fam = family(6, [2, 0, 5], [], [0, 2, 4], [4])
        assert fam.atom_signatures == (((0, 2), (0, 2)), ((2, 3), (4,)), ((0,), (5,)))
        assert fam.uncovered_atoms == (1, 3)

    def test_cached_and_readonly(self):
        fam = family(4, [0, 1], [1])
        sigs, missed = fam.atom_signatures, fam.uncovered_atoms
        assert fam.atom_signatures is sigs and fam.uncovered_atoms is missed
        assert isinstance(sigs, tuple)
        assert all(type(sets) is tuple and type(atoms) is tuple for sets, atoms in sigs)
        assert type(missed) is tuple and missed == (2, 3)  # a tuple is read-only

    @given(families(max_k=70))  # up to 70 sets, so the per-atom bitmasks pass 64 bits
    @settings(max_examples=200)
    def test_agrees_with_incidence(self, fam):
        sigs, uncovered = signatures_from_incidence(fam)
        assert fam.atom_signatures == sigs
        assert fam.uncovered_atoms == tuple(uncovered)
        assert (fam.atom_signatures, fam.uncovered_atoms) == signatures_from_lists(fam)

    def test_two_thousand_singletons(self):
        n = 2000
        fam = family(n, *([a] for a in range(n)))
        assert fam.atom_signatures == tuple(((a,), (a,)) for a in range(n))
        assert fam.uncovered_atoms == ()
        assert (fam.atom_signatures, []) == signatures_from_incidence(fam)
        assert (fam.atom_signatures, ()) == signatures_from_lists(fam)
        gap = family(n, *([a] for a in range(1, n)))
        assert gap.uncovered_atoms == (0,)
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


# each JSON parser with one bad entry in its first mass list, and the name
# that list must carry in the error
JSON_MASS_LISTS = {
    "instance": (lambda m: parse_instance({"n": 2, "mu": m, "cover": [[0, 1]]}), '"mu"'),
    "mixture": (lambda m: parse_mixture({"n": 2, "coefficients": [1.0], "measures": [m],
                                         "cover": [[0, 1]], "functional": "shannon"}),
                "measure 0"),
    "division": (lambda m: parse_division({"cover_index_rows": [m]},
                                          measure(0.5, 0.5, probability=True),
                                          family(2, [0, 1])),
                 "row 0"),
}


@pytest.mark.parametrize("bad", ["0.5", None, True, 10 ** 400, [0.5]],
                         ids=["string", "null", "boolean", "huge-int", "nested"])
@pytest.mark.parametrize("parse, what", JSON_MASS_LISTS.values(), ids=JSON_MASS_LISTS)
def test_json_mass_list_rejects_non_number(parse, what, bad):
    with pytest.raises(ValidationError, match=what):
        parse([bad, 0.5])


@pytest.mark.parametrize("parse, what", JSON_MASS_LISTS.values(), ids=JSON_MASS_LISTS)
def test_json_mass_list_rejects_uniform_nesting(parse, what):
    # every entry a list gives a well-formed 2-D array, not a ragged one
    with pytest.raises(ValidationError, match=what):
        parse([[0.5], [0.5]])


# -- the number rule ------------------------------------------------------------

BAD_ENTRIES = BAD_BUDGETS + BAD_SEEDS + BAD_GRID_SIZES + BAD_TOLS + BAD_ALPHAS

# what the rule reads from each bad argument value as a list entry (None: a
# ValidationError); of these, only a zero makes a measure
BAD_ENTRY_READS = {
    "True": None, "None": None, "'1'": None, "'5'": None, "'0.1'": None, "'0.5'": None,
    "b'2'": None, "nan": math.nan, "inf": math.inf, "1.5": 1.5, "5.5": 5.5, "2": 2.0,
    "-1": -1.0, "-1.0": -1.0, "-1e-09": -1e-9, "0": 0.0, "0.0": 0.0,
}


def bad_entry_row(head, v):
    read = BAD_ENTRY_READS[repr(v)]
    return head + [v], None if read is None else (*head, read), "ME" if read == 0.0 else ""


# each row: values, what real_list reads from them (None: a ValidationError),
# and which of Measure (M), evaluate (E) and parse_instance (I) accept them
ONE_DIMENSIONAL = [
    ([0.25, 0.75], (0.25, 0.75), "MEI"), ((0.5,), (0.5,), "ME"),
    ([1, 2], (1.0, 2.0), ""), ([1, 0.5], (1.0, 0.5), ""), ((0, 0.5, 1), (0.0, 0.5, 1.0), ""),
    # integers read as the nearest float, beyond int64 too; the range checks
    # reject them
    ([2 ** 63 - 1], (2.0 ** 63,), ""), ([2 ** 63], (2.0 ** 63,), ""),
    ([2 ** 64], (2.0 ** 64,), ""), ([-1, 2 ** 63], (-1.0, 2.0 ** 63), ""),
    ([-(2 ** 63)], (-(2.0 ** 63),), ""), ([-(2 ** 63) - 1], (-(2.0 ** 63),), ""),
    ([2 ** 62 + 1, 0.5], (2.0 ** 62, 0.5), ""), ([2 ** 64, 0.5], (2.0 ** 64, 0.5), ""),
    ([True], None, ""), ([0.5, np.bool_(True)], None, ""),
    ([np.float64(0.5)], (0.5,), "ME"), ([np.int64(3), 0.5], (3.0, 0.5), ""),
    ([np.float32(0.5)], (0.5,), "ME"),
    (["0.5"], None, ""), ([None], None, ""), ([[0.5]], None, ""), ([[0.5], [0.5]], None, ""),
    ([], (), "E"), ((), (), "E"),
    (np.array([0.5, 0.25]), (0.5, 0.25), "ME"), (np.array([[0.5]]), None, ""),
    ("ab", None, ""), (None, None, ""), (0.5, None, ""),
    *(bad_entry_row([], v) for v in BAD_ENTRIES),
    *(bad_entry_row([0.5], v) for v in BAD_ENTRIES),
    # the rule reads lists, tuples and 1-D arrays, not other containers, and
    # no integer beyond float range
    (range(2), None, ""), ([np.array(0.5)], None, ""), ([0.5, 10 ** 400], None, ""),
]


def hex_floats(floats):
    assert all(type(v) is float for v in floats)
    return [v.hex() for v in floats]


class TestNumberRule:
    # named for the numpy reader this table was once checked against, so each
    # row keeps its test id
    @pytest.mark.parametrize("values, floats, accepted", ONE_DIMENSIONAL,
                             ids=[repr(row[0]) for row in ONE_DIMENSIONAL])
    def test_pure_python_form_agrees_with_real_array(self, values, floats, accepted):
        if floats is None:
            with pytest.raises(ValidationError, match="mass"):
                real_list(values, "mass")
        else:
            assert hex_floats(real_list(values, "mass")) == hex_floats(floats)
        n = max(len(values), 1) if isinstance(values, (list, tuple, np.ndarray)) else 1
        reads = {
            "M": lambda: Measure(DiscreteSpace(n), values).masses,
            "E": lambda: (evaluate(shannon(), values),),
            "I": lambda: parse_instance({"n": n, "mu": values, "cover": [list(range(n))]})[0].masses,
        }
        for boundary, read in reads.items():
            if boundary not in accepted:
                with pytest.raises(ValidationError):
                    read()
                continue
            expected = (evaluate(shannon(), list(floats)),) if boundary == "E" else floats
            assert hex_floats(read()) == hex_floats(expected)

    def test_numpy_scalars_follow_the_rule_once_numpy_is_loaded(self):
        assert is_integer(np.int64(3)) and is_integer(np.uint8(0))
        assert not is_integer(np.bool_(True)) and not is_integer(np.float64(3.0))
        assert is_finite_number(np.float32(0.5)) and is_finite_number(np.int64(3))
        assert not is_finite_number(np.float64("nan")) and not is_finite_number(np.bool_(False))

    def test_arrays_are_read_by_dtype(self):
        assert real_list(np.array([3, 0], dtype=np.uint8), "mass") == (3.0, 0.0)
        assert real_list(np.array([0.5], dtype=np.float32), "mass") == (0.5,)
        for arr in (np.array([True]), np.array(["0.5"]), np.array([0.5], dtype=object),
                    np.array([1j])):
            with pytest.raises(ValidationError, match="mass must hold numbers"):
                real_list(arr, "mass")


# -- mass sums at large n ------------------------------------------------------

class TestLargeUniformMeasures:
    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
    def test_uniform_probability_measure_is_accepted(self, n):
        mass = [1 / n] * n
        # a left-to-right sum misses 1 by more than MASS_TOL here, so the
        # total must be summed exactly
        assert abs(functools.reduce(operator.add, mass) - 1.0) > MASS_TOL
        mu = Measure(DiscreteSpace(n), mass, probability=True)
        assert mu.total == 1.0
        assert is_mu_partition(family(n, range(n)), mu)

    def test_cover_entropy_runs_on_the_search_path(self):
        n = 10 ** 5
        mu = Measure(DiscreteSpace(n), [1 / n] * n, probability=True)
        q = family(n, range(0, 60_000), range(40_000, n), range(20_000, 80_000))
        result = cover_entropy(shannon(), mu, q)
        # the two end sets take all mass: 0.6 and 0.4
        assert [len(b) for b in result.witness] == [60_000, 40_000]
        assert result.value == pytest.approx(-(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4)))
        assert result.value == partition_entropy(shannon(), mu, result.witness)
