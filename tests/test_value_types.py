"""The semantics every value type of the package shares: construction by
position, keyword and default, immutability, the field repr, and equality
and hashing over the fields (identity for ``Measure`` and
``WeightedDivision``), with cached derived values still writable."""

import pytest

from coverentropy import (
    AtomSet,
    CompositionCase,
    DiscreteSpace,
    EntropyFunctional,
    HlpInput,
    Measure,
    SetFamily,
    shannon,
)
from coverentropy.classical import Assignment, CoverEntropyResult
from coverentropy.measure import _unchecked
from coverentropy.mixture import MixtureBoundReport, MixtureSpec
from coverentropy.probes import ComparisonReport, StructureReport
from coverentropy.selftest import PropertyOutcome
from coverentropy.weighted import WeightedDivision

SPACE = DiscreteSpace(3)
MU = Measure(SPACE, (0.5, 0.25, 0.25), True)
PAIR = SetFamily(SPACE, (AtomSet(SPACE, (0, 1)), AtomSet(SPACE, (1, 2))))
SHANNON = shannon()
CONCAVE = CompositionCase.INCREASING_SUBADDITIVE_CONCAVE
SPACE_REPR = "DiscreteSpace(n=3)"
MU_REPR = f"Measure(space={SPACE_REPR}, masses=(0.5, 0.25, 0.25), probability=True)"
PAIR_REPR = (f"SetFamily(space={SPACE_REPR}, sets=(AtomSet(space={SPACE_REPR}, members=(0, 1)), "
             f"AtomSet(space={SPACE_REPR}, members=(1, 2))))")

# class, field names in signature order, one argument per field, repr
VALUE_TYPES = [
    (DiscreteSpace, ("n",), (3,), SPACE_REPR),
    (Measure, ("space", "masses", "probability"), (SPACE, (0.5, 0.25, 0.25), True), MU_REPR),
    (AtomSet, ("space", "members"), (SPACE, (0, 2)),
     f"AtomSet(space={SPACE_REPR}, members=(0, 2))"),
    (SetFamily, ("space", "sets"), (SPACE, (AtomSet(SPACE, (0, 1)), AtomSet(SPACE, (1, 2)))),
     PAIR_REPR),
    (EntropyFunctional, ("name", "alpha", "f", "g", "case"),
     ("shannon", None, SHANNON.f, SHANNON.g, CONCAVE), "EntropyFunctional('shannon')"),
    (StructureReport, ("case", "grid_size", "tol", "f_monotone", "g_additive", "g_curvature",
                       "worst_f_violation", "worst_additive_violation",
                       "worst_curvature_violation"),
     (CONCAVE, 5, 1e-9, True, True, False, 0.0, 0.0, 0.25),
     "StructureReport(case=<CompositionCase.INCREASING_SUBADDITIVE_CONCAVE: "
     "'increasing-subadditive-concave'>, grid_size=5, tol=1e-09, f_monotone=True, "
     "g_additive=True, g_curvature=False, worst_f_violation=0.0, "
     "worst_additive_violation=0.0, worst_curvature_violation=0.25)"),
    (HlpInput, ("x_seq", "y_seq"), ((0.5, 0.5), (0.75, 0.25)),
     "HlpInput(x_seq=(0.5, 0.5), y_seq=(0.75, 0.25))"),
    (ComparisonReport, ("sum_x", "sum_y", "shape", "confirmed"), (-1.0, -0.5, "concave", True),
     "ComparisonReport(sum_x=-1.0, sum_y=-0.5, shape='concave', confirmed=True)"),
    (Assignment, ("space", "cover", "choice"), (SPACE, PAIR, ((0, 0), (1, 0), (2, 1))),
     f"Assignment(space={SPACE_REPR}, cover={PAIR_REPR}, choice=((0, 0), (1, 0), (2, 1)))"),
    (CoverEntropyResult, ("value", "witness", "explored", "assignment"), (None, None, 0, None),
     "CoverEntropyResult(value=None, witness=None, explored=0, assignment=None)"),
    (WeightedDivision, ("mu", "cover", "values"), (MU, PAIR, ((0.5, 0.25), (0.0, 0.25))),
     f"WeightedDivision(mu={MU_REPR}, cover={PAIR_REPR}, values=((0.5, 0.25), (0.0, 0.25)))"),
    (MixtureSpec, ("components",), (((1.0, MU),),), f"MixtureSpec(components=((1.0, {MU_REPR}),))"),
    (MixtureBoundReport, ("lower", "upper", "achieved", "component_entropies", "coefficients",
                          "alpha"), (0.5, 1.5, 1.0, (1.0,), (1.0,), None),
     "MixtureBoundReport(lower=0.5, upper=1.5, achieved=1.0, component_entropies=(1.0,), "
     "coefficients=(1.0,), alpha=None)"),
    (PropertyOutcome, ("name", "checks", "failures", "counterexample"), ("p", 3, 1, {"n": 2}),
     "PropertyOutcome(name='p', checks=3, failures=1, counterexample={'n': 2})"),
]
IDENTITY_TYPES = (Measure, WeightedDivision)

each_type = pytest.mark.parametrize("cls, names, args, text", VALUE_TYPES,
                                    ids=[row[0].__name__ for row in VALUE_TYPES])


def fields(value, names):
    return [getattr(value, name) for name in names]


@each_type
def test_positional_and_keyword_construction_agree(cls, names, args, text):
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert fields(by_position, names) == fields(by_keyword, names)


@pytest.mark.parametrize("value, name, default", [
    (Measure(SPACE, (0.5, 0.5, 0.0)), "probability", False),
    (PropertyOutcome("p", 3, 0), "counterexample", None),
])
def test_defaults(value, name, default):
    assert getattr(value, name) is default


@each_type
def test_missing_or_unknown_argument_is_a_type_error(cls, names, args, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])


@each_type
def test_assignment_and_deletion_raise(cls, names, args, text):
    value = cls(*args)
    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, args[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    assert fields(value, names) == fields(cls(*args), names)


@each_type
def test_repr(cls, names, args, text):
    assert repr(cls(*args)) == text


@each_type
def test_equality_over_fields_or_identity(cls, names, args, text):
    a, b = cls(*args), cls(*args)
    assert a == a
    if cls in IDENTITY_TYPES:
        assert a != b
        assert hash(a) != hash(b)
    else:
        assert a == b
        assert not a != b
        if cls is not PropertyOutcome:  # its counterexample is a dict
            assert hash(a) == hash(b)
    assert a != object()


def test_equality_tells_fields_and_classes_apart():
    assert DiscreteSpace(3) != DiscreteSpace(4)
    assert hash(DiscreteSpace(3)) == hash(DiscreteSpace(3))
    assert AtomSet(SPACE, (0,)) != AtomSet(SPACE, (1,))
    # equal fields on different classes do not make equal values
    assert PropertyOutcome(0.5, 1.0, "concave", True) != ComparisonReport(0.5, 1.0, "concave", True)
    assert {DiscreteSpace(3), DiscreteSpace(3), DiscreteSpace(4)} == {SPACE, DiscreteSpace(4)}


def test_cached_and_unchecked_values_work():
    family = SetFamily(SPACE, (AtomSet(SPACE, (0, 1)), AtomSet(SPACE, (1, 2))))
    assert family.atom_signatures == (((0,), (0,)), ((0, 1), (1,)), ((1,), (2,)))
    assert family.atom_signatures is family.atom_signatures
    division = WeightedDivision(MU, family, ((0.5, 0.25), (0.0, 0.25)))
    assert division.row_masses == (0.75, 0.25)
    assert division.row_masses is division.row_masses
    unchecked = _unchecked(AtomSet, space=SPACE, members=(0, 2))
    assert unchecked == AtomSet(SPACE, (2, 0))
    with pytest.raises(AttributeError):
        unchecked.members = ()
    trusted = _unchecked(WeightedDivision, mu=MU, cover=family, values=division.values)
    assert trusted.row_masses == (0.75, 0.25)
