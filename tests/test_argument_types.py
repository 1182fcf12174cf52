"""A package-object argument of the wrong type raises ValidationError, not a
bare AttributeError from reading a field it does not have, or a TypeError; and
a fuzz of every public callable lets no other exception escape."""

import ast
import math
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverentropy
from coverentropy import (
    Assignment,
    AtomSet,
    BudgetExceededError,
    CompositionCase,
    DiscreteSpace,
    HlpInput,
    Measure,
    MixtureBoundReport,
    MixtureSpec,
    SetFamily,
    ValidationError,
    assignment_to_partition,
    check_structure,
    cover_entropy,
    cover_entropy_weighted,
    disjointify,
    disjointify_certificate,
    division_dict,
    division_from_assignment,
    evaluate,
    finer_than,
    hlp_compare,
    is_mu_cover,
    is_mu_partition,
    minimizing_assignment,
    mix,
    mix_division,
    partition_entropy,
    partition_to_division,
    random_division,
    shannon,
    tsallis,
    verify_mixture_bounds,
    weighted_entropy,
)
from coverentropy.measure import instance_dict, load_instance

SPACE = DiscreteSpace(2)
MU = Measure(SPACE, [0.5, 0.5], probability=True)
Q = SetFamily.of(SPACE, [[0, 1], [1]])
P = SetFamily.of(SPACE, [[0], [1]])
E = shannon()
A = Assignment(SPACE, Q, ((0, 0), (1, 1)))
D = division_from_assignment(A, MU)
SPEC = MixtureSpec(((1.0, MU),))

# each call passes one argument of the wrong type: a number, or a plain list
# where a package object belongs
CALLS = {
    "cover_entropy functional": lambda: cover_entropy(5, MU, Q),
    "cover_entropy measure": lambda: cover_entropy(E, [0.5, 0.5], Q),
    "cover_entropy cover": lambda: cover_entropy(E, MU, [[0, 1]]),
    "cover_entropy_weighted functional": lambda: cover_entropy_weighted(5, MU, Q),
    "cover_entropy_weighted measure": lambda: cover_entropy_weighted(E, 5, Q),
    "cover_entropy_weighted cover": lambda: cover_entropy_weighted(E, MU, 5),
    "minimizing_assignment functional": lambda: minimizing_assignment(5, MU, Q),
    "minimizing_assignment measure": lambda: minimizing_assignment(E, 5, Q),
    "minimizing_assignment cover": lambda: minimizing_assignment(E, MU, 5),
    "partition_entropy functional": lambda: partition_entropy(5, MU, P),
    "partition_entropy measure": lambda: partition_entropy(E, 5, P),
    "partition_entropy partition": lambda: partition_entropy(E, MU, 5),
    "assignment_to_partition": lambda: assignment_to_partition(5),
    "division_from_assignment assignment": lambda: division_from_assignment(5, MU),
    "division_from_assignment measure": lambda: division_from_assignment(A, 5),
    "weighted_entropy functional": lambda: weighted_entropy(5, D),
    "weighted_entropy division": lambda: weighted_entropy(E, 5),
    "disjointify": lambda: disjointify(5),
    "disjointify_certificate": lambda: disjointify_certificate(5),
    "partition_to_division measure": lambda: partition_to_division(5, P, Q),
    "partition_to_division partition": lambda: partition_to_division(MU, 5, Q),
    "partition_to_division cover": lambda: partition_to_division(MU, P, 5),
    "verify_mixture_bounds functional": lambda: verify_mixture_bounds(5, SPEC, Q),
    "verify_mixture_bounds spec": lambda: verify_mixture_bounds(E, 5, Q),
    "verify_mixture_bounds cover": lambda: verify_mixture_bounds(E, SPEC, 5),
    "mix": lambda: mix(5),
    "mix_division": lambda: mix_division(5, [D]),
    "hlp_compare": lambda: hlp_compare(5, abs, "concave"),
    "Assignment cover": lambda: Assignment(SPACE, 5, ()),
    "Assignment space": lambda: Assignment(3, Q, ()),
    "check_structure functional": lambda: check_structure([0.5]),
    "division_dict": lambda: division_dict(0.5),
    "MixtureBoundReport component entropies": lambda: MixtureBoundReport(None, None, None, 5, (), None),
    "is_mu_cover family": lambda: is_mu_cover(5, MU),
    "is_mu_partition measure": lambda: is_mu_partition(Q, 5),
    "finer_than cover": lambda: finer_than(Q, 5),
    "Measure.mass_of": lambda: MU.mass_of(5),
    "evaluate functional": lambda: evaluate(5, [0.5]),
    "random_division cover": lambda: random_division(MU, 5, seed=0),
    "Measure space": lambda: Measure(5, [1.0]),
    "Measure probability": lambda: Measure(SPACE, [0.5, 0.5], np.array([])),
    "AtomSet space": lambda: AtomSet(5, (0,)),
    "SetFamily space": lambda: SetFamily(5, ()),
    "instance_dict measure": lambda: instance_dict(5, Q),
    "load_instance source": lambda: load_instance(5),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_wrong_argument_type_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="must be of type"):
        call()


# each call passes a number beyond its range, or a string, where a finite
# number belongs
OUT_OF_RANGE = {
    "check_structure grid_size": lambda: check_structure(E, 10 ** 400),
    "check_structure grid_size above the cap": lambda: check_structure(E, 2002),
    "MixtureBoundReport lower": lambda: MixtureBoundReport(10 ** 400, 1.0, 0.5, (), (), None),
    "MixtureBoundReport achieved": lambda: MixtureBoundReport(0.0, 1.0, "x", (), (), None),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_number_out_of_range_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="must be"):
        call()


ATOM = AtomSet(SPACE, (0,))
INSTANCE = {"n": 2, "mu": [0.5, 0.5], "cover": [[0, 1], [1]]}
CASE = CompositionCase.INCREASING_SUBADDITIVE_CONCAVE

#: Valid arguments of each callable that ``coverentropy`` exports.
VALID = {
    "Assignment": (SPACE, Q, ((0, 0), (1, 1))),
    "AtomSet": (SPACE, (0,)),
    "BudgetExceededError": ("message",),
    "ComparisonReport": (1.0, 1.0, "concave", True),
    "CompositionCase": ("increasing-subadditive-concave",),
    "CoverEntropyResult": (None, None, 0, None),
    "DiscreteSpace": (2,),
    "EntropyFunctional": ("square", None, abs, abs, CASE),
    "HlpInput": ((0.5, 0.5), (0.7, 0.3)),
    "Measure": (SPACE, [0.5, 0.5], True),
    "MixtureBoundReport": (0.5, 1.5, 1.0, (1.0,), (1.0,), 2.0),
    "MixtureSpec": (((1.0, MU),),),
    "SetFamily": (SPACE, (ATOM,)),
    "SpaceMismatchError": ("message",),
    "StructureReport": (CASE, 5, 1e-9, True, True, True, 0.0, 0.0, 0.0),
    "ValidationError": ("message",),
    "WeightedDivision": (MU, Q, ((0.5, 0.25), (0.25,))),
    "assignment_to_partition": (A,),
    "builtin_functionals": (),
    "check_structure": (E, 5, 1e-9),
    "cover_entropy": (E, MU, Q, 100),
    "cover_entropy_weighted": (E, MU, Q, 100),
    "disjointify": (D,),
    "disjointify_certificate": (D,),
    "division_dict": (D,),
    "division_from_assignment": (A, MU),
    "enumerate_acceptable_partitions": (MU, Q),
    "evaluate": (E, [0.5, 0.5]),
    "finer_than": (P, Q),
    "hlp_compare": (HlpInput((0.5, 0.5), (0.7, 0.3)), tsallis(2.0).g, "convex", 1e-9),
    "instance_dict": (MU, Q),
    "is_mu_cover": (Q, MU),
    "is_mu_partition": (P, MU),
    "load_instance": (b'{"n": 2, "mu": [0.5, 0.5], "cover": [[0, 1]]}',),
    "minimizing_assignment": (E, MU, Q, 100),
    "mix": (SPEC,),
    "mix_division": (SPEC, [D]),
    "parse_division": ({"cover_index_rows": [[0.5, 0.25], [0.0, 0.25]]}, MU, Q),
    "parse_functional": ("renyi:2",),
    "parse_instance": (INSTANCE,),
    "parse_mixture": ({**INSTANCE, "coefficients": [1.0], "measures": [[0.5, 0.5]],
                       "functional": "tsallis:2"},),
    "partition_entropy": (E, MU, P),
    "partition_to_division": (MU, P, Q),
    "random_division": (MU, Q, 0),
    "renyi": (2.0,),
    "shannon": (),
    "shannon_mixture_bounds": ([1.0, 1.0], [0.5, 0.5]),
    "tsallis": (2.0,),
    "tsallis_mixture_bounds": ([1.0, 1.0], [0.5, 0.5], 2.0),
    "verify_mixture_bounds": (E, SPEC, Q, 100),
    "weighted_entropy": (E, D),
}

FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, 5e-324,
                          0.25, 0.5, 1.0]) | st.floats()
# int64 ends, beyond int64, and beyond float range
INTS = st.sampled_from([0, 1, 2 ** 63, 2 ** 64, -(2 ** 63) - 1, 10 ** 400, -(10 ** 400)]) | st.integers()
NUMPY_SCALARS = st.sampled_from([np.float64(0.5), np.float32(0.25), np.float64("nan"),
                                 np.int64(1), np.uint8(0), np.bool_(True), np.array(0.5)])
ARRAYS = (st.lists(FLOATS, max_size=4).map(np.array)
          | st.lists(st.integers(-3, 3), max_size=4).map(np.array)
          | st.lists(st.booleans(), max_size=4).map(np.array)
          | st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=3).map(np.array))
LEAVES = (FLOATS | INTS | st.booleans() | NUMPY_SCALARS | ARRAYS
          | st.text(max_size=3) | st.none() | st.binary(max_size=2))


def _equal_input(x):
    """``HlpInput(y, y)`` for ``y`` the entries of ``x`` in descending order,
    which passes every order check, so ``hlp_compare`` reaches its sums; ``x``
    itself where that input is invalid."""
    y = sorted(x, reverse=True)
    try:
        return HlpInput(y, y)
    except ValidationError:
        return x


#: What a mutation puts in place of an argument, or of one entry inside it:
#: numbers at and beyond their edges, other types, nested lists and tuples of
#: those, package objects of another kind, and comparison inputs and maps
#: that reach the comparison's sums.
MUTANTS = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=12) | st.lists(FLOATS, min_size=1, max_size=4).map(_equal_input) | st.sampled_from(
        [object(), {}, SPACE, MU, Q, P, E, A, D, SPEC, ATOM, shannon().g, tsallis(0.5).g])


def test_fuzz_table_names_every_exported_callable():
    assert set(VALID) == {n for n in coverentropy.__all__ if callable(getattr(coverentropy, n))}


def test_every_export_is_read_or_listed_in_the_readme():
    # read: a Name load or an Attribute in a package module or a perfbench script
    root = Path(__file__).resolve().parents[1]
    sources = [*root.glob("src/coverentropy/*.py"), *root.glob("perfbench/*.py")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in sources if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    readme = (root / "README.md").read_text().partition("### Public names without a caller\n")[2]
    listed = set(re.findall(r"^- `(\w+)`:", readme.split("\n#")[0], re.MULTILINE))
    assert set(coverentropy.__all__) - read == listed


def _mutated(draw, value):
    """``value`` replaced by a mutant, or with one entry inside it replaced or dropped."""
    if isinstance(value, (list, tuple, dict)) and value and draw(st.booleans()):
        out = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = _mutated(draw, out[key])
        return tuple(out) if isinstance(value, tuple) else out
    return draw(MUTANTS)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_public_callables_raise_only_package_errors(data):
    name = data.draw(st.sampled_from(sorted(VALID)))
    args = list(VALID[name])
    mutated = bool(args) and data.draw(st.booleans())  # else the call must return
    if mutated:
        at = data.draw(st.integers(0, len(args) - 1))
        args[at] = _mutated(data.draw, args[at])
    try:
        result = getattr(coverentropy, name)(*args)
        if isinstance(result, Iterator):
            list(result)
    # ValidationError covers SpaceMismatchError
    except (ValidationError, BudgetExceededError):
        assert mutated
    except ValueError:
        if name != "CompositionCase":  # the enum's own lookup
            raise
