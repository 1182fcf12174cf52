"""A package-object argument of the wrong type raises ValidationError, not a
bare AttributeError from reading a field it does not have, or a TypeError."""

import pytest

from coverentropy import (
    Assignment,
    AtomSet,
    DiscreteSpace,
    Measure,
    MixtureSpec,
    SetFamily,
    ValidationError,
    assignment_to_partition,
    complement,
    cover_entropy,
    cover_entropy_weighted,
    disjointify,
    disjointify_certificate,
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
    restrict,
    search_space_size,
    shannon,
    verify_mixture_bounds,
    weighted_entropy,
)
from coverentropy.measure import instance_dict, load_instance

SPACE = DiscreteSpace(2)
MU = Measure(SPACE, [0.5, 0.5], probability=True)
Q = SetFamily.of(SPACE, [[0, 1], [1]])
P = SetFamily.of(SPACE, [[0], [1]])
E = shannon()
A = Assignment.from_mapping(Q, {0: 0, 1: 1})
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
    "is_mu_cover family": lambda: is_mu_cover(5, MU),
    "is_mu_partition measure": lambda: is_mu_partition(Q, 5),
    "restrict atom set": lambda: restrict(MU, 5),
    "finer_than cover": lambda: finer_than(Q, 5),
    "complement": lambda: complement(5),
    "Measure.mass_of": lambda: MU.mass_of(5),
    "evaluate functional": lambda: evaluate(5, [0.5]),
    "random_division cover": lambda: random_division(MU, 5, seed=0),
    "Measure space": lambda: Measure(5, [1.0]),
    "AtomSet space": lambda: AtomSet(5, (0,)),
    "SetFamily space": lambda: SetFamily(5, ()),
    "Assignment.from_mapping mapping": lambda: Assignment.from_mapping(Q, [1, 2]),
    "Assignment.from_mapping cover": lambda: Assignment.from_mapping(5, {}),
    "instance_dict measure": lambda: instance_dict(5, Q),
    "search_space_size measure": lambda: search_space_size(5, Q),
    "load_instance source": lambda: load_instance(5),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_wrong_argument_type_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="must be of type"):
        call()
