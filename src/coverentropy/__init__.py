"""Classical and weighted entropies of measurable covers on finite spaces.

Quick tour::

    from coverentropy import (
        DiscreteSpace, Measure, SetFamily,
        shannon, tsallis, cover_entropy, cover_entropy_weighted,
    )

    space = DiscreteSpace(3)
    mu = Measure(space, [1/3, 1/3, 1/3], probability=True)
    q = SetFamily.of(space, [[0, 1], [1, 2]])
    cover_entropy(shannon(), mu, q).value      # 0.9182958340544896
    cover_entropy_weighted(shannon(), mu, q).value  # same value, division witness
"""

import importlib

from .classical import (
    Assignment,
    CoverEntropyResult,
    DEFAULT_BUDGET,
    ENUMERATION_CAP,
    assignment_to_partition,
    cover_entropy,
    enumerate_acceptable_partitions,
    minimizing_assignment,
    partition_entropy,
    search_space_size,
)
from .errors import BudgetExceededError, SpaceMismatchError, ValidationError
from .functionals import (
    ComparisonReport,
    CompositionCase,
    EntropyFunctional,
    HlpInput,
    StructureReport,
    builtin_functionals,
    check_structure,
    evaluate,
    hlp_compare,
    parse_functional,
    renyi,
    shannon,
    tsallis,
)
from .measure import (
    AtomSet,
    DiscreteSpace,
    MASS_TOL,
    Measure,
    SetFamily,
    complement,
    finer_than,
    instance_dict,
    is_mu_cover,
    is_mu_partition,
    load_instance,
    parse_instance,
    restrict,
)
# mixture, weighted and selftest load on first use (PEP 562), so that a
# program that needs only the classical search, such as most CLI
# subcommands, neither imports nor compiles them.  A name of __all__ not
# bound above is looked up in weighted, then in mixture, so a weighted name
# never loads mixture.
_LAZY_MODULES = ("mixture", "selftest", "weighted")


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in __all__:
        for module in ("weighted", "mixture"):
            found = getattr(importlib.import_module(f".{module}", __name__), name, None)
            if found is not None:
                return found
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *__all__})


__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AtomSet",
    "BudgetExceededError",
    "ComparisonReport",
    "CompositionCase",
    "CoverEntropyResult",
    "DEFAULT_BUDGET",
    "DiscreteSpace",
    "ENUMERATION_CAP",
    "EntropyFunctional",
    "HlpInput",
    "LimitBridgeRow",
    "MASS_TOL",
    "Measure",
    "MixtureBoundReport",
    "MixtureSpec",
    "SetFamily",
    "SpaceMismatchError",
    "StructureReport",
    "ValidationError",
    "WeightedDivision",
    "assignment_to_partition",
    "builtin_functionals",
    "check_structure",
    "complement",
    "cover_entropy",
    "cover_entropy_weighted",
    "disjointify",
    "disjointify_certificate",
    "division_dict",
    "division_from_assignment",
    "enumerate_acceptable_partitions",
    "evaluate",
    "finer_than",
    "hlp_compare",
    "instance_dict",
    "is_mu_cover",
    "is_mu_partition",
    "limit_bridge",
    "load_instance",
    "minimizing_assignment",
    "mix",
    "mix_division",
    "parse_division",
    "parse_functional",
    "parse_instance",
    "parse_mixture",
    "partition_entropy",
    "partition_to_division",
    "random_division",
    "restrict",
    "renyi",
    "search_space_size",
    "shannon",
    "shannon_mixture_bounds",
    "tsallis",
    "tsallis_mixture_bounds",
    "verify_mixture_bounds",
    "weighted_entropy",
]
