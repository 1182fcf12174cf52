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

#: Each exported name, under the module that defines it.  Importing the
#: package loads none of them: a name or submodule loads its module on first
#: use (PEP 562), so a program, such as a CLI child, imports and compiles
#: only the modules it reads.
_EXPORTS = {
    "classical": (
        "Assignment", "CoverEntropyResult", "ENUMERATION_CAP", "assignment_to_partition",
        "cover_entropy", "enumerate_acceptable_partitions", "minimizing_assignment",
        "partition_entropy"),
    "errors": ("BudgetExceededError", "SpaceMismatchError", "ValidationError"),
    "functionals": (
        "CompositionCase", "EntropyFunctional", "HlpInput", "builtin_functionals", "evaluate",
        "parse_functional", "renyi", "shannon", "tsallis"),
    "measure": (
        "AtomSet", "DEFAULT_BUDGET", "DiscreteSpace", "MASS_TOL", "Measure", "SetFamily",
        "finer_than", "instance_dict", "is_mu_cover", "is_mu_partition", "load_instance",
        "parse_instance"),
    "mixture": (
        "MixtureBoundReport", "MixtureSpec", "mix", "mix_division", "parse_mixture",
        "shannon_mixture_bounds", "tsallis_mixture_bounds", "verify_mixture_bounds"),
    "probes": ("ComparisonReport", "StructureReport", "check_structure", "hlp_compare"),
    "weighted": (
        "WeightedDivision", "cover_entropy_weighted", "disjointify", "disjointify_certificate",
        "division_dict", "division_from_assignment", "parse_division", "partition_to_division",
        "random_division", "weighted_entropy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_kernels", "cli", "selftest", *_EXPORTS)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
