"""Finite discrete probability spaces, measures, and families of atom sets.

The whole package works on a fixed finite model: atoms are the integers
``0..n-1``, every subset is measurable, and a measure is a nonnegative mass
vector.  Families of atom sets play two roles: *partitions* (pairwise
disjoint, covering all mass) and *covers* (overlaps allowed, covering all
mass).  All types are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.  The
checks run on tuples, without numpy.  A family is read through its sets'
``members``, the sorted atom tuples: block containment, the assignment
check and the weighted divisions, whose values are stored per membership,
set by set in the order of each set's members.  A family's derived
structure is built on first use and is read-only; two threads that race to
build it build the same values:

* ``atom_signatures``, the atoms grouped by the sets that hold them, read
  by the search's Venn cells and candidate lists;
* ``uncovered_atoms``, the tuple of atoms that no set holds, derived with
  the signatures and read by :func:`is_mu_cover`.

This module also owns the instance JSON schema consumed by the CLI::

    {"n": int, "mu": [float, ...], "cover": [[int, ...], ...]}
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import SpaceMismatchError, ValidationError

#: Absolute tolerance for mu-null discrepancies.  Every total compared with
#: it is ``math.fsum``, the exact sum rounded once, so rounding alone trips no
#: check at any atom count; a left-to-right sum of n masses with total at
#: most 1 can be off by (n - 1) * 2**-53, which is 1e-12 at n = 9,008.
MASS_TOL = 1e-12

#: The package-wide numeric tolerance of checks that compare entropies.
CHECK_TOL = 1e-9

#: Default cap on the DP transitions (witness walk included) of one search.
DEFAULT_BUDGET = 10 ** 6


def frozen(cls: type | None = None, *, eq: bool = True):
    """Make ``cls`` an immutable value type over its annotated fields, in
    annotation order; a field's class attribute, if any, is its default.

    The class gets a generated ``__init__(self, field, ...)`` that stores
    each argument and then calls ``__post_init__`` if the class defines
    one, which may replace a field with ``object.__setattr__``.  Assigning
    or deleting an attribute raises AttributeError.  Unless the class
    defines its own, ``repr`` reads ``Name(field=value, ...)``.  With ``eq``
    (the default), two instances of the same class are equal when their
    fields are, and hash alike; without it they compare by identity.
    Instances keep a ``__dict__``, which ``cached_property`` and
    :func:`_unchecked` write to.
    """
    if cls is None:
        return lambda c: frozen(c, eq=eq)
    names = tuple(cls.__dict__["__annotations__"])
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                       for name in names)
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):\n{body}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__setattr__ = cls.__delattr__ = _read_only
    if "__repr__" not in cls.__dict__:
        def __repr__(self):
            fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
            return f"{type(self).__qualname__}({fields})"

        cls.__repr__ = __repr__
    if eq:
        key = attrgetter(*names)  # one field's value, or a tuple of several

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))
    return cls


def _read_only(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def _unchecked(cls: type, **fields):
    """A :func:`frozen` value ``cls`` holding ``fields``, built without its
    ``__post_init__``: only for values whose invariants the caller has
    already checked, each call site naming that check."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@frozen
class DiscreteSpace:
    """Atom set ``{0, ..., n-1}`` with the full power set as sigma-algebra."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_integer(self.n, 1, "atom count"))


def real_list(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, else a ValidationError naming ``what``:
    a list or tuple of reals (:func:`is_real`), each read with ``float()``,
    or a one-dimensional numpy array of integers or floats.  Finiteness is
    not checked; an integer beyond float range is an error."""
    if isinstance(values, (list, tuple)):
        if set(map(type, values)) <= {float}:  # the common case, without a call per entry
            return tuple(values)
        for v in values:
            if not is_real(v):
                raise ValidationError(f"{what} must hold numbers, got {type(v).__name__} entries")
        try:
            return tuple(map(float, values))
        except OverflowError:
            raise ValidationError(f"{what} holds an integer beyond float range") from None
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    if np is not None and isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"{what} must hold numbers, got {values.dtype} entries")
        if values.ndim != 1:
            raise ValidationError(f"{what} must be one-dimensional, got shape {values.shape}")
        return tuple(values.astype(np.float64, copy=False).tolist())
    raise ValidationError(
        f"{what} must be a list, tuple or 1-D array of numbers, got {type(values).__name__}")


def _mass_vector(values, what: str, probability: bool = False) -> tuple[float, ...]:
    """``values`` by :func:`real_list` if each is finite and at least 0 and
    their exact ``math.fsum`` total is at most ``1 + MASS_TOL`` (within
    ``MASS_TOL`` of 1 if ``probability``), else a ValidationError: the one rule
    for a measure, ``evaluate``'s masses and mixture coefficients."""
    masses = real_list(values, what)
    try:
        total = math.fsum(masses)
    except (OverflowError, ValueError):  # a sum beyond float range, or inf - inf
        total = math.inf
    # a finite total has no non-finite entry to find
    if not math.isfinite(total) and not all(map(math.isfinite, masses)):
        raise ValidationError("mass vector has a non-finite entry")
    worst = min(masses, default=0.0)
    if worst < 0.0:
        raise ValidationError(f"mass vector has a negative entry ({worst})")
    if total > 1.0 + MASS_TOL:
        raise ValidationError(f"total mass {total} exceeds 1 beyond tolerance")
    if probability and abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"probability measure must have total 1, got {total}")
    return masses


@frozen(eq=False)
class Measure:
    """A mass vector (:func:`_mass_vector`) over a space, kept as the tuple
    of floats ``masses``; ``probability`` is a bool, and ``True`` also pins
    its total to 1 within ``MASS_TOL``, which submeasures need not meet."""

    space: DiscreteSpace
    masses: tuple[float, ...]
    probability: bool = False

    def __post_init__(self) -> None:
        check_type(self.space, DiscreteSpace, "space")
        check_type(self.probability, bool, "probability")
        masses = _mass_vector(self.masses, "mass", self.probability)
        if len(masses) != self.space.n:
            raise ValidationError(
                f"mass must be a length-{self.space.n} vector, got {len(masses)} entries")
        object.__setattr__(self, "masses", masses)

    @property
    def total(self) -> float:
        return math.fsum(self.masses)

    def mass_of(self, a: "AtomSet") -> float:
        """Total mass carried by the atoms of ``a``."""
        check_type(a, AtomSet, "atom set")
        _require_shared_space(self, a)
        masses = self.masses
        return math.fsum([masses[atom] for atom in a.members])


@frozen
class AtomSet:
    """A subset of atoms, stored canonically (sorted, deduplicated)."""

    space: DiscreteSpace
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_type(self.space, DiscreteSpace, "space")
        try:
            canon = tuple(sorted({check_integer(m, 0, "atom") for m in self.members}))
        except TypeError:  # check_integer raises none: the members are not iterable
            raise ValidationError(
                f"atom set members must be iterable, got {type(self.members).__name__}") from None
        if canon and canon[-1] >= self.space.n:
            raise ValidationError(f"atom {canon[-1]} outside space of size {self.space.n}")
        object.__setattr__(self, "members", canon)

    def __contains__(self, atom: int) -> bool:
        i = bisect_left(self.members, atom)
        return i < len(self.members) and self.members[i] == atom

    def __len__(self) -> int:
        return len(self.members)


@frozen
class SetFamily:
    """An indexed list of atom sets; the index is the tie-break everywhere."""

    space: DiscreteSpace
    sets: tuple[AtomSet, ...]

    def __post_init__(self) -> None:
        check_type(self.space, DiscreteSpace, "space")
        try:
            object.__setattr__(self, "sets", tuple(self.sets))
        except TypeError:
            raise ValidationError(f"family sets must be iterable, got {type(self.sets).__name__}") from None
        for s in self.sets:
            check_type(s, AtomSet, "family entries")
            _require_shared_space(self, s)

    @classmethod
    def of(cls, space: DiscreteSpace, blocks: Iterable[Iterable[int]]) -> "SetFamily":
        try:
            return cls(space, tuple(AtomSet(space, tuple(b)) for b in blocks))
        except TypeError:
            raise ValidationError(
                f"blocks must be iterables of atom indices, got {blocks!r}") from None

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[AtomSet]:
        return iter(self.sets)

    def __getitem__(self, i: int) -> AtomSet:
        return self.sets[i]

    @property
    def atom_signatures(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The atoms that some set holds, grouped by the sets that hold them.

        One ``(sets, atoms)`` pair per group: ``sets`` lists, ascending, the
        indices of the sets that hold every atom of ``atoms`` (ascending) and
        no other; groups come in the order of their first atom.  Built on
        first use and kept, with :attr:`uncovered_atoms`; the search's Venn
        cells and candidate lists read it.
        """
        return self._signature_map[0]

    @property
    def uncovered_atoms(self) -> tuple[int, ...]:
        """Ascending tuple of the atoms that no set holds.

        Derived with :attr:`atom_signatures` and kept; the cover check reads it.
        """
        return self._signature_map[1]

    @cached_property
    def _signature_map(self):
        # one bitmask of holding sets per atom; each group's set indices are
        # read from its mask's set bits, not by scanning every set
        masks = [0] * self.space.n
        for idx, s in enumerate(self.sets):
            bit = 1 << idx
            for atom in s.members:
                masks[atom] |= bit
        groups: dict[int, list[int]] = {}
        for atom, mask in enumerate(masks):
            groups.setdefault(mask, []).append(atom)
        uncovered = tuple(groups.pop(0, ()))
        return tuple((_set_bits(mask), tuple(atoms)) for mask, atoms in groups.items()), uncovered

    def as_lists(self) -> list[list[int]]:
        return [list(s.members) for s in self.sets]


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``mask``."""
    bits = []
    while mask:
        bits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(bits)


def _require_shared_space(a, b) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(
            f"operands live on different spaces ({a.space.n} vs {b.space.n} atoms)"
        )


def _check_family_and_measure(fam, mu) -> None:
    check_type(fam, SetFamily, "family")
    check_type(mu, Measure, "measure")
    _require_shared_space(fam, mu)


def is_mu_partition(fam: SetFamily, mu: Measure) -> bool:
    """True iff the sets are pairwise disjoint and miss at most mu-null mass."""
    _check_family_and_measure(fam, mu)
    held = set(chain.from_iterable(s.members for s in fam.sets))
    if len(held) != sum(map(len, fam.sets)):
        return False
    if len(held) == fam.space.n:
        return True
    return math.fsum([mu.masses[a] for a in range(fam.space.n) if a not in held]) <= MASS_TOL


def is_mu_cover(fam: SetFamily, mu: Measure) -> bool:
    """True iff at most mu-null mass lies outside the union (overlaps allowed)."""
    _check_family_and_measure(fam, mu)
    return math.fsum([mu.masses[a] for a in fam.uncovered_atoms]) <= MASS_TOL


def finer_than(p: SetFamily, q: SetFamily) -> bool:
    """True iff every nonempty set of ``p`` sits inside some set of ``q``.

    Containment is non-strict, so a family is finer than itself.  Empty sets
    of ``p`` are ignored.
    """
    check_type(p, SetFamily, "family")
    check_type(q, SetFamily, "cover")
    return all(target is not None for _, target in _block_routes(p, q))


def _block_routes(p: SetFamily, q: SetFamily) -> Iterator[tuple[AtomSet, int | None]]:
    """Each nonempty set of ``p`` with the lowest index of a ``q`` set holding it, or None."""
    _require_shared_space(p, q)
    held = [frozenset(s.members) for s in q.sets]
    for block in p.sets:
        if block.members:
            yield block, next((i for i, s in enumerate(held) if s.issuperset(block.members)), None)


# ---------------------------------------------------------------------------
# Instance JSON schema
# ---------------------------------------------------------------------------

def parse_instance(data: dict) -> tuple[Measure, SetFamily]:
    """Validate a ``{"n":, "mu":, "cover":}`` mapping into (measure, cover)."""
    if not isinstance(data, dict):
        raise ValidationError("instance must be a JSON object")
    missing = {"n", "mu", "cover"} - set(data)
    if missing:
        raise ValidationError(f"instance is missing keys: {sorted(missing)}")
    space = DiscreteSpace(data["n"])
    mass = real_list(data["mu"], '"mu"')
    if len(mass) != space.n:
        raise ValidationError(f'"mu" must be a list of {space.n} numbers')
    mu = Measure(space, mass, probability=True)
    cover = SetFamily.of(space, parse_blocks(data["cover"], '"cover"'))
    return mu, cover


def is_real(v) -> bool:
    """True for a Python or numpy integer or float, but not a boolean (a
    ``bool`` is an ``int``; ``np.bool_`` is no ``np.integer``).  numpy is
    looked up, not imported: no numpy value exists before numpy is loaded."""
    if isinstance(v, (int, float)):
        return not isinstance(v, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(v, (np.integer, np.floating))


def is_finite_number(v) -> bool:
    """True for a finite real (:func:`is_real`)."""
    try:
        return is_real(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def check_tolerance(tol) -> float:
    """``tol`` as a float if it is a finite number >= 0 (so not NaN), else a
    ValidationError."""
    if not is_finite_number(tol) or tol < 0:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")
    return float(tol)


def check_type(value, cls: type, what: str) -> None:
    """A ValidationError naming ``what`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValidationError(
            f"{what} must be of type {cls.__name__}, got {type(value).__name__}")


def check_integer(value, least: int, what: str) -> int:
    """``value`` as an ``int`` if it is an integer (:func:`is_integer`) >=
    ``least``, else a ValidationError naming ``what``."""
    if type(value) is int and value >= least:  # the common case, without a call
        return value
    if not is_integer(value) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; booleans are not integers here
    (``type(True)`` is ``bool``, and ``np.bool_`` is no ``np.integer``).
    numpy is looked up, not imported, as in :func:`is_real`."""
    if type(value) is int:
        return True
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def parse_blocks(raw, what: str) -> list[list[int]]:
    """``raw`` unchanged if it is a list of lists, else a ValidationError;
    :class:`AtomSet` applies the integer rule to each atom index."""
    if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
        raise ValidationError(f"{what} must be a list of atom-index lists")
    return raw


def load_json(source: str | Path | bytes, what: str):
    """Parse one JSON document from a file path, or from ``bytes`` holding it.

    An unreadable file, undecodable bytes, malformed JSON, an integer with
    too many digits to read and nesting too deep to parse all raise
    :class:`ValidationError` naming ``what``.
    """
    if not isinstance(source, (str, Path, bytes)):
        raise ValidationError(
            f"{what} must be of type str, Path or bytes, got {type(source).__name__}")
    try:
        text = source if isinstance(source, bytes) else Path(source).read_bytes()
        return json.loads(text)
    # ValueError covers undecodable bytes, malformed JSON and over-long integers
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot parse {what}: {exc}") from exc


def load_instance(source: str | Path | bytes) -> tuple[Measure, SetFamily]:
    """Read and validate an instance JSON file, or ``bytes`` holding one."""
    return parse_instance(load_json(source, "instance file"))


def instance_dict(mu: Measure, cover: SetFamily) -> dict:
    """Inverse of :func:`parse_instance`, handy for tests and reports."""
    _check_family_and_measure(cover, mu)
    return {
        "n": mu.space.n,
        "mu": list(mu.masses),
        "cover": cover.as_lists(),
    }
