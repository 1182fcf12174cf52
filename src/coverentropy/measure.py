"""Finite discrete probability spaces, measures, and families of atom sets.

The whole package works on a fixed finite model: atoms are the integers
``0..n-1``, every subset is measurable, and a measure is a nonnegative mass
vector.  Families of atom sets play two roles: *partitions* (pairwise
disjoint, covering all mass) and *covers* (overlaps allowed, covering all
mass).  All types are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.  A
family's derived structure is built on first use and is read-only; two
threads that race to build it build the same values:

* ``incidence``, the sets-by-atoms membership matrix, read by block
  containment, the assignment and division checks and the division
  sampler;
* ``atom_signatures``, the atoms grouped by the sets that hold them, read
  by the search's Venn cells and candidate lists;
* ``uncovered_atoms``, the atoms that no set holds, derived with the
  signatures and read by :func:`is_mu_cover`.

This module also owns the instance JSON schema consumed by the CLI::

    {"n": int, "mu": [float, ...], "cover": [[int, ...], ...]}
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import SpaceMismatchError, ValidationError

#: Absolute tolerance for mu-null discrepancies.  A left-to-right sum of n
#: nonnegative binary64 masses with total at most 1 is off by at most
#: (n - 1) * 2**-53, which reaches 1e-12 at n = 9,008 atoms; beyond that a
#: worst-case instance can fail a mass check by rounding alone.  numpy's
#: pairwise sums stay far inside the bound.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteSpace:
    """Atom set ``{0, ..., n-1}`` with the full power set as sigma-algebra."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_integer(self.n, 1, "atom count"))

    def atoms(self) -> range:
        return range(self.n)


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array (``values`` itself if it is one), each an
    integer or a float as in :func:`is_finite_number`, else a ValidationError;
    finiteness is not checked."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{what} must be an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must hold numbers, got {arr.dtype} entries")
    # numpy casts a boolean mixed with numbers to a number; an array's dtype
    # has already said whether it holds booleans
    if isinstance(values, (list, tuple)) and _holds_bool(values):
        raise ValidationError(f"{what} must hold numbers, got a boolean entry")
    return arr.astype(np.float64, copy=False)


def _holds_bool(values) -> bool:
    """True if the list or tuple ``values``, or one nested in it, holds a
    Python or numpy boolean."""
    kinds = set(map(type, values))
    if bool in kinds or np.bool_ in kinds:
        return True
    if list in kinds or tuple in kinds:
        return any(_holds_bool(v) for v in values if type(v) in (list, tuple))
    return False


@dataclass(frozen=True, eq=False)
class Measure:
    """Finite, nonnegative mass vector over a space; at most sub-probability total.

    ``probability=True`` additionally pins the total mass to 1 (within
    ``MASS_TOL``).  Restrictions and the per-cover-set submeasures are plain
    sub-probability measures.
    """

    space: DiscreteSpace
    mass: np.ndarray
    probability: bool = False

    def __post_init__(self) -> None:
        arr = real_array(self.mass, "mass").copy()
        if arr.shape != (self.space.n,):
            raise ValidationError(f"mass must be a length-{self.space.n} vector, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)
        if not np.isfinite(arr).all():
            raise ValidationError("mass vector has a non-finite entry")
        if np.any(arr < 0.0):
            worst = float(arr.min())
            raise ValidationError(f"mass vector has a negative entry ({worst})")
        total = float(arr.sum())
        if total > 1.0 + MASS_TOL:
            raise ValidationError(f"total mass {total} exceeds 1 beyond tolerance")
        if self.probability and abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"probability measure must have total 1, got {total}")

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def mass_of(self, a: "AtomSet") -> float:
        """Total mass carried by the atoms of ``a``."""
        _require_shared_space(self, a)
        if not a.members:
            return 0.0
        return float(self.mass[list(a.members)].sum())

    def support(self) -> tuple[int, ...]:
        """Atoms with strictly positive mass, ascending."""
        return tuple(int(i) for i in np.flatnonzero(self.mass > 0.0))


@dataclass(frozen=True)
class AtomSet:
    """A subset of atoms, stored canonically (sorted, deduplicated)."""

    space: DiscreteSpace
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted({check_integer(m, 0, "atom") for m in self.members}))
        if canon and canon[-1] >= self.space.n:
            raise ValidationError(f"atom {canon[-1]} outside space of size {self.space.n}")
        object.__setattr__(self, "members", canon)

    def __contains__(self, atom: int) -> bool:
        i = bisect_left(self.members, atom)
        return i < len(self.members) and self.members[i] == atom

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SetFamily:
    """An indexed list of atom sets; the index is the tie-break everywhere."""

    space: DiscreteSpace
    sets: tuple[AtomSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        for s in self.sets:
            if not isinstance(s, AtomSet):
                raise ValidationError("family entries must be AtomSet instances")
            _require_shared_space(self, s)

    @classmethod
    def of(cls, space: DiscreteSpace, blocks: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(space, tuple(AtomSet(space, tuple(b)) for b in blocks))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[AtomSet]:
        return iter(self.sets)

    def __getitem__(self, i: int) -> AtomSet:
        return self.sets[i]

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only boolean ``(len, n)`` matrix, true where set ``i`` holds atom ``x``.

        Built on first use and kept; the containment, assignment and division
        checks and the division sampler read it.
        """
        m = np.zeros((len(self.sets), self.space.n), dtype=bool)
        rows = np.repeat(np.arange(len(self.sets)), [len(s) for s in self.sets])
        m[rows, [a for s in self.sets for a in s.members]] = True
        m.setflags(write=False)
        return m

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
    def uncovered_atoms(self) -> np.ndarray:
        """Read-only ascending index array of the atoms that no set holds.

        Derived with :attr:`atom_signatures` and kept; the cover check reads it.
        """
        return self._signature_map[1]

    @cached_property
    def _signature_map(self):
        held: list[list[int]] = [[] for _ in range(self.space.n)]
        for idx, s in enumerate(self.sets):
            for atom in s.members:
                held[atom].append(idx)
        groups: dict[tuple[int, ...], list[int]] = {}
        for atom, sets in enumerate(held):
            groups.setdefault(tuple(sets), []).append(atom)
        uncovered = np.array(groups.pop((), []), dtype=np.intp)
        uncovered.setflags(write=False)
        return tuple((sets, tuple(atoms)) for sets, atoms in groups.items()), uncovered

    def as_lists(self) -> list[list[int]]:
        return [list(s.members) for s in self.sets]


def _require_shared_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands live on different spaces ({a.space.n} vs {b.space.n} atoms)"
        )


def restrict(mu: Measure, a: AtomSet) -> Measure:
    """Restriction of ``mu`` to ``a``: keep mass on members, zero elsewhere."""
    _require_shared_space(mu, a)
    out = np.zeros(mu.space.n, dtype=np.float64)
    if a.members:
        idx = list(a.members)
        out[idx] = mu.mass[idx]
    return Measure(mu.space, out)


def complement(a: AtomSet) -> AtomSet:
    members = set(a.members)
    return AtomSet(a.space, tuple(i for i in a.space.atoms() if i not in members))


def is_mu_partition(fam: SetFamily, mu: Measure) -> bool:
    """True iff the sets are pairwise disjoint and miss at most mu-null mass."""
    _require_shared_space(fam, mu)
    # counted from the members: a partition may have up to n blocks, too
    # many for an incidence matrix
    members = [a for s in fam.sets for a in s.members]
    coverage = np.bincount(members, minlength=fam.space.n)
    if np.any(coverage > 1):
        return False
    uncovered = float(mu.mass[coverage == 0].sum())
    return uncovered <= MASS_TOL


def is_mu_cover(fam: SetFamily, mu: Measure) -> bool:
    """True iff at most mu-null mass lies outside the union (overlaps allowed)."""
    _require_shared_space(fam, mu)
    missed = fam.uncovered_atoms
    # the same atoms, in the same order, as the mask of uncovered columns
    return not missed.size or float(mu.mass[missed].sum()) <= MASS_TOL


def finer_than(p: SetFamily, q: SetFamily) -> bool:
    """True iff every nonempty set of ``p`` sits inside some set of ``q``.

    Containment is non-strict, so a family is finer than itself.  Empty sets
    of ``p`` are ignored.
    """
    _require_shared_space(p, q)
    return all(
        _first_container(q, block) is not None for block in p.sets if block.members
    )


def _first_container(q: SetFamily, block: AtomSet) -> int | None:
    """Lowest index of a set of ``q`` holding every atom of ``block``, if any."""
    fits = q.incidence[:, list(block.members)].all(axis=1)
    return int(fits.argmax()) if fits.any() else None


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
    mu_raw = data["mu"]
    if not isinstance(mu_raw, list) or len(mu_raw) != space.n:
        raise ValidationError(f'"mu" must be a list of {space.n} numbers')
    mu = Measure(space, parse_numbers(mu_raw, '"mu"'), probability=True)
    cover = SetFamily.of(space, parse_blocks(data["cover"], '"cover"'))
    return mu, cover


def is_finite_number(v) -> bool:
    """True for a finite Python or numpy real; booleans, strings and ``None``
    are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def check_tolerance(tol) -> float:
    """``tol`` as a float if it is a finite number >= 0 (so not NaN), else a
    ValidationError."""
    if not is_finite_number(tol) or tol < 0:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")
    return float(tol)


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
    (``type(True)`` is ``bool``, and ``np.bool_`` is no ``np.integer``)."""
    return type(value) is int or isinstance(value, np.integer)


def parse_numbers(raw: list, what: str) -> list[float]:
    """``float`` of every entry; an entry that is no JSON number (a string,
    ``null`` or a boolean) or an integer too large for a float is a
    ValidationError.  NaN and infinite floats pass, for the caller to report."""
    for v in raw:
        if not (isinstance(v, float) or is_finite_number(v)):
            raise ValidationError(f"{what} entries must be numbers that fit a float, got {v!r}")
    return [float(v) for v in raw]


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
    return {
        "n": mu.space.n,
        "mu": [float(v) for v in mu.mass],
        "cover": cover.as_lists(),
    }
