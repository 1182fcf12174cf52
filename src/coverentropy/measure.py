"""Finite discrete probability spaces, measures, and families of atom sets.

The whole package works on a fixed finite model: atoms are the integers
``0..n-1``, every subset is measurable, and a measure is a nonnegative mass
vector.  Families of atom sets play two roles: *partitions* (pairwise
disjoint, covering all mass) and *covers* (overlaps allowed, covering all
mass).  All types are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.  A
family's ``incidence`` matrix is built on first use and is read-only; two
threads that race to build it build the same matrix.

This module also owns the instance JSON schema consumed by the CLI::

    {"n": int, "mu": [float, ...], "cover": [[int, ...], ...]}
"""

from __future__ import annotations

import json
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
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"space needs a positive integer atom count, got {self.n!r}")

    def atoms(self) -> range:
        return range(self.n)


def _readonly_vector(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.shape != (n,):
        raise ValidationError(f"{what} must be a length-{n} vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


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
        arr = _readonly_vector(self.mass, self.space.n, "mass")
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
        if a.space != self.space:
            raise SpaceMismatchError("atom set lives on a different space")
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
        canon = tuple(sorted({int(m) for m in self.members}))
        for m in canon:
            if m < 0 or m >= self.space.n:
                raise ValidationError(f"atom {m} outside space of size {self.space.n}")
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
            if s.space != self.space:
                raise SpaceMismatchError("all sets of a family must share one space")

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

        Built on first use and kept; the cover, containment and division
        checks and the division sampler read it.
        """
        m = np.zeros((len(self.sets), self.space.n), dtype=bool)
        rows = np.repeat(np.arange(len(self.sets)), [len(s) for s in self.sets])
        m[rows, [a for s in self.sets for a in s.members]] = True
        m.setflags(write=False)
        return m

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
    uncovered = float(mu.mass[~fam.incidence.any(axis=0)].sum())
    return uncovered <= MASS_TOL


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
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f'"n" must be a positive integer, got {n!r}')
    space = DiscreteSpace(n)
    mu_raw = data["mu"]
    if not isinstance(mu_raw, list) or len(mu_raw) != n:
        raise ValidationError(f'"mu" must be a list of {n} numbers')
    mu = Measure(space, parse_numbers(mu_raw, '"mu"'), probability=True)
    cover = SetFamily.of(space, parse_blocks(data["cover"], '"cover"'))
    return mu, cover


def parse_numbers(raw: list, what: str) -> list[float]:
    """``float`` of every entry; an entry that is no JSON number (a string,
    ``null`` or a boolean) or an integer too large for a float is a
    ValidationError."""
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{what} entries must be numbers, got {v!r}")
    try:
        return [float(v) for v in raw]
    except OverflowError as exc:
        raise ValidationError(f"{what} entries must fit a float: {exc}") from exc


def parse_blocks(raw, what: str) -> list[list[int]]:
    """``raw`` unchanged if it is a list of atom-index lists, else a
    ValidationError; booleans are not atom indices."""
    if not isinstance(raw, list) or not all(
        isinstance(b, list) and all(type(x) is int for x in b) for b in raw
    ):
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
