"""Seeded input generators owned by the benchmark.

Everything here is plain data (instance dicts in the CLI's JSON schema
``{"n": int, "mu": [float], "cover": [[int]]}``) built from
``numpy.random.default_rng`` streams, so the package under test only ever
sees the generated inputs and a change to its own self-test generators
cannot move a workload.  Each generator takes a tuple of integers that is
turned into one ``SeedSequence``; the first entry names the stream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

#: Default candidate-assignment budget of the package; a space above it is
#: searched by branch and bound instead of the exhaustive scan.
DEFAULT_BUDGET = 10 ** 6

# Stream tags: one per generator, so no two generators share a stream.
LADDER_STREAM = 101
SMALL_STREAM = 202
MIXTURE_STREAM = 303
DIVISION_STREAM = 404
CLI_STREAM = 505


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def instance_digest(inst: dict) -> str:
    """SHA-256 of the instance's sorted-key JSON (floats in repr form)."""
    text = json.dumps(inst, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cover(rng, n: int, k: int, density, positive) -> list[list[int]]:
    """``k`` random sets; every atom in ``positive`` ends up in at least one."""
    blocks = []
    for _ in range(k):
        d = density if density is not None else rng.uniform(0.3, 0.8)
        members = [a for a in range(n) if rng.random() < d]
        if not members:
            members = [int(rng.integers(n))]
        blocks.append(members)
    covered = set().union(*map(set, blocks))
    for atom in positive:
        if atom not in covered:
            blocks[int(rng.integers(k))].append(atom)
    return [sorted(set(b)) for b in blocks]


# ---------------------------------------------------------------------------
# Input properties
# ---------------------------------------------------------------------------

def candidates(inst: dict) -> list[tuple[int, ...]]:
    """Per positive-mass atom, the ascending indices of the sets holding it."""
    out = []
    for atom in range(inst["n"]):
        if inst["mu"][atom] <= 0.0:
            continue
        opts = tuple(i for i, b in enumerate(inst["cover"]) if atom in b)
        if opts:
            out.append(opts)
    return out


def properties(inst: dict) -> dict:
    """n, k, log10 of the assignment space, Venn cells and search regime.

    A Venn cell is a group of positive atoms held by exactly the same cover
    sets; ``venn_cells < searched_atoms`` means the instance collapses.
    """
    cands = candidates(inst)
    space = math.prod(len(c) for c in cands)
    return {
        "n": inst["n"],
        "k": len(inst["cover"]),
        "searched_atoms": len(cands),
        "space_log10": math.log10(space),
        "venn_cells": len(set(cands)),
        "regime": "scan" if space <= DEFAULT_BUDGET else "branch-and-bound",
    }


# ---------------------------------------------------------------------------
# search_ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rung:
    name: str
    n: int
    k: int
    density: float
    pool: int            # instances on this rung
    min_space: int       # accepted assignment-space size, inclusive bounds
    max_space: int


#: The ladder.  Scan rungs sit under the default budget, branch-and-bound
#: rungs above it; ``lowcollapse`` rungs have 8 sets over about as many atoms,
#: so nearly every atom is its own Venn cell, while the k=3 rungs fold into at
#: most 7 cells.  The top rung costs about a second per op.  The ``scan-nN``
#: rungs spread op cost from well under a millisecond to about 0.1 s.  A run
#: times a single round of 96 ops, so each op is one sample; ``scan-n12``
#: has twelve instances so that the median op falls among some forty ops of
#: 1.5 to 10 ms rather than on one op's noisy sample, and the tail (p75)
#: among six ops of 40 to 50 ms.
LADDER = (
    Rung("scan-n6", 6, 4, 0.6, 3, 1, 10 ** 6),
    Rung("scan-n8", 8, 4, 0.6, 3, 1, 10 ** 6),
    Rung("scan-n10", 10, 4, 0.6, 3, 1, 10 ** 6),
    Rung("scan-n12", 12, 4, 0.6, 12, 1, 10 ** 6),
    Rung("scan-n14", 14, 4, 0.6, 3, 1, 10 ** 6),
    Rung("scan-lowcollapse", 9, 8, 0.5, 2, 10 ** 4, 10 ** 6),
    Rung("scan-top", 14, 3, 0.9, 1, 5 * 10 ** 5, 10 ** 6),
    Rung("bb-mid", 20, 3, 0.7, 3, 10 ** 6 + 1, 10 ** 9),
    Rung("bb-lowcollapse", 11, 8, 0.5, 1, 10 ** 6 + 1, 10 ** 9),
    Rung("bb-top", 24, 3, 0.7, 1, 10 ** 6 + 1, 10 ** 9),
)

LADDER_FUNCTIONALS = ("shannon", "tsallis:2", "tsallis:0.5")


def ladder_instance(rung_index: int, pool_index: int) -> dict:
    """Instance ``pool_index`` of a rung: first draw whose space fits the rung."""
    rung = LADDER[rung_index]
    for attempt in range(10_000):
        rng = _rng(LADDER_STREAM, rung_index, pool_index, attempt)
        mass = rng.dirichlet(np.ones(rung.n))
        blocks = _cover(rng, rung.n, rung.k, rung.density, range(rung.n))
        inst = {"n": rung.n, "mu": [float(v) for v in mass], "cover": blocks}
        space = math.prod(len(c) for c in candidates(inst))
        if rung.min_space <= space <= rung.max_space:
            return inst
    raise RuntimeError(f"rung {rung.name} found no instance in range")


def ladder_pool() -> list[tuple[str, int, dict]]:
    """Every (rung name, pool index, instance) of the ladder, in table order."""
    return [
        (rung.name, p, ladder_instance(r, p))
        for r, rung in enumerate(LADDER)
        for p in range(rung.pool)
    ]


# ---------------------------------------------------------------------------
# Small instances (the shape of the package's acceptance pool)
# ---------------------------------------------------------------------------

#: Largest assignment space of a small instance, so that fixed per-call cost
#: dominates.  Without a cap the rare dense n=8, k=5 draw (up to 5^8
#: assignments, about 0.1 s) would set a seed's throughput on its own; large
#: spaces belong to ``search_ladder``.
SMALL_MAX_SPACE = 512


def small_instance(stream: int, seed: int, index: int) -> dict:
    """Instance ``index`` of the (n in 2..8) x (k in 2..5) grid, cycling.

    Dirichlet masses, sometimes one null atom, sets of random density; redrawn
    until the space is at most ``SMALL_MAX_SPACE``.  Cycling through the grid
    gives every seed the same mix of shapes.
    """
    n = 2 + index % 7
    k = 2 + (index // 7) % 4
    for attempt in range(10_000):
        rng = _rng(stream, seed, index, attempt)
        mass = rng.dirichlet(np.ones(n))
        if n >= 3 and rng.random() < 0.25:
            mass[int(rng.integers(n))] = 0.0
            mass = mass / mass.sum()
        positive = [a for a in range(n) if mass[a] > 0.0]
        inst = {"n": n, "mu": [float(v) for v in mass],
                "cover": _cover(rng, n, k, None, positive)}
        if math.prod(len(c) for c in candidates(inst)) <= SMALL_MAX_SPACE:
            return inst
    raise RuntimeError("no small instance within the space cap")


def mixture_components(seed: int, index: int, inst: dict) -> tuple[list[float], list[list[float]]]:
    """Two or three probability measures supported on the cover's union."""
    rng = _rng(MIXTURE_STREAM, seed, index)
    count = int(rng.integers(2, 4))
    union = sorted(set().union(*map(set, inst["cover"])))
    coeffs = [float(v) for v in rng.dirichlet(np.ones(count))]
    measures = []
    for _ in range(count):
        mass = np.zeros(inst["n"])
        mass[union] = rng.dirichlet(np.ones(len(union)))
        measures.append([float(v) for v in mass])
    return coeffs, measures


# ---------------------------------------------------------------------------
# CLI input files
# ---------------------------------------------------------------------------

def cli_file_set(seed: int, index: int, functional: str) -> dict:
    """JSON documents for one pass of every CLI subcommand on one instance.

    Returns ``instance``, ``division``, ``mixture``, ``hlp`` (dicts) and
    ``blocks`` (a partition finer than the cover, as a list of lists).
    """
    rng = _rng(CLI_STREAM, seed, index)
    n = int(rng.integers(6, 9))
    k = int(rng.integers(3, 5))
    mass = rng.dirichlet(np.ones(n))
    blocks = _cover(rng, n, k, 0.5, range(n))
    inst = {"n": n, "mu": [float(v) for v in mass], "cover": blocks}

    # a vertex-free division: each atom's mass split over its sets
    rows = np.zeros((k, n))
    groups: dict[int, list[int]] = {}
    for atom in range(n):
        opts = [i for i, b in enumerate(blocks) if atom in b]
        rows[opts, atom] = mass[atom] * rng.dirichlet(np.ones(len(opts)))
        groups.setdefault(int(rng.choice(opts)), []).append(atom)
    division = {"cover_index_rows": [[float(v) for v in r] for r in rows]}
    partition = [groups[i] for i in sorted(groups)]

    coeffs, measures = mixture_components(seed, 1000 + index, inst)
    mixture = {"n": n, "coefficients": coeffs, "measures": measures,
               "cover": blocks, "functional": functional}

    # x = (y + uniform) / 2 is majorized by the nonincreasing y
    y = np.sort(rng.dirichlet(np.ones(k)))[::-1]
    x = 0.5 * y + 0.5 / k
    hlp = {"x": [float(v) for v in x], "y": [float(v) for v in y],
           "functional": functional}
    return {"instance": inst, "division": division, "mixture": mixture,
            "hlp": hlp, "blocks": partition}
