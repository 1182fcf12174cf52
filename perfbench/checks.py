"""Verification gates, written independently of the package under test.

Each gate raises :class:`GateError` on a wrong output.  The runner calls them
outside the timed region; a failed gate fails the whole run, it never counts
as a slow or failed op.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Atomwise tolerance for "sums back to the measure", as in the package.
MASS_TOL = 1e-12


class GateError(AssertionError):
    """An output that the benchmark proved wrong."""


def entropy(functional: str, masses) -> float:
    """``shannon``, ``tsallis:A`` or ``renyi:A`` of the positive masses."""
    m = [float(v) for v in masses if v > 0.0]
    if functional == "shannon":
        return -sum(v * math.log2(v) for v in m)
    base, alpha = functional.split(":")
    alpha = float(alpha)
    s = sum(v ** alpha for v in m)
    if base == "tsallis":
        return (s - 1.0) / (1.0 - alpha)
    if base == "renyi":
        return math.log2(s) / (1.0 - alpha)
    raise ValueError(f"unknown functional {functional!r}")


def close(value, ref, tol: float, what: str) -> None:
    if value is None or ref is None:
        if value is not ref:
            raise GateError(f"{what}: {value!r} where {ref!r} was expected")
        return
    if not abs(float(value) - float(ref)) <= tol:
        raise GateError(f"{what}: {value!r} differs from {ref!r} by more than {tol}")


def at_least(value: float, floor: float, tol: float, what: str) -> None:
    if not value >= floor - tol:
        raise GateError(f"{what}: {value!r} is below {floor!r}")


def partition_finer_than(mu, cover, blocks, what: str) -> None:
    """``blocks`` are disjoint, lie in cover sets and miss only null mass."""
    mu = np.asarray(mu, dtype=float)
    seen = np.zeros(len(mu), dtype=int)
    sets = [set(b) for b in cover]
    for b in blocks:
        if not b:
            continue
        seen[list(b)] += 1
        if not any(set(b) <= s for s in sets):
            raise GateError(f"{what}: block {list(b)} lies in no cover set")
    if np.any(seen > 1):
        raise GateError(f"{what}: blocks overlap")
    if float(mu[seen == 0].sum()) > MASS_TOL:
        raise GateError(f"{what}: blocks leave mass uncovered")


def division_rows(mu, cover, rows, what: str) -> None:
    """Rows are nonnegative, stay in their sets and add back up to ``mu``."""
    rows = np.asarray(rows, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if rows.shape != (len(cover), len(mu)):
        raise GateError(f"{what}: rows have shape {rows.shape}")
    if np.any(rows < 0.0):
        raise GateError(f"{what}: negative row entry")
    for i, members in enumerate(cover):
        outside = np.ones(len(mu), dtype=bool)
        outside[list(members)] = False
        if np.any(rows[i][outside] != 0.0):
            raise GateError(f"{what}: row {i} has mass outside its cover set")
    if float(np.abs(rows.sum(axis=0) - mu).max()) > MASS_TOL:
        raise GateError(f"{what}: rows do not sum back to the measure")


# ---------------------------------------------------------------------------
# Canonical JSON (sorted keys, 17 significant digits, no whitespace)
# ---------------------------------------------------------------------------

def canonical(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, list):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(k, ensure_ascii=True) + ":" + canonical(obj[k]) for k in sorted(obj)
        ) + "}"
    raise TypeError(type(obj).__name__)


def parse_report(stdout: str) -> dict | None:
    """The report if ``stdout`` is exactly one canonical JSON line, else None."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return None
    line = stdout[:-1]
    try:
        # the package writes the float -0.0 as "-0", which json reads as int 0
        report = json.loads(line, parse_int=lambda t: -0.0 if t == "-0" else int(t))
        if canonical(report) != line:
            return None
    except (ValueError, TypeError):
        return None
    return report if isinstance(report, dict) else None
