"""Hot search kernels over the atom-to-cover-set assignment space.

Two interchangeable backends:

* ``numba``  -- the scalar loops below compiled with ``@njit`` (default when
  numba imports cleanly);
* ``numpy``  -- a vectorised chunked scan plus the same loops interpreted.

Select with the environment variable ``COVERENTROPY_BACKEND`` (``numba`` or
``numpy``) before import.  Results are deterministic for either backend:
assignments are visited in lexicographic choice order and the incumbent is
replaced only on strict improvement, so the reported optimum is always the
lexicographically smallest one.  ``benchmarks/bench_search.py`` compares the
backends head to head.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError
from .functionals import G_SHANNON

_requested = os.environ.get("COVERENTROPY_BACKEND", "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise ImportError(
        f"COVERENTROPY_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )

_njit = None
if _requested != "numpy":
    try:
        from numba import njit as _njit
    except ImportError:
        if _requested == "numba":
            raise

BACKEND = "numba" if _njit is not None else "numpy"

# Pruning slack: bounds are exact in real arithmetic, so anything beyond a
# few ulps of headroom only protects against float noise in the bound itself.
_PRUNE_SLACK = 1e-12


def _g_eval(m, g_code, alpha):
    if m <= 0.0:
        return 0.0
    if g_code == G_SHANNON:
        return m * np.log2(m)
    return m ** alpha


def _scan_loop(masses, cand_flat, cand_start, cand_count, n_sets, g_code, alpha, maximize):
    """Exhaustive scan; returns (best g-sum, chosen set per atom, candidates)."""
    n_atoms = masses.shape[0]
    digits = np.zeros(n_atoms, np.int64)
    group = np.zeros(n_sets, np.float64)
    best_choice = np.zeros(n_atoms, np.int64)
    total = 1
    for i in range(n_atoms):
        total *= cand_count[i]
    best = -np.inf if maximize else np.inf
    for _ in range(total):
        for j in range(n_sets):
            group[j] = 0.0
        for i in range(n_atoms):
            group[cand_flat[cand_start[i] + digits[i]]] += masses[i]
        s = 0.0
        for j in range(n_sets):
            s += _g_eval(group[j], g_code, alpha)
        if (maximize and s > best) or (not maximize and s < best):
            best = s
            for i in range(n_atoms):
                best_choice[i] = cand_flat[cand_start[i] + digits[i]]
        # mixed-radix odometer, last atom fastest (lexicographic order)
        k = n_atoms - 1
        while k >= 0:
            digits[k] += 1
            if digits[k] < cand_count[k]:
                break
            digits[k] = 0
            k -= 1
    return best, best_choice, total


def _bb_loop(masses, cand_flat, cand_start, cand_count, n_sets, g_code, alpha,
             maximize, max_leaves):
    """Depth-first branch and bound over the same space as ``_scan_loop``.

    The bound extends a partial assignment by placing all remaining mass into
    the single most favourable group, which is exact for the relaxed problem
    because the g-sum is concave (minimising case) or convex (maximising
    case) in the placement.  Returns (best, choice, leaves evaluated,
    completed flag); when the flag is false the leaf budget ran out and the
    incumbent is not certified.
    """
    n_atoms = masses.shape[0]
    best_choice = np.zeros(n_atoms, np.int64)
    if n_atoms == 0:
        return 0.0, best_choice, 1, True
    rem = np.zeros(n_atoms + 1, np.float64)
    for i in range(n_atoms - 1, -1, -1):
        rem[i] = rem[i + 1] + masses[i]
    snap = np.zeros((n_atoms + 1, n_sets), np.float64)
    digits = np.zeros(n_atoms, np.int64)
    best = -np.inf if maximize else np.inf
    leaves = 0
    d = 0
    while d >= 0:
        if d == n_atoms:
            if leaves >= max_leaves:
                return best, best_choice, leaves, False
            leaves += 1
            s = 0.0
            for j in range(n_sets):
                s += _g_eval(snap[d, j], g_code, alpha)
            if (maximize and s > best) or (not maximize and s < best):
                best = s
                for i in range(n_atoms):
                    best_choice[i] = cand_flat[cand_start[i] + digits[i]]
            d -= 1
            digits[d] += 1
            continue
        if digits[d] >= cand_count[d]:
            digits[d] = 0
            d -= 1
            if d >= 0:
                digits[d] += 1
            continue
        c = cand_flat[cand_start[d] + digits[d]]
        for j in range(n_sets):
            snap[d + 1, j] = snap[d, j]
        snap[d + 1, c] += masses[d]
        r = rem[d + 1]
        s_part = 0.0
        for j in range(n_sets):
            s_part += _g_eval(snap[d + 1, j], g_code, alpha)
        if r > 0.0:
            if maximize:
                ext = -np.inf
                for j in range(n_sets):
                    delta = _g_eval(snap[d + 1, j] + r, g_code, alpha) - _g_eval(
                        snap[d + 1, j], g_code, alpha)
                    if delta > ext:
                        ext = delta
            else:
                ext = np.inf
                for j in range(n_sets):
                    delta = _g_eval(snap[d + 1, j] + r, g_code, alpha) - _g_eval(
                        snap[d + 1, j], g_code, alpha)
                    if delta < ext:
                        ext = delta
            bound = s_part + ext
        else:
            bound = s_part
        slack = _PRUNE_SLACK * (1.0 + abs(best))
        prune = False
        if maximize:
            if bound <= best - slack:
                prune = True
        else:
            if bound >= best + slack:
                prune = True
        if prune:
            digits[d] += 1
            continue
        d += 1
    return best, best_choice, leaves, True


#: Interpreted references, kept importable for tests and benchmarks.
scan_loop_py = _scan_loop
bb_loop_py = _bb_loop

if BACKEND == "numba":
    _g_eval = _njit(cache=True)(_g_eval)
    _scan_loop = _njit(cache=True)(_scan_loop)
    _bb_loop = _njit(cache=True)(_bb_loop)


def scan_numpy(masses, cand_flat, cand_start, cand_count, n_sets, g_code, alpha,
               maximize, chunk=1 << 15):
    """Vectorised exhaustive scan over chunks of assignment indices."""
    n_atoms = masses.shape[0]
    total = 1
    for c in cand_count:
        total *= int(c)
    if n_atoms == 0:
        return 0.0, np.zeros(0, np.int64), 1
    strides = np.ones(n_atoms, dtype=np.int64)
    for i in range(n_atoms - 2, -1, -1):
        strides[i] = strides[i + 1] * int(cand_count[i + 1])
    cands = [
        np.asarray(cand_flat[cand_start[i]: cand_start[i] + cand_count[i]], dtype=np.int64)
        for i in range(n_atoms)
    ]
    best = -np.inf if maximize else np.inf
    best_index = 0
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        idx = np.arange(lo, hi, dtype=np.int64)
        sets = np.empty((hi - lo, n_atoms), dtype=np.int64)
        for i in range(n_atoms):
            sets[:, i] = cands[i][(idx // strides[i]) % cand_count[i]]
        bins = (sets + np.arange(hi - lo, dtype=np.int64)[:, None] * n_sets).ravel()
        weights = np.broadcast_to(masses, sets.shape).ravel()
        gm = np.bincount(bins, weights=weights, minlength=(hi - lo) * n_sets)
        gm = gm.reshape(hi - lo, n_sets)
        safe = np.where(gm > 0.0, gm, 1.0)
        if g_code == G_SHANNON:
            terms = np.where(gm > 0.0, gm * np.log2(safe), 0.0)
        else:
            terms = np.where(gm > 0.0, safe ** alpha, 0.0)
        s = terms.sum(axis=1)
        j = int(np.argmax(s)) if maximize else int(np.argmin(s))
        v = float(s[j])
        if (maximize and v > best) or (not maximize and v < best):
            best = v
            best_index = lo + j
    choice = np.empty(n_atoms, dtype=np.int64)
    for i in range(n_atoms):
        choice[i] = cands[i][(best_index // int(strides[i])) % int(cand_count[i])]
    return best, choice, total


def _pack(masses, cand_lists):
    masses = np.asarray(masses, dtype=np.float64)
    counts = np.array([len(c) for c in cand_lists], dtype=np.int64)
    if np.any(counts == 0):
        raise ValidationError("every searched atom needs at least one candidate set")
    flat = np.array([s for c in cand_lists for s in c], dtype=np.int64)
    starts = np.zeros(len(cand_lists), dtype=np.int64)
    if len(cand_lists) > 1:
        starts[1:] = np.cumsum(counts)[:-1]
    return masses, flat, starts, counts


def assignment_count(cand_lists) -> int:
    """Size of the assignment space (a Python int; no overflow)."""
    total = 1
    for c in cand_lists:
        total *= len(c)
    return total


def scan_assignments(masses, cand_lists, n_sets, g_code, alpha, maximize):
    """Backend dispatcher for the exhaustive scan.

    ``cand_lists`` holds, per searched atom, the ascending cover-set indices
    that may receive it.  Returns (best g-sum, chosen set per atom, number of
    assignments examined).
    """
    masses, flat, starts, counts = _pack(masses, cand_lists)
    if BACKEND == "numba":
        best, choice, total = _scan_loop(
            masses, flat, starts, counts, n_sets, g_code, float(alpha), maximize)
        return float(best), np.asarray(choice), int(total)
    best, choice, total = scan_numpy(
        masses, flat, starts, counts, n_sets, g_code, float(alpha), maximize)
    return float(best), np.asarray(choice), int(total)


def branch_and_bound(masses, cand_lists, n_sets, g_code, alpha, maximize, max_leaves):
    """Backend dispatcher for the certified branch-and-bound search."""
    masses, flat, starts, counts = _pack(masses, cand_lists)
    best, choice, leaves, completed = _bb_loop(
        masses, flat, starts, counts, n_sets, g_code, float(alpha), maximize,
        int(max_leaves))
    return float(best), np.asarray(choice), int(leaves), bool(completed)
