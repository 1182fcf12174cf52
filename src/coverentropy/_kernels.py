"""The certified search over cell assignments, and its exhaustive reference.

Both searches take one positive mass per searched unit (a Venn cell, see
:func:`coverentropy.classical.minimizing_assignment`), the ascending cover-set
indices that may receive each unit, the number of cover sets, the
functional's inner map ``g`` and the direction of the g-sum's optimum.

Arithmetic is fixed so that the two agree bit for bit: a group's mass is the
sum of its units' masses added in unit order, and an assignment's g-sum adds
``g`` of the positive groups in set order.  ``g`` is never called on an
empty group, so a custom ``g`` need not define ``g(0)``.  Assignments are
visited in lexicographic order (first unit slowest, candidates ascending)
and the incumbent moves only on strict improvement, so both return the
lexicographically smallest optimal choice vector.
"""

from __future__ import annotations

import itertools
import math

#: Name of the search implementation; recorded in benchmark metadata.
BACKEND = "python"

# Pruning slack: bounds are exact in real arithmetic, so anything beyond a
# few ulps of headroom only protects against float noise in the bound itself.
_PRUNE_SLACK = 1e-12


def _g_sum(g, group) -> float:
    s = 0.0
    for m in group:
        if m > 0.0:
            s += g(m)
    return s


def assignment_count(cand_lists) -> int:
    """Size of the assignment space (a Python int; no overflow)."""
    return math.prod(len(c) for c in cand_lists)


def scan_assignments(masses, cand_lists, n_sets, g, maximize):
    """Exhaustive reference scan over every assignment.

    Returns (best g-sum, chosen set per unit, assignments examined).  The
    package never calls it: tests compare :func:`branch_and_bound` with it.
    """
    best = -math.inf if maximize else math.inf
    best_choice: list[int] = []
    total = 0
    for combo in itertools.product(*cand_lists):
        total += 1
        group = [0.0] * n_sets
        for m, c in zip(masses, combo):
            group[c] += m
        s = _g_sum(g, group)
        if (s > best) if maximize else (s < best):
            best, best_choice = s, list(combo)
    return best, best_choice, total


def branch_and_bound(masses, cand_lists, n_sets, g, maximize, max_leaves):
    """Depth-first branch and bound over the same space as the scan.

    A node's bound places all the mass of the units not yet assigned into
    the heaviest group.  When ``g`` is concave (minimising case) or convex
    (maximising case), ``g(s + r) - g(s)`` is monotone in ``s``, so this is
    the best completion of the relaxed problem in which any group may take
    any unit, and the bound is valid.  Subtrees are pruned only when their
    bound is worse than the incumbent by more than ``_PRUNE_SLACK``, so no
    optimum and no earlier tie is lost.

    A leaf is a complete assignment; ``max_leaves`` caps how many are
    evaluated.  Returns (best g-sum, chosen set per unit, leaves evaluated,
    completed flag); when the flag is false the budget ran out and the
    incumbent is not certified.
    """
    n = len(masses)
    if n == 0:
        return 0.0, [], 1, True
    rem = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rem[i] = rem[i + 1] + masses[i]
    # snaps[d]: group masses after the first d units are placed
    snaps = [[0.0] * n_sets for _ in range(n + 1)]
    digits = [0] * n
    chosen = [0] * n
    best = -math.inf if maximize else math.inf
    best_choice: list[int] = []
    leaves = 0
    last = n - 1
    d = 0
    while d >= 0:
        cands = cand_lists[d]
        if digits[d] == len(cands):
            digits[d] = 0
            d -= 1
            if d >= 0:
                digits[d] += 1
            continue
        c = chosen[d] = cands[digits[d]]
        group = snaps[d + 1]
        group[:] = snaps[d]
        group[c] += masses[d]
        s = _g_sum(g, group)
        if d == last:
            if leaves >= max_leaves:
                return best, best_choice, leaves, False
            leaves += 1
            if (s > best) if maximize else (s < best):
                best, best_choice = s, chosen[:]
            digits[d] += 1
            continue
        top = max(group)
        bound = s + g(top + rem[d + 1]) - (g(top) if top > 0.0 else 0.0)
        slack = _PRUNE_SLACK * (1.0 + abs(best))
        if (bound <= best - slack) if maximize else (bound >= best + slack):
            digits[d] += 1
            continue
        d += 1
    return best, best_choice, leaves, True
