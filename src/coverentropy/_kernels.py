"""The certified search over cell assignments, and its exhaustive reference.

Both searches take one positive mass per searched unit (a Venn cell, see
:func:`coverentropy.classical.minimizing_assignment`), the ascending cover-set
indices that may receive each unit, the number of cover sets, the
functional's inner map ``g`` and the direction of the g-sum's optimum.

Arithmetic is fixed so that the two agree bit for bit: a group's mass is the
sum of its units' masses added in unit order, and the g-sum that ranks an
assignment adds ``g`` of the positive groups in set order.  Branch and bound
steers by incremental g-sums (a node's sum is its parent's with one term
replaced), which may differ from the set-order sum in the last bits, so it
ranks a leaf by the exact set-order sum whenever the incremental one comes
within ``_PRUNE_SLACK`` of the incumbent.  ``g`` is never called on an empty
group, so a custom ``g`` need not define ``g(0)``.  Assignments are visited
in lexicographic order (first unit slowest, candidates ascending) and the
incumbent moves only on strict improvement, so both return the
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


def _cut(best, maximize):
    """A bound or incremental sum at least this bad cannot beat ``best``."""
    slack = _PRUNE_SLACK * (1.0 + abs(best))
    return best - slack if maximize else best + slack


def _greedy(masses, cand_lists, n_sets, g, maximize):
    """Greedy incumbent: each unit in turn joins the candidate set with the
    best marginal ``g(s + m) - g(s)``, the lowest index on ties.

    Returns (g-sum of that assignment in set order, chosen set per unit).
    """
    group = [0.0] * n_sets
    gval = [0.0] * n_sets
    choice = []
    for m, cands in zip(masses, cand_lists):
        pick = -1
        for c in cands:
            new = g(group[c] + m)
            gain = new - gval[c]
            if pick < 0 or ((gain > best_gain) if maximize else (gain < best_gain)):
                pick, best_gain, best_new = c, gain, new
        group[pick] += m
        gval[pick] = best_new
        choice.append(pick)
    return _g_sum(g, group), choice


def branch_and_bound(masses, cand_lists, n_sets, g, maximize, max_leaves):
    """Depth-first branch and bound over the same space as the scan.

    The incumbent starts as the greedy assignment (:func:`_greedy`).  The
    first leaf at least as good replaces it and after that only strict
    improvement counts, so the seed only sharpens pruning and the same
    lexicographically smallest optimum comes back.

    The state is one list of group masses with the cached ``g`` of each,
    changed in place and restored from an undo record per depth, so a node
    costs one ``g`` call for the group it grows and one for its bound.

    A node's bound places all the mass of the units not yet assigned into
    the heaviest group that one of those units may join.  When ``g`` is
    concave (minimising case) or convex (maximising case),
    ``g(s + r) - g(s)`` is monotone in ``s``, so this is the best completion
    of the relaxed problem in which any remaining unit may join any set
    that some remaining unit can reach, and the bound is valid.  Subtrees
    are pruned only when their bound is worse than the incumbent by more
    than ``_PRUNE_SLACK``, so no optimum and no earlier tie is lost.

    A leaf is a complete assignment; ``max_leaves`` caps how many are
    evaluated.  Returns (best g-sum, chosen set per unit, leaves evaluated,
    completed flag); when the flag is false the budget ran out and the
    incumbent is not certified.
    """
    n = len(masses)
    if n == 0:
        return 0.0, [], 1, True
    best, best_choice = _greedy(masses, cand_lists, n_sets, g, maximize)
    seeded = True
    cut = _cut(best, maximize)
    # rem[d], reach[d]: mass and union of candidate sets of the units d,
    # d+1, ...; reach is None when that union holds every set
    rem = [0.0] * (n + 1)
    reach = [()] * (n + 1)
    union: set[int] = set()
    for i in range(n - 1, -1, -1):
        rem[i] = rem[i + 1] + masses[i]
        union.update(cand_lists[i])
        reach[i] = None if len(union) == n_sets else tuple(union)
    group = [0.0] * n_sets
    gval = [0.0] * n_sets
    mass_of = group.__getitem__
    sums = [0.0] * n           # sums[d]: g-sum before unit d is placed
    undo_m = [0.0] * n         # group mass and g replaced at depth d
    undo_g = [0.0] * n
    tried = [0] * n            # candidates of unit d tried so far
    chosen = [0] * n
    leaves = 0
    last = n - 1
    d = 0
    while d >= 0:
        cands = cand_lists[d]
        k = tried[d]
        if k:
            c = chosen[d]
            group[c] = undo_m[d]
            gval[c] = undo_g[d]
            if k == len(cands):
                tried[d] = 0
                d -= 1
                continue
        tried[d] = k + 1
        c = chosen[d] = cands[k]
        m0 = undo_m[d] = group[c]
        g0 = undo_g[d] = gval[c]
        m1 = group[c] = m0 + masses[d]
        g1 = gval[c] = g(m1)
        s = sums[d] - g0 + g1
        if d == last:
            if leaves >= max_leaves:
                return best, best_choice, leaves, False
            leaves += 1
            if (s >= cut) if maximize else (s <= cut):
                exact = _g_sum(g, group)
                if ((exact > best) if maximize else (exact < best)) or (
                        seeded and exact == best):
                    best, best_choice, seeded = exact, chosen[:], False
                    cut = _cut(best, maximize)
            continue
        r = reach[d + 1]
        top = max(group) if r is None else max(map(mass_of, r))
        # groups of equal mass have equal cached g, so the first one will do
        bound = s + g(top + rem[d + 1]) - gval[group.index(top)]
        if (bound <= cut) if maximize else (bound >= cut):
            continue
        d += 1
        sums[d] = s
    return best, best_choice, leaves, True
