"""The certified search over cell assignments, and its exhaustive reference.

Both searches take one positive mass per searched unit (a Venn cell, see
:func:`coverentropy.classical.minimizing_assignment`), the ascending cover-set
indices that may receive each unit, the number of cover sets, the
functional's inner map ``g`` and the direction of the g-sum's optimum.

Arithmetic is fixed so that the two agree bit for bit: a group's mass is the
sum of its units' masses added in unit order, and the g-sum that ranks an
assignment adds ``g`` of the positive groups in set order.  ``g`` is never
called on an empty group, so a custom ``g`` need not define ``g(0)``.  Both
return the lexicographically smallest optimal choice vector (first unit
slowest, candidates ascending): the scan visits assignments in that order
and moves only on strict improvement, and :func:`ordering_dp` ranks its
optimal candidates the same way.
"""

from __future__ import annotations

import itertools
import math

#: Name of the search implementation; recorded in benchmark metadata.
BACKEND = "python"

# Relative slack within which a move counts as optimal in the witness walk:
# DP values add the set-order sum's g terms in another order.
_PRUNE_SLACK = 1e-12


def assignment_count(cand_lists) -> int:
    """Size of the assignment space (a Python int; no overflow)."""
    return math.prod(len(c) for c in cand_lists)


def scan_assignments(masses, cand_lists, n_sets, g, maximize):
    """Exhaustive reference scan over every assignment.

    Returns (best g-sum, chosen set per unit, assignments examined).  The
    package never calls it: tests compare :func:`ordering_dp` with it.
    """
    best = -math.inf if maximize else math.inf
    best_choice: list[int] = []
    total = 0
    for combo in itertools.product(*cand_lists):
        total += 1
        group = [0.0] * n_sets
        for m, c in zip(masses, combo):
            group[c] += m
        s = 0.0
        for m in group:
            if m > 0.0:
                s += g(m)
        if (s > best) if maximize else (s < best):
            best, best_choice = s, list(combo)
    return best, best_choice, total


def _mass(masses, mask) -> float:
    """Mass of the units in a bitmask, added in unit order."""
    s = 0.0
    while mask:
        low = mask & -mask
        s += masses[low.bit_length() - 1]
        mask ^= low
    return s


def ordering_dp(masses, cand_lists, n_sets, g, maximize, budget):
    """Exact search over the assignments induced by orderings of the sets.

    Some optimum is induced by an ordering of the cover sets, each unit
    going to the first set in the order that holds it (README, "Search").
    With ``R`` the bitmask of units not yet placed and ``H[i]`` those that
    set ``i`` holds, the g-sum splits along the order:

        V(R) = opt over sets i meeting R of g(mass(R & H[i])) + V(R & ~H[i])

    with ``V(0) = 0``.  Sets whose part ``R & H[i]`` has no other candidate
    set take it in every ordering and are placed together in one move.
    Masses add units in unit order, never as a difference, and ``g`` of a
    mask is computed once.  The residuals reachable from the full mask are
    expanded, then valued in ascending order (each is a proper submask of
    its parent), so nothing recurses.  The witness walk follows every move
    within ``_PRUNE_SLACK`` (relative) of ``V``, deduplicated on (residual,
    partial choice), and ranks the induced choice vectors as the scan does.

    ``budget`` caps the transitions (one per set a move places) that the
    expansion and the walk evaluate together.  Returns (best g-sum, chosen
    set per unit, transitions evaluated, completed flag); when the flag is
    false the budget ran out, the g-sum is NaN and the choice is empty.
    """
    n = len(masses)
    holders = [0] * n_sets
    shared = 0  # units with more than one candidate set
    for u, cands in enumerate(cand_lists):
        for c in cands:
            holders[c] |= 1 << u
        if len(cands) > 1:
            shared |= 1 << u
    full = (1 << n) - 1
    # one-set moves (units left, sets placed), shared so move lists copy no mask
    single = [(full ^ h, (i,)) for i, h in enumerate(holders)]
    gvals = {}
    # residual -> its moves, each (g terms, (units left, sets placed))
    succ = {}
    count = 0
    todo = [full] if full else []
    while todo:
        r = todo.pop()
        if r in succ:
            continue
        out, alone = [], []
        for i, h in enumerate(holders):
            part = r & h
            if part:
                gp = gvals.get(part)
                if gp is None:
                    gp = gvals[part] = g(_mass(masses, part))
                out.append((gp, single[i]))
                if not part & shared:
                    alone.append(i)
        placed = len(out)
        if alone and placed > 1:
            # a unit left in r keeps all its candidate sets, so these sets'
            # parts have no other holder: one move places them all (the
            # parts are disjoint, so their sum is their union)
            parts = [r & holders[i] for i in alone]
            out = [(sum(map(gvals.get, parts)), (r ^ sum(parts), tuple(alone)))]
            placed = len(alone)
        count += placed
        if count > budget:
            return math.nan, [], budget, False
        succ[r] = out
        for _, (keep, _) in out:
            rest = r & keep
            if rest and rest not in succ:
                todo.append(rest)

    opt = max if maximize else min
    memo = {0: 0.0}
    for r in sorted(succ):
        memo[r] = opt([memo[r & keep] + s for s, (keep, _) in succ[r]])

    slack = _PRUNE_SLACK * (1.0 + abs(memo[full]))
    ranked, visited = [], set()
    stack = [(full, ())]
    while stack:
        r, groups = stack.pop()
        if not r:
            # groups are in set order with masses added in unit order, so
            # adding their g values gives the scan's g-sum bit for bit
            choice = [0] * n
            s = 0.0
            for i, part in groups:
                s += gvals[part]
                while part:
                    low = part & -part
                    choice[low.bit_length() - 1] = i
                    part ^= low
            ranked.append((choice, s))
            continue
        for s, (keep, placed) in succ[r]:
            count += len(placed)
            if count > budget:
                return math.nan, [], budget, False
            rest = r & keep
            if abs(memo[rest] + s - memo[r]) <= slack:
                added = ((i, r & holders[i]) for i in placed)
                node = (rest, tuple(sorted((*groups, *added))))
                if node not in visited:
                    visited.add(node)
                    stack.append(node)
    # the scan's rule: the best g-sum, the first choice vector among equals
    best_choice, best = min(ranked, key=lambda cs: (-cs[1] if maximize else cs[1], cs[0]))
    return best, best_choice, count, True


# The benchmark harness traces the search under this name.
branch_and_bound = ordering_dp
