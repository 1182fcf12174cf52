"""The certified search over cell assignments, and its exhaustive reference;
this module holds nothing else.

Both searches take one positive mass per searched unit (a Venn cell, see
:func:`coverentropy.classical.minimizing_assignment`), the ascending cover-set
indices that may receive each unit, the number of cover sets, the
functional's inner map ``g`` and the direction of the g-sum's optimum.

Both score a choice with the same arithmetic: a group's mass is the sum of
its units' masses added in unit order, and the g-sum adds ``g`` of the
positive groups in set order.  ``g`` is never called on an empty group, so
a custom ``g`` need not define ``g(0)``.  The scan returns the
lexicographically smallest optimal choice vector (first unit slowest,
candidates ascending), moving only on strict improvement.
:func:`ordering_dp` returns its own optimum and the choice induced by the
lexicographically first ordering of the sets whose g-sum lies within
``_PRUNE_SLACK`` (relative) of the optimum; that choice's g-sum is within
the slack of the scan's and never beats it.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceededError, ValidationError
from .measure import is_finite_number

#: Name of the search implementation; recorded in benchmark metadata.
BACKEND = "python"

# Relative slack within which a move, or an ordering, counts as optimal:
# DP values add the set-order sum's g terms in another order.
_PRUNE_SLACK = 1e-12
_INF = math.inf
_SPENT = "the search evaluated {} transitions without certifying an optimum"


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
    its parent), so nothing recurses.  The witness walk descends once from
    the full mask: each residual ``R`` takes its first move (sets
    ascending, or the one collapsed move) whose value lies within
    ``_PRUNE_SLACK`` (relative to ``V`` of the full mask) of ``V(R)``.  That
    is the first ordering of the sets within the slack, and the walk writes
    its choice as it goes.

    ``budget`` caps the transitions (one per set a move places) that the
    expansion and the walk evaluate together.  Returns (``V`` of the full
    mask, chosen set per unit, transitions evaluated).  A spent budget raises
    BudgetExceededError, and a ``g`` value not a finite real ValidationError.
    """
    # phase 1: each set's units, and the units with more than one candidate
    holders = [0] * n_sets
    shared = 0
    bit = 1
    for cands in cand_lists:
        for c in cands:
            holders[c] |= bit
        if len(cands) > 1:
            shared |= bit
        bit <<= 1
    n = len(masses)
    full = (1 << n) - 1
    # the sets that hold some unit, each with its one-set move (units left,
    # sets placed); move lists share these, so they copy no mask
    sets = [(h, (full ^ h, (i,))) for i, h in enumerate(holders) if h]

    # phase 2: expand the residuals reachable from the full mask.  A part's g
    # term is negated when maximising, so one min serves both directions:
    # negation is exact, and the walk's slack test reads only magnitudes.
    gvals = {}
    gget = gvals.get
    # residual -> its moves, each (g term, (units left, sets placed))
    succ = {}
    count = 0
    todo = [full] if full else []
    while todo:
        r = todo.pop()
        if r in succ:
            continue
        out = []
        # parts with no other candidate set, and their g terms added in set
        # order (builtin sum compensates from Python 3.12)
        n_alone, g_alone = 0, 0.0
        for h, move in sets:
            part = r & h
            if part:
                gp = gget(part)
                if gp is None:
                    m = 0.0  # the part's mass, added in unit order
                    bits = part
                    while bits:
                        low = bits & -bits
                        m += masses[low.bit_length() - 1]
                        bits ^= low
                    gp = g(m)
                    if not (-_INF < gp < _INF if gp.__class__ is float else is_finite_number(gp)):
                        raise ValidationError(f"g is not finite at mass {m!r}: it gives {gp!r}")
                    gp = gvals[part] = -gp if maximize else gp
                out.append((gp, move))
                if not part & shared:
                    n_alone += 1
                    g_alone += gp
        placed = len(out)
        if n_alone and placed > 1:
            # a unit left in r keeps all its candidate sets, so these sets'
            # parts have no other holder: one move places them all (the
            # parts are disjoint, so their sum is their union)
            alone = [i for h, (_, (i,)) in sets if r & h and not r & h & shared]
            parts = [r & holders[i] for i in alone]
            out = [(g_alone, (r ^ sum(parts), tuple(alone)))]
            placed = n_alone
        count += placed
        if count > budget:
            raise BudgetExceededError(_SPENT.format(budget))
        succ[r] = out
        for _, (keep, _) in out:
            rest = r & keep
            if rest and rest not in succ:
                todo.append(rest)

    # phase 3: value the residuals in ascending order, the first least move
    # winning as in min()
    memo = {0: 0.0}
    for r in sorted(succ):
        best = None
        for s, (keep, _) in succ[r]:
            v = memo[r & keep] + s
            if best is None or v < best:
                best = v
        memo[r] = best

    # phase 4: the witness walk, one greedy descent.  A residual's least move
    # is within the slack, so every residual on the way takes some move
    slack = _PRUNE_SLACK * (1.0 + abs(memo[full]))
    choice = [0] * n
    r = full
    while r:
        for s, (keep, placed) in succ[r]:
            count += len(placed)
            if count > budget:
                raise BudgetExceededError(_SPENT.format(budget))
            rest = r & keep
            if abs(memo[rest] + s - memo[r]) <= slack:
                break
        for i in placed:
            part = r & holders[i]
            while part:
                low = part & -part
                choice[low.bit_length() - 1] = i
                part ^= low
        r = rest
    return (-memo[full] if maximize else memo[full]), choice, count


# The benchmark harness traces the search under this name.
branch_and_bound = ordering_dp
