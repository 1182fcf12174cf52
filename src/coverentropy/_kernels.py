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

The DP runs in two parts.  :func:`search_graph` expands the residuals and
their moves from the candidate lists alone, with neither masses nor ``g``;
:func:`ordering_dp` values such a graph for one measure and one ``g`` and
walks it, building the graph first when it is given none.  So a caller can
build a cover's graph once per pattern of positive cells and value it for
every functional and measure on that pattern: ``classical._search`` keeps
it on the cover, for as long as the cover lives, for all three searches
(``minimizing_assignment``, ``cover_entropy``, ``cover_entropy_weighted``).
The result never depends on whether the graph was built here: the value,
choice, transition count and the order of ``g`` calls are the same.  As the
expansion calls no ``g``, a search that runs out of budget there raises
BudgetExceededError even where ``g`` would give a non-finite value or raise.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceededError, ValidationError
from .measure import frozen, is_finite_number

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


@frozen(eq=False)
class SearchGraph:
    """The functional-free part of :func:`ordering_dp`, from
    :func:`search_graph`; any search of the same candidate lists can value it.

    Residuals are numbered as first seen: 0 is the empty one and 1 the full
    mask, if any unit is searched.  ``masks[j]`` is residual ``j`` and
    ``moves[j]`` its moves, each ``(term, next residual, sets placed)``;
    ``order`` lists the nonempty residuals by ascending mask.  ``terms``
    holds, in first-encounter order, each distinct part's unit mask and each
    collapsed move's tuple of the earlier terms it adds, in set order.
    ``holders[i]`` is the mask of the units that set ``i`` may take, and
    ``count`` the expansion's transitions.
    """

    holders: list
    masks: list
    moves: list
    order: list
    terms: list
    count: int


def search_graph(cand_lists, n_sets, budget):
    """Expand the residuals reachable from the full mask (see
    :func:`ordering_dp`) into a :class:`SearchGraph`, without masses or ``g``.

    A residual's moves place the part ``R & H[i]`` of each set meeting it,
    sets ascending; sets whose part has no other candidate set take it in
    every ordering and are placed together in one collapsed move.  The
    expansion's transitions (one per set a move places) count against
    ``budget``: past it, BudgetExceededError.
    """
    # each set's units, and the units with more than one candidate
    holders = [0] * n_sets
    shared = 0
    bit = 1
    for cands in cand_lists:
        for c in cands:
            holders[c] |= bit
        if len(cands) > 1:
            shared |= bit
        bit <<= 1
    full = (1 << len(cand_lists)) - 1
    # the sets that hold some unit, each with the one-set tuple its moves share
    sets = [(h, (i,)) for i, h in enumerate(holders) if h]

    terms = []
    term_ids = {}  # part mask or collapsed tuple -> its term number
    masks = [0]
    ids = {0: 0}  # residual mask -> its number
    moves = [()]  # None until the residual is expanded
    todo = []

    def visit(rest):
        """``rest``'s number, stacked unless it is expanded (inlined below)."""
        k = ids.get(rest)
        if k is None:
            k = ids[rest] = len(masks)
            masks.append(rest)
            moves.append(None)
            todo.append(k)
        elif moves[k] is None:
            todo.append(k)
        return k

    if full:
        visit(full)
    count = 0
    while todo:
        j = todo.pop()
        if moves[j] is not None:
            continue
        r = masks[j]
        # residuals first seen from r, and stack entries, past these marks
        seen, pushed = len(masks), len(todo)
        out = []
        n_alone = 0  # parts with no other candidate set
        for h, placed in sets:
            part = r & h
            if part:
                t = term_ids.get(part)
                if t is None:
                    t = term_ids[part] = len(terms)
                    terms.append(part)
                rest = r ^ part
                k = ids.get(rest)  # visit(rest)
                if k is None:
                    k = ids[rest] = len(masks)
                    masks.append(rest)
                    moves.append(None)
                    todo.append(k)
                elif moves[k] is None:
                    todo.append(k)
                out.append((t, k, placed))
                if not part & shared:
                    n_alone += 1
        n_placed = len(out)
        if n_alone and n_placed > 1:
            # a unit left in r keeps all its candidate sets, so these sets'
            # parts have no other holder: one move places them all (the
            # parts are disjoint, so their union is their sum).  The one-set
            # moves are dropped, with the residuals first seen from them
            for rest in masks[seen:]:
                del ids[rest]
            del masks[seen:], moves[seen:], todo[pushed:]
            alone = [(t, placed) for t, _, placed in out if not terms[t] & shared]
            key = tuple([t for t, _ in alone])
            t = term_ids.get(key)
            if t is None:
                t = term_ids[key] = len(terms)
                terms.append(key)
            k = visit(r ^ sum([terms[u] for u in key]))
            out = [(t, k, tuple([i for _, (i,) in alone]))]
            n_placed = n_alone
        count += n_placed
        if count > budget:
            raise BudgetExceededError(_SPENT.format(budget))
        moves[j] = out
    order = sorted(range(1, len(masks)), key=masks.__getitem__)
    return SearchGraph(holders, masks, moves, order, terms, count)


def ordering_dp(masses, cand_lists, n_sets, g, maximize, budget, graph=None):
    """Exact search over the assignments induced by orderings of the sets.

    Some optimum is induced by an ordering of the cover sets, each unit
    going to the first set in the order that holds it (README, "Search").
    With ``R`` the bitmask of units not yet placed and ``H[i]`` those that
    set ``i`` holds, the g-sum splits along the order:

        V(R) = opt over sets i meeting R of g(mass(R & H[i])) + V(R & ~H[i])

    with ``V(0) = 0``.  ``graph`` is :func:`search_graph` of ``cand_lists``,
    ``n_sets`` and some budget, built here when not given: the reachable
    residuals and their moves, which depend on neither ``masses`` nor ``g``.
    Valuing it, each distinct part's mass adds its units in unit order (never
    as a difference) and ``g`` is called once per part, in the order the
    expansion first met them; the residuals are then valued in ascending
    order (each is a proper submask of its parent), so nothing recurses.
    The witness walk descends once from the full mask: each residual ``R``
    takes its first move (sets ascending, or the one collapsed move) whose
    value lies within ``_PRUNE_SLACK`` (relative to ``V`` of the full mask)
    of ``V(R)``.  That is the first ordering of the sets within the slack,
    and the walk writes its choice as it goes.

    ``budget`` caps the transitions (one per set a move places) that the
    expansion and the walk evaluate together; a given graph's expansion
    counts as if run here.  Returns (``V`` of the full mask, chosen set per
    unit, transitions evaluated), the same with or without ``graph``.  A
    spent budget raises BudgetExceededError before ``g`` is called, and a
    ``g`` value not a finite real ValidationError.
    """
    if graph is None:
        graph = search_graph(cand_lists, n_sets, budget)
    count = graph.count
    if count > budget:
        raise BudgetExceededError(_SPENT.format(budget))
    # each term's value: a part's g term, negated when maximising so that one
    # min serves both directions (negation is exact, and the walk's slack test
    # reads only magnitudes), or a collapsed move's sum of them in set order
    vals = []
    for term in graph.terms:
        if term.__class__ is tuple:
            gp = 0.0
            for t in term:
                gp += vals[t]
        else:
            m = 0.0  # the part's mass, added in unit order
            bits = term
            while bits:
                low = bits & -bits
                m += masses[low.bit_length() - 1]
                bits ^= low
            gp = g(m)
            if not (-_INF < gp < _INF if gp.__class__ is float else is_finite_number(gp)):
                raise ValidationError(f"g is not finite at mass {m!r}: it gives {gp!r}")
            if maximize:
                gp = -gp
        vals.append(gp)

    # the residuals in ascending order, the first least move winning as in min()
    moves = graph.moves
    memo = [0.0] * len(moves)
    for j in graph.order:
        best = None
        for t, k, _ in moves[j]:
            v = memo[k] + vals[t]
            if best is None or v < best:
                best = v
        memo[j] = best

    # the witness walk, one greedy descent.  A residual's least move is within
    # the slack, so every residual on the way takes some move
    top = 1 if len(moves) > 1 else 0
    slack = _PRUNE_SLACK * (1.0 + abs(memo[top]))
    masks, holders = graph.masks, graph.holders
    choice = [0] * len(masses)
    j = top
    while j:
        v = memo[j]
        for t, k, placed in moves[j]:
            count += len(placed)
            if count > budget:
                raise BudgetExceededError(_SPENT.format(budget))
            if abs(memo[k] + vals[t] - v) <= slack:
                break
        r = masks[j]
        for i in placed:
            part = r & holders[i]
            while part:
                low = part & -part
                choice[low.bit_length() - 1] = i
                part ^= low
        j = k
    return (-memo[top] if maximize else memo[top]), choice, count


# The benchmark harness traces the search under this name.
branch_and_bound = ordering_dp
