"""Exhaustive ground-truth oracles.

Every routine enumerates its full feasible space; the only liberties taken
are bitmask conflict tests and running objective values, which keep the
enumeration affordable without pruning any candidate.  Caps are explicit
parameters so oversized inputs fail loudly instead of silently truncating.

Both levels of the bilevel enumeration run on one search, ``_extensions``,
which visits sets in increasing order of their sorted id tuples.  The last
tie-break of every oracle, "smallest id tuple wins", is therefore "first
visited wins": an incumbent is replaced only by a strictly better candidate.

Positions are the vertex ids of the conflict graph (the instance itself, or
``to_interval_graph`` of intervals): position ``p`` holds the ``p``-th
smallest item id, so increasing positions are increasing ids.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .core import (
    BilevelOutcome,
    BisGraph,
    Instance,
    IntervalInstance,
    Objective,
    Setting,
    Variant,
    check_leader_action,
    make_outcome,
    to_interval_graph,
)
from .errors import CapExceeded, Infeasible
from .reductions import B2cnfFormula, _check_simple

FOLLOWER_CAP = 22
FORCE_CAP = 16
BISEL_CAP = 20
VC_CAP = 20
B2CNF_CAP = 16


def _check_cap(size: int, cap: int, what: str) -> None:
    """Reject a negative cap as a bad parameter (``ValueError``) and a
    ``size`` above the cap with ``CapExceeded``."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    if size > cap:
        raise CapExceeded(f"{size} {what} exceed cap {cap}")


def _ids_of(ids: Sequence[int], mask: int) -> tuple[int, ...]:
    """The item ids at the positions set in ``mask``, in increasing order."""
    return tuple(iid for p, iid in enumerate(ids) if mask >> p & 1)


def _state(graph: BisGraph, positions: list[int], variant: Variant) -> tuple:
    """``(mask, d, c)`` of the set at ``positions``: its bitmask and its
    follower and leader values (a sum, or a minimum that is +infinity over
    nothing)."""
    d, c = ([w[p] for p in positions] for w in (graph.wf, graph.wl))
    return (
        sum(1 << p for p in positions),
        sum(d) if variant.follower_obj is Objective.SUM
        else min(d, default=math.inf),
        sum(c) if variant.leader_obj is Objective.SUM
        else min(c, default=math.inf),
    )


def _conflict_graph(instance: Instance) -> BisGraph:
    """The instance itself, or the conflict graph of an interval instance."""
    if isinstance(instance, IntervalInstance):
        return to_interval_graph(instance)
    return instance


def _extensions(
    graph: BisGraph, positions: Sequence[int], start: tuple, variant: Variant
) -> Iterator[tuple]:
    """Every extension of the set ``start = (mask, d, c)`` by a subset of
    ``positions`` that keeps it conflict-free, as ``(mask, d, c)`` with the
    running follower and leader values (sum or min, per the variant).

    Pre-order search: a set comes before its extensions, and an extension
    adding position ``p`` first before one whose smallest added position is
    larger.  That is increasing order of the added positions' sorted tuple,
    hence of their sorted id tuple.  Each entry of the stack carries the
    bitmask of positions its set may still add: larger than its last one
    and conflict-free with it.
    """
    d_sum = variant.follower_obj is Objective.SUM
    c_sum = variant.leader_obj is Objective.SUM
    wl, wf, conflict = graph.wl, graph.wf, graph.adjacency_bits
    free = sum(1 << p for p in positions if not conflict[p] & start[0])
    stack = [(free, *start)]
    while stack:
        free, mask, d, c = stack.pop()
        yield mask, d, c
        later = 0  # children are pushed largest position first
        while free:
            p = free.bit_length() - 1
            bit = 1 << p
            free ^= bit
            f, w = wf[p], wl[p]
            stack.append((
                later & ~conflict[p],
                mask | bit,
                d + f if d_sum else (f if f < d else d),
                c + w if c_sum else (w if w < c else c),
            ))
            later |= bit


def _best_reaction(
    graph: BisGraph, action: tuple, variant: Variant, require_nonempty: bool
) -> tuple | None:
    """Enumerate every follower reaction compatible with the leader action
    ``(mask, d, c)``.

    Returns ``(c, follower mask)`` of the follower-optimal reaction: the
    largest follower value, ties broken on the leader value per the setting.
    Reactions are visited in increasing id-tuple order and only a strict
    improvement replaces the incumbent, so remaining ties go to the smallest
    id tuple.  ``None`` when no admissible reaction exists.  Bottleneck
    values over an empty union are +infinity (the minimum over nothing beats
    everything).
    """
    optimistic = variant.setting is Setting.OPTIMISTIC
    best = None
    for mask, d, c in _extensions(graph, graph.follower_ids, action, variant):
        if require_nonempty and not mask:
            continue
        if (
            best is None
            or d > best_d
            or d == best_d and (c > best_c if optimistic else c < best_c)
        ):
            best, best_d, best_c = mask, d, c
    return None if best is None else (best_c, best ^ action[0])


def brute_follower(
    instance: Instance,
    leader_set: Iterable[int],
    variant: Variant,
    cap: int = FOLLOWER_CAP,
) -> frozenset[int]:
    """Follower-optimal reaction by full enumeration.

    Maximizes the follower's objective over all feasible completions,
    breaking ties on the leader's value (their way round per the setting)
    and finally on the smallest id tuple, the first one visited.  Graph
    instances forbid an empty union, so the empty leader action must be
    answered nonempty.
    """
    lset = frozenset(leader_set)
    _check_cap(len(instance.follower_ids), cap, "follower items")
    check_leader_action(instance, lset)
    graph, ids = _conflict_graph(instance), instance.ids
    positions = [p for p, iid in enumerate(ids) if iid in lset]
    action = _state(graph, positions, variant)
    nonempty = isinstance(instance, BisGraph)
    best = _best_reaction(graph, action, variant, require_nonempty=nonempty)
    if best is None:
        raise Infeasible("the follower has no admissible reaction")
    return frozenset(_ids_of(ids, best[1]))


def _optimum(
    instance: Instance, variant: Variant, require_nonempty: bool
) -> BilevelOutcome:
    """Best leader value over every leader action answered by its
    follower-optimal reaction.  Leader actions are visited in increasing
    id-tuple order and only a strictly larger leader value replaces the
    incumbent, so ties go to the smallest (leader ids, follower ids) pair
    (each leader action has one reaction)."""
    graph, ids = _conflict_graph(instance), instance.ids
    empty = _state(graph, [], variant)
    best = None  # (c, leader mask, follower mask)
    for action in _extensions(graph, graph.leader_ids, empty, variant):
        reaction = _best_reaction(graph, action, variant, require_nonempty)
        if reaction is not None and (best is None or reaction[0] > best[0]):
            best = (reaction[0], action[0], reaction[1])
    if best is None:
        raise Infeasible("no feasible leader/follower pair exists")
    return make_outcome(
        instance, variant, _ids_of(ids, best[1]), _ids_of(ids, best[2])
    )


def brute_force(
    graph: BisGraph,
    variant: Variant,
    cap: int = FORCE_CAP,
    require_union_nonempty: bool = True,
) -> BilevelOutcome:
    """Bilevel optimum by nested enumeration of leader actions and
    follower reactions.

    ``require_union_nonempty`` may be relaxed for sum objectives, which
    admits the empty joint solution at value 0 (used when cross-checking
    against interval instances, which carry no nonemptiness rule).
    """
    _check_cap(len(graph), cap, "vertices")
    return _optimum(graph, variant, require_union_nonempty)


def brute_bisel(
    instance: IntervalInstance, setting: Setting, cap: int = BISEL_CAP
) -> BilevelOutcome:
    """Bilevel interval-selection optimum by nested enumeration (sum
    objectives; the empty union is feasible at value 0)."""
    _check_cap(len(instance), cap, "intervals")
    variant = Variant(Objective.SUM, Objective.SUM, setting)
    return _optimum(instance, variant, require_nonempty=False)


def decide_vc_brute(
    n: int, edges: Sequence[tuple[int, int]], k: int, cap: int = VC_CAP
) -> bool:
    """True iff the graph has a vertex cover of size at most ``k``."""
    _check_cap(n, cap, "vertices")
    edges = _check_simple(n, edges)
    for size in range(0, min(k, n) + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return False


def decide_b2cnf_brute(formula: B2cnfFormula, cap: int = B2CNF_CAP) -> bool:
    """True iff some assignment of the X variables leaves the formula
    unsatisfied under every assignment of the Y variables."""
    _check_cap(formula.n1 + formula.n2, cap, "variables")

    def lit_true(lit, x_bits: int, y_bits: int) -> bool:
        bits = x_bits if lit.side == "X" else y_bits
        value = bool(bits >> (lit.var - 1) & 1)
        return value != lit.negated

    def satisfied(x_bits: int, y_bits: int) -> bool:
        return all(
            any(lit_true(lit, x_bits, y_bits) for lit in clause)
            for clause in formula.clauses
        )

    for x_bits in range(1 << formula.n1):
        if all(
            not satisfied(x_bits, y_bits)
            for y_bits in range(1 << formula.n2)
        ):
            return True
    return False
