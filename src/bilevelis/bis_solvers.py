"""Exact solvers for bilevel independent set.

Three polynomial algorithms cover the tractable variants; a
leader-enumeration solver handles the rest wherever a follower oracle is
available, paying exponential time only in the number of leader vertices.
``solve`` is the one place that picks among them.
A certificate verifier mirrors the decision-problem check: recompute the
follower's reaction to a claimed leader action and compare values.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import (
    BilevelOutcome,
    BisGraph,
    Objective,
    Owner,
    Setting,
    Variant,
    evaluate,
    make_outcome,
)
from .errors import Infeasible, NotBipartite
from .follower import react, react_bottleneck
from .single_level import bipartition, mwis_by_owner

_CB_DB_O = Variant(Objective.BOTTLENECK, Objective.BOTTLENECK, Setting.OPTIMISTIC)
_CS_DB_O = Variant(Objective.SUM, Objective.BOTTLENECK, Setting.OPTIMISTIC)
_CS_DB_P = Variant(Objective.SUM, Objective.BOTTLENECK, Setting.PESSIMISTIC)


def _alone_or_abstain(
    graph: BisGraph, variant: Variant, action: Iterable[int] | None
) -> BilevelOutcome:
    """The leader's better outcome of playing ``action`` alone (``None``
    when there are no leaders), which the follower never joins, and of
    abstaining, which ``react_bottleneck`` answers; ``action`` on a tie."""
    if not len(graph):
        raise Infeasible("empty graph")
    candidates: list[BilevelOutcome] = []
    if action is not None:
        candidates.append(make_outcome(graph, variant, action, frozenset()))
    if graph.follower_ids:
        reaction = react_bottleneck(graph, frozenset(), variant)
        candidates.append(make_outcome(graph, variant, frozenset(), reaction))
    return max(candidates, key=lambda o: o.leader_value)


def solve_cb_db_o(graph: BisGraph) -> BilevelOutcome:
    """Optimistic bottleneck/bottleneck: the follower never plays against
    a nonempty action, so the leader compares her best single vertex with
    what the follower would pick if she abstains."""
    action = None
    if graph.leader_ids:
        action = {max(graph.leader_ids, key=lambda v: (graph.item(v).wl, -v))}
    return _alone_or_abstain(graph, _CB_DB_O, action)


def solve_cs_db_o_bipartite(graph: BisGraph) -> BilevelOutcome:
    """Optimistic sum/bottleneck on bipartite graphs.

    Abstaining is one candidate.  Otherwise some played vertex sets the
    follower's bottleneck threshold: for each choice of that vertex, every
    vertex outside its closed neighborhood with at least its follower
    weight remains usable, and the best completion is a max-leader-weight
    independent set among them (leader vertices join the action, follower
    vertices arrive through the reaction).  The reported reaction is
    recomputed from the winning action so the outcome is self-consistent.
    """
    if not len(graph):
        raise Infeasible("empty graph")
    bipartition(graph)
    best_value = None
    best_leader: frozenset[int] = frozenset()
    if graph.follower_ids:
        reaction = react_bottleneck(graph, frozenset(), _CS_DB_O)
        best_value = evaluate(Objective.SUM, Owner.LEADER, reaction, graph)
    for pivot in graph.leader_ids:
        floor = graph.item(pivot).wf
        closed = graph.adjacency[pivot] | {pivot}
        pool = [
            v
            for v in graph.ids
            if v not in closed and graph.item(v).wf >= floor
        ]
        value, chosen = mwis_by_owner(graph, pool, Owner.LEADER)
        value += graph.item(pivot).wl
        if best_value is None or value > best_value:
            best_value = value
            best_leader = frozenset({pivot}) | frozenset(
                v for v in chosen if graph.item(v).owner is Owner.LEADER
            )
    reaction = react_bottleneck(graph, best_leader, _CS_DB_O)
    return make_outcome(graph, _CS_DB_O, best_leader, reaction)


def solve_cs_db_p_bipartite(graph: BisGraph) -> BilevelOutcome:
    """Pessimistic sum/bottleneck on bipartite graphs: a nonempty action is
    never joined by the follower, so the leader plays her own best
    independent set or abstains and accepts the follower's spite pick."""
    bipartition(graph)
    action = None
    if graph.leader_ids:
        _, action = mwis_by_owner(
            graph, graph.leader_ids, Owner.LEADER, require_nonempty=True
        )
    return _alone_or_abstain(graph, _CS_DB_P, action)


def _view_key(mask: int, nonempty: bool, cap: float | None) -> tuple:
    """The key under which ``solve_enum_leader`` caches an action's answer:
    the bitmask of the followers adjacent to it, whether it is nonempty,
    and for a bottleneck follower its cap ``min wf``, else ``None``."""
    return mask, nonempty, cap


def solve_enum_leader(graph: BisGraph, variant: Variant) -> BilevelOutcome:
    """Best outcome over every feasible leader action, each answered by the
    follower oracle.  Exponential only in the number of leader vertices.

    A depth-first search visits the actions as sorted leader tuples in
    lexicographic order.  Its node ``(chosen, start)`` stands for the
    action ``chosen`` and every extension of it by compatible leaders at
    index ``start`` or later.  Each stack entry is the list of its node's
    state: ``start``; ``open``, the ``wl`` of the vertices that may still
    join the union; the bitmask of every vertex adjacent to ``chosen``;
    ``value``, which is ``wl(chosen)`` for a sum leader and ``min
    wl(chosen)`` for a bottleneck leader; and the cap ``min wf(chosen)``.
    The open vertices of a sum leader are the leaders from ``start`` on and
    the followers that ``chosen`` leaves free, except under ``cs-db-p``,
    where ``react_bottleneck`` answers every nonempty action with the empty
    set.  A bottleneck leader has ``open`` 0, since extending the action or
    adding a reaction only lowers the minimum.  So ``value + open`` bounds
    the leader's value over the node's subtree, and the search skips the
    subtree, at a pop or before a push, when that is at most the
    incumbent's value.  Under ``cs-db-p`` the root's bound leaves out the
    followers too, which is sound because the empty action is visited
    before the search starts, so every action a bound covers is nonempty.

    The output is that of visiting every action.  The incumbent changes
    only on a strictly larger value, so of equal values the first visited,
    the smallest leader tuple, wins, and a skipped action could at best tie
    and lose.  Nor can a skipped action hide an ``OracleUnavailable``: only
    a sum follower's oracle raises it, on an odd cycle among the followers
    an action leaves free, and the empty action, asked first and never
    skipped, leaves them all free.  The bound only falls as ``start``
    grows, so a node stops trying further leaders at the first index whose
    bound is beaten.  The search keeps an explicit stack, so a large action
    cannot exhaust the recursion limit.

    The oracle is asked once per *view* of an action, which determines its
    reaction: the followers it leaves free (a graph oracle's ground set),
    whether it is empty (the empty action needs a nonempty reaction) and,
    for a bottleneck follower, its cap (which free followers are
    eligible).  ``react``'s brute fallback (``cs-db-o`` only, since no
    other bottleneck-follower oracle needs an MWIS) ranks reactions by the
    minimum of the cap and their own ``wf``, then by ``wl(chosen)`` plus
    their own ``wl``, so it reads no more.  A view's answer, ``Infeasible``
    included, thus holds for every action with that view.  A push builds
    the child's entry from its parent's and the vertices it newly blocks,
    then visits the child's action, so an action costs O(deg v) beside the
    oracle's misses.  A pop drops the entry and its leader from ``chosen``.
    """
    leaders = graph.leader_ids
    adjacency = graph.adjacency
    adjacency_bits = graph.adjacency_bits
    wl, wf = graph.wl, graph.wf
    sum_leader = variant.leader_obj is Objective.SUM
    capped = variant.follower_obj is Objective.BOTTLENECK
    # Per vertex: a leader's index; a follower's is past every leader's if
    # its wl counts in ``open``, else -1.
    rank = [len(leaders) if variant != _CS_DB_P else -1] * len(graph)
    for k, v in enumerate(leaders):
        rank[v] = k
    follower_bits = sum(1 << v for v in graph.follower_ids)
    chosen: list[int] = []
    views: dict[tuple, tuple | None] = {}  # view -> (value, reaction) or None
    best: tuple | None = None
    best_value = -math.inf

    def visit(node: list) -> None:
        """Answer the action of ``node`` once per view (the view's entry is
        ``None`` if infeasible, else the reaction's ``wl`` sum or minimum and
        the sorted reaction) and keep it if it beats the incumbent."""
        nonlocal best, best_value
        key = _view_key(
            node[2] & follower_bits, bool(chosen), node[4] if capped else None
        )
        if key not in views:
            try:
                reaction = sorted(react(graph, frozenset(chosen), variant))
            except Infeasible:
                views[key] = None
            else:
                weights = [wl[u] for u in reaction]
                views[key] = (
                    sum(weights) if sum_leader
                    else min(weights, default=math.inf)
                ), tuple(reaction)
        view = views[key]
        if view is None:
            return
        value = node[3] + view[0] if sum_leader else min(node[3], view[0])
        if value > best_value:
            best = tuple(chosen), view[1]
            best_value = value

    open_ = sum(wl[v] for v in graph.ids if rank[v] >= 0) if sum_leader else 0
    root = [0, open_, 0, 0 if sum_leader else math.inf, math.inf]
    visit(root)
    stack = [root]
    while True:
        i, open_, blocked, value, cap = node = stack[-1]
        if i == len(leaders) or value + open_ <= best_value:
            if not chosen:
                break
            stack.pop()
            chosen.pop()
            continue
        v = leaders[i]
        node[0] = i + 1
        if blocked >> v & 1:
            continue
        w = wl[v]
        if sum_leader:
            node[1] = open_ = open_ - w  # the leaders from index i + 1 lack v
            value += w
            for u in adjacency[v]:
                if rank[u] > i and not blocked >> u & 1:
                    open_ -= wl[u]
        elif w < value:
            value = w
        if value + open_ <= best_value:
            continue
        chosen.append(v)
        child = [i + 1, open_, blocked | adjacency_bits[v], value,
                 wf[v] if wf[v] < cap else cap]
        stack.append(child)
        visit(child)
    if best is None:
        raise Infeasible("no feasible leader/follower pair exists")
    return make_outcome(graph, variant, *best)


def solve(graph: BisGraph, variant: Variant) -> BilevelOutcome:
    """Exact optimum from the cheapest solver that applies: ``cb-db-o`` on
    any graph, ``cs-db-o`` and ``cs-db-p`` on bipartite graphs, leader
    enumeration for everything else (those two variants included when the
    graph is not two-colorable)."""
    if variant == _CB_DB_O:
        return solve_cb_db_o(graph)
    try:
        if variant == _CS_DB_O:
            return solve_cs_db_o_bipartite(graph)
        if variant == _CS_DB_P:
            return solve_cs_db_p_bipartite(graph)
    except NotBipartite:
        pass
    return solve_enum_leader(graph, variant)


def verify_certificate(
    graph: BisGraph,
    variant: Variant,
    leader_set: Iterable[int],
    claimed_value: int,
) -> bool:
    """Check a leader action as a certificate: recompute the follower's
    optimal reaction and test whether the leader's value reaches the
    claim.  Infeasible or malformed actions verify as False (every oracle
    checks the action before it does any work)."""
    lset = frozenset(leader_set)
    try:
        reaction = react(graph, lset, variant)
    except (ValueError, Infeasible):
        return False
    value = evaluate(variant.leader_obj, Owner.LEADER, lset | reaction, graph)
    return value >= claimed_value
