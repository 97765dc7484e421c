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
from .errors import Infeasible, NotBipartite, OracleUnavailable
from .brute import brute_follower
from .follower import react, react_bottleneck
from .single_level import bipartition, mwis_by_owner

_CB_DB_O = Variant(Objective.BOTTLENECK, Objective.BOTTLENECK, Setting.OPTIMISTIC)
_CS_DB_O = Variant(Objective.SUM, Objective.BOTTLENECK, Setting.OPTIMISTIC)
_CS_DB_P = Variant(Objective.SUM, Objective.BOTTLENECK, Setting.PESSIMISTIC)


def solve_cb_db_o(graph: BisGraph) -> BilevelOutcome:
    """Optimistic bottleneck/bottleneck: the follower never plays against
    a nonempty action, so the leader compares her best single vertex with
    what the follower would pick if she abstains."""
    if not len(graph):
        raise Infeasible("empty graph")
    candidates: list[BilevelOutcome] = []
    if graph.leader_ids:
        best = max(graph.leader_ids, key=lambda v: (graph.item(v).wl, -v))
        candidates.append(make_outcome(graph, _CB_DB_O, {best}, frozenset()))
    if graph.follower_ids:
        reaction = react_bottleneck(graph, frozenset(), _CB_DB_O)
        candidates.append(make_outcome(graph, _CB_DB_O, frozenset(), reaction))
    return max(candidates, key=lambda o: o.leader_value)


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
        best_leader = frozenset()
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
    if not len(graph):
        raise Infeasible("empty graph")
    bipartition(graph)
    candidates: list[BilevelOutcome] = []
    if graph.leader_ids:
        _, chosen = mwis_by_owner(
            graph, graph.leader_ids, Owner.LEADER, require_nonempty=True
        )
        candidates.append(make_outcome(graph, _CS_DB_P, chosen, frozenset()))
    if graph.follower_ids:
        reaction = react_bottleneck(graph, frozenset(), _CS_DB_P)
        candidates.append(make_outcome(graph, _CS_DB_P, frozenset(), reaction))
    return max(candidates, key=lambda o: o.leader_value)


def _oracle_reaction(
    graph: BisGraph, leader_set: frozenset[int], variant: Variant
) -> frozenset[int]:
    """The polynomial oracle where it applies, the brute enumerator where
    only a bottleneck-objective follower is left without one (a
    sum-objective leader may need a max-weight independent set on a
    non-two-colorable eligible subgraph)."""
    try:
        return react(graph, leader_set, variant)
    except OracleUnavailable:
        if variant.follower_obj is Objective.BOTTLENECK:
            return brute_follower(
                graph, leader_set, variant, cap=len(graph.vertices)
            )
        raise


def solve_enum_leader(graph: BisGraph, variant: Variant) -> BilevelOutcome:
    """Best outcome over every feasible leader action, each answered by the
    follower oracle.  Exponential only in the number of leader vertices.

    A depth-first search visits the actions as sorted leader tuples in
    lexicographic order.  Its node ``(chosen, start)`` stands for the
    action ``chosen`` and every extension of it by compatible leaders at
    index ``start`` or later.  The search skips a node, and its whole
    subtree, when an upper bound on the leader's value over the subtree is
    at most the incumbent's value:

    * sum leader: ``wl(chosen)``, plus ``wl`` of the leaders at index
      ``start`` or later that are not adjacent to ``chosen``, plus ``wl``
      of the followers not adjacent to ``chosen``, from which every
      reaction is drawn.  Under ``cs-db-p`` the follower term is dropped
      once ``chosen`` is nonempty, since ``react_bottleneck`` answers every
      nonempty action with the empty set;
    * bottleneck leader, ``chosen`` nonempty: ``min wl(chosen)``, because
      extending the action or adding a reaction only lowers the minimum.

    The output is that of visiting every action.  The incumbent changes
    only on a strictly larger value, or on an equal value with a smaller
    (leader tuple, reaction tuple), and every action the search reaches
    later has a larger leader tuple; so a skipped action could at best tie
    and lose.  Nor can a skipped action hide an ``OracleUnavailable``:
    only a sum follower's oracle raises it, on an odd cycle among the
    followers an action leaves free, and the empty action, asked first and
    never skipped, leaves them all free.  The bound only falls as ``start``
    grows, so a node stops trying further leaders at the first index whose
    bound is beaten.  The search keeps an explicit stack, so a large action
    cannot exhaust the recursion limit.
    """
    leaders = graph.leader_ids
    wl = [v.wl for v in graph.vertices]
    sum_leader = variant.leader_obj is Objective.SUM
    chosen: list[int] = []
    blocked = [0] * len(graph)  # per vertex: its neighbors in `chosen`
    best: tuple | None = None

    def consider() -> None:
        nonlocal best
        leader_set = frozenset(chosen)
        try:
            reaction = _oracle_reaction(graph, leader_set, variant)
        except Infeasible:
            return
        value = evaluate(
            variant.leader_obj, Owner.LEADER, leader_set | reaction, graph
        )
        cand = (value, tuple(chosen), tuple(sorted(reaction)))
        if best is None or cand[0] > best[0] or (
            cand[0] == best[0] and cand[1:] < best[1:]
        ):
            best = cand

    def bound(start: int) -> float:
        """The upper bound of the node (``chosen``, ``start``)."""
        if not sum_leader:
            return min((wl[v] for v in chosen), default=math.inf)
        free = leaders[start:]
        if not chosen or variant != _CS_DB_P:
            free += graph.follower_ids
        return sum(wl[v] for v in chosen) + sum(
            wl[u] for u in free if not blocked[u]
        )

    def beaten(limit: float) -> bool:
        return best is not None and limit <= best[0]

    def push(v: int) -> None:
        chosen.append(v)
        for u in graph.adjacency[v]:
            blocked[u] += 1

    def pop() -> None:
        for u in graph.adjacency[chosen.pop()]:
            blocked[u] -= 1

    consider()
    stack = [[0, bound(0)]]  # per node on the path: next index, its bound
    while stack:
        frame = stack[-1]
        i, limit = frame
        if i == len(leaders) or beaten(limit):
            stack.pop()
            if stack:
                pop()
            continue
        v = leaders[i]
        frame[0] = i + 1
        if blocked[v]:
            continue
        if sum_leader:
            frame[1] -= wl[v]  # the bound from index i + 1 lacks v
        push(v)
        limit = bound(i + 1)
        if beaten(limit):
            pop()
            continue
        consider()
        stack.append([i + 1, limit])
    if best is None:
        raise Infeasible("no feasible leader/follower pair exists")
    return make_outcome(graph, variant, best[1], best[2])


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
        reaction = _oracle_reaction(graph, lset, variant)
    except (ValueError, Infeasible):
        return False
    value = evaluate(variant.leader_obj, Owner.LEADER, lset | reaction, graph)
    return value >= claimed_value
