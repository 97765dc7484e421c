"""Exact solvers for bilevel independent set.

Three polynomial algorithms cover the tractable variants; a
leader-enumeration solver handles the rest wherever a follower oracle is
available, paying exponential time only in the number of leader vertices.
``solve`` is the one place that picks among them.
A certificate verifier mirrors the decision-problem check: recompute the
follower's reaction to a claimed leader action and compare values.
"""

from __future__ import annotations

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
    follower oracle.  Exponential only in the number of leader vertices."""
    leader_ids = list(graph.leader_ids)
    best: tuple | None = None

    def consider(leader_set: frozenset[int]) -> None:
        nonlocal best
        try:
            reaction = _oracle_reaction(graph, leader_set, variant)
        except Infeasible:
            return
        value = evaluate(
            variant.leader_obj, Owner.LEADER, leader_set | reaction, graph
        )
        cand = (value, tuple(sorted(leader_set)), tuple(sorted(reaction)))
        if best is None or cand[0] > best[0] or (
            cand[0] == best[0] and cand[1:] < best[1:]
        ):
            best = cand

    def extend(start: int, chosen: list[int]) -> None:
        consider(frozenset(chosen))
        for i in range(start, len(leader_ids)):
            v = leader_ids[i]
            if not any(u in graph.adjacency[v] for u in chosen):
                chosen.append(v)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
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
