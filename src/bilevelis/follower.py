"""Exact follower-reaction oracles.

Given a leader action, each oracle returns one optimal follower reaction
for its variant.  Reactions returned by different oracles (or by the brute
enumerator) may differ as sets, but both players' objective values of the
union are always identical.
"""

from __future__ import annotations

from typing import Iterable

from .brute import brute_follower
from .core import (
    BisGraph,
    CompositeWeight,
    Instance,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    check_leader_action,
)
from .errors import Infeasible, NotBipartite, OracleUnavailable
from . import single_level
from .single_level import _take_or_skip, mwis_by_owner, sort_and_index


def perturb(
    instance: Instance, setting: Setting
) -> dict[int, CompositeWeight]:
    """Tie-breaking weights: follower weight primary, leader weight as a
    signed secondary (positive when optimistic, negative when pessimistic).

    Maximizing these lexicographic weights maximizes the follower's sum
    first and then pushes the leader's sum in the direction the setting
    dictates, which is exactly the infinitesimal-epsilon weight update.
    """
    items = (
        instance.vertices if isinstance(instance, BisGraph)
        else instance.intervals
    )
    sign = 1 if setting is Setting.OPTIMISTIC else -1
    return {it.id: CompositeWeight(it.wf, sign * it.wl) for it in items}


def _tie_break(items: list, setting: Setting) -> tuple[int, dict[int, int]]:
    """``_collapse`` of ``perturb``'s pairs over ``items``, built as ints,
    with its base ``1 + wl(items)``: a sum of them reads its leader weight
    back as ``sign * total % base``."""
    sign = 1 if setting is Setting.OPTIMISTIC else -1
    base = 1 + sum(it.wl for it in items)
    return base, {it.id: it.wf * base + sign * it.wl for it in items}


def _best_intervals(
    instance: IntervalInstance, items: list, setting: Setting
) -> frozenset[int]:
    """The follower's tie-broken optimum among the intervals ``items``."""
    ordered = sort_and_index(instance, [it.id for it in items])
    return _take_or_skip(ordered, _tie_break(items, setting)[1])


def react_intervals(
    instance: IntervalInstance, leader_set: Iterable[int], setting: Setting
) -> frozenset[int]:
    """Follower reaction for interval instances under sum objectives.

    The follower solves interval selection over his intervals that avoid
    the leader's, with perturbed weights.  May be empty; intervals carry no
    nonemptiness constraint.
    """
    lset = frozenset(leader_set)
    check_leader_action(instance, lset)
    taken = [instance.by_id[i] for i in lset]
    free = [
        iv for iv in instance.intervals
        if iv.owner is Owner.FOLLOWER and not any(iv.overlaps(t) for t in taken)
    ]
    return _best_intervals(instance, free, setting)


def _free_followers(
    graph: BisGraph, leader_set: Iterable[int]
) -> tuple[frozenset[int], list[int]]:
    """Check a graph leader action; return it with the follower vertices
    not adjacent to it.  The empty action needs a nonempty joint solution,
    so it is infeasible when the graph has no follower vertices."""
    lset = frozenset(leader_set)
    check_leader_action(graph, lset)
    if not lset and not graph.follower_ids:
        raise Infeasible("empty leader action with no follower vertices")
    free = [
        v for v in graph.follower_ids
        if graph.adjacency[v].isdisjoint(lset)
    ]
    return lset, free


def react_sum_graph(
    graph: BisGraph, leader_set: Iterable[int], setting: Setting
) -> frozenset[int]:
    """Sum-objective follower on a graph: perturbed max-weight independent
    set over the follower vertices not adjacent to the leader's action.

    The free subgraph must be bipartite.  When the leader plays the empty
    action the joint solution must be nonempty, so the reaction is forced
    nonempty (infeasible if the graph has no follower vertices at all).
    """
    lset, free = _free_followers(graph, leader_set)
    if not free:
        return frozenset()
    _, scaled = _tie_break([graph.vertices[v] for v in free], setting)
    return frozenset(single_level._min_cut_mwis(graph, scaled, not lset))


def react_bottleneck(
    graph: BisGraph, leader_set: Iterable[int], variant: Variant
) -> frozenset[int]:
    """Closed-form reactions for a bottleneck-objective follower.

    With a nonempty leader action the follower's value is capped at the
    smallest follower-weight in the action, so every reaction drawn from
    non-adjacent vertices at or above that cap is optimal for him:

    * leader sum, optimistic: the max-leader-weight independent set among
      the eligible vertices (helps the leader as much as possible).
    * leader sum, pessimistic: the empty set (never helps).
    * leader bottleneck, optimistic: the empty set (cannot raise a min).
    * leader bottleneck, pessimistic: a single eligible vertex of minimum
      leader weight (drags the leader's min down as far as possible).

    With the empty leader action the cap is the top follower weight, so the
    eligible vertices are the max-follower-weight class, and the reaction
    must be nonempty: for (sum, optimistic) a max-leader-weight nonempty
    independent set of that class, otherwise a single vertex of it with the
    largest leader weight when optimistic, the smallest when pessimistic.
    """
    if variant.follower_obj is not Objective.BOTTLENECK:
        raise ValueError("react_bottleneck requires a bottleneck follower objective")
    lset, free = _free_followers(graph, leader_set)
    optimistic = variant.setting is Setting.OPTIMISTIC
    leader_sum = variant.leader_obj is Objective.SUM
    if lset:
        cap = min(graph.item(v).wf for v in lset)
    else:
        cap = max(graph.item(v).wf for v in graph.follower_ids)
    eligible = [v for v in free if graph.item(v).wf >= cap]
    if not eligible:
        return frozenset()
    if leader_sum and optimistic:
        _, chosen = mwis_by_owner(
            graph, eligible, Owner.LEADER, require_nonempty=not lset
        )
        return chosen
    if lset and (leader_sum or optimistic):
        return frozenset()
    if optimistic:
        return frozenset({max(eligible, key=lambda v: (graph.item(v).wl, -v))})
    return frozenset({min(eligible, key=lambda v: (graph.item(v).wl, v))})


def react_sum_graph_bottleneck(
    graph: BisGraph, leader_set: Iterable[int], setting: Setting
) -> frozenset[int]:
    """Sum-objective follower whose ties must be broken on the leader's
    bottleneck value (bipartite graphs).

    The epsilon perturbation does not apply here: among his maximum-sum
    reactions the follower must extremize the minimum leader weight, not
    the leader's sum.

    Optimistically that is the highest leader-weight threshold whose
    surviving vertices still admit a maximum-sum reaction.  The follower's
    optimum over the free vertices with ``wl >= threshold`` can only grow
    as the threshold falls, and at the lowest threshold it is the
    unrestricted optimum, so the thresholds that reach it are exactly those
    up to the answer.  A binary search over the sorted distinct thresholds
    finds it with a logarithmic number of independent-set computations;
    the reaction is the set computed at the winning threshold.  The empty
    action needs a nonempty reaction, so every computation is then forced
    nonempty, and if all free followers have ``wf`` 0 the top threshold's
    single vertex of the largest ``wl`` and the smallest id wins.

    Pessimistically it is the cheapest single vertex that some maximum-sum
    reaction contains, found by one independent-set computation per
    candidate in increasing leader weight.  Both stay polynomial.
    """
    lset, free = _free_followers(graph, leader_set)
    if not free:
        return frozenset()
    target, best = mwis_by_owner(
        graph, free, Owner.FOLLOWER, require_nonempty=not lset
    )
    wl = {v: graph.item(v).wl for v in free}

    if setting is Setting.OPTIMISTIC:
        # thresholds[lo] reaches the target (the lowest keeps every free
        # vertex, whose set is ``best``); thresholds[hi] does not, or is
        # past the end.
        thresholds = sorted(set(wl.values()))
        lo, hi = 0, len(thresholds)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            pool = [v for v in free if wl[v] >= thresholds[mid]]
            value, chosen = mwis_by_owner(
                graph, pool, Owner.FOLLOWER, require_nonempty=not lset
            )
            if value == target:
                lo, best = mid, chosen
            else:
                hi = mid
        return best

    for forced in sorted(free, key=lambda v: (wl[v], v)):
        rest = [
            v for v in free
            if v != forced and v not in graph.adjacency[forced]
        ]
        value, chosen = mwis_by_owner(graph, rest, Owner.FOLLOWER)
        if value + graph.item(forced).wf == target:
            return chosen | {forced}
    raise AssertionError("some maximum-sum reaction must contain a vertex")


def react(
    instance: Instance, leader_set: Iterable[int], variant: Variant
) -> frozenset[int]:
    """Dispatch to the reaction oracle matching the variant and instance.

    An odd cycle in an optimistic sum-objective leader's eligible pool is
    answered by ``brute_follower``, capped only by the graph's size.  Raises
    ``OracleUnavailable`` for a sum-objective follower on a non-two-colorable
    free subgraph, or for bottleneck objectives on intervals.
    """
    if isinstance(instance, IntervalInstance):
        if (
            variant.follower_obj is Objective.SUM
            and variant.leader_obj is Objective.SUM
        ):
            return react_intervals(instance, leader_set, variant.setting)
        raise OracleUnavailable(f"no interval oracle for variant {variant.code}")
    lset = frozenset(leader_set)  # read again by the fallback
    try:
        if variant.follower_obj is Objective.BOTTLENECK:
            return react_bottleneck(instance, lset, variant)
        if variant.leader_obj is Objective.SUM:
            return react_sum_graph(instance, lset, variant.setting)
        return react_sum_graph_bottleneck(instance, lset, variant.setting)
    except NotBipartite as exc:
        if variant.follower_obj is Objective.BOTTLENECK:
            return brute_follower(instance, lset, variant, cap=len(instance))
        raise OracleUnavailable(
            f"variant {variant.code} needs a two-colorable subgraph: {exc}"
        ) from exc
