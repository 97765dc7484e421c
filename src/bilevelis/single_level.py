"""Single-level subroutines.

Two exact maximizers over lexicographic weights: a dynamic program for
selecting pairwise-disjoint intervals, and a min-cut based maximum-weight
independent set solver for bipartite graphs.  Each is a set-only kernel
on integers, ``_take_or_skip`` or ``_min_cut_mwis``, fed ``_collapse`` of
the pairs by ``frank_dp`` and ``mwis_bipartite`` and integers built
directly by the other callers.  All are pure functions and reentrant.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from .core import BisGraph, CompositeWeight, IntervalInstance, Owner, weight_sum
from .errors import EmptyRestrict, NotBipartite


@dataclass(frozen=True)
class SortedIntervals:
    """Intervals arranged for the selection dynamic program.

    ``order`` lists interval ids by non-decreasing end point (ties broken
    by start, then id; equal-end intervals necessarily overlap, so the tie
    order is harmless).  Positions are 1-based; position 0 is a sentinel
    that ends before every real interval and carries zero weight.
    ``prev_disjoint[k]`` is the largest position below ``k`` whose interval
    ends at or before the start of interval ``k``, or 0 if none exists.
    """

    order: tuple[int, ...]
    prev_disjoint: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


def sort_and_index(
    instance: IntervalInstance, restrict: Iterable[int] | None = None
) -> SortedIntervals:
    """Sort the intervals (all of them, or those in ``restrict``) by end
    point and index each one's latest disjoint predecessor via binary
    search over the sorted end points."""
    if restrict is None:
        items = instance.intervals
    else:
        items = [instance.item(iid) for iid in set(restrict)]
    items = sorted(items, key=lambda iv: (iv.end, iv.start, iv.id))
    ends = [iv.end for iv in items]
    prev = [0]
    for k, iv in enumerate(items, start=1):
        prev.append(bisect.bisect_right(ends, iv.start, 0, k - 1))
    # A list, not a generator: CPython resizes a generator's tuple into a free
    # list it never draws from.  Every interval solve and follower reaction
    # calls this, so a process that serves many of them would fill them all.
    return SortedIntervals(tuple([iv.id for iv in items]), tuple(prev))


def _collapse(
    weight: Mapping[int, CompositeWeight], ids: Collection[int]
) -> dict[int, int]:
    """``weight`` over ``ids`` as ``primary * base + secondary`` with
    ``base = 1 + sum of |secondary|`` over ``ids``: two sums over subsets
    of ``ids`` differ in secondary by less than ``base``, so the integers
    order all such sums exactly as the pairs do, whatever the signs."""
    base = 1 + sum(abs(weight[v].secondary) for v in ids)
    return {v: weight[v].scaled(base) for v in ids}


def _take_or_skip(
    ordered: SortedIntervals, scaled: Mapping[int, int]
) -> frozenset[int]:
    """Maximum-weight set of pairwise-disjoint intervals among ``ordered``
    under the integer weights ``scaled``, by the classic take-or-skip
    recursion.  Deterministic: it skips on ties, so position ``k`` was
    taken exactly when its prefix optimum beats the one before."""
    order, prev = ordered.order, ordered.prev_disjoint
    best = [0]
    for k, iid in enumerate(order, start=1):
        with_k = best[prev[k]] + scaled[iid]
        best.append(with_k if with_k > best[-1] else best[-1])
    chosen, k = [], len(order)
    while k > 0:
        if best[k] > best[k - 1]:
            chosen.append(order[k - 1])
            k = prev[k]
        else:
            k -= 1
    return frozenset(chosen)


def frank_dp(
    instance: IntervalInstance,
    weight: Mapping[int, CompositeWeight],
    restrict: Iterable[int],
) -> tuple[CompositeWeight, frozenset[int]]:
    """Maximum-weight set of pairwise-disjoint intervals within ``restrict``,
    by ``_take_or_skip`` on the weights' ``_collapse``: the optimal value
    as a pair and one optimal set."""
    ordered = sort_and_index(instance, restrict)
    chosen = _take_or_skip(ordered, _collapse(weight, ordered.order))
    return weight_sum(weight[v] for v in chosen), chosen


def bipartition(
    graph: BisGraph, restrict: Iterable[int] | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Two-color the induced subgraph, raising ``NotBipartite`` on an odd
    cycle.  Returns the two color classes.

    Each connected component of the induced subgraph gets color 0 at its
    smallest vertex, so the first class always holds that vertex.  The
    minimum-cut independent set depends on which class feeds the source,
    so this orientation is part of the output contract of ``_min_cut_mwis``,
    which colors its own vertices.
    """
    nodes = set(graph.ids) if restrict is None else set(restrict)
    adjacency = graph.adjacency
    if not nodes <= adjacency.keys():
        for vid in nodes:
            graph.item(vid)  # raises UnknownId for the id that is no vertex
    color: dict[int, int] = {}
    sides: tuple[list[int], list[int]] = ([], [])
    for start in sorted(nodes):
        if start in color:
            continue
        color[start] = 0
        sides[0].append(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in nodes:
                    continue
                if v not in color:
                    color[v] = c = 1 - color[u]
                    sides[c].append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartite(
                        f"odd cycle through vertices {u} and {v}"
                    )
    return frozenset(sides[0]), frozenset(sides[1])


def is_bipartite(graph: BisGraph, restrict: Iterable[int] | None = None) -> bool:
    try:
        bipartition(graph, restrict)
        return True
    except NotBipartite:
        return False


class _MaxFlow:
    """Dinic's algorithm on integer capacities."""

    def __init__(self, n: int):
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def min_cut(self, s: int, t: int) -> set[int]:
        """Source side of the minimal minimum s-t cut.

        Each phase is a level search, then a blocking flow found by a
        depth-first search over the current-arc pointers ``it``, with the
        arcs of the current path on an explicit stack and a restart from
        ``s`` after each augmentation.  The level search that fails to reach
        ``t`` has marked exactly the nodes with a residual path from ``s``.
        """
        head, to, cap = self.head, self.to, self.cap
        while True:
            level = [-1] * len(head)
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for eid in head[u]:
                    v = to[eid]
                    if cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return {v for v, d in enumerate(level) if d >= 0}
            it = [0] * len(head)
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    got = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= got
                        cap[eid ^ 1] += got
                    path.clear()
                    u = s
                elif it[u] < len(head[u]):
                    eid = head[u][it[u]]
                    if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                        path.append(eid)
                        u = to[eid]
                    else:
                        it[u] += 1
                elif path:
                    # Dead end: retreat along the path's last arc and skip it.
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break


def _min_cut_mwis(
    graph: BisGraph, scaled: Mapping[int, int], require_nonempty: bool = False
) -> set[int]:
    """Maximum-weight independent set over the vertices of ``scaled``
    under those integer weights: the minimal minimum-cut one.

    Side A is the first class of ``bipartition`` over exactly these
    vertices, colored before any weight is read, so an unknown id or an
    odd cycle is reported first.  Vertices of non-positive weight never
    improve the optimum and are dropped.  The network sends the source to
    each kept side-A vertex and each kept side-B vertex to the sink, with
    the vertex weight as capacity, and has an unbounded arc from each kept
    side-A vertex to each kept neighbour.  The optimum is the total kept
    weight minus a minimum s-t cut.  The answer is read off the minimal
    minimum cut: the kept side-A vertices on its source side and the kept
    side-B vertices off it.  That cut is the set of nodes a residual path
    reaches from the source after any maximum flow, so neither the order
    of arcs nor the flow found changes the answer.  Which class is side A
    does: on one edge of equal weights the side-B end wins, so a coloring
    of a larger vertex set would change the answer.

    A kept vertex without a kept neighbour is in that read-out from
    either side (on side A its source arc carries no flow, on side B it
    is unreachable), so it joins the answer without entering the network.

    With ``require_nonempty`` an empty set of vertices raises
    ``EmptyRestrict``, and an empty optimum is replaced by the best single
    vertex, the smallest id among equals (when every weight is
    non-positive any optimal nonempty set is a single vertex).
    """
    side_a, _ = bipartition(graph, scaled)
    if require_nonempty and not scaled:
        raise EmptyRestrict("nonempty selection requested from empty set")
    adjacency = graph.adjacency
    keep = {v for v, w in scaled.items() if w > 0}
    chosen = set()
    index: dict[int, int] = {}
    for v in keep:
        if adjacency[v].isdisjoint(keep):
            chosen.add(v)
        else:
            index[v] = len(index)
    if index:
        source = len(index)
        sink = source + 1
        net = _MaxFlow(sink + 1)
        inf = 1 + sum(scaled[v] for v in index)
        for v, i in index.items():
            if v in side_a:
                net.add_edge(source, i, scaled[v])
                for u in adjacency[v]:
                    if u in index:
                        net.add_edge(i, index[u], inf)
            else:
                net.add_edge(i, sink, scaled[v])
        reach = net.min_cut(source, sink)
        chosen.update(
            v for v, i in index.items() if (v in side_a) == (i in reach)
        )
    if require_nonempty and not chosen:
        chosen.add(max(scaled, key=lambda v: (scaled[v], -v)))
    return chosen


def mwis_bipartite(
    graph: BisGraph,
    weight: Mapping[int, CompositeWeight],
    restrict: Iterable[int],
    require_nonempty: bool = False,
) -> tuple[CompositeWeight, frozenset[int]]:
    """Maximum-weight independent set of a bipartite induced subgraph.

    The weights over ``restrict``, the only ones read, are collapsed once
    by ``_collapse`` and handed to the min-cut kernel ``_min_cut_mwis``.
    With ``require_nonempty`` an empty optimum is replaced by the best
    single vertex.
    """
    nodes = {graph.item(v).id for v in restrict}  # UnknownId before any weight is read
    chosen = _min_cut_mwis(graph, _collapse(weight, nodes), require_nonempty)
    return weight_sum(weight[v] for v in chosen), frozenset(chosen)


def mwis_by_owner(
    graph: BisGraph,
    pool: Iterable[int],
    owner: Owner,
    require_nonempty: bool = False,
) -> tuple[int, frozenset[int]]:
    """``mwis_bipartite`` over ``pool`` weighted by one player's weights
    alone (``wl`` for the leader, ``wf`` for the follower), with the
    optimum returned as a plain integer.  The integer weights go to the
    kernel as they are."""
    if owner is Owner.LEADER:
        scaled = {v: graph.item(v).wl for v in pool}
    else:
        scaled = {v: graph.item(v).wf for v in pool}
    chosen = _min_cut_mwis(graph, scaled, require_nonempty)
    return sum(scaled[v] for v in chosen), frozenset(chosen)
