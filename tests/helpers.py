"""Shared test utilities: reference implementations and enumerators.

Everything here is deliberately independent of the package's own search
code: subsets come from itertools, optima from plain max() over fully
materialized candidate lists.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations, combinations_with_replacement

from bilevelis.core import (
    BilevelOutcome,
    BisGraph,
    CompositeWeight,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    Vertex,
    evaluate,
    intervals_pairwise_disjoint,
    is_independent,
    make_outcome,
    weight_sum,
)
from bilevelis.errors import EmptyRestrict, Infeasible, NotBipartite
from bilevelis.follower import _free_followers, react
from bilevelis.interval_dp import DpTables, follower_block
from bilevelis.reductions import B2cnfFormula, Literal
from bilevelis.single_level import _MaxFlow, sort_and_index


_OBJ_CODES = {"s": Objective.SUM, "b": Objective.BOTTLENECK}
_SETTING_CODES = {"o": Setting.OPTIMISTIC, "p": Setting.PESSIMISTIC}


def reference_variant_from_code(code: str) -> Variant:
    """The hand-written variant-code grammar: ``c{s|b}-d{s|b}-{o|p}``
    after lower-casing."""
    parts = code.lower().split("-")
    if (
        len(parts) != 3
        or parts[0][:1] != "c"
        or parts[1][:1] != "d"
        or parts[0][1:] not in _OBJ_CODES
        or parts[1][1:] not in _OBJ_CODES
        or parts[2] not in _SETTING_CODES
    ):
        raise ValueError(f"bad variant code: {code!r}")
    return Variant(
        _OBJ_CODES[parts[0][1:]],
        _OBJ_CODES[parts[1][1:]],
        _SETTING_CODES[parts[2]],
    )


def powerset(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


def reference_best_disjoint(instance: IntervalInstance, weight, restrict):
    """Brute-force maximizer over all pairwise-disjoint subsets."""
    best_val, best_set = CompositeWeight.ZERO, frozenset()
    for subset in powerset(restrict):
        if not intervals_pairwise_disjoint(instance, subset):
            continue
        val = weight_sum(weight[i] for i in subset)
        if val > best_val:
            best_val, best_set = val, subset
    return best_val, best_set


def reference_mwis(graph: BisGraph, weight, restrict):
    """Brute-force maximizer over all independent subsets."""
    best_val, best_set = CompositeWeight.ZERO, frozenset()
    for subset in powerset(restrict):
        if not is_independent(graph, subset):
            continue
        val = weight_sum(weight[v] for v in subset)
        if val > best_val:
            best_val, best_set = val, subset
    return best_val, best_set


def _union_value(instance, obj: Objective, role: Owner, union) -> float:
    """``evaluate``, except that a bottleneck over nothing is +infinity."""
    if not union and obj is Objective.BOTTLENECK:
        return math.inf
    return evaluate(obj, role, union, instance)


def _feasible(instance, selection) -> bool:
    if isinstance(instance, BisGraph):
        return is_independent(instance, selection)
    return intervals_pairwise_disjoint(instance, selection)


def reference_reaction(instance, action, variant: Variant, require_nonempty):
    """Smallest sorted id tuple among the follower-optimal reactions to
    ``action``: the largest follower value, then the leader value per the
    setting.  ``None`` when no reaction is admissible."""
    sign = 1 if variant.setting is Setting.OPTIMISTIC else -1
    keyed = []
    for reaction in powerset(instance.follower_ids):
        union = action | reaction
        if _feasible(instance, union) and (union or not require_nonempty):
            d = _union_value(instance, variant.follower_obj, Owner.FOLLOWER, union)
            c = _union_value(instance, variant.leader_obj, Owner.LEADER, union)
            keyed.append(((d, sign * c), tuple(sorted(reaction))))
    if not keyed:
        return None
    top = max(key for key, _ in keyed)
    return min(ids for key, ids in keyed if key == top)


def reference_optimum(instance, variant: Variant, require_nonempty):
    """Smallest ``(leader ids, follower ids)`` pair among the leader-optimal
    ones, each feasible leader action answered by ``reference_reaction``.
    ``None`` when no pair is feasible."""
    pairs = []
    for action in powerset(instance.leader_ids):
        if not _feasible(instance, action):
            continue
        reaction = reference_reaction(instance, action, variant, require_nonempty)
        if reaction is not None:
            union = action | set(reaction)
            value = _union_value(instance, variant.leader_obj, Owner.LEADER, union)
            pairs.append((value, tuple(sorted(action)), reaction))
    if not pairs:
        return None
    top = max(value for value, _, _ in pairs)
    return min(pair[1:] for pair in pairs if pair[0] == top)


def deep_follower_path(n: int) -> BisGraph:
    """Follower path ``n-1, 0, 1, ..., n-2`` (``wf=1``, ``wl=0``).  For
    even ``n`` the first path vertex having the largest id makes one
    augmenting path of ``mwis_bipartite``'s max flow run through every
    vertex."""
    return BisGraph(
        tuple(Vertex(i, Owner.FOLLOWER, 0, 1) for i in range(n)),
        ((n - 1, 0),) + tuple((i, i + 1) for i in range(n - 2)),
    )


def random_leader_action(rng: random.Random, instance) -> frozenset[int]:
    """A random feasible leader action (independent / pairwise disjoint)."""
    chosen: list[int] = []
    ids = list(instance.leader_ids)
    rng.shuffle(ids)
    for candidate in ids:
        if rng.random() < 0.5:
            continue
        if isinstance(instance, BisGraph):
            ok = not any(u in instance.adjacency[candidate] for u in chosen)
        else:
            item = instance.by_id[candidate]
            ok = not any(item.overlaps(instance.by_id[u]) for u in chosen)
        if ok:
            chosen.append(candidate)
    return frozenset(chosen)


def reference_gen_random_graph(
    n: int, edge_prob: float, leader_fraction: float, max_weight: int,
    bipartite: bool = False, seed: int = 0,
) -> BisGraph:
    """The list-building reference for ``gen_random_graph``: the same
    draws, but every candidate pair is listed before any edge is drawn."""
    rng = random.Random(seed)
    vertices = []
    for v in range(n):
        owner = Owner.LEADER if rng.random() < leader_fraction else Owner.FOLLOWER
        wl = rng.randint(0, max_weight)
        wf = rng.randint(0, max_weight)
        vertices.append(Vertex(v, owner, wl, wf))
    pairs = list(combinations(range(n), 2))
    if bipartite:
        order = list(range(n))
        rng.shuffle(order)
        side = {v: i < (n + 1) // 2 for i, v in enumerate(order)}
        pairs = [(u, v) for u, v in pairs if side[u] != side[v]]
    edges = [p for p in pairs if rng.random() < edge_prob]
    return BisGraph(tuple(vertices), tuple(edges))


def connected_graphs_up_to_iso(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """All connected simple graphs with at most ``max_n`` vertices, one
    representative per isomorphism class (canonicalized by minimizing the
    relabeled edge set over all vertex permutations)."""
    from itertools import permutations

    out: list[tuple[int, list[tuple[int, int]]]] = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if not _connected(n, edges):
                continue
            canon = min(
                tuple(
                    sorted(
                        (min(p[u], p[v]), max(p[u], p[v])) for u, v in edges
                    )
                )
                for p in permutations(range(n))
            )
            if canon not in seen:
                seen.add(canon)
                out.append((n, list(canon)))
    return out


def _connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def all_small_b2cnf(max_clauses: int) -> list[B2cnfFormula]:
    """Every formula over x1, y1 with up to ``max_clauses`` clauses, where
    a clause is a multiset of three of the four possible literals."""
    literals = [
        Literal("X", 1, False),
        Literal("X", 1, True),
        Literal("Y", 1, False),
        Literal("Y", 1, True),
    ]
    clause_patterns = list(combinations_with_replacement(literals, 3))
    formulas = []
    for m in range(1, max_clauses + 1):
        for clause_mix in combinations_with_replacement(clause_patterns, m):
            formulas.append(B2cnfFormula(1, 1, tuple(clause_mix)))
    return formulas


def reference_compute_tables(instance: IntervalInstance, setting) -> DpTables:
    """The all-pairs interval DP: one ``follower_block`` call, i.e. one
    ``_tie_break`` and one ``_take_or_skip``, per (leader position, follower
    position) pair.  The slow reference for ``compute_tables``."""
    ordered = sort_and_index(instance)
    tables = DpTables(sorted_intervals=ordered)
    n = len(ordered)
    opt = [0] * (n + 1)
    prev = ordered.prev_disjoint
    leader_positions: list[int] = []

    for k in range(1, n + 1):
        interval = instance.by_id[ordered.order[k - 1]]
        if interval.owner is Owner.LEADER:
            take = interval.wl + opt[prev[k]]
            if take > opt[k - 1]:
                opt[k] = take
                tables.choice[k] = ("take",)
            else:
                opt[k] = opt[k - 1]
                tables.choice[k] = ("skip",)
            leader_positions.append(k)
        else:
            best, best_j = None, None
            for j in [0, *leader_positions]:
                wl_j = 0 if j == 0 else instance.by_id[ordered.order[j - 1]].wl
                block_wl, _ = follower_block(instance, ordered, j, k, setting)
                tables.sol_leader_weight[(j, k)] = block_wl
                value = opt[prev[j]] + wl_j + block_wl
                if best is None or value > best:
                    best, best_j = value, j
            opt[k] = best
            tables.choice[k] = ("block", best_j)
    tables.opt = opt
    return tables


def reference_solve_enum_leader(graph: BisGraph, variant: Variant) -> BilevelOutcome:
    """Best outcome over every feasible leader action, each answered by the
    follower oracle.  Exponential only in the number of leader vertices.
    The unpruned slow reference for ``solve_enum_leader``."""
    leader_ids = list(graph.leader_ids)
    best: tuple | None = None

    def consider(leader_set: frozenset[int]) -> None:
        nonlocal best
        try:
            reaction = react(graph, leader_set, variant)
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


# The min-cut path as it was before the integer kernel and the binary
# threshold search, kept as the slow reference for both: every call colors
# its own induced subgraph, builds CompositeWeight dicts and scans all
# edges; the optimistic bottleneck reaction scans thresholds from the top.


def reference_bipartition(graph: BisGraph, restrict=None):
    nodes = set(graph.ids) if restrict is None else set(restrict)
    for vid in nodes:
        graph.item(vid)
    color: dict[int, int] = {}
    for start in sorted(nodes):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in nodes:
                    continue
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartite(
                        f"odd cycle through vertices {u} and {v}"
                    )
    sides = ({v for v, c in color.items() if c == 0},
             {v for v, c in color.items() if c == 1})
    return frozenset(sides[0]), frozenset(sides[1])


def reference_mwis_bipartite(graph: BisGraph, weight, restrict,
                             require_nonempty: bool = False):
    nodes = set(restrict)
    if require_nonempty and not nodes:
        raise EmptyRestrict("nonempty selection requested from empty set")
    side_a, side_b = reference_bipartition(graph, nodes)

    base = 1 + sum(abs(weight[v].secondary) for v in nodes)
    scaled = {v: weight[v].scaled(base) for v in nodes}
    keep = {v for v in nodes if scaled[v] > 0}

    index = {v: i for i, v in enumerate(sorted(keep))}
    source = len(index)
    sink = source + 1
    net = _MaxFlow(sink + 1)
    inf = 1 + sum(scaled[v] for v in keep)
    for v in sorted(keep):
        if v in side_a:
            net.add_edge(source, index[v], scaled[v])
        else:
            net.add_edge(index[v], sink, scaled[v])
    for u, v in graph.edges:
        if u in keep and v in keep:
            a, b = (u, v) if u in side_a else (v, u)
            net.add_edge(index[a], index[b], inf)
    reach = net.min_cut(source, sink)
    chosen = {v for v in keep if (v in side_a) == (index[v] in reach)}

    if require_nonempty and not chosen:
        best = max(nodes, key=lambda v: (weight[v], -v))
        chosen = {best}
    return weight_sum(weight[v] for v in chosen), frozenset(chosen)


def reference_mwis_by_owner(graph: BisGraph, pool, owner: Owner,
                            require_nonempty: bool = False):
    pool = list(pool)
    if owner is Owner.LEADER:
        weights = {v: CompositeWeight(graph.item(v).wl, 0) for v in pool}
    else:
        weights = {v: CompositeWeight(graph.item(v).wf, 0) for v in pool}
    value, chosen = reference_mwis_bipartite(graph, weights, pool, require_nonempty)
    return value.primary, chosen


def reference_react_sum_graph_bottleneck(graph: BisGraph, leader_set,
                                         setting: Setting) -> frozenset[int]:
    lset, free = _free_followers(graph, leader_set)
    if not free:
        return frozenset()
    target, _ = reference_mwis_by_owner(graph, free, Owner.FOLLOWER)
    wl = {v: graph.item(v).wl for v in free}

    if target == 0 and not lset and setting is Setting.OPTIMISTIC:
        return frozenset({max(free, key=lambda v: (wl[v], -v))})

    if setting is Setting.OPTIMISTIC:
        for threshold in sorted(set(wl.values()), reverse=True):
            pool = [v for v in free if wl[v] >= threshold]
            value, chosen = reference_mwis_by_owner(graph, pool, Owner.FOLLOWER)
            if value == target:
                return chosen
        raise AssertionError("threshold scan must hit the unrestricted optimum")

    for forced in sorted(free, key=lambda v: (wl[v], v)):
        rest = [
            v for v in free
            if v != forced and v not in graph.adjacency[forced]
        ]
        value, chosen = reference_mwis_by_owner(graph, rest, Owner.FOLLOWER)
        if value + graph.item(forced).wf == target:
            return chosen | {forced}
    raise AssertionError("some maximum-sum reaction must contain a vertex")


# The interval selection DP as it was before it ran on collapsed integers:
# take-or-skip over CompositeWeight pairs with a ``take`` array.  The slow
# reference for ``frank_dp``.


def reference_frank_dp(
    instance: IntervalInstance,
    weight,
    restrict,
) -> tuple[CompositeWeight, frozenset[int]]:
    ordered = sort_and_index(instance, restrict)
    order, prev = ordered.order, ordered.prev_disjoint
    n = len(order)
    best = [CompositeWeight.ZERO] * (n + 1)
    take = [False] * (n + 1)
    for k in range(1, n + 1):
        with_k = best[prev[k]] + weight[order[k - 1]]
        if with_k > best[k - 1]:
            best[k] = with_k
            take[k] = True
        else:
            best[k] = best[k - 1]
    chosen = []
    k = n
    while k > 0:
        if take[k]:
            chosen.append(order[k - 1])
            k = prev[k]
        else:
            k -= 1
    return best[n], frozenset(chosen)
