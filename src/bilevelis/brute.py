"""Exhaustive ground-truth oracles.

Every routine enumerates its full feasible space; the only liberties taken
are bitmask conflict tests and running objective values, which keep the
enumeration affordable without pruning any candidate.  Caps are explicit
parameters so oversized inputs fail loudly instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    BilevelOutcome,
    BisGraph,
    Instance,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    check_leader_action,
    make_outcome,
)
from .errors import CapExceeded, Infeasible, UnknownId
from .reductions import B2cnfFormula

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


@dataclass
class _Ground:
    """Items flattened to positions with bitmask conflict sets."""

    ids: list[int]
    pos: dict[int, int]
    conflict: list[int]
    wl: list[int]
    wf: list[int]
    leader_positions: list[int]
    follower_positions: list[int]

    @classmethod
    def build(cls, instance: Instance) -> "_Ground":
        if isinstance(instance, BisGraph):
            items = list(instance.vertices)
        else:
            items = sorted(instance.intervals, key=lambda iv: iv.id)
        ids = [it.id for it in items]
        pos = {iid: p for p, iid in enumerate(ids)}
        conflict = [0] * len(items)
        if isinstance(instance, BisGraph):
            for u, v in instance.edges:
                conflict[pos[u]] |= 1 << pos[v]
                conflict[pos[v]] |= 1 << pos[u]
        else:
            for a, b in combinations(range(len(items)), 2):
                if items[a].overlaps(items[b]):
                    conflict[a] |= 1 << b
                    conflict[b] |= 1 << a
        return cls(
            ids=ids,
            pos=pos,
            conflict=conflict,
            wl=[it.wl for it in items],
            wf=[it.wf for it in items],
            leader_positions=[
                p for p, it in enumerate(items) if it.owner is Owner.LEADER
            ],
            follower_positions=[
                p for p, it in enumerate(items) if it.owner is Owner.FOLLOWER
            ],
        )

    def ids_of(self, mask: int) -> tuple[int, ...]:
        return tuple(self.ids[p] for p in range(len(self.ids)) if mask >> p & 1)

    def mask_of(self, ids: Iterable[int]) -> int:
        mask = 0
        for iid in ids:
            if iid not in self.pos:
                raise UnknownId(f"no item with id {iid}")
            mask |= 1 << self.pos[iid]
        return mask


def _best_reaction(
    ground: _Ground,
    leader_mask: int,
    variant: Variant,
    require_nonempty: bool,
) -> tuple | None:
    """Enumerate every follower reaction compatible with the leader mask.

    Returns ``(d, c, mask)`` of the follower-optimal reaction, where ties
    on the follower value are broken on the leader value per the setting
    and remaining ties on the smallest id tuple.  ``None`` when no
    admissible reaction exists.  Bottleneck values over an empty union are
    treated as +infinity (the minimum over nothing beats everything).
    """
    d_sum = variant.follower_obj is Objective.SUM
    c_sum = variant.leader_obj is Objective.SUM
    optimistic = variant.setting is Setting.OPTIMISTIC
    wl, wf, conflict = ground.wl, ground.wf, ground.conflict

    lead = [p for p in range(len(ground.ids)) if leader_mask >> p & 1]
    d0 = sum(wf[p] for p in lead) if d_sum else min(
        (wf[p] for p in lead), default=math.inf
    )
    c0 = sum(wl[p] for p in lead) if c_sum else min(
        (wl[p] for p in lead), default=math.inf
    )
    free = [
        p for p in ground.follower_positions if not conflict[p] & leader_mask
    ]

    best: list = [None]

    def consider(d_val, c_val, mask):
        if require_nonempty and not mask and not leader_mask:
            return
        inc = best[0]
        if inc is None:
            best[0] = (d_val, c_val, mask)
            return
        if d_val != inc[0]:
            if d_val > inc[0]:
                best[0] = (d_val, c_val, mask)
            return
        if c_val != inc[1]:
            if (c_val > inc[1]) if optimistic else (c_val < inc[1]):
                best[0] = (d_val, c_val, mask)
            return
        if ground.ids_of(mask) < ground.ids_of(inc[2]):
            best[0] = (d_val, c_val, mask)

    def visit(idx, mask, d_val, c_val):
        if idx == len(free):
            consider(d_val, c_val, mask)
            return
        visit(idx + 1, mask, d_val, c_val)
        p = free[idx]
        if not conflict[p] & mask:
            nd = d_val + wf[p] if d_sum else min(d_val, wf[p])
            nc = c_val + wl[p] if c_sum else min(c_val, wl[p])
            visit(idx + 1, mask | 1 << p, nd, nc)

    visit(0, 0, d0, c0)
    return best[0]


def brute_follower(
    instance: Instance,
    leader_set: Iterable[int],
    variant: Variant,
    cap: int = FOLLOWER_CAP,
) -> frozenset[int]:
    """Follower-optimal reaction by full enumeration.

    Maximizes the follower's objective over all feasible completions,
    breaking ties on the leader's value (their way round per the setting)
    and finally on the smallest id tuple.  Graph instances forbid an empty
    union, so the empty leader action must be answered nonempty.
    """
    lset = frozenset(leader_set)
    _check_cap(len(instance.follower_ids), cap, "follower items")
    check_leader_action(instance, lset)
    ground = _Ground.build(instance)
    lmask = ground.mask_of(lset)
    nonempty = isinstance(instance, BisGraph)
    best = _best_reaction(ground, lmask, variant, require_nonempty=nonempty)
    if best is None:
        raise Infeasible("the follower has no admissible reaction")
    return frozenset(ground.ids_of(best[2]))


def _enumerate_leader(ground: _Ground):
    """Yield every mask of a pairwise-compatible leader subset."""
    lead = ground.leader_positions
    conflict = ground.conflict

    def extend(start: int, mask: int):
        yield mask
        for i in range(start, len(lead)):
            p = lead[i]
            if not conflict[p] & mask:
                yield from extend(i + 1, mask | 1 << p)

    yield from extend(0, 0)


def _optimum(
    instance: Instance, variant: Variant, require_nonempty: bool
) -> BilevelOutcome:
    """Best leader value over every leader action answered by its
    follower-optimal reaction; ties go to the smallest (leader ids,
    follower ids) pair."""
    ground = _Ground.build(instance)
    best = None  # (c, d, leader ids, follower ids)
    for lmask in _enumerate_leader(ground):
        reaction = _best_reaction(ground, lmask, variant, require_nonempty)
        if reaction is None:
            continue
        d_val, c_val, fmask = reaction
        cand = (c_val, d_val, ground.ids_of(lmask), ground.ids_of(fmask))
        if (
            best is None
            or cand[0] > best[0]
            or (cand[0] == best[0] and cand[2:] < best[2:])
        ):
            best = cand
    if best is None:
        raise Infeasible("no feasible leader/follower pair exists")
    return make_outcome(instance, variant, best[2], best[3])


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
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge {(u, v)}")
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
