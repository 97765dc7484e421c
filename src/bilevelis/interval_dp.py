"""Exact solver for bilevel interval selection under sum objectives.

A prefix dynamic program over the end-sorted intervals.  For a prefix
ending in a leader interval the usual take-or-skip recursion applies.  For
a prefix ending in a follower interval, the optimum is decomposed at the
last leader interval of the joint solution: everything before that
interval's latest disjoint predecessor is a smaller prefix of the same
problem, and the follower fills the region after it with his own optimal
selection, which the leader cannot influence.

For a fixed last leader position ``j`` the follower's windows for the
later positions ``k`` are the prefixes of one end-sorted list, so a single
take-or-skip pass per ``j`` on scaled integers prices every block ``(j, k)``
at once.  The tables take one left-to-right sweep with ``n_L + 1`` such
passes: O(n_L * n log n) <= O(n^2 log n) time and O(n) extra memory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .core import (
    BilevelOutcome,
    IntervalInstance,
    Owner,
    Setting,
    Variant,
    Objective,
    make_outcome,
)
from .errors import CorruptTables, IndexOutOfRange
from .follower import _best_intervals, _tie_break, react_intervals
from .single_level import SortedIntervals, sort_and_index


@dataclass
class DpTables:
    """Prefix optima plus the records needed to rebuild a witness.

    ``opt[k]`` is the leader's optimal value on the first ``k`` intervals
    in end order.  ``choice[k]`` records how it was reached: ``("take",)``
    or ``("skip",)`` for a leader interval, ``("block", j)`` for a follower
    interval where ``j`` is the position of the last leader interval used
    (0 for none).  ``sol_leader_weight`` holds, for each follower position
    ``k``, the leader weight of the follower's optimal block under the
    chosen ``j``, keyed by that ``(j, k)`` pair.

    ``opt`` need not be monotone: extending the prefix by a follower
    interval can reshuffle the follower's selection against the leader.
    """

    sorted_intervals: SortedIntervals
    opt: list[int] = field(default_factory=list)
    choice: dict[int, tuple] = field(default_factory=dict)
    sol_leader_weight: dict[tuple[int, int], int] = field(default_factory=dict)


def follower_block(
    instance: IntervalInstance,
    ordered: SortedIntervals,
    j: int,
    k: int,
    setting: Setting,
) -> tuple[int, frozenset[int]]:
    """The follower's optimal selection in the window after position ``j``.

    Candidates are the follower intervals at positions ``j+1..k`` that do
    not meet interval ``j`` (every candidate ends at or after interval
    ``j`` does, so disjointness reduces to starting at or after its end;
    ``j = 0`` is the sentinel and excludes nothing).  Returns the block's
    total leader weight and the block itself, computed with tie-break
    weights so ties already respect the setting.  ``compute_tables`` gets
    the same leader weights from its prefix passes; this is their
    independent reference.
    """
    n = len(ordered)
    if not (0 <= j < k <= n):
        raise IndexOutOfRange(f"need 0 <= j < k <= {n}, got j={j}, k={k}")
    if j > 0 and instance.by_id[ordered.order[j - 1]].owner is not Owner.LEADER:
        raise IndexOutOfRange(f"position {j} is not a leader interval")
    cutoff = 0 if j == 0 else instance.by_id[ordered.order[j - 1]].end
    window = [
        iv for iv in (instance.by_id[iid] for iid in ordered.order[j:k])
        if iv.owner is Owner.FOLLOWER and iv.start >= cutoff
    ]
    block = _best_intervals(instance, window, setting)
    return sum(instance.by_id[iid].wl for iid in block), block


def compute_tables(instance: IntervalInstance, setting: Setting) -> DpTables:
    """Fill the prefix-optimum tables in one left-to-right sweep.

    Once ``opt[prev[j]]`` is final for the sentinel or a leader position
    ``j``, one take-or-skip pass over the follower intervals after ``j``
    that start at or after interval ``j``'s end (``_take_or_skip`` run on
    a growing prefix) gives ``follower_block(j, k)``'s leader weight for
    every later ``k``.  The pass adds the follower oracles' tie-break
    integers over all intervals, with base ``scale``, so a block sums to
    ``F * scale + sign * L`` with leader weight ``0 <= L < scale``, which
    reads back as ``sign * best[-1] % scale``.  Each follower position
    keeps the first ``j`` with the largest ``opt[prev[j]] + wl_j + block``.
    """
    ordered = sort_and_index(instance)
    tables = DpTables(sorted_intervals=ordered)
    n = len(ordered)
    opt = [0] * (n + 1)
    prev = ordered.prev_disjoint
    items = [instance.by_id[iid] for iid in ordered.order]
    scale, weight = _tie_break(items, setting)
    sign = 1 if setting is Setting.OPTIMISTIC else -1
    followers = [
        (k, iv, weight[iv.id])
        for k, iv in enumerate(items, start=1)
        if iv.owner is Owner.FOLLOWER
    ]
    # per follower position: (value, j, block leader weight) of the best j
    block: list[tuple[int, int, int] | None] = [None] * (n + 1)

    def block_pass(j: int, after: int) -> None:
        base = opt[prev[j]] + (0 if j == 0 else items[j - 1].wl)
        cutoff = 0 if j == 0 else items[j - 1].end
        ends: list[int] = []
        best = [0]
        for k, iv, w in followers[after:]:
            if iv.start >= cutoff:
                with_k = best[bisect_right(ends, iv.start)] + w
                best.append(with_k if with_k > best[-1] else best[-1])
                ends.append(iv.end)
            block_wl = sign * best[-1] % scale
            value = base + block_wl
            if block[k] is None or value > block[k][0]:
                block[k] = (value, j, block_wl)

    block_pass(0, 0)
    seen_followers = 0
    for k in range(1, n + 1):
        interval = items[k - 1]
        if interval.owner is Owner.LEADER:
            take = interval.wl + opt[prev[k]]
            if take > opt[k - 1]:
                opt[k] = take
                tables.choice[k] = ("take",)
            else:
                opt[k] = opt[k - 1]
                tables.choice[k] = ("skip",)
            block_pass(k, seen_followers)
        else:
            seen_followers += 1
            opt[k], j, block_wl = block[k]
            tables.choice[k] = ("block", j)
            tables.sol_leader_weight[(j, k)] = block_wl
    tables.opt = opt
    return tables


def reconstruct(
    tables: DpTables, instance: IntervalInstance, setting: Setting
) -> tuple[frozenset[int], frozenset[int]]:
    """Rebuild a witness leader action from the backtracking records and
    recompute the follower's reaction to it on the full instance.

    Each record is cross-checked against the stored optima; a mismatch
    raises ``CorruptTables``.
    """
    ordered = tables.sorted_intervals
    prev = ordered.prev_disjoint
    opt = tables.opt
    leader: set[int] = set()
    k = len(ordered)
    while k > 0:
        record = tables.choice.get(k)
        if record is None:
            raise CorruptTables(f"no record for position {k}")
        interval = instance.by_id[ordered.order[k - 1]]
        if record[0] == "take":
            if opt[k] != interval.wl + opt[prev[k]]:
                raise CorruptTables(f"take record at {k} contradicts optima")
            leader.add(interval.id)
            k = prev[k]
        elif record[0] == "skip":
            if opt[k] != opt[k - 1]:
                raise CorruptTables(f"skip record at {k} contradicts optima")
            k -= 1
        else:
            j = record[1]
            wl_j = 0 if j == 0 else instance.by_id[ordered.order[j - 1]].wl
            cached = tables.sol_leader_weight.get((j, k))
            if cached is None or opt[k] != opt[prev[j]] + wl_j + cached:
                raise CorruptTables(f"block record at {k} contradicts optima")
            if j == 0:
                break
            leader.add(ordered.order[j - 1])
            k = prev[j]
    lset = frozenset(leader)
    return lset, react_intervals(instance, lset, setting)


def solve_bisel(instance: IntervalInstance, setting: Setting) -> BilevelOutcome:
    """Optimal bilevel interval selection under sum objectives."""
    variant = Variant(Objective.SUM, Objective.SUM, setting)
    tables = compute_tables(instance, setting)
    leader, follower = reconstruct(tables, instance, setting)
    return make_outcome(instance, variant, leader, follower)
