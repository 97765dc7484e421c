"""Seeded instance generators and the solver benchmark.

All randomness comes from ``random.Random(seed)`` (the Mersenne Twister),
so a (parameters, seed) pair reproduces an instance byte-for-byte on any
platform; failing oracle tests can be replayed from their seed alone.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from .core import BisGraph, Interval, IntervalInstance, Owner, Setting, Vertex
from .errors import BadParameter
from .interval_dp import solve_bisel


def _check_common(n: int, leader_fraction: float, max_weight: int) -> None:
    """The parameters both generators share."""
    if n < 0:
        raise BadParameter("n must be non-negative")
    if not 0.0 <= leader_fraction <= 1.0:
        raise BadParameter("leader_fraction must lie in [0, 1]")
    if max_weight < 0:
        raise BadParameter("max_weight must be non-negative")


def gen_random_graph(
    n: int,
    edge_prob: float,
    leader_fraction: float,
    max_weight: int,
    bipartite: bool = False,
    seed: int = 0,
) -> BisGraph:
    """Uniform random graph with random ownership and weights.

    With ``bipartite`` the vertices are first shuffled into two balanced
    sides and only cross-side pairs may become edges.  Pairs are drawn
    lazily in increasing order, so memory grows with the edges, not n².
    """
    _check_common(n, leader_fraction, max_weight)
    if not 0.0 <= edge_prob <= 1.0:
        raise BadParameter("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    vertices = tuple(
        Vertex(
            id=v,
            owner=Owner.LEADER
            if rng.random() < leader_fraction
            else Owner.FOLLOWER,
            wl=rng.randint(0, max_weight),
            wf=rng.randint(0, max_weight),
        )
        for v in range(n)
    )
    if bipartite:
        order = list(range(n))
        rng.shuffle(order)
        side = {v: i < (n + 1) // 2 for i, v in enumerate(order)}
        pairs = (
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if side[u] != side[v]
        )
    else:
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    edges = tuple(p for p in pairs if rng.random() < edge_prob)
    return BisGraph(vertices, edges)


def gen_random_intervals(
    n: int,
    coord_max: int,
    leader_fraction: float,
    max_weight: int,
    seed: int = 0,
) -> IntervalInstance:
    """Random intervals with integer endpoints in ``[0, coord_max]``."""
    _check_common(n, leader_fraction, max_weight)
    if coord_max < 1:
        raise BadParameter("coord_max must be at least 1")
    rng = random.Random(seed)
    intervals = []
    for iid in range(n):
        start = rng.randint(0, coord_max - 1)
        end = rng.randint(start + 1, coord_max)
        intervals.append(
            Interval(
                id=iid,
                start=start,
                end=end,
                owner=Owner.LEADER
                if rng.random() < leader_fraction
                else Owner.FOLLOWER,
                wl=rng.randint(0, max_weight),
                wf=rng.randint(0, max_weight),
            )
        )
    return IntervalInstance(tuple(intervals))


def bench_dp(sizes: Sequence[int], seed: int = 0) -> list[tuple[int, float]]:
    """Wall-clock the optimistic interval solver on one random instance
    per size.

    Returns ``(n, milliseconds)`` rows; makes no assertion about growth.
    """
    if list(sizes) != sorted(sizes):
        raise BadParameter("sizes must be ascending")
    rows = []
    for n in sizes:
        instance = gen_random_intervals(
            n=n,
            coord_max=max(1, 2 * n),
            leader_fraction=0.5,
            max_weight=9,
            seed=seed + n,
        )
        started = time.perf_counter()
        solve_bisel(instance, Setting.OPTIMISTIC)
        rows.append((n, (time.perf_counter() - started) * 1000.0))
    return rows
