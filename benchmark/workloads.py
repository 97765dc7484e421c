"""Seeded instance families and call schedules of the CLI benchmark.

Every family owns a fixed pool of slots.  Slot ``s`` of a family is built
from the seed ``base + s`` alone: it writes its instance files and returns
the ``bilevelis`` command lines (argv lists) to run on them.  Slot ``pool``
(one past the timed slots) is the warm-up slot.  Because a slot never
depends on the run's ``--seed``, the expected output of every call can be
recorded once (``refs.json``); the run's seed only chooses which ``take``
slots of each pool a run uses and in which order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

ALL_CODES = (
    "cs-ds-o", "cs-ds-p", "cs-db-o", "cs-db-p",
    "cb-ds-o", "cb-ds-p", "cb-db-o", "cb-db-p",
)
DB_CODES = ("cs-db-o", "cs-db-p", "cb-db-o", "cb-db-p")
# Variants whose follower oracle never needs a two-colorable pool, so they
# run on general graphs without a brute-force fallback of 2^20 reactions.
GENERAL_QUERY_CODES = ("cs-db-p", "cb-db-o", "cb-db-p")


@dataclass(frozen=True)
class Family:
    name: str
    base: int  # slot s is built from seed base + s
    pool: int  # timed slots 0..pool-1; slot `pool` is the warm-up slot
    take: int  # slots one run draws from the pool
    build: Callable  # (lib, seed, directory) -> list of argv lists


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Family, ...]
    trace_rounds: int  # rounds the traced run replays (a fixed count)


def _path(directory: str, stem: str) -> str:
    return os.path.join(directory, stem + ".json")


def _save(lib, path: str, data: dict) -> str:
    lib.serialize.save(path, data)
    return path


def _graph_with_leaders(lib, n, edge_prob, leaders, bipartite, seed):
    """The first ``gen_random_graph`` draw (seeds ``seed*1000 + t``) with
    exactly ``leaders`` leader vertices.  Leader enumeration is
    exponential in that count, so fixing it keeps per-call cost steady."""
    for t in range(1000):
        graph = lib.randgen.gen_random_graph(
            n, edge_prob, leaders / n, 9, bipartite=bipartite,
            seed=seed * 1000 + t,
        )
        if len(graph.leader_ids) == leaders:
            return graph
    raise RuntimeError(f"no graph with {leaders} leaders near seed {seed}")


def _independent_leaders(graph, rng) -> list[int]:
    """A random independent set of leader vertices (maybe empty)."""
    if rng.random() < 0.125:
        return []
    chosen: list[int] = []
    order = list(graph.leader_ids)
    rng.shuffle(order)
    for v in order:
        if rng.random() < 0.5 and not graph.adjacency[v] & set(chosen):
            chosen.append(v)
    return sorted(chosen)


def _disjoint_leaders(instance, rng) -> list[int]:
    """A random pairwise-disjoint set of leader intervals (maybe empty)."""
    if rng.random() < 0.125:
        return []
    chosen = []
    order = [iv for iv in instance.intervals if iv.owner.value == "leader"]
    rng.shuffle(order)
    for iv in order:
        if rng.random() < 0.3 and not any(iv.overlaps(c) for c in chosen):
            chosen.append(iv)
    return sorted(iv.id for iv in chosen)


def _ids(ids: list[int]) -> str:
    return ",".join(str(i) for i in ids)


# --- intervals -------------------------------------------------------------

def _intervals_family(n: int) -> Family:
    """``gen_random_intervals(n, coord_max=2n, leader_fraction=0.5)``;
    ``solve-intervals --setting o`` and ``--setting p`` on it."""

    def build(lib, seed, directory):
        inst = lib.randgen.gen_random_intervals(n, 2 * n, 0.5, 9, seed=seed)
        path = _save(lib, _path(directory, f"iv{n}-{seed}"),
                     lib.serialize.intervals_to_dict(inst))
        return [["solve-intervals", "--setting", s, "--input", path]
                for s in ("o", "p")]

    return Family(f"iv{n}", base=10_000 * n, pool=104, take=80, build=build)


# --- enum ------------------------------------------------------------------

def _build_enum_bip(lib, seed, directory):
    """A bipartite n=24 graph with exactly 8 leaders; ``solve`` for all
    eight variants (the bipartite polynomial solvers, ``solve_cb_db_o`` and
    ``solve_enum_leader``)."""
    graph = _graph_with_leaders(lib, 24, 0.15, 8, True, seed)
    path = _save(lib, _path(directory, f"eb-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return [["solve", "--variant", c, "--input", path] for c in ALL_CODES]


def _build_enum_gen(lib, seed, directory):
    """A general n=24 graph with exactly 8 leaders; ``solve`` for the four
    bottleneck-follower variants (cs-db-o reaches ``brute_follower``)."""
    graph = _graph_with_leaders(lib, 24, 0.15, 8, False, seed)
    path = _save(lib, _path(directory, f"eg-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return [["solve", "--variant", c, "--input", path] for c in DB_CODES]


# --- queries ---------------------------------------------------------------

def _graph_queries(graph, path, codes, rng) -> list[list[str]]:
    """Four times per variant: ``follower`` for a random independent leader
    set, and ``verify`` for another one with a random claim."""
    calls = []
    for code in codes * 4:
        leader = _independent_leaders(graph, rng)
        calls.append(["follower", "--variant", code, "--leader", _ids(leader),
                      "--input", path])
        leader = _independent_leaders(graph, rng)
        claimed = rng.randint(0, 9 * max(1, len(leader)) + 9)
        calls.append(["verify", "--variant", code, "--leader", _ids(leader),
                      "--claimed", str(claimed), "--input", path])
    return calls


def _build_queries_bip(lib, seed, directory):
    """A bipartite n=60 graph; 64 queries over all eight variants."""
    graph = lib.randgen.gen_random_graph(60, 0.08, 0.5, 9, bipartite=True,
                                         seed=seed)
    path = _save(lib, _path(directory, f"qb-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return _graph_queries(graph, path, ALL_CODES, random.Random(seed))


def _build_queries_gen(lib, seed, directory):
    """A general n=40 graph; 24 queries over the variants in
    ``GENERAL_QUERY_CODES``."""
    graph = lib.randgen.gen_random_graph(40, 0.1, 0.5, 9, seed=seed)
    path = _save(lib, _path(directory, f"qg-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return _graph_queries(graph, path, GENERAL_QUERY_CODES,
                          random.Random(seed))


def _build_queries_iv(lib, seed, directory):
    """An n=200 interval instance; ``follower`` for cs-ds-o and cs-ds-p with
    eight random disjoint leader sets each."""
    inst = lib.randgen.gen_random_intervals(200, 400, 0.5, 9, seed=seed)
    path = _save(lib, _path(directory, f"qi-{seed}"),
                 lib.serialize.intervals_to_dict(inst))
    rng = random.Random(seed)
    return [["follower", "--variant", code, "--leader",
             _ids(_disjoint_leaders(inst, rng)), "--input", path]
            for code in ("cs-ds-o", "cs-ds-p") for _ in range(8)]


# --- brute -----------------------------------------------------------------

def _brute_calls(graph, path, codes, seed):
    """``brute`` for every variant, then ``brute --leader`` for every
    variant with a random independent leader set."""
    rng = random.Random(seed)
    calls = [["brute", "--variant", c, "--input", path] for c in codes]
    for code in codes:
        calls.append(["brute", "--variant", code, "--leader",
                      _ids(_independent_leaders(graph, rng)), "--input", path])
    return calls


def _build_brute_bip(lib, seed, directory):
    """A bipartite n=16 graph; 16 ``brute`` calls over all variants."""
    graph = lib.randgen.gen_random_graph(16, 0.3, 0.5, 9, bipartite=True,
                                         seed=seed)
    path = _save(lib, _path(directory, f"bb-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return _brute_calls(graph, path, ALL_CODES, seed)


def _build_brute_gen(lib, seed, directory):
    """A general n=16 graph; 8 ``brute`` calls over the db variants."""
    graph = lib.randgen.gen_random_graph(16, 0.3, 0.5, 9, seed=seed)
    path = _save(lib, _path(directory, f"bg-{seed}"),
                 lib.serialize.graph_to_dict(graph))
    return _brute_calls(graph, path, DB_CODES, seed)


def _build_brute_iv(lib, seed, directory):
    """An n=16 interval instance; ``brute-intervals`` in both settings."""
    inst = lib.randgen.gen_random_intervals(16, 32, 0.5, 9, seed=seed)
    path = _save(lib, _path(directory, f"bi-{seed}"),
                 lib.serialize.intervals_to_dict(inst))
    return [["brute-intervals", "--setting", s, "--input", path]
            for s in ("o", "p")]


def _source_graph(rng, n: int) -> list[tuple[int, int]]:
    """A random simple graph on ``n`` vertices with at least one edge."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.5]
    return edges or [rng.choice(pairs)]


def _random_b2cnf(lib, rng):
    red = lib.reductions
    lits = [red.Literal(side, 1, neg) for side in "XY" for neg in (False, True)]
    clauses = tuple(tuple(rng.choice(lits) for _ in range(3))
                    for _ in range(rng.randint(1, 2)))
    return red.B2cnfFormula(1, 1, clauses)


def _build_brute_reduce(lib, seed, directory):
    """Each reduction as a timed ``reduce`` call, plus ``brute --cap`` on
    the graph the same reduction gives (built here, at set-up)."""
    red, ser = lib.reductions, lib.serialize
    rng = random.Random(seed)
    n = 4
    edges = _source_graph(rng, n)
    k = rng.randint(1, 3)
    core = lib.core
    source = core.BisGraph(
        tuple(core.Vertex(v, core.Owner.FOLLOWER, 1, 1) for v in range(n)),
        tuple(edges),
    )
    src = _save(lib, _path(directory, f"rs-{seed}"), ser.graph_to_dict(source))
    formula = _random_b2cnf(lib, rng)
    fsrc = _save(lib, _path(directory, f"rf-{seed}"), ser.b2cnf_to_dict(formula))
    cases = [
        ("vc", k, red.vc_to_bis(n, edges, k), "cb-db-p"),
        ("planar-vc", 1, red.planar_vc_to_bipartite_bis(n, edges, 1),
         rng.choice(("cs-ds-o", "cs-ds-p"))),
        ("is", k, red.is_to_bis(n, edges, k), rng.choice(("cs-db-o", "cs-db-p"))),
        ("b2cnf", None, red.b2cnf_to_bis(formula),
         rng.choice(("cs-ds-o", "cs-ds-p", "cb-ds-o", "cb-ds-p"))),
    ]
    calls = []
    for kind, kk, out, code in cases:
        stem = f"r{kind}-{seed}"
        argv = ["reduce", kind, "--input", fsrc if kind == "b2cnf" else src,
                "--output", _path(directory, stem + "-out")]
        if kk is not None:
            argv[2:2] = ["--k", str(kk)]
        calls.append(argv)
        graph = _save(lib, _path(directory, stem), ser.graph_to_dict(out.graph))
        calls.append(["brute", "--variant", code, "--cap", "24",
                      "--input", graph])
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "intervals",
            tuple(_intervals_family(n) for n in (32, 48, 64, 80, 96)),
            trace_rounds=8,
        ),
        Workload(
            "enum",
            (
                Family("enum-bip", 1_000, 240, 192, _build_enum_bip),
                Family("enum-gen", 2_000, 240, 192, _build_enum_gen),
            ),
            trace_rounds=24,
        ),
        Workload(
            "queries",
            (
                Family("q-bip", 3_000, 176, 144, _build_queries_bip),
                Family("q-gen", 4_000, 176, 144, _build_queries_gen),
                Family("q-iv", 5_000, 176, 144, _build_queries_iv),
            ),
            trace_rounds=24,
        ),
        Workload(
            "brute",
            (
                Family("br-bip", 6_000, 320, 256, _build_brute_bip),
                Family("br-gen", 7_000, 320, 256, _build_brute_gen),
                Family("br-iv", 8_000, 320, 256, _build_brute_iv),
                Family("br-red", 9_000, 320, 256, _build_brute_reduce),
            ),
            trace_rounds=30,
        ),
    )
}


def select(workload: Workload, seed: int) -> dict[str, list[int]]:
    """The slots a run with this seed draws from each family's pool."""
    rng = random.Random(f"{workload.name}:{seed}")
    return {f.name: rng.sample(range(f.pool), f.take)
            for f in workload.families}


def schedule(workload: Workload, lib, seed: int, directory: str):
    """Build this run's instance files.

    Returns ``(warmup, rounds)``: ``warmup`` holds the calls of every
    family's warm-up slot, and ``rounds[r]`` the calls of the ``r``-th
    drawn slot of every family.  Each call is ``(key, argv)`` where the key
    ``(family, slot, index)`` locates its recorded reference.
    """
    chosen = select(workload, seed)

    def slot_calls(family, slot):
        argvs = family.build(lib, family.base + slot, directory)
        return [((family.name, slot, i), argv) for i, argv in enumerate(argvs)]

    warmup = [c for f in workload.families for c in slot_calls(f, f.pool)]
    rounds = []
    for r in range(max(f.take for f in workload.families)):
        rounds.append([
            c
            for f in workload.families
            if r < f.take
            for c in slot_calls(f, chosen[f.name][r])
        ])
    return warmup, rounds
