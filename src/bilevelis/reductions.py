"""Generators for the hardness-reduction instances.

Each generator maps a source problem (a quantified 3-CNF formula, a vertex
cover question, or an independent set question) to a graph instance whose
bilevel optimum crosses a recorded threshold exactly on yes-instances of
the source.  Constants chosen symbolically in the constructions are fixed
to the smallest integers satisfying every inequality the correctness
arguments use; the soundness sweep in the test suite validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .core import BisGraph, Owner, Variant, Vertex
from .errors import MalformedClause

_L = Owner.LEADER
_F = Owner.FOLLOWER


@dataclass(frozen=True)
class Literal:
    """A literal of a two-level formula: side X or Y, 1-based variable
    index, and polarity."""

    side: str
    var: int
    negated: bool

    def __post_init__(self):
        if self.side not in ("X", "Y"):
            raise ValueError(f"literal side must be X or Y, got {self.side!r}")
        if self.var < 1:
            raise ValueError("variable indices are 1-based")


@dataclass(frozen=True)
class B2cnfFormula:
    """CNF with exactly three literals per clause over variables split
    into an existential block X and a universal block Y."""

    n1: int
    n2: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        for name in ("n1", "n2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        clauses = tuple(tuple(c) for c in self.clauses)
        for clause in clauses:
            if len(clause) != 3:
                raise MalformedClause(
                    f"clause must have exactly 3 literals, got {len(clause)}"
                )
            for lit in clause:
                bound = self.n1 if lit.side == "X" else self.n2
                if lit.var > bound:
                    raise ValueError(
                        f"variable {lit.side}{lit.var} outside range"
                    )
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class ReductionOutput:
    """A generated instance plus everything needed to interpret it:
    the per-variant decision threshold of each targeted variant, and the
    constants baked into the weights."""

    graph: BisGraph
    thresholds: dict[Variant, int]
    constants: dict[str, int]

    @property
    def targets(self) -> tuple[Variant, ...]:
        return tuple(self.thresholds)

    def threshold_for(self, variant: Variant) -> int:
        return self.thresholds[variant]


def _output(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[int, int]],
    thresholds_by_code: dict[str, int],
    constants: dict[str, int],
) -> ReductionOutput:
    return ReductionOutput(
        graph=BisGraph(tuple(vertices), tuple(edges)),
        thresholds={
            Variant.from_code(code): t for code, t in thresholds_by_code.items()
        },
        constants=constants,
    )


def _check_simple(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    norm = []
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge {(u, v)}")
        norm.append((min(u, v), max(u, v)))
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate edges")
    return sorted(norm)


def b2cnf_to_bis(formula: B2cnfFormula) -> ReductionOutput:
    """Two-level 3-CNF to a bilevel independent-set instance.

    Layout: a literal pair per X variable (leader), a literal pair per Y
    variable (follower), a 4-clique per clause of three slot vertices plus
    a collector vertex (follower), and one alarm vertex adjacent to every
    collector.  Each slot vertex is wired to the vertex of its literal's
    negation, so a slot is selectable exactly when the literal can be made
    true.  The alarm enters the follower's reaction iff every clause keeps
    its collector out, i.e. iff the chosen assignments satisfy the formula,
    and the weights make that event decide both leader objectives.

    The big weights are ``R = m + n2 + 2`` and ``M = (m+1)*R + m + n2 + 2``:
    R exceeds anything the follower side can contribute to the leader
    beside the collectors, and M exceeds the leader's best possible trade
    of a literal vertex against collectors.
    """
    n1, n2, m = formula.n1, formula.n2, formula.m
    R = m + n2 + 2
    M = (m + 1) * R + m + n2 + 2

    def a(i):  # leader literal vertices, 1-based variable
        return 2 * (i - 1)

    def a_bar(i):
        return 2 * (i - 1) + 1

    def b(i):
        return 2 * n1 + 2 * (i - 1)

    def b_bar(i):
        return 2 * n1 + 2 * (i - 1) + 1

    def slot(ci, t):  # clause ci (1-based), slot t in 0..2
        return 2 * n1 + 2 * n2 + 4 * (ci - 1) + t

    def collector(ci):
        return 2 * n1 + 2 * n2 + 4 * (ci - 1) + 3

    alarm = 2 * n1 + 2 * n2 + 4 * m

    vertices = []
    for i in range(1, n1 + 1):
        vertices.append(Vertex(a(i), _L, wl=M, wf=0))
        vertices.append(Vertex(a_bar(i), _L, wl=M, wf=0))
    for i in range(1, n2 + 1):
        vertices.append(Vertex(b(i), _F, wl=1, wf=M))
        vertices.append(Vertex(b_bar(i), _F, wl=1, wf=M))
    for ci in range(1, m + 1):
        for t in range(3):
            vertices.append(Vertex(slot(ci, t), _F, wl=1, wf=10))
        vertices.append(Vertex(collector(ci), _F, wl=R, wf=5))
    vertices.append(Vertex(alarm, _F, wl=0, wf=1))

    edges = set()
    for i in range(1, n1 + 1):
        edges.add((a(i), a_bar(i)))
    for i in range(1, n2 + 1):
        edges.add((b(i), b_bar(i)))
    for ci, clause in enumerate(formula.clauses, start=1):
        gadget = [slot(ci, 0), slot(ci, 1), slot(ci, 2), collector(ci)]
        for u, v in combinations(gadget, 2):
            edges.add((u, v))
        edges.add((collector(ci), alarm))
        for t, lit in enumerate(clause):
            if lit.side == "X":
                other = a(lit.var) if lit.negated else a_bar(lit.var)
            else:
                other = b(lit.var) if lit.negated else b_bar(lit.var)
            edges.add((slot(ci, t), other))

    thresholds = dict.fromkeys(["cs-ds-o", "cs-ds-p"], M * n1 + R)
    thresholds.update(dict.fromkeys(["cb-ds-o", "cb-ds-p"], 1))
    return _output(vertices, edges, thresholds, {"M": M, "R": R})


def _copy_classes(
    n: int, edges: Sequence[tuple[int, int]], k: int
) -> tuple[list[Vertex], list[tuple[int, int]]]:
    """The core both vertex-cover constructions share.

    Copy ``c`` of source vertex ``v`` is leader vertex ``c*n + v`` and
    source edge ``j`` is follower vertex ``k*n + j``, adjacent to every
    copy of both its endpoints.  Copies weigh 1 for both players, edge
    vertices 0 for the leader and 1 for the follower.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    simple = _check_simple(n, edges)
    vertices = []
    for c in range(k):
        for v in range(n):
            vertices.append(Vertex(c * n + v, _L, wl=1, wf=1))
    out_edges = []
    for j, (u, v) in enumerate(simple):
        vertices.append(Vertex(k * n + j, _F, wl=0, wf=1))
        for c in range(k):
            out_edges += [(c * n + u, k * n + j), (c * n + v, k * n + j)]
    return vertices, out_edges


def vc_to_bis(n: int, edges: Sequence[tuple[int, int]], k: int) -> ReductionOutput:
    """Vertex cover to bilevel independent set for a pessimistic
    bottleneck/bottleneck instance.

    The leader gets ``k`` copies of every vertex, each copy class forming a
    clique so at most one copy per class can be played; the follower gets
    one vertex per edge, adjacent to every copy of its endpoints.  Leader
    vertices weigh 1 for the leader, edge vertices 0, so the leader scores
    1 exactly when the pessimistic follower is left without an uncovered
    edge vertex to grab.  All follower weights are equal, so their common
    value collapses to 1.
    """
    vertices, out_edges = _copy_classes(n, edges, k)
    for c in range(k):
        for u, v in combinations(range(n), 2):
            out_edges.append((c * n + u, c * n + v))
    return _output(vertices, out_edges, {"cb-db-p": 1}, {"M": 1})


def planar_vc_to_bipartite_bis(
    n: int, edges: Sequence[tuple[int, int]], k: int
) -> ReductionOutput:
    """Vertex cover to a bipartite sum/sum bilevel instance.

    Per source vertex a pair (selector, bonus); per source edge a pair
    (guard, prize).  Selecting a selector forfeits its bonus but blocks the
    adjacent guards; the follower prefers guards over prizes, so a prize is
    collected exactly when its guard is blocked.  With prize weight ``M``
    for the leader, value ``m*M + n - k`` is attainable iff ``k`` selectors
    cover all edges.  ``M = n + m + 101`` dominates every bonus the leader
    could keep instead.  Planarity of the source is never used by the
    equivalence, so it is not checked.  The generated graph itself does not
    depend on ``k``; only the threshold does.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    simple = _check_simple(n, edges)
    m = len(simple)
    M = n + m + 101

    def selector(i):
        return i

    def bonus(i):
        return n + i

    def guard(j):
        return 2 * n + j

    def prize(j):
        return 2 * n + m + j

    vertices = []
    for i in range(n):
        vertices.append(Vertex(selector(i), _L, wl=0, wf=0))
    for i in range(n):
        vertices.append(Vertex(bonus(i), _L, wl=1, wf=0))
    for j in range(m):
        vertices.append(Vertex(guard(j), _F, wl=0, wf=100))
    for j in range(m):
        vertices.append(Vertex(prize(j), _F, wl=M, wf=1))

    out_edges = set()
    for i in range(n):
        out_edges.add((selector(i), bonus(i)))
    for j in range(m):
        out_edges.add((guard(j), prize(j)))
    for j, (u, v) in enumerate(simple):
        out_edges.add((selector(u), guard(j)))
        out_edges.add((selector(v), guard(j)))

    threshold = m * M + n - k
    return _output(
        vertices, out_edges, {"cs-ds-o": threshold, "cs-ds-p": threshold}, {"M": M}
    )


def vc_to_bipartite_bis(
    n: int, edges: Sequence[tuple[int, int]], k: int
) -> ReductionOutput:
    """Bipartite variant of the vertex-cover construction.

    Starts from the copy-class construction and breaks each intra-class
    clique edge into a length-four path through two new leader gates and a
    follower trap: copy - gate - trap - gate - copy.  Playing two copies of
    one class forfeits both their gates and hands the pessimistic (or any
    sum-objective) follower the trap between them, so classes still act as
    at-most-one choices while all odd cycles disappear.  The gate of copy
    ``c*n + v`` is ``k*n + m + c*n + v``; traps follow from ``2*k*n + m``
    in ``(copy, u, v)`` order.
    """
    vertices, out_edges = _copy_classes(n, edges, k)
    gate = len(vertices)
    for x in range(k * n):
        vertices.append(Vertex(gate + x, _L, wl=1, wf=1))
        out_edges.append((x, gate + x))
    for c in range(k):
        for u, v in combinations(range(n), 2):
            trap = len(vertices)
            vertices.append(Vertex(trap, _F, wl=0, wf=1))
            out_edges += [(gate + c * n + u, trap), (gate + c * n + v, trap)]
    return _output(
        vertices, out_edges, {"cb-db-p": 1, "cb-ds-o": 1, "cb-ds-p": 1}, {"M": 1}
    )


def is_to_bis(n: int, edges: Sequence[tuple[int, int]], k: int) -> ReductionOutput:
    """Independent set embeds directly: all vertices go to the leader with
    unit weights, the follower owns nothing, and the question becomes
    whether a leader action of total weight ``k`` exists."""
    if k < 0:
        raise ValueError("k must be non-negative")
    vertices = [Vertex(v, _L, wl=1, wf=1) for v in range(n)]
    return _output(
        vertices, _check_simple(n, edges), {"cs-db-o": k, "cs-db-p": k}, {}
    )
