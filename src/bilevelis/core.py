"""Instance representations, objective evaluation, and feasibility predicates.

Two ground-set flavors are supported: vertex sets of a simple undirected
graph (independent-set feasibility) and half-open intervals on the line
(pairwise-disjointness feasibility).  Every item is owned by exactly one of
the two players and carries two non-negative integer weights, one per
player.  All types are immutable after construction and safe to share
across concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar, Iterable, Union

from .errors import BottleneckOfEmptySet, UnknownId


class Owner(Enum):
    """Which player controls an item."""

    LEADER = "leader"
    FOLLOWER = "follower"


class Objective(Enum):
    """Shape of a player's objective: total weight or minimum weight."""

    SUM = "sum"
    BOTTLENECK = "bottleneck"


class Setting(Enum):
    """How the follower breaks ties among his optimal reactions."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class Variant:
    """One of the eight problem variants: leader objective, follower
    objective, and tie-breaking setting."""

    leader_obj: Objective
    follower_obj: Objective
    setting: Setting

    @classmethod
    def from_code(cls, code: str) -> "Variant":
        """Parse a compact code such as ``cs-db-p`` (any letter case)."""
        try:
            return _BY_CODE[code.lower()]
        except KeyError:
            raise ValueError(f"bad variant code: {code!r}") from None

    @property
    def code(self) -> str:
        lead = "s" if self.leader_obj is Objective.SUM else "b"
        foll = "s" if self.follower_obj is Objective.SUM else "b"
        sett = "o" if self.setting is Setting.OPTIMISTIC else "p"
        return f"c{lead}-d{foll}-{sett}"


ALL_VARIANTS = tuple(
    Variant(lo, fo, st)
    for lo in Objective
    for fo in Objective
    for st in Setting
)
_BY_CODE = {v.code: v for v in ALL_VARIANTS}


@dataclass(frozen=True, order=True)
class CompositeWeight:
    """Exact lexicographic weight: compare on ``primary`` first, then
    ``secondary``.

    The public value type of the infinitesimal tie-breaking term of the
    follower's weight update: his own weight goes into ``primary``, the
    (signed) leader weight into ``secondary``.  Solvers add and compare
    only its ``scaled`` collapse, which orders sums exactly as the pairs.
    """

    primary: int
    secondary: int

    ZERO: ClassVar["CompositeWeight"]

    def __add__(self, other: "CompositeWeight") -> "CompositeWeight":
        return CompositeWeight(
            self.primary + other.primary, self.secondary + other.secondary
        )

    def scaled(self, base: int) -> int:
        """Collapse to a single integer: ``primary * base + secondary``.

        Orders sums identically to the lexicographic comparison whenever
        ``base`` exceeds every |secondary|-sum that can occur, e.g.
        ``base = 1 + sum of all leader weights``.
        """
        return self.primary * base + self.secondary


CompositeWeight.ZERO = CompositeWeight(0, 0)


def weight_sum(weights: Iterable[CompositeWeight]) -> CompositeWeight:
    total = CompositeWeight.ZERO
    for w in weights:
        total = total + w
    return total


@dataclass(frozen=True)
class Vertex:
    id: int
    owner: Owner
    wl: int
    wf: int

    def __post_init__(self):
        if self.wl < 0 or self.wf < 0:
            raise ValueError(f"vertex {self.id}: negative weight")


@dataclass(frozen=True)
class BisGraph:
    """Simple undirected graph with a leader/follower vertex partition.

    Vertex ids must be dense from 0.  Edges are stored as normalized
    ``(min, max)`` pairs; self-loops and duplicates are rejected.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = tuple(sorted(self.vertices, key=lambda v: v.id))
        ids = [v.id for v in verts]
        if ids != list(range(len(ids))):
            raise ValueError("vertex ids must be dense from 0")
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < len(ids) and 0 <= v < len(ids)):
                raise UnknownId(f"edge endpoint outside graph: {(u, v)}")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def ids(self) -> range:
        return range(len(self.vertices))

    def item(self, vid: int) -> Vertex:
        if not (0 <= vid < len(self.vertices)):
            raise UnknownId(f"no vertex with id {vid}")
        return self.vertices[vid]

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v.id: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {k: frozenset(s) for k, s in adj.items()}

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Per vertex id, its neighbours as a bitmask with bit ``1 << u``."""
        bits = [0] * len(self.vertices)
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @cached_property
    def wl(self) -> tuple[int, ...]:
        """Per vertex id, its leader weight."""
        return tuple(v.wl for v in self.vertices)

    @cached_property
    def wf(self) -> tuple[int, ...]:
        """Per vertex id, its follower weight."""
        return tuple(v.wf for v in self.vertices)

    @cached_property
    def leader_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if v.owner is Owner.LEADER)

    @cached_property
    def follower_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if v.owner is Owner.FOLLOWER)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [start, end) with an owner and both weights."""

    id: int
    start: int
    end: int
    owner: Owner
    wl: int
    wf: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"interval {self.id}: negative start point")
        if self.start >= self.end:
            raise ValueError(f"interval {self.id}: start must be < end")
        if self.wl < 0 or self.wf < 0:
            raise ValueError(f"interval {self.id}: negative weight")

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class IntervalInstance:
    """A set of weighted half-open intervals partitioned between players.

    Interval ids are arbitrary but must be unique integers.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(sorted(self.intervals, key=lambda i: i.id))
        if len({i.id for i in ivs}) != len(ivs):
            raise ValueError("duplicate interval ids")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    @cached_property
    def by_id(self) -> dict[int, Interval]:
        return {i.id: i for i in self.intervals}

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(i.id for i in self.intervals)

    def item(self, iid: int) -> Interval:
        try:
            return self.by_id[iid]
        except KeyError:
            raise UnknownId(f"no interval with id {iid}") from None

    @cached_property
    def leader_ids(self) -> tuple[int, ...]:
        return tuple(i.id for i in self.intervals if i.owner is Owner.LEADER)

    @cached_property
    def follower_ids(self) -> tuple[int, ...]:
        return tuple(i.id for i in self.intervals if i.owner is Owner.FOLLOWER)


Instance = Union[BisGraph, IntervalInstance]


def evaluate(
    obj: Objective, role: Owner, selection: Iterable[int], instance: Instance
) -> int:
    """Evaluate an objective over a selection of item ids.

    ``role`` picks the weight function: the leader's weights for
    ``Owner.LEADER``, the follower's for ``Owner.FOLLOWER``.  Sum
    objectives total the weights; bottleneck objectives take the minimum
    and reject an empty selection.
    """
    items = [instance.item(i) for i in set(selection)]
    weights = [it.wl if role is Owner.LEADER else it.wf for it in items]
    if obj is Objective.SUM:
        return sum(weights)
    if not weights:
        raise BottleneckOfEmptySet("bottleneck objective over the empty set")
    return min(weights)


def is_independent(graph: BisGraph, selection: Iterable[int]) -> bool:
    """True iff no two selected vertices are adjacent."""
    chosen = set(selection)
    adjacency = graph.adjacency
    if not chosen <= adjacency.keys():
        for vid in chosen:
            graph.item(vid)  # raises UnknownId for the id that is no vertex
    for v in chosen:
        if not adjacency[v].isdisjoint(chosen):
            return False
    return True


def intervals_pairwise_disjoint(
    instance: IntervalInstance, selection: Iterable[int]
) -> bool:
    """True iff the selected half-open intervals are pairwise disjoint."""
    chosen = sorted(
        (instance.item(i) for i in set(selection)),
        key=lambda iv: (iv.start, iv.end),
    )
    reach = None
    for iv in chosen:
        if reach is not None and iv.start < reach:
            return False
        reach = iv.end if reach is None else max(reach, iv.end)
    return True


def check_leader_action(instance: Instance, leader_set: frozenset[int]) -> None:
    """Reject a leader action that names a non-leader item or is not
    feasible on its own (not independent on a graph, overlapping on
    intervals) with ``ValueError``; an unknown id raises ``UnknownId``."""
    for item in [instance.item(iid) for iid in leader_set]:
        if item.owner is not Owner.LEADER:
            raise ValueError(f"item {item.id} is not leader-owned")
    if isinstance(instance, BisGraph):
        feasible = is_independent(instance, leader_set)
    else:
        feasible = intervals_pairwise_disjoint(instance, leader_set)
    if not feasible:
        raise ValueError("leader action is not feasible on its own")


def to_interval_graph(instance: IntervalInstance) -> BisGraph:
    """Conflict graph of an interval instance.

    Vertex ``i`` corresponds to the i-th smallest interval id and carries
    that interval's owner and weights; vertices are adjacent iff the
    intervals overlap.  For instances whose ids are already dense from 0
    the correspondence is the identity, so a selection is pairwise
    disjoint exactly when its image is independent.
    """
    ordered = instance.intervals
    verts = tuple(
        Vertex(idx, iv.owner, iv.wl, iv.wf) for idx, iv in enumerate(ordered)
    )
    edges = tuple(
        (a, b)
        for a in range(len(ordered))
        for b in range(a + 1, len(ordered))
        if ordered[a].overlaps(ordered[b])
    )
    return BisGraph(verts, edges)


@dataclass(frozen=True)
class BilevelOutcome:
    """A solved bilevel instance: the leader's action, the follower's
    reaction, and both objective values of their union."""

    leader_set: frozenset[int]
    follower_set: frozenset[int]
    leader_value: int
    follower_value: int


def make_outcome(
    instance: Instance,
    variant: Variant,
    leader_set: Iterable[int],
    follower_set: Iterable[int],
) -> BilevelOutcome:
    """Assemble an outcome, evaluating both objectives on the union."""
    lset = frozenset(leader_set)
    fset = frozenset(follower_set)
    union = lset | fset
    return BilevelOutcome(
        leader_set=lset,
        follower_set=fset,
        leader_value=evaluate(variant.leader_obj, Owner.LEADER, union, instance),
        follower_value=evaluate(
            variant.follower_obj, Owner.FOLLOWER, union, instance
        ),
    )


def scale_base(instance: Instance) -> int:
    """Scaling base for collapsing ``perturb``'s weights to integers.

    Exceeds the total leader weight, so a one-unit difference in the
    primary component dominates any achievable secondary sum, and the
    leader weight of a collapsed sum reads back as ``sign * sum % base``.
    """
    if isinstance(instance, BisGraph):
        return 1 + sum(v.wl for v in instance.vertices)
    return 1 + sum(iv.wl for iv in instance.intervals)
