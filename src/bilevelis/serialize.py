"""Reading and writing the flat-file instance formats.

All files are JSON with a ``type`` discriminator for instances.  Field
sets are closed: unknown keys are rejected so that typos fail loudly.
Serialization is deterministic (sorted keys, sorted id lists), which the
generator's reproducibility contract relies on.
"""

from __future__ import annotations

import json
from typing import Any

from .core import (
    BilevelOutcome,
    BisGraph,
    Instance,
    Interval,
    IntervalInstance,
    Owner,
    Vertex,
)
from .reductions import B2cnfFormula, Literal

_OWNERS = {"leader": Owner.LEADER, "follower": Owner.FOLLOWER}


def _require_keys(data: dict, expected: set[str], what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected an object")
    keys = set(data)
    if keys != expected:
        unknown = keys - expected
        missing = expected - keys
        parts = []
        if unknown:
            parts.append(f"unknown fields {sorted(unknown)}")
        if missing:
            parts.append(f"missing fields {sorted(missing)}")
        raise ValueError(f"{what}: " + ", ".join(parts))


def _require_doc(data: dict, kind: str, fields: set[str]) -> None:
    """An object whose ``type`` is ``kind`` and whose other fields are
    exactly ``fields``; a wrong ``type`` is reported before any field."""
    if isinstance(data, dict) and data.get("type", kind) != kind:
        raise ValueError(f"expected type {kind!r}, got {data['type']!r}")
    _require_keys(data, {"type", *fields}, kind)


def _int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what}: expected an integer, got {value!r}")
    return value


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what}: expected a list, got {type(value).__name__}")
    return value


def _owner(value: Any, what: str) -> Owner:
    if not isinstance(value, str) or value not in _OWNERS:
        raise ValueError(f"{what}: owner must be 'leader' or 'follower'")
    return _OWNERS[value]


def graph_to_dict(graph: BisGraph) -> dict:
    return {
        "type": "graph",
        "vertices": [
            {"id": v.id, "owner": v.owner.value, "wl": v.wl, "wf": v.wf}
            for v in graph.vertices
        ],
        "edges": [[u, v] for u, v in graph.edges],
    }


def graph_from_dict(data: dict) -> BisGraph:
    _require_doc(data, "graph", {"vertices", "edges"})
    vertices = []
    for entry in _list(data["vertices"], "vertices"):
        _require_keys(entry, {"id", "owner", "wl", "wf"}, "vertex")
        vertices.append(
            Vertex(
                id=_int(entry["id"], "vertex id"),
                owner=_owner(entry["owner"], "vertex"),
                wl=_int(entry["wl"], "wl"),
                wf=_int(entry["wf"], "wf"),
            )
        )
    edges = []
    for pair in _list(data["edges"], "edges"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"edge must be a pair, got {pair!r}")
        edges.append((_int(pair[0], "edge"), _int(pair[1], "edge")))
    return BisGraph(tuple(vertices), tuple(edges))


def intervals_to_dict(instance: IntervalInstance) -> dict:
    return {
        "type": "intervals",
        "intervals": [
            {
                "id": iv.id,
                "start": iv.start,
                "end": iv.end,
                "owner": iv.owner.value,
                "wl": iv.wl,
                "wf": iv.wf,
            }
            for iv in instance.intervals
        ],
    }


def intervals_from_dict(data: dict) -> IntervalInstance:
    _require_doc(data, "intervals", {"intervals"})
    intervals = []
    for entry in _list(data["intervals"], "intervals"):
        _require_keys(
            entry, {"id", "start", "end", "owner", "wl", "wf"}, "interval"
        )
        intervals.append(
            Interval(
                id=_int(entry["id"], "interval id"),
                start=_int(entry["start"], "start"),
                end=_int(entry["end"], "end"),
                owner=_owner(entry["owner"], "interval"),
                wl=_int(entry["wl"], "wl"),
                wf=_int(entry["wf"], "wf"),
            )
        )
    return IntervalInstance(tuple(intervals))


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("instance file needs a 'type' field")
    if data["type"] == "graph":
        return graph_from_dict(data)
    if data["type"] == "intervals":
        return intervals_from_dict(data)
    raise ValueError(f"unknown instance type {data['type']!r}")


def outcome_to_dict(outcome: BilevelOutcome) -> dict:
    return {
        "leader_value": outcome.leader_value,
        "follower_value": outcome.follower_value,
        "leader_set": sorted(outcome.leader_set),
        "follower_set": sorted(outcome.follower_set),
    }


def outcome_from_dict(data: dict) -> BilevelOutcome:
    _require_keys(
        data,
        {"leader_value", "follower_value", "leader_set", "follower_set"},
        "outcome",
    )
    return BilevelOutcome(
        leader_set=frozenset(
            _int(v, "leader_set") for v in _list(data["leader_set"], "leader_set")
        ),
        follower_set=frozenset(
            _int(v, "follower_set")
            for v in _list(data["follower_set"], "follower_set")
        ),
        leader_value=_int(data["leader_value"], "leader_value"),
        follower_value=_int(data["follower_value"], "follower_value"),
    )


def b2cnf_to_dict(formula: B2cnfFormula) -> dict:
    return {
        "type": "b2cnf",
        "n1": formula.n1,
        "n2": formula.n2,
        "clauses": [
            [
                {"side": lit.side, "var": lit.var, "neg": lit.negated}
                for lit in clause
            ]
            for clause in formula.clauses
        ],
    }


def b2cnf_from_dict(data: dict) -> B2cnfFormula:
    _require_doc(data, "b2cnf", {"n1", "n2", "clauses"})
    clauses = []
    for raw in _list(data["clauses"], "clauses"):
        lits = []
        for entry in _list(raw, "clause"):
            _require_keys(entry, {"side", "var", "neg"}, "literal")
            if not isinstance(entry["neg"], bool):
                raise ValueError("literal 'neg' must be a boolean")
            lits.append(
                Literal(entry["side"], _int(entry["var"], "var"), entry["neg"])
            )
        clauses.append(tuple(lits))
    return B2cnfFormula(
        _int(data["n1"], "n1"), _int(data["n2"], "n2"), tuple(clauses)
    )


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def save(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(data))


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
