"""Property tests for the command line: whatever JSON an input file holds,
every file-reading command ends in one of the documented exit codes and
no exception escapes ``main``.

Documents start graph-, interval- or b2cnf-shaped and are then corrupted
(a field replaced by an arbitrary JSON value, dropped, or an extra field
added), or are arbitrary JSON outright.  Files go to a ``tempfile``
directory because pytest's ``tmp_path`` is shared by all examples of a
``@given`` test.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bilevelis.brute import brute_follower, brute_force
from bilevelis.cli import main
from bilevelis.core import ALL_VARIANTS, Variant
from bilevelis.errors import Infeasible
from bilevelis.serialize import graph_from_dict

MAX_ITEMS = 6

json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=MAX_ITEMS)
    | st.dictionaries(st.text(max_size=8), inner, max_size=MAX_ITEMS),
    max_leaves=12,
)
owners = st.sampled_from(["leader", "follower"])
weights = st.integers(0, 9)


@st.composite
def graph_docs(draw):
    n = draw(st.integers(0, MAX_ITEMS))
    vertices = [
        {"id": i, "owner": draw(owners), "wl": draw(weights), "wf": draw(weights)}
        for i in range(n)
    ]
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return {"type": "graph", "vertices": vertices, "edges": edges}


@st.composite
def interval_docs(draw):
    intervals = []
    for i in range(draw(st.integers(0, MAX_ITEMS))):
        start = draw(st.integers(0, 12))
        intervals.append({
            "id": i, "start": start, "end": draw(st.integers(start + 1, 14)),
            "owner": draw(owners), "wl": draw(weights), "wf": draw(weights),
        })
    return {"type": "intervals", "intervals": intervals}


@st.composite
def b2cnf_docs(draw):
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    literal = st.fixed_dictionaries({
        "side": st.sampled_from(["X", "Y"]),
        "var": st.integers(1, 3),
        "neg": st.booleans(),
    })
    clauses = draw(st.lists(st.lists(literal, min_size=3, max_size=3), max_size=3))
    return {"type": "b2cnf", "n1": n1, "n2": n2, "clauses": clauses}


def _corrupt(draw, node):
    """Descend to a random node and replace it, drop one of its entries or
    add one."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        node = node.copy()
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        node[key] = _corrupt(draw, node[key])
        return node
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "drop" and isinstance(node, dict) and node:
        node = node.copy()
        del node[draw(st.sampled_from(sorted(node)))]
        return node
    if action == "drop" and isinstance(node, list) and node:
        return node[:-1]
    if action == "add" and isinstance(node, dict):
        return {**node, draw(st.text(max_size=8)): draw(json_values)}
    if action == "add" and isinstance(node, list) and len(node) < MAX_ITEMS:
        return node + [draw(json_values)]
    return draw(json_values)


@st.composite
def documents(draw):
    doc = draw(st.one_of(graph_docs(), interval_docs(), b2cnf_docs(), json_values))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # half stay intact
        doc = _corrupt(draw, doc)
    return doc


variants = st.sampled_from(
    [v.code for v in ALL_VARIANTS] + ["cs-ds", "xx-ds-o", ""]
)
leader_texts = st.one_of(
    st.lists(st.integers(-1, MAX_ITEMS + 1), max_size=3).map(
        lambda ids: ",".join(map(str, ids))
    ),
    st.sampled_from([",", " ", "a", "0,,1"]),
)
caps = st.one_of(st.none(), st.integers(-1, 64))


def _with_cap(argv, cap):
    return argv if cap is None else argv + ["--cap", str(cap)]


@st.composite
def command_lines(draw, command):
    """Arguments besides ``--input``; ``reduce`` writes to ``OUT``.  A
    leader list such as ``-1,0`` must be attached with ``=``, or argparse
    reads it as an option."""
    if command == "solve":
        return ["--variant", draw(variants)]
    if command == "solve-intervals":
        return ["--setting", draw(st.sampled_from("op"))]
    if command == "follower":
        return ["--variant", draw(variants), "--leader=" + draw(leader_texts)]
    if command == "brute":
        argv = ["--variant", draw(variants)]
        if draw(st.booleans()):
            argv += ["--leader=" + draw(leader_texts)]
        return _with_cap(argv, draw(caps))
    if command == "brute-intervals":
        return _with_cap(["--setting", draw(st.sampled_from("op"))], draw(caps))
    if command == "verify":
        return [
            "--variant", draw(variants), "--leader=" + draw(leader_texts),
            "--claimed", str(draw(st.integers(-2, 20))),
        ]
    kind = draw(st.sampled_from(["b2cnf", "vc", "planar-vc", "vc-bipartite", "is"]))
    argv = [kind, "--output", "OUT"]
    k = draw(st.one_of(st.none(), st.integers(-2, 4)))
    return argv if k is None else argv + ["--k", str(k)]


COMMANDS = [
    "solve", "solve-intervals", "follower", "brute", "brute-intervals",
    "verify", "reduce",
]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), doc=documents())
def test_any_input_file_ends_in_a_documented_exit_code(command, data, doc):
    rest = data.draw(command_lines(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        rest = [os.path.join(tmp, "out.json") if a == "OUT" else a for a in rest]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, *rest, "--input", path])
    assert code in {0, 1, 2, 3}


def _ids(text):
    text = text.strip()
    return frozenset(int(p) for p in text.split(",")) if text else frozenset()


@pytest.mark.parametrize("command", ["solve", "follower", "brute"])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), doc=graph_docs())
def test_exit_1_only_where_the_brute_oracle_is_infeasible(command, data, doc):
    """Graphs of at most ``MAX_ITEMS`` vertices stay within the brute caps,
    so a fast path that answers "infeasible" is checked against
    ``brute_force`` (whole game) or ``brute_follower`` (given ``--leader``)."""
    rest = data.draw(command_lines(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, *rest, "--input", path])
    event(f"exit {code}")
    if code != 1:
        return
    graph = graph_from_dict(doc)
    variant = Variant.from_code(rest[1])
    leader = [a.removeprefix("--leader=") for a in rest if a.startswith("--leader=")]
    with pytest.raises(Infeasible):
        if leader:
            brute_follower(graph, _ids(leader[0]), variant)
        else:
            brute_force(graph, variant)
