import argparse
import json
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilevelis.cli import build_parser, main
from bilevelis.core import (
    ALL_VARIANTS,
    BilevelOutcome,
    BisGraph,
    Interval,
    IntervalInstance,
    Owner,
    Variant,
    Vertex,
)
from bilevelis.fixtures import g1, i1
from bilevelis.follower import react
from bilevelis.randgen import gen_random_graph
from bilevelis.reductions import B2cnfFormula, Literal
from bilevelis.serialize import (
    b2cnf_from_dict,
    b2cnf_to_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    instance_from_dict,
    intervals_from_dict,
    intervals_to_dict,
    outcome_from_dict,
    outcome_to_dict,
)
from helpers import deep_follower_path

LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


owners = st.sampled_from([LEAD, FOLL])


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    vertices = tuple(
        Vertex(i, draw(owners), draw(st.integers(0, 9)), draw(st.integers(0, 9)))
        for i in range(n)
    )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(p for p in pairs if draw(st.booleans()))
    return BisGraph(vertices, edges)


@st.composite
def interval_instances(draw):
    n = draw(st.integers(0, 8))
    intervals = []
    for i in range(n):
        start = draw(st.integers(0, 20))
        end = draw(st.integers(start + 1, 22))
        intervals.append(
            Interval(i, start, end, draw(owners),
                     draw(st.integers(0, 9)), draw(st.integers(0, 9)))
        )
    return IntervalInstance(tuple(intervals))


@st.composite
def b2cnf_formulas(draw):
    n1, n2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    sides = [side for side, n in (("X", n1), ("Y", n2)) if n]
    if not sides:
        return B2cnfFormula(n1, n2, ())

    @st.composite
    def literals(draw):
        side = draw(st.sampled_from(sides))
        var = draw(st.integers(1, n1 if side == "X" else n2))
        return Literal(side, var, draw(st.booleans()))

    clauses = draw(st.lists(st.tuples(literals(), literals(), literals()), max_size=4))
    return B2cnfFormula(n1, n2, tuple(clauses))


class TestRoundTrips:
    @given(graphs())
    def test_graph(self, graph):
        assert graph_from_dict(graph_to_dict(graph)) == graph

    @given(interval_instances())
    def test_intervals(self, instance):
        assert intervals_from_dict(intervals_to_dict(instance)) == instance

    def test_outcome(self):
        out = BilevelOutcome(frozenset({0, 2}), frozenset({1}), 7, 8)
        assert outcome_from_dict(outcome_to_dict(out)) == out

    @given(
        st.frozensets(st.integers()), st.frozensets(st.integers()),
        st.integers(), st.integers(),
    )
    def test_outcome_round_trips(self, leader_set, follower_set, lv, fv):
        out = BilevelOutcome(leader_set, follower_set, lv, fv)
        assert outcome_from_dict(outcome_to_dict(out)) == out

    @given(b2cnf_formulas())
    def test_b2cnf_round_trips(self, formula):
        assert b2cnf_from_dict(b2cnf_to_dict(formula)) == formula

    def test_b2cnf(self):
        formula = B2cnfFormula(
            2, 1,
            ((Literal("X", 1, True), Literal("X", 2, False), Literal("Y", 1, True)),),
        )
        assert b2cnf_from_dict(b2cnf_to_dict(formula)) == formula

    def test_json_text_round_trip(self):
        text = dumps(graph_to_dict(g1()))
        assert graph_from_dict(json.loads(text)) == g1()


class TestLoaderErrors:
    """Each loader names the type it expected before any field check."""

    @pytest.mark.parametrize("loader, kind, doc", [
        (graph_from_dict, "graph", intervals_to_dict(i1())),
        (intervals_from_dict, "intervals", graph_to_dict(g1())),
        (b2cnf_from_dict, "b2cnf", graph_to_dict(g1())),
    ], ids=["graph", "intervals", "b2cnf"])
    def test_wrong_type_named_first(self, loader, kind, doc):
        with pytest.raises(
            ValueError, match=f"^expected type '{kind}', got '{doc['type']}'$"
        ):
            loader(doc)

    def test_missing_type_is_a_missing_field(self):
        data = graph_to_dict(g1())
        del data["type"]
        with pytest.raises(ValueError, match=r"missing fields \['type'\]"):
            graph_from_dict(data)

    def test_literal_neg_must_be_a_bool(self):
        data = b2cnf_to_dict(B2cnfFormula(1, 0, ((Literal("X", 1, False),) * 3,)))
        data["clauses"][0][1]["neg"] = 0
        with pytest.raises(ValueError, match="'neg' must be a boolean"):
            b2cnf_from_dict(data)

    def test_literal_var_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            Literal("X", 0, False)


class TestStrictness:
    def test_unknown_field_rejected(self):
        data = graph_to_dict(g1())
        data["color"] = "blue"
        with pytest.raises(ValueError, match="unknown fields"):
            graph_from_dict(data)

    def test_missing_field_rejected(self):
        data = graph_to_dict(g1())
        del data["edges"]
        with pytest.raises(ValueError, match="missing fields"):
            graph_from_dict(data)

    def test_unknown_vertex_field(self):
        data = graph_to_dict(g1())
        data["vertices"][0]["id2"] = 5
        with pytest.raises(ValueError):
            graph_from_dict(data)

    def test_wrong_type_discriminator(self):
        data = intervals_to_dict(i1())
        data["type"] = "graph"
        with pytest.raises(ValueError):
            instance_from_dict(data)

    def test_bool_is_not_an_integer(self):
        data = graph_to_dict(g1())
        data["vertices"][0]["wl"] = True
        with pytest.raises(ValueError):
            graph_from_dict(data)

    def test_outcome_id_list_must_be_a_list(self):
        data = outcome_to_dict(BilevelOutcome(frozenset({0}), frozenset(), 5, 1))
        data["leader_set"] = 0
        with pytest.raises(ValueError, match="expected a list"):
            outcome_from_dict(data)


def run_cli(*argv) -> int:
    return main(list(argv))


def _graph_body(vertices, edges):
    return {"type": "graph", "vertices": vertices, "edges": edges}


def _b2cnf_body(clauses):
    return {"type": "b2cnf", "n1": 1, "n2": 1, "clauses": clauses}


# Leader items 0 and 1 conflict: adjacent vertices, overlapping intervals.
_CONFLICTING_LEADERS = [
    BisGraph(
        (Vertex(0, LEAD, 2, 3), Vertex(1, LEAD, 4, 1), Vertex(2, FOLL, 1, 5)),
        ((0, 1),),
    ),
    IntervalInstance((
        Interval(0, 0, 2, LEAD, 2, 3),
        Interval(1, 1, 3, LEAD, 4, 1),
        Interval(2, 3, 4, FOLL, 1, 5),
    )),
]


class TestCli:
    def test_gen_graph_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "graph", "--n", "12", "--seed", "7", "--bipartite"]
        assert run_cli(*args, "--output", str(out1)) == 0
        assert run_cli(*args, "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gen_intervals_determinism_and_validity(self, tmp_path):
        out = tmp_path / "iv.json"
        assert run_cli(
            "gen", "intervals", "--n", "30", "--coord-max", "50",
            "--seed", "3", "--output", str(out),
        ) == 0
        inst = instance_from_dict(json.loads(out.read_text()))
        assert len(inst) == 30
        assert all(iv.start < iv.end for iv in inst.intervals)

    def test_solve_intervals(self, tmp_path, capsys):
        path = tmp_path / "i1.json"
        path.write_text(dumps(intervals_to_dict(i1())))
        assert run_cli("solve-intervals", "--setting", "o", "--input", str(path)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["leader_value"] == 6
        assert data["leader_set"] == [1]

    def test_solve_graph_routes_variants(self, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(dumps(graph_to_dict(g1())))
        for variant, expected in [("cb-db-o", 5), ("cs-ds-o", 7), ("cs-db-p", 7)]:
            assert run_cli(
                "solve", "--variant", variant, "--input", str(path)
            ) == 0
            assert json.loads(capsys.readouterr().out)["leader_value"] == expected

    def test_follower_command(self, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(dumps(graph_to_dict(g1())))
        assert run_cli(
            "follower", "--variant", "cs-ds-p", "--leader", "",
            "--input", str(path),
        ) == 0
        assert json.loads(capsys.readouterr().out)["follower_set"] == [1]

    def test_follower_verify_and_solve_agree_on_an_odd_cycle(
        self, tmp_path, capsys
    ):
        """A ``cs-db-o`` follower whose eligible pool is a triangle: the
        reaction is a max-leader-weight independent set there, which
        ``follower`` answers through the same brute fallback as ``verify``
        and ``solve``."""
        graph = BisGraph(
            (Vertex(0, LEAD, 1, 1),)
            + tuple(Vertex(i, FOLL, i, 1) for i in (1, 2, 3)),
            ((1, 2), (1, 3), (2, 3)),
        )
        path = tmp_path / "triangle.json"
        path.write_text(dumps(graph_to_dict(graph)))
        args = ("--variant", "cs-db-o", "--input", str(path))
        assert run_cli("follower", *args, "--leader", "0") == 0
        follower = json.loads(capsys.readouterr().out)
        assert follower["follower_set"] == [3]
        assert follower["leader_value"] == 4
        assert run_cli("solve", *args) == 0
        solved = json.loads(capsys.readouterr().out)
        assert solved["leader_set"] == [0]
        assert solved["follower_set"] == follower["follower_set"]
        assert solved["leader_value"] == follower["leader_value"]
        assert run_cli("verify", *args, "--leader", "0", "--claimed", "4") == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_brute_matches_solve(self, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(dumps(graph_to_dict(g1())))
        assert run_cli("brute", "--variant", "cs-ds-o", "--input", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["leader_value"] == 7

    def test_brute_intervals(self, tmp_path, capsys):
        path = tmp_path / "i1.json"
        path.write_text(dumps(intervals_to_dict(i1())))
        assert run_cli(
            "brute-intervals", "--setting", "p", "--input", str(path)
        ) == 0
        assert json.loads(capsys.readouterr().out)["leader_value"] == 6

    def test_verify_command(self, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(dumps(graph_to_dict(g1())))
        assert run_cli(
            "verify", "--variant", "cb-db-p", "--leader", "0",
            "--claimed", "5", "--input", str(path),
        ) == 0
        assert capsys.readouterr().out.strip() == "true"
        run_cli(
            "verify", "--variant", "cb-db-p", "--leader", "0",
            "--claimed", "6", "--input", str(path),
        )
        assert capsys.readouterr().out.strip() == "false"

    def test_reduce_emits_graph_and_metadata(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        dst = tmp_path / "red.json"
        src.write_text(dumps(graph_to_dict(
            BisGraph(
                tuple(Vertex(i, LEAD, 1, 1) for i in range(3)),
                ((0, 1), (1, 2), (0, 2)),
            )
        )))
        assert run_cli(
            "reduce", "vc", "--k", "2", "--input", str(src), "--output", str(dst)
        ) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["thresholds"]["cb-db-p"] == 1
        reduced = instance_from_dict(json.loads(dst.read_text()))
        assert len(reduced.vertices) == 9

    def test_reduce_b2cnf(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        dst = tmp_path / "red.json"
        formula = B2cnfFormula(
            1, 1, ((Literal("X", 1, True),) * 3,)
        )
        src.write_text(dumps(b2cnf_to_dict(formula)))
        assert run_cli(
            "reduce", "b2cnf", "--input", str(src), "--output", str(dst)
        ) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["constants"]["R"] == 1 + 1 + 2
        assert meta["vertices"] == 9

    def test_bench_rows(self, capsys):
        assert run_cli("bench", "--sizes", "10,20", "--seed", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("10,") and lines[1].startswith("20,")

    def test_exit_code_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "graph", "vertices": [], "edges": [], "x": 1}')
        assert run_cli("solve", "--variant", "cs-ds-o", "--input", str(bad)) == 2

    @pytest.mark.parametrize("command, body", [
        (["solve", "--variant", "cs-ds-o"], _graph_body(5, [])),
        (["solve", "--variant", "cs-ds-o"], _graph_body([], 5)),
        (["solve-intervals", "--setting", "o"],
         {"type": "intervals", "intervals": None}),
        (["reduce", "b2cnf"], _b2cnf_body(5)),
        (["reduce", "b2cnf"], _b2cnf_body([5])),
        (["solve", "--variant", "cs-ds-o"], _graph_body(
            [{"id": 0, "owner": ["leader"], "wl": 1, "wf": 1}], [])),
    ])
    def test_exit_code_malformed_container(self, tmp_path, command, body):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert run_cli(
            *command, "--input", str(path), "--output", str(tmp_path / "out.json")
        ) == 2

    @pytest.mark.parametrize("instance", _CONFLICTING_LEADERS,
                             ids=["graph", "intervals"])
    def test_infeasible_leader_action_rejected(self, tmp_path, instance):
        path = tmp_path / "inst.json"
        if isinstance(instance, BisGraph):
            path.write_text(dumps(graph_to_dict(instance)))
        else:
            path.write_text(dumps(intervals_to_dict(instance)))
        assert run_cli(
            "follower", "--variant", "cs-ds-o", "--leader", "0,1",
            "--input", str(path),
        ) == 2
        with pytest.raises(ValueError, match="not feasible"):
            react(instance, {0, 1}, Variant.from_code("cs-ds-o"))

    def test_follower_on_deep_flow_path(self, tmp_path):
        path = tmp_path / "path.json"
        path.write_text(dumps(graph_to_dict(deep_follower_path(1200))))
        assert run_cli(
            "follower", "--variant", "cs-ds-o", "--leader", "",
            "--input", str(path),
        ) == 0

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli("solve", "--variant", "cs-ds-o", "--input", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_exit_code_missing_file(self, tmp_path):
        assert run_cli(
            "solve", "--variant", "cs-ds-o", "--input", str(tmp_path / "nope.json")
        ) == 2

    def test_exit_code_infeasible(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps(graph_to_dict(BisGraph((), ()))))
        assert run_cli("solve", "--variant", "cs-ds-o", "--input", str(path)) == 1

    def test_exit_code_cap_exceeded(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(dumps(graph_to_dict(
            gen_random_graph(18, 0.3, 0.5, 5, seed=0)
        )))
        assert run_cli(
            "brute", "--variant", "cs-ds-o", "--input", str(path), "--cap", "16"
        ) == 3

    def test_brute_cap_default_follows_the_mode(self, tmp_path, capsys):
        """``brute --leader`` enumerates reactions only, so its default cap
        is ``brute_follower``'s 22 follower items, not ``brute_force``'s 16
        vertices; an explicit ``--cap`` still wins in both modes."""
        clique = BisGraph(
            tuple(Vertex(i, FOLL, i % 3, 1) for i in range(20)),
            tuple(combinations(range(20), 2)),
        )
        path = tmp_path / "clique.json"
        path.write_text(dumps(graph_to_dict(clique)))
        args = ("brute", "--variant", "cs-ds-o", "--input", str(path))
        assert run_cli(*args, "--leader", "") == 0
        assert json.loads(capsys.readouterr().out)["follower_set"] == [2]
        assert run_cli(*args) == 3
        assert run_cli(*args, "--leader", "", "--cap", "19") == 3
        assert run_cli(*args, "--cap", "20") == 0

    def test_exit_code_bad_parameter(self):
        assert run_cli("bench", "--sizes", "20,10") == 2

    @pytest.mark.parametrize("sizes", [",", "", " , "])
    def test_bench_without_sizes(self, capsys, sizes):
        assert run_cli("bench", "--sizes", sizes) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no sizes given\n"

    @pytest.mark.parametrize("command, instance", [
        (["brute", "--variant", "cs-ds-o"], g1()),
        (["brute", "--variant", "cs-ds-o", "--leader", "0"], g1()),
        (["brute-intervals", "--setting", "o"], i1()),
    ], ids=["brute", "brute-leader", "brute-intervals"])
    def test_negative_cap_is_a_bad_parameter(self, tmp_path, command, instance):
        path = tmp_path / "inst.json"
        if isinstance(instance, BisGraph):
            path.write_text(dumps(graph_to_dict(instance)))
        else:
            path.write_text(dumps(intervals_to_dict(instance)))
        assert run_cli(*command, "--input", str(path), "--cap", "-1") == 2

    @pytest.mark.parametrize("command, body, field", [
        (["reduce", "b2cnf"],
         {"type": "b2cnf", "n1": -1, "n2": 1, "clauses": []}, "n1"),
        (["reduce", "is", "--k", "-3"], _graph_body([], []), "k"),
    ], ids=["b2cnf-n1", "is-k"])
    def test_negative_reduction_parameter(
        self, tmp_path, capsys, command, body, field
    ):
        path = tmp_path / "src.json"
        path.write_text(json.dumps(body))
        assert run_cli(
            *command, "--input", str(path), "--output", str(tmp_path / "out.json")
        ) == 2
        assert f"{field} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2", "-3"])
    def test_b2cnf_reduction_takes_no_k(self, tmp_path, capsys, k):
        path = tmp_path / "src.json"
        path.write_text(json.dumps(_b2cnf_body([])))
        out = tmp_path / "out.json"
        assert run_cli(
            "reduce", "b2cnf", "--k", k, "--input", str(path), "--output", str(out)
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reduction 'b2cnf' takes no --k\n"
        assert not out.exists()

    def test_gen_rejects_bad_probability(self, tmp_path):
        assert run_cli(
            "gen", "graph", "--n", "5", "--edge-prob", "1.5",
            "--output", str(tmp_path / "x.json"),
        ) == 2

    @pytest.mark.parametrize("kind, extra, option", [
        ("graph", ["--coord-max", "5"], "--coord-max"),
        ("intervals", ["--edge-prob", "0.9"], "--edge-prob"),
        ("intervals", ["--bipartite"], "--bipartite"),
    ], ids=["graph-coord-max", "intervals-edge-prob", "intervals-bipartite"])
    def test_gen_rejects_an_option_of_the_other_kind(
        self, tmp_path, capsys, kind, extra, option
    ):
        out = tmp_path / "x.json"
        assert run_cli("gen", kind, "--n", "3", *extra, "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gen {kind} takes no {option}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    (["solve", "--variant", "cs-ds-o"], intervals_to_dict(i1())),
    (["brute", "--variant", "cs-ds-o"], intervals_to_dict(i1())),
    (["verify", "--variant", "cs-ds-o", "--leader", "", "--claimed", "0"],
     intervals_to_dict(i1())),
    (["reduce", "vc", "--k", "1", "--output", "OUT"], intervals_to_dict(i1())),
    (["solve-intervals", "--setting", "o"], graph_to_dict(g1())),
    (["brute-intervals", "--setting", "o"], graph_to_dict(g1())),
], ids=["solve", "brute", "verify", "reduce-vc", "solve-intervals",
        "brute-intervals"])
def test_wrong_type_file_exits_2_naming_the_type(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(dumps(doc))
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in command]
    assert run_cli(*argv, "--input", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "intervals" if doc["type"] == "graph" else "graph"
    assert captured.err == (
        f"error: expected type {expected!r}, got {doc['type']!r}\n"
    )
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("code", [v.code for v in ALL_VARIANTS])
def test_solve_empty_graph_is_infeasible(tmp_path, capsys, code):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_graph_body([], [])))
    assert run_cli("solve", "--variant", code, "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible: ")


@pytest.mark.parametrize("setting", ["o", "p"])
def test_solve_intervals_on_empty_file(tmp_path, capsys, setting):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"type": "intervals", "intervals": []}))
    assert run_cli("solve-intervals", "--setting", setting, "--input", str(path)) == 0
    assert json.loads(capsys.readouterr().out) == {
        "leader_value": 0, "follower_value": 0,
        "leader_set": [], "follower_set": [],
    }


@pytest.mark.parametrize("edge", [[0], [0, 1, 2], "0-1", {"u": 0}])
def test_edge_that_is_not_a_pair_exits_2(tmp_path, capsys, edge):
    vertices = [
        {"id": v, "owner": "follower", "wl": 1, "wf": 1} for v in range(3)
    ]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_graph_body(vertices, [edge])))
    assert run_cli("solve", "--variant", "cs-db-p", "--input", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "edge must be a pair" in captured.err


def test_repeated_main_calls_reuse_one_parser(tmp_path, capsys, monkeypatch):
    """A mixed sequence of ``main`` calls gives the same exit code, stdout
    and stderr when run again in reverse order in the same process, and
    only the first call of the process builds argument parsers."""
    graph, intervals = tmp_path / "g1.json", tmp_path / "i1.json"
    graph.write_text(dumps(graph_to_dict(g1())))
    intervals.write_text(dumps(intervals_to_dict(i1())))
    sequence = [
        ["solve", "--variant", "cs-ds-o", "--input", str(graph)],
        ["follower", "--variant", "cs-ds-p", "--leader", "0",
         "--input", str(graph)],
        ["follower", "--variant", "cs-ds-o", "--leader", "",
         "--input", str(intervals)],
        ["verify", "--variant", "cs-ds-o", "--leader", "0", "--claimed", "2",
         "--input", str(graph)],
        ["solve", "--variant", "cs-ds-o", "--input", str(intervals)],
        ["solve", "--input", str(graph)],
        ["--help"],
    ]
    constructed = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()

    def run(argv):
        before = constructed
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return (code, captured.out, captured.err), constructed - before

    first, built = zip(*(run(argv) for argv in sequence))
    assert built == (10, 0, 0, 0, 0, 0, 0)
    assert [result[0] for result in first] == [
        0, 0, 0, 0, 2, ("exit", 2), ("exit", 0),
    ]
    assert first[4][2] == "error: expected type 'graph', got 'intervals'\n"
    assert "the following arguments are required: --variant" in first[5][2]
    assert first[6][1].startswith("usage: bilevelis")

    second, built = zip(*(run(argv) for argv in reversed(sequence)))
    assert built == (0,) * len(sequence)
    assert second[::-1] == first
