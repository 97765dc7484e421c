"""Branch-and-bound leader enumeration against the unpruned reference."""

import random
import time

import pytest

import bilevelis.bis_solvers as bis_solvers
import bilevelis.single_level as single_level
import helpers
from bilevelis.bis_solvers import solve_enum_leader
from bilevelis.cli import main
from bilevelis.core import ALL_VARIANTS, BisGraph, Owner, Variant, Vertex
from bilevelis.randgen import gen_random_graph
from bilevelis.serialize import dumps, graph_to_dict
from helpers import reference_solve_enum_leader

V = Variant.from_code


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts ``_oracle_reaction`` calls of the solver and the reference."""
    calls = [0]
    oracle = bis_solvers._oracle_reaction

    def counted(*args):
        calls[0] += 1
        return oracle(*args)

    monkeypatch.setattr(bis_solvers, "_oracle_reaction", counted)
    monkeypatch.setattr(helpers, "_oracle_reaction", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the min-cut MWIS kernel."""
    calls = [0]
    kernel = single_level._min_cut_mwis

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(single_level, "_min_cut_mwis", counted)
    return calls


def _run(solver, graph, variant, calls):
    """The outcome or the type of the raised error, with the oracle calls
    made on the way."""
    before = calls[0]
    try:
        result = solver(graph, variant)
    except Exception as exc:
        result = type(exc)
    return result, calls[0] - before


def _differential_graphs(count):
    """Seeded graphs with n <= 13, half bipartite, with max weights 0, 1, 2
    and 9 in turn so that ties between actions are common."""
    for seed in range(count):
        rng = random.Random(seed)
        yield gen_random_graph(
            rng.randint(1, 13), rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.6),
            (0, 1, 2, 9)[seed // 2 % 4], bipartite=seed % 2 == 0, seed=seed,
        )


def test_matches_unpruned_reference(oracle_calls):
    # Equal outcomes include equal error types.  In particular no case has
    # the reference raise OracleUnavailable while the pruned search returns:
    # only a sum follower's oracle raises it, on an odd cycle among the
    # followers an action leaves free, and the empty action, asked first
    # and never skipped, leaves them all free.
    for graph in _differential_graphs(320):
        for variant in ALL_VARIANTS:
            want, ref_calls = _run(
                reference_solve_enum_leader, graph, variant, oracle_calls
            )
            got, calls = _run(solve_enum_leader, graph, variant, oracle_calls)
            assert got == want, (graph, variant.code)
            assert calls <= ref_calls


@pytest.mark.parametrize(
    "code, calls, value",
    [
        ("cs-ds-o", 2230, 113),
        ("cs-ds-p", 2232, 113),
        ("cs-db-o", 2594, 112),
        ("cs-db-p", 39, 50),
        ("cb-db-o", 3, 9),
        ("cb-db-p", 1920, 1),
        ("cb-ds-o", 6912, 0),
        ("cb-ds-p", 6912, 0),
    ],
)
def test_oracle_calls_on_baseline_graph(oracle_calls, code, calls, value):
    # 17 leaders, 43,008 feasible leader actions, each asked without pruning
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    assert solve_enum_leader(graph, V(code)).leader_value == value
    assert oracle_calls[0] == calls


@pytest.mark.parametrize(
    "code, calls",
    [
        ("cs-ds-o", 2230),
        ("cs-ds-p", 2232),
        ("cs-db-o", 2594),
        ("cs-db-p", 0),
        ("cb-db-o", 0),
        ("cb-db-p", 0),
        # the binary threshold search: 63,072 calls with the linear scan
        ("cb-ds-o", 25920),
        ("cb-ds-p", 13824),
    ],
)
def test_kernel_calls_on_baseline_graph(kernel_calls, code, calls):
    # One kernel call per sum-follower reaction, one per cs-db-o pool, and
    # for cb-ds-* the target call plus the threshold or forced-vertex calls.
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    solve_enum_leader(graph, V(code))
    assert kernel_calls[0] == calls


def test_cli_solve_many_independent_leaders(tmp_path, capsys, oracle_calls):
    # 1,500 isolated leaders and one follower: an action of 1,500 leaders
    # would exhaust the recursion limit of a recursive search.
    n = 1500
    graph = BisGraph(
        tuple(Vertex(i, Owner.LEADER, 1 + i % 5, 1) for i in range(n))
        + (Vertex(n, Owner.FOLLOWER, 0, 1),),
        (),
    )
    path = tmp_path / "many.json"
    path.write_text(dumps(graph_to_dict(graph)))
    began = time.perf_counter()
    assert main(["solve", "--variant", "cs-ds-o", "--input", str(path)]) == 0
    assert time.perf_counter() - began < 60
    out, err = capsys.readouterr()
    assert '"leader_value": 4500' in out
    assert "Traceback" not in err
    # one oracle call per prefix of the full action, then every sibling
    # loop breaks at once
    assert oracle_calls[0] == n + 1
