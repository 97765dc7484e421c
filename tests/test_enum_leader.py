"""Branch-and-bound leader enumeration against the unpruned reference."""

import dataclasses
import itertools
import random
import time
import tracemalloc

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
    """Counts ``react`` calls of the solver and the reference."""
    calls = [0]
    oracle = bis_solvers.react

    def counted(*args):
        calls[0] += 1
        return oracle(*args)

    monkeypatch.setattr(bis_solvers, "react", counted)
    monkeypatch.setattr(helpers, "react", counted)
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


@pytest.fixture
def view_keys(monkeypatch):
    """Records the view key of every leader action the search visits."""
    keys = []
    view_key = bis_solvers._view_key

    def recorded(*args):
        keys.append(view_key(*args))
        return keys[-1]

    monkeypatch.setattr(bis_solvers, "_view_key", recorded)
    return keys


@pytest.fixture
def no_view_cache(monkeypatch):
    """Gives every visited action a view of its own, so that the search
    asks the oracle once per action, as it would without the view cache."""
    fresh = itertools.count()
    monkeypatch.setattr(bis_solvers, "_view_key", lambda *args: next(fresh))


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


def _heavy_followers(graph):
    """``graph`` with every follower's ``wl`` multiplied by 10, so that
    follower weight dominates the sum leader's bound."""
    return BisGraph(
        tuple(
            v if v.owner is Owner.LEADER
            else dataclasses.replace(v, wl=10 * v.wl)
            for v in graph.vertices
        ),
        graph.edges,
    )


def test_matches_unpruned_reference(oracle_calls):
    # Equal outcomes include equal error types.  In particular no case has
    # the reference raise OracleUnavailable while the pruned search returns:
    # only a sum follower's oracle raises it, on an odd cycle among the
    # followers an action leaves free, and the empty action, asked first
    # and never skipped, leaves them all free.  The heavy-follower copies
    # test the cs-db-p bound, which leaves follower weight out even at the
    # root.
    graphs = list(_differential_graphs(320))
    for graph in graphs + [_heavy_followers(g) for g in graphs]:
        for variant in ALL_VARIANTS:
            want, ref_calls = _run(
                reference_solve_enum_leader, graph, variant, oracle_calls
            )
            got, calls = _run(solve_enum_leader, graph, variant, oracle_calls)
            assert got == want, (graph, variant.code)
            assert calls <= ref_calls


@pytest.mark.parametrize(
    "code, visits, value",
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
def test_oracle_calls_on_baseline_graph(
    oracle_calls, view_keys, code, visits, value
):
    # 17 leaders, 43,008 feasible leader actions.  The pruned search visits
    # `visits` of them and asks the oracle once per distinct view among
    # those.
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    assert solve_enum_leader(graph, V(code)).leader_value == value
    assert len(view_keys) == visits
    assert oracle_calls[0] == len(set(view_keys))


@pytest.mark.parametrize(
    "code, views",
    [
        ("cs-ds-o", 232),
        ("cs-ds-p", 233),
        ("cs-db-o", 340),
        ("cs-db-p", 25),
        ("cb-db-o", 3),
        ("cb-db-p", 149),
        ("cb-ds-o", 241),
        ("cb-ds-p", 241),
    ],
)
def test_views_on_baseline_graph(oracle_calls, code, views):
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    solve_enum_leader(graph, V(code))
    assert oracle_calls[0] == views


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
def test_kernel_calls_on_baseline_graph(
    kernel_calls, no_view_cache, code, calls
):
    # One oracle call per visited action.  One kernel call per sum-follower
    # reaction, one per cs-db-o pool, and for cb-ds-* the target call plus
    # the threshold or forced-vertex calls.
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    solve_enum_leader(graph, V(code))
    assert kernel_calls[0] == calls


@pytest.mark.parametrize(
    "code, calls",
    [
        ("cs-ds-o", 232),
        ("cs-ds-p", 233),
        ("cs-db-o", 340),
        ("cs-db-p", 0),
        ("cb-db-o", 0),
        ("cb-db-p", 0),
        # 2,250 calls with the linear threshold scan
        ("cb-ds-o", 924),
        ("cb-ds-p", 482),
    ],
)
def test_kernel_calls_with_view_cache(kernel_calls, code, calls):
    # As above, but once per distinct view.
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    solve_enum_leader(graph, V(code))
    assert kernel_calls[0] == calls


def _isolated_leaders():
    """1,500 isolated leaders and one follower."""
    n = 1500
    return BisGraph(
        tuple(Vertex(i, Owner.LEADER, 1 + i % 5, 1) for i in range(n))
        + (Vertex(n, Owner.FOLLOWER, 0, 1),),
        (),
    )


def test_cli_solve_many_independent_leaders(tmp_path, capsys, oracle_calls):
    # 1,500 isolated leaders and one follower: an action of 1,500 leaders
    # would exhaust the recursion limit of a recursive search.
    graph = _isolated_leaders()
    path = tmp_path / "many.json"
    path.write_text(dumps(graph_to_dict(graph)))
    began = time.perf_counter()
    assert main(["solve", "--variant", "cs-ds-o", "--input", str(path)]) == 0
    assert time.perf_counter() - began < 60
    out, err = capsys.readouterr()
    assert '"leader_value": 4500' in out
    assert "Traceback" not in err
    # the search visits every prefix of the full action, then every sibling
    # loop breaks at once; those actions share two views, empty and not
    assert oracle_calls[0] == 2


def test_search_memory_on_many_independent_leaders():
    # The stack grows to 1,501 entries.  Entries that each held their own
    # copy of the action would need memory quadratic in its size (about
    # 9 MiB here); one `chosen` list beside the stack keeps the peak,
    # adjacency and oracle calls included, near 0.8 MiB.
    graph = _isolated_leaders()
    tracemalloc.start()
    try:
        outcome = solve_enum_leader(graph, V("cs-ds-o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.leader_value == 4500
    assert peak < 2 * 2**20


# Hand-built graphs on which a view cache with a wrong key changes the
# outcome: each pair of actions below shares all of its view but one part.

def _assert_reference(graph, code, oracle_calls, views):
    want, _ = _run(reference_solve_enum_leader, graph, V(code), oracle_calls)
    got, calls = _run(solve_enum_leader, graph, V(code), oracle_calls)
    assert got == want
    assert calls == views


@pytest.mark.parametrize("code", ["cs-db-o", "cb-db-p"])
def test_views_with_equal_free_sets_and_different_caps(oracle_calls, code):
    # Leaders 0 and 1 are adjacent and see no follower, so the actions (0,)
    # and (1,) leave follower 2 free.  Cap 1 admits it, cap 5 does not:
    # (1,) is answered with the empty reaction and wins with value 6, but
    # with (0,)'s reaction its value would be 8 under cs-db-o, and 2 under
    # cb-db-p, where the empty action would then win a tie at 2.
    graph = BisGraph(
        (
            Vertex(0, Owner.LEADER, 3, 1),
            Vertex(1, Owner.LEADER, 6, 5),
            Vertex(2, Owner.FOLLOWER, 2, 3),
        ),
        ((0, 1),),
    )
    assert solve_enum_leader(graph, V(code)).leader_set == {1}
    _assert_reference(graph, code, oracle_calls, views=3)


def test_empty_and_nonempty_action_with_equal_free_sets(oracle_calls):
    # Leader 0 sees no follower.  The empty action must be answered with a
    # nonempty reaction, so the pessimistic follower takes vertex 1 (value
    # 3); the action (0,) is answered with the empty one (value 1), and
    # with the empty action's reaction it would win with value 4.
    graph = BisGraph(
        (Vertex(0, Owner.LEADER, 1, 0), Vertex(1, Owner.FOLLOWER, 3, 0)), ()
    )
    assert solve_enum_leader(graph, V("cs-ds-p")).leader_set == frozenset()
    _assert_reference(graph, "cs-ds-p", oracle_calls, views=2)


@pytest.mark.parametrize(
    "code, views",
    [
        ("cs-ds-o", 2), ("cs-ds-p", 2), ("cs-db-o", 3), ("cs-db-p", 3),
        ("cb-ds-o", 2), ("cb-ds-p", 2), ("cb-db-o", 4), ("cb-db-p", 4),
    ],
)
def test_leaders_only_graph(oracle_calls, code, views):
    # The empty action is infeasible without followers, and that answer is
    # kept for its view alone: every other action leaves no follower free
    # and is answered by the empty reaction.  One view for the empty action
    # and, for a bottleneck follower, one per cap among the actions the
    # search does not skip: (0,) and (0, 2) under cs-db-*, (0,), (1,) and
    # (2,) under cb-db-*.
    graph = BisGraph(
        tuple(Vertex(i, Owner.LEADER, 2 + i % 3, 4 - i) for i in range(4)),
        ((0, 1), (1, 2), (2, 3)),
    )
    _assert_reference(graph, code, oracle_calls, views)


def test_no_view_is_shared_between_solves(oracle_calls):
    graph = gen_random_graph(40, 0.1, 0.4, 9, bipartite=True, seed=5)
    for variant in ALL_VARIANTS:
        first, calls = _run(solve_enum_leader, graph, variant, oracle_calls)
        again, calls_again = _run(
            solve_enum_leader, graph, variant, oracle_calls
        )
        assert (again, calls_again) == (first, calls)
