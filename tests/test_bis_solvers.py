import random

import pytest

from bilevelis.bis_solvers import (
    solve,
    solve_cb_db_o,
    solve_cs_db_o_bipartite,
    solve_cs_db_p_bipartite,
    solve_enum_leader,
    verify_certificate,
)
from bilevelis.brute import brute_force
from bilevelis.core import (
    ALL_VARIANTS,
    BisGraph,
    Owner,
    Variant,
    Vertex,
    evaluate,
    is_independent,
)
from bilevelis.errors import Infeasible, NotBipartite, OracleUnavailable, UnknownId
from bilevelis.fixtures import g1, g2
from bilevelis.randgen import gen_random_graph
from bilevelis.single_level import is_bipartite

V = Variant.from_code
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


def single(owner, wl, wf):
    return BisGraph((Vertex(0, owner, wl, wf),), ())


class TestSolveCbDbO:
    def test_leader_vertex_beats_follower_pick(self):
        out = solve_cb_db_o(g1())
        assert out.leader_value == 5
        assert out.leader_set == frozenset({0})
        assert out.follower_set == frozenset()

    def test_only_follower_branch(self):
        out = solve_cb_db_o(single(FOLL, 9, 1))
        assert out.leader_value == 9
        assert out.leader_set == frozenset()
        assert out.follower_set == frozenset({0})

    def test_only_leader_branch(self):
        out = solve_cb_db_o(single(LEAD, 9, 1))
        assert out.leader_value == 9
        assert out.leader_set == frozenset({0})

    def test_empty_graph(self):
        with pytest.raises(Infeasible):
            solve_cb_db_o(BisGraph((), ()))


class TestSolveCsDbOBipartite:
    def test_four_cycle(self):
        out = solve_cs_db_o_bipartite(g2())
        assert out.leader_value == 7
        assert out.leader_set == frozenset({0, 2})
        assert out.follower_set == frozenset()

    def test_path_collects_both_leader_vertices(self):
        out = solve_cs_db_o_bipartite(g1())
        assert out.leader_value == 7
        assert out.leader_set == frozenset({0, 2})

    def test_no_leader_vertices(self):
        out = solve_cs_db_o_bipartite(single(FOLL, 4, 4))
        assert out.leader_value == 4
        assert out.leader_set == frozenset()

    def test_not_bipartite(self):
        triangle = BisGraph(
            tuple(Vertex(i, LEAD, 1, 1) for i in range(3)),
            ((0, 1), (1, 2), (0, 2)),
        )
        with pytest.raises(NotBipartite):
            solve_cs_db_o_bipartite(triangle)


class TestSolveCsDbPBipartite:
    def test_four_cycle(self):
        out = solve_cs_db_p_bipartite(g2())
        assert out.leader_value == 7
        assert out.leader_set == frozenset({0, 2})
        assert out.follower_set == frozenset()

    def test_all_follower_pessimistic_tie(self):
        graph = BisGraph(
            (Vertex(0, FOLL, 3, 5), Vertex(1, FOLL, 0, 5)), ()
        )
        out = solve_cs_db_p_bipartite(graph)
        assert out.leader_value == 0
        assert out.follower_set == frozenset({1})

    def test_all_leader_single_vertex(self):
        assert solve_cs_db_p_bipartite(single(LEAD, 2, 1)).leader_value == 2


class TestSolveEnumLeader:
    def test_matches_brute_on_fixture(self):
        want = brute_force(g2(), V("cs-ds-o")).leader_value
        assert solve_enum_leader(g2(), V("cs-ds-o")).leader_value == want

    def test_bottleneck_example(self):
        out = solve_enum_leader(g1(), V("cb-db-p"))
        assert out.leader_value == 5
        assert out.leader_set == frozenset({0})

    def test_empty_graph_infeasible(self):
        with pytest.raises(Infeasible):
            solve_enum_leader(BisGraph((), ()), V("cs-ds-o"))

    def test_unavailable_oracle_propagates(self):
        # follower triangle plus one leader vertex: the sum oracle cannot run
        graph = BisGraph(
            (
                Vertex(0, LEAD, 2, 1),
                Vertex(1, FOLL, 1, 1),
                Vertex(2, FOLL, 1, 1),
                Vertex(3, FOLL, 1, 1),
            ),
            ((1, 2), (2, 3), (1, 3)),
        )
        with pytest.raises(OracleUnavailable):
            solve_enum_leader(graph, V("cs-ds-o"))

    @pytest.mark.parametrize(
        "code",
        ["cs-ds-o", "cs-ds-p", "cb-ds-o", "cb-ds-p",
         "cs-db-o", "cs-db-p", "cb-db-o", "cb-db-p"],
    )
    def test_matches_brute_on_random_bipartite(self, code):
        rng = random.Random(code)
        for trial in range(40):
            graph = gen_random_graph(
                rng.randint(1, 11), rng.uniform(0.1, 0.6), 0.5, 6,
                bipartite=True, seed=trial,
            )
            try:
                got = solve_enum_leader(graph, V(code)).leader_value
            except Infeasible:
                with pytest.raises(Infeasible):
                    brute_force(graph, V(code))
                continue
            assert got == brute_force(graph, V(code)).leader_value

    @pytest.mark.parametrize("code", ["cs-db-o", "cs-db-p", "cb-db-o", "cb-db-p"])
    def test_matches_brute_on_random_general_graphs(self, code):
        rng = random.Random(code + "g")
        for trial in range(40):
            graph = gen_random_graph(
                rng.randint(1, 11), rng.uniform(0.2, 0.7), 0.5, 6, seed=trial
            )
            try:
                got = solve_enum_leader(graph, V(code)).leader_value
            except Infeasible:
                with pytest.raises(Infeasible):
                    brute_force(graph, V(code))
                continue
            assert got == brute_force(graph, V(code)).leader_value

    def test_outcome_invariants(self):
        rng = random.Random(77)
        for trial in range(30):
            graph = gen_random_graph(rng.randint(1, 10), 0.4, 0.5, 5,
                                     bipartite=True, seed=trial)
            for code in ["cs-ds-o", "cb-db-p"]:
                try:
                    out = solve_enum_leader(graph, V(code))
                except Infeasible:
                    continue
                union = out.leader_set | out.follower_set
                assert union and is_independent(graph, union)
                variant = V(code)
                assert out.leader_value == evaluate(
                    variant.leader_obj, LEAD, union, graph
                )


class TestVerifyCertificate:
    def test_valid_claim(self):
        assert verify_certificate(g1(), V("cb-db-p"), {0}, 5)

    def test_excessive_claim(self):
        assert not verify_certificate(g1(), V("cb-db-p"), {0}, 6)

    def test_sum_bottleneck_claim(self):
        assert verify_certificate(g2(), V("cs-db-o"), {0, 2}, 7)

    def test_dependent_action_rejected(self):
        assert not verify_certificate(g1(), V("cs-ds-o"), {0, 1}, 0)

    def test_unknown_id_raises_even_beside_follower_id(self):
        # every id is looked up before any owner is checked
        with pytest.raises(UnknownId):
            verify_certificate(g1(), V("cs-ds-o"), {1, 99}, 0)

    def test_dependent_action_rejected_where_oracle_cannot_run(self):
        # follower triangle 0-1-2 beside adjacent leaders 3-4
        graph = BisGraph(
            (Vertex(0, FOLL, 1, 2), Vertex(1, FOLL, 2, 3), Vertex(2, FOLL, 3, 1),
             Vertex(3, LEAD, 4, 1), Vertex(4, LEAD, 2, 2)),
            ((0, 1), (0, 2), (1, 2), (3, 4)),
        )
        with pytest.raises(OracleUnavailable):
            verify_certificate(graph, V("cs-ds-o"), {3}, 0)
        assert not verify_certificate(graph, V("cs-ds-o"), {3, 4}, 0)

    def test_infeasible_empty_action(self):
        graph = single(LEAD, 3, 1)
        assert not verify_certificate(graph, V("cs-ds-o"), frozenset(), 0)

    def test_claims_never_exceed_solver_value(self):
        rng = random.Random(4)
        for trial in range(40):
            graph = gen_random_graph(rng.randint(1, 10), 0.4, 0.5, 5,
                                     bipartite=True, seed=trial)
            for code in ["cs-ds-o", "cs-db-p", "cb-db-o"]:
                try:
                    out = solve_enum_leader(graph, V(code))
                except Infeasible:
                    continue
                assert verify_certificate(
                    graph, V(code), out.leader_set, out.leader_value
                )
                assert not verify_certificate(
                    graph, V(code), out.leader_set, out.leader_value + 1
                )


def leader_triangle_with_follower() -> BisGraph:
    return BisGraph(
        (Vertex(0, LEAD, 4, 2), Vertex(1, LEAD, 3, 5), Vertex(2, LEAD, 1, 3),
         Vertex(3, FOLL, 2, 4)),
        ((0, 1), (0, 2), (1, 2), (0, 3)),
    )


def route_by_two_coloring(graph, variant):
    """The routing table as written out case by case, with an explicit
    two-coloring test in front of the bipartite solvers."""
    if variant.code == "cb-db-o":
        return solve_cb_db_o(graph)
    if variant.code == "cs-db-o" and is_bipartite(graph):
        return solve_cs_db_o_bipartite(graph)
    if variant.code == "cs-db-p" and is_bipartite(graph):
        return solve_cs_db_p_bipartite(graph)
    return solve_enum_leader(graph, variant)


class TestSolve:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.code)
    @pytest.mark.parametrize(
        "graph", [g1(), g2(), leader_triangle_with_follower()],
        ids=["g1", "g2", "triangle"],
    )
    def test_matches_explicit_routing(self, graph, variant):
        assert solve(graph, variant) == route_by_two_coloring(graph, variant)
