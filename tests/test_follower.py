import random

import pytest

from bilevelis.brute import brute_follower
from bilevelis.core import (
    BisGraph,
    CompositeWeight,
    Objective,
    Owner,
    Setting,
    Variant,
    Vertex,
    evaluate,
)
from bilevelis.errors import Infeasible, OracleUnavailable
from bilevelis.fixtures import g1, g2, i1, i2
from bilevelis.follower import (
    _free_followers,
    perturb,
    react,
    react_bottleneck,
    react_intervals,
    react_sum_graph,
    react_sum_graph_bottleneck,
)
from bilevelis.randgen import gen_random_graph, gen_random_intervals
from helpers import (
    random_leader_action,
    reference_mwis_bipartite,
    reference_react_sum_graph_bottleneck,
)

V = Variant.from_code
OPT, PES = Setting.OPTIMISTIC, Setting.PESSIMISTIC
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


def triangle_of_followers() -> BisGraph:
    return BisGraph(
        tuple(Vertex(i, FOLL, 1, 1) for i in range(3)),
        ((0, 1), (1, 2), (0, 2)),
    )


class TestPerturb:
    def test_intervals_optimistic(self):
        assert perturb(i1(), OPT) == {
            1: CompositeWeight(1, 4),
            2: CompositeWeight(5, 0),
            3: CompositeWeight(1, 2),
        }

    def test_intervals_pessimistic(self):
        assert perturb(i1(), PES) == {
            1: CompositeWeight(1, -4),
            2: CompositeWeight(5, 0),
            3: CompositeWeight(1, -2),
        }

    def test_graph_optimistic(self):
        assert perturb(g1(), OPT)[1] == CompositeWeight(4, 3)


class TestReactIntervals:
    def test_taking_the_leader_interval_frees_only_the_tail(self):
        assert react_intervals(i1(), {1}, OPT) == frozenset({3})

    def test_optimistic_tie_prefers_leader_weight(self):
        assert react_intervals(i2(), frozenset(), OPT) == frozenset({1})

    def test_pessimistic_tie_avoids_leader_weight(self):
        assert react_intervals(i2(), frozenset(), PES) == frozenset({2})

    def test_may_be_empty_even_for_empty_leader_action(self):
        inst_no_followers = i1()
        only_leader = type(inst_no_followers)(
            tuple(iv for iv in inst_no_followers.intervals if iv.owner is LEAD)
        )
        assert react_intervals(only_leader, frozenset(), OPT) == frozenset()


class TestReactSumGraph:
    def test_neighbors_block_everything(self):
        assert react_sum_graph(g2(), {0}, OPT) == frozenset()

    def test_empty_action_takes_both_free_vertices(self):
        assert react_sum_graph(g2(), frozenset(), OPT) == frozenset({1, 3})

    def test_single_follower_vertex(self):
        assert react_sum_graph(g1(), frozenset(), PES) == frozenset({1})

    def test_infeasible_without_follower_vertices(self):
        graph = BisGraph((Vertex(0, LEAD, 1, 1),), ())
        with pytest.raises(Infeasible):
            react_sum_graph(graph, frozenset(), OPT)


def _bipartite_cases(count):
    """Seeded bipartite graphs with max weights 0, 1, 2 and 9 in turn, each
    with the empty action and a random one."""
    rng = random.Random(23)
    for trial in range(count):
        graph = gen_random_graph(
            rng.randint(1, 16), rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.6),
            (0, 1, 2, 9)[trial % 4], bipartite=True, seed=trial,
        )
        yield graph, frozenset()
        yield graph, random_leader_action(rng, graph)


def _reaction(oracle, graph, action, setting):
    try:
        return oracle(graph, action, setting)
    except Infeasible:
        return Infeasible


class TestAgainstPreviousMinCutPath:
    @pytest.mark.parametrize("setting", [OPT, PES])
    def test_sum_graph(self, setting):
        def previous(graph, action, setting):
            lset, free = _free_followers(graph, action)
            if not free:
                return frozenset()
            return reference_mwis_bipartite(
                graph, perturb(graph, setting), free, not lset
            )[1]

        for graph, action in _bipartite_cases(300):
            assert _reaction(react_sum_graph, graph, action, setting) == (
                _reaction(previous, graph, action, setting)
            ), (graph, action)

    @pytest.mark.parametrize("setting", [OPT, PES])
    def test_sum_graph_bottleneck(self, setting):
        for graph, action in _bipartite_cases(300):
            want = _reaction(
                reference_react_sum_graph_bottleneck, graph, action, setting
            )
            got = _reaction(react_sum_graph_bottleneck, graph, action, setting)
            assert got == want, (graph, action)


class TestReactBottleneck:
    def test_pessimistic_bottleneck_with_covered_follower(self):
        assert react_bottleneck(g1(), {0}, V("cb-db-p")) == frozenset()

    def test_empty_action_picks_the_only_follower(self):
        assert react_bottleneck(g1(), frozenset(), V("cb-db-o")) == frozenset({1})

    def test_sum_leader_optimistic_with_no_eligible_vertex(self):
        assert react_bottleneck(g2(), {0, 2}, V("cs-db-o")) == frozenset()

    def test_optimistic_bottleneck_never_joins(self):
        assert react_bottleneck(g2(), {0}, V("cb-db-o")) == frozenset()

    def test_pessimistic_spoiler_needs_enough_follower_weight(self):
        # follower vertex below the action's bottleneck cannot be used
        graph = BisGraph(
            (Vertex(0, LEAD, 5, 4), Vertex(1, FOLL, 0, 2), Vertex(2, FOLL, 0, 6)),
            (),
        )
        assert react_bottleneck(graph, {0}, V("cb-db-p")) == frozenset({2})

    def test_requires_bottleneck_follower(self):
        with pytest.raises(ValueError):
            react_bottleneck(g1(), frozenset(), V("cs-ds-o"))


class TestReactDispatch:
    def test_routes_interval_sum(self):
        assert react(i2(), frozenset(), V("cs-ds-o")) == frozenset({1})

    def test_routes_graph_sum(self):
        assert react(g2(), frozenset(), V("cs-ds-o")) == frozenset({1, 3})

    def test_routes_bottleneck(self):
        assert react(g1(), {0}, V("cs-db-p")) == frozenset()

    def test_unavailable_on_odd_cycle(self):
        with pytest.raises(OracleUnavailable):
            react(triangle_of_followers(), frozenset(), V("cs-ds-o"))

    def test_unavailable_for_interval_bottleneck(self):
        with pytest.raises(OracleUnavailable):
            react(i1(), frozenset(), V("cs-db-o"))


def _values(instance, variant, leader_set, follower_set):
    union = frozenset(leader_set) | follower_set
    return (
        evaluate(variant.follower_obj, Owner.FOLLOWER, union, instance),
        evaluate(variant.leader_obj, Owner.LEADER, union, instance),
    )


class TestAgainstBrute:
    """Oracle and brute enumerator must agree on both objective values."""

    @pytest.mark.parametrize("code", ["cs-ds-o", "cs-ds-p"])
    def test_intervals(self, code):
        rng = random.Random(code)
        variant = V(code)
        for trial in range(150):
            inst = gen_random_intervals(rng.randint(0, 12), 15, 0.5, 6, seed=trial)
            action = random_leader_action(rng, inst)
            got = react(inst, action, variant)
            want = brute_follower(inst, action, variant)
            assert _values(inst, variant, action, got) == _values(
                inst, variant, action, want
            )

    @pytest.mark.parametrize(
        "code", ["cs-ds-o", "cs-ds-p", "cb-ds-o", "cb-ds-p", "cs-db-o"]
    )
    def test_bipartite_graphs(self, code):
        rng = random.Random(code)
        variant = V(code)
        # Max weight 1 makes the top follower class large; 0 ties everything.
        for max_weight in (6, 1, 0):
            for trial in range(150):
                graph = gen_random_graph(
                    rng.randint(1, 12), rng.uniform(0.1, 0.6), 0.5, max_weight,
                    bipartite=True, seed=trial,
                )
                action = random_leader_action(rng, graph)
                if not action and not graph.follower_ids:
                    continue
                got = react(graph, action, variant)
                want = brute_follower(graph, action, variant)
                assert _values(graph, variant, action, got) == _values(
                    graph, variant, action, want
                )

    @pytest.mark.parametrize("code", ["cb-db-o", "cb-db-p", "cs-db-p", "cs-db-o"])
    def test_general_graphs(self, code):
        rng = random.Random(code)
        variant = V(code)
        # Max weight 1 makes the top follower class large; 0 ties everything.
        for max_weight in (6, 1, 0):
            for trial in range(150):
                graph = gen_random_graph(
                    rng.randint(1, 12), rng.uniform(0.1, 0.7), 0.5, max_weight,
                    seed=trial,
                )
                action = random_leader_action(rng, graph)
                if not action and not graph.follower_ids:
                    continue
                got = react(graph, action, variant)
                want = brute_follower(graph, action, variant)
                assert _values(graph, variant, action, got) == _values(
                    graph, variant, action, want
                )


class TestPerturbationSoundness:
    def test_primary_component_equals_unperturbed_optimum(self):
        from bilevelis.single_level import frank_dp

        rng = random.Random(31)
        for trial in range(100):
            inst = gen_random_intervals(rng.randint(0, 12), 15, 0.5, 6, seed=trial)
            plain = {i: CompositeWeight(iv.wf, 0) for i, iv in inst.by_id.items()}
            for setting in (OPT, PES):
                value, _ = frank_dp(inst, perturb(inst, setting), set(inst.ids))
                want, _ = frank_dp(inst, plain, set(inst.ids))
                assert value.primary == want.primary


class TestPessimisticDominance:
    @pytest.mark.parametrize("fobj", ["ds", "db"])
    def test_optimistic_at_least_pessimistic(self, fobj):
        rng = random.Random(fobj)
        for trial in range(100):
            graph = gen_random_graph(
                rng.randint(1, 12), 0.4, 0.5, 6, bipartite=True, seed=trial
            )
            action = random_leader_action(rng, graph)
            if not action and not graph.follower_ids:
                continue
            douts = {}
            for setting_code in ("o", "p"):
                variant = V(f"cs-{fobj}-{setting_code}")
                reaction = react(graph, action, variant)
                douts[setting_code] = evaluate(
                    Objective.SUM, Owner.LEADER, action | reaction, graph
                )
            assert douts["o"] >= douts["p"]


class TestSumBottleneckProcedures:
    def test_optimistic_threshold_scan_example(self):
        # follower must pick both isolated vertices; min leader weight is 1
        graph = BisGraph(
            (Vertex(0, FOLL, 3, 2), Vertex(1, FOLL, 1, 2)), ()
        )
        assert react_sum_graph_bottleneck(graph, frozenset(), OPT) == frozenset({0, 1})

    def test_pessimistic_forced_vertex_example(self):
        # ties on the follower sum: pessimist grabs the low-leader-weight one
        graph = BisGraph(
            (Vertex(0, FOLL, 3, 2), Vertex(1, FOLL, 1, 2)), ((0, 1),)
        )
        assert react_sum_graph_bottleneck(graph, frozenset(), PES) == frozenset({1})
