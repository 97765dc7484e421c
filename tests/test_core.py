import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilevelis.core import (
    ALL_VARIANTS,
    BisGraph,
    CompositeWeight,
    Interval,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    Vertex,
    evaluate,
    intervals_pairwise_disjoint,
    is_independent,
    make_outcome,
    scale_base,
    to_interval_graph,
)
from bilevelis.errors import BottleneckOfEmptySet, UnknownId
from bilevelis.fixtures import g1, g2, i1, showcase
from bilevelis.randgen import gen_random_graph, gen_random_intervals
from helpers import reference_variant_from_code

SUM, BOT = Objective.SUM, Objective.BOTTLENECK
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


class TestEvaluate:
    def test_sum_leader(self):
        assert evaluate(SUM, LEAD, {0, 2}, g1()) == 7

    def test_bottleneck_leader(self):
        assert evaluate(BOT, LEAD, {0, 2}, g1()) == 2

    def test_bottleneck_empty_rejected(self):
        with pytest.raises(BottleneckOfEmptySet):
            evaluate(BOT, LEAD, set(), g1())

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            evaluate(SUM, LEAD, {99}, g1())

    def test_matches_naive_recomputation(self):
        rng = random.Random(7)
        graph = g2()
        for _ in range(200):
            sel = {v for v in range(4) if rng.random() < 0.5}
            for role in (LEAD, FOLL):
                weights = [
                    graph.item(v).wl if role is LEAD else graph.item(v).wf
                    for v in sel
                ]
                assert evaluate(SUM, role, sel, graph) == sum(weights)
                if sel:
                    assert evaluate(BOT, role, sel, graph) == min(weights)


class TestFeasibility:
    def test_independent_nonadjacent(self):
        assert is_independent(g1(), {0, 2})

    def test_not_independent(self):
        assert not is_independent(g1(), {0, 1})

    def test_empty_is_independent(self):
        assert is_independent(g1(), set())

    def test_unknown_vertex(self):
        with pytest.raises(UnknownId):
            is_independent(g1(), {5})

    def test_disjoint_pair(self):
        assert intervals_pairwise_disjoint(i1(), {1, 3})

    def test_overlapping_pair(self):
        assert not intervals_pairwise_disjoint(i1(), {1, 2})

    def test_touching_half_open_intervals_are_disjoint(self):
        assert intervals_pairwise_disjoint(i1(), {2, 3})


class TestIntervalGraph:
    def test_i1_conflicts(self):
        graph = to_interval_graph(i1())
        # interval ids 1,2,3 map to dense vertices 0,1,2
        assert len(graph.vertices) == 3
        assert graph.edges == ((0, 1),)
        assert graph.vertices[0].owner is LEAD
        assert (graph.vertices[0].wl, graph.vertices[0].wf) == (4, 1)

    def test_empty_instance(self):
        graph = to_interval_graph(IntervalInstance(()))
        assert len(graph.vertices) == 0 and graph.edges == ()

    def test_showcase_edges_match_pairwise_oracle(self):
        inst = showcase()
        graph = to_interval_graph(inst)
        assert len(graph.vertices) == 12
        ordered = sorted(inst.intervals, key=lambda iv: iv.id)
        expected = {
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if ordered[a].overlaps(ordered[b])
        }
        assert set(graph.edges) == expected

    def test_feasibility_preserved_on_random_instances(self):
        rng = random.Random(42)
        for trial in range(1000):
            n = rng.randint(0, 12)
            inst = gen_random_intervals(n, 15, 0.5, 5, seed=trial)
            graph = to_interval_graph(inst)
            sel = {i for i in range(n) if rng.random() < 0.4}
            assert intervals_pairwise_disjoint(inst, sel) == is_independent(
                graph, sel
            )


def _bits_of(neighbors):
    return sum(1 << u for u in neighbors)


class TestAdjacencyBits:
    def test_agrees_with_adjacency_on_random_graphs(self):
        for seed in range(60):
            rng = random.Random(seed)
            graph = gen_random_graph(
                rng.randint(0, 40), rng.uniform(0.0, 0.6), 0.4, 9,
                bipartite=seed % 2 == 0, seed=seed,
            )
            assert len(graph.adjacency_bits) == len(graph)
            for v in graph.ids:
                assert graph.adjacency_bits[v] == _bits_of(graph.adjacency[v])

    def test_weight_tuples_agree_with_vertices_on_random_graphs(self):
        for seed in range(60):
            rng = random.Random(seed)
            graph = gen_random_graph(
                rng.randint(0, 40), rng.uniform(0.0, 0.6), 0.4, 9,
                bipartite=seed % 2 == 0, seed=seed,
            )
            assert len(graph.wl) == len(graph.wf) == len(graph)
            for v in graph.ids:
                assert graph.wl[v] == graph.vertices[v].wl
                assert graph.wf[v] == graph.vertices[v].wf

    def test_agrees_with_overlaps_on_non_dense_interval_ids(self):
        # Vertex p of the interval graph is the p-th smallest id, so its
        # bit q is set exactly when the p-th and q-th intervals overlap.
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(0, 14)
            dense = gen_random_intervals(n, 20, 0.5, 5, seed=seed)
            ids = rng.sample(range(-50, 1000), n)
            inst = IntervalInstance(tuple(
                dataclasses.replace(iv, id=iid)
                for iv, iid in zip(dense.intervals, ids)
            ))
            graph = to_interval_graph(inst)
            ordered = sorted(inst.intervals, key=lambda iv: iv.id)
            for p, iv in enumerate(ordered):
                expected = _bits_of(
                    q for q, other in enumerate(ordered)
                    if q != p and iv.overlaps(other)
                )
                assert graph.adjacency_bits[p] == expected
                assert graph.adjacency_bits[p] == _bits_of(graph.adjacency[p])


class TestCompositeWeight:
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance(self, p1, s1, p2, s2, p3, s3):
        x = CompositeWeight(p1, s1)
        y = CompositeWeight(p2, s2)
        z = CompositeWeight(p3, s3)
        assert (x + z < y + z) == (x < y)

    def test_componentwise_addition(self):
        assert CompositeWeight(2, -3) + CompositeWeight(5, 1) == CompositeWeight(7, -2)

    def test_lexicographic_order(self):
        assert CompositeWeight(1, -100) > CompositeWeight(0, 100)
        assert CompositeWeight(3, 1) > CompositeWeight(3, 0)

    def test_scaled_agrees_with_lexicographic_on_subset_sums(self):
        # both players' weights bounded means the scale base dominates
        rng = random.Random(5)
        for _ in range(300):
            items = [
                (rng.randint(0, 9), rng.randint(0, 9)) for _ in range(8)
            ]
            sign = rng.choice((1, -1))
            base = 1 + sum(wl for _, wl in items)
            pick = lambda: [i for i in range(8) if rng.random() < 0.5]
            sum_of = lambda sel: sum(
                (CompositeWeight(items[i][0], sign * items[i][1]) for i in sel),
                CompositeWeight.ZERO,
            )
            a, b = sum_of(pick()), sum_of(pick())
            assert (a < b) == (a.scaled(base) < b.scaled(base))
            assert (a == b) == (a.scaled(base) == b.scaled(base))


class TestValidation:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BisGraph((Vertex(0, LEAD, 1, 1), Vertex(1, FOLL, 1, 1)),
                     ((0, 1), (1, 0)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            BisGraph((Vertex(0, LEAD, 1, 1),), ((0, 0),))

    def test_edge_to_missing_vertex(self):
        with pytest.raises(UnknownId):
            BisGraph((Vertex(0, LEAD, 1, 1),), ((0, 3),))

    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError, match="dense"):
            BisGraph((Vertex(0, LEAD, 1, 1), Vertex(2, FOLL, 1, 1)), ())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Vertex(0, LEAD, -1, 0)

    def test_interval_needs_positive_length(self):
        with pytest.raises(ValueError):
            Interval(0, 3, 3, LEAD, 1, 1)

    def test_interval_needs_nonnegative_start(self):
        with pytest.raises(ValueError):
            Interval(0, -1, 3, LEAD, 1, 1)

    @pytest.mark.parametrize("wl, wf", [(-1, 0), (0, -1)])
    def test_interval_negative_weight_rejected(self, wl, wf):
        with pytest.raises(ValueError, match="negative weight"):
            Interval(0, 0, 1, FOLL, wl, wf)

    def test_duplicate_interval_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            IntervalInstance(
                (Interval(1, 0, 1, LEAD, 1, 1), Interval(1, 2, 3, FOLL, 1, 1))
            )


class TestVariantAndOutcome:
    def test_variant_codes_round_trip(self):
        for code in ["cs-ds-o", "cs-ds-p", "cb-ds-o", "cb-ds-p",
                     "cs-db-o", "cs-db-p", "cb-db-o", "cb-db-p"]:
            assert Variant.from_code(code).code == code

    def test_bad_variant_code(self):
        with pytest.raises(ValueError):
            Variant.from_code("cs-ds-x")

    def test_variant_codes_match_the_grammar(self):
        """The table lookup accepts exactly the strings the hand-written
        grammar accepts and returns equal variants; both reject with the
        same message."""
        alphabet = ["", "c", "d", "s", "b", "o", "p", "x", "C", "S", "B",
                    "D", "O", "P", "cs", "cb", "ds", "db", "CS", "Db", "cS"]
        codes = ["-".join(p) for p in itertools.product(alphabet, repeat=3)]
        codes += ["-".join(p) for p in itertools.product(alphabet[:8], repeat=2)]
        codes += ["-".join(p) for p in itertools.product(alphabet[:8], repeat=4)]
        codes += ["cs-ds-o-", "-cs-ds-o", "csdso", "cs_ds_o", "cs--ds-o"]
        codes += [pad.format(v.code) for v in ALL_VARIANTS
                  for pad in (" {}", "{} ", "\t{}", "{}\n", " {} ")]
        codes += [v.code.upper() for v in ALL_VARIANTS]
        accepted = set()
        for code in codes:
            try:
                want = reference_variant_from_code(code)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    Variant.from_code(code)
                assert str(got.value) == str(exc)
            else:
                assert Variant.from_code(code) == want
                accepted.add(code)
        assert {Variant.from_code(c) for c in accepted} == set(ALL_VARIANTS)
        assert len(accepted) == 4 * 3 * 4 + 8  # case spellings in the alphabet

    def test_outcome_values_come_from_evaluate(self):
        variant = Variant(SUM, BOT, Setting.OPTIMISTIC)
        out = make_outcome(g1(), variant, {0, 2}, {1})
        # the union is not independent here; make_outcome only evaluates
        assert out.leader_value == evaluate(SUM, LEAD, {0, 1, 2}, g1())
        assert out.follower_value == evaluate(BOT, FOLL, {0, 1, 2}, g1())

    def test_scale_base_exceeds_total_leader_weight(self):
        assert scale_base(g1()) == 1 + 5 + 3 + 2
        assert scale_base(i1()) == 1 + 4 + 0 + 2
