import random

import pytest

from bilevelis.core import (
    BisGraph,
    CompositeWeight,
    Interval,
    IntervalInstance,
    Owner,
    Setting,
    Vertex,
    weight_sum,
)
from bilevelis.errors import EmptyRestrict, NotBipartite, UnknownId
from bilevelis.fixtures import g2, i1, i2
from bilevelis.follower import perturb
from bilevelis.randgen import gen_random_graph, gen_random_intervals
from bilevelis.single_level import (
    bipartition,
    frank_dp,
    is_bipartite,
    mwis_bipartite,
    mwis_by_owner,
    sort_and_index,
)
from helpers import (
    deep_follower_path,
    reference_best_disjoint,
    reference_bipartition,
    reference_frank_dp,
    reference_mwis,
    reference_mwis_bipartite,
    reference_mwis_by_owner,
)

LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


class TestSortAndIndex:
    def test_three_intervals(self):
        ordered = sort_and_index(i1())
        assert ordered.order == (1, 2, 3)
        assert ordered.prev_disjoint == (0, 0, 0, 2)

    def test_single_interval(self):
        inst = IntervalInstance((Interval(7, 5, 9, LEAD, 1, 1),))
        ordered = sort_and_index(inst)
        assert ordered.order == (7,)
        assert ordered.prev_disjoint == (0, 0)

    def test_touching_intervals_chain(self):
        inst = IntervalInstance(
            (Interval(0, 0, 3, LEAD, 1, 1), Interval(1, 3, 5, FOLL, 1, 1))
        )
        assert sort_and_index(inst).prev_disjoint == (0, 0, 1)

    def test_equal_ends_sorted_by_start_then_id(self):
        inst = IntervalInstance(
            (
                Interval(5, 2, 4, LEAD, 1, 1),
                Interval(3, 1, 4, LEAD, 1, 1),
                Interval(4, 1, 4, LEAD, 1, 1),
            )
        )
        assert sort_and_index(inst).order == (3, 4, 5)

    def test_invariants_on_random_instances(self):
        rng = random.Random(11)
        pick = random.Random(12)
        for trial in range(100):
            inst = gen_random_intervals(rng.randint(0, 14), 12, 0.5, 4, seed=trial)
            subset = [iid for iid in inst.ids if pick.random() < 0.5]
            restricted = sort_and_index(inst, subset)
            assert sorted(restricted.order) == subset
            sub = IntervalInstance(tuple(inst.by_id[i] for i in subset))
            assert restricted == sort_and_index(sub)
            for ordered in (sort_and_index(inst), restricted):
                ends = [inst.by_id[i].end for i in ordered.order]
                assert ends == sorted(ends)
                for k in range(1, len(ordered) + 1):
                    p = ordered.prev_disjoint[k]
                    start_k = inst.by_id[ordered.order[k - 1]].start
                    if p:
                        assert inst.by_id[ordered.order[p - 1]].end <= start_k
                    if p < k - 1:
                        assert inst.by_id[ordered.order[p]].end > start_k


class TestFrankDp:
    def test_follower_pair_of_i1(self):
        weight = {i: CompositeWeight(iv.wf, 0) for i, iv in i1().by_id.items()}
        value, chosen = frank_dp(i1(), weight, {2, 3})
        assert value == CompositeWeight(6, 0)
        assert chosen == frozenset({2, 3})

    def test_empty_restrict(self):
        weight = {i: CompositeWeight(iv.wf, 0) for i, iv in i1().by_id.items()}
        assert frank_dp(i1(), weight, set()) == (CompositeWeight.ZERO, frozenset())

    def test_secondary_breaks_primary_tie(self):
        inst = i2()
        weight = {i: CompositeWeight(iv.wf, iv.wl) for i, iv in inst.by_id.items()}
        value, chosen = frank_dp(inst, weight, {1, 2})
        assert value == CompositeWeight(2, 3)
        assert chosen == frozenset({1})

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            frank_dp(i1(), {}, {42})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_reference_on_random_instances(self, sign):
        rng = random.Random(sign)
        for trial in range(250):
            inst = gen_random_intervals(
                rng.randint(0, 12), 15, 0.5, 6, seed=trial * 2 + (sign > 0)
            )
            weight = {
                i: CompositeWeight(iv.wf, sign * iv.wl)
                for i, iv in inst.by_id.items()
            }
            restrict = {i for i in inst.ids if rng.random() < 0.8}
            got_value, got_set = frank_dp(inst, weight, restrict)
            want_value, _ = reference_best_disjoint(inst, weight, restrict)
            assert got_value == want_value
            assert got_set <= restrict
            assert weight_sum(weight[i] for i in got_set) == got_value

    def test_scaled_integer_route_agrees(self):
        rng = random.Random(9)
        for trial in range(100):
            inst = gen_random_intervals(rng.randint(1, 10), 12, 0.5, 6, seed=trial)
            base = 1 + sum(iv.wl for iv in inst.intervals)
            for sign in (1, -1):
                weight = {
                    i: CompositeWeight(iv.wf, sign * iv.wl)
                    for i, iv in inst.by_id.items()
                }
                value, chosen = frank_dp(inst, weight, set(inst.ids))
                best_scaled = max(
                    weight_sum(weight[i] for i in subset).scaled(base)
                    for _, subset in [reference_best_disjoint(inst, weight, set(inst.ids))]
                )
                assert value.scaled(base) == best_scaled


def _arbitrary_component(rng: random.Random) -> int:
    """Zero, a small value of either sign (so sums tie often) or a
    magnitude up to 10**12 of either sign."""
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.6:
        return rng.randint(-3, 3)
    if kind < 0.75:
        return rng.choice((-1, 1)) * 10**12
    return rng.randint(-10**12, 10**12)


class TestFrankDpAgainstPreviousPath:
    """``frank_dp`` on collapsed integers against the previous take-or-skip
    over ``CompositeWeight`` pairs: identical value and identical set."""

    def test_equals_previous_path(self):
        rng = random.Random(31)
        for trial in range(1000):
            n = rng.randint(0, 40)
            inst = gen_random_intervals(
                n,
                coord_max=max(1, n * rng.choice((1, 2, 4))),
                leader_fraction=rng.random(),
                max_weight=rng.choice((0, 1, 3, 9)),
                seed=trial,
            )
            arbitrary = {
                i: CompositeWeight(
                    _arbitrary_component(rng), _arbitrary_component(rng)
                )
                for i in inst.ids
            }
            for weight in (
                perturb(inst, Setting.OPTIMISTIC),
                perturb(inst, Setting.PESSIMISTIC),
                arbitrary,
            ):
                keep = 0.0 if rng.random() < 0.1 else rng.random()
                restrict = {i for i in inst.ids if rng.random() < keep}
                want = reference_frank_dp(inst, weight, restrict)
                assert frank_dp(inst, weight, restrict) == want, (
                    trial, weight, restrict
                )


class TestMwisBipartite:
    def test_four_cycle(self):
        graph = g2()
        weight = {v: CompositeWeight(graph.item(v).wl, 0) for v in graph.ids}
        value, chosen = mwis_bipartite(graph, weight, set(graph.ids))
        assert value == CompositeWeight(7, 0)
        assert chosen == frozenset({0, 2})

    def test_single_vertex(self):
        graph = BisGraph((Vertex(0, LEAD, 9, 1),), ())
        value, chosen = mwis_bipartite(
            graph, {0: CompositeWeight(9, 0)}, {0}
        )
        assert (value, chosen) == (CompositeWeight(9, 0), frozenset({0}))

    def test_all_zero_weights_with_nonempty_requirement(self):
        graph = g2()
        weight = {v: CompositeWeight.ZERO for v in graph.ids}
        value, chosen = mwis_bipartite(
            graph, weight, set(graph.ids), require_nonempty=True
        )
        assert value == CompositeWeight.ZERO
        assert len(chosen) >= 1

    def test_not_bipartite(self):
        triangle = BisGraph(
            tuple(Vertex(i, LEAD, 1, 1) for i in range(3)),
            ((0, 1), (1, 2), (0, 2)),
        )
        with pytest.raises(NotBipartite):
            mwis_bipartite(
                triangle,
                {v: CompositeWeight(1, 0) for v in range(3)},
                {0, 1, 2},
            )

    def test_empty_restrict_with_nonempty_requirement(self):
        with pytest.raises(EmptyRestrict):
            mwis_bipartite(g2(), {}, set(), require_nonempty=True)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_unknown_id(self, weighted):
        """An id outside the graph raises ``UnknownId``, not ``KeyError``,
        whether or not ``weight`` has an entry for it."""
        graph = g2()
        weight = {v: CompositeWeight(1, 0) for v in graph.ids}
        if weighted:
            weight[42] = CompositeWeight(1, 0)
        with pytest.raises(UnknownId):
            mwis_bipartite(graph, weight, {0, 42})

    @pytest.mark.parametrize("sign", [0, 1, -1])
    def test_matches_reference_on_random_bipartite_graphs(self, sign):
        rng = random.Random(sign + 3)
        for trial in range(250):
            graph = gen_random_graph(
                rng.randint(0, 14), rng.uniform(0.1, 0.6), 0.5, 6,
                bipartite=True, seed=trial * 3 + sign,
            )
            weight = {
                v: CompositeWeight(graph.item(v).wf, sign * graph.item(v).wl)
                for v in graph.ids
            }
            restrict = {v for v in graph.ids if rng.random() < 0.8}
            got_value, got_set = mwis_bipartite(graph, weight, restrict)
            want_value, _ = reference_mwis(graph, weight, restrict)
            assert got_value == want_value
            assert got_set <= restrict
            assert weight_sum(weight[v] for v in got_set) == got_value

    def test_deep_flow_path(self):
        # Residual paths longer than the interpreter's recursion limit.
        graph = deep_follower_path(1200)
        weight = {v: CompositeWeight(1, 0) for v in graph.ids}
        value, chosen = mwis_bipartite(graph, weight, set(graph.ids))
        assert value.primary == 600
        assert len(chosen) == 600

    def test_nonempty_matches_restricted_reference(self):
        # all-nonpositive weights force the single-vertex fallback
        rng = random.Random(17)
        for trial in range(100):
            graph = gen_random_graph(
                rng.randint(1, 10), 0.3, 0.5, 4, bipartite=True, seed=trial
            )
            weight = {
                v: CompositeWeight(0, -graph.item(v).wl) for v in graph.ids
            }
            value, chosen = mwis_bipartite(
                graph, weight, set(graph.ids), require_nonempty=True
            )
            assert chosen
            best_single = max(weight[v] for v in graph.ids)
            assert value == best_single


def _outcome(func, *args):
    """The result, or the type of the raised error."""
    try:
        return func(*args)
    except Exception as exc:
        return type(exc)


class TestMinCutKernel:
    """The integer kernel against the previous min-cut path, which colored,
    weighted and scanned every edge per call: identical values and sets."""

    @staticmethod
    def _cases(max_weight, count):
        # Sparse to dense, so restrictions leave isolated vertices; weights
        # from 0 up to max_weight, so zero weights and equal weights (where
        # the coloring's orientation decides the set) are common.
        rng = random.Random(max_weight)
        for trial in range(count):
            graph = gen_random_graph(
                rng.randint(0, 16), rng.uniform(0.05, 0.6), 0.5, max_weight,
                bipartite=True, seed=trial * 7 + max_weight,
            )
            restrict = [v for v in graph.ids if rng.random() < rng.random()]
            yield graph, restrict, rng.random() < 0.5

    @pytest.mark.parametrize("max_weight", [0, 1, 2, 9])
    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_mwis_bipartite_equals_previous_path(self, max_weight, sign):
        for graph, restrict, nonempty in self._cases(max_weight, 150):
            weight = {
                v: CompositeWeight(graph.item(v).wf, sign * graph.item(v).wl)
                for v in graph.ids
            }
            want = _outcome(
                reference_mwis_bipartite, graph, weight, restrict, nonempty
            )
            got = _outcome(mwis_bipartite, graph, weight, restrict, nonempty)
            assert got == want, (graph, restrict, nonempty)

    @pytest.mark.parametrize("max_weight", [0, 1, 2, 9])
    @pytest.mark.parametrize("owner", [LEAD, FOLL])
    def test_mwis_by_owner_equals_previous_path(self, max_weight, owner):
        for graph, restrict, nonempty in self._cases(max_weight, 150):
            want = _outcome(
                reference_mwis_by_owner, graph, restrict, owner, nonempty
            )
            got = _outcome(mwis_by_owner, graph, restrict, owner, nonempty)
            assert got == want, (graph, restrict, nonempty)

    def test_equal_weights_on_one_edge_pick_the_larger_id(self):
        graph = BisGraph((Vertex(0, FOLL, 3, 5), Vertex(1, FOLL, 3, 5)), ((0, 1),))
        assert mwis_by_owner(graph, [0, 1], FOLL) == (5, frozenset({1}))

    def test_orientation_follows_the_induced_subgraph(self):
        # Path 0-1-2 colors 1 apart from 0 and 2; restricted to {1, 2} the
        # component starts at 1, so 2 is the side-B end and wins the tie.
        graph = BisGraph(
            tuple(Vertex(i, FOLL, 0, 4) for i in range(3)), ((0, 1), (1, 2))
        )
        assert mwis_by_owner(graph, [1, 2], FOLL) == (4, frozenset({2}))


class TestBipartition:
    def test_equals_previous_coloring(self):
        rng = random.Random(5)
        for trial in range(200):
            graph = gen_random_graph(
                rng.randint(0, 14), rng.uniform(0.05, 0.7), 0.5, 1,
                bipartite=trial % 4 != 0, seed=trial,
            )
            restrict = [v for v in graph.ids if rng.random() < 0.7]
            for nodes in (None, restrict, restrict + [len(graph)]):
                want = _outcome(reference_bipartition, graph, nodes)
                assert _outcome(bipartition, graph, nodes) == want


    def test_even_cycle(self):
        side_a, side_b = bipartition(g2())
        assert {frozenset(side_a), frozenset(side_b)} == {
            frozenset({0, 2}), frozenset({1, 3})
        }

    def test_restriction_can_make_bipartite(self):
        triangle = BisGraph(
            tuple(Vertex(i, LEAD, 1, 1) for i in range(3)),
            ((0, 1), (1, 2), (0, 2)),
        )
        assert not is_bipartite(triangle)
        assert is_bipartite(triangle, {0, 1})
