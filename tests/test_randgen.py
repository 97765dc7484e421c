import tracemalloc

import pytest

from bilevelis.core import Owner
from bilevelis.errors import BadParameter
from bilevelis.randgen import bench_dp, gen_random_graph, gen_random_intervals
from bilevelis.serialize import dumps, graph_to_dict
from bilevelis.single_level import is_bipartite
from helpers import reference_gen_random_graph


class TestGenRandomGraph:
    def test_same_seed_same_graph(self):
        a = gen_random_graph(20, 0.4, 0.3, 9, bipartite=True, seed=11)
        b = gen_random_graph(20, 0.4, 0.3, 9, bipartite=True, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = gen_random_graph(20, 0.4, 0.3, 9, seed=1)
        b = gen_random_graph(20, 0.4, 0.3, 9, seed=2)
        assert a != b

    def test_empty(self):
        graph = gen_random_graph(0, 0.5, 0.5, 5, seed=0)
        assert len(graph) == 0 and graph.edges == ()

    def test_bipartite_flag_yields_two_colorable_graph(self):
        graph = gen_random_graph(30, 0.5, 0.5, 5, bipartite=True, seed=3)
        assert is_bipartite(graph)

    def test_weights_within_bounds(self):
        graph = gen_random_graph(50, 0.2, 0.5, 4, seed=9)
        assert all(0 <= v.wl <= 4 and 0 <= v.wf <= 4 for v in graph.vertices)

    def test_owner_fractions(self):
        all_lead = gen_random_graph(20, 0.1, 1.0, 3, seed=5)
        assert all(v.owner is Owner.LEADER for v in all_lead.vertices)
        all_foll = gen_random_graph(20, 0.1, 0.0, 3, seed=5)
        assert all(v.owner is Owner.FOLLOWER for v in all_foll.vertices)

    @pytest.mark.parametrize("bipartite", [False, True])
    @pytest.mark.parametrize("n, edge_prob", [
        (0, 0.5), (1, 1.0), (2, 1.0), (7, 0.0), (13, 0.3), (30, 0.1),
        (41, 0.9), (60, 0.05),
    ])
    def test_same_file_as_list_building_reference(self, n, edge_prob, bipartite):
        for seed in range(3):
            args = (n, edge_prob, 0.4, 9)
            got = gen_random_graph(*args, bipartite=bipartite, seed=seed)
            want = reference_gen_random_graph(*args, bipartite=bipartite, seed=seed)
            assert dumps(graph_to_dict(got)) == dumps(graph_to_dict(want))

    def test_memory_grows_with_edges_not_pairs(self):
        # A list of all n(n-1)/2 = 499,500 pairs peaks at about 45 MiB.
        tracemalloc.start()
        try:
            graph = gen_random_graph(1000, 0.0, 0.5, 9, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.edges == ()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, edge_prob=0.5, leader_fraction=0.5, max_weight=3),
            dict(n=3, edge_prob=1.5, leader_fraction=0.5, max_weight=3),
            dict(n=3, edge_prob=0.5, leader_fraction=-0.1, max_weight=3),
            dict(n=3, edge_prob=0.5, leader_fraction=0.5, max_weight=-2),
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(BadParameter):
            gen_random_graph(seed=0, **kwargs)


class TestGenRandomIntervals:
    def test_same_seed_same_instance(self):
        a = gen_random_intervals(25, 40, 0.5, 9, seed=7)
        b = gen_random_intervals(25, 40, 0.5, 9, seed=7)
        assert a == b

    def test_endpoints_ordered_and_bounded(self):
        inst = gen_random_intervals(100, 30, 0.5, 9, seed=2)
        assert all(0 <= iv.start < iv.end <= 30 for iv in inst.intervals)

    def test_empty(self):
        assert len(gen_random_intervals(0, 10, 0.5, 9, seed=0)) == 0

    def test_bad_coord_max(self):
        with pytest.raises(BadParameter):
            gen_random_intervals(5, 0, 0.5, 9, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n=-1, leader_fraction=0.5, max_weight=3), "n must be"),
            (dict(n=3, leader_fraction=-0.1, max_weight=3), "leader_fraction"),
            (dict(n=3, leader_fraction=1.5, max_weight=3), "leader_fraction"),
            (dict(n=3, leader_fraction=0.5, max_weight=-2), "max_weight"),
        ],
    )
    def test_bad_parameters(self, kwargs, message):
        with pytest.raises(BadParameter, match=message):
            gen_random_intervals(coord_max=10, seed=0, **kwargs)


class TestBenchDp:
    def test_row_per_size(self):
        rows = bench_dp([10, 20], seed=1)
        assert [n for n, _ in rows] == [10, 20]
        assert all(ms >= 0 for _, ms in rows)

    def test_empty_sizes(self):
        assert bench_dp([], seed=1) == []

    def test_sizes_must_ascend(self):
        with pytest.raises(BadParameter):
            bench_dp([20, 10], seed=1)
