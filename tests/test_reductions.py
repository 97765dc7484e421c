import hashlib
import random
from itertools import combinations

import pytest

from bilevelis.brute import brute_force, decide_b2cnf_brute, decide_vc_brute
from bilevelis.core import Owner, Variant
from bilevelis.errors import MalformedClause, SolverError
from bilevelis.reductions import (
    B2cnfFormula,
    Literal,
    b2cnf_to_bis,
    is_to_bis,
    planar_vc_to_bipartite_bis,
    vc_to_bipartite_bis,
    vc_to_bis,
)
from bilevelis.serialize import dumps, graph_to_dict
from bilevelis.single_level import is_bipartite

V = Variant.from_code
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER

K3 = (3, [(0, 1), (1, 2), (0, 2)])
P2 = (2, [(0, 1)])


def lit(side, neg=False, var=1):
    return Literal(side, var, neg)


class TestB2cnfToBis:
    def test_vertex_count(self):
        formula = B2cnfFormula(1, 1, ((lit("X", True), lit("Y"), lit("Y")),))
        out = b2cnf_to_bis(formula)
        assert len(out.graph.vertices) == 2 + 2 + 4 + 1

    def test_clause_gadgets_are_cliques_and_alarm_touches_all(self):
        formula = B2cnfFormula(
            2, 2,
            (
                (lit("X", False, 1), lit("X", True, 2), lit("Y", False, 2)),
                (lit("Y", True, 1), lit("Y", True, 1), lit("X", False, 1)),
            ),
        )
        out = b2cnf_to_bis(formula)
        graph = out.graph
        m = formula.m
        base = 2 * formula.n1 + 2 * formula.n2
        alarm = base + 4 * m
        edge_set = set(graph.edges)
        for ci in range(m):
            gadget = [base + 4 * ci + t for t in range(4)]
            for u, v in combinations(gadget, 2):
                assert (u, v) in edge_set
            assert (gadget[3], alarm) in edge_set
        assert len(graph.adjacency[alarm]) == m

    def test_weights_follow_the_table(self):
        formula = B2cnfFormula(1, 2, ((lit("X"), lit("Y", var=2), lit("Y")),))
        out = b2cnf_to_bis(formula)
        graph = out.graph
        M, R = out.constants["M"], out.constants["R"]
        a0 = graph.item(0)
        assert (a0.owner, a0.wl, a0.wf) == (LEAD, M, 0)
        b0 = graph.item(2)
        assert (b0.owner, b0.wl, b0.wf) == (FOLL, 1, M)
        slot0 = graph.item(6)
        assert (slot0.owner, slot0.wl, slot0.wf) == (FOLL, 1, 10)
        collector = graph.item(9)
        assert (collector.owner, collector.wl, collector.wf) == (FOLL, R, 5)
        alarm = graph.item(10)
        assert (alarm.owner, alarm.wl, alarm.wf) == (FOLL, 0, 1)

    def test_constants_inequalities(self):
        for n2, m in [(1, 1), (2, 2), (1, 3)]:
            clause = (lit("X", True), lit("Y"), lit("Y"))
            formula = B2cnfFormula(1, n2, (clause,) * m)
            out = b2cnf_to_bis(formula)
            M, R = out.constants["M"], out.constants["R"]
            assert M > (m + 1) * R
            assert R > m + n2

    def test_thresholds_per_variant(self):
        formula = B2cnfFormula(2, 1, ((lit("X", var=2), lit("Y"), lit("Y")),))
        out = b2cnf_to_bis(formula)
        M, R = out.constants["M"], out.constants["R"]
        assert out.threshold_for(V("cs-ds-o")) == M * 2 + R
        assert out.threshold_for(V("cs-ds-p")) == M * 2 + R
        assert out.threshold_for(V("cb-ds-o")) == 1
        assert out.threshold_for(V("cb-ds-p")) == 1

    def test_soundness_spot_checks(self):
        yes = B2cnfFormula(1, 1, ((lit("X", True),) * 3,))
        no = B2cnfFormula(1, 1, ((lit("X", True), lit("Y", True), lit("Y", True)),))
        for formula, expected in ((yes, True), (no, False)):
            assert decide_b2cnf_brute(formula) == expected
            out = b2cnf_to_bis(formula)
            for variant in out.targets:
                value = brute_force(out.graph, variant, cap=40).leader_value
                assert (value >= out.threshold_for(variant)) == expected


class TestVcToBis:
    def test_copy_and_edge_vertex_counts(self):
        out = vc_to_bis(*K3, 2)
        graph = out.graph
        assert len(graph.leader_ids) == 6
        assert len(graph.follower_ids) == 3
        # each copy class is a clique
        for copy in range(2):
            for u, v in combinations(range(3), 2):
                assert (copy * 3 + u, copy * 3 + v) in set(graph.edges)

    def test_edgeless_source(self):
        out = vc_to_bis(2, [], 1)
        assert len(out.graph.leader_ids) == 2
        assert len(out.graph.follower_ids) == 0
        assert brute_force(out.graph, V("cb-db-p")).leader_value == 1

    def test_triangle_equivalence(self):
        for k, expected in ((1, False), (2, True)):
            out = vc_to_bis(*K3, k)
            value = brute_force(out.graph, V("cb-db-p"), cap=40).leader_value
            assert (value >= out.threshold_for(V("cb-db-p"))) == expected
            assert decide_vc_brute(*K3, k) == expected

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            vc_to_bis(*K3, 0)


class TestPlanarVcToBipartiteBis:
    def test_example_constants(self):
        out = planar_vc_to_bipartite_bis(*P2, 1)
        assert out.constants["M"] == 104
        assert out.threshold_for(V("cs-ds-o")) == 105

    def test_output_is_bipartite(self):
        for (n, edges), k in [(P2, 1), (K3, 1), ((4, [(0, 1), (1, 2)]), 2)]:
            out = planar_vc_to_bipartite_bis(n, edges, k)
            assert is_bipartite(out.graph)

    def test_constant_dominates(self):
        for n, m in [(2, 1), (5, 10)]:
            edges = list(combinations(range(n), 2))[:m]
            out = planar_vc_to_bipartite_bis(n, edges, 1)
            assert out.constants["M"] > max(100, n)

    def test_path_equivalence_both_settings(self):
        out = planar_vc_to_bipartite_bis(*P2, 1)
        assert decide_vc_brute(*P2, 1)
        for code in ("cs-ds-o", "cs-ds-p"):
            value = brute_force(out.graph, V(code), cap=40).leader_value
            assert value >= out.threshold_for(V(code))

    def test_triangle_needs_two(self):
        out = planar_vc_to_bipartite_bis(*K3, 1)
        assert not decide_vc_brute(*K3, 1)
        for code in ("cs-ds-o", "cs-ds-p"):
            value = brute_force(out.graph, V(code), cap=40).leader_value
            assert value < out.threshold_for(V(code))


class TestVcToBipartiteBis:
    def test_vertex_count_for_triangle_two_copies(self):
        out = vc_to_bipartite_bis(*K3, 2)
        graph = out.graph
        assert len(graph.vertices) == 21
        assert len(graph.leader_ids) == 12
        assert len(graph.follower_ids) == 9

    def test_output_is_bipartite(self):
        for (n, edges), k in [(P2, 1), (K3, 2), ((4, [(0, 1), (2, 3)]), 1)]:
            assert is_bipartite(vc_to_bipartite_bis(n, edges, k).graph)

    def test_triangle_equivalences(self):
        out = vc_to_bipartite_bis(*K3, 2)
        assert brute_force(out.graph, V("cb-db-p"), cap=40).leader_value == 1
        out1 = vc_to_bipartite_bis(*K3, 1)
        assert brute_force(out1.graph, V("cb-ds-p"), cap=40).leader_value == 0

    def test_clique_edges_are_replaced_by_paths(self):
        out = vc_to_bipartite_bis(*P2, 1)
        graph = out.graph
        edge_set = set(graph.edges)
        # copies 0,1; edge vertex 2; gates 3,4; trap 5
        assert (0, 1) not in edge_set
        assert {(0, 3), (1, 4), (3, 5), (4, 5)} <= edge_set


class TestIsToBis:
    def test_triangle(self):
        out = is_to_bis(*K3, 1)
        assert brute_force(out.graph, V("cs-db-o")).leader_value == 1
        assert brute_force(out.graph, V("cs-db-p")).leader_value == 1

    def test_edgeless(self):
        out = is_to_bis(3, [], 3)
        assert brute_force(out.graph, V("cs-db-o")).leader_value == 3

    def test_no_instance_at_higher_threshold(self):
        out = is_to_bis(*K3, 2)
        assert brute_force(out.graph, V("cs-db-o")).leader_value < 2

    def test_all_vertices_are_leader_owned(self):
        out = is_to_bis(*K3, 1)
        assert not out.graph.follower_ids
        assert all(
            (v.wl, v.wf) == (1, 1) for v in out.graph.vertices
        )

    def test_k_must_be_non_negative(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
            is_to_bis(*K3, -3)


class TestFormulaValidation:
    def test_two_literal_clause(self):
        with pytest.raises(MalformedClause):
            B2cnfFormula(1, 1, ((lit("X"), lit("Y")),))

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            B2cnfFormula(1, 1, ((lit("X", var=2), lit("Y"), lit("Y")),))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            Literal("Z", 1, False)

    @pytest.mark.parametrize("n1, n2, field", [(-1, 1, "n1"), (1, -1, "n2")])
    def test_negative_variable_count(self, n1, n2, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            B2cnfFormula(n1, n2, ())


GRAPH_BUILDERS = (
    vc_to_bis, vc_to_bipartite_bis, planar_vc_to_bipartite_bis, is_to_bis
)
GOLDEN_DIGEST = (
    "0ff72392844d305e357d8418b51d57e7"
    "bc2fc83af61792fbf40adcda94df5f61"
)


def _run_digest(build) -> str:
    """sha256 of everything a generator emits, or of the error it raises."""
    try:
        out = build()
    except (ValueError, SolverError) as exc:
        record = repr((type(exc).__name__, str(exc)))
    else:
        record = dumps({
            "graph": graph_to_dict(out.graph),
            "targets": [v.code for v in out.targets],
            "thresholds": {v.code: t for v, t in out.thresholds.items()},
            "constants": out.constants,
        })
    return hashlib.sha256(record.encode()).hexdigest()


def _golden_sources(rng):
    """Seeded vertex-cover sources: shuffled and flipped edges, plus a few
    with a self-loop, an out-of-range endpoint or a duplicate edge."""
    for trial in range(60):
        n = rng.randint(0, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.4]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        if trial % 5 == 4:
            bad = [(0, 0), (0, n), (-1, 0), edges[0][::-1] if edges else (n, n)]
            edges.append(bad[trial // 5 % 4])
        yield n, edges


def _golden_formulas(rng):
    for _ in range(40):
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        sides = [s for s, n in (("X", n1), ("Y", n2)) if n]
        clauses = []
        for _ in range(rng.randint(0, 3) if sides else 0):
            clause = []
            for _ in range(3):
                side = rng.choice(sides)
                var = rng.randint(1, n1 if side == "X" else n2)
                clause.append(Literal(side, var, rng.random() < 0.5))
            clauses.append(tuple(clause))
        yield B2cnfFormula(n1, n2, tuple(clauses))


class TestGoldenOutput:
    """Pins every vertex id, weight, edge, threshold and constant the five
    generators emit on a seeded sweep, and the type and message of every
    error they raise.  The soundness checks above only compare threshold
    decisions, so they would miss a renumbered vertex or a changed weight."""

    def test_digest_of_all_generators(self):
        rng = random.Random(20261018)
        digests = []
        for n, edges in _golden_sources(rng):
            for build in GRAPH_BUILDERS:
                for k in (-1, 0, 1, 2, 3):
                    digests.append(_run_digest(lambda: build(n, edges, k)))
        for formula in _golden_formulas(rng):
            digests.append(_run_digest(lambda: b2cnf_to_bis(formula)))
        combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
        assert combined == GOLDEN_DIGEST
