import math
import random
from dataclasses import replace

import pytest

from bilevelis.brute import (
    brute_bisel,
    brute_follower,
    brute_force,
    decide_b2cnf_brute,
    decide_vc_brute,
)
from bilevelis.core import (
    BisGraph,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    Vertex,
    evaluate,
    is_independent,
    intervals_pairwise_disjoint,
    to_interval_graph,
)
from bilevelis.errors import CapExceeded, Infeasible, MalformedClause
from bilevelis.fixtures import g1, g2, i1, i2
from bilevelis.randgen import gen_random_graph, gen_random_intervals
from bilevelis.reductions import B2cnfFormula, Literal
from helpers import (
    powerset,
    random_leader_action,
    reference_optimum,
    reference_reaction,
)

V = Variant.from_code
OPT, PES = Setting.OPTIMISTIC, Setting.PESSIMISTIC
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER

K3_EDGES = [(0, 1), (1, 2), (0, 2)]
ALL_CODES = [f"{c}-{d}-{s}" for c in ("cs", "cb") for d in ("ds", "db")
             for s in ("o", "p")]


class TestBruteFollower:
    def test_unique_nonempty_reaction(self):
        assert brute_follower(g1(), frozenset(), V("cs-ds-p")) == frozenset({1})

    def test_tie_on_follower_value_broken_by_leader_value(self):
        assert brute_follower(i2(), frozenset(), V("cs-ds-o")) == frozenset({1})

    def test_no_follower_vertex_free(self):
        assert brute_follower(g2(), {0, 2}, V("cs-ds-o")) == frozenset()

    def test_cap(self):
        graph = gen_random_graph(10, 0.2, 0.0, 3, seed=1)  # all follower
        with pytest.raises(CapExceeded):
            brute_follower(graph, frozenset(), V("cs-ds-o"), cap=5)

    def test_infeasible_empty_action_no_followers(self):
        graph = BisGraph((Vertex(0, LEAD, 1, 1),), ())
        with pytest.raises(Infeasible):
            brute_follower(graph, frozenset(), V("cs-ds-o"))

    def test_rejects_bad_leader_action(self):
        with pytest.raises(ValueError):
            brute_follower(g1(), {1}, V("cs-ds-o"))  # follower-owned id

    def _assert_reaction_optimal(self, instance, action, variant, reaction):
        """Independent second pass: re-enumerate with itertools and check
        no admissible reaction beats the returned one."""
        is_graph = isinstance(instance, BisGraph)
        feas = is_independent if is_graph else intervals_pairwise_disjoint
        free = [
            i
            for i in instance.follower_ids
            if feas(instance, action | {i})
        ]

        def value(obj, role, union):
            if not union:
                return math.inf if obj is Objective.BOTTLENECK else 0
            return evaluate(obj, role, union, instance)

        def d_c(fset):
            union = action | fset
            return (
                value(variant.follower_obj, FOLL, union),
                value(variant.leader_obj, LEAD, union),
            )

        assert feas(instance, action | reaction)
        d_got, c_got = d_c(reaction)
        for candidate in powerset(free):
            if not feas(instance, action | candidate):
                continue
            if is_graph and not (action | candidate):
                continue
            d_alt, c_alt = d_c(candidate)
            assert d_alt <= d_got
            if d_alt == d_got:
                if variant.setting is OPT:
                    assert c_alt <= c_got
                else:
                    assert c_alt >= c_got

    @pytest.mark.parametrize("code", ["cs-ds-o", "cb-ds-p", "cs-db-p", "cb-db-o"])
    def test_second_enumeration_pass_on_graphs(self, code):
        rng = random.Random(code)
        for trial in range(40):
            graph = gen_random_graph(rng.randint(1, 9), 0.4, 0.5, 5, seed=trial)
            action = random_leader_action(rng, graph)
            if not action and not graph.follower_ids:
                continue
            reaction = brute_follower(graph, action, V(code))
            self._assert_reaction_optimal(graph, action, V(code), reaction)

    def test_second_enumeration_pass_on_intervals(self):
        rng = random.Random(5)
        for trial in range(40):
            inst = gen_random_intervals(rng.randint(0, 9), 12, 0.5, 5, seed=trial)
            action = random_leader_action(rng, inst)
            reaction = brute_follower(inst, action, V("cs-ds-p"))
            self._assert_reaction_optimal(inst, action, V("cs-ds-p"), reaction)


class TestBruteForce:
    def test_leader_keeps_both_endpoints(self):
        out = brute_force(g1(), V("cs-ds-o"))
        assert out.leader_value == 7
        assert out.leader_set == frozenset({0, 2})
        assert out.follower_set == frozenset()

    def test_pessimistic_bottleneck(self):
        out = brute_force(g1(), V("cb-db-p"))
        assert out.leader_value == 5
        assert out.leader_set == frozenset({0})

    def test_single_follower_vertex_forces_empty_action(self):
        graph = BisGraph((Vertex(0, FOLL, 0, 1),), ())
        out = brute_force(graph, V("cb-db-o"))
        assert out.leader_value == 0
        assert out.leader_set == frozenset()
        assert out.follower_set == frozenset({0})

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force(gen_random_graph(17, 0.2, 0.5, 3, seed=0), V("cs-ds-o"))

    def test_empty_graph_infeasible(self):
        with pytest.raises(Infeasible):
            brute_force(BisGraph((), ()), V("cs-ds-o"))

    def test_outcome_invariants(self):
        rng = random.Random(13)
        for trial in range(60):
            graph = gen_random_graph(rng.randint(1, 10), 0.4, 0.5, 5, seed=trial)
            for code in ["cs-ds-o", "cb-db-p", "cs-db-o", "cb-ds-p"]:
                variant = V(code)
                try:
                    out = brute_force(graph, variant)
                except Infeasible:
                    assert not graph.leader_ids and not graph.follower_ids
                    continue
                union = out.leader_set | out.follower_set
                assert union
                assert is_independent(graph, union)
                assert all(graph.item(v).owner is LEAD for v in out.leader_set)
                assert all(graph.item(v).owner is FOLL for v in out.follower_set)
                assert out.leader_value == evaluate(
                    variant.leader_obj, LEAD, union, graph
                )
                assert out.follower_value == evaluate(
                    variant.follower_obj, FOLL, union, graph
                )

    def test_relaxed_union_matches_interval_oracle(self):
        rng = random.Random(2)
        for trial in range(60):
            inst = gen_random_intervals(rng.randint(0, 10), 15, 0.5, 6, seed=trial)
            graph = to_interval_graph(inst)
            for setting, code in ((OPT, "cs-ds-o"), (PES, "cs-ds-p")):
                want = brute_bisel(inst, setting).leader_value
                got = brute_force(
                    graph, V(code), require_union_nonempty=False
                ).leader_value
                assert got == want


class TestBruteBisel:
    def test_small_instance(self):
        assert brute_bisel(i1(), OPT).leader_value == 6

    def test_empty_instance(self):
        out = brute_bisel(IntervalInstance(()), OPT)
        assert out.leader_value == 0
        assert out.leader_set == out.follower_set == frozenset()

    def test_pessimistic_tie(self):
        assert brute_bisel(i2(), PES).leader_value == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_bisel(gen_random_intervals(25, 30, 0.5, 3, seed=0), OPT)


def _sparse_ids(instance: IntervalInstance, rng) -> IntervalInstance:
    """The same intervals under shuffled ids that are not dense from 0."""
    ids = rng.sample(range(3 * len(instance) + 1), len(instance))
    return IntervalInstance(tuple(
        replace(iv, id=new) for iv, new in zip(instance.intervals, ids)
    ))


def _negative_ids(instance: IntervalInstance, rng) -> IntervalInstance:
    """The same intervals under ids from -30..29, with gaps, handed to
    ``IntervalInstance`` in shuffled order."""
    ids = rng.sample(range(-30, 30), len(instance))
    intervals = [replace(iv, id=new) for iv, new in zip(instance.intervals, ids)]
    rng.shuffle(intervals)
    return IntervalInstance(tuple(intervals))


def _ids_pair(out) -> tuple:
    return tuple(sorted(out.leader_set)), tuple(sorted(out.follower_set))


class TestSmallestIdTupleTieBreak:
    """The last tie-break of every oracle against the itertools references
    in ``helpers``.  Weights in {0, 1} make ties common."""

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_follower_on_graphs(self, code):
        rng = random.Random(code)
        for trial in range(40):
            graph = gen_random_graph(rng.randint(1, 8), 0.3, 0.4, 1, seed=trial)
            action = random_leader_action(rng, graph)
            want = reference_reaction(graph, action, V(code), True)
            if want is None:
                with pytest.raises(Infeasible):
                    brute_follower(graph, action, V(code))
                continue
            got = brute_follower(graph, action, V(code))
            assert tuple(sorted(got)) == want

    @pytest.mark.parametrize("setting", [OPT, PES], ids=["o", "p"])
    def test_follower_on_intervals(self, setting):
        variant = Variant(Objective.SUM, Objective.SUM, setting)
        rng = random.Random(setting.value)
        for trial in range(40):
            inst = _sparse_ids(
                gen_random_intervals(rng.randint(0, 8), 10, 0.4, 1, seed=trial),
                rng,
            )
            action = random_leader_action(rng, inst)
            want = reference_reaction(inst, action, variant, False)
            assert tuple(sorted(brute_follower(inst, action, variant))) == want

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_brute_force(self, code):
        rng = random.Random(code)
        for trial in range(30):
            graph = gen_random_graph(rng.randint(1, 8), 0.3, 0.5, 1, seed=trial)
            want = reference_optimum(graph, V(code), True)
            assert _ids_pair(brute_force(graph, V(code))) == want

    @pytest.mark.parametrize("setting", [OPT, PES], ids=["o", "p"])
    def test_brute_bisel(self, setting):
        variant = Variant(Objective.SUM, Objective.SUM, setting)
        rng = random.Random(setting.value)
        for trial in range(40):
            inst = _sparse_ids(
                gen_random_intervals(rng.randint(0, 8), 10, 0.5, 1, seed=trial),
                rng,
            )
            want = reference_optimum(inst, variant, False)
            assert _ids_pair(brute_bisel(inst, setting)) == want


class TestNegativeIntervalIds:
    """Positions read back to ids on interval instances whose ids are
    negative, have gaps and come unsorted, against the references."""

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_follower(self, code):
        rng = random.Random(code)
        for trial in range(25):
            inst = _negative_ids(
                gen_random_intervals(rng.randint(0, 9), 12, 0.4, 3, seed=trial),
                rng,
            )
            action = random_leader_action(rng, inst)
            want = reference_reaction(inst, action, V(code), False)
            got = brute_follower(inst, action, V(code))
            assert tuple(sorted(got)) == want

    @pytest.mark.parametrize("setting", [OPT, PES], ids=["o", "p"])
    def test_bisel(self, setting):
        variant = Variant(Objective.SUM, Objective.SUM, setting)
        rng = random.Random(setting.value)
        for trial in range(25):
            inst = _negative_ids(
                gen_random_intervals(rng.randint(0, 9), 12, 0.5, 3, seed=trial),
                rng,
            )
            want = reference_optimum(inst, variant, False)
            assert _ids_pair(brute_bisel(inst, setting)) == want


class TestDecideVc:
    def test_triangle(self):
        assert not decide_vc_brute(3, K3_EDGES, 1)
        assert decide_vc_brute(3, K3_EDGES, 2)

    def test_edgeless(self):
        assert decide_vc_brute(4, [], 0)

    def test_edgeless_negative_budget(self):
        assert decide_vc_brute(3, [], -1) is False
        assert decide_vc_brute(3, [], 0) is True

    def test_cap(self):
        with pytest.raises(CapExceeded):
            decide_vc_brute(25, [], 1)

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            decide_vc_brute(2, [(0, 0)], 1)

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)]])
    def test_duplicate_edge(self, edges):
        with pytest.raises(ValueError, match="duplicate edges"):
            decide_vc_brute(3, edges, 1)

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(19)
        for trial in range(50):
            n = rng.randint(1, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            k = rng.randint(0, n)
            want = any(
                all(u in s or v in s for u, v in edges)
                for s in powerset(range(n))
                if len(s) <= k
            )
            assert decide_vc_brute(n, edges, k) == want


@pytest.mark.parametrize("call", [
    lambda: brute_follower(g1(), frozenset(), V("cs-ds-o"), cap=-1),
    lambda: brute_force(g1(), V("cs-ds-o"), cap=-1),
    lambda: brute_bisel(i1(), OPT, cap=-1),
    lambda: decide_vc_brute(3, K3_EDGES, 1, cap=-1),
    lambda: decide_b2cnf_brute(B2cnfFormula(1, 1, ()), cap=-1),
], ids=["follower", "force", "bisel", "vc", "b2cnf"])
def test_negative_cap_is_a_bad_parameter(call):
    with pytest.raises(ValueError, match="cap must be non-negative"):
        call()


def _formula(*clauses):
    return B2cnfFormula(1, 1, tuple(clauses))


def _lit(side, neg):
    return Literal(side, 1, neg)


class TestDecideB2cnf:
    """Expected values computed by direct enumeration of the 2x2
    assignment square: yes iff some x-assignment leaves the formula
    unsatisfied under both y-assignments."""

    def _reference(self, formula):
        def lit_val(lit, x, y):
            val = x if lit.side == "X" else y
            return val != lit.negated

        def sat(x, y):
            return all(
                any(lit_val(l, x, y) for l in clause)
                for clause in formula.clauses
            )

        return any(
            all(not sat(x, y) for y in (False, True)) for x in (False, True)
        )

    def test_pure_x_clause_is_killable(self):
        f = _formula((_lit("X", True),) * 3)  # one clause: not-x three times
        assert self._reference(f) is True
        assert decide_b2cnf_brute(f) is True

    def test_y_literal_always_rescuable(self):
        f = _formula((_lit("X", True), _lit("Y", True), _lit("Y", True)))
        assert self._reference(f) is False
        assert decide_b2cnf_brute(f) is False

    def test_positive_clause(self):
        f = _formula((_lit("X", False), _lit("Y", False), _lit("Y", False)))
        assert self._reference(f) is False
        assert decide_b2cnf_brute(f) is False

    def test_contradictory_x_clauses(self):
        f = _formula((_lit("X", True),) * 3, (_lit("X", False),) * 3)
        # whatever x is, one clause fails: always unsatisfied
        assert self._reference(f) is True
        assert decide_b2cnf_brute(f) is True

    def test_matches_reference_on_enumeration(self):
        from helpers import all_small_b2cnf

        for formula in all_small_b2cnf(2):
            assert decide_b2cnf_brute(formula) == self._reference(formula)

    def test_malformed_clause(self):
        with pytest.raises(MalformedClause):
            B2cnfFormula(1, 1, ((_lit("X", True), _lit("Y", False)),))

    def test_cap(self):
        f = B2cnfFormula(10, 10, ())
        with pytest.raises(CapExceeded):
            decide_b2cnf_brute(f, cap=16)
