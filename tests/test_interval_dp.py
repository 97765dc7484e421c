import random

import pytest

from bilevelis import core, follower, interval_dp, single_level
from bilevelis.brute import brute_bisel
from bilevelis.core import (
    Interval,
    IntervalInstance,
    Owner,
    Setting,
    evaluate,
    Objective,
)
from bilevelis.errors import CorruptTables, IndexOutOfRange
from bilevelis.fixtures import i1, i2, showcase
from bilevelis.follower import perturb, react_intervals
from bilevelis.interval_dp import (
    compute_tables,
    follower_block,
    reconstruct,
    solve_bisel,
)
from bilevelis.randgen import gen_random_intervals
from bilevelis.single_level import sort_and_index
from helpers import (
    random_leader_action,
    reference_compute_tables,
    reference_frank_dp,
)

OPT, PES = Setting.OPTIMISTIC, Setting.PESSIMISTIC
LEAD, FOLL = Owner.LEADER, Owner.FOLLOWER


class TestFollowerBlock:
    def test_sentinel_window_holds_both_followers(self):
        inst = i1()
        ordered = sort_and_index(inst)
        for setting in (OPT, PES):
            assert follower_block(inst, ordered, 0, 3, setting) == (
                2,
                frozenset({2, 3}),
            )

    def test_window_after_first_leader_interval(self):
        inst = i1()
        ordered = sort_and_index(inst)
        assert follower_block(inst, ordered, 1, 3, OPT) == (2, frozenset({3}))

    def test_empty_window(self):
        inst = IntervalInstance(
            (Interval(0, 0, 1, LEAD, 1, 1), Interval(1, 2, 3, LEAD, 1, 1))
        )
        ordered = sort_and_index(inst)
        assert follower_block(inst, ordered, 1, 2, OPT) == (0, frozenset())

    def test_index_errors(self):
        inst = i1()
        ordered = sort_and_index(inst)
        with pytest.raises(IndexOutOfRange):
            follower_block(inst, ordered, 2, 2, OPT)
        with pytest.raises(IndexOutOfRange):
            follower_block(inst, ordered, 0, 4, OPT)
        with pytest.raises(IndexOutOfRange):
            # position 2 holds a follower interval
            follower_block(inst, ordered, 2, 3, OPT)


class TestSolveBisel:
    def test_leader_blocks_the_overlap(self):
        out = solve_bisel(i1(), OPT)
        assert out.leader_value == 6
        assert out.leader_set == frozenset({1})
        assert out.follower_set == frozenset({3})

    def test_follower_tie_split_by_setting(self):
        assert solve_bisel(i2(), OPT).leader_value == 3
        assert solve_bisel(i2(), PES).leader_value == 0

    def test_empty_instance(self):
        out = solve_bisel(IntervalInstance(()), OPT)
        assert out.leader_value == 0
        assert out.leader_set == out.follower_set == frozenset()

    def test_all_leader_instance_reduces_to_interval_selection(self):
        inst = IntervalInstance(
            (
                Interval(0, 0, 4, LEAD, 5, 0),
                Interval(1, 2, 6, LEAD, 4, 0),
                Interval(2, 5, 8, LEAD, 3, 0),
            )
        )
        assert solve_bisel(inst, OPT).leader_value == 8

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(3)
        for trial in range(150):
            inst = gen_random_intervals(rng.randint(0, 10), 20, 0.5, 9, seed=trial)
            for setting in (OPT, PES):
                assert (
                    solve_bisel(inst, setting).leader_value
                    == brute_bisel(inst, setting).leader_value
                ), (trial, setting)

    def test_optimistic_dominates_pessimistic(self):
        for trial in range(100):
            inst = gen_random_intervals(10, 20, 0.5, 9, seed=1000 + trial)
            assert (
                solve_bisel(inst, OPT).leader_value
                >= solve_bisel(inst, PES).leader_value
            )

    def test_showcase_both_settings_match_brute(self):
        inst = showcase()
        for setting in (OPT, PES):
            assert (
                solve_bisel(inst, setting).leader_value
                == brute_bisel(inst, setting).leader_value
            )


class TestTablesAndReconstruct:
    def test_prefix_optima_equal_truncated_solves(self):
        rng = random.Random(8)
        for trial in range(50):
            inst = gen_random_intervals(rng.randint(1, 9), 18, 0.5, 6, seed=trial)
            for setting in (OPT, PES):
                tables = compute_tables(inst, setting)
                order = tables.sorted_intervals.order
                for k in range(len(order) + 1):
                    prefix = IntervalInstance(
                        tuple(inst.by_id[i] for i in order[:k])
                    )
                    assert (
                        tables.opt[k]
                        == solve_bisel(prefix, setting).leader_value
                    ), (trial, setting, k)

    def test_witness_reproduces_the_optimum(self):
        rng = random.Random(21)
        for trial in range(100):
            inst = gen_random_intervals(rng.randint(1, 11), 20, 0.5, 8, seed=trial)
            for setting in (OPT, PES):
                tables = compute_tables(inst, setting)
                leader, follower = reconstruct(tables, inst, setting)
                value = evaluate(
                    Objective.SUM, Owner.LEADER, leader | follower, inst
                )
                assert value == tables.opt[len(inst)]
                rerun = react_intervals(inst, leader, setting)
                assert (
                    evaluate(Objective.SUM, Owner.LEADER, leader | rerun, inst)
                    == tables.opt[len(inst)]
                )

    def test_reconstruct_unique_optimum(self):
        tables = compute_tables(i1(), OPT)
        leader, follower = reconstruct(tables, i1(), OPT)
        assert leader == frozenset({1})
        assert follower == frozenset({3})

    def test_reconstruct_without_leader_intervals(self):
        tables = compute_tables(i2(), OPT)
        leader, _ = reconstruct(tables, i2(), OPT)
        assert leader == frozenset()

    def test_tampered_tables_detected(self):
        tables = compute_tables(i1(), OPT)
        tables.opt[-1] += 1
        with pytest.raises(CorruptTables):
            reconstruct(tables, i1(), OPT)

    # Two overlapping leader intervals: the walk back reads the skip record
    # at position 2, then the take record at position 1.
    _TAKE_SKIP = IntervalInstance((
        Interval(1, 0, 2, LEAD, 4, 1),
        Interval(2, 1, 3, LEAD, 1, 1),
    ))

    def test_take_and_skip_records_reconstruct(self):
        tables = compute_tables(self._TAKE_SKIP, OPT)
        assert tables.choice == {1: ("take",), 2: ("skip",)}
        assert reconstruct(tables, self._TAKE_SKIP, OPT) == (
            frozenset({1}), frozenset()
        )

    def test_missing_record_detected(self):
        tables = compute_tables(self._TAKE_SKIP, OPT)
        del tables.choice[1]
        with pytest.raises(CorruptTables, match="no record for position 1"):
            reconstruct(tables, self._TAKE_SKIP, OPT)

    def test_tampered_take_record_detected(self):
        tables = compute_tables(self._TAKE_SKIP, OPT)
        tables.choice[2] = ("take",)
        with pytest.raises(CorruptTables, match="take record at 2"):
            reconstruct(tables, self._TAKE_SKIP, OPT)

    def test_tampered_skip_record_detected(self):
        tables = compute_tables(self._TAKE_SKIP, OPT)
        tables.opt[-1] += 1
        with pytest.raises(CorruptTables, match="skip record at 2"):
            reconstruct(tables, self._TAKE_SKIP, OPT)

    def test_cached_block_weights_match_recomputation(self):
        inst = showcase()
        tables = compute_tables(inst, PES)
        ordered = tables.sorted_intervals
        for (j, k), cached in tables.sol_leader_weight.items():
            weight, _ = follower_block(inst, ordered, j, k, PES)
            assert weight == cached

    def test_leader_positions_never_drop_below_their_predecessor(self):
        # monotonicity holds only along the take-or-skip positions
        rng = random.Random(6)
        for trial in range(50):
            inst = gen_random_intervals(rng.randint(1, 12), 20, 0.6, 7, seed=trial)
            for setting in (OPT, PES):
                tables = compute_tables(inst, setting)
                order = tables.sorted_intervals.order
                prev = tables.sorted_intervals.prev_disjoint
                for k in range(1, len(order) + 1):
                    if inst.by_id[order[k - 1]].owner is LEAD:
                        assert tables.opt[k] >= tables.opt[prev[k]]
                        assert tables.opt[k] >= tables.opt[k - 1]


class TestSweepAgainstAllPairs:
    def test_tables_equal_the_all_pairs_reference(self):
        rng = random.Random(55)
        for trial in range(600):
            n = rng.randint(0, 40)
            inst = gen_random_intervals(
                n,
                coord_max=max(1, n * rng.choice((1, 2, 4))),
                leader_fraction=rng.random(),
                max_weight=rng.choice((0, 1, 3, 9)),
                seed=trial,
            )
            for setting in (OPT, PES):
                tables = compute_tables(inst, setting)
                reference = reference_compute_tables(inst, setting)
                assert tables.opt == reference.opt, (trial, setting)
                assert tables.choice == reference.choice, (trial, setting)
                ordered = tables.sorted_intervals
                for (j, k), cached in tables.sol_leader_weight.items():
                    weight, _ = follower_block(inst, ordered, j, k, setting)
                    assert weight == cached, (trial, setting, j, k)

    def test_tables_equal_the_all_pairs_reference_at_large_weights(self):
        # Weights up to 10**12 put block leader weights next to the scale
        # they are read back from; few distinct values keep ties common.
        rng = random.Random(56)
        big = 10**12
        for trial in range(400):
            n = rng.randint(0, 24)
            shape = gen_random_intervals(
                n,
                coord_max=max(1, n * rng.choice((1, 2, 4))),
                leader_fraction=rng.choice((0.0, rng.random())),
                max_weight=0,
                seed=trial,
            )
            values = (0, 1, big - 1, big, rng.randint(0, big))
            inst = IntervalInstance(tuple(
                Interval(iv.id, iv.start, iv.end, iv.owner,
                         wl=rng.choice(values), wf=rng.choice(values))
                for iv in shape.intervals
            ))
            for setting in (OPT, PES):
                tables = compute_tables(inst, setting)
                reference = reference_compute_tables(inst, setting)
                assert tables.opt == reference.opt, (trial, setting)
                assert tables.choice == reference.choice, (trial, setting)
                for key, cached in tables.sol_leader_weight.items():
                    assert cached == reference.sol_leader_weight[key], (
                        trial, setting, key
                    )

    def test_one_perturb_and_no_frank_dp_per_call(self, monkeypatch):
        """One tie-break encoding of the whole instance per call, and no
        per-block follower optimum: the prefix passes price every block."""
        calls = {"_tie_break": 0, "_best_intervals": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(
                interval_dp, name, counted(name, getattr(interval_dp, name))
            )
        for seed in range(5):
            inst = gen_random_intervals(60, 120, 0.5, 9, seed=seed)
            for setting in (OPT, PES):
                calls.update(_tie_break=0, _best_intervals=0)
                tables = compute_tables(inst, setting)
                assert calls == {"_tie_break": 1, "_best_intervals": 0}
                followers = sum(iv.owner is FOLL for iv in inst.intervals)
                assert len(tables.sol_leader_weight) == followers


def _tied_or_large_weights(rng, trial):
    """A seeded instance with n <= 12 whose weights come from few values,
    so that ties are common: 0 only, 0..1, 0..2 and 0..3 in turn on even
    trials, and 0, 1, 10**12 - 1, 10**12 and one random value below
    10**12 on odd ones."""
    n = rng.randint(0, 12)
    shape = gen_random_intervals(
        n,
        coord_max=max(1, n * rng.choice((1, 2, 4))),
        leader_fraction=rng.random(),
        max_weight=0,
        seed=trial,
    )
    big = 10**12
    if trial % 2:
        values = (0, 1, big - 1, big, rng.randint(0, big))
    else:
        values = range(1 + trial // 2 % 4)
    return IntervalInstance(tuple(
        Interval(iv.id, iv.start, iv.end, iv.owner,
                 wl=rng.choice(values), wf=rng.choice(values))
        for iv in shape.intervals
    ))


def _leader_positions(inst, ordered):
    return [
        k for k, iid in enumerate(ordered.order, start=1)
        if inst.by_id[iid].owner is LEAD
    ]


class TestIntervalOraclesAgainstPreviousPath:
    """``react_intervals`` and ``follower_block`` build their tie-break
    integers over their own intervals and run the take-or-skip kernel; the
    path they replace ran ``frank_dp`` on ``perturb`` of the whole
    instance."""

    def test_same_sets_as_frank_dp_on_perturb(self):
        rng = random.Random(58)
        for trial in range(1000):
            inst = _tied_or_large_weights(rng, trial)
            ordered = sort_and_index(inst)
            order = ordered.order
            for setting in (OPT, PES):
                weight = perturb(inst, setting)
                action = random_leader_action(rng, inst)
                taken = [inst.by_id[i] for i in action]
                free = [
                    iv.id for iv in inst.intervals
                    if iv.owner is FOLL and not any(iv.overlaps(t) for t in taken)
                ]
                _, want = reference_frank_dp(inst, weight, free)
                got = react_intervals(inst, action, setting)
                assert got == want, (trial, setting, action)
                for j in [0, *_leader_positions(inst, ordered)]:
                    cutoff = inst.by_id[order[j - 1]].end if j else None
                    for k in range(j + 1, len(order) + 1):
                        window = [
                            iid for iid in order[j:k]
                            if inst.by_id[iid].owner is FOLL
                            and (cutoff is None or inst.by_id[iid].start >= cutoff)
                        ]
                        _, want = reference_frank_dp(inst, weight, window)
                        got = follower_block(inst, ordered, j, k, setting)
                        assert got == (
                            sum(inst.by_id[i].wl for i in want), want
                        ), (trial, setting, j, k)

    def test_no_perturb_frank_dp_or_weight_sum(self, monkeypatch):
        calls = {"perturb": 0, "frank_dp": 0, "weight_sum": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module in (core, single_level, follower, interval_dp):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, counted(name, getattr(module, name))
                    )
        rng = random.Random(59)
        for seed in range(5):
            inst = gen_random_intervals(60, 120, 0.5, 9, seed=seed)
            ordered = sort_and_index(inst)
            for setting in (OPT, PES):
                react_intervals(inst, random_leader_action(rng, inst), setting)
                for j in [0, *_leader_positions(inst, ordered)]:
                    if j < len(ordered):
                        follower_block(inst, ordered, j, len(ordered), setting)
        assert calls == {"perturb": 0, "frank_dp": 0, "weight_sum": 0}
