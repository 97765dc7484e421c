"""Exact toolkit for bilevel independent set and bilevel interval selection."""

from .core import (
    ALL_VARIANTS,
    BilevelOutcome,
    BisGraph,
    CompositeWeight,
    Interval,
    IntervalInstance,
    Objective,
    Owner,
    Setting,
    Variant,
    Vertex,
    check_leader_action,
    evaluate,
    intervals_pairwise_disjoint,
    is_independent,
    make_outcome,
    scale_base,
    to_interval_graph,
)
from .single_level import (
    SortedIntervals,
    bipartition,
    frank_dp,
    is_bipartite,
    mwis_bipartite,
    sort_and_index,
)
from .follower import (
    perturb,
    react,
    react_bottleneck,
    react_intervals,
    react_sum_graph,
    react_sum_graph_bottleneck,
)
from .interval_dp import DpTables, compute_tables, follower_block, reconstruct, solve_bisel
from .brute import (
    brute_bisel,
    brute_follower,
    brute_force,
    decide_b2cnf_brute,
    decide_vc_brute,
)
from .bis_solvers import (
    solve,
    solve_cb_db_o,
    solve_cs_db_o_bipartite,
    solve_cs_db_p_bipartite,
    solve_enum_leader,
    verify_certificate,
)
from .reductions import (
    B2cnfFormula,
    Literal,
    ReductionOutput,
    b2cnf_to_bis,
    is_to_bis,
    planar_vc_to_bipartite_bis,
    vc_to_bipartite_bis,
    vc_to_bis,
)
from .randgen import bench_dp, gen_random_graph, gen_random_intervals
from . import errors, fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
