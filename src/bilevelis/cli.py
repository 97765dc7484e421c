"""Command-line interface.

Exit codes: 0 success, 1 infeasible instance, 2 invalid input or
parameters, 3 brute-force cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bis_solvers import solve, verify_certificate
from .brute import BISEL_CAP, FOLLOWER_CAP, FORCE_CAP, brute_bisel, brute_follower, brute_force
from .core import Setting, Variant, make_outcome
from .errors import BadParameter, CapExceeded, Infeasible, SolverError
from .follower import react
from .interval_dp import solve_bisel
from .randgen import bench_dp, gen_random_graph, gen_random_intervals
from .reductions import (
    b2cnf_to_bis,
    is_to_bis,
    planar_vc_to_bipartite_bis,
    vc_to_bipartite_bis,
    vc_to_bis,
)
from .serialize import (
    b2cnf_from_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    instance_from_dict,
    intervals_from_dict,
    intervals_to_dict,
    load,
    outcome_to_dict,
    save,
)

_SETTINGS = {"o": Setting.OPTIMISTIC, "p": Setting.PESSIMISTIC}


def _emit(data: dict, output: str | None) -> None:
    if output:
        save(output, data)
    else:
        sys.stdout.write(dumps(data))


def _parse_ids(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(part) for part in text.split(","))


def _cmd_solve(args) -> int:
    outcome = solve(graph_from_dict(load(args.input)), Variant.from_code(args.variant))
    _emit(outcome_to_dict(outcome), args.output)
    return 0


def _cmd_solve_intervals(args) -> int:
    instance = intervals_from_dict(load(args.input))
    outcome = solve_bisel(instance, _SETTINGS[args.setting])
    _emit(outcome_to_dict(outcome), args.output)
    return 0


def _cmd_follower(args) -> int:
    instance = instance_from_dict(load(args.input))
    variant = Variant.from_code(args.variant)
    leader_set = _parse_ids(args.leader)
    reaction = react(instance, leader_set, variant)
    outcome = make_outcome(instance, variant, leader_set, reaction)
    _emit(outcome_to_dict(outcome), args.output)
    return 0


def _cmd_brute(args) -> int:
    graph = graph_from_dict(load(args.input))
    variant = Variant.from_code(args.variant)
    if args.leader is not None:
        leader_set = _parse_ids(args.leader)
        cap = FOLLOWER_CAP if args.cap is None else args.cap
        reaction = brute_follower(graph, leader_set, variant, cap=cap)
        outcome = make_outcome(graph, variant, leader_set, reaction)
    else:
        cap = FORCE_CAP if args.cap is None else args.cap
        outcome = brute_force(graph, variant, cap=cap)
    _emit(outcome_to_dict(outcome), args.output)
    return 0


def _cmd_brute_intervals(args) -> int:
    instance = intervals_from_dict(load(args.input))
    outcome = brute_bisel(instance, _SETTINGS[args.setting], cap=args.cap)
    _emit(outcome_to_dict(outcome), args.output)
    return 0


def _cmd_reduce(args) -> int:
    if args.kind == "b2cnf":
        if args.k is not None:
            raise ValueError("reduction 'b2cnf' takes no --k")
        formula = b2cnf_from_dict(load(args.input))
        result = b2cnf_to_bis(formula)
    else:
        if args.k is None:
            raise ValueError(f"reduction {args.kind!r} requires --k")
        graph = graph_from_dict(load(args.input))
        builder = {
            "vc": vc_to_bis,
            "planar-vc": planar_vc_to_bipartite_bis,
            "vc-bipartite": vc_to_bipartite_bis,
            "is": is_to_bis,
        }[args.kind]
        result = builder(len(graph), list(graph.edges), args.k)
    save(args.output, graph_to_dict(result.graph))
    meta = {
        "kind": args.kind,
        "k": args.k,
        "targets": [v.code for v in result.targets],
        "thresholds": {v.code: t for v, t in result.thresholds.items()},
        "constants": result.constants,
        "vertices": len(result.graph.vertices),
        "edges": len(result.graph.edges),
    }
    sys.stdout.write(dumps(meta))
    return 0


def _cmd_verify(args) -> int:
    graph = graph_from_dict(load(args.input))
    variant = Variant.from_code(args.variant)
    ok = verify_certificate(
        graph, variant, _parse_ids(args.leader), args.claimed
    )
    sys.stdout.write("true\n" if ok else "false\n")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "graph":
        if args.coord_max is not None:
            raise ValueError("gen graph takes no --coord-max")
        graph = gen_random_graph(
            n=args.n,
            edge_prob=0.3 if args.edge_prob is None else args.edge_prob,
            leader_fraction=args.leader_fraction,
            max_weight=args.max_weight,
            bipartite=args.bipartite,
            seed=args.seed,
        )
        _emit(graph_to_dict(graph), args.output)
    else:
        if args.edge_prob is not None:
            raise ValueError("gen intervals takes no --edge-prob")
        if args.bipartite:
            raise ValueError("gen intervals takes no --bipartite")
        instance = gen_random_intervals(
            n=args.n,
            coord_max=20 if args.coord_max is None else args.coord_max,
            leader_fraction=args.leader_fraction,
            max_weight=args.max_weight,
            seed=args.seed,
        )
        _emit(intervals_to_dict(instance), args.output)
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise BadParameter("no sizes given")
    rows = bench_dp(sizes, seed=args.seed)
    for n, ms in rows:
        sys.stdout.write(f"{n},{ms:.3f}\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it is shared, so do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="bilevelis",
        description="Exact bilevel independent-set / interval-selection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--input", required=True, help="instance file")
        if output:
            p.add_argument("--output", help="write result here instead of stdout")

    p = sub.add_parser("solve", help="exact solve of a graph instance")
    p.add_argument("--variant", required=True, help="{cs|cb}-{ds|db}-{o|p}")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-intervals", help="interval dynamic program")
    p.add_argument("--setting", required=True, choices=["o", "p"])
    add_common(p)
    p.set_defaults(func=_cmd_solve_intervals)

    p = sub.add_parser("follower", help="optimal follower reaction")
    p.add_argument("--variant", required=True)
    p.add_argument("--leader", required=True, help="comma-separated ids ('' = empty)")
    add_common(p)
    p.set_defaults(func=_cmd_follower)

    p = sub.add_parser("brute", help="exhaustive graph oracle")
    p.add_argument("--variant", required=True)
    p.add_argument("--leader", help="if given, only the follower reaction is enumerated")
    p.add_argument("--cap", type=int, help=f"default {FORCE_CAP}, {FOLLOWER_CAP} with --leader")
    add_common(p)
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("brute-intervals", help="exhaustive interval oracle")
    p.add_argument("--setting", required=True, choices=["o", "p"])
    p.add_argument("--cap", type=int, default=BISEL_CAP)
    add_common(p)
    p.set_defaults(func=_cmd_brute_intervals)

    p = sub.add_parser("reduce", help="generate a hardness-reduction instance")
    p.add_argument(
        "kind", choices=["b2cnf", "vc", "planar-vc", "vc-bipartite", "is"]
    )
    p.add_argument("--k", type=int, help="source decision threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="graph file to write")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check a leader action as a certificate")
    p.add_argument("--variant", required=True)
    p.add_argument("--leader", required=True)
    p.add_argument("--claimed", type=int, required=True)
    add_common(p, output=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="seeded random instance")
    p.add_argument("kind", choices=["graph", "intervals"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-prob", type=float, help="graph only, default 0.3")
    p.add_argument("--coord-max", type=int, help="intervals only, default 20")
    p.add_argument("--leader-fraction", type=float, default=0.5)
    p.add_argument("--max-weight", type=int, default=9)
    p.add_argument("--bipartite", action="store_true", help="graph only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the optimistic interval solver")
    p.add_argument("--sizes", required=True, help="comma-separated, ascending")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
