"""Span tracing of ``bilevelis`` from outside the package.

``Tracer.install`` replaces every public function of every ``bilevelis``
module, in every module namespace that binds it, by a wrapper that records
one span per call: name (the function's home ``module.function``), the
namespace it was called through, start, end, parent span, the CLI call it
belongs to, an argument size where one is meaningful, and whether it
raised.  Spans live in flat arrays until the run ends; ``layer_metrics``
then derives self time (span duration minus the time its child spans
cover) and exact counts from the span tree.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array

# Argument whose length is summed as the span's size: (position, keyword).
SIZE_ARGS = {
    "single_level.frank_dp": (2, "restrict"),
    "single_level.mwis_bipartite": (2, "restrict"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.sites: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._site_ids: dict[str, int] = {}
        self.name = array("H")
        self.site = array("H")
        self.parent = array("q")
        self.call = array("q")
        self.size = array("q")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, table, ids, key) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _wrap(self, func, name: str, site: str):
        nid = self._intern(self.names, self._name_ids, name)
        sid = self._intern(self.sites, self._site_ids, site)
        size_pos, size_kw = SIZE_ARGS.get(name, (None, None))
        stack = self._stack
        names, sites, parents, calls = self.name, self.site, self.parent, self.call
        sizes, errors, starts, ends = self.size, self.error, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            size = -1
            if size_pos is not None:
                # Sized so the count never consumes a one-shot iterator.
                if len(args) > size_pos:
                    arg = tuple(args[size_pos])
                    args = args[:size_pos] + (arg,) + args[size_pos + 1:]
                else:
                    arg = kwargs[size_kw] = tuple(kwargs[size_kw])
                size = len(arg)
            idx = len(starts)
            names.append(nid)
            sites.append(sid)
            parents.append(stack[-1] if stack else -1)
            calls.append(tracer.call_id)
            sizes.append(size)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def install(self, package) -> None:
        """Wrap every public function in every namespace of ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        for module in modules:
            site = module.__name__.removeprefix(prefix)
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith(prefix)
                ):
                    continue
                home = value.__module__.removeprefix(prefix)
                name = f"{home}.{value.__name__}"
                setattr(module, attr, self._wrap(value, name, site))
                self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def spans(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def dump(self, path: str) -> None:
        data = {
            "names": self.names,
            "sites": self.sites,
            "columns": ["name", "site", "parent", "call", "size", "error",
                        "start", "end"],
            "spans": [list(self.name), list(self.site), list(self.parent),
                      list(self.call), list(self.size), list(self.error),
                      list(self.start), list(self.end)],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


# Groups of span names reported together.
_POLY = ("bis_solvers.solve_cb_db_o", "bis_solvers.solve_cs_db_o_bipartite",
         "bis_solvers.solve_cs_db_p_bipartite")
_LOAD_PARSE = ("serialize.instance_from_dict", "serialize.graph_from_dict",
               "serialize.intervals_from_dict", "serialize.b2cnf_from_dict")
_EMIT = ("serialize.outcome_to_dict", "serialize.dumps")
_REACT = ("react_sum_graph", "react_bottleneck", "react_sum_graph_bottleneck",
          "react_intervals")
_BRUTE = ("brute_force", "brute_bisel", "brute_follower")
MODULES = ("cli", "serialize", "core", "single_level", "follower",
           "interval_dp", "bis_solvers", "brute", "reductions")

# (metric, unit) in report order; every name is listed in BENCHMARK.json.
LAYER_METRICS = (
    [
        ("interval_dp.follower_block.calls", "count"),
        ("interval_dp.follower_block.self_ms", "ms"),
        ("interval_dp.compute_tables.self_ms", "ms"),
        ("interval_dp.reconstruct.self_ms", "ms"),
        ("follower.perturb.calls", "count"),
        ("follower.perturb.self_ms", "ms"),
        ("single_level.frank_dp.calls", "count"),
        ("single_level.frank_dp.self_ms", "ms"),
        ("single_level.frank_dp.items", "count"),
        ("single_level.sort_and_index.self_ms", "ms"),
        ("single_level.mwis_bipartite.calls", "count"),
        ("single_level.mwis_bipartite.self_ms", "ms"),
        ("single_level.mwis_bipartite.vertices", "count"),
        ("single_level.bipartition.calls", "count"),
        ("single_level.bipartition.self_ms", "ms"),
        ("follower.react.calls", "count"),
        ("follower.react.useful_ratio", "ratio"),
    ]
    + [(f"follower.{r}.{m}", u) for r in _REACT
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("bis_solvers.leader_actions", "count"),
        ("bis_solvers.fallbacks", "count"),
        ("bis_solvers.solve_enum_leader.self_ms", "ms"),
        ("bis_solvers.poly.self_ms", "ms"),
        ("bis_solvers.verify_certificate.calls", "count"),
    ]
    + [(f"brute.{b}.{m}", u) for b in _BRUTE
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("reductions.calls", "count"),
        ("serialize.load.self_ms", "ms"),
        ("serialize.instance_from_dict.self_ms", "ms"),
        ("serialize.emit.self_ms", "ms"),
        ("core.make_outcome.self_ms", "ms"),
        ("core.evaluate.calls", "count"),
    ]
    + [(f"{m}.self_ms", "ms") for m in MODULES]
    + [
        ("trace.spans", "count"),
        ("trace.overhead", "ratio"),
    ]
)

# Counts that repeat exactly between two traced runs of one seed.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span the tracer holds
    (``trace.overhead`` is filled in by the caller)."""
    own = tracer.self_times()
    names = tracer.names
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    size: dict[str, int] = {}
    failed: dict[str, int] = {}
    module_ms: dict[str, float] = {}
    leader_actions = fallbacks = 0
    for idx, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + own[idx] * 1e3
        module = name.split(".", 1)[0]
        module_ms[module] = module_ms.get(module, 0.0) + own[idx] * 1e3
        if tracer.size[idx] >= 0:
            size[name] = size.get(name, 0) + tracer.size[idx]
        if tracer.error[idx]:
            failed[name] = failed.get(name, 0) + 1
        parent = tracer.parent[idx]
        if parent >= 0 and names[tracer.name[parent]] == "bis_solvers.solve_enum_leader":
            if name == "follower.react":
                leader_actions += 1
        if name == "brute.brute_follower" and tracer.sites[tracer.site[idx]] == "bis_solvers":
            fallbacks += 1

    def group_ms(group) -> float:
        return sum(self_ms.get(n, 0.0) for n in group)

    react_calls = calls.get("follower.react", 0)
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls" and base != "reductions":
            out[metric] = calls.get(base, 0)
        elif field == "self_ms" and base in MODULES:
            out[metric] = module_ms.get(base, 0.0)
        elif field == "self_ms" and base.count(".") == 1:
            out[metric] = self_ms.get(base, 0.0)
        elif field in ("items", "vertices"):
            out[metric] = size.get(base, 0)
    out["follower.react.useful_ratio"] = (
        (react_calls - failed.get("follower.react", 0)) / react_calls
        if react_calls else 0.0
    )
    out["bis_solvers.leader_actions"] = leader_actions
    out["bis_solvers.fallbacks"] = fallbacks
    out["bis_solvers.poly.self_ms"] = group_ms(_POLY)
    out["reductions.calls"] = sum(
        c for n, c in calls.items() if n.startswith("reductions.")
    )
    out["serialize.instance_from_dict.self_ms"] = group_ms(_LOAD_PARSE)
    out["serialize.emit.self_ms"] = group_ms(_EMIT)
    out["trace.spans"] = tracer.spans()
    return out
