"""Seeded closed-loop benchmark of the ``bilevelis`` command line.

Run from the repository root:

    python3 benchmark/run.py --workload enum --seed 1 --seconds 15 --trace 0

One process, one thread, one client: each ``bilevelis.cli.main(argv)``
call starts when the previous one returns.  Set-up is everything from
process start to the first timed call: interpreter start, imports,
seeded instance generation, reductions, writing instance files, and a
warm-up round on the pools' warm-up slots, which no run times.
``setup_s`` is the median over ``SETUP_PROBES`` fresh processes that each
do the same set-up and stop where the first timed call would begin
(``--setup-only``).  The timed loop runs whole rounds until ``--seconds``
of timed wall time have passed; at the start and after each further
``1/SETUP_PROBES`` of it, its clock stops while one probe runs, so the
probes and the timed calls sample the machine over the same stretch of
time.  Only one process runs at a time.  Every call's exit code and
stdout digest is compared with ``refs.json``; a mismatch counts as a
failed call.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
a fixed number of rounds twice, untraced and then with every public
``bilevelis`` function wrapped (see ``spans.py``), reports per-layer self
times and exact counts, the tracing overhead, and writes the spans to
``benchmark/out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from spans import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, schedule

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFS = HERE / "refs.json"
SETUP_PROBES = 4  # fresh processes whose set-up time gives setup_s
DIGEST_HEX = 10  # hex digits of the sha256 kept per call in refs.json


def import_lib() -> SimpleNamespace:
    """Import ``bilevelis`` from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("brute", "cli", "core", "errors", "randgen", "reductions",
             "serialize")
    mods = {n: importlib.import_module(f"bilevelis.{n}") for n in names}
    return SimpleNamespace(package=sys.modules["bilevelis"], **mods)


def run_call(cli, argv: list[str]) -> tuple[str, float]:
    """Run one CLI call in-process.  Returns its result token (exit code
    followed by the leading hex digits of the sha256 of its stdout, and of
    the file it wrote for ``reduce``) and its wall time in seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed call too
            code = f"!{type(exc).__name__}"
        elapsed = time.perf_counter() - started
    digest = hashlib.sha256(out.getvalue().encode())
    if argv[0] == "reduce" and code == 0:
        with open(argv[argv.index("--output") + 1], "rb") as handle:
            digest.update(handle.read())
    return f"{code}{digest.hexdigest()[:DIGEST_HEX]}", elapsed


def load_refs() -> dict[str, list[list[str]]]:
    with open(REFS, encoding="utf-8") as handle:
        data = json.load(handle)
    return {fam: [slot.split() for slot in slots]
            for fam, slots in data["families"].items()}


def expected(refs, key) -> str | None:
    family, slot, index = key
    try:
        return refs[family][slot][index]
    except (KeyError, IndexError):
        return None


def assert_single_threaded() -> None:
    """The load generator is one thread in one process with no children."""
    if threading.active_count() != 1:
        raise RuntimeError(f"{threading.active_count()} Python threads")
    tasks = Path("/proc/self/task")
    if tasks.is_dir() and len(list(tasks.iterdir())) != 1:
        raise RuntimeError("the process runs more than one native thread")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise RuntimeError("the benchmark process has child processes")


class Checker:
    """Runs calls, compares them with the references, counts failures."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[tuple] = []

    def run(self, cli, key, argv) -> float:
        token, elapsed = run_call(cli, argv)
        self.attempted += 1
        if token != expected(self.refs, key):
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append((key, argv, token))
        return elapsed


def set_up(workload, seed: int, directory: str, checker: Checker):
    """One set-up: import, instance files, warm-up round."""
    lib = import_lib()
    warmup, rounds = schedule(workload, lib, seed, directory)
    for key, argv in warmup:
        checker.run(lib.cli, key, argv)
    return lib, rounds


def timed_loop(lib, rounds, seconds: float, checker: Checker, probe):
    """Closed loop over whole rounds until ``seconds`` of timed wall time
    have passed, stopping the clock for a set-up probe at the start and
    after each further ``seconds / SETUP_PROBES``."""
    durations: list[float] = []
    setups: list[float] = []
    wall = cpu = 0.0
    done = 0
    while wall < seconds:
        if len(setups) < min(SETUP_PROBES, SETUP_PROBES * wall / seconds + 1):
            setups.append(probe())
        cpu0 = time.process_time()
        start = time.perf_counter()
        for key, argv in rounds[done % len(rounds)]:
            durations.append(checker.run(lib.cli, key, argv))
        wall += time.perf_counter() - start
        cpu += time.process_time() - cpu0
        done += 1
    while len(setups) < SETUP_PROBES:  # a run too short for all of them
        setups.append(probe())
    return durations, setups, wall, cpu, done


def traced_pass(lib, calls, checker: Checker):
    tracer = Tracer()
    tracer.install(lib.package)
    try:
        start = time.perf_counter()
        for i, (key, argv) in enumerate(calls):
            tracer.call_id = i
            checker.run(lib.cli, key, argv)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, elapsed


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure_traced(workload, seed: int, lib, rounds, checker: Checker) -> dict:
    """Replay ``trace_rounds`` rounds untraced, then traced; report the
    per-layer metrics and the tracing overhead, and write the spans."""
    calls = [c for r in range(workload.trace_rounds)
             for c in rounds[r % len(rounds)]]
    start = time.perf_counter()
    for key, argv in calls:
        checker.run(lib.cli, key, argv)
    untraced = time.perf_counter() - start
    tracer, traced = traced_pass(lib, calls, checker)
    assert_single_threaded()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = 1.0 - untraced / traced
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    tracer.dump(str(spans_path))
    print(f"workload={workload.name} seed={seed} traced calls={len(calls)} "
          f"untraced_s={untraced:.3f} traced_s={traced:.3f} "
          f"spans={tracer.spans()} -> {spans_path.relative_to(HERE.parent)}")
    for name, unit in LAYER_METRICS:
        print(f"  {name:42s} {_fmt(metrics[name]):>14s} {unit}")
    return {n: {"value": metrics[n], "unit": u} for n, u in LAYER_METRICS}


def probe_setup(workload, seed: int, checker: Checker) -> float:
    """Set-up time of one fresh process, from just before it is started to
    where its first timed call would begin."""
    began = time.monotonic()  # CLOCK_MONOTONIC is one clock system-wide
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    checker.attempted += probe["attempted"]
    checker.failed += probe["failed"]
    return probe["ready"] - began


def measure_timed(workload, seed: int, seconds: float, lib, rounds,
                  checker: Checker) -> dict:
    """The closed loop, reported as the end-to-end metrics."""
    durations, setups, wall, cpu, done = timed_loop(
        lib, rounds, seconds, checker,
        lambda: probe_setup(workload, seed, checker))
    assert_single_threaded()
    ms = [d * 1e3 for d in durations]
    e2e = {
        "calls_per_s": (len(ms) / wall, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # A run longer than its drawn slots repeats inputs; say so.
    print(f"workload={workload.name} seed={seed} timed_calls={len(ms)} "
          f"rounds={done} of {len(rounds)} drawn "
          f"wall_s={wall:.3f} cpu_s={cpu:.3f} cpu/wall={cpu / wall:.3f} "
          f"setup_probes_s={','.join(f'{s:.3f}' for s in setups)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:14s} {_fmt(value):>12s} {unit}")
    print(f"  {'fail_frac':14s} {_fmt(checker.failed / checker.attempted):>12s}"
          f" ratio ({checker.failed}/{checker.attempted} calls incl. warm-up)")
    return {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print when the first timed call would "
                             "start, and exit (the set-up probes of setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 and not args.setup_only:
        parser.error("--seconds must be positive")

    if not (SRC / "bilevelis" / "cli.py").is_file():
        print(f"error: no bilevelis sources at {SRC}", file=sys.stderr)
        return 2
    if not REFS.is_file():
        print(f"error: missing reference outputs {REFS}", file=sys.stderr)
        return 2
    refs = load_refs()
    workload = WORKLOADS[args.workload]
    assert_single_threaded()

    checker = Checker(refs)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        lib, rounds = set_up(workload, args.seed, directory, checker)
        if args.setup_only:
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "attempted": checker.attempted,
                              "failed": checker.failed}))
            return 0
        gc.collect()
        if args.trace:
            metrics = measure_traced(workload, args.seed, lib, rounds, checker)
        else:
            metrics = measure_timed(workload, args.seed, args.seconds, lib,
                                    rounds, checker)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for key, argv_, token in checker.mismatches:
        print(f"  mismatch {key}: {' '.join(argv_)} -> {token}, "
              f"expected {expected(refs, key)}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
