"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmark/spread.py --workload enum --seeds 1-5
    python3 benchmark/spread.py --seeds 1-10 --save set1.json
    python3 benchmark/spread.py --load set1.json set2.json

Each run is its own process (``run.py``), one after another, for
``run_seconds`` from ``BENCHMARK.json``.  The workloads are interleaved
seed by seed (every workload on seed 1, then every workload on seed 2,
...), so a slow stretch of a shared machine shows in all workloads at once
rather than in one workload's runs; each run's line shows its cpu/wall and
set-up times, which make such a stretch visible.  For every workload and
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--save`` writes the per-run values as JSON; ``--load``
runs nothing and summarizes saved sets, each on its own and all pooled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(name: str, seed: int) -> dict[str, float] | None:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{name} seed={seed} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          f"({time.perf_counter() - began:.0f}s) "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items())
          + f"\n    {proc.stdout.splitlines()[0]}", flush=True)
    return values


def report(title: str, runs: dict[str, list[dict[str, float]]]) -> dict:
    print(title)
    summary = {}
    for name, values in runs.items():
        summary[name] = {m: summarize([r[m] for r in values]) for m in BOUNDS}
        for metric, s in summary[name].items():
            flag = ("" if s["spread"] < BOUNDS[metric] / 3 else
                    "  <-- over bound/3" if s["spread"] <= BOUNDS[metric] else
                    "  <-- OVER BOUND")
            print(f"  {name:9s} {metric:13s} n={len(values)} "
                  f"median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.3f} "
                  f"bound={BOUNDS[metric]}{flag}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--save", help="write the runs to this file")
    parser.add_argument("--load", nargs="+", metavar="FILE",
                        help="summarize saved sets instead of running")
    args = parser.parse_args()
    if args.load:
        sets = [json.loads(Path(f).read_text()) for f in args.load]
        pooled: dict[str, list] = {}
        for path, runs in zip(args.load, sets):
            report(f"set {path}", runs)
            for name, values in runs.items():
                pooled.setdefault(name, []).extend(values)
        if len(sets) > 1:
            report(f"pooled over {len(sets)} sets", pooled)
        return 0
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs: dict[str, list] = {name: [] for name in names}
    for seed in _seeds(args.seeds):
        for name in names:
            values = run_once(name, seed)
            if values is None:
                return 1
            runs[name].append(values)
    report(f"seeds {args.seeds}", runs)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
