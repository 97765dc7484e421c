"""Reference outputs of the CLI benchmark, and its own test.

    python3 benchmark/check.py --record            # rewrite refs.json
    python3 benchmark/check.py                     # test every pool slot
    python3 benchmark/check.py --trace             # plus traced counts

``--record`` runs every call of every pool slot (and warm-up slot) once and
stores its exit code and the leading hex digits of its stdout's sha256 in
``refs.json``.  Without it, the script re-runs the same calls and checks
that each still matches its reference and, wherever the instance fits the
brute-force oracles' default caps, that the output agrees with them:

* ``solve``, ``solve-intervals``, ``follower``: the reported values equal
  those of the brute-force optimum, or, when only the follower side fits,
  those of the brute-force reaction to the reported leader action;
* ``verify``: the verdict matches the brute-force reaction's leader value;
* ``brute`` on a reduced graph: the reduction's threshold is crossed
  exactly when the brute-force decision of the source problem says yes;
* other ``brute`` / ``brute-intervals`` calls: the values equal those of
  the polynomial or leader-enumeration solvers.

``--trace`` also runs ``run.py --trace 1`` twice per workload on one seed
and checks that the exact per-layer counts are identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import combinations

from run import HERE, REFS, SRC, expected, import_lib, load_refs, run_call
from spans import EXACT_COUNTS
from workloads import WORKLOADS


def _opts(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}


def _run(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _ids(text: str) -> frozenset[int]:
    return frozenset(int(p) for p in text.split(",") if p)


def _values(data: dict) -> tuple[int, int]:
    return data["leader_value"], data["follower_value"]


class BruteCheck:
    """Cross-checks one slot's outputs against the brute-force oracles."""

    def __init__(self, lib):
        self.lib = lib
        self.brute, self.core, self.errors = lib.brute, lib.core, lib.errors
        self.reduction = None  # (kind, opts, meta) of the last reduce call

    def _instance(self, opts):
        ser = self.lib.serialize
        return ser.instance_from_dict(ser.load(opts["--input"]))

    def _reaction_values(self, inst, variant, leader):
        """Values of the brute-force reaction to ``leader``, or None."""
        if len(inst.follower_ids) > self.brute.FOLLOWER_CAP:
            return None
        reaction = self.brute.brute_follower(inst, leader, variant)
        outcome = self.core.make_outcome(inst, variant, leader, reaction)
        return outcome.leader_value, outcome.follower_value

    def _decide(self, kind, opts) -> bool:
        ser, brute = self.lib.serialize, self.brute
        if kind == "b2cnf":
            return brute.decide_b2cnf_brute(ser.b2cnf_from_dict(
                ser.load(opts["--input"])))
        graph = self._instance(opts)
        n, edges, k = len(graph), list(graph.edges), int(opts["--k"])
        if kind in ("vc", "planar-vc"):
            return brute.decide_vc_brute(n, edges, k)
        return any(  # "is": an independent set of size k
            all((u, v) not in graph.edges for u, v in combinations(s, 2))
            for s in combinations(range(n), k)
        )

    def check(self, argv: list[str], stdout: str) -> str:
        """``ok``, ``skip`` (too big for the oracles) or a failure text."""
        cmd, opts, core = argv[0], _opts(argv), self.core
        if cmd == "reduce":
            self.reduction = (argv[1], opts, json.loads(stdout))
            return "skip"
        if cmd == "solve-intervals" or cmd == "brute-intervals":
            variant = core.Variant.from_code(f"cs-ds-{opts['--setting']}")
        else:
            variant = core.Variant.from_code(opts["--variant"])
        inst = self._instance(opts)
        if cmd == "verify":
            leader = _ids(opts["--leader"])
            try:
                got = self._reaction_values(inst, variant, leader)
            except self.errors.Infeasible:
                got = (None, None)
            if got is None:
                return "skip"
            want = got[0] is not None and got[0] >= int(opts["--claimed"])
            return "ok" if stdout == ("true\n" if want else "false\n") else (
                f"verify says {stdout.strip()}, brute says {want}")
        data = json.loads(stdout)
        if cmd == "brute" and self.reduction is not None:
            kind, src_opts, meta = self.reduction
            self.reduction = None
            crossed = data["leader_value"] >= meta["thresholds"][variant.code]
            want = self._decide(kind, src_opts)
            return "ok" if crossed == want else (
                f"{kind} reduction: threshold crossed={crossed}, "
                f"source decision={want}")
        if cmd in ("brute", "brute-intervals"):
            if "--leader" in opts:
                other = ["follower", "--variant", variant.code,
                         "--leader", opts["--leader"], "--input", opts["--input"]]
            elif cmd == "brute":
                other = ["solve", "--variant", variant.code,
                         "--input", opts["--input"]]
            else:
                other = ["solve-intervals", "--setting", opts["--setting"],
                         "--input", opts["--input"]]
            code, text = _run(self.lib.cli, other)
            if code != 0:  # no polynomial oracle for this variant and graph
                return "skip"
            got = _values(json.loads(text))
            # Optimal leader actions may tie with different follower values,
            # so a bilevel optimum is compared on the leader's value only.
            same = got == _values(data) if "--leader" in opts else (
                got[0] == data["leader_value"])
            return "ok" if same else (
                f"{other[0]} gives {got}, brute gives {_values(data)}")
        # solve, solve-intervals, follower
        if cmd != "follower":
            fits = (self.brute.FORCE_CAP if cmd == "solve"
                    else self.brute.BISEL_CAP)
            if len(inst) <= fits:
                best = (self.brute.brute_force(inst, variant) if cmd == "solve"
                        else self.brute.brute_bisel(inst, variant.setting))
                if best.leader_value != data["leader_value"]:
                    return (f"brute optimum {best.leader_value}, "
                            f"got {data['leader_value']}")
            leader = frozenset(data["leader_set"])
        else:
            leader = _ids(opts["--leader"])
        want = self._reaction_values(inst, variant, leader)
        if want is None:
            return "skip"
        return "ok" if want == _values(data) else (
            f"brute reaction gives {want}, got {_values(data)}")


def record(names: list[str]) -> None:
    data = {"digest": "sha256 hex prefix", "families": {}}
    if REFS.is_file():
        with open(REFS, encoding="utf-8") as handle:
            data = json.load(handle)
    lib = import_lib()
    with tempfile.TemporaryDirectory(dir=HERE) as directory:
        for name in names:
            for family in WORKLOADS[name].families:
                slots = []
                for slot in range(family.pool + 1):
                    argvs = family.build(lib, family.base + slot, directory)
                    slots.append(" ".join(run_call(lib.cli, a)[0]
                                          for a in argvs))
                data["families"][family.name] = slots
                print(f"recorded {family.name}: {len(slots)} slots",
                      flush=True)
    with open(REFS, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")


def verify(names: list[str]) -> int:
    refs = load_refs()
    lib = import_lib()
    failures = 0
    with tempfile.TemporaryDirectory(dir=HERE) as directory:
        for name in names:
            for family in WORKLOADS[name].families:
                counts = {"ok": 0, "skip": 0, "digest": 0, "brute": 0}
                slots = range(family.pool + 1)
                for slot in slots:
                    checker = BruteCheck(lib)
                    argvs = family.build(lib, family.base + slot, directory)
                    for i, argv in enumerate(argvs):
                        token = run_call(lib.cli, argv)[0]
                        if token != expected(refs, (family.name, slot, i)):
                            counts["digest"] += 1
                            print(f"  digest mismatch {family.name}/{slot}/{i}:"
                                  f" {' '.join(argv)}")
                        verdict = checker.check(argv, _run(lib.cli, argv)[1])
                        if verdict in ("ok", "skip"):
                            counts[verdict] += 1
                        else:
                            counts["brute"] += 1
                            print(f"  brute mismatch {family.name}/{slot}/{i}:"
                                  f" {' '.join(argv)}: {verdict}")
                failures += counts["digest"] + counts["brute"]
                print(f"{family.name}: {len(slots)} slots, "
                      f"brute-checked ok {counts['ok']}, not checked {counts['skip']}, "
                      f"digest mismatches {counts['digest']}, "
                      f"brute mismatches {counts['brute']}", flush=True)
    return failures


def trace_counts_repeat(names: list[str], seed: int) -> int:
    failures = 0
    for name in names:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            runs.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
        differ = [k for k in EXACT_COUNTS if runs[0][k] != runs[1][k]]
        failures += len(differ)
        print(f"{name}: {len(EXACT_COUNTS)} exact counts, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f" across two traced runs of seed {seed}", flush=True)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="also check that traced counts repeat exactly")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (SRC / "bilevelis").is_dir():
        print(f"error: no bilevelis sources at {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    if args.record:
        record(names)
        return 0
    failures = verify(names)
    if args.trace:
        failures += trace_counts_repeat(names, args.seed)
    print("PASS" if not failures else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
