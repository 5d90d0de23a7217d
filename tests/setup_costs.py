"""What a fresh interpreter pays before a CLI call runs, and what the call
pays after it, as a script.

Run from the repository root (pytest does not collect it):

    python tests/setup_costs.py [--runs 20] [--call WORKLOAD] [ROOT [ROOT]]

ROOT is a tree that holds src/subspace_glr; the default is this checkout.
Each run is a fresh interpreter with PYTHONPATH=ROOT/src,
PYTHONDONTWRITEBYTECODE=1 and OPENBLAS_NUM_THREADS=1 that does the set-up
every CLI call pays, as perfbench/child.py times it: import subspace_glr.cli
and load a config (null-glr's scenario). With two roots the runs go in
alternating pairs, and the root that runs first alternates from pair to
pair. Per root it prints the median and quartiles over --runs of:

- ready_ms: from spawn (stamped by this script just before it starts the
  interpreter) to ready (stamped by the interpreter after load_config), on
  the monotonic clock;
- maxrss_mib: the interpreter's peak RSS once ready (getrusage's
  ru_maxrss).

With --call WORKLOAD, the config is one of that perfbench/run.py workload's
(run i takes config i mod its count, as run.py makes it for seed 1), and
after set-up the interpreter runs the workload's CLI call with
its --threads, as child.py does. Two more figures are printed then:

- run_ms: from ready to the end of the call;
- call_rss_mib: the peak RSS of the call's process and of its reaped
  children (the larger of the two), as child.py reports it.

With two roots it also prints the paired differences, second root minus
first: their median and the number of pairs in which the second root reads
lower. Last come the modules set-up loads beyond those of an interpreter
that imports numpy, numpy.random and numpy.linalg, grouped by top-level
package, and with two roots the modules that only one of them loads; with
--call, the same for the modules the call loads after set-up. A tree
without __pycache__ pays the compilation of its bytecode in ready_ms.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# What perfbench/child.py imports before subspace_glr.cli.
PREAMBLE = "import json, os, resource, sys, time\n"
SETUP = PREAMBLE + (
    "import subspace_glr.cli as cli\n"
    "cli.load_config(sys.argv[1], None)\n"
    "ready = time.monotonic_ns()\n"
    "report = {'ready_ns': ready, 'maxrss_kib': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,\n"
    "          'modules': sorted(sys.modules)}\n"
)
READY = SETUP + "print(json.dumps(report))\n"
CALL = SETUP + (
    "report['exit'] = cli.main(json.loads(sys.argv[2]))\n"
    "report['end_ns'] = time.monotonic_ns()\n"
    "report['call_rss_kib'] = max(resource.getrusage(who).ru_maxrss\n"
    "                             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))\n"
    "report['call_modules'] = sorted(set(sys.modules) - set(report['modules']))\n"
    "print(json.dumps(report))\n"
)
NUMPY_ONLY = PREAMBLE + (
    "import numpy, numpy.random, numpy.linalg\n"
    "print(json.dumps({'modules': sorted(sys.modules)}))\n"
)
CONFIG = {"scenario": {"L": 4, "N": 15, "snr_s_db": 0.0, "snr_r_db": 0.0, "seed": 1},
          "trials_h0": 300, "detectors": ["glr"]}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS, imported without writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    from run import WORKLOADS

    return WORKLOADS


def spawn(root: Path, code: str, *args: str) -> dict:
    """Run code with args in a fresh interpreter importing from root/src;
    its JSON report, with the spawn time added."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    spawned = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    report = {**json.loads(proc.stdout), "spawned_ns": spawned}
    if report.get("exit", 0) != 0:
        raise RuntimeError(f"the call under {root} exited with {report['exit']}: {proc.stderr.strip()}")
    return report


def spread(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{med:9.2f} ({q1:.2f}-{q3:.2f})"


def groups(modules: set[str]) -> str:
    counts = Counter(m.split(".")[0] for m in modules)
    return " ".join(f"{name}({n})" if n > 1 else name for name, n in sorted(counts.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, help="trees holding src/subspace_glr (at most two)")
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters per root")
    parser.add_argument("--call", metavar="WORKLOAD", help="run one CLI call of this perfbench workload")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in args.roots] or [Path(__file__).resolve().parent.parent]
    if len(roots) > 2:
        parser.error("give at most two roots")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    for root in roots:
        if not (root / "src" / "subspace_glr" / "cli.py").is_file():
            parser.error(f"no package source at {root / 'src' / 'subspace_glr'}")
    wl = None
    if args.call is not None:
        known = workloads()
        if args.call not in known:
            parser.error(f"--call: unknown workload {args.call!r}; known: {sorted(known)}")
        wl = known[args.call]
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for k, cfg in enumerate([CONFIG] if wl is None else [wl.config(1, k) for k in range(wl.configs)]):
            configs.append(os.path.join(tmp, f"config-{k}.json"))
            with open(configs[-1], "w") as fh:
                json.dump(cfg, fh)
        runs: list[list[dict]] = [[] for _ in roots]
        for i in range(args.runs):
            config = configs[i % len(configs)]
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for k in order:
                if wl is None:
                    runs[k].append(spawn(roots[k], READY, config))
                    continue
                out = os.path.join(tmp, f"out-{i}-{k}")
                cli = [wl.command, "--config", config, "--threads", str(wl.threads), "--out", out]
                runs[k].append(spawn(roots[k], CALL, config, json.dumps(cli)))
        baseline = set(spawn(roots[0], NUMPY_ONLY, configs[0])["modules"])
    figures = {
        "ready_ms": [[(r["ready_ns"] - r["spawned_ns"]) / 1e6 for r in side] for side in runs],
        "maxrss_mib": [[r["maxrss_kib"] / 1024 for r in side] for side in runs],
    }
    if wl is not None:
        figures["run_ms"] = [[(r["end_ns"] - r["ready_ns"]) / 1e6 for r in side] for side in runs]
        figures["call_rss_mib"] = [[r["call_rss_kib"] / 1024 for r in side] for side in runs]
    print(f"{'root':<6}" + "".join(f"{name + ' (q1-q3)':>26}" for name in figures) + "  path")
    for k, root in enumerate(roots):
        print(f"{'AB'[k]:<6}" + "".join(f"{spread(values[k]):>26}" for values in figures.values()) + f"  {root}")
    if len(roots) == 2:
        for name, values in figures.items():
            diffs = [b - a for a, b in zip(*values)]
            lower = sum(d < 0 for d in diffs)
            print(f"B - A {name}: median {statistics.median(diffs):+.2f}, B lower in {lower} of {len(diffs)} pairs")
    loaded = {"set-up loads beyond numpy, numpy.random and numpy.linalg":
              [set(side[0]["modules"]) - baseline for side in runs]}
    if wl is not None:
        loaded["the call loads after set-up"] = [set(side[0]["call_modules"]) for side in runs]
    for what, sets in loaded.items():
        print(f"modules {what}:")
        for k in range(len(roots)):
            print(f"{'AB'[k]} ({len(sets[k])}): {groups(sets[k])}")
        if len(roots) == 2:
            for k in range(2):
                only = sorted(sets[k] - sets[1 - k])
                print(f"only {'AB'[k]} ({len(only)}): {' '.join(only) or '-'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
