"""What a fresh interpreter pays before a CLI call runs, as a script.

Run from the repository root (pytest does not collect it):

    python tests/setup_costs.py [--runs 20] [ROOT [ROOT]]

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

With two roots it also prints the paired differences, second root minus
first: their median and the number of pairs in which the second root reads
lower. Last come the modules set-up loads beyond those of an interpreter
that imports numpy, numpy.random and numpy.linalg, grouped by top-level
package, and with two roots the modules that only one of them loads. A tree
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
READY = PREAMBLE + (
    "import subspace_glr.cli as cli\n"
    "cli.load_config(sys.argv[1], None)\n"
    "ready = time.monotonic_ns()\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(json.dumps({'ready_ns': ready, 'maxrss_kib': rss, 'modules': sorted(sys.modules)}))\n"
)
NUMPY_ONLY = PREAMBLE + (
    "import numpy, numpy.random, numpy.linalg\n"
    "print(json.dumps({'modules': sorted(sys.modules)}))\n"
)
CONFIG = {"scenario": {"L": 4, "N": 15, "snr_s_db": 0.0, "snr_r_db": 0.0, "seed": 1},
          "trials_h0": 300, "detectors": ["glr"]}


def spawn(root: Path, code: str, config: str) -> dict:
    """Run code in a fresh interpreter importing from root/src; its JSON
    report, with the spawn time added."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    spawned = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", code, config], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return {**json.loads(proc.stdout), "spawned_ns": spawned}


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
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in args.roots] or [Path(__file__).resolve().parent.parent]
    if len(roots) > 2:
        parser.error("give at most two roots")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    for root in roots:
        if not (root / "src" / "subspace_glr" / "cli.py").is_file():
            parser.error(f"no package source at {root / 'src' / 'subspace_glr'}")
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(CONFIG, fh)
        runs: list[list[dict]] = [[] for _ in roots]
        for i in range(args.runs):
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for k in order:
                runs[k].append(spawn(roots[k], READY, config))
        baseline = set(spawn(roots[0], NUMPY_ONLY, config)["modules"])
    ready = [[(r["ready_ns"] - r["spawned_ns"]) / 1e6 for r in side] for side in runs]
    rss = [[r["maxrss_kib"] / 1024 for r in side] for side in runs]
    loaded = [set(side[0]["modules"]) - baseline for side in runs]
    print(f"{'root':<6} {'ready_ms (q1-q3)':>24} {'maxrss_mib (q1-q3)':>24}  path")
    for k, root in enumerate(roots):
        print(f"{'AB'[k]:<6} {spread(ready[k]):>24} {spread(rss[k]):>24}  {root}")
    if len(roots) == 2:
        for name, values in (("ready_ms", ready), ("maxrss_mib", rss)):
            diffs = [b - a for a, b in zip(*values)]
            lower = sum(d < 0 for d in diffs)
            print(f"B - A {name}: median {statistics.median(diffs):+.2f}, B lower in {lower} of {len(diffs)} pairs")
    print("modules set-up loads beyond numpy, numpy.random and numpy.linalg:")
    for k in range(len(roots)):
        print(f"{'AB'[k]} ({len(loaded[k])}): {groups(loaded[k])}")
    if len(roots) == 2:
        for k in range(2):
            only = sorted(loaded[k] - loaded[1 - k])
            print(f"only {'AB'[k]} ({len(only)}): {' '.join(only) or '-'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
