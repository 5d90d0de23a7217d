"""Layered benchmark of the three Monte Carlo experiments of subspace_glr.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py          # the benchmark's own tests

Each workload is a generated config, run through the real CLI: ``cli.main`` in
a fresh interpreter (child.py), exactly what ``python -m subspace_glr`` runs.
The seed goes into the configs only; the program sees nothing else. A run
cycles through ``configs`` configs, seeded ``seed * configs + k``, one CLI
call each, until ``--seconds`` have passed and every config has run once
(with ``--trace 1``, once untraced and once traced). Calls are sequential:
a closed loop with one client. Every call's outputs are checked (checks.py);
a config that runs again must give the same bytes, traced or not.

End-to-end metrics (``--trace 0``), from the untraced calls:

- ``trials_per_s``: valid trials / wall time after set-up, median over calls.
- ``setup_s``: fresh interpreter to ready (import ``subspace_glr.cli`` and load
  the config), median over calls.
- ``peak_rss_mib``: highest RSS of the call's process and its pool workers,
  median over calls.
- ``valid_trial_share``: valid / attempted trials over all calls; a call that
  exits nonzero counts all its trials as failed. (This is 1 - the failed
  share, so that the metric is never 0.)
- ``accuracy_loss``: the workload's accuracy guard, mean over the configs:
  1 - auc_mean on roc-closed, ks_distance on null-glr, pm_mean on
  sweep-l-pool. It repeats exactly for one seed and moves only when a
  reported number does.

Per-layer metrics (``--trace 1``) come from the traced calls (tracer.py,
layers.py) plus ``python -X importtime`` for the import split, and
``trace.overhead_share`` = 1 - traced / untraced ``trials_per_s``. Per-layer
metrics whose unit starts with ``count`` repeat exactly for a fixed seed:
``montecarlo.pools``, ``model.substream.calls`` and the ``optimizer.*``
counts. Worker busy time on ``sweep-l-pool`` comes from spans recorded in the
forked pool workers.

The benchmark's processes get ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1`` so pool workers do not oversubscribe the cores. The
last line of stdout is the JSON result; the lines before it give the run
environment, the digest of every output file and every metric with its unit.
The exit code is 1 when a correctness check fails, 2 when the package source
is missing.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckError, attempted_trials, check_outputs  # noqa: E402
from layers import UNITS, dominance_violations, import_split, span_metrics  # noqa: E402

RUN_LIMIT_S = 150.0  # start no call after this; one run must end within 180 s
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    configs: int
    base: dict
    guard: str  # name of the accuracy figure behind accuracy_loss

    def config(self, seed: int, k: int) -> dict:
        cfg = copy.deepcopy(self.base)
        cfg["scenario"]["seed"] = (seed * self.configs + k) % 2**64
        return cfg


# Why each workload: see BENCHMARK.json. Trial counts keep a call at a few
# seconds, and the configs per run make the accuracy guard steady across seeds.
WORKLOADS = {
    "roc-closed": Workload(
        command="roc", threads=1, configs=12, guard="auc_mean",
        base={
            "scenario": {"L": 4, "N": 15, "snr_s_db": -5.0, "snr_r_db": 15.0},
            "trials_h0": 300, "trials_h1": 300,
            "detectors": ["glr_sample", "glr_low", "sigma_max", "t_cc", "t_svd"],
        },
    ),
    "null-glr": Workload(
        command="null-dist", threads=1, configs=12, guard="ks_distance",
        base={
            "scenario": {"L": 4, "N": 15, "snr_s_db": 0.0, "snr_r_db": 0.0},
            "trials_h0": 300,
            "detectors": ["glr"],
        },
    ),
    "sweep-l-pool": Workload(
        command="pm-sweep", threads=0, configs=6, guard="pm_mean",
        base={
            "scenario": {"L": 4, "N": 32, "snr_s_db": -12.0, "snr_r_db": 0.0},
            "trials_h0": 250, "trials_h1": 250,
            "detectors": ["glr", "glr_sample", "glr_low"],
            "sweep": {"axis": "l", "values": [2, 4, 8]},
        },
    ),
}


@dataclass
class Call:
    k: int
    traced: bool
    attempted: int
    setup_s: float = 0.0
    run_s: float = 0.0
    rss_mib: float = 0.0
    failed: int = 0
    figure: float = float("nan")
    digests: dict = field(default_factory=dict)
    data_bytes: int = 0
    errors: list = field(default_factory=list)
    spans: list | None = None
    versions: dict | None = None

    @property
    def valid(self) -> int:
        return self.attempted - self.failed

    @property
    def trials_per_s(self) -> float:
        return self.valid / self.run_s if self.run_s > 0 else 0.0


class Bench:
    def __init__(self, root: Path, name: str, seed: int) -> None:
        self.root = root
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.src = root / "src"
        self.work = root / ".bench_build" / "perfbench" / f"{name}-{seed}-{os.getpid()}"
        self.env = {
            **os.environ,
            "PYTHONPATH": str(self.src),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
        }

    def _spawn(self, cmd: list[str], log: Path, timeout: float) -> int | None:
        """Run cmd in its own session; kill the whole group if it overruns."""
        with open(log, "w") as err:
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            try:
                return proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return None

    def call(self, index: int, k: int, traced: bool, timeout: float) -> Call:
        cfg = self.wl.config(self.seed, k)
        tag = f"{index}-{'t' if traced else 'u'}"
        cfg_path = self.work / f"config-{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.work / f"out-{tag}"
        report = self.work / f"report-{tag}.json"
        log = self.work / f"stderr-{tag}.txt"
        res = Call(k=k, traced=traced, attempted=attempted_trials(self.wl.command, cfg))
        cmd = [sys.executable, str(HERE / "child.py"), str(report), str(int(traced)),
               str(self.src), self.wl.command, "--config", str(cfg_path),
               "--threads", str(self.wl.threads), "--out", str(out)]
        spawned = time.monotonic_ns()
        rc = self._spawn(cmd, log, timeout)
        if rc != 0 or not report.is_file():
            res.failed = res.attempted
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            res.errors.append(f"call {tag} exited with {rc}: {' | '.join(tail)}")
            return res
        rep = json.loads(report.read_text())
        res.setup_s = (rep["ready_ns"] - spawned) / 1e9
        res.run_s = (rep["end_ns"] - rep["start_ns"]) / 1e9
        res.rss_mib = rep["peak_rss_kib"] / 1024.0
        res.spans = rep["spans"]
        res.versions = rep["versions"]
        if rep["rc"] != 0:
            res.failed = res.attempted
            res.errors.append(f"call {tag}: CLI exit code {rep['rc']}")
            return res
        try:
            checked = check_outputs(self.wl.command, cfg, out)
        except CheckError as exc:
            res.failed = res.attempted
            res.errors.append(f"call {tag}: {exc}")
            return res
        res.failed = checked.failed_trials
        res.figure = checked.figure
        res.digests = checked.digests
        res.data_bytes = checked.data_bytes
        shutil.rmtree(out)
        return res

    def import_probe(self, index: int) -> dict[str, float]:
        log = self.work / f"importtime-{index}.txt"
        rc = self._spawn([sys.executable, "-X", "importtime", "-c", "import subspace_glr.cli"],
                         log, 60.0)
        if rc != 0:
            raise RuntimeError(f"import probe exited with {rc}")
        return import_split(log.read_text())

    def run(self, seconds: float, trace: bool) -> list[Call]:
        started = time.monotonic()
        calls: list[Call] = []
        index = 0
        modes = (False, True) if trace else (False,)
        while True:
            elapsed = time.monotonic() - started
            if (elapsed >= seconds and index >= self.wl.configs) or elapsed >= RUN_LIMIT_S:
                return calls
            for traced in modes:
                timeout = 175.0 - (time.monotonic() - started)
                calls.append(self.call(index, index % self.wl.configs, traced, timeout))
            index += 1


def environment(bench: Bench, calls: list[Call]) -> dict:
    root = bench.root
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    versions = next((c.versions for c in calls if c.versions), {})
    threads = {k: bench.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"workload": bench.name, "seed": bench.seed, "nproc": os.cpu_count(), "commit": commit,
            **threads, **versions}


def check_repeats(calls: list[Call]) -> list[str]:
    """Every call of one config must write the same bytes, traced or not."""
    errors = []
    first: dict[int, Call] = {}
    for c in calls:
        if c.errors:
            continue
        ref = first.setdefault(c.k, c)
        if c.digests != ref.digests:
            errors.append(f"config {c.k}: outputs differ between calls (traced={c.traced})")
    return errors


def end_to_end(bench: Bench, calls: list[Call]) -> tuple[dict, dict]:
    plain = [c for c in calls if not c.traced and not c.errors] or [Call(0, False, 1)]
    figures = {}
    for c in plain:
        figures.setdefault(c.k, c.figure)
    guard = statistics.fmean(figures.values())
    attempted = sum(c.attempted for c in calls)
    metrics = {
        "trials_per_s": (statistics.median(c.trials_per_s for c in plain), "1/s"),
        "setup_s": (statistics.median(c.setup_s for c in plain), "s"),
        "peak_rss_mib": (statistics.median(c.rss_mib for c in plain), "MiB"),
        "valid_trial_share": (sum(c.valid for c in calls) / attempted, "share"),
        "accuracy_loss": (1.0 - guard if bench.wl.guard == "auc_mean" else guard, "share"),
    }
    return metrics, {bench.wl.guard: guard}


def per_layer(bench: Bench, calls: list[Call]) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced call per config (a fixed set of trials)."""
    ok = [c for c in calls if not c.errors]
    first: dict[int, Call] = {}
    for c in ok:
        if c.traced:
            first.setdefault(c.k, c)
    traced = list(first.values())
    plain = [c for c in ok if not c.traced]
    if len(traced) < bench.wl.configs or not plain:
        return {name: (0.0, unit) for name, unit in UNITS.items()}, ["incomplete traced run"]
    spans = [s for c in traced for s in c.spans]
    values = span_metrics(spans, len(traced))
    values["cli.output_bytes"] = sum(c.data_bytes for c in traced) / sum(c.valid for c in traced)
    overhead = statistics.median(c.trials_per_s for c in ok if c.traced) / statistics.median(
        c.trials_per_s for c in plain)
    values["trace.overhead_share"] = 1.0 - overhead
    probes = [bench.import_probe(i) for i in range(IMPORT_PROBES)]
    for key in probes[0]:
        values[key] = statistics.median(p[key] for p in probes)
    errors = []
    bad = dominance_violations(spans)
    if bad:
        errors.append(f"{bad} traced trials have glr < 1 + glr_sample")
    return {name: (values[name], unit) for name, unit in UNITS.items()}, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "subspace_glr" / "cli.py").is_file():
        print(f"error: no package source at {root / 'src' / 'subspace_glr'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    bench.work.mkdir(parents=True)
    try:
        calls = bench.run(args.seconds, bool(args.trace))
        errors = [e for c in calls for e in c.errors] + check_repeats(calls)
        e2e, guards = end_to_end(bench, calls)
        if args.trace:
            metrics, trace_errors = per_layer(bench, calls)
            errors += trace_errors
        else:
            metrics = e2e
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print("env " + json.dumps(environment(bench, calls), sort_keys=True))
    for c in calls:
        print(f"call k={c.k} traced={int(c.traced)} setup_s={c.setup_s:.4f} run_s={c.run_s:.4f} "
              f"trials={c.valid}/{c.attempted} " + " ".join(f"{n}={d[:16]}" for n, d in
                                                           sorted(c.digests.items())))
    for name, value in guards.items():
        print(f"guard {name} {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for e in errors:
        print(f"error {e}")
    result = {
        "correct": not errors,
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.failed for c in calls),
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
