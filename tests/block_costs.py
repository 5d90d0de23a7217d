"""What one block of trials costs, stage by stage, and what one CLI call
pays before and around its first block, as a script.

Run from the repository root (pytest does not collect it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/block_costs.py [--reps 9] [--sizes 44 256 300 512] [--calls 7]

Per block: for the scenario of each benchmark workload (perfbench/run.py)
and each block size T, a block of T trials (H0 only for null-glr, else half
H0 and half H1, as in a run) is drawn and scored once to warm up and then
--reps times. Each stage is timed on its own and printed as the median in
µs per trial:

- draw: model.draw_sample_cov;
- forms: the beamforming (coherence_matrix, capon_pair) plus cost_forms;
- chart: the chart embeddings of the forms (optimizer._chart_forms), which
  the exact statistic builds once per block for the screen and the ascent;
- screen: the Cholesky screen of the chart's block of gamma_m
  (detectors._clear_of_floor: a copy of the block, the margin off its
  diagonal and the elementwise factorization), which spares eigvalsh every
  trial it clears;
- ascend: the lockstep ascent from e1 on the chart (optimizer.ascend);
- score: score_batch with the workload's detectors, all of the above but
  the draw, or the closed forms alone on roc-closed;
- minflt: the minor page faults of one draw plus score_batch, per block
  (getrusage's ru_minflt; the median over the repetitions), counted in a
  fresh interpreter (subprocess) that runs only a plain loop of draw plus
  score_batch after one warm-up call, so the stage timings above, which
  leave their own arrays and allocator state behind, do not move it. The
  count still moves with the heap's layout, which even the way the
  interpreter is launched shifts: null-glr at T=300 reads 0 when started
  from a shell and about 300 when started by subprocess, as here.

A stage's fixed cost per block is what T * (µs per trial) does not grow with:
compare the rows of one scenario across T.

Per call: --calls fresh interpreters per workload (subprocess), each
importing the package and then running, once and cold, the stages of the
workload's CLI call up to its first block: the parser of the call's command
(cli.build_parser), parse_args, load_config, and the draw and scoring of
the first block a one-worker run scores (the first sweep point's, on
sweep-l-pool). Each stage is printed as the median µs and minor page
faults over the interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import subspace_glr as sg
from subspace_glr import cli
from subspace_glr.covariance import capon_pair, coherence_matrix, cost_forms
from subspace_glr.detectors import _clear_of_floor
from subspace_glr.model import draw_sample_cov
from subspace_glr.montecarlo import _blocks, apply_sweep_value
from subspace_glr.optimizer import _chart_forms, ascend

PROPOSED = ("glr", "glr_sample", "glr_low")
CLOSED = ("glr_sample", "glr_low", "sigma_max", "t_cc", "t_svd")
# name: (scenario, detectors, H1 trials drawn)
SCENARIOS = {
    "roc-closed": (dict(L=4, N=15, snr_s_db=-5.0, snr_r_db=15.0), CLOSED, True),
    "null-glr": (dict(L=4, N=15, snr_s_db=0.0, snr_r_db=0.0), ("glr",), False),
    "sweep-l-pool L=2": (dict(L=2, N=32, snr_s_db=-12.0, snr_r_db=0.0), PROPOSED, True),
    "sweep-l-pool L=4": (dict(L=4, N=32, snr_s_db=-12.0, snr_r_db=0.0), PROPOSED, True),
    "sweep-l-pool L=8": (dict(L=8, N=32, snr_s_db=-12.0, snr_r_db=0.0), PROPOSED, True),
}
# name: (command, config) of each benchmark workload's call
CALLS = {
    "roc-closed": ("roc", {"scenario": {**SCENARIOS["roc-closed"][0], "seed": 1},
                           "trials_h0": 300, "trials_h1": 300, "detectors": list(CLOSED)}),
    "null-glr": ("null-dist", {"scenario": {**SCENARIOS["null-glr"][0], "seed": 1},
                               "trials_h0": 300, "detectors": ["glr"]}),
    "sweep-l-pool": ("pm-sweep", {"scenario": {**SCENARIOS["sweep-l-pool L=4"][0], "seed": 1},
                                  "trials_h0": 250, "trials_h1": 250, "detectors": list(PROPOSED),
                                  "sweep": {"axis": "l", "values": [2, 4, 8]}}),
}
CALL_STAGES = ("parser", "parse_args", "load_config", "draw", "score")


def timed(fn, reps: int) -> float:
    """Median seconds of fn() over reps calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def faults(fn, reps: int) -> int:
    """Median minor page faults of fn() over reps calls."""
    counts = []
    for _ in range(reps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return int(statistics.median(counts))


def trials(h1: bool, size: int) -> list[tuple[str, int]]:
    half = size // 2 if h1 else size
    return [("H0", i) for i in range(half)] + [("H1", i) for i in range(size - half)]


def draw_and_score(name: str, size: int):
    """One draw plus score_batch of a block of size trials of scenario name,
    as a function of no arguments."""
    params, detectors, h1 = SCENARIOS[name]
    scenario, block = sg.ScenarioConfig(**params, seed=1), trials(h1, size)

    def run():
        us, ur, cov = draw_sample_cov(scenario, block)
        sg.score_batch(cov, us, ur, detectors)

    return run


def fault_loop(name: str, size: int, reps: int) -> int:
    """Median minor faults of a draw plus score_batch over reps calls, after
    one warm-up call: a plain loop, with nothing else run before it.

    The count moves with how the interpreter was launched, not only with the
    code: null-glr at T=300 read 0 when --fault-loop was started from a
    shell and 297-315 when started by subprocess from Python, with the same
    tree, interpreter and environment (an L=8 block of 300 read 1683 either
    way). So fault counts compare two trees only when both are launched the
    same way, as block_row launches both here."""
    run = draw_and_score(name, size)
    run()
    return faults(run, reps)


def block_row(name: str, size: int, reps: int) -> dict:
    params, detectors, h1 = SCENARIOS[name]
    scenario = sg.ScenarioConfig(**params, seed=1)
    block = trials(h1, size)
    draw_and_score(name, size)()  # warm up every stage once
    u_s, u_r, s = draw_sample_cov(scenario, block)
    c, pair = coherence_matrix(s), capon_pair(s, u_s, u_r)
    forms = cost_forms(c, pair)
    chart = _chart_forms(forms)
    starts = np.broadcast_to(np.eye(1, params["L"], dtype=complex), (size, params["L"]))
    us = {
        "draw": timed(lambda: draw_sample_cov(scenario, block), reps),
        "forms": timed(lambda: cost_forms(coherence_matrix(s), capon_pair(s, u_s, u_r)), reps),
        "chart": timed(lambda: _chart_forms(forms), reps),
        "screen": timed(lambda: _clear_of_floor(chart[0][1]), reps),
        "ascend": timed(lambda: ascend(list(chart), starts), reps),
        "score": timed(lambda: sg.score_batch(s, u_s, u_r, detectors), reps),
    }
    row = {stage: 1e6 * sec / size for stage, sec in us.items()}
    proc = subprocess.run([sys.executable, __file__, "--fault-loop", name, str(size), str(reps)],
                          capture_output=True, text=True, check=True)
    row["minflt"] = int(proc.stdout)
    return row


def cold_call(command: str, config: str) -> dict:
    """The stages of one CLI call up to its first block, each run once in
    this interpreter: {stage: (µs, minor faults)}. The first block is the
    first point's first block in a one-worker run."""
    out = {}

    def stage(name, fn):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = fn()
        out[name] = (1e6 * (time.perf_counter() - start),
                     resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return result

    parser = stage("parser", lambda: cli.build_parser(command))
    stage("parse_args", lambda: parser.parse_args([command, "--config", config, "--threads", "1"]))
    cfg = stage("load_config", lambda: cli.load_config(config, None))
    if cfg.sweep is not None:
        cfg = apply_sweep_value(cfg, cfg.sweep.values[0])
    items = [("H0", i) for i in range(cfg.trials_h0)] + [("H1", i) for i in range(cfg.trials_h1)]
    block = _blocks(items, 1)[0]
    u_s, u_r, s = stage("draw", lambda: draw_sample_cov(cfg.scenario, block))
    stage("score", lambda: sg.score_batch(s, u_s, u_r, cfg.detectors))
    return out


def call_rows(calls: int) -> dict:
    """Per workload, each stage's median µs and faults over fresh interpreters."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, body) in CALLS.items():
            config = os.path.join(tmp, f"{name}.json")
            with open(config, "w") as fh:
                json.dump(body, fh)
            runs = []
            for _ in range(calls):
                proc = subprocess.run([sys.executable, __file__, "--cold-call", command, config],
                                      capture_output=True, text=True, check=True)
                runs.append(json.loads(proc.stdout))
            rows[name] = {st: tuple(statistics.median(r[st][k] for r in runs) for k in (0, 1))
                          for st in CALL_STAGES}
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9, help="timed repetitions per stage")
    parser.add_argument("--sizes", type=int, nargs="+", default=[44, 256, 300, 512], help="block sizes T")
    parser.add_argument("--calls", type=int, default=7, help="fresh interpreters per workload call")
    parser.add_argument("--cold-call", nargs=2, metavar=("COMMAND", "CONFIG"), help=argparse.SUPPRESS)
    parser.add_argument("--fault-loop", nargs=3, metavar=("SCENARIO", "T", "REPS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold_call:
        print(json.dumps(cold_call(*args.cold_call)))
        return 0
    if args.fault_loop:
        name, size, reps = args.fault_loop
        print(fault_loop(name, int(size), int(reps)))
        return 0
    columns = ("draw", "forms", "chart", "screen", "ascend", "score")
    print(f"{'scenario':<18} {'T':>4} " + " ".join(f"{c:>9}" for c in columns) + f" {'minflt':>7}")
    print(f"{'':<18} {'':>4} " + " ".join(f"{'µs/trial':>9}" for _ in columns) + f" {'/block':>7}")
    for name in SCENARIOS:
        for size in args.sizes:
            row = block_row(name, size, args.reps)
            print(f"{name:<18} {size:>4} " + " ".join(f"{row[c]:>9.2f}" for c in columns)
                  + f" {row['minflt']:>7d}", flush=True)
    print()
    print(f"{'call (cold)':<18} " + " ".join(f"{c:>18}" for c in CALL_STAGES))
    print(f"{'':<18} " + " ".join(f"{'µs':>10} {'minflt':>7}" for _ in CALL_STAGES))
    for name, row in call_rows(args.calls).items():
        print(f"{name:<18} " + " ".join(f"{row[st][0]:>10.0f} {row[st][1]:>7.0f}" for st in CALL_STAGES),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
