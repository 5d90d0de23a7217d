"""What one block of trials costs, stage by stage, as a script.

Run from the repository root (pytest does not collect it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/block_costs.py [--reps 9] [--sizes 44 256 300 512]

For the scenario of each benchmark workload (perfbench/run.py) and each block
size T, a block of T trials (H0 only for null-glr, else half H0 and half H1,
as in a run) is drawn and scored once to warm up and then --reps times. Each
stage is timed on its own and printed as the median in µs per trial:

- draw: model.draw_sample_cov;
- forms: the beamforming (coherence_matrix, capon_pair) plus cost_forms;
- eigvalsh: the stacked validation of the exact cost's forms;
- ascend: the lockstep ascent from e1 (optimizer.ascend);
- score: score_batch with the workload's detectors, all of the above but
  the draw, or the closed forms alone on roc-closed;
- minflt: the minor page faults of one draw plus score_batch, per block
  (getrusage's ru_minflt; the median over the repetitions).

A stage's fixed cost per block is what T * (µs per trial) does not grow with:
compare the rows of one scenario across T.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import time

import numpy as np

import subspace_glr as sg
from subspace_glr.covariance import capon_pair, coherence_matrix, cost_forms
from subspace_glr.model import draw_sample_cov
from subspace_glr.optimizer import ascend

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
MODE = "random-unit"


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


def block_row(params: dict, detectors: tuple[str, ...], h1: bool, size: int, reps: int) -> dict:
    scenario = sg.ScenarioConfig(**params, seed=1)
    half = size // 2 if h1 else size
    block = [("H0", i) for i in range(half)] + [("H1", i) for i in range(size - half)]
    u_s, u_r, s = draw_sample_cov(scenario, MODE, block)
    c, pair = coherence_matrix(s), capon_pair(s, u_s, u_r)
    forms = cost_forms(c, pair)
    starts = np.broadcast_to(np.eye(1, params["L"], dtype=complex), (size, params["L"]))

    def draw_and_score():
        us, ur, cov = draw_sample_cov(scenario, MODE, block)
        sg.score_batch(cov, us, ur, detectors)

    draw_and_score()  # warm up every stage once
    us = {
        "draw": timed(lambda: draw_sample_cov(scenario, MODE, block), reps),
        "forms": timed(lambda: cost_forms(coherence_matrix(s), capon_pair(s, u_s, u_r)), reps),
        "eigvalsh": timed(lambda: np.linalg.eigvalsh(forms[1]), reps),
        "ascend": timed(lambda: ascend(forms, starts), reps),
        "score": timed(lambda: sg.score_batch(s, u_s, u_r, detectors), reps),
    }
    row = {name: 1e6 * sec / size for name, sec in us.items()}
    row["minflt"] = faults(draw_and_score, reps)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9, help="timed repetitions per stage")
    parser.add_argument("--sizes", type=int, nargs="+", default=[44, 256, 300, 512], help="block sizes T")
    args = parser.parse_args(argv)
    columns = ("draw", "forms", "eigvalsh", "ascend", "score")
    print(f"{'scenario':<18} {'T':>4} " + " ".join(f"{c:>9}" for c in columns) + f" {'minflt':>7}")
    print(f"{'':<18} {'':>4} " + " ".join(f"{'µs/trial':>9}" for _ in columns) + f" {'/block':>7}")
    for name, (params, detectors, h1) in SCENARIOS.items():
        for size in args.sizes:
            row = block_row(params, detectors, h1, size, args.reps)
            print(f"{name:<18} {size:>4} " + " ".join(f"{row[c]:>9.2f}" for c in columns)
                  + f" {row['minflt']:>7d}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
