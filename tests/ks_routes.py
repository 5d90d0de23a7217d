"""The go/no-go gate of the direct sample-covariance draw, as a script.

Run from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/ks_routes.py [--trials 10000] [--auc-trials 40000]

For each scenario below (the README's examples and the benchmark's
workloads, plus N = 2L with ULA steering on the snapshot route), every
statistic of `--trials` trials per hypothesis drawn by the harness
(model.draw_sample_cov, random unit steering pairs) is compared with the
same number scored from snapshots (_reference.synth_batch) by a two-sample
KS test. The two routes read different seeds, so their
samples are independent. The gate passes when no p-value falls below 0.01
divided by the number of tests (Bonferroni).

Then both routes score `--auc-trials` trials per hypothesis at the README ROC
scenario with one seed, and the per-detector AUCs are printed side by side.
The snapshot route there reproduces the Monte Carlo outputs from before the
direct draw. Exit code 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import sys
import time

import scipy.stats

import subspace_glr as sg
from _reference import snapshot_route_scores

SCENARIOS = {
    "readme-roc": dict(L=4, N=15, snr_s_db=-5.0, snr_r_db=15.0),
    "readme-pm-10": dict(L=4, N=15, snr_s_db=-10.0, snr_r_db=0.0),
    "readme-pm+0": dict(L=4, N=15, snr_s_db=0.0, snr_r_db=10.0),
    "readme-pm+10": dict(L=4, N=15, snr_s_db=10.0, snr_r_db=20.0),
    "readme-null": dict(L=4, N=100, snr_s_db=0.0, snr_r_db=0.0),
    "null-glr": dict(L=4, N=15, snr_s_db=0.0, snr_r_db=0.0),
    "sweep-l2": dict(L=2, N=32, snr_s_db=-12.0, snr_r_db=0.0),
    "sweep-l4": dict(L=4, N=32, snr_s_db=-12.0, snr_r_db=0.0),
    "sweep-l8": dict(L=8, N=32, snr_s_db=-12.0, snr_r_db=0.0),
    "n2l-ula-10db": dict(L=4, N=8, snr_s_db=10.0, snr_r_db=10.0),
}
ULA = {"n2l-ula-10db"}
LEVEL = 0.01


def run(route: str, params: dict, seed: int, trials: int, mode: str = "random-unit") -> sg.BlockScores:
    """Score trials on one route; mode is the snapshot route's steering."""
    cfg = sg.ExperimentConfig(
        scenario=sg.ScenarioConfig(**params, seed=seed), trials_h0=trials, trials_h1=trials,
    )
    scores = snapshot_route_scores(cfg, mode) if route == "snapshots" else sg.run_trials(cfg, threads=1)
    if scores.errors:
        raise RuntimeError(f"{route}: {len(scores.errors)} trials failed")
    return scores


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=10_000, help="trials per hypothesis for KS")
    parser.add_argument("--auc-trials", type=int, default=40_000, help="trials per hypothesis for AUC")
    args = parser.parse_args(argv)

    tests = len(SCENARIOS) * 2 * len(sg.DETECTOR_NAMES)
    level = LEVEL / tests
    print(f"KS gate: {len(SCENARIOS)} scenarios x 2 hypotheses x {len(sg.DETECTOR_NAMES)} statistics"
          f" = {tests} tests, {args.trials} trials per hypothesis and route,"
          f" Bonferroni level {LEVEL} / {tests} = {level:.2e}")
    print(f"{'scenario':14s} {'hyp':3s} {'statistic':10s} {'D':>7s} {'p':>7s}")
    worst = 1.0
    for k, (name, params) in enumerate(SCENARIOS.items()):
        mode = "ula-random-doa" if name in ULA else "random-unit"
        t0 = time.perf_counter()
        old = run("snapshots", params, 9000 + 2 * k, args.trials, mode)
        new = run("covariance", params, 9001 + 2 * k, args.trials)
        for hyp, rows in (("H0", slice(0, args.trials)), ("H1", slice(args.trials, None))):
            for stat in sg.DETECTOR_NAMES:
                res = scipy.stats.ks_2samp(old.stat(stat, rows), new.stat(stat, rows))
                worst = min(worst, res.pvalue)
                flag = "  FAIL" if res.pvalue <= level else ""
                print(f"{name:14s} {hyp:3s} {stat:10s} {res.statistic:7.4f} {res.pvalue:7.4f}{flag}")
        print(f"# {name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    verdict = "PASS" if worst > level else "FAIL"
    print(f"smallest p = {worst:.4f} against {level:.2e}: {verdict}")

    params = SCENARIOS["readme-roc"]
    n = args.auc_trials
    h0, h1 = slice(0, n), slice(n, None)
    aucs = {}
    for route in ("snapshots", "covariance"):
        scores = run(route, params, 7, n)
        aucs[route] = {s: sg.roc_curve(scores.stat(s, h0), scores.stat(s, h1)).auc for s in sg.DETECTOR_NAMES}
    print(f"AUC at readme-roc, seed 7, {n} + {n} trials per route")
    print(f"{'statistic':10s} {'snapshots':>10s} {'covariance':>10s} {'change':>8s}")
    for stat in sg.DETECTOR_NAMES:
        old, new = aucs["snapshots"][stat], aucs["covariance"][stat]
        print(f"{stat:10s} {old:10.5f} {new:10.5f} {new - old:+8.5f}")
    closed = [s for s in sg.DETECTOR_NAMES if s != "glr"]
    means = [sum(aucs[r][s] for s in closed) / len(closed) for r in ("snapshots", "covariance")]
    print(f"{'mean of 5':10s} {means[0]:10.5f} {means[1]:10.5f} {means[1] - means[0]:+8.5f}"
          "  (the five closed forms, roc-closed's accuracy guard)")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
