"""Monte Carlo harness: trial generation, calibration, ROC and sweep curves.

Trials are embarrassingly parallel and fully reproducible. Trial i of a
hypothesis reads its own fixed slice of words of the Philox stream keyed by
(run seed, hypothesis), at counter i W / 4 (see model.draw_sample_cov, which
draws each trial's sample covariance directly, not its snapshots), so the
scores do not depend on execution order, chunking, or worker count;
reruns with the same config and seed produce identical numbers whether the
pool has one process or eight. With more than one worker, each point's trials
are cut into chunks of min(BLOCK_TRIALS, ceil(n / workers)) trials (one chunk
when n < 2 * workers), so a chunk fills a block where n allows it. Each CLI
run uses at most one process pool: the chunks of every point of a pm-sweep go
to it in one map. A chunk is drawn and scored in blocks of at most
BLOCK_TRIALS trials as stacked arrays; a trial scored alone (a block of one)
gets the same numbers. Results stay columns throughout: a chunk returns one
detectors.BlockScores per block, a point concatenates them, rows ordered all
H0 by index then all H1 by index, and the curves read them by mask.

Thresholds are calibrated empirically from the H0 sample as the order
statistic at rank ceil((1 - pfa) * M), i.e. the smallest threshold whose
false-alarm rate on the calibration sample does not exceed pfa. Detection
declares when a statistic strictly exceeds the threshold.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.unique (roc_curve) loads it on first use; load it with the package

from .detectors import DETECTOR_NAMES, BlockScores, score_batch
from .model import HYPOTHESES, STEERING_MODES, ScenarioConfig, draw_sample_cov
from .optimizer import STOP_REASONS

log = logging.getLogger(__name__)

SWEEP_AXES = ("snr_s_db", "n", "l")
# Trials drawn and scored as one stack; bounds the memory of a block.
BLOCK_TRIALS = 256
# A run point aborts when more than this share of its trials fail.
MAX_FAILURE_RATE = 1e-3


@dataclass
class SweepSpec:
    """One swept scenario parameter.

    axis "snr_s_db" optionally couples the reference SNR through a fixed
    offset in dB (snr_r = snr_s + snr_r_db_offset); axes "n" and "l" sweep
    the snapshot count and array size at fixed SNRs.
    """

    axis: str
    values: tuple[float, ...]
    snr_r_db_offset: float | None = None

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        self.values = tuple(float(v) for v in self.values)
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"sweep values must be finite, got {list(self.values)}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.snr_r_db_offset is not None and not math.isfinite(self.snr_r_db_offset):
            raise ValueError(f"snr_r_db_offset must be finite, got {self.snr_r_db_offset}")
        if self.snr_r_db_offset is not None and self.axis != "snr_s_db":
            raise ValueError("snr_r_db_offset only applies to the snr_s_db axis")


@dataclass
class ExperimentConfig:
    """Everything a run needs besides the worker count. Its fields, and those
    of the dataclasses it holds, are the keys of the JSON run config."""

    scenario: ScenarioConfig
    trials_h0: int
    trials_h1: int = 0
    pfa: float = 1e-2
    steering_mode: str = "random-unit"
    detectors: tuple[str, ...] = DETECTOR_NAMES
    sweep: SweepSpec | None = None
    n_restarts: int = 0  # random starts of the exact detector besides e1

    def __post_init__(self) -> None:
        if self.trials_h0 < 1:
            raise ValueError("trials_h0 must be >= 1")
        if self.trials_h1 < 0:
            raise ValueError("trials_h1 must be >= 0")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must lie in (0, 1), got {self.pfa}")
        if self.steering_mode not in STEERING_MODES:
            raise ValueError(
                f"steering_mode must be one of {STEERING_MODES}, got {self.steering_mode!r}"
            )
        self.detectors = tuple(self.detectors)
        if len(set(self.detectors)) < len(self.detectors):
            raise ValueError(
                f"each detector may be named once in config.detectors, got {list(self.detectors)}"
            )
        unknown = set(self.detectors) - set(DETECTOR_NAMES)
        if unknown:
            raise ValueError(f"unknown detectors {sorted(unknown)}; valid: {DETECTOR_NAMES}")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        if self.n_restarts < 0:
            raise ValueError(f"n_restarts must be >= 0, got {self.n_restarts}")
        for value in self.sweep.values if self.sweep is not None else ():
            try:
                apply_sweep_value(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep.values: at {value:g}: {exc}") from None


def _rows(cfg: ExperimentConfig, hypothesis: str) -> slice:
    """The rows of one hypothesis in the scores of a run of cfg: all H0
    trials by index, then all H1 trials by index."""
    return slice(0, cfg.trials_h0) if hypothesis == "H0" else slice(cfg.trials_h0, None)


def _score_block(cfg: ExperimentConfig, block: list[tuple[str, int]]) -> BlockScores:
    """Draw the sample covariances of a block of trials and score them as
    stacked arrays."""
    u_s, u_r, s = draw_sample_cov(cfg.scenario, cfg.steering_mode, block)
    return score_batch(s, u_s, u_r, cfg.detectors, cfg.n_restarts)


def run_one_trial(cfg: ExperimentConfig, hypothesis: str, trial_index: int) -> BlockScores:
    """Draw and score a single trial from its own slice of the
    stream: a block of one. Any error it hits fails its row."""
    try:
        return _score_block(cfg, [(hypothesis, trial_index)])
    except Exception as exc:
        out = BlockScores.empty(cfg.detectors, 1)
        out.errors[0] = exc
        return out


def _run_chunk(cfg: ExperimentConfig, items: list[tuple[str, int]]) -> list[BlockScores]:
    """Score the items in blocks of BLOCK_TRIALS, one BlockScores per block.
    A block that raises as a whole (say, one trial's sample block is not
    positive definite) is scored again one trial at a time, so only the
    failing trials carry the error."""
    out: list[BlockScores] = []
    for start in range(0, len(items), BLOCK_TRIALS):
        block = items[start : start + BLOCK_TRIALS]
        try:
            out.append(_score_block(cfg, block))
        except Exception:
            out.append(BlockScores.concat([run_one_trial(cfg, hyp, idx) for hyp, idx in block]))
    return out


def resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 means auto)")
    return threads if threads > 0 else (os.cpu_count() or 1)


def _plan_chunks(items: list[tuple[str, int]], workers: int) -> list[list[tuple[str, int]]]:
    """Split one point's trials into pool jobs of min(BLOCK_TRIALS,
    ceil(n / workers)) trials, so a job fills a block where n allows it. A
    point with fewer than 2 * workers trials is one job."""
    if workers == 1 or len(items) < 2 * workers:
        return [items]
    size = min(BLOCK_TRIALS, math.ceil(len(items) / workers))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _run_points(
    cfgs: list[ExperimentConfig], threads: int, values: tuple[float, ...] | None = None
) -> list[BlockScores]:
    """Run the H0 and H1 trials of every point (one config each) and return
    each point's scores, ordered as in run_trials.

    One worker runs the points in-process. Otherwise the jobs of every point
    go to one process pool in one map, so the workers are forked once and no
    point waits for the previous one; a single job runs in-process. A job
    returns one BlockScores per block, so only columns cross the pool. The
    failure rate is checked per point as it completes, in point order, and
    the first point above it stops the run. values label the points in the
    progress log.
    """
    workers = resolve_threads(threads)
    items = [
        [("H0", i) for i in range(cfg.trials_h0)] + [("H1", i) for i in range(cfg.trials_h1)]
        for cfg in cfgs
    ]
    jobs = [(p, chunk) for p, its in enumerate(items) for chunk in _plan_chunks(its, workers)]
    parts: list[list[BlockScores]] = [[] for _ in cfgs]
    points: list[BlockScores] = []

    def collect(p: int, blocks: list[BlockScores]) -> None:
        parts[p] += blocks
        done = sum(len(b.stats) for b in parts[p])
        log.info("point %d (%s): %d of %d trials done", p,
                 "-" if values is None else f"{values[p]:g}", done, len(items[p]))
        if done < len(items[p]):
            return
        points.append(BlockScores.concat(parts[p]))
        errors = points[-1].errors
        if errors:
            first = errors[min(errors)]
            log.warning("%d of %d trials failed; first: %s", len(errors), done,
                        f"{type(first).__name__}: {first}")
        if len(errors) > MAX_FAILURE_RATE * done:
            raise RuntimeError(
                f"{len(errors)} of {done} trials failed, above the allowed rate {MAX_FAILURE_RATE}"
            )

    if workers == 1 or len(jobs) == 1:
        for p, chunk in jobs:
            collect(p, _run_chunk(cfgs[p], chunk))
        return points
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        results = pool.map(_run_chunk, [cfgs[p] for p, _ in jobs], [chunk for _, chunk in jobs])
        try:
            for (p, _), blocks in zip(jobs, results):
                collect(p, blocks)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return points


def run_trials(cfg: ExperimentConfig, threads: int = 0) -> BlockScores:
    """Run the configured H0 and H1 trials.

    Rows come back ordered (all H0 by index, then all H1 by index)
    regardless of how many workers executed them.
    """
    return _run_points([cfg], threads)[0]


def calibrate_threshold(h0_stats: np.ndarray, pfa: float) -> float:
    """Empirical threshold: order statistic of the H0 sample at rank
    ceil((1 - pfa) * M). The strict-exceedance decision rule then has
    empirical false-alarm rate <= pfa on the calibration sample."""
    h0_stats = np.asarray(h0_stats, dtype=float)
    m = h0_stats.size
    if m < 1:
        raise ValueError("empty H0 sample")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    rank = math.ceil((1.0 - pfa) * m)
    rank = min(max(rank, 1), m)
    return float(np.sort(h0_stats)[rank - 1])


@dataclass
class RocCurve:
    """Empirical operating points of one detector, sorted by pfa."""

    pfa: np.ndarray
    pd: np.ndarray
    auc: float


def roc_curve(h0_stats: np.ndarray, h1_stats: np.ndarray) -> RocCurve:
    """Empirical ROC over the pooled thresholds, with trapezoidal AUC.

    Both endpoints (0, 0) and (1, 1) are included, so equal-distribution
    samples give AUC near 1/2 and disjoint supports give AUC 1.
    """
    h0 = np.sort(np.asarray(h0_stats, dtype=float))
    h1 = np.sort(np.asarray(h1_stats, dtype=float))
    if h0.size == 0 or h1.size == 0:
        raise ValueError("roc_curve needs nonempty samples under both hypotheses")
    thresholds = np.unique(np.concatenate([h0, h1]))
    pfa = 1.0 - np.searchsorted(h0, thresholds, side="right") / h0.size
    pd = 1.0 - np.searchsorted(h1, thresholds, side="right") / h1.size
    pfa = np.concatenate([[1.0], pfa])
    pd = np.concatenate([[1.0], pd])
    # lexicographic order: ties in pfa ascend in pd, so the sweep leaves
    # each vertical segment from its best point and pd stays monotone
    order = np.lexsort((pd, pfa))
    pfa, pd = pfa[order], pd[order]
    auc = float(np.trapezoid(pd, pfa))
    return RocCurve(pfa=pfa, pd=pd, auc=auc)


@dataclass
class PmPoint:
    """Missed-detection probability at one sweep point, with a 95 percent
    binomial (normal-approximation) interval clipped to [0, 1]."""

    sweep_value: float
    pm: float
    ci_lo: float
    ci_hi: float


def pm_at(
    h0_stats: np.ndarray, h1_stats: np.ndarray, pfa: float, sweep_value: float = math.nan
) -> PmPoint:
    """Missed-detection probability at an H0-calibrated threshold."""
    thr = calibrate_threshold(h0_stats, pfa)
    h1 = np.asarray(h1_stats, dtype=float)
    if h1.size == 0:
        raise ValueError("empty H1 sample")
    pm = float(np.mean(h1 <= thr))
    half = 1.96 * math.sqrt(max(pm * (1.0 - pm), 0.0) / h1.size)
    return PmPoint(
        sweep_value=sweep_value,
        pm=pm,
        ci_lo=max(0.0, pm - half),
        ci_hi=min(1.0, pm + half),
    )


def wilks_diag(two_log_glr: np.ndarray) -> tuple[float, np.ndarray]:
    """Kolmogorov-Smirnov distance of 2 log Lambda to chi-squared with two
    degrees of freedom, plus the CDF comparison table.

    Returns (ks, table) where table columns are (t, empirical_cdf,
    chi2_cdf) at the sorted sample points. Values are clamped at zero;
    anything below -1e-9 is rejected as a computation error.
    """
    vals = np.asarray(two_log_glr, dtype=float)
    if vals.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite statistic in sample")
    if np.min(vals) < -1e-9:
        raise ValueError(f"negative statistic {np.min(vals):.3e} below tolerance")
    vals = np.sort(np.clip(vals, 0.0, None))
    m = vals.size
    ref = 1.0 - np.exp(-0.5 * vals)  # chi-squared(2) CDF
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    ks = float(max(np.max(np.abs(hi - ref)), np.max(np.abs(ref - lo))))
    table = np.column_stack([vals, hi, ref])
    return ks, table


def apply_sweep_value(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """Config for one sweep point. The seed stays, so on the snr_s_db axis
    every point reads the same words (common random numbers); on the n and l
    axes the trial width changes, and with it where each trial's words lie."""
    if cfg.sweep is None:
        raise ValueError("config has no sweep")
    sc = cfg.scenario
    axis = cfg.sweep.axis
    if axis == "snr_s_db":
        snr_r = sc.snr_r_db if cfg.sweep.snr_r_db_offset is None else value + cfg.sweep.snr_r_db_offset
        sc = dataclasses.replace(sc, snr_s_db=value, snr_r_db=snr_r)
    elif not float(value).is_integer():
        raise ValueError(f"the {axis} axis takes integers")
    elif axis == "n":
        sc = dataclasses.replace(sc, N=int(value))
    else:
        sc = dataclasses.replace(sc, L=int(value))
    return dataclasses.replace(cfg, scenario=sc, sweep=None)


def telemetry(cfg: ExperimentConfig, scores: BlockScores) -> dict:
    """Counts that explain a run of cfg, the same at any worker count. With
    glr, "ascent" gives per hypothesis how the ascents of the valid trials
    stopped and their iteration count's p50, p90 (by nearest rank) and max.
    "failures" groups the failed trials by error class, with their count and
    the seed tag (seed/hypothesis/index) of the first."""
    out: dict = {"failures": {}}
    if "glr" in scores.detectors:
        out["ascent"] = {}
        for hyp in HYPOTHESES:
            rows = _rows(cfg, hyp)
            iters, stop = (col[rows][scores.valid[rows]] for col in (scores.iterations, scores.stop))
            if iters.size:
                p50, p90 = np.quantile(iters, [0.5, 0.9], method="inverted_cdf")
                out["ascent"][hyp] = {
                    "stop_reasons": {name: int(np.sum(stop == k)) for k, name in enumerate(STOP_REASONS)},
                    "iterations": {"p50": int(p50), "p90": int(p90), "max": int(iters.max())},
                }
    for row, err in sorted(scores.errors.items()):
        hyp, idx = ("H0", row) if row < cfg.trials_h0 else ("H1", row - cfg.trials_h0)
        tag = f"{cfg.scenario.seed}/{hyp}/{idx}"
        out["failures"].setdefault(type(err).__name__, {"count": 0, "first": tag})["count"] += 1
    return out


def run_roc_experiment(
    cfg: ExperimentConfig, threads: int = 0
) -> tuple[dict[str, RocCurve], dict[str, int], dict]:
    """ROC curves for every configured detector, failure counts per
    hypothesis and the run's telemetry."""
    if cfg.trials_h1 < 1:
        raise ValueError("a ROC run needs trials_h1 >= 1")
    scores = run_trials(cfg, threads)
    h0, h1 = _rows(cfg, "H0"), _rows(cfg, "H1")
    failures = {"H0": int(np.sum(~scores.valid[h0])), "H1": int(np.sum(~scores.valid[h1]))}
    curves = {name: roc_curve(scores.stat(name, h0), scores.stat(name, h1)) for name in cfg.detectors}
    return curves, failures, telemetry(cfg, scores)


def run_pm_sweep(
    cfg: ExperimentConfig, threads: int = 0
) -> tuple[dict[str, list[PmPoint]], dict[str, int], dict[str, dict]]:
    """Missed-detection probability along the sweep, one curve per detector.

    Thresholds are recalibrated from the H0 trials of each sweep point at
    cfg.pfa; a point with fewer than 10 / pfa valid H0 trials logs one
    warning that its threshold is noisy. Also returns failed-trial counts
    and the telemetry of each point, keyed by sweep value.
    """
    if cfg.sweep is None:
        raise ValueError("pm sweep requires a sweep block in the config")
    if cfg.trials_h1 < 1:
        raise ValueError("a pm sweep needs trials_h1 >= 1")
    values = cfg.sweep.values
    points = [apply_sweep_value(cfg, v) for v in values]
    out: dict[str, list[PmPoint]] = {name: [] for name in cfg.detectors}
    failures: dict[str, int] = {}
    counts: dict[str, dict] = {}
    for value, point, scores in zip(values, points, _run_points(points, threads, values)):
        failures[repr(float(value))] = len(scores.errors)
        counts[repr(float(value))] = telemetry(point, scores)
        h0, h1 = _rows(point, "H0"), _rows(point, "H1")
        n_h0 = int(np.sum(scores.valid[h0]))
        if n_h0 < 10.0 / cfg.pfa:
            log.warning("point %s: only %d H0 trials for pfa = %g; threshold is noisy",
                        value, n_h0, cfg.pfa)
        for name in cfg.detectors:
            h0_stats, h1_stats = scores.stat(name, h0), scores.stat(name, h1)
            out[name].append(pm_at(h0_stats, h1_stats, cfg.pfa, sweep_value=value))
    return out, failures, counts


def run_null_dist(
    cfg: ExperimentConfig, threads: int = 0
) -> tuple[float, np.ndarray, int, dict]:
    """Null distribution of 2 log Lambda against its large-sample reference.

    Runs H0 trials only (the exact detector must be enabled) and returns
    (ks distance, cdf table, number of valid trials, telemetry).
    """
    if "glr" not in cfg.detectors:
        raise ValueError("null-dist requires the glr detector")
    cfg = dataclasses.replace(cfg, trials_h1=0)
    scores = run_trials(cfg, threads)
    vals = scores.two_log_glr[scores.valid]
    ks, table = wilks_diag(vals)
    return ks, table, int(vals.size), telemetry(cfg, scores)
