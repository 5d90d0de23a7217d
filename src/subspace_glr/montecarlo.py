"""Monte Carlo harness: trial generation, calibration, ROC and sweep curves.

Trials are embarrassingly parallel and fully reproducible. Trial i of a
hypothesis reads its own fixed slice of words of the Philox stream keyed by
(run seed, hypothesis), at counter i W / 4 (see model.draw_sample_cov, which
draws each trial's sample covariance directly, not its snapshots), so the
scores do not depend on execution order, block size, or worker count;
reruns with the same config and seed produce identical numbers whether one
process runs them or eight. One cut (_blocks) splits each point's n
trials into the fewest blocks of at most BLOCK_TRIALS, and at least one per
worker when n >= 2 * workers, of sizes that differ by at most one. A block
is drawn and scored as stacked arrays and is one job; a trial scored
alone (a block of one) gets the same numbers. A pooled run forks its worker
processes once (_forked_map): the blocks of every point of a pm-sweep go to
them in one map, and each block comes back as one pickle.
Results stay columns throughout: a block returns one detectors.BlockScores,
a point concatenates them, rows ordered all H0 by index then all H1 by
index, and the curves read them by mask.

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
from dataclasses import dataclass

import numpy as np

from .detectors import DETECTOR_NAMES, BlockScores, score_batch
from .model import HYPOTHESES, ScenarioConfig, _check_integers, _check_reals, _real, draw_sample_cov
from .optimizer import STOP_REASONS

log = logging.getLogger(__name__)

SWEEP_AXES = ("snr_s_db", "n", "l")
# Trials drawn and scored as one stack; bounds the memory of a block.
BLOCK_TRIALS = 512
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
        if not isinstance(self.values, (list, tuple)):
            raise ValueError(f"sweep values must be a list, got {self.values!r}")
        self.values = tuple(_real("sweep value", v) for v in self.values)
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"sweep values must be finite, got {list(self.values)}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.snr_r_db_offset is not None:
            _check_reals(self, "snr_r_db_offset")
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
    detectors: tuple[str, ...] = DETECTOR_NAMES
    sweep: SweepSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, ScenarioConfig):
            raise ValueError(f"scenario must be a ScenarioConfig, got {self.scenario!r}")
        if self.sweep is not None and not isinstance(self.sweep, SweepSpec):
            raise ValueError(f"sweep must be a SweepSpec or None, got {self.sweep!r}")
        _check_integers(self, "trials_h0", "trials_h1")
        self.pfa = _real("pfa", self.pfa)
        if self.trials_h0 < 1:
            raise ValueError("trials_h0 must be >= 1")
        if self.trials_h1 < 0:
            raise ValueError("trials_h1 must be >= 0")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must lie in (0, 1), got {self.pfa}")
        if not isinstance(self.detectors, (list, tuple)) or not all(isinstance(n, str) for n in self.detectors):
            raise ValueError(f"detectors must be a list of names, got {self.detectors!r}")
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
        for value in self.sweep.values if self.sweep is not None else ():
            try:
                apply_sweep_value(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep.values: at {value:g}: {exc}") from None


def _rows(cfg: ExperimentConfig, hypothesis: str) -> slice:
    """The rows of one hypothesis in the scores of a run of cfg: all H0
    trials by index, then all H1 trials by index."""
    return slice(0, cfg.trials_h0) if hypothesis == "H0" else slice(cfg.trials_h0, None)


def _failures(cfg: ExperimentConfig, scores: BlockScores) -> dict[str, int]:
    """The failed trials of a run of cfg, counted per hypothesis that has trials."""
    counts = zip(HYPOTHESES, (cfg.trials_h0, cfg.trials_h1))
    return {hyp: int(np.sum(~scores.valid[_rows(cfg, hyp)])) for hyp, n in counts if n}


def _score_block(cfg: ExperimentConfig, block: list[tuple[str, int]]) -> BlockScores:
    """Draw the sample covariances of a block of trials and score them as
    stacked arrays (score_batch), which fails each failing trial in its own
    row. Anything that raises here is a defect, and ends the run."""
    u_s, u_r, s = draw_sample_cov(cfg.scenario, block)
    return score_batch(s, u_s, u_r, cfg.detectors)


def run_one_trial(cfg: ExperimentConfig, hypothesis: str, trial_index: int) -> BlockScores:
    """Draw and score a single trial from its own slice of the stream: a
    block of one, whose row carries the error the trial fails with."""
    return _score_block(cfg, [(hypothesis, trial_index)])


def resolve_threads(threads: int) -> int:
    """The worker count of a run: threads, or for 0 the CPUs this process
    may run on (its affinity mask, not the machine's CPU count)."""
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 means auto)")
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(items: list[tuple[str, int]], workers: int) -> list[list[tuple[str, int]]]:
    """Cut items into the fewest blocks of at most BLOCK_TRIALS, and at least
    one per worker when there are at least 2 * workers items, whose sizes
    differ by at most one, so each block's fixed cost is paid as few times
    as possible."""
    parts = workers if len(items) >= 2 * workers else 1
    count = max(parts, -(-len(items) // BLOCK_TRIALS))
    size, extra = divmod(len(items), count)
    cuts = [k * size + min(k, extra) for k in range(count + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_points(
    cfgs: list[ExperimentConfig], threads: int, values: tuple[float, ...] | None = None
) -> list[BlockScores]:
    """Run the H0 and H1 trials of every point (one config each) and return
    each point's scores, ordered as in run_trials.

    Each point is cut once (_blocks), and each block is one job. One
    worker, or a single job, runs in-process, and so does every run on a
    platform without os.fork. Otherwise the blocks of every point go to one
    _forked_map, so the workers are forked once and no point waits for the
    previous one: worker w of n scores jobs w, w + n, ... and only columns
    come back. Either way the results are read in job order from one
    iterator, which is closed when the run returns or raises, so no worker
    outlives the call. Each block logs one progress line, labelled by
    values. The failure rate is checked per point as it completes, in point
    order, and the first point above it stops the run.
    """
    workers = resolve_threads(threads) if hasattr(os, "fork") else 1
    items = [
        [("H0", i) for i in range(cfg.trials_h0)] + [("H1", i) for i in range(cfg.trials_h1)]
        for cfg in cfgs
    ]
    jobs = [(p, block) for p, its in enumerate(items) for block in _blocks(its, workers)]
    if workers == 1 or len(jobs) == 1:
        results = (_score_block(cfgs[p], block) for p, block in jobs)
    else:
        results = _forked_map(_score_block, [(cfgs[p], block) for p, block in jobs], workers)
    scored: list[list[BlockScores]] = [[] for _ in cfgs]
    points: list[BlockScores] = []
    try:
        for (p, _), block in zip(jobs, results):
            scored[p].append(block)
            done = sum(len(b.stats) for b in scored[p])
            log.info("point %d (%s): %d of %d trials done", p,
                     "-" if values is None else f"{values[p]:g}", done, len(items[p]))
            if done < len(items[p]):
                continue
            points.append(BlockScores.concat(scored[p]))
            errors = points[-1].errors
            if errors:
                first = errors[min(errors)]
                log.warning("%d of %d trials failed; first: %s", len(errors), done,
                            f"{type(first).__name__}: {first}")
            if len(errors) > MAX_FAILURE_RATE * done:
                raise RuntimeError(
                    f"{len(errors)} of {done} trials failed, above the allowed rate {MAX_FAILURE_RATE}"
                )
    finally:
        results.close()
    return points


def _forked_map(fn, args: list[tuple], workers: int):
    """Yield fn(*a) for each a of args, in order, computed by
    n = min(workers, len(args)) forked worker processes.

    Worker w computes args w, w + n, w + 2n, ... and writes each result to
    its own pipe as one pickle as soon as it has it, then ends with
    os._exit; the parent only reads the results, in order. A worker that
    ends before it has sent all its results raises RuntimeError naming its
    pid and exit status. When the generator ends, raises or is closed,
    every worker still running is killed, and all are reaped.
    """
    import pickle
    import signal
    import traceback

    n = min(workers, len(args))
    pids: list[int] = []
    pipes = []
    try:
        for w in range(n):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            pid = os.fork()
            if pid == 0:  # the worker: it ends here and never returns into the caller's code
                status = 1
                try:
                    for pipe in pipes:
                        pipe.close()
                    with open(write_fd, "wb") as out:
                        for a in args[w::n]:
                            pickle.dump(fn(*a), out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
        for j in range(len(args)):
            try:
                result = pickle.load(pipes[j % n])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(j % n)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(
                    f"worker process {pid} ended (exit status {code}) before it sent all its results"
                ) from None
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


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
    pooled = np.sort(np.concatenate([h0, h1]))
    thresholds = pooled[np.r_[True, pooled[1:] != pooled[:-1]]]  # np.unique's values, without numpy.ma
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


def check_experiment(experiment: str, cfg: ExperimentConfig) -> None:
    """Raise ValueError naming the config field when cfg cannot run
    experiment ("roc", "pm-sweep" or "null-dist"), which each runner checks
    before any trial runs, and the CLI before it creates --out."""
    if experiment == "null-dist":
        if "glr" not in cfg.detectors:
            raise ValueError("detectors must include glr for null-dist")
    elif experiment == "pm-sweep" and cfg.sweep is None:
        raise ValueError("sweep is required for pm-sweep")
    elif cfg.trials_h1 < 1:
        raise ValueError(f"trials_h1 must be >= 1 for {experiment}")


def run_roc_experiment(
    cfg: ExperimentConfig, threads: int = 0
) -> tuple[dict[str, RocCurve], dict[str, int], dict]:
    """(result, failures, telemetry): the ROC curve of every configured
    detector, the failed trials per hypothesis and the run's telemetry."""
    check_experiment("roc", cfg)
    scores = run_trials(cfg, threads)
    h0, h1 = _rows(cfg, "H0"), _rows(cfg, "H1")
    curves = {name: roc_curve(scores.stat(name, h0), scores.stat(name, h1)) for name in cfg.detectors}
    return curves, _failures(cfg, scores), telemetry(cfg, scores)


def run_pm_sweep(
    cfg: ExperimentConfig, threads: int = 0
) -> tuple[dict[str, list[PmPoint]], dict[str, int], dict[str, dict]]:
    """(result, failures, telemetry): the missed-detection probability
    along the sweep, one curve per detector, and each point's failed trials
    and telemetry, keyed by sweep value. Thresholds are recalibrated from
    the H0 trials of each point at cfg.pfa; a point with fewer than 10 / pfa
    valid H0 trials logs one warning that its threshold is noisy."""
    check_experiment("pm-sweep", cfg)
    values = cfg.sweep.values
    points = [apply_sweep_value(cfg, v) for v in values]
    out: dict[str, list[PmPoint]] = {name: [] for name in cfg.detectors}
    failures: dict[str, int] = {}
    counts: dict[str, dict] = {}
    for value, point, scores in zip(values, points, _run_points(points, threads, values)):
        failures[repr(float(value))] = sum(_failures(point, scores).values())
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
) -> tuple[tuple[float, np.ndarray], dict[str, int], dict]:
    """(result, failures, telemetry) of the null distribution of 2 log
    Lambda against chi-squared(2), from H0 trials only (glr must be enabled):
    the result is wilks_diag's (ks, table) over the valid trials."""
    check_experiment("null-dist", cfg)
    cfg = dataclasses.replace(cfg, trials_h1=0)
    scores = run_trials(cfg, threads)
    return wilks_diag(scores.two_log_glr[scores.valid]), _failures(cfg, scores), telemetry(cfg, scores)
