"""Detection statistics for the two-channel rank-one subspace problem.

Three statistics come from the likelihood route and are the point of the
package:

    glr_exact   the exact generalized likelihood ratio Lambda^{1/N},
                obtained by numerically maximizing the reduced objective
    glr_sample  closed-form approximation that fixes the reference-channel
                covariance at its sample value S_rr
    glr_low     the low-SNR simplification of glr_sample

Three more are standard baselines used for comparison: the largest
canonical coherence sigma_max, the cross-covariance energy, and the
dominant-singular-vector correlation. Five of the six are invariant to
scaling either channel, so their thresholds calibrated on H0 transfer
across unknown noise levels. The cross-covariance energy t_cc is
deliberately not: it is kept in its textbook form and scales as
(c_s c_r)^2 (see cross_corr_stat).

Every statistic is a function of the sample covariance S. The proposed
three and sigma_max use beamformed data: the whitened steering vectors
a_i = L_i^{-1} u_i and the coherence matrix C = L_s^{-1} S_sr L_r^{-H},
with the Cholesky factors S_ii = L_i L_i^H. The closed forms are vector
operations on them, and the exact statistic ascends a cost built from them
(covariance.cost_forms), one lockstep ascent for a whole stack. score_batch
forms them once for a stack of covariances; compute_report is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    BeamformerPair,
    BlockSampleCov,
    capon_pair,
    coherence_matrix,
    cost_forms,
)
from .model import SteeringPair, substream
from .optimizer import OptimResult, ascend, random_start

DETECTOR_NAMES = ("glr", "glr_sample", "glr_low", "sigma_max", "t_cc", "t_svd")
PROPOSED_DETECTORS = ("glr", "glr_sample", "glr_low")
# DetectorReport field of a detector whose field is not named after it.
_REPORT_FIELD = {"glr": "glr_1n"}
_ZERO_CHANNEL = "svd_corr_stat requires nonzero channel matrices"
# The exact cost's gamma_m has the eigenvalues 1 - sigma_k^2 of I - C^H C. At
# or below this scale-free floor the channels are fully coherent to working
# precision, the full sample covariance is singular and the cost undefined.
COHERENCE_FLOOR = 64.0 * np.finfo(float).eps


class DegenerateSampleError(ValueError):
    """A statistic's denominator collapsed on this sample."""


def _beamform(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray):
    """The coherence matrix and the beamformer pair that the three proposed
    detectors are built from."""
    if s.maybe_singular:
        raise ValueError(f"need n >= 2L snapshots, got n={s.n}, L={s.num_sensors}")
    return coherence_matrix(s), capon_pair(s, u_s, u_r)


def _closed_form_terms(c: np.ndarray, pair: BeamformerPair):
    """Numerator |eta_sr|^2 and the denominators beta_s (beta_r - alpha_sr) of
    glr_sample and beta_s beta_r of glr_low, at R_rr = S_rr, from beamformed
    data: eta_sr = a_s^H C a_r, beta_i = |a_i|^2 and alpha_sr = |C a_r|^2."""
    c_ar = (c @ pair.a_r[..., None])[..., 0]
    num = np.abs(np.vecdot(pair.a_s, c_ar)) ** 2
    return num, pair.beta_s * (pair.beta_r - np.vecdot(c_ar, c_ar).real), pair.beta_s * pair.beta_r


def glr_low(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> float:
    """Low-SNR statistic |eta_sr|^2 / (beta_s beta_r).

    Equals |b_s^H S_sr b_r|^2 / ((b_s^H S_ss b_s)(b_r^H S_rr b_r)) for the
    distortionless beamformer pair, and |w_s^H C w_r|^2 for the whitened
    pair with the coherence matrix C. Lies in [0, sigma_max^2] <= [0, 1].
    One value per covariance of a stack.
    """
    num, _, den = _closed_form_terms(*_beamform(s, u_s, u_r))
    return num / den


def _collapsed(den: float) -> DegenerateSampleError:
    return DegenerateSampleError(f"nonpositive denominator {den:.3e} in glr_sample")


def glr_sample(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> float:
    """Closed-form statistic with the reference covariance fixed at S_rr.

    lambda = |eta_sr|^2 / (beta_s (beta_r - alpha_sr)). The denominator gap
    beta_r - alpha_sr is a Schur-complement quadratic form, strictly
    positive when the full sample covariance is positive definite; a
    collapse to zero or below means the sample is degenerate and raises
    DegenerateSampleError rather than returning a clamped value (for a
    stack, naming the first such covariance). One value per covariance of
    a stack.
    """
    num, den, _ = _closed_form_terms(*_beamform(s, u_s, u_r))
    collapsed = den <= 0.0
    if np.any(collapsed):
        raise _collapsed(np.extract(collapsed, den)[0])
    return num / den


def _glr(forms, n_restarts: int):
    """The exact statistic of each trial of stacked cost forms (..., L, L):
    one lockstep ascent from the warm start e1 of every trial, plus
    n_restarts random starts stacked as extra rows, keeping each trial's
    best row. Restart k starts from random_start on substream(0, k), the
    same point for every trial. Returns the statistics exp(J), the ascent
    (None when no trial ascends), each trial's best row of it (-1 for a
    trial that does not ascend) and the errors that fail trials, keyed by
    trial: fully coherent channels (see COHERENCE_FLOOR) or a non-finite
    statistic."""
    if n_restarts < 0:
        raise ValueError(f"n_restarts must be >= 0, got {n_restarts}")
    psi, gamma_m = (f.reshape((-1,) + f.shape[-2:]) for f in forms)
    count, dim = gamma_m.shape[:2]
    gap = np.linalg.eigvalsh(gamma_m)[:, 0]
    errors: dict[int, ValueError] = {}
    for i in np.flatnonzero(gap <= COHERENCE_FLOOR).tolist():
        errors[i] = ValueError(
            f"the channels are fully coherent: I - C^H C has eigenvalue {gap[i]:.3e} <= {COHERENCE_FLOOR:.3e}"
        )
    valid = np.flatnonzero(gap > COHERENCE_FLOOR)
    stats, rows = np.full(count, np.nan), np.full(count, -1)
    if not valid.size:
        return stats, None, rows, errors
    starts = [np.eye(1, dim, dtype=complex)[0]]
    starts += [random_start(dim, substream(0, k)) for k in range(n_restarts)]
    # Row k * len(valid) + j ascends trial valid[j] from starts[k].
    x0 = np.concatenate([np.broadcast_to(x, (valid.size, dim)) for x in starts])
    stacked = [np.tile(f[valid], (len(starts), 1, 1)) for f in (psi, gamma_m)]
    ascent = ascend(stacked, x0)
    best = np.argmax(ascent.j_value.reshape(len(starts), valid.size), axis=0)  # the first start wins a tie
    rows[valid] = best * valid.size + np.arange(valid.size)
    with np.errstate(over="ignore"):
        stats[valid] = np.exp(ascent.j_value[rows[valid]])
    for i in valid[~np.isfinite(stats[valid])].tolist():
        errors[i] = DegenerateSampleError(f"non-finite exact statistic {stats[i]}")
    return stats, ascent, rows, errors


def glr_exact(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    n_restarts: int = 0,
) -> tuple[float, OptimResult]:
    """Exact statistic Lambda^{1/N} >= 1 of a sample covariance with n >= 2L
    and unit-norm steering vectors, via trust-region ascent, and the ascent's
    OptimResult. n_restarts random starts are added to the warm start e1,
    keeping the best objective. e1 alone already matches the closed-form
    statistic exactly, so the result never falls below 1 + glr_sample (up to
    roundoff); near N = 2L restarts can escape a local maximum. Raises
    ValueError when the channels are fully coherent (COHERENCE_FLOOR)."""
    stats, ascent, rows, errors = _glr(cost_forms(*_beamform(s, u_s, u_r)), n_restarts)
    if errors:
        raise errors[0]
    return float(stats[0]), ascent.result(int(rows[0]))


def sigma_max_coherence(s: BlockSampleCov) -> float:
    """Largest canonical coherence: top singular value of the whitened
    cross block. In [0, 1] for any sample covariance from real data. One
    value per covariance of a stack."""
    return np.linalg.svd(coherence_matrix(s), compute_uv=False)[..., 0]


def cross_corr_stat(s: BlockSampleCov) -> float:
    """Cross-covariance energy |S_sr|_F^2 (no whitening, no steering).

    Kept in its textbook form, which is the one whose comparison behavior
    the experiments reproduce. Unlike the other five statistics it is not
    invariant to channel rescaling; it transforms exactly as
    (c_s c_r)^2 |S_sr|_F^2 under Y_s -> c_s Y_s, Y_r -> c_r Y_r. A
    trace-normalized variant would be invariant but stops being a weak
    baseline: dividing by tr(S_ss) tr(S_rr) adapts the statistic to the
    per-trial noise power, and its detection rate then matches the
    low-SNR detector instead of trailing every proposed statistic. One
    value per covariance of a stack.
    """
    return np.sum(np.abs(s.s_sr) ** 2, axis=(-2, -1))


def _svd_corr(s: BlockSampleCov) -> tuple[np.ndarray, np.ndarray]:
    """svd_corr_stat of each covariance of a stack from one stacked eigh of
    (S_ss, S_rr), and where a channel is zero: lam_max(S_ii) == 0."""
    lam, vec = np.linalg.eigh(np.stack([s.s_ss, s.s_rr]))
    (lam_s, lam_r), (p_s, p_r) = lam[..., -1], vec[..., -1]
    cross = np.vecdot(p_s, (s.s_sr @ p_r[..., None])[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(cross) ** 2 / (lam_s * lam_r), (lam_s == 0.0) | (lam_r == 0.0)


def svd_corr_stat(s: BlockSampleCov) -> float:
    """Squared correlation of the dominant right singular vectors.

    The dominant right singular vector of each L x N channel matrix Y_i is
    its best rank-one waveform estimate; a shared emitter makes the two
    estimates align. It is v_i = Y_i^H p_i / sqrt(N lam_i) with the top
    eigenpair (lam_i, p_i) of S_ii, so the statistic is
    |p_s^H S_sr p_r|^2 / (lam_s lam_r). Invariant to scaling of either
    channel. One value per covariance of a stack."""
    stat, zero = _svd_corr(s)
    if np.any(zero):
        raise ValueError(_ZERO_CHANNEL)
    return stat


@dataclass
class DetectorReport:
    """All statistics computed on one record. Fields are None when the
    corresponding detector was not requested."""

    glr_1n: float | None = None
    two_log_glr: float | None = None
    glr_sample: float | None = None
    glr_low: float | None = None
    sigma_max: float | None = None
    t_cc: float | None = None
    t_svd: float | None = None
    optim: OptimResult | None = None

    def stat(self, name: str) -> float:
        """Thresholdable scalar for a detector name."""
        val = getattr(self, _REPORT_FIELD.get(name, name))
        if val is None:
            raise KeyError(f"detector {name!r} was not computed for this record")
        return float(val)


@dataclass
class BlockScores:
    """Scores of T trials as columns, one row per trial: what score_batch
    returns. stats (T, D) holds the requested statistics in detectors order.
    With glr, two_log_glr is 2 N log Lambda^{1/N}, and iterations and stop
    are the steps and the stop code (an index into optimizer.STOP_REASONS)
    of the ascent that gave glr; otherwise they read nan, 0 and -1. errors
    maps each failed row to its error, and that row reads nan, 0 and -1."""

    detectors: tuple[str, ...]
    stats: np.ndarray
    two_log_glr: np.ndarray
    iterations: np.ndarray
    stop: np.ndarray
    errors: dict[int, Exception]

    @classmethod
    def empty(cls, detectors: tuple[str, ...], count: int) -> BlockScores:
        """count rows that read nan, 0 and -1, none failed."""
        return cls(tuple(detectors), np.full((count, len(detectors)), np.nan), np.full(count, np.nan),
                   np.zeros(count, dtype=np.int32), np.full(count, -1, dtype=np.int8), {})

    @classmethod
    def concat(cls, parts: list[BlockScores]) -> BlockScores:
        """The rows of parts, in order, as one block."""
        start = np.cumsum([0] + [len(p.stats) for p in parts]).tolist()
        columns = (np.concatenate([getattr(p, name) for p in parts])
                   for name in ("stats", "two_log_glr", "iterations", "stop"))
        errors = {at + i: err for at, p in zip(start, parts) for i, err in p.errors.items()}
        return cls(parts[0].detectors, *columns, errors)

    @property
    def valid(self) -> np.ndarray:
        """Mask of the rows that did not fail."""
        ok = np.ones(len(self.stats), dtype=bool)
        ok[list(self.errors)] = False
        return ok

    def stat(self, name: str, rows: slice = slice(None)) -> np.ndarray:
        """One detector's statistic on the valid rows among rows."""
        return self.stats[rows, self.detectors.index(name)][self.valid[rows]]


def _score(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray, detectors: tuple[str, ...], n_restarts: int):
    """score_batch's scores, plus glr's ascent and each trial's row of it
    (see _glr), from which compute_report builds a trial's OptimResult."""
    unknown = set(detectors) - set(DETECTOR_NAMES)
    if unknown:
        raise ValueError(f"unknown detectors {sorted(unknown)}; valid: {DETECTOR_NAMES}")
    out = BlockScores.empty(detectors, s.s_ss.shape[0])

    def flag(mask: np.ndarray, make) -> None:
        for i in np.flatnonzero(mask).tolist():
            if i not in out.errors:
                out.errors[i] = make(i)

    stats = {}
    ascent, rows = None, None
    if set(PROPOSED_DETECTORS) & set(detectors):
        c, pair = _beamform(s, u_s, u_r)
    elif "sigma_max" in detectors:
        c = coherence_matrix(s)
    if "glr" in detectors:
        stats["glr"], ascent, rows, out.errors = _glr(cost_forms(c, pair), n_restarts)
    with np.errstate(divide="ignore", invalid="ignore"):
        if "glr_sample" in detectors or "glr_low" in detectors:
            num, den, low_den = _closed_form_terms(c, pair)
        if "glr_sample" in detectors:
            flag(den <= 0.0, lambda i: _collapsed(den[i]))
            stats["glr_sample"] = num / den
        if "glr_low" in detectors:
            stats["glr_low"] = num / low_den
        if "sigma_max" in detectors:
            stats["sigma_max"] = np.linalg.svd(c, compute_uv=False)[..., 0]
        if "t_cc" in detectors:
            stats["t_cc"] = cross_corr_stat(s)
        if "t_svd" in detectors:
            stats["t_svd"], zero = _svd_corr(s)
            flag(zero, lambda i: ValueError(_ZERO_CHANNEL))
    for k, name in enumerate(detectors):
        vals = out.stats[:, k] = stats[name]
        flag(~np.isfinite(vals), lambda i: DegenerateSampleError(f"non-finite statistic {name} = {vals[i]}"))
    out.stats[list(out.errors)] = np.nan
    if ascent is not None:
        done = out.valid & (rows >= 0)
        # math.log, not np.log: the two differ in the last bit on some doubles.
        out.two_log_glr[done] = 2.0 * s.n * np.array([math.log(g) for g in stats["glr"][done].tolist()])
        out.iterations[done], out.stop[done] = ascent.iterations[rows[done]], ascent.stop[rows[done]]
    return out, ascent, rows


def score_batch(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    detectors: tuple[str, ...] = DETECTOR_NAMES,
    n_restarts: int = 0,
) -> BlockScores:
    """Run the requested detectors on T covariances stacked along a leading axis.

    s holds (T, L, L) blocks and u_s, u_r are (T, L). The Cholesky factors,
    the coherence matrix and the beamformer pair are formed once for the
    stack and feed every detector that uses them. The closed forms and the
    exact cost's forms are vector operations over the stack, one stacked
    eigvalsh validates the latter, glr runs one lockstep ascent over all of
    them (optimizer.ascend) with n_restarts random starts per trial besides
    e1 (see glr_exact), and t_svd takes one stacked eigh of S_ss and
    S_rr. Returns the block's scores as columns (BlockScores), a row per
    trial. A trial that fails carries the error that scoring it alone raises
    first (from glr, a collapsed glr_sample denominator, a zero channel in
    t_svd, then a non-finite statistic in detector order). What fails for
    the whole stack, such as too few snapshots or a block that is not
    positive definite, raises.
    """
    return _score(s, u_s, u_r, detectors, n_restarts)[0]


def compute_report(
    s: BlockSampleCov,
    steering: SteeringPair,
    detectors: tuple[str, ...] = DETECTOR_NAMES,
    n_restarts: int = 0,
) -> DetectorReport:
    """Run the requested detectors on one record's sample covariance:
    score_batch on a stack of one, as a DetectorReport. Raises the error the
    record hits; callers that sweep many records use score_batch, which
    returns it instead."""
    stack = BlockSampleCov(s.s_ss[None], s.s_sr[None], s.s_rr[None], s.n)
    scores, ascent, rows = _score(stack, steering.u_s[None], steering.u_r[None], detectors, n_restarts)
    if scores.errors:
        raise scores.errors[0]
    report = DetectorReport(**{_REPORT_FIELD.get(n, n): float(v) for n, v in zip(detectors, scores.stats[0])})
    if ascent is not None:
        report.two_log_glr = float(scores.two_log_glr[0])
        report.optim = ascent.result(int(rows[0]))
    return report
