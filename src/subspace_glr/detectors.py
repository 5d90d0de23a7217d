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
forms them once for a stack of covariances. There is one scoring path: the
public statistic functions and compute_report run it on a record as a stack
of one, so a record gets score_batch's numbers and raises the error its row
carries, never a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import BlockSampleCov, capon_pair, coherence_matrix, cost_forms
from .model import SteeringPair
from .optimizer import OptimResult, _chart_forms, _cholesky, ascend

DETECTOR_NAMES = ("glr", "glr_sample", "glr_low", "sigma_max", "t_cc", "t_svd")
PROPOSED_DETECTORS = ("glr", "glr_sample", "glr_low")
_ZERO_CHANNEL = "svd_corr_stat requires nonzero channel matrices"
# The exact cost's gamma_m has the eigenvalues 1 - sigma_k^2 of I - C^H C. At
# or below this scale-free floor the channels are fully coherent to working
# precision, the full sample covariance is singular and the cost undefined.
COHERENCE_FLOOR = 64.0 * np.finfo(float).eps


class DegenerateSampleError(ValueError):
    """A statistic's denominator collapsed on this sample."""


def _single(s: BlockSampleCov, u_s: np.ndarray | None, u_r: np.ndarray | None,
            detectors: tuple[str, ...]):
    """_score on a stack of covariances, or on one record as a stack of one,
    raising the error of the first failed row. Returns the scores, each
    detector's statistic in detectors order (a float for a record, the
    column for a stack) and the OptimResult of the first row's glr ascent
    (None without glr): with no failed row every trial ascends, so row 0 of
    the ascent is trial 0. The steering vectors of a record broadcast over
    its stack of one (see capon_pair)."""
    record = s.s_ss.ndim == 2
    if record:
        s = BlockSampleCov(s.s_ss[None], s.s_sr[None], s.s_rr[None], s.n)
    scores, ascent = _score(s, u_s, u_r, detectors)
    if scores.errors:
        raise scores.errors[min(scores.errors)]
    values = scores.stats[0].tolist() if record else list(scores.stats.T)
    return scores, values, None if ascent is None else ascent.result(0)


def glr_low(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> float:
    """Low-SNR statistic |eta_sr|^2 / (beta_s beta_r).

    Equals |b_s^H S_sr b_r|^2 / ((b_s^H S_ss b_s)(b_r^H S_rr b_r)) for the
    distortionless beamformer pair, and |w_s^H C w_r|^2 for the whitened
    pair with the coherence matrix C. Lies in [0, sigma_max^2] <= [0, 1].
    One value per covariance of a stack.
    """
    return _single(s, u_s, u_r, ("glr_low",))[1][0]


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
    return _single(s, u_s, u_r, ("glr_sample",))[1][0]


def _clear_of_floor(gamma_block: np.ndarray) -> np.ndarray:
    """Whether each trial's gamma_m has its smallest eigenvalue above
    COHERENCE_FLOOR with room to spare, from gamma_block (2L-1, 2L-1, T), the
    chart's embedding of gamma_m (optimizer._chart_forms): whether
    gamma_block - 2 COHERENCE_FLOOR I is positive definite, by the Cholesky
    verdict (optimizer._cholesky) on a copy. The block is gamma_m's real
    embedding [[Re, -Im], [Im, Re]], whose eigenvalues are gamma_m's, each
    twice, without the row and column of Im x_1, so by Cauchy interlacing
    its smallest eigenvalue is gamma_m's. A margin of the floor itself lies
    far beyond the roundoff of this test and of eigvalsh, so a row that
    passes also passes eigvalsh's rule; the others are for eigvalsh to judge."""
    emb = gamma_block.copy()
    np.einsum("iit->it", emb)[...] -= 2.0 * COHERENCE_FLOOR
    return _cholesky(emb)[1]


def _glr(forms):
    """The exact statistic of each trial of stacked cost forms (..., L, L):
    one lockstep ascent from the warm start e1 of every trial. Near N = 2L
    it can stop at a local maximum below the global one. The chart
    embeddings of the forms are built once and screened (_clear_of_floor),
    and only the trials clear of the floor ascend, in trial order. Returns
    the statistics exp(J), each trial's iterations and stop code, the
    ascent (None when no trial ascends) and the errors of the trials whose
    channels are fully coherent (see COHERENCE_FLOOR), keyed by trial. A
    trial that does not ascend reads nan, 0 and -1; _score fails every
    trial whose statistic is not finite."""
    psi, gamma_m = (f.reshape((-1,) + f.shape[-2:]) for f in forms)
    count, dim = gamma_m.shape[:2]
    chart = _chart_forms((psi, gamma_m))
    ok = _clear_of_floor(chart[0][1])
    suspect = np.flatnonzero(~ok)
    errors: dict[int, ValueError] = {}
    if suspect.size:
        gap = np.linalg.eigvalsh(gamma_m[suspect])[:, 0]
        for i, g in zip(suspect.tolist(), gap.tolist()):
            if g <= COHERENCE_FLOOR:
                errors[i] = ValueError(
                    f"the channels are fully coherent: I - C^H C has eigenvalue {g:.3e} <= {COHERENCE_FLOOR:.3e}"
                )
        ok[suspect] = gap > COHERENCE_FLOOR
    valid = np.flatnonzero(ok)
    stats, iterations, stop = np.full(count, np.nan), np.zeros(count, dtype=int), np.full(count, -1)
    if not valid.size:
        return stats, iterations, stop, None, errors
    if valid.size < count:
        chart = [chart[0][..., valid], chart[1][valid]]
    ascent = ascend(chart, np.eye(1, dim, dtype=complex).repeat(valid.size, axis=0))  # e1 for every trial
    with np.errstate(over="ignore"):
        stats[valid] = np.exp(ascent.j_value)
    iterations[valid], stop[valid] = ascent.iterations, ascent.stop
    return stats, iterations, stop, ascent, errors


def glr_exact(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> tuple[float, OptimResult]:
    """Exact statistic Lambda^{1/N} >= 1 of a sample covariance with n >= 2L
    and unit-norm steering vectors, via trust-region ascent from the warm
    start e1, and the ascent's OptimResult. At e1 the objective matches the
    closed-form statistic exactly, so the result never falls below
    1 + glr_sample (up to roundoff). Near N = 2L the ascent can stop at a
    local maximum below the global one; maximize_j from other starts can
    look further. Raises ValueError when the channels are fully coherent
    (COHERENCE_FLOOR). For a stack, the column of statistics and the first
    covariance's ascent."""
    _, (stat,), optim = _single(s, u_s, u_r, ("glr",))
    return stat, optim


def sigma_max_coherence(s: BlockSampleCov) -> float:
    """Largest canonical coherence: top singular value of the whitened
    cross block. In [0, 1] for any sample covariance from real data. One
    value per covariance of a stack."""
    return _single(s, None, None, ("sigma_max",))[1][0]


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
    return _single(s, None, None, ("t_cc",))[1][0]


def svd_corr_stat(s: BlockSampleCov) -> float:
    """Squared correlation of the dominant right singular vectors.

    The dominant right singular vector of each L x N channel matrix Y_i is
    its best rank-one waveform estimate; a shared emitter makes the two
    estimates align. It is v_i = Y_i^H p_i / sqrt(N lam_i) with the top
    eigenpair (lam_i, p_i) of S_ii, so the statistic is
    |p_s^H S_sr p_r|^2 / (lam_s lam_r). Invariant to scaling of either
    channel. One value per covariance of a stack."""
    return _single(s, None, None, ("t_svd",))[1][0]


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
        """One detector's statistic on the valid rows among rows. Raises
        KeyError for a detector the block did not compute."""
        if name not in self.detectors:
            raise KeyError(f"detector {name!r} was not computed for this block")
        return self.stats[rows, self.detectors.index(name)][self.valid[rows]]


def _score(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray, detectors: tuple[str, ...]):
    """score_batch's scores, plus glr's ascent (see _glr), from which
    _single builds a trial's OptimResult. Calls no public statistic
    function: those run this."""
    unknown = set(detectors) - set(DETECTOR_NAMES)
    if unknown:
        raise ValueError(f"unknown detectors {sorted(unknown)}; valid: {DETECTOR_NAMES}")
    out = BlockScores.empty(detectors, s.s_ss.shape[0])

    def flag(mask: np.ndarray, make) -> None:
        for i in np.flatnonzero(mask).tolist():
            if i not in out.errors:
                out.errors[i] = make(i)

    stats = {}
    ascent = None
    if set(PROPOSED_DETECTORS) & set(detectors):
        if s.maybe_singular:
            raise ValueError(f"need n >= 2L snapshots, got n={s.n}, L={s.num_sensors}")
        c, pair = coherence_matrix(s), capon_pair(s, u_s, u_r)
    elif "sigma_max" in detectors:
        c = coherence_matrix(s)
    if "glr" in detectors:
        stats["glr"], iterations, stop, ascent, out.errors = _glr(cost_forms(c, pair))
    with np.errstate(divide="ignore", invalid="ignore"):
        if "glr_sample" in detectors or "glr_low" in detectors:
            # |eta_sr|^2 over beta_s (beta_r - alpha_sr) for glr_sample and over
            # beta_s beta_r for glr_low, at R_rr = S_rr, from beamformed data:
            # eta_sr = a_s^H C a_r, beta_i = |a_i|^2 and alpha_sr = |C a_r|^2
            c_ar = (c @ pair.a_r[..., None])[..., 0]
            num = np.abs(np.vecdot(pair.a_s, c_ar)) ** 2
        if "glr_sample" in detectors:
            den = pair.beta_s * (pair.beta_r - np.vecdot(c_ar, c_ar).real)
            flag(den <= 0.0,
                 lambda i: DegenerateSampleError(f"nonpositive denominator {den[i]:.3e} in glr_sample"))
            stats["glr_sample"] = num / den
        if "glr_low" in detectors:
            stats["glr_low"] = num / (pair.beta_s * pair.beta_r)
        if "sigma_max" in detectors:
            stats["sigma_max"] = np.linalg.svd(c, compute_uv=False)[..., 0]
        if "t_cc" in detectors:
            stats["t_cc"] = np.sum(np.abs(s.s_sr) ** 2, axis=(-2, -1))
        if "t_svd" in detectors:
            # the top eigenpairs (lam_i, p_i) of S_ss and S_rr, from one stacked eigh
            lam, vec = np.linalg.eigh(np.stack([s.s_ss, s.s_rr]))
            (lam_s, lam_r), (p_s, p_r) = lam[..., -1], vec[..., -1]
            cross = np.vecdot(p_s, (s.s_sr @ p_r[..., None])[..., 0])
            stats["t_svd"] = np.abs(cross) ** 2 / (lam_s * lam_r)
            flag((lam_s == 0.0) | (lam_r == 0.0), lambda i: ValueError(_ZERO_CHANNEL))
    for k, name in enumerate(detectors):
        vals = out.stats[:, k] = stats[name]
        flag(~np.isfinite(vals), lambda i: DegenerateSampleError(f"non-finite statistic {name} = {vals[i]}"))
    out.stats[list(out.errors)] = np.nan
    if ascent is not None:
        done = out.valid
        # math.log, not np.log: the two differ in the last bit on some doubles.
        out.two_log_glr[done] = 2.0 * s.n * np.array([math.log(g) for g in stats["glr"][done].tolist()])
        out.iterations[done], out.stop[done] = iterations[done], stop[done]
    return out, ascent


def score_batch(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    detectors: tuple[str, ...] = DETECTOR_NAMES,
) -> BlockScores:
    """Run the requested detectors on T covariances stacked along a leading axis.

    s holds (T, L, L) blocks and u_s, u_r are (T, L). The Cholesky factors,
    the coherence matrix and the beamformer pair are formed once for the
    stack and feed every detector that uses them. The closed forms and the
    exact cost's forms are vector operations over the stack, a Cholesky
    screen run elementwise over the stack validates the latter (eigvalsh
    judges only the trials it does not clear; see _clear_of_floor), glr
    runs one lockstep ascent over all of them from e1 (optimizer.ascend;
    near N = 2L it can stop at a local maximum, see glr_exact), and t_svd
    takes one stacked eigh of S_ss and S_rr. Returns the block's scores as columns (BlockScores), a row per
    trial. A trial that fails carries the error that scoring it alone raises
    first (fully coherent channels in glr, a collapsed glr_sample
    denominator, a zero channel in t_svd, then a non-finite statistic in
    detector order). What fails for the whole stack, such as too few
    snapshots or a block that is not positive definite, raises.
    """
    return _score(s, u_s, u_r, detectors)[0]


def compute_report(
    s: BlockSampleCov,
    steering: SteeringPair,
    detectors: tuple[str, ...] = DETECTOR_NAMES,
) -> tuple[BlockScores, OptimResult | None]:
    """Run the requested detectors on one record's sample covariance:
    score_batch on a stack of one. Returns its one-row scores and, when glr
    ran, the ascent's OptimResult. Raises the error the record hits; callers
    that sweep many records use score_batch, which returns it instead."""
    scores, _, optim = _single(s, steering.u_s, steering.u_r, detectors)
    return scores, optim
