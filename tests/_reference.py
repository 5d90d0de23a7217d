"""Test-only reference code, kept out of the package.

The package scores trials only through synth_batch -> score_batch ->
optimizer.ascend. This module holds the independent per-trial paths the
tests hold that pipeline against:

- draw_trial, the per-trial oracle that synth_batch must match bit for
  bit: it reads one trial's words from a Philox stream set to the trial's
  counter;
- the substream-driven per-trial synthesis (draw_steering -> draw_channel
  -> synth_snapshots) that builds the tests' single instances, and the
  population covariance;
- the per-covariance scalars of the derivation, eta_sr, eta_rr and alpha_sr,
  which take an optional R_rr so that the cross-gain estimate can be
  evaluated at any reference covariance (R_rr = None fixes R_rr = S_rr),
  and the solves and Capon denominators they use (solve_ss, solve_rr,
  capon_beta_s, capon_beta_r) as functions of a BlockSampleCov;
- the minimum-power distortionless beamformers (distortionless_pair), by
  plain solves rather than the package's Cholesky factors;
- the snapshot form of t_svd (svd_corr), one SVD per channel, which the
  package computes from the sample covariance instead;
- the cross-gain estimates ml_qsr and low_snr_qsr and the matrix M(q, R_rr)
  whose determinant ml_qsr minimizes;
- oracle_glr, a brute-force quasi-Newton search over R_rr for the exact
  statistic.

Unlike the package, it uses scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from subspace_glr._linalg import check_hermitian, hermitize, householder
from subspace_glr.covariance import BlockSampleCov
from subspace_glr.detectors import DegenerateSampleError
from subspace_glr.model import (
    HYPOTHESES,
    STEERING_MODES,
    ScenarioConfig,
    SnapshotData,
    SteeringPair,
    _snr_factor,
    substream,
    ula_steering,
)


def cho_factor_pd(a: np.ndarray, name: str = "matrix"):
    """Cholesky-factor a Hermitian positive definite matrix.

    Raises ValueError naming the offending matrix when it is not positive
    definite, so callers surface singular or indefinite blocks explicitly
    instead of producing NaNs downstream.
    """
    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # scipy.linalg.LinAlgError is this class
        raise ValueError(f"{name} is not positive definite: {exc}") from exc


def pd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a @ x = b for Hermitian positive definite a via Cholesky."""
    c = cho_factor_pd(a, name=name)
    return scipy.linalg.cho_solve(c, b, check_finite=False)


def min_eig_herm(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0


def _cn_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # CN(0, 1): independent real and imaginary parts, variance 1/2 each.
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def draw_channel_gain(rng: np.random.Generator) -> complex:
    """One CN(0, 1) gain: Rayleigh(1/sqrt(2)) magnitude, uniform phase."""
    return complex(_cn_matrix(rng))


def draw_noise_cov(rng: np.random.Generator, num_sensors: int, dof: int) -> np.ndarray:
    """Random noise covariance: complex Wishart with identity scale.

    Sigma = G G^H / dof with G an L x dof matrix of CN(0, 1) entries, so
    E[Sigma] = I. dof >= L keeps Sigma full rank almost surely.
    """
    if dof < num_sensors:
        raise ValueError(f"wishart dof {dof} < dimension {num_sensors}: rank deficient")
    return wishart_cov(_cn_matrix(rng, num_sensors, dof))


def wishart_cov(g: np.ndarray) -> np.ndarray:
    """G G^H / dof for an L x dof matrix G of CN(0, 1) entries."""
    return hermitize(g @ g.conj().T / g.shape[1])


def scale_noise_to_snr(
    sigma: np.ndarray, gain: complex, sigma_x2: float, snr_db: float
) -> np.ndarray:
    """Rescale a noise covariance so the per-channel SNR hits a target.

    SNR is defined as 10*log10(sigma_x2 * |gain|^2 / tr(Sigma)); the steering
    vector has unit norm so it contributes no power factor. Returns c * sigma
    with c chosen to meet snr_db exactly.
    """
    return sigma * _snr_factor(sigma, gain, sigma_x2, snr_db)


def draw_steering(mode: str, num_sensors: int, rng: np.random.Generator) -> SteeringPair:
    """Draw a random steering pair. Modes: random-unit, ula-random-doa."""
    if mode == "random-unit":
        u_s = _cn_matrix(rng, num_sensors)
        u_r = _cn_matrix(rng, num_sensors)
        return SteeringPair(u_s / np.linalg.norm(u_s), u_r / np.linalg.norm(u_r))
    if mode == "ula-random-doa":
        theta_s, theta_r = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        return SteeringPair(ula_steering(num_sensors, theta_s), ula_steering(num_sensors, theta_r))
    raise ValueError(f"unknown steering mode {mode!r}; expected one of {STEERING_MODES}")


@dataclass
class ChannelRealization:
    """One draw of gains and noise covariances.

    The induced signal-power parameters are q_ss = sigma_x2 |a_s|^2,
    q_rr = sigma_x2 |a_r|^2, q_sr = sigma_x2 a_s conj(a_r); |q_sr|^2 equals
    q_ss q_rr by construction (the signal subspace is exactly rank one).
    """

    a_s: complex
    a_r: complex
    sigma_ss: np.ndarray
    sigma_rr: np.ndarray
    sigma_x2: float = 1.0

    def __post_init__(self) -> None:
        self.sigma_ss = np.asarray(self.sigma_ss, dtype=complex)
        self.sigma_rr = np.asarray(self.sigma_rr, dtype=complex)
        for name, s in (("sigma_ss", self.sigma_ss), ("sigma_rr", self.sigma_rr)):
            check_hermitian(s, 1e-10, name)
            if min_eig_herm(s) <= 0:
                raise ValueError(f"{name} is not positive definite")
        if self.sigma_ss.shape != self.sigma_rr.shape:
            raise ValueError("noise covariances differ in shape")
        if self.sigma_x2 < 0:
            raise ValueError(f"sigma_x2 must be >= 0, got {self.sigma_x2}")

    @property
    def q_ss(self) -> float:
        return self.sigma_x2 * abs(self.a_s) ** 2

    @property
    def q_rr(self) -> float:
        return self.sigma_x2 * abs(self.a_r) ** 2

    @property
    def q_sr(self) -> complex:
        return self.sigma_x2 * self.a_s * self.a_r.conjugate()


def draw_channel(
    cfg: ScenarioConfig,
    rng_gains: np.random.Generator,
    rng_covs: np.random.Generator,
) -> ChannelRealization:
    """Draw gains and SNR-scaled noise covariances for one trial.

    Draw order is fixed (a_s, a_r, Sigma_ss, Sigma_rr) so records are
    reproducible from their streams alone. With sigma_x2 = 0 the raw
    mean-identity covariances are kept, since no scaling can reach an SNR
    target without signal power.
    """
    a_s = draw_channel_gain(rng_gains)
    a_r = draw_channel_gain(rng_gains)
    sigma_ss = draw_noise_cov(rng_covs, cfg.L, cfg.dof)
    sigma_rr = draw_noise_cov(rng_covs, cfg.L, cfg.dof)
    return scaled_channel(cfg, a_s, a_r, sigma_ss, sigma_rr)


def scaled_channel(
    cfg: ScenarioConfig, a_s: complex, a_r: complex, sigma_ss: np.ndarray, sigma_rr: np.ndarray
) -> ChannelRealization:
    """The channel of drawn gains and raw covariances, rescaled to the SNR
    targets unless sigma_x2 = 0."""
    if cfg.sigma_x2 > 0:
        sigma_ss = scale_noise_to_snr(sigma_ss, a_s, cfg.sigma_x2, cfg.snr_s_db)
        sigma_rr = scale_noise_to_snr(sigma_rr, a_r, cfg.sigma_x2, cfg.snr_r_db)
    return ChannelRealization(a_s, a_r, sigma_ss, sigma_rr, cfg.sigma_x2)


def synth_snapshots(
    cfg: ScenarioConfig,
    steering: SteeringPair,
    chan: ChannelRealization,
    hypothesis: str,
    rng: np.random.Generator,
) -> SnapshotData:
    """Synthesize N snapshots under the given hypothesis.

    The waveform and both noise blocks are drawn in a fixed order (x, n_s,
    n_r) under either hypothesis, so H0 and H1 trials with the same stream
    share their noise realizations and differ only in the surveillance
    signal term.
    """
    x = _cn_matrix(rng, cfg.N)
    z_noise = np.stack([_cn_matrix(rng, cfg.L, cfg.N), _cn_matrix(rng, cfg.L, cfg.N)])
    return assemble_snapshots(cfg, steering, chan, hypothesis, x, z_noise)


def assemble_snapshots(
    cfg: ScenarioConfig,
    steering: SteeringPair,
    chan: ChannelRealization,
    hypothesis: str,
    x: np.ndarray,
    z_noise: np.ndarray,
) -> SnapshotData:
    """Snapshots from the CN(0, 1) waveform x (N) and white noise z_noise
    (2, L, N): the waveform is scaled by sqrt(sigma_x2) and the noise
    coloured by the Cholesky factors of the channel's covariances."""
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    if steering.num_sensors != cfg.L:
        raise ValueError(f"steering length {steering.num_sensors} != L = {cfg.L}")
    x = math.sqrt(cfg.sigma_x2) * x
    n_s = np.linalg.cholesky(chan.sigma_ss) @ z_noise[0]
    n_r = np.linalg.cholesky(chan.sigma_rr) @ z_noise[1]
    y_r = chan.a_r * np.outer(steering.u_r, x) + n_r
    if hypothesis == "H1":
        y_s = chan.a_s * np.outer(steering.u_s, x) + n_s
    else:
        y_s = n_s
    return SnapshotData(y_s, y_r, hypothesis)


def draw_trial(
    cfg: ScenarioConfig, mode: str, hypothesis: str, index: int
) -> tuple[SteeringPair, ChannelRealization, SnapshotData]:
    """Trial `index` of `hypothesis`, read on its own: the oracle synth_batch
    matches bit for bit.

    The trial's W words (steering 4L, gains 4, Wishart factors 4 L dof,
    signal 2N, noise 4 L N, rounded up to a multiple of 4) start at counter
    index * W / 4 of the Philox stream keyed (seed, hypothesis code). Each
    word w is the uniform ((w >> 11) + 1) 2^-53 in (0, 1], and each pair
    (u1, u2) the complex normal sqrt(-log u1) exp(2 pi i u2). The ULA angles
    are the first two uniforms, mapped onto (-pi/2, pi/2].
    """
    L, N, dof = cfg.L, cfg.N, cfg.dof
    sizes = np.array([4 * L, 4, 4 * L * dof, 2 * N, 4 * L * N])
    width = 4 * math.ceil(sizes.sum() / 4)
    key = np.array([cfg.seed, HYPOTHESES.index(hypothesis)], dtype=np.uint64)
    words = np.random.Philox(counter=index * width // 4, key=key).random_raw(width)
    u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    z = np.sqrt(-np.log(u[0::2])) * np.exp(2j * np.pi * u[1::2])
    z_steer, gains, g, x, z_noise, _ = np.split(z, np.cumsum(sizes) // 2)
    if mode == "random-unit":
        v = z_steer.reshape(2, L)
        steering = SteeringPair(*(v / np.linalg.norm(v, axis=-1, keepdims=True)))
    elif mode == "ula-random-doa":
        steering = SteeringPair(*(ula_steering(L, theta) for theta in -np.pi / 2 + np.pi * u[:2]))
    else:
        raise ValueError(f"unknown steering mode {mode!r}; expected one of {STEERING_MODES}")
    sigma_ss, sigma_rr = (wishart_cov(gk) for gk in g.reshape(2, L, dof))
    chan = scaled_channel(cfg, gains[0], gains[1], sigma_ss, sigma_rr)
    return steering, chan, assemble_snapshots(cfg, steering, chan, hypothesis, x, z_noise.reshape(2, L, N))


def population_cov(
    steering: SteeringPair, chan: ChannelRealization, hypothesis: str
) -> np.ndarray:
    """Exact 2L x 2L covariance of the stacked snapshot vector."""
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    u_s, u_r = steering.u_s, steering.u_r
    r_rr = chan.q_rr * np.outer(u_r, u_r.conj()) + chan.sigma_rr
    if hypothesis == "H0":
        r_ss = chan.sigma_ss
        r_sr = np.zeros((u_s.size, u_r.size), dtype=complex)
    else:
        r_ss = chan.q_ss * np.outer(u_s, u_s.conj()) + chan.sigma_ss
        r_sr = chan.q_sr * np.outer(u_s, u_r.conj())
    top = np.hstack([r_ss, r_sr])
    bot = np.hstack([r_sr.conj().T, r_rr])
    return np.vstack([top, bot])


def solve_ss(s: BlockSampleCov, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((s.chol_ss, True), b, check_finite=False)


def solve_rr(s: BlockSampleCov, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((s.chol_rr, True), b, check_finite=False)


def capon_beta_s(s: BlockSampleCov, u_s: np.ndarray) -> float:
    """Capon denominator u_s^H S_ss^{-1} u_s."""
    u_s = np.asarray(u_s, dtype=complex).reshape(-1)
    return float((np.conj(u_s) @ solve_ss(s, u_s)).real)


def capon_beta_r(s: BlockSampleCov, u_r: np.ndarray) -> float:
    """Capon denominator u_r^H S_rr^{-1} u_r."""
    u_r = np.asarray(u_r, dtype=complex).reshape(-1)
    return float((np.conj(u_r) @ solve_rr(s, u_r)).real)


def distortionless_pair(
    s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-power distortionless beamformers b_i = S_ii^{-1} u_i / beta_i,
    with beta_i = u_i^H S_ii^{-1} u_i, so that b_i^H u_i = 1."""
    out = []
    for block, u in ((s.s_ss, u_s), (s.s_rr, u_r)):
        x = np.linalg.solve(block, u)
        out.append(x / np.vdot(u, x).real)
    return out[0], out[1]


def svd_corr(y_s: np.ndarray, y_r: np.ndarray) -> np.ndarray:
    """t_svd from the snapshots of (..., L, N) stacks: the squared correlation
    of the dominant right singular vectors, one stacked SVD per channel."""
    v_s = np.linalg.svd(y_s, full_matrices=False)[2][..., 0, :]
    v_r = np.linalg.svd(y_r, full_matrices=False)[2][..., 0, :]
    return np.abs(np.vecdot(v_r, v_s)) ** 2


def unitary_completion(u: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal completion of a unit vector.

    Parameters
    ----------
    u : ndarray
        Unit-norm vector of length L.

    Returns
    -------
    ndarray
        L x (L-1) matrix V with V^H V = I and V^H u = 0, so [u, V] is
        unitary: the trailing columns of householder(u). L = 1 returns an
        empty L x 0 matrix.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("completion requires a unit-norm vector")
    return householder(u)[:, 1:]


def eta_sr(
    s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray, r_rr: np.ndarray | None = None
) -> complex:
    """u_s^H S_ss^{-1} S_sr R_rr^{-1} u_r, the whitened cross-channel response.

    r_rr = None evaluates at R_rr = S_rr.
    """
    t_s = solve_ss(s, u_s)
    t_r = solve_rr(s, u_r) if r_rr is None else pd_solve(r_rr, u_r, name="r_rr")
    return complex(t_s.conj() @ (s.s_sr @ t_r))


def eta_rr(s: BlockSampleCov, u_r: np.ndarray, r_rr: np.ndarray | None = None) -> float:
    """u_r^H R_rr^{-1} S_rr R_rr^{-1} u_r. Real and positive; at R_rr = S_rr it
    collapses to the Capon denominator u_r^H S_rr^{-1} u_r."""
    t_r = solve_rr(s, u_r) if r_rr is None else pd_solve(r_rr, u_r, name="r_rr")
    val = complex(t_r.conj() @ (s.s_rr @ t_r))
    return float(val.real)


def alpha_sr(
    s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray, r_rr: np.ndarray | None = None
) -> float:
    """u_r^H R_rr^{-1} S_sr^H S_ss^{-1} S_sr R_rr^{-1} u_r. Real, nonnegative,
    and strictly below eta_rr whenever the full sample covariance is positive
    definite (their difference is a Schur-complement quadratic form)."""
    t_r = solve_rr(s, u_r) if r_rr is None else pd_solve(r_rr, u_r, name="r_rr")
    w = s.s_sr @ t_r
    val = complex(w.conj() @ solve_ss(s, w))
    return float(val.real)


def cross_capon_beta(s_block: np.ndarray, u: np.ndarray, name: str = "block") -> float:
    """u^H S^{-1} u for one Hermitian positive definite block."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    t = pd_solve(s_block, u, name=name)
    return float((np.conj(u) @ t).real)


def ml_qsr(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    r_rr: np.ndarray | None = None,
) -> complex:
    """Cross-gain estimate that minimizes det M(q, R_rr) for fixed R_rr.

    q_hat = eta_sr / (|eta_sr|^2 + beta_s (eta_rr - alpha_sr)), with the
    scalars evaluated at R_rr (sample S_rr when r_rr is None). The
    denominator is positive whenever the full sample covariance is.
    """
    eta = eta_sr(s, u_s, u_r, r_rr)
    e_rr = eta_rr(s, u_r, r_rr)
    alpha = alpha_sr(s, u_s, u_r, r_rr)
    beta_s = capon_beta_s(s, u_s)
    den = abs(eta) ** 2 + beta_s * (e_rr - alpha)
    if den <= 0.0:
        raise DegenerateSampleError(f"nonpositive denominator {den:.3e} in ml_qsr")
    return eta / den


def low_snr_qsr(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> complex:
    """Low-SNR cross-gain estimate eta_sr(S_rr) / (beta_s beta_r)."""
    beta_s, beta_r = capon_beta_s(s, u_s), capon_beta_r(s, u_r)
    return eta_sr(s, u_s, u_r) / (beta_s * beta_r)


def m_matrix(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    q_sr: complex,
    r_rr: np.ndarray | None = None,
) -> np.ndarray:
    """Surveillance-side matrix whose determinant the cross gain minimizes.

    M(q, R_rr) = S_ss + |q|^2 eta_rr u_s u_s^H
                 - q u_s u_r^H R_rr^{-1} S_sr^H - conj(q) S_sr R_rr^{-1} u_r u_s^H

    At q = ml_qsr(...) this is the concentrated estimate of the
    surveillance-channel covariance factor.
    """
    r = s.s_rr if r_rr is None else np.asarray(r_rr, dtype=complex)
    u_s = np.asarray(u_s, dtype=complex).reshape(-1)
    u_r = np.asarray(u_r, dtype=complex).reshape(-1)
    t_r = pd_solve(r, u_r, name="r_rr")
    w = s.s_sr @ t_r
    e_rr = eta_rr(s, u_r, r)
    m = (
        s.s_ss
        + (abs(q_sr) ** 2 * e_rr) * np.outer(u_s, u_s.conj())
        - q_sr * np.outer(u_s, w.conj())
        - np.conj(q_sr) * np.outer(w, u_s.conj())
    )
    return hermitize(m)


def _profile_objective(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    t_lower: np.ndarray,
) -> float:
    """log Lambda(R_rr)^{1/N} for R_rr^{-1} = T T^H, all other parameters
    profiled out in closed form. Used only by the brute-force oracle."""
    dim = s.num_sensors
    r_inv = t_lower @ t_lower.conj().T
    v = r_inv @ u_r
    t_s = pd_solve(s.s_ss, u_s, name="s_ss")
    beta_s = float((np.conj(u_s) @ t_s).real)
    eta = complex(t_s.conj() @ (s.s_sr @ v))
    e_rr = float((v.conj() @ (s.s_rr @ v)).real)
    w = s.s_sr @ v
    alpha = float((w.conj() @ pd_solve(s.s_ss, w, name="s_ss")).real)
    gap = e_rr - alpha
    if gap <= 0.0:
        return -math.inf
    logdet_rinv = 2.0 * float(np.sum(np.log(np.abs(np.diag(t_lower)))))
    sign, logdet_srr = np.linalg.slogdet(s.s_rr)
    if sign.real <= 0:
        raise ValueError("s_rr is not positive definite")
    trace = float(np.einsum("ij,ji->", r_inv, s.s_rr).real)
    val = (
        logdet_rinv
        - trace
        + float(logdet_srr)
        + dim
        + math.log(beta_s + abs(eta) ** 2 / gap)
        - math.log(beta_s)
    )
    return val


def oracle_glr(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    n_restarts: int = 8,
    seed: int = 0,
) -> float:
    """Brute-force Lambda^{1/N} by direct search over the reference covariance.

    Independent check on glr_exact: parametrizes R_rr^{-1} through its
    Cholesky factor (L^2 real parameters, positive diagonal via log
    transform) and maximizes the profiled log likelihood ratio with a
    generic quasi-Newton method from the sample start plus n_restarts
    random starts. Slow by design; returns the best value found.
    """
    u_s = np.asarray(u_s, dtype=complex).reshape(-1)
    u_r = np.asarray(u_r, dtype=complex).reshape(-1)
    dim = s.num_sensors
    tril_r, tril_c = np.tril_indices(dim, k=-1)
    n_off = tril_r.size

    def unpack(theta: np.ndarray) -> np.ndarray:
        t = np.zeros((dim, dim), dtype=complex)
        t[np.diag_indices(dim)] = np.exp(theta[:dim])
        t[tril_r, tril_c] = theta[dim : dim + n_off] + 1j * theta[dim + n_off :]
        return t

    def negobj(theta: np.ndarray) -> float:
        val = _profile_objective(s, u_s, u_r, unpack(theta))
        return -val if math.isfinite(val) else 1e12

    # Start 1: R_rr = S_rr, the closed-form operating point.
    c_srr = np.linalg.cholesky(np.linalg.inv(s.s_rr))
    theta0 = np.concatenate(
        [np.log(np.abs(np.diag(c_srr))), c_srr[tril_r, tril_c].real, c_srr[tril_r, tril_c].imag]
    )
    starts = [theta0]
    rng = substream(seed, 0)
    for _ in range(n_restarts):
        starts.append(theta0 + 0.5 * rng.standard_normal(theta0.size))
    best = -math.inf
    for theta in starts:
        res = scipy.optimize.minimize(
            negobj, theta, method="BFGS", options={"gtol": 1e-10, "maxiter": 2000}
        )
        best = max(best, -float(res.fun))
    return math.exp(best)
