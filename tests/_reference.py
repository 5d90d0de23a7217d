"""Test-only reference code, kept out of the package.

The package scores trials only through draw_sample_cov -> score_batch ->
optimizer.ascend. This module holds the independent per-trial paths the
tests hold that pipeline against:

- draw_cov_trial, the per-trial oracle that model.draw_sample_cov must
  match bit for bit: it reads one trial's words from a Philox stream set to
  the trial's counter;
- the snapshot route, the distribution oracle of draw_sample_cov:
  synth_batch draws a stack of trials' snapshots from counter-addressed
  words (its own layout, snapshot_width), draw_trial is its per-trial
  oracle, and snapshot_route_scores scores a run's trials through it;
- _uniforms, the map from raw Philox words to the uniforms in (0, 1] that
  draw_sample_cov reads straight from the stream, which synth_batch and the
  draw's tests apply to words they read themselves;
- the substream-driven per-trial synthesis (draw_steering -> draw_channel
  -> synth_snapshots) that builds the tests' single instances, and the
  population covariance;
- ula_steering and STEERING_MODES: the snapshot route and the per-trial
  synthesis take a steering mode, random unit pairs or ULA pairs at random
  angles, while the package draws random unit pairs only (no statistic's
  law depends on the steering);
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
  statistic;
- family_grid_oracle, a deterministic search for J's global maximum on the
  family x(t, rho) = (I + t gamma_m)^{-1} (e1 + rho g) that holds every
  stationary point, finished by one maximize_j, and family_certificate,
  which maps an ascent's x_hat into that family;
- substream and random_start, the keyed generator of the tests' single
  instances and the random starts that tests hand to the optimizer;
- write_csv, the row-at-a-time table writer that the CLI's column writer
  (cli._write_table) must match byte for byte;
- masked_cholesky, the column Cholesky that masks failed rows column by
  column, whose verdicts and factors optimizer._cholesky must match bit for
  bit, and glr_by_eigvalsh, the exact statistic with every trial's forms
  validated by eigvalsh, whose errors and scores the detector's Cholesky
  screen must leave unchanged;
- ascend_one_row, the trust-region iteration of one surface as a plain
  loop, whose outcome every row of the lockstep optimizer.ascend must match
  bit for bit: it keeps a rejected step's state by not overwriting it and
  stops at the first test that holds.

Unlike the package, it uses scipy.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from subspace_glr.covariance import (
    BlockSampleCov,
    adjoint,
    block_sample_cov,
    check_hermitian,
    cholesky_pd,
    hermitize,
    householder,
)
from subspace_glr.detectors import COHERENCE_FLOOR, BlockScores, DegenerateSampleError, score_batch
from subspace_glr.model import (
    HYPOTHESES,
    ScenarioConfig,
    SnapshotData,
    SteeringPair,
    _complex_normals,
    _snr_factor,
)
from subspace_glr.montecarlo import BLOCK_TRIALS, ExperimentConfig
from subspace_glr import optimizer
from subspace_glr.optimizer import OptimResult, _chart_forms, ascend, cost_j, maximize_j

STEERING_MODES = ("random-unit", "ula-random-doa")


def ula_steering(num_sensors: int, theta) -> np.ndarray:
    """Unit-norm steering vector of a half-wavelength ULA at angle theta.

    Element l (zero-based) is exp(j*pi*l*sin(theta)) / sqrt(L). An array of
    angles gives one vector per angle, stacked along a new last axis.
    """
    if num_sensors < 1:
        raise ValueError(f"num_sensors must be >= 1, got {num_sensors}")
    l_idx = np.arange(num_sensors)
    phase = np.pi * l_idx * np.sin(np.asarray(theta, dtype=float))[..., None]
    return np.exp(1j * phase) / math.sqrt(num_sensors)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """u = ((w >> 11) + 1) * 2^-53 in (0, 1] from raw words w, which it
    overwrites: the uniforms model.draw_sample_cov reads straight from the
    stream. The 53 bits fill a double's mantissa, so u is exact."""
    words >>= np.uint64(11)
    words += np.uint64(1)
    u = words.view(np.int64).astype(float)  # below 2^53: exact, and faster than from uint64
    u *= 2.0**-53
    return u


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


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, path...) key, seeded through a
    SeedSequence.

    It draws the tests' single instances and random starts, which are not
    Monte Carlo streams; trials are drawn by draw_sample_cov from
    counter-addressed words.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a u64, got {seed}")
    key = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def random_start(num_sensors: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random canonical point with a nonvanishing first entry."""
    while True:
        x = rng.standard_normal(num_sensors) + 1j * rng.standard_normal(num_sensors)
        if abs(x[0]) > 1e-6 * np.linalg.norm(x):
            return optimizer._canonicalize(x)


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
    with c chosen to meet snr_db exactly. The signal power sigma_x2 is this
    reference's own parameter: the package's waveform has unit power, and
    sigma_x2 = 1 gives its factor bit for bit.
    """
    return sigma * _snr_factor(np.trace(sigma).real, math.sqrt(sigma_x2) * gain, snr_db)


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
    reproducible from their streams alone.
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
    targets at unit signal power."""
    sigma_ss = scale_noise_to_snr(sigma_ss, a_s, 1.0, cfg.snr_s_db)
    sigma_rr = scale_noise_to_snr(sigma_rr, a_r, 1.0, cfg.snr_r_db)
    return ChannelRealization(a_s, a_r, sigma_ss, sigma_rr)


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
    (2, L, N): the waveform is scaled by sqrt(chan.sigma_x2) and the noise
    coloured by the Cholesky factors of the channel's covariances."""
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    if steering.num_sensors != cfg.L:
        raise ValueError(f"steering length {steering.num_sensors} != L = {cfg.L}")
    x = math.sqrt(chan.sigma_x2) * x
    n_s = np.linalg.cholesky(chan.sigma_ss) @ z_noise[0]
    n_r = np.linalg.cholesky(chan.sigma_rr) @ z_noise[1]
    y_r = chan.a_r * np.outer(steering.u_r, x) + n_r
    if hypothesis == "H1":
        y_s = chan.a_s * np.outer(steering.u_s, x) + n_s
    else:
        y_s = n_s
    return SnapshotData(y_s, y_r)


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


def snapshot_width(cfg: ScenarioConfig) -> int:
    """W of the snapshot route, the words synth_batch reads per trial: steering
    (4L; the ULA angles are its first two words), gains (4), Wishart factors
    (4 L dof), signal (2N) and noise (4 L N), rounded up to a multiple of 4."""
    L, N, dof = cfg.L, cfg.N, cfg.dof
    used = 4 * L + 4 + 4 * L * dof + 2 * N + 4 * L * N
    return -(-used // 4) * 4


def synth_batch(
    cfg: ScenarioConfig, steering_mode: str, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize the snapshots of a stack of trials, given as (hypothesis,
    trial index) pairs: the route that model.draw_sample_cov replaces on the
    Monte Carlo path, kept as its distribution oracle.

    Returns (u_s, u_r, y_s, y_r) of shapes (T, L), (T, L), (T, L, N) and
    (T, L, N). Each trial draws a steering pair, CN(0, 1) gains a_s, a_r,
    and noise covariances G G^H / dof (complex Wishart, identity scale)
    rescaled to the SNR targets, then N snapshots. Its W
    words (see snapshot_width) sit at counter i W / 4 of the Philox stream
    keyed by (seed, hypothesis code), so a trial gets the same numbers in any
    block; draw_trial is its per-trial oracle. A noise covariance that is not
    positive definite raises ValueError for the whole block.
    """
    if steering_mode not in STEERING_MODES:
        raise ValueError(f"unknown steering mode {steering_mode!r}; expected one of {STEERING_MODES}")
    hypothesis, index = (np.asarray(col) for col in zip(*trials))
    h1 = hypothesis == "H1"
    count, dim, snaps, dof = len(trials), cfg.L, cfg.N, cfg.dof
    width = snapshot_width(cfg)
    cuts = np.flatnonzero((np.diff(h1) != 0) | (np.diff(index) != 1)) + 1
    runs = []
    for first, stop in zip([0, *cuts], [*cuts, count]):
        bitgen = np.random.Philox(key=np.array([cfg.seed, h1[first]], dtype=np.uint64))
        bitgen.advance(int(index[first]) * width // 4)
        runs.append(bitgen.random_raw((stop - first) * width))
    u = _uniforms(np.concatenate(runs)).reshape(count, width)
    z_steer, gains, g, x, z_noise, _ = np.split(
        _complex_normals(u), np.cumsum([2 * dim, 2, 2 * dim * dof, snaps, 2 * dim * snaps]), axis=1
    )
    if steering_mode == "random-unit":
        v = z_steer.reshape(count, 2, dim)
        steering = v / np.linalg.norm(v, axis=-1, keepdims=True)
    else:
        steering = ula_steering(dim, -np.pi / 2 + np.pi * u[:, :2])
    g = g.reshape(count, 2, dim, dof)
    z_noise = z_noise.reshape(count, 2, dim, snaps)
    sigma = hermitize(g @ adjoint(g) / dof)
    snrs = np.array([cfg.snr_s_db, cfg.snr_r_db])
    trace = np.trace(sigma, axis1=-2, axis2=-1).real
    sigma *= _snr_factor(trace, gains, snrs)[:, :, None, None]
    noise = cholesky_pd(sigma, name="noise covariance") @ z_noise
    signal = gains[:, :, None, None] * (steering[:, :, :, None] * x[:, None, None, :])
    y_r = signal[:, 1] + noise[:, 1]
    y_s = np.where(h1[:, None, None], signal[:, 0] + noise[:, 0], noise[:, 0])
    return steering[:, 0], steering[:, 1], y_s, y_r


def snapshot_route_scores(cfg: ExperimentConfig, mode: str = "random-unit") -> BlockScores:
    """The scores of a run of cfg (rows all H0 by index, then all H1 by
    index) with every trial's sample covariance formed from synth_batch's
    snapshots under steering mode `mode`, in blocks of BLOCK_TRIALS like the
    harness's."""
    items = [("H0", i) for i in range(cfg.trials_h0)] + [("H1", i) for i in range(cfg.trials_h1)]
    blocks = []
    for start in range(0, len(items), BLOCK_TRIALS):
        u_s, u_r, y_s, y_r = synth_batch(cfg.scenario, mode, items[start : start + BLOCK_TRIALS])
        blocks.append(score_batch(block_sample_cov(y_s, y_r), u_s, u_r, cfg.detectors))
    return BlockScores.concat(blocks)


def bartlett_factor(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Lower-triangular p x p matrix with the complex z below the diagonal,
    row by row, and sqrt(gamma) on it."""
    p = gamma.size
    a = np.zeros((p, p), dtype=complex)
    a[np.tril_indices(p, -1)] = z
    a[np.diag_indices(p)] = np.sqrt(gamma)
    return a


def draw_cov_trial(
    cfg: ScenarioConfig, hypothesis: str, index: int
) -> tuple[SteeringPair, np.ndarray, BlockSampleCov]:
    """Trial `index` of `hypothesis`, read on its own: the oracle
    model.draw_sample_cov matches bit for bit. Returns the steering pair,
    the trial's 2L x (2L + 1) snapshot factor F (see below) and its sample
    covariance.

    The trial's W words start at counter index * W / 4 of the Philox stream
    keyed (seed, hypothesis code). Each word w is the uniform
    ((w >> 11) + 1) 2^-53 in (0, 1]. The first words pair up into the
    complex normals sqrt(-log u1) exp(2 pi i u2): steering (2L), gains (2),
    the strict lower triangles, row by row, of the noise factors A_s, A_r
    (L (L - 1) / 2 each) and of the joint factor A (L (2L + 1)). The next
    words are Exp(1) terms -log u, summed in runs into the Gamma variates
    on the diagonals (as squares): dof - k for row k of A_s, then of A_r,
    and N - k for row k of A; W is rounded up to a multiple of 4. The
    steering vectors are the first 2L normals, one row of L per channel,
    each divided by its norm.

    The noise factors are B_i = sqrt(c_i / dof) A_i, with c_i the SNR factor
    of Sigma_i = A_i A_i^H / dof. With
    F = [h, blockdiag(B_s, B_r)], h = [a_s u_s; a_r u_r] and
    a_s u_s zeroed under H0, the sample covariance is (F A)(F A)^H / N.
    """
    L, N, dof = cfg.L, cfg.N, cfg.dof
    p = 2 * L + 1
    pairs = 2 * L + 2 + L * (L - 1) + L * p
    shapes = [dof - k for k in range(L)] * 2 + [N - k for k in range(p)]
    width = 4 * math.ceil((2 * pairs + sum(shapes)) / 4)
    key = np.array([cfg.seed, HYPOTHESES.index(hypothesis)], dtype=np.uint64)
    words = np.random.Philox(counter=index * width // 4, key=key).random_raw(width)
    u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    z = np.sqrt(-np.log(u[0 : 2 * pairs : 2])) * np.exp(2j * np.pi * u[1 : 2 * pairs : 2])
    logs = np.log(u[2 * pairs :])
    ends = np.cumsum(shapes)
    gamma = np.array(
        [-np.add.reduceat(logs[e - k : e], [0])[0] if k else 0.0 for k, e in zip(shapes, ends)]
    )
    z_steer, gains, z_s, z_r, z_joint = np.split(z, np.cumsum([2 * L, 2, L * (L - 1) // 2, L * (L - 1) // 2]))
    v = z_steer.reshape(2, L)
    steering = SteeringPair(*(v / np.linalg.norm(v, axis=-1, keepdims=True)))
    f = np.zeros((2 * L, p), dtype=complex)
    for k, (z_k, gain, snr_db, u_k) in enumerate(
        ((z_s, gains[0], cfg.snr_s_db, steering.u_s), (z_r, gains[1], cfg.snr_r_db, steering.u_r))
    ):
        a_k = bartlett_factor(z_k, gamma[k * L : (k + 1) * L])
        trace = np.sum(a_k.real**2 + a_k.imag**2) / dof
        scale = 1.0 / dof * _snr_factor(trace, gain, snr_db)
        f[k * L : (k + 1) * L, 1 + k * L : 1 + (k + 1) * L] = a_k * np.sqrt(scale)
        if k == 1 or hypothesis == "H1":
            f[k * L : (k + 1) * L, 0] = gain * u_k
    a = bartlett_factor(z_joint, gamma[2 * L :])
    fa = f[:, 1:] @ a[1:]
    fa[:, 0] += f[:, 0] * a[0, 0]
    return steering, f, block_sample_cov(fa[:L], fa[L:], n=N)


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


def _profile_gradient(
    s: BlockSampleCov,
    u_s: np.ndarray,
    u_r: np.ndarray,
    t_lower: np.ndarray,
) -> np.ndarray:
    """Gradient of _profile_objective in the oracle's parameters of T
    (unpack_cholesky): the logs of its diagonal, then the real and the
    imaginary parts of its strict lower triangle.

    With W = T T^H = R_rr^{-1}, v = W u_r, b = S_sr^H S_ss^{-1} u_s (so
    eta = b^H v), G = S_rr - S_sr^H S_ss^{-1} S_sr (so gap = v^H G v) and
    h = beta_s + |eta|^2 / gap, the differential is Re tr(M dW) with
    M = W^{-1} - S_rr + (2 / (h gap)) conj(eta) u_r b^H
        - (2 |eta|^2 / (h gap^2)) u_r v^H G,
    so with K = T^H (M + M^H) the partials are Re(K_ii T_ii) on the log
    diagonal, Re K_ji on Re T_ij and -Im K_ji on Im T_ij (i > j).
    """
    w = t_lower @ t_lower.conj().T
    v = w @ u_r
    solved = np.linalg.solve(s.s_ss, np.column_stack([u_s, s.s_sr]))  # S_ss^{-1} [u_s, S_sr]
    beta_s = float((np.conj(u_s) @ solved[:, 0]).real)
    b = s.s_sr.conj().T @ solved[:, 0]
    eta = complex(b.conj() @ v)
    g = s.s_rr - s.s_sr.conj().T @ solved[:, 1:]
    vg = v.conj() @ g
    gap = float((vg @ v).real)
    h = beta_s + abs(eta) ** 2 / gap
    m = (
        np.linalg.inv(w)
        - s.s_rr
        + (2.0 / (h * gap)) * np.conj(eta) * np.outer(u_r, b.conj())
        - (2.0 * abs(eta) ** 2 / (h * gap**2)) * np.outer(u_r, vg)
    )
    k = t_lower.conj().T @ (m + m.conj().T)
    rows, cols = _strict_lower(s.num_sensors)
    off = k[cols, rows]
    return np.concatenate([(np.diag(k) * np.diag(t_lower)).real, off.real, -off.imag])


@functools.cache
def _strict_lower(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(dim, k=-1)


def unpack_cholesky(theta: np.ndarray, dim: int) -> np.ndarray:
    """The lower-triangular T of the oracle's L^2 real parameters theta: the
    logs of its positive diagonal, then the real and the imaginary parts of
    its strict lower triangle, in np.tril_indices order."""
    tril_r, tril_c = _strict_lower(dim)
    n_off = tril_r.size
    t = np.zeros((dim, dim), dtype=complex)
    t[np.diag_indices(dim)] = np.exp(theta[:dim])
    t[tril_r, tril_c] = theta[dim : dim + n_off] + 1j * theta[dim + n_off :]
    return t


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
    generic quasi-Newton method, given its analytic gradient, from the
    sample start plus n_restarts random starts. Slow by design; returns the
    best value found.
    """
    u_s = np.asarray(u_s, dtype=complex).reshape(-1)
    u_r = np.asarray(u_r, dtype=complex).reshape(-1)
    dim = s.num_sensors
    tril_r, tril_c = _strict_lower(dim)

    def negobj(theta: np.ndarray) -> tuple[float, np.ndarray]:
        t_lower = unpack_cholesky(theta, dim)
        val = _profile_objective(s, u_s, u_r, t_lower)
        if not math.isfinite(val):
            return 1e12, np.zeros_like(theta)
        return -val, -_profile_gradient(s, u_s, u_r, t_lower)

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
            negobj, theta, method="BFGS", jac=True, options={"gtol": 1e-10, "maxiter": 2000}
        )
        best = max(best, -float(res.fun))
    return math.exp(best)


# The family grid: t = 0 and 41 log-spaced values in [1e-4, 1e6], and the
# projective line v = (cos theta, e^{i phi} sin theta) on 24 x 48 points.
FAMILY_T = np.concatenate([[0.0], np.logspace(-4.0, 6.0, 41)])
FAMILY_THETA = np.linspace(0.0, 0.5 * np.pi, 24)
FAMILY_PHI = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)


def _family_basis(forms):
    """gamma_m's eigenpairs (lam, vec) and the vector g of psi = gamma_m + g g^H
    (up to a phase, which the family absorbs in rho), for one pair of forms."""
    psi, gamma_m = (np.asarray(f, dtype=complex) for f in forms)
    lam, vec = np.linalg.eigh(gamma_m)
    top, g_vec = np.linalg.eigh(hermitize(psi - gamma_m))
    return lam, vec, math.sqrt(max(top[-1], 0.0)) * g_vec[:, -1]


def family_certificate(forms, x: np.ndarray) -> tuple[float, float]:
    """Map a point x into the family x(t, rho) = (I + t gamma_m)^{-1} (e1 + rho g)
    at t = |x|^2 (1/q_gamma - 1/q_psi) and rho = conj(x_1) (g^H x) / q_psi.
    The family holds every stationary point of J: setting J's Wirtinger
    gradient to 0 gives (I + t gamma_m) x = |x|^2 (e1 / conj(x_1) +
    g (g^H x) / q_psi), with these t and rho. Returns the relative
    least-squares residual of x against x(t, rho), up to a complex scale,
    and J at x(t, rho)."""
    psi, gamma_m = (np.asarray(f, dtype=complex) for f in forms)
    x = np.asarray(x, dtype=complex)
    lam, vec, g = _family_basis(forms)
    q_psi, q_gamma = (np.vdot(x, f @ x).real for f in (psi, gamma_m))
    t = np.vdot(x, x).real * (1.0 / q_gamma - 1.0 / q_psi)
    rho = np.conj(x[0]) * np.vdot(g, x) / q_psi
    fam = vec @ ((vec.conj().T @ (np.eye(1, len(lam), dtype=complex)[0] + rho * g)) / (1.0 + t * lam))
    scale = np.vdot(fam, x) / np.vdot(fam, fam)
    return float(np.linalg.norm(x - scale * fam) / np.linalg.norm(x)), cost_j(fam, forms)


def family_grid_oracle(forms) -> tuple[float, OptimResult]:
    """A deterministic search for the global maximum of J on one pair of
    forms: J on the family grid (FAMILY_T x FAMILY_THETA x FAMILY_PHI), in
    gamma_m's eigenbasis, then one maximize_j from the best grid point.

    At a grid point x = V z with z = p_t v_1 + q_t v_2, where V holds
    gamma_m's eigenvectors, p_t = (1 + t lam)^{-1} V^H e1 and
    q_t = (1 + t lam)^{-1} V^H g. Returns the best grid value of J and the
    ascent from it."""
    lam, vec, g = _family_basis(forms)
    g_eig = vec.conj().T @ g
    scale = 1.0 / (1.0 + FAMILY_T[:, None] * lam)  # (t, L)
    p, q = scale * vec[0].conj(), scale * g_eig
    theta, phi = np.meshgrid(FAMILY_THETA, FAMILY_PHI, indexing="ij")
    v1, v2 = np.cos(theta).ravel(), (np.exp(1j * phi) * np.sin(theta)).ravel()
    z = p[:, None, :] * v1[None, :, None] + q[:, None, :] * v2[None, :, None]  # (t, v, L)
    az = np.abs(z) ** 2
    q_gamma = az @ lam
    x_1 = z @ vec[0]
    g_x = z @ g_eig.conj()
    with np.errstate(divide="ignore"):
        j = np.log(np.abs(x_1) ** 2 / az.sum(axis=-1)) + np.log((q_gamma + np.abs(g_x) ** 2) / q_gamma)
    best = np.unravel_index(np.argmax(j), j.shape)
    return float(j[best]), maximize_j(forms, vec @ z[best])


def write_csv(path, header, rows) -> None:
    """Write a table one row at a time with csv.writer's default dialect.
    A string cell is written as it is, any other as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(float(c)) for c in row] for row in rows)


def masked_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack a (n, n, T), stacked along the last
    axis, in place, and whether each row's pivots are all positive and
    finite: a row whose pivot fails gets the dummy pivot 1 and a zero
    column from there on, so the other rows go on alone."""
    ok = np.ones(a.shape[-1], dtype=bool)
    for j in range(len(a)):
        ok &= (a[j, j] > 0.0) & (a[j, j] < math.inf)
        if ok.all():  # no row to mask
            np.sqrt(a[j, j], out=a[j, j])
            a[j + 1 :, j] /= a[j, j]
        elif ok.any():
            a[j, j] = np.sqrt(np.where(ok, a[j, j], 1.0))
            a[j + 1 :, j] = np.where(ok, a[j + 1 :, j] / a[j, j], 0.0)
        else:
            break
        col = a[j + 1 :, j]
        a[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    return a, ok


def glr_by_eigvalsh(forms) -> tuple[np.ndarray, dict[int, str]]:
    """The exact statistic of each trial of stacked forms (psi, gamma_m),
    (T, L, L), with every trial's gamma_m validated by eigvalsh: a smallest
    eigenvalue at or below COHERENCE_FLOOR fails the trial with the
    detector's message, a NaN one leaves it unscored (nan), and the others
    ascend from e1. Returns the statistics and the error messages by trial."""
    psi, gamma_m = forms
    gap = np.linalg.eigvalsh(gamma_m)[:, 0]
    errors = {
        i: f"the channels are fully coherent: I - C^H C has eigenvalue {gap[i]:.3e} <= {COHERENCE_FLOOR:.3e}"
        for i in np.flatnonzero(gap <= COHERENCE_FLOOR).tolist()
    }
    valid = np.flatnonzero(gap > COHERENCE_FLOOR)
    stats = np.full(len(gap), np.nan)
    if valid.size:
        start = np.broadcast_to(np.eye(1, psi.shape[-1], dtype=complex), (valid.size, psi.shape[-1]))
        with np.errstate(over="ignore"):
            stats[valid] = np.exp(ascend(_chart_forms((psi[valid], gamma_m[valid])), start).j_value)
    return stats, errors


def ascend_one_row(forms, x0: np.ndarray):
    """One surface's trust-region ascent from x0 as a plain loop over its
    passes, on stacks of one of the optimizer's own evaluators and solver
    (which give a row the same bits in a stack of any size), with the
    optimizer's constants as they are at the call. Returns x_hat (canonical),
    the J after the start and each step, the steps taken and the stop
    reason."""
    m, m_free = _chart_forms([np.asarray(f, dtype=complex)[None] for f in forms])
    u = optimizer._chart_point(np.asarray(x0, dtype=complex)[None])
    f, mu, q = optimizer._chart_value(m, u)
    grad, hess = optimizer._chart_derivatives(m_free, mu, q)
    radius, steps, trace = optimizer.INITIAL_RADIUS, 0, [float(f[0])]
    while True:
        p, pred = optimizer.solve_subproblem(grad, hess, np.array([radius]))
        gnorm = np.sqrt((grad * grad).sum(axis=-1))[0]
        if radius < optimizer.MIN_RADIUS:
            reason = "radius"
        elif steps >= optimizer.MAX_ITER:
            reason = "max_iter"
        elif gnorm <= optimizer.GRAD_TOL or pred[0] <= optimizer._GAIN_RTOL * (1.0 + abs(f[0])):
            reason = "gradient"
        else:
            reason = None
        if reason is not None:
            dim = (u.shape[1] + 1) // 2
            x = u[:, :dim].astype(complex)
            x[:, 1:] += 1j * u[:, dim:]
            return optimizer._canonicalize(x)[0], trace, steps, reason
        steps += 1
        step_norm = np.sqrt((p * p).sum(axis=-1))[0]
        u_new = u.copy()
        u_new[:, 1:] += p
        f_new, mu, q = optimizer._chart_value(m, u_new)
        ratio = (f_new[0] - f[0]) / pred[0]
        if f_new[0] > f[0] and ratio >= optimizer.ACCEPT_RATIO:
            u, f = u_new, f_new
            grad, hess = optimizer._chart_derivatives(m_free, mu, q)
            if ratio > 0.75 and step_norm >= 0.9 * radius:
                radius = 2.0 * radius
            elif ratio < 0.25:
                radius = 0.5 * radius
        else:
            radius = 0.25 * min(radius, step_norm)
        trace.append(float(f[0]))
