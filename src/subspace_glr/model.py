"""Scene model and snapshot synthesis for the two-array detection problem.

A single far-field emitter transmits an unknown waveform x[n]. Two arrays of
L sensors each (the "s" surveillance channel and the "r" reference channel)
observe rank-one signatures of that waveform in colored Gaussian noise:

    under H1:  y_s[n] = a_s u_s x[n] + n_s[n],   y_r[n] = a_r u_r x[n] + n_r[n]
    under H0:  y_s[n] =              n_s[n],     y_r[n] = a_r u_r x[n] + n_r[n]

u_s, u_r are known unit-norm steering vectors, a_s, a_r unknown complex
gains, and n_s, n_r zero-mean circular Gaussian with unknown covariances
Sigma_ss, Sigma_rr (independent across channels and snapshots). The
reference channel carries the signal under both hypotheses; the test is
whether the surveillance channel carries it too.

draw_steering, draw_channel and synth_snapshots build one trial; synth_batch
builds a stack of trials from the same substreams with the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import adjoint, check_hermitian, hermitize, min_eig_herm

HYPOTHESES = ("H0", "H1")

# Sub-stream purposes for seed derivation; see substream().
STREAM_STEERING = 0
STREAM_GAINS = 1
STREAM_NOISE_COV = 2
STREAM_SNAPSHOTS = 3

STEERING_MODES = ("random-unit", "ula-random-doa")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, path...) key.

    Every random draw in the harness comes from a stream keyed by the run
    seed plus a small integer path (hypothesis code, trial index, purpose).
    Streams are independent of draw order elsewhere and of worker count,
    which is what makes reruns byte-identical.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a u64, got {seed}")
    key = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def ula_steering(num_sensors: int, theta: float) -> np.ndarray:
    """Unit-norm steering vector of a half-wavelength ULA at angle theta.

    Element l (zero-based) is exp(j*pi*l*sin(theta)) / sqrt(L).
    """
    if num_sensors < 1:
        raise ValueError(f"num_sensors must be >= 1, got {num_sensors}")
    l_idx = np.arange(num_sensors)
    return np.exp(1j * np.pi * l_idx * math.sin(theta)) / math.sqrt(num_sensors)


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
    g = _cn_matrix(rng, num_sensors, dof)
    return hermitize(g @ g.conj().T / dof)


def scale_noise_to_snr(
    sigma: np.ndarray, gain: complex, sigma_x2: float, snr_db: float
) -> np.ndarray:
    """Rescale a noise covariance so the per-channel SNR hits a target.

    SNR is defined as 10*log10(sigma_x2 * |gain|^2 / tr(Sigma)); the steering
    vector has unit norm so it contributes no power factor. Returns c * sigma
    with c chosen to meet snr_db exactly.
    """
    return sigma * _snr_factor(sigma, gain, sigma_x2, snr_db)


def _snr_factor(sigma: np.ndarray, gain: complex, sigma_x2: float, snr_db: float) -> float:
    """The factor c of scale_noise_to_snr, as a Python scalar."""
    power = float(sigma_x2) * abs(gain) ** 2
    if power <= 0.0:
        raise ValueError("degenerate channel: sigma_x2 * |gain|^2 must be positive")
    trace = float(np.trace(sigma).real)
    if trace <= 0.0:
        raise ValueError("noise covariance has nonpositive trace")
    target_trace = power * 10.0 ** (-snr_db / 10.0)
    return target_trace / trace


@dataclass
class SteeringPair:
    """Known unit-norm steering vectors for the two channels."""

    u_s: np.ndarray
    u_r: np.ndarray

    def __post_init__(self) -> None:
        self.u_s = np.asarray(self.u_s, dtype=complex).reshape(-1)
        self.u_r = np.asarray(self.u_r, dtype=complex).reshape(-1)
        if self.u_s.shape != self.u_r.shape:
            raise ValueError(
                f"steering vectors differ in length: {self.u_s.size} vs {self.u_r.size}"
            )
        for name, u in (("u_s", self.u_s), ("u_r", self.u_r)):
            err = abs(np.linalg.norm(u) - 1.0)
            if err > 1e-12:
                raise ValueError(f"{name} is not unit norm (|norm - 1| = {err:.3e})")

    @property
    def num_sensors(self) -> int:
        return self.u_s.size

    @classmethod
    def normalized(cls, u_s: np.ndarray, u_r: np.ndarray) -> "SteeringPair":
        """Build a pair from nearly unit vectors, renormalizing exactly."""
        u_s = np.asarray(u_s, dtype=complex).reshape(-1)
        u_r = np.asarray(u_r, dtype=complex).reshape(-1)
        ns, nr = np.linalg.norm(u_s), np.linalg.norm(u_r)
        if ns == 0.0 or nr == 0.0:
            raise ValueError("steering vector has zero norm")
        return cls(u_s / ns, u_r / nr)


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
class ScenarioConfig:
    """Dimensions, SNRs, and channel-draw settings for one scenario.

    wishart_dof = None resolves to 2 * L (mean-identity Wishart, comfortably
    full rank). sigma_x2 = 0 is allowed and makes H1 coincide with H0 in
    distribution, which is useful as a harness self-check; SNR targets are
    then ignored since they are undefined at zero signal power.
    """

    L: int  # sensors per array
    N: int  # snapshots
    snr_s_db: float
    snr_r_db: float
    sigma_x2: float = 1.0
    wishart_dof: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.N < 2 * self.L:
            raise ValueError(f"N must be >= 2*L for invertible sample blocks, got N={self.N}, L={self.L}")
        if self.sigma_x2 < 0:
            raise ValueError(f"sigma_x2 must be >= 0, got {self.sigma_x2}")
        if self.wishart_dof is not None and self.wishart_dof < self.L:
            raise ValueError(f"wishart_dof must be >= L, got {self.wishart_dof} < {self.L}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a u64, got {self.seed}")

    @property
    def dof(self) -> int:
        return self.wishart_dof if self.wishart_dof is not None else 2 * self.L


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
    if cfg.sigma_x2 > 0:
        sigma_ss = scale_noise_to_snr(sigma_ss, a_s, cfg.sigma_x2, cfg.snr_s_db)
        sigma_rr = scale_noise_to_snr(sigma_rr, a_r, cfg.sigma_x2, cfg.snr_r_db)
    return ChannelRealization(a_s, a_r, sigma_ss, sigma_rr, cfg.sigma_x2)


@dataclass
class SnapshotData:
    """A batch of simultaneous snapshots from the two channels.

    hypothesis is "H0"/"H1" for synthesized data and "unknown" for data
    loaded from files, where the truth is what the detector must decide.
    """

    y_s: np.ndarray
    y_r: np.ndarray
    hypothesis: str = "unknown"

    def __post_init__(self) -> None:
        self.y_s = np.asarray(self.y_s, dtype=complex)
        self.y_r = np.asarray(self.y_r, dtype=complex)
        if self.y_s.ndim != 2 or self.y_r.ndim != 2:
            raise ValueError("snapshot arrays must be L x N matrices")
        if self.y_s.shape != self.y_r.shape:
            raise ValueError(f"channel shapes differ: {self.y_s.shape} vs {self.y_r.shape}")
        if self.hypothesis not in HYPOTHESES + ("unknown",):
            raise ValueError(f"hypothesis must be H0, H1, or unknown, got {self.hypothesis!r}")

    @property
    def num_sensors(self) -> int:
        return self.y_s.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.y_s.shape[1]


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
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    if steering.num_sensors != cfg.L:
        raise ValueError(f"steering length {steering.num_sensors} != L = {cfg.L}")
    x = math.sqrt(cfg.sigma_x2) * _cn_matrix(rng, cfg.N)
    chol_ss = np.linalg.cholesky(chan.sigma_ss)
    chol_rr = np.linalg.cholesky(chan.sigma_rr)
    n_s = chol_ss @ _cn_matrix(rng, cfg.L, cfg.N)
    n_r = chol_rr @ _cn_matrix(rng, cfg.L, cfg.N)
    y_r = chan.a_r * np.outer(steering.u_r, x) + n_r
    if hypothesis == "H1":
        y_s = chan.a_s * np.outer(steering.u_s, x) + n_s
    else:
        y_s = n_s
    return SnapshotData(y_s, y_r, hypothesis)


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


def synth_batch(
    cfg: ScenarioConfig, steering_mode: str, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize a stack of trials, given as (hypothesis, trial index) pairs.

    Returns (u_s, u_r, y_s, y_r) of shapes (T, L), (T, L), (T, L, N) and
    (T, L, N), equal bit for bit to draw_steering -> draw_channel ->
    synth_snapshots on each trial's substreams. Every stream is read with
    one standard_normal call per trial: its draws are consecutive fills, so
    one call of the combined size returns the same variates, in the same
    order, as the per-trial path's several calls. The steering norms and the SNR factors
    are computed per trial as Python scalars, exactly as there; the Wishart
    products, the positive-definite check, the Cholesky colouring and the
    snapshot assembly run on the stack.
    """
    if steering_mode not in STEERING_MODES:
        raise ValueError(f"unknown steering mode {steering_mode!r}; expected one of {STEERING_MODES}")
    count, dim, snaps, dof = len(trials), cfg.L, cfg.N, cfg.dof
    root2 = math.sqrt(2.0)
    u = np.empty((count, 2, dim), dtype=complex)
    gains = np.empty((count, 2), dtype=complex)
    z_cov = np.empty((count, 2, 2, dim, dof))  # channel, (re, im), L, dof
    z_snap = np.empty((count, 2 * snaps + 4 * dim * snaps))  # x, then noise like z_cov
    for t, (hypothesis, index) in enumerate(trials):
        if hypothesis not in HYPOTHESES:
            raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
        key = (cfg.seed, HYPOTHESES.index(hypothesis), index)
        rng = substream(*key, STREAM_STEERING)
        if steering_mode == "random-unit":
            z = rng.standard_normal((2, 2, dim))  # vector, (re, im), L
            for k in range(2):
                v = (z[k, 0] + 1j * z[k, 1]) / root2
                u[t, k] = v / np.linalg.norm(v)
        else:
            for k, theta in enumerate(rng.uniform(-np.pi / 2, np.pi / 2, size=2)):
                u[t, k] = ula_steering(dim, theta)
        z = substream(*key, STREAM_GAINS).standard_normal((2, 2))  # channel, (re, im)
        gains[t] = (z[:, 0] + 1j * z[:, 1]) / root2
        substream(*key, STREAM_NOISE_COV).standard_normal(out=z_cov[t])
        substream(*key, STREAM_SNAPSHOTS).standard_normal(out=z_snap[t])
    g = (z_cov[:, :, 0] + 1j * z_cov[:, :, 1]) / root2
    sigma = hermitize(g @ adjoint(g) / dof)
    if cfg.sigma_x2 > 0:
        snrs = (cfg.snr_s_db, cfg.snr_r_db)
        factor = np.array([
            [_snr_factor(sigma[t, k], complex(gains[t, k]), cfg.sigma_x2, snrs[k]) for k in range(2)]
            for t in range(count)
        ])
        sigma = sigma * factor[:, :, None, None]
    bad = np.linalg.eigvalsh(sigma)[..., 0] <= 0
    if np.any(bad):
        name = ("sigma_ss", "sigma_rr")[np.argwhere(bad)[0][1]]
        raise ValueError(f"{name} is not positive definite")
    z_noise = z_snap[:, 2 * snaps :].reshape(count, 2, 2, dim, snaps)
    noise = np.linalg.cholesky(sigma) @ ((z_noise[:, :, 0] + 1j * z_noise[:, :, 1]) / root2)
    x = math.sqrt(cfg.sigma_x2) * ((z_snap[:, :snaps] + 1j * z_snap[:, snaps : 2 * snaps]) / root2)
    signal = gains[:, :, None, None] * (u[:, :, :, None] * x[:, None, None, :])
    y_r = signal[:, 1] + noise[:, 1]
    h1 = np.array([hypothesis == "H1" for hypothesis, _ in trials])
    y_s = np.where(h1[:, None, None], signal[:, 0] + noise[:, 0], noise[:, 0])
    return u[:, 0], u[:, 1], y_s, y_r
