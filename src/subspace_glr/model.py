"""Scene model and Monte Carlo draws for the two-array detection problem.

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

Every statistic is a function of the sample covariance S, and under this
model N S is complex Wishart, so the Monte Carlo harness draws S directly
(draw_sample_cov), never the snapshots. The trials of one hypothesis share
the Philox key (seed, hypothesis code), and trial i reads the raw 64-bit
words [i W, (i + 1) W) of that stream, where the trial width W is fixed by
(L, N, dof) and holds every variate at a fixed offset (see trial_width).
Every variate is a fixed number of words, so a trial's draws do not depend
on which block it is drawn in. The per-trial oracle it matches bit for bit
reads one trial's words by its counter (draw_cov_trial in
tests/_reference.py); the snapshot route it matches in distribution is
synth_batch there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .covariance import BlockSampleCov, block_sample_cov

HYPOTHESES = ("H0", "H1")

STEERING_MODES = ("random-unit", "ula-random-doa")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, path...) key, seeded through a
    SeedSequence.

    It draws the optimizer's restart starts, which are not Monte Carlo
    streams; trials are drawn by draw_sample_cov from counter-addressed
    words.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a u64, got {seed}")
    key = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


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


def _snr_factor(trace, gain, sigma_x2: float, snr_db) -> np.ndarray:
    """The factors c that make c * sigma meet the per-channel SNR
    10*log10(sigma_x2 * |gain|^2 / tr(c * sigma)) = snr_db, given
    trace = tr(sigma) and stacked over the leading axes of trace, gain and
    snr_db. The steering vector has unit norm, so it contributes no power
    factor."""
    gain = np.asarray(gain)
    power = float(sigma_x2) * (gain.real**2 + gain.imag**2)  # no hypot: same bits stacked or not
    if np.any(power <= 0.0):
        raise ValueError("degenerate channel: sigma_x2 * |gain|^2 must be positive")
    if np.any(np.asarray(trace) <= 0.0):
        raise ValueError("noise covariance has nonpositive trace")
    target_trace = power * 10.0 ** (-np.asarray(snr_db, dtype=float) / 10.0)
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
        for name in ("snr_s_db", "snr_r_db", "sigma_x2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _layout(cfg: ScenarioConfig) -> tuple[int, np.ndarray]:
    """The complex normals one trial draws and the shapes of its Gamma
    variates (see trial_width)."""
    L, N, dof = cfg.L, cfg.N, cfg.dof
    normals = 2 * L + 2 + L * (L - 1) + L * (2 * L + 1)
    shapes = np.concatenate([np.tile(dof - np.arange(L), 2), N - np.arange(2 * L + 1)])
    return normals, shapes


def trial_width(cfg: ScenarioConfig) -> int:
    """W, the raw 64-bit Philox words one trial reads. First come the word
    pairs of its complex normals: steering (2L; the ULA angles are its first
    two words), gains (2), the strict lower triangles of the two noise
    factors (L (L - 1) / 2 each) and of the joint factor (L (2L + 1)). Then
    one word per Exp(1) term of the Gamma variates on the factors'
    diagonals: shapes dof - k (k < L) for each noise factor and N - k
    (k <= 2L) for the joint one (see draw_sample_cov). W is rounded up to a
    multiple of 4, Philox's words per counter step, so trial i starts at
    counter i W / 4."""
    normals, shapes = _layout(cfg)
    used = 2 * normals + int(shapes.sum())
    return -(-used // 4) * 4


def _uniforms(words: np.ndarray) -> np.ndarray:
    """u = ((w >> 11) + 1) * 2^-53 in (0, 1] from raw words w, which it
    overwrites. The 53 bits fill a double's mantissa, so u is exact."""
    words >>= np.uint64(11)
    words += np.uint64(1)
    u = words.view(np.int64).astype(float)  # below 2^53: exact, and faster than from uint64
    u *= 2.0**-53
    return u


def _complex_normals(u: np.ndarray) -> np.ndarray:
    """CN(0, 1) variates sqrt(-log u1) * exp(2 pi i u2) from the word pairs
    (u1, u2) along the last axis of u: the radius squared is Exp(1) and the
    phase is uniform (Box-Muller)."""
    radius = np.log(u[..., 0::2])
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    angle = (2.0 * np.pi) * u[..., 1::2]
    z = np.empty(angle.shape, dtype=complex)
    np.multiply(radius, np.cos(angle), out=z.real)
    np.multiply(radius, np.sin(angle, out=angle), out=z.imag)
    return z


def _gammas(u: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    """Gamma(k) variates, one per shape k, along the last axis of u: each is
    the sum of -log u over its k consecutive uniforms. The logs are summed,
    since a product of many uniforms can underflow. A shape of 0 gives
    exactly 0."""
    out = np.zeros(u.shape[:-1] + shapes.shape)
    pos = shapes > 0
    sums = np.add.reduceat(np.log(u), (np.cumsum(shapes) - shapes)[pos], axis=-1)
    out[..., pos] = np.negative(sums, out=sums)
    return out


def _bartlett(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The lower-triangular Bartlett factor A, (..., p, p), of a complex
    Wishart A A^H ~ CW_p(n, I): the CN(0, 1) variates z, (..., p (p - 1) / 2),
    fill the strict lower triangle row by row, and sqrt(gamma), (..., p) with
    gamma[k] ~ Gamma(n - k), the diagonal (Goodman 1963)."""
    p = gamma.shape[-1]
    a = np.zeros(gamma.shape + (p,), dtype=complex)
    rows, cols = np.tril_indices(p, -1)
    a[..., rows, cols] = z
    a[..., range(p), range(p)] = np.sqrt(gamma)
    return a


def draw_sample_cov(
    cfg: ScenarioConfig, steering_mode: str, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, BlockSampleCov]:
    """Draw the sample covariances of a stack of trials, given as
    (hypothesis, trial index) pairs, without their snapshots.

    Returns (u_s, u_r, s): steering vectors of shape (T, L) and a
    BlockSampleCov of (T, L, L) blocks averaged over N snapshots. Each trial
    draws a steering pair, CN(0, 1) gains a_s, a_r and noise covariances
    Sigma_i = B_i B_i^H, with B_i the Bartlett factor of a complex Wishart
    CW_L(dof, I) / dof, rescaled to the SNR targets unless sigma_x2 = 0. A
    snapshot is y = F w with w ~ CN(0, I) of size 2L + 1, where
    F = [h, blockdiag(B_s, B_r)] and h = sqrt(sigma_x2) [a_s u_s; a_r u_r],
    with a_s u_s zeroed under H0. So N S = F V F^H with V ~ CW_{2L+1}(N, I),
    and S is drawn as (F A)(F A)^H / N from the Bartlett factor A of V. At
    N = 2L the last diagonal entry of A is 0: V is then singular, as a
    Wishart of fewer degrees of freedom than its dimension is.

    The trial's W words (see trial_width) sit at counter i W / 4 of the
    Philox stream keyed by (seed, hypothesis code), so each run of
    consecutive indices of one hypothesis is one random_raw read, and a
    trial gets the same numbers in any block, alone included. Everything
    after the read runs on the stack. Nothing is factorized, so no drawn
    trial can fail for want of a positive definite matrix.
    """
    if steering_mode not in STEERING_MODES:
        raise ValueError(f"unknown steering mode {steering_mode!r}; expected one of {STEERING_MODES}")
    hypothesis, index = (np.asarray(col) for col in zip(*trials))
    h1 = hypothesis == "H1"
    known = h1 | (hypothesis == "H0")
    if not np.all(known):
        bad = trials[np.flatnonzero(~known)[0]][0]
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {bad!r}")
    if np.any(index < 0):
        raise ValueError(f"trial indices must be >= 0, got {index.min()}")
    count, dim, dof = len(trials), cfg.L, cfg.dof
    width = trial_width(cfg)
    normals, shapes = _layout(cfg)
    cuts = np.flatnonzero((np.diff(h1) != 0) | (np.diff(index) != 1)) + 1
    runs = []
    for first, stop in zip([0, *cuts], [*cuts, count]):
        bitgen = np.random.Philox(key=np.array([cfg.seed, h1[first]], dtype=np.uint64))
        bitgen.advance(int(index[first]) * width // 4)
        runs.append(bitgen.random_raw((stop - first) * width))
    u = _uniforms(runs[0] if len(runs) == 1 else np.concatenate(runs)).reshape(count, width)
    del runs
    z_steer, gains, z_noise, z_joint = np.split(
        _complex_normals(u[:, : 2 * normals]), np.cumsum([2 * dim, 2, dim * (dim - 1)]), axis=1
    )
    gamma = _gammas(u[:, 2 * normals : 2 * normals + shapes.sum()], shapes)
    if steering_mode == "random-unit":
        v = z_steer.reshape(count, 2, dim)
        steering = v / np.linalg.norm(v, axis=-1, keepdims=True)
    else:
        steering = ula_steering(dim, -np.pi / 2 + np.pi * u[:, :2])
    del u
    b = _bartlett(z_noise.reshape(count, 2, -1), gamma[:, : 2 * dim].reshape(count, 2, dim))
    scale = np.full((count, 2), 1.0 / dof)  # Sigma_i = scale_i A_i A_i^H
    if cfg.sigma_x2 > 0:
        trace = np.sum(b.real**2 + b.imag**2, axis=(-2, -1)) / dof
        scale *= _snr_factor(trace, gains, cfg.sigma_x2, np.array([cfg.snr_s_db, cfg.snr_r_db]))
    b *= np.sqrt(scale)[:, :, None, None]
    h = math.sqrt(cfg.sigma_x2) * gains[:, :, None] * steering
    h[~h1, 0] = 0.0
    a = _bartlett(z_joint, gamma[:, 2 * dim :])
    g = b @ a[:, 1:].reshape(count, 2, dim, -1)
    g[..., 0] += h * a[:, 0, 0, None, None]  # A's first row is a_00 e_1
    return steering[:, 0], steering[:, 1], block_sample_cov(g[:, 0], g[:, 1], n=cfg.N)
