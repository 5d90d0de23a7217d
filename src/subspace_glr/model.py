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

synth_batch builds a stack of trials from counter-addressed Philox words.
The trials of one hypothesis share the key (seed, hypothesis code), and
trial i reads the raw 64-bit words [i W, (i + 1) W) of that stream, where
the trial width W is fixed by (L, N, dof) and holds every purpose at a
fixed offset (see trial_width). Every variate is a fixed number of words,
so a trial's draws do not depend on which block it is drawn in. The
per-trial oracle it matches bit for bit reads one trial's words by its
counter; it is the test-only draw_trial in tests/_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from ._linalg import adjoint, cholesky_pd, hermitize

HYPOTHESES = ("H0", "H1")

STEERING_MODES = ("random-unit", "ula-random-doa")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, path...) key, seeded through a
    SeedSequence.

    It draws the optimizer's restart starts, which are not Monte Carlo
    streams; trials are drawn by synth_batch from counter-addressed words.
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


def _snr_factor(sigma: np.ndarray, gain, sigma_x2: float, snr_db) -> np.ndarray:
    """The factors c that make c * sigma meet the per-channel SNR
    10*log10(sigma_x2 * |gain|^2 / tr(c * sigma)) = snr_db, stacked over the
    leading axes of sigma (..., L, L), gain and snr_db. The steering vector
    has unit norm, so it contributes no power factor."""
    gain = np.asarray(gain)
    power = float(sigma_x2) * (gain.real**2 + gain.imag**2)  # no hypot: same bits stacked or not
    if np.any(power <= 0.0):
        raise ValueError("degenerate channel: sigma_x2 * |gain|^2 must be positive")
    trace = np.trace(sigma, axis1=-2, axis2=-1).real
    if np.any(trace <= 0.0):
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


def trial_width(cfg: ScenarioConfig) -> int:
    """W, the raw 64-bit Philox words one trial reads, in this order:
    steering (4L; the ULA angles are its first two words), gains (4),
    Wishart factors (4 L dof), signal (2N) and noise (4 L N). W is rounded
    up to a multiple of 4, Philox's words per counter step, so trial i
    starts at counter i W / 4."""
    L, N, dof = cfg.L, cfg.N, cfg.dof
    used = 4 * L + 4 + 4 * L * dof + 2 * N + 4 * L * N
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


def synth_batch(
    cfg: ScenarioConfig, steering_mode: str, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize a stack of trials, given as (hypothesis, trial index) pairs.

    Returns (u_s, u_r, y_s, y_r) of shapes (T, L), (T, L), (T, L, N) and
    (T, L, N). Each trial draws a steering pair, CN(0, 1) gains a_s, a_r,
    and noise covariances G G^H / dof (complex Wishart, identity scale)
    rescaled to the SNR targets unless sigma_x2 = 0. Its W words (see
    trial_width) sit at counter i W / 4 of the Philox stream keyed by
    (seed, hypothesis code), so each run of consecutive indices of one
    hypothesis is one random_raw read, and a trial gets the same numbers
    in any block, alone included. Everything after the read runs on the
    stack: the uniforms, the complex normals, the steering norms, the SNR
    factors, the Cholesky colouring and the H0/H1 mask. A noise covariance
    that is not positive definite fails the stacked Cholesky
    factorization, which raises ValueError for the whole block.
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
    count, dim, snaps, dof = len(trials), cfg.L, cfg.N, cfg.dof
    width = trial_width(cfg)
    cuts = np.flatnonzero((np.diff(h1) != 0) | (np.diff(index) != 1)) + 1
    runs = []
    for first, stop in zip([0, *cuts], [*cuts, count]):
        bitgen = np.random.Philox(key=np.array([cfg.seed, h1[first]], dtype=np.uint64))
        bitgen.advance(int(index[first]) * width // 4)
        runs.append(bitgen.random_raw((stop - first) * width))
    u = _uniforms(runs[0] if len(runs) == 1 else np.concatenate(runs)).reshape(count, width)
    del runs
    z_steer, gains, g, x, z_noise, _ = np.split(
        _complex_normals(u), np.cumsum([2 * dim, 2, 2 * dim * dof, snaps, 2 * dim * snaps]), axis=1
    )
    if steering_mode == "random-unit":
        v = z_steer.reshape(count, 2, dim)
        steering = v / np.linalg.norm(v, axis=-1, keepdims=True)
    else:
        steering = ula_steering(dim, -np.pi / 2 + np.pi * u[:, :2])
    del u
    g = g.reshape(count, 2, dim, dof)
    x = math.sqrt(cfg.sigma_x2) * x
    z_noise = z_noise.reshape(count, 2, dim, snaps)
    sigma = hermitize(g @ adjoint(g) / dof)
    if cfg.sigma_x2 > 0:
        snrs = np.array([cfg.snr_s_db, cfg.snr_r_db])
        sigma *= _snr_factor(sigma, gains, cfg.sigma_x2, snrs)[:, :, None, None]
    noise = cholesky_pd(sigma, name="noise covariance") @ z_noise
    signal = gains[:, :, None, None] * (steering[:, :, :, None] * x[:, None, None, :])
    y_r = signal[:, 1] + noise[:, 1]
    y_s = np.where(h1[:, None, None], signal[:, 0] + noise[:, 0], noise[:, 0])
    return steering[:, 0], steering[:, 1], y_s, y_r
