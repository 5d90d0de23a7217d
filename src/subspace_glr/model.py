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

synth_batch builds a stack of trials, each from its own substreams. The
per-trial synthesis it matches bit for bit (draw_steering -> draw_channel ->
synth_snapshots) is the test-only reference in tests/_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from ._linalg import adjoint, hermitize

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


def _snr_factor(sigma: np.ndarray, gain: complex, sigma_x2: float, snr_db: float) -> float:
    """The factor c, as a Python scalar, that makes c * sigma meet the
    per-channel SNR 10*log10(sigma_x2 * |gain|^2 / tr(c * sigma)) = snr_db.
    The steering vector has unit norm, so it contributes no power factor."""
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


def synth_batch(
    cfg: ScenarioConfig, steering_mode: str, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize a stack of trials, given as (hypothesis, trial index) pairs.

    Returns (u_s, u_r, y_s, y_r) of shapes (T, L), (T, L), (T, L, N) and
    (T, L, N). Each trial draws, from its own substreams, a steering pair,
    CN(0, 1) gains a_s, a_r, and noise covariances G G^H / dof (complex
    Wishart, identity scale) rescaled to the SNR targets unless sigma_x2 = 0.
    The result equals bit for bit the per-trial reference draw_steering ->
    draw_channel -> synth_snapshots in tests/_reference.py. Every stream is
    read with one standard_normal call per trial: its draws are consecutive
    fills, so one call of the combined size returns the same variates, in
    the same order, as the per-trial path's several calls. The steering
    norms and the SNR factors are computed per trial as Python scalars,
    exactly as there; the Wishart products, the positive-definite check,
    the Cholesky colouring and the snapshot assembly run on the stack.
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
