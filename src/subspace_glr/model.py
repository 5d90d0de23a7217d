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
whether the surveillance channel carries it too. No statistic, and not the
law of the drawn noise, changes when one unitary rotates a channel's data
and steering vector, so random unit steering pairs stand for every pair.

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
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .covariance import BlockSampleCov, block_sample_cov

HYPOTHESES = ("H0", "H1")


def _snr_factor(trace, gain, snr_db) -> np.ndarray:
    """The factors c that make c * sigma meet the per-channel SNR
    10*log10(|gain|^2 / tr(c * sigma)) = snr_db, given trace = tr(sigma)
    and stacked over the leading axes of trace, gain and snr_db. The
    waveform has unit power and the steering vector unit norm, so neither
    contributes a power factor; the detectors are scale-invariant, so a
    signal power other than 1 would only rescale S."""
    gain = np.asarray(gain)
    power = gain.real**2 + gain.imag**2  # no hypot: same bits stacked or not
    if np.any(power <= 0.0):
        raise ValueError("degenerate channel: |gain|^2 must be positive")
    if np.any(np.asarray(trace) <= 0.0):
        raise ValueError("noise covariance has nonpositive trace")
    target_trace = power * 10.0 ** (-np.asarray(snr_db, dtype=float) / 10.0)
    return target_trace / trace


def _check_integers(cfg, *names: str) -> None:
    """Reject a config whose named fields are not integers (Python or numpy,
    not bool or None), naming the field, and store each as an int."""
    for name in names:
        value = getattr(cfg, name)
        try:
            setattr(cfg, name, operator.index(value if not isinstance(value, bool) else None))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a Python float if it is a real number (Python or numpy, not
    bool), else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None


def _check_reals(cfg, *names: str) -> None:
    """Reject a config whose named fields are not finite real numbers,
    naming the field, and store each as a Python float."""
    for name in names:
        setattr(cfg, name, _real(name, getattr(cfg, name)))
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite, got {getattr(cfg, name)}")


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


@dataclass
class ScenarioConfig:
    """Dimensions, SNRs, and channel-draw settings for one scenario.

    wishart_dof = None resolves to 2 * L (mean-identity Wishart, comfortably
    full rank). The waveform has unit power: the SNR targets fix the noise
    level against it.
    """

    L: int  # sensors per array
    N: int  # snapshots
    snr_s_db: float
    snr_r_db: float
    wishart_dof: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, "L", "N", "seed")
        if self.wishart_dof is not None:
            _check_integers(self, "wishart_dof")
        _check_reals(self, "snr_s_db", "snr_r_db")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.N < 2 * self.L:
            raise ValueError(f"N must be >= 2*L for invertible sample blocks, got N={self.N}, L={self.L}")
        if self.wishart_dof is not None and self.wishart_dof < self.L:
            raise ValueError(f"wishart_dof must be >= L, got {self.wishart_dof} < {self.L}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a u64, got {self.seed}")

    @property
    def dof(self) -> int:
        return self.wishart_dof if self.wishart_dof is not None else 2 * self.L


@dataclass
class SnapshotData:
    """A batch of simultaneous snapshots from the two channels: L x N
    matrices y_s, y_r."""

    y_s: np.ndarray
    y_r: np.ndarray

    def __post_init__(self) -> None:
        self.y_s = np.asarray(self.y_s, dtype=complex)
        self.y_r = np.asarray(self.y_r, dtype=complex)
        if self.y_s.ndim != 2 or self.y_r.ndim != 2:
            raise ValueError("snapshot arrays must be L x N matrices")
        if self.y_s.shape != self.y_r.shape:
            raise ValueError(f"channel shapes differ: {self.y_s.shape} vs {self.y_r.shape}")

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
    pairs of its complex normals: steering (2L), gains (2), the strict lower
    triangles of the two noise factors (L (L - 1) / 2 each) and of the joint
    factor (L (2L + 1)). Then one word per Exp(1) term of the Gamma variates
    on the factors' diagonals: shapes dof - k (k < L) for each noise factor
    and N - k (k <= 2L) for the joint one (see draw_sample_cov). W is rounded
    up to a multiple of 4, Philox's words per counter step, so trial i
    starts at counter i W / 4."""
    normals, shapes = _layout(cfg)
    used = 2 * normals + int(shapes.sum())
    return -(-used // 4) * 4


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
    cfg: ScenarioConfig, trials: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, BlockSampleCov]:
    """Draw the sample covariances of a stack of trials, given as
    (hypothesis, trial index) pairs, without their snapshots.

    Returns (u_s, u_r, s): steering vectors of shape (T, L) and a
    BlockSampleCov of (T, L, L) blocks averaged over N snapshots. Each trial
    draws a uniformly random unit steering pair, CN(0, 1) gains a_s, a_r
    and noise covariances Sigma_i = B_i B_i^H, with B_i the Bartlett factor
    of a complex Wishart CW_L(dof, I) / dof, rescaled to the SNR targets. A
    snapshot is y = F w with w ~ CN(0, I) of size 2L + 1, where
    F = [h, blockdiag(B_s, B_r)] and h = [a_s u_s; a_r u_r],
    with a_s u_s zeroed under H0. So N S = F V F^H with V ~ CW_{2L+1}(N, I),
    and S is drawn as (F A)(F A)^H / N from the Bartlett factor A of V. At
    N = 2L the last diagonal entry of A is 0: V is then singular, as a
    Wishart of fewer degrees of freedom than its dimension is.

    The trial's W words (see trial_width) sit at counter i W / 4 of the
    Philox stream keyed by (seed, hypothesis code), so each run of
    consecutive indices of one hypothesis is one read, straight into its
    rows of the block's uniforms u = ((w >> 11) + 1) 2^-53 in (0, 1], one
    per word w; a trial gets the same numbers in any block, alone included.
    Everything after the read runs on the stack. Nothing is factorized, so
    no drawn trial can fail for want of a positive definite matrix.
    """
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
    u = np.empty((count, width))
    for first, stop in zip([0, *cuts], [*cuts, count]):
        bitgen = np.random.Philox(key=np.array([cfg.seed, h1[first]], dtype=np.uint64))
        bitgen.advance(int(index[first]) * width // 4)
        np.random.Generator(bitgen).random(out=u[first:stop])  # (w >> 11) 2^-53 per word w
    u += 2.0**-53  # exact: u = ((w >> 11) + 1) 2^-53 in (0, 1]
    z_steer, gains, z_noise, z_joint = np.split(
        _complex_normals(u[:, : 2 * normals]), np.cumsum([2 * dim, 2, dim * (dim - 1)]), axis=1
    )
    gamma = _gammas(u[:, 2 * normals : 2 * normals + shapes.sum()], shapes)
    v = z_steer.reshape(count, 2, dim)
    steering = v / np.linalg.norm(v, axis=-1, keepdims=True)
    del u
    b = _bartlett(z_noise.reshape(count, 2, -1), gamma[:, : 2 * dim].reshape(count, 2, dim))
    scale = np.full((count, 2), 1.0 / dof)  # Sigma_i = scale_i A_i A_i^H
    trace = np.sum(b.real**2 + b.imag**2, axis=(-2, -1)) / dof
    scale *= _snr_factor(trace, gains, np.array([cfg.snr_s_db, cfg.snr_r_db]))
    b *= np.sqrt(scale)[:, :, None, None]
    h = gains[:, :, None] * steering
    h[~h1, 0] = 0.0
    a = _bartlett(z_joint, gamma[:, 2 * dim :])
    g = b @ a[:, 1:].reshape(count, 2, dim, -1)
    g[..., 0] += h * a[:, 0, 0, None, None]  # A's first row is a_00 e_1
    return steering[:, 0], steering[:, 1], block_sample_cov(g[:, 0], g[:, 1], n=cfg.N)
