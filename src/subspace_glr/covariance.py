"""Sample covariance blocks, beamformed data and the exact cost's forms.

Everything downstream of the raw snapshots runs on the partitioned sample
covariance

    S = (1/N) [Y_s; Y_r] [Y_s; Y_r]^H = [[S_ss, S_sr], [S_sr^H, S_rr]]

and on beamformed data from the Cholesky factors S_ii = L_i L_i^H: the
whitened steering vectors a_i = L_i^{-1} u_i (capon_pair) and the coherence
matrix C = L_s^{-1} S_sr L_r^{-H}. The closed forms and the exact cost's
forms (cost_forms) are built from these, with the reference covariance
fixed at R_rr = S_rr.

BlockSampleCov, block_sample_cov, capon_pair, coherence_matrix and
cost_forms take stacks with leading trial axes, which is how the Monte Carlo
harness scores a block of trials at once; sample_cov takes one record. The
harness has no snapshots: it draws S itself (model.draw_sample_cov).

The small Hermitian helpers they use (adjoint, hermitize, check_hermitian,
cholesky_pd, lower_solve, householder) come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import SnapshotData


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2 to scrub rounding asymmetry."""
    out = a + adjoint(a)
    out *= 0.5
    return out


def check_hermitian(a: np.ndarray, tol: float = 1e-10, name: str = "matrix") -> None:
    """Reject a matrix, or any matrix of a (..., L, L) stack, that is not
    Hermitian to tol relative to max(1, its largest entry)."""
    if not a.size:
        return
    dev = np.max(np.abs(a - adjoint(a)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(dev > tol * scale):
        raise ValueError(f"{name} is not Hermitian (deviation {np.max(dev):.3e})")


def cholesky_pd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite matrix, or of
    every matrix in a (..., L, L) stack, with one np.linalg.cholesky call.

    Raises ValueError naming the matrix when it, or any matrix of the
    stack, is not positive definite, so callers surface singular or
    indefinite blocks explicitly instead of producing NaNs downstream. The
    OpenBLAS build numpy ships lets a NaN pivot pass, so a factor whose
    diagonal is not finite is rejected too; a NaN or inf anywhere in the
    lower triangle reaches the diagonal.
    """
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = None
    if low is None or not np.all(np.isfinite(np.diagonal(low, axis1=-2, axis2=-1))):
        raise ValueError(f"{name} is not positive definite")
    return low


def lower_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve low @ x = b by forward substitution, for a lower-triangular low
    with any leading shape and b of shape (..., L, K)."""
    shape = np.broadcast_shapes(low.shape[:-2], b.shape[:-2]) + b.shape[-2:]
    x = np.zeros(shape, dtype=np.result_type(low, b))
    for i in range(low.shape[-1]):
        done = low[..., i : i + 1, :i] @ x[..., :i, :]
        x[..., i, :] = (b[..., i, :] - done[..., 0, :]) / low[..., i, i, None]
    return x


def householder(u: np.ndarray) -> np.ndarray:
    """Householder reflector I - 2 v v^H / |v|^2, v = u + phase(u_0) e1, of a
    unit vector u or of each vector of a (..., L) stack. Its first column is
    a unit phase times u, the rest an orthonormal basis of u's orthocomplement;
    the phase (1 when u_0 = 0) avoids cancellation in v_0."""
    v = np.array(u, dtype=complex)
    v[..., 0] += np.exp(1j * np.angle(v[..., 0]))
    outer = v[..., :, None] * v[..., None, :].conj()
    return np.eye(v.shape[-1]) - 2.0 * outer / np.vecdot(v, v).real[..., None, None]


@dataclass
class BlockSampleCov:
    """Partitioned sample covariance of the stacked two-channel snapshots.

    Attributes
    ----------
    s_ss, s_sr, s_rr : ndarray
        The L x L blocks, or stacks of them of shape (..., L, L). s_ss and
        s_rr are Hermitian; s_sr is the cross-channel block (surveillance
        rows, reference columns).
    n : int
        Number of snapshots averaged. With n >= 2L the full matrix is
        positive definite almost surely; below that it is singular and the
        likelihood-based detectors refuse to run.
    """

    s_ss: np.ndarray
    s_sr: np.ndarray
    s_rr: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.s_ss = np.asarray(self.s_ss, dtype=complex)
        self.s_sr = np.asarray(self.s_sr, dtype=complex)
        self.s_rr = np.asarray(self.s_rr, dtype=complex)
        shape = self.s_ss.shape
        if shape != self.s_rr.shape or shape != self.s_sr.shape or len(shape) < 2 or shape[-1] != shape[-2]:
            raise ValueError("covariance blocks must share one (..., L, L) shape")
        check_hermitian(self.s_ss, 1e-10, "s_ss")
        check_hermitian(self.s_rr, 1e-10, "s_rr")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @classmethod
    def _hermitian(cls, s_ss: np.ndarray, s_sr: np.ndarray, s_rr: np.ndarray, n: int) -> BlockSampleCov:
        """The blocks as given, without __post_init__'s conversions and
        checks, which they pass: complex blocks of one (..., L, L) shape, with
        s_ss and s_rr Hermitian exactly (as hermitize makes them), and n >= 1."""
        s = object.__new__(cls)
        s.s_ss, s.s_sr, s.s_rr, s.n = s_ss, s_sr, s_rr, n
        return s

    @property
    def num_sensors(self) -> int:
        return self.s_ss.shape[-1]

    @property
    def maybe_singular(self) -> bool:
        return self.n < 2 * self.num_sensors

    def full(self) -> np.ndarray:
        """Assemble the 2L x 2L matrix."""
        top = np.concatenate([self.s_ss, self.s_sr], axis=-1)
        bot = np.concatenate([adjoint(self.s_sr), self.s_rr], axis=-1)
        return np.concatenate([top, bot], axis=-2)

    @cached_property
    def chol_ss(self) -> np.ndarray:
        """Lower Cholesky factor L_s of s_ss (one per stacked block), made on first use."""
        return cholesky_pd(self.s_ss, name="s_ss")

    @cached_property
    def chol_rr(self) -> np.ndarray:
        """Lower Cholesky factor L_r of s_rr; see chol_ss."""
        return cholesky_pd(self.s_rr, name="s_rr")


def block_sample_cov(y_s: np.ndarray, y_r: np.ndarray, n: int | None = None) -> BlockSampleCov:
    """Partitioned sample covariance from raw L x N snapshot matrices, or
    from stacks of them of shape (..., L, N). n, the snapshot count the
    products are averaged over, defaults to N; model.draw_sample_cov passes
    square-root factors of N S with other than N columns."""
    y_s = np.asarray(y_s, dtype=complex)
    y_r = np.asarray(y_r, dtype=complex)
    if y_s.shape != y_r.shape or y_s.ndim < 2:
        raise ValueError("y_s and y_r must be L x N matrices of equal shape")
    n = y_s.shape[-1] if n is None else n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s_ss, s_sr, s_rr = (a @ adjoint(b) for a, b in ((y_s, y_s), (y_s, y_r), (y_r, y_r)))
    for block in (s_ss, s_sr, s_rr):
        block /= n
    return BlockSampleCov._hermitian(hermitize(s_ss), s_sr, hermitize(s_rr), n)


def sample_cov(data: SnapshotData) -> BlockSampleCov:
    """Partitioned sample covariance of a snapshot record."""
    return block_sample_cov(data.y_s, data.y_r)


@dataclass
class BeamformerPair:
    """Whitened steering vectors and the whitened beamformers.

    With the Cholesky factor S_ii = L_i L_i^H, a_i = L_i^{-1} u_i is the
    whitened steering vector and beta_i = |a_i|^2 = u_i^H S_ii^{-1} u_i the
    Capon denominator. w_i = a_i / sqrt(beta_i) has unit Euclidean norm; its
    identities with coherence_matrix are those of square-root whitening. No
    statistic needs the distortionless beamformer S_ii^{-1} u_i / beta_i.
    Every field carries the leading trial axes of the covariance.
    """

    a_s: np.ndarray
    a_r: np.ndarray
    beta_s: np.ndarray
    beta_r: np.ndarray
    w_s: np.ndarray
    w_r: np.ndarray


def capon_pair(s: BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray) -> BeamformerPair:
    """Whiten the steering vectors with the Cholesky factors of the diagonal
    blocks and build the beamformer pair (see BeamformerPair). u_s and u_r
    are (..., L), one vector per covariance of a stack or one for all."""
    out = []
    for factor, u in ((s.chol_ss, u_s), (s.chol_rr, u_r)):
        a = lower_solve(factor, np.asarray(u, dtype=complex)[..., None])[..., 0]
        beta = np.vecdot(a, a).real
        out.append((a, beta, a / np.sqrt(beta)[..., None]))
    (a_s, beta_s, w_s), (a_r, beta_r, w_r) = out
    return BeamformerPair(a_s, a_r, beta_s, beta_r, w_s, w_r)


def coherence_matrix(s: BlockSampleCov) -> np.ndarray:
    """Whitened cross-channel block C = L_s^{-1} S_sr L_r^{-H}, one per
    covariance of a stack.

    Cholesky factors S_ii = L_i L_i^H; C is S_ss^{-1/2} S_sr S_rr^{-1/2} up to
    unitary factors, so the singular values are the same, each in [0, 1] when
    the full sample covariance is positive semidefinite.
    """
    t = lower_solve(s.chol_ss, s.s_sr)
    return adjoint(lower_solve(s.chol_rr, adjoint(t)))


def cost_forms(c: np.ndarray, pair: BeamformerPair) -> tuple[np.ndarray, np.ndarray]:
    """Forms (psi, gamma_m) of the exact likelihood cost (see optimizer), one
    pair per covariance of a stack, from the coherence matrix c and the
    beamformer pair.

    In whitened reference coordinates w = L_r^H z the cost is
    log(|w_r^H w|^2 / |w|^2) + log((w^H G w + |w_s^H C w|^2) / w^H G w)
    with G = I - C^H C. In x = Q^H w, Q = householder(w_r), that is
    J(x) = log(|x_1|^2 / |x|^2) + log(x^H psi x / x^H gamma_m x) with

        gamma_m = Q^H G Q,  psi = gamma_m + g g^H,  g = Q^H C^H w_s,

    and at x = e1 (z along S_rr^{-1} u_r) the statistic exp(J) equals
    1 + glr_sample. The forms carry no units of the channels: the maximum of
    J is log Lambda^{1/N}. gamma_m has the eigenvalues 1 - sigma_k^2 of G, so
    the forms are positive definite exactly when sigma_max < 1.
    """
    q = householder(pair.w_r)
    cq = c @ q
    gamma_m = hermitize(np.eye(c.shape[-1]) - adjoint(cq) @ cq)
    g = adjoint(cq) @ pair.w_s[..., None]
    psi = hermitize(gamma_m + g @ adjoint(g))
    return psi, gamma_m
