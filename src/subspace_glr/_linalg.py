"""Small Hermitian linear algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2 to scrub rounding asymmetry."""
    return 0.5 * (a + adjoint(a))


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


def real_embedding(a: np.ndarray) -> np.ndarray:
    """Real 2L x 2L symmetric embedding of a Hermitian L x L matrix.

    With z = [Re x; Im x], the embedding M satisfies z^T M z = x^H a x.
    """
    ar, ai = a.real, a.imag
    return np.block([[ar, -ai], [ai, ar]])
