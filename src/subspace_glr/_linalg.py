"""Small Hermitian linear algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np
import scipy.linalg


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2 to scrub rounding asymmetry."""
    return 0.5 * (a + a.conj().T)


def check_hermitian(a: np.ndarray, tol: float = 1e-10, name: str = "matrix") -> None:
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if dev > tol * scale:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")


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


def quad_form(a: np.ndarray, x: np.ndarray) -> complex:
    """x^H a x."""
    return complex(np.vdot(x, a @ x))


def min_eig_herm(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0


def real_embedding(a: np.ndarray) -> np.ndarray:
    """Real 2L x 2L symmetric embedding of a Hermitian L x L matrix.

    With z = [Re x; Im x], the embedding M satisfies z^T M z = x^H a x.
    """
    ar, ai = a.real, a.imag
    return np.block([[ar, -ai], [ai, ar]])


def to_real(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag])


def to_complex(z: np.ndarray) -> np.ndarray:
    half = z.size // 2
    return z[:half] + 1j * z[half:]
