"""Trust-region ascent for the reduced likelihood objective.

The exact likelihood-ratio statistic reduces to maximizing

    J(x) = log(x^H E x / x^H Xi x) + log(x^H Psi x / x^H Gamma x)

over nonzero complex vectors x of length L, where E selects the first
coordinate (E = e1 e1^H) and Xi, Psi, Gamma are Hermitian positive definite.
covariance.cost_forms builds them from beamformed data, with Xi = I / beta_r,
and the exact detector validates the forms of a whole block at once, so
CostContext takes them as given. The detector starts the ascent at e1, where
the statistic equals the closed-form approximation 1 + glr_sample.

J is invariant to complex scaling of x, so only the ray of x matters, and J
is -inf where x[0] = 0. Every other ray meets the affine chart x = [1; y]
once, so the ascent runs in the 2L - 2 real coordinates [Re y; Im y] and
never sees the scale and phase freedom.

Gradient and Hessian are exact. For a ratio term log(z^T M z) the gradient
is 2 M z / q and the Hessian 2 M / q - 4 (M z)(M z)^T / q^2 with q = z^T M z;
J stacks four such terms with signs (+, -, +, -). In the chart they are the
rows and columns of the free coordinates of z = [Re x; Im x]. The
trust-region step solves the local quadratic model with Steihaug conjugate
gradients, which handles the indefinite Hessians that occur away from the
maximizer by walking to the boundary along negative-curvature directions.
The ascent has converged when the gradient norm is at most grad_tol or the
step's predicted gain g.p + p.H.p/2 is at most 8 eps (1 + |J|), below the
roundoff of J (the Newton-decrement test, Boyd & Vandenberghe, 9.5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import real_embedding, to_complex, to_real

# A predicted gain at or below this share of 1 + |J| is below J's roundoff.
_GAIN_RTOL = 8.0 * np.finfo(float).eps


@dataclass
class CostContext:
    """Precomputed quadratic forms for one likelihood surface.

    Holds the three Hermitian positive definite forms plus their real
    symmetric embeddings, stacked so that one batched matmul evaluates all
    four quadratic forms. The forms are not checked here; see the module
    docstring.
    """

    xi: np.ndarray
    psi: np.ndarray
    gamma_m: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False)
    _signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.xi = np.asarray(self.xi, dtype=complex)
        self.psi = np.asarray(self.psi, dtype=complex)
        self.gamma_m = np.asarray(self.gamma_m, dtype=complex)
        if not (self.xi.shape == self.psi.shape == self.gamma_m.shape):
            raise ValueError("xi, psi, gamma_m must share one L x L shape")
        dim = self.xi.shape[0]
        e_sel = np.zeros((2 * dim, 2 * dim))
        e_sel[0, 0] = 1.0
        e_sel[dim, dim] = 1.0
        self._stack = np.stack(
            [e_sel, real_embedding(self.xi), real_embedding(self.psi), real_embedding(self.gamma_m)]
        )
        self._signs = np.array([1.0, -1.0, 1.0, -1.0])

    @property
    def num_sensors(self) -> int:
        return self.xi.shape[0]

    def _forms(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All four (M_k z, z^T M_k z) pairs in one batched product."""
        mz = self._stack @ z
        return mz, mz @ z

    def value(self, z: np.ndarray) -> float:
        _, q = self._forms(z)
        if q[0] <= 0.0 or not np.all(np.isfinite(q)):
            return -math.inf
        return float(self._signs @ np.log(q))

    def value_grad_hess(self, z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        mz, q = self._forms(z)
        if q[0] <= 0.0 or not np.all(np.isfinite(q)):
            raise ValueError("cost is -inf at this point; gradient undefined")
        val = float(self._signs @ np.log(q))
        w = self._signs / q
        grad = 2.0 * (w @ mz)
        hess = 2.0 * np.einsum("k,kij->ij", w, self._stack)
        hess -= 4.0 * np.einsum("k,ki,kj->ij", w / q, mz, mz)
        return val, grad, hess


def cost_j(x: np.ndarray, ctx: CostContext) -> float:
    """J(x). Returns -inf when the first coordinate of x vanishes."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    return ctx.value(to_real(x))


def grad_j(x: np.ndarray, ctx: CostContext) -> np.ndarray:
    """Gradient of J in the real parametrization [Re x; Im x]."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    _, grad, _ = ctx.value_grad_hess(to_real(x))
    return grad


def hess_j(x: np.ndarray, ctx: CostContext) -> np.ndarray:
    """Hessian of J in the real parametrization [Re x; Im x]."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    _, _, hess = ctx.value_grad_hess(to_real(x))
    return hess


def _canonicalize(x: np.ndarray) -> np.ndarray:
    """Unit norm and a real nonnegative first coordinate.

    J is invariant under complex scaling, so this picks one representative
    per ray without moving the objective.
    """
    x = x / np.linalg.norm(x)
    mag = abs(x[0])
    if mag > 0.0:
        x = x * (x[0].conjugate() / mag)
        x[0] = mag
    return x


@dataclass
class TrustRegionOptions:
    max_iter: int = 200
    grad_tol: float = 1e-8
    initial_radius: float = 0.5
    min_radius: float = 1e-12
    accept_ratio: float = 0.1
    n_restarts: int = 0  # extra random starts taken by the exact detector
    restart_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0 or self.initial_radius <= 0 or self.min_radius <= 0:
            raise ValueError("tolerances and radii must be positive")
        if not 0.0 < self.accept_ratio < 1.0:
            raise ValueError("accept_ratio must lie in (0, 1)")
        if self.n_restarts < 0:
            raise ValueError("n_restarts must be >= 0")


@dataclass
class OptimResult:
    """Outcome of one ascent. x_hat is canonical: unit norm, x_hat[0] real >= 0.

    stop_reason is "gradient" when the ascent converged (see the module
    docstring), "radius" when the trust radius fell below min_radius first,
    and "max_iter" when it ran out of steps. j_trace holds the objective after
    the start and each accepted step and is nondecreasing by construction.
    """

    x_hat: np.ndarray
    j_value: float
    iterations: int
    stop_reason: str
    j_trace: np.ndarray

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient"


def _steihaug(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Approximately minimize g^T p + p^T H p / 2 subject to |p| <= radius.

    Truncated conjugate gradients: follows CG while the curvature stays
    positive and the iterate stays interior, and exits through the boundary
    along the current direction otherwise.
    """

    def boundary_step(p: np.ndarray, d: np.ndarray) -> np.ndarray:
        dd = d @ d
        pd = p @ d
        pp = p @ p
        tau = (-pd + math.sqrt(max(pd * pd + dd * (radius * radius - pp), 0.0))) / dd
        return p + tau * d

    p = np.zeros_like(grad)
    r = grad.copy()
    d = -r
    r2 = r @ r
    g_norm = math.sqrt(r2)
    if g_norm == 0.0:
        return p
    tol = min(0.5, math.sqrt(g_norm)) * g_norm
    for _ in range(grad.size):
        hd = hess @ d
        curv = d @ hd
        if curv <= 0.0:
            return boundary_step(p, d)
        alpha = r2 / curv
        p_next = p + alpha * d
        if np.linalg.norm(p_next) >= radius:
            return boundary_step(p, d)
        p = p_next
        r = r + alpha * hd
        r2_next = r @ r
        if math.sqrt(r2_next) <= tol:
            return p
        d = -r + (r2_next / r2) * d
        r2 = r2_next
    return p


def maximize_j(
    ctx: CostContext, x0: np.ndarray, opts: TrustRegionOptions | None = None
) -> OptimResult:
    """Ascend J from x0 with a Steihaug trust-region method in the chart x = [1; y].

    Internally minimizes -J over the free coordinates [Re y; Im y]; x0 is
    moved into the chart by dividing by x0[0], which must not vanish. Steps
    are scored against the quadratic model, and the trace of accepted
    objective values is monotone because only improving steps are taken.
    """
    opts = opts or TrustRegionOptions()
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    dim = ctx.num_sensors
    if x0.size != dim:
        raise ValueError(f"x0 has length {x0.size}, expected {dim}")
    if x0[0] == 0:
        raise ValueError("start point x0 has x0[0] == 0, outside the chart x = [1; y]")
    free = np.r_[1:dim, dim + 1 : 2 * dim]
    free_block = np.ix_(free, free)
    z = to_real(x0 / x0[0])
    try:
        f, grad, hess = ctx.value_grad_hess(z)
    except ValueError as exc:
        raise ValueError(f"objective is -inf at the start point: {exc}") from exc
    grad, hess = grad[free], hess[free_block]
    trace = [f]
    radius = opts.initial_radius
    iterations = 0
    stop_reason = "max_iter"
    for it in range(1, opts.max_iter + 1):
        # Minimize the model of -J.
        p = _steihaug(-grad, -hess, radius)
        pred = float(grad @ p + 0.5 * p @ hess @ p)  # predicted J increase
        if np.linalg.norm(grad) <= opts.grad_tol or pred <= _GAIN_RTOL * (1.0 + abs(f)):
            stop_reason = "gradient"
            break
        iterations = it
        step_norm = float(np.linalg.norm(p))
        z_new = z.copy()
        z_new[free] += p
        f_new = ctx.value(z_new)
        actual = f_new - f
        if actual > 0.0 and actual / pred >= opts.accept_ratio:
            z, f = z_new, f_new
            trace.append(f)
            f, grad, hess = ctx.value_grad_hess(z)
            grad, hess = grad[free], hess[free_block]
            if actual / pred > 0.75 and step_norm >= 0.9 * radius:
                radius *= 2.0
            elif actual / pred < 0.25:
                radius *= 0.5
        else:
            radius = 0.25 * min(radius, step_norm)
        if radius < opts.min_radius:
            stop_reason = "radius"
            break
    return OptimResult(
        x_hat=_canonicalize(to_complex(z)),
        j_value=f,
        iterations=iterations,
        stop_reason=stop_reason,
        j_trace=np.asarray(trace),
    )


def random_start(num_sensors: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random canonical point with a nonvanishing first entry."""
    while True:
        x = rng.standard_normal(num_sensors) + 1j * rng.standard_normal(num_sensors)
        if abs(x[0]) > 1e-6 * np.linalg.norm(x):
            return _canonicalize(x)
