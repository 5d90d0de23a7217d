"""Trust-region ascent for the reduced likelihood objective.

The exact likelihood-ratio statistic reduces to maximizing

    J(x) = log(x^H E x / x^H Xi x) + log(x^H Psi x / x^H Gamma x)

over nonzero complex vectors x of length L, where E selects the first
coordinate (E = e1 e1^H) and Xi, Psi, Gamma are Hermitian positive definite.
covariance.cost_forms builds them from beamformed data with Xi = I, so the
maximum of J is log Lambda^{1/N} itself, free of the channels' units, and
the exact detector validates the forms of a whole block at once, so the
ascent takes them as given. The detector starts the ascent at e1, where
exp(J) equals the closed-form approximation 1 + glr_sample.

J is invariant to complex scaling of x, so only the ray of x matters, and J
is -inf where x[0] = 0. Every other ray meets the affine chart x = [1; y]
once, so the ascent runs in the n = 2L - 2 real coordinates [Re y; Im y] and
never sees the scale and phase freedom. In the chart x^H E x = 1.

Gradient and Hessian are exact. For a ratio term log(z^T M z) the gradient
is 2 M z / q and the Hessian 2 M / q - 4 (M z)(M z)^T / q^2 with q = z^T M z,
where M is the real symmetric embedding of a form and z = [Re x; Im x]; in
the chart they are the rows and columns of the free coordinates.

ascend runs the ascents of a whole stack of cost surfaces in lockstep: each
pass takes one step on every row still active and retires the rows that
stop. Each step solves the trust-region subproblem, maximize g.p + p.H.p/2
subject to |p| <= radius, exactly (Moré and Sorensen, "Computing a trust
region step", SIAM J. Sci. Stat. Comput. 4(3), 1983; Nocedal and Wright,
Numerical Optimization, 2nd ed., 4.3) from one batched eigendecomposition
-H = Q diag(lam) Q^T per pass. When -H is positive definite and its Newton
step fits, that is the step. Otherwise the step lies on the boundary at
p(s) = -(-H + s I)^{-1} (-g) with s >= max(0, -lam_1), and s solves the
secular equation 1/|p(s)| - 1/radius = 0, whose left side is concave and
increasing beyond the pole at s = -lam_1: Newton's method started left of
the root climbs to it monotonically. In the hard case (Nocedal and Wright
4.3.1) g has no component along the eigenvector q_1 of lam_1 <= 0 and the
root would lie at or left of the pole; the step is then p(-lam_1) plus the
multiple of q_1 that reaches the boundary.

The ascent has converged when the gradient norm is at most grad_tol or the
step's predicted gain g.p + p.H.p/2 is at most 8 eps (1 + |J|), below the
roundoff of J (the Newton-decrement test, Boyd & Vandenberghe, 9.5.1).
Rows never mix: every reduction runs per row in an order fixed by L alone,
so a trial gets the same bits in a stack of any size. maximize_j is a stack
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import real_embedding, to_real

_EPS = np.finfo(float).eps
# A predicted gain at or below this share of 1 + |J| is below J's roundoff.
_GAIN_RTOL = 8.0 * _EPS
# Cap on the Newton steps for one secular equation. From the left of the
# root they climb monotonically and quadratically, so a row stops long
# before this, at the first step that does not move its shift right (at
# the root, roundoff makes the steps alternate by an ulp).
_SECULAR_STEPS = 64
# Signs of the chart's three log terms (Xi, Psi, Gamma); the E term is 0.
_SIGNS = np.array([-1.0, 1.0, -1.0])


@dataclass
class CostContext:
    """Precomputed quadratic forms for one likelihood surface.

    Holds the three Hermitian positive definite forms plus their real
    symmetric embeddings, stacked so that one batched matmul evaluates all
    four quadratic forms of J in the full coordinates [Re x; Im x] (cost_j,
    grad_j, hess_j). The forms are not checked here; see the module
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
    """Unit norm and a real nonnegative first coordinate, for a vector or
    each vector of a (..., L) stack.

    J is invariant under complex scaling, so this picks one representative
    per ray without moving the objective.
    """
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    mag = np.abs(x[..., :1])
    with np.errstate(invalid="ignore"):
        x = x * np.where(mag > 0.0, x[..., :1].conj() / mag, 1.0)
    x[..., 0] = mag[..., 0]
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


def _chart_value(m: np.ndarray, u: np.ndarray):
    """J at chart points u = [1; [Re y; Im y]] of stacked reduced forms m
    (T, 3, n+1, n+1), with the products M_k u and forms q_k = u^T M_k u that
    _chart_derivatives reuses. J is -inf on a row where a form is not
    positive and finite."""
    mu = np.einsum("tkij,tj->tki", m, u)
    q = np.einsum("tki,ti->tk", mu, u)
    ok = np.all((q > 0.0) & np.isfinite(q), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lq = np.log(q)
    return np.where(ok, (lq[:, 1] - lq[:, 2]) - lq[:, 0], -math.inf), mu, q


def _chart_derivatives(m_free: np.ndarray, mu: np.ndarray, q: np.ndarray):
    """Gradient and Hessian of J in the free coordinates, from _chart_value's
    products; m_free is m[..., 1:, 1:]."""
    mu = mu[..., 1:]
    w = _SIGNS / q
    grad = 2.0 * np.einsum("tk,tki->ti", w, mu)
    hess = 2.0 * np.einsum("tk,tkij->tij", w, m_free)
    hess -= 4.0 * np.einsum("tk,tki,tkj->tij", w / q, mu, mu)
    return grad, hess


def solve_subproblem(
    grad: np.ndarray, hess: np.ndarray, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximizer p of g.p + p.H.p/2 subject to |p| <= radius, and the
    gain it predicts, for each row of stacked gradients (T, n), Hessians
    (T, n, n) and radii (T,). See the module docstring for the method.

    Works in the eigenbasis of B = -H with c = -g, shifted so that the
    smallest eigenvalue sits at 0: d_i = lam_i - lam_1 and a boundary step
    is p_i = -c_i / (d_i + delta) with delta = lam_1 + s, which keeps delta
    resolved however close the root lies to the pole.
    """
    if not grad.shape[-1]:  # L = 1: the chart is a point
        return grad.copy(), np.zeros(len(grad))
    lam, vec = np.linalg.eigh(-hess)
    c = -np.einsum("tji,tj->ti", vec, grad)
    c2 = c * c
    lam1 = lam[:, :1]
    d = lam - lam1
    rad = radius[:, None]
    # A shift below this is lost in the eigenvalues' own roundoff.
    floor = _EPS * np.maximum(np.max(np.abs(lam), axis=-1, keepdims=True), np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = (lam1 > 0.0) & (np.sum(c2 / (lam * lam), axis=-1, keepdims=True) <= rad * rad)
        hard = (lam1 <= 0.0) & (np.sum(c2 / (d + floor) ** 2, axis=-1, keepdims=True) <= rad * rad)
        # Left of the root: |p| >= |c_1| / (d_1 + delta) = radius there.
        start = np.maximum(np.where(lam1 > 0.0, lam1, floor), np.abs(c[:, :1]) / rad)
        delta = start
        live = ~(interior | hard)
        for _ in range(_SECULAR_STEPS):
            shift = d + delta
            n2 = np.sum(c2 / (shift * shift), axis=-1, keepdims=True)
            n3 = np.sum(c2 / (shift * shift * shift), axis=-1, keepdims=True)
            norm = np.sqrt(n2)
            moved = np.maximum(delta + (n2 / n3) * ((norm - rad) / rad), start)
            live &= moved > delta
            if not live.any():
                break
            delta = np.where(live, moved, delta)
        p = -c / np.where(interior, lam, d + np.where(hard, floor, delta))
        # Hard case: fill the boundary along q_1, against c_1.
        rest = np.sum(p[:, 1:] * p[:, 1:], axis=-1)
        fill = np.copysign(np.sqrt(np.maximum(radius * radius - rest, 0.0)), -c[:, 0])
    p[:, :1] = np.where(hard, fill[:, None], p[:, :1])
    gain = -np.sum(c * p + 0.5 * lam * (p * p), axis=-1)
    return np.einsum("tij,tj->ti", vec, p), gain


def ascend(forms, starts: np.ndarray, opts: TrustRegionOptions | None = None) -> list[OptimResult]:
    """Ascend J from each row of starts (T, L) on the surface of the same row
    of forms = (xi, psi, gamma_m), each (T, L, L), all rows in lockstep.

    Each start is moved into the chart x = [1; y] by dividing by its first
    entry, which must not vanish. Steps are scored against the quadratic
    model, and each row's trace of accepted objective values is monotone
    because only improving steps are taken.
    """
    opts = opts or TrustRegionOptions()
    starts = np.asarray(starts, dtype=complex)
    count, dim = starts.shape
    if np.any(starts[:, 0] == 0):
        raise ValueError("start point x0 has x0[0] == 0, outside the chart x = [1; y]")
    keep = np.r_[0, 1:dim, dim + 1 : 2 * dim]
    m = np.stack([real_embedding(np.asarray(f, dtype=complex)) for f in forms], axis=1)
    m = m[..., keep[:, None], keep]
    m_free = np.ascontiguousarray(m[..., 1:, 1:])
    y = starts[:, 1:] / starts[:, :1]
    u = np.concatenate([np.ones((count, 1)), y.real, y.imag], axis=1)
    f, mu, q = _chart_value(m, u)
    if not np.all(np.isfinite(f)):
        bad = int(np.flatnonzero(~np.isfinite(f))[0])
        raise ValueError(f"objective is -inf at the start point of row {bad}")
    grad, hess = _chart_derivatives(m_free, mu, q)

    # Final state per row, filled in as rows stop.
    u_out, f_out = u.copy(), f.copy()
    iterations = np.zeros(count, dtype=int)
    stop = np.empty(count, dtype=object)
    traces = [[v] for v in f.tolist()]
    rows = np.arange(count)
    radius = np.full(count, opts.initial_radius)
    steps = np.zeros(count, dtype=int)

    def retire(done: np.ndarray, reason: str) -> np.ndarray:
        """Record the rows flagged in done and return the mask of the others."""
        idx = rows[done]
        u_out[idx], f_out[idx], iterations[idx], stop[idx] = u[done], f[done], steps[done], reason
        return ~done

    while rows.size:
        p, pred = solve_subproblem(grad, hess, radius)
        gnorm = np.sqrt(np.sum(grad * grad, axis=-1))
        active = retire((gnorm <= opts.grad_tol) | (pred <= _GAIN_RTOL * (1.0 + np.abs(f))), "gradient")
        if not active.all():
            rows, m, m_free, u, f, grad, hess, radius, steps, p, pred = (
                a[active] for a in (rows, m, m_free, u, f, grad, hess, radius, steps, p, pred)
            )
            if not rows.size:
                break
        steps += 1
        step_norm = np.sqrt(np.sum(p * p, axis=-1))
        u_new = u.copy()
        u_new[:, 1:] += p
        # pred > 0 here, so a step to a -inf value has ratio -inf.
        f_new, mu, q = _chart_value(m, u_new)
        ratio = (f_new - f) / pred
        acc = (f_new > f) & (ratio >= opts.accept_ratio)
        if acc.any():
            grad[acc], hess[acc] = _chart_derivatives(m_free[acc], mu[acc], q[acc])
            u[acc], f[acc] = u_new[acc], f_new[acc]
            for i, v in zip(rows[acc].tolist(), f_new[acc].tolist()):
                traces[i].append(v)
        grow = acc & (ratio > 0.75) & (step_norm >= 0.9 * radius)
        shrink = acc & ~grow & (ratio < 0.25)
        radius = np.where(grow, 2.0 * radius, np.where(shrink, 0.5 * radius, radius))
        radius = np.where(acc, radius, 0.25 * np.minimum(radius, step_norm))
        active = retire(radius < opts.min_radius, "radius")
        active &= retire(active & (steps >= opts.max_iter), "max_iter")
        if not active.all():
            rows, m, m_free, u, f, grad, hess, radius, steps = (
                a[active] for a in (rows, m, m_free, u, f, grad, hess, radius, steps)
            )

    x_hat = u_out[:, :dim].astype(complex)
    x_hat[:, 1:] += 1j * u_out[:, dim:]
    x_hat = _canonicalize(x_hat)
    return [
        OptimResult(x_hat[i], float(f_out[i]), int(iterations[i]), stop[i], np.asarray(traces[i]))
        for i in range(count)
    ]


def maximize_j(
    ctx: CostContext, x0: np.ndarray, opts: TrustRegionOptions | None = None
) -> OptimResult:
    """Ascend J from x0 with the exact-step trust-region method in the chart
    x = [1; y]: ascend on a stack of one."""
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    dim = ctx.num_sensors
    if x0.size != dim:
        raise ValueError(f"x0 has length {x0.size}, expected {dim}")
    forms = (ctx.xi[None], ctx.psi[None], ctx.gamma_m[None])
    return ascend(forms, x0[None], opts)[0]


def random_start(num_sensors: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random canonical point with a nonvanishing first entry."""
    while True:
        x = rng.standard_normal(num_sensors) + 1j * rng.standard_normal(num_sensors)
        if abs(x[0]) > 1e-6 * np.linalg.norm(x):
            return _canonicalize(x)
