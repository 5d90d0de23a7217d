"""Trust-region ascent for the reduced likelihood objective.

The exact likelihood-ratio statistic reduces to maximizing

    J(x) = log(|x_1|^2 / |x|^2) + log(x^H Psi x / x^H Gamma x)

over nonzero complex vectors x of length L, where Psi and Gamma are
Hermitian positive definite. covariance.cost_forms builds the forms
(Psi, Gamma) from beamformed data, so the maximum of J is log Lambda^{1/N}
itself, free of the channels' units, and the exact detector validates the
forms of a whole block at once, so the ascent takes them as given. The
detector starts the ascent at e1, where exp(J) equals the closed-form
approximation 1 + glr_sample.

J is invariant to complex scaling of x, so only the ray of x matters, and J
is -inf where x[0] = 0. Every other ray meets the affine chart x = [1; y]
once, so the ascent runs in the n = 2L - 2 real coordinates [Re y; Im y] and
never sees the scale and phase freedom. In the chart |x_1|^2 = 1.

Gradient and Hessian are exact. For a ratio term log(u^T M u) the gradient
is 2 M u / q and the Hessian 2 M / q - 4 (M u)(M u)^T / q^2 with q = u^T M u,
where M is the real symmetric embedding of a form (the identity for |x|^2)
and u = [1; Re y; Im y] the chart point; they are the rows and columns of
the free coordinates. _chart_value and _chart_derivatives are the one
evaluator of J and its derivatives: the ascent steps on them, and cost_j and
grad_hess_j give them at one point.

ascend runs the ascents of a whole stack of cost surfaces in lockstep, on
the chart embeddings that it builds from their forms (_chart_forms) and
alone holds, so the rows that stop free their part. Each pass
takes one path for every live row: it solves the trust-region subproblem,
maximize g.p + p.H.p/2 subject to |p| <= radius, exactly (Moré and
Sorensen, "Computing a trust region step", SIAM J. Sci. Stat. Comput. 4(3),
1983; Nocedal and Wright, Numerical Optimization, 2nd ed., 4.3), retires the
rows that stop (radius before max_iter before gradient) at one point, steps
the others, evaluates J and its derivatives at every new point and gives
the rows whose step is rejected their old state back.

The solver splits the rows by case, as Moré and Sorensen do. Every row gets
the Newton step p = B^{-1} g of B = -H, with predicted gain g.p / 2, from a
Cholesky factorization of every row's B, column by column and elementwise
along the rows, so each row gets its own verdict, the same in a stack of
any size (np.linalg.cholesky would raise for the whole stack); a failed row
carries NaN, which no other row sees. A row whose B is positive definite
and whose Newton step fits the radius keeps it. Most row-passes do (92-100%
on the benchmark configs, about half on ill-conditioned ones such as N = 2L
or 40 dB), so only the rest pay for an eigendecomposition: one
batched -H = Q diag(lam) Q^T per pass for those rows, the general solver,
which also takes the interior step of a row that roundoff puts on the other
side of the test. Otherwise the
step lies on the boundary at p(s) = -(-H + s I)^{-1} (-g) with
s >= max(0, -lam_1), and s solves the secular equation
1/|p(s)| - 1/radius = 0, whose left side is concave and increasing beyond
the pole at s = -lam_1: Newton's method started left of the root climbs to
it monotonically. In the hard case (Nocedal and Wright
4.3.1) g has no component along the eigenvector q_1 of lam_1 <= 0 and the
root would lie at or left of the pole; the step is then p(-lam_1) plus the
multiple of q_1 that reaches the boundary.

The ascent has converged when the gradient norm is at most GRAD_TOL or the
step's predicted gain g.p + p.H.p/2 is at most 8 eps (1 + |J|), below the
roundoff of J (the Newton-decrement test, Boyd & Vandenberghe, 9.5.1).
Rows never mix: every reduction runs per row in an order fixed by L alone,
so a trial gets the same bits in a stack of any size. maximize_j is a stack
of one.

The trust-region values are module constants: MAX_ITER (200), GRAD_TOL
(1e-8), INITIAL_RADIUS (0.5), MIN_RADIUS (1e-12) and ACCEPT_RATIO (0.1),
with the radius update of Nocedal and Wright, Alg. 4.1. They are fixed
because they belong to the algorithm, not to an experiment: J is
scale-free and the ascent stops at J's roundoff, so no run needs other
values, and each statistic stays a function of the data alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ITER = 200
GRAD_TOL = 1e-8
INITIAL_RADIUS = 0.5
MIN_RADIUS = 1e-12
ACCEPT_RATIO = 0.1
# How an ascent stopped; Ascent.stop holds indices into this tuple.
STOP_REASONS = ("gradient", "radius", "max_iter")

_EPS = np.finfo(float).eps
# A predicted gain at or below this share of 1 + |J| is below J's roundoff.
_GAIN_RTOL = 8.0 * _EPS
# Cap on the Newton steps for one secular equation. From the left of the
# root they climb monotonically and quadratically, so a row stops long
# before this, at the first step that does not move its shift right (at
# the root, roundoff makes the steps alternate by an ulp).
_SECULAR_STEPS = 64
# Signs of the chart's three log terms (|x|^2, Psi, Gamma); the |x_1|^2 term is 0.
_SIGNS = np.array([-1.0, 1.0, -1.0])


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
class OptimResult:
    """Outcome of one ascent. x_hat is canonical: unit norm, x_hat[0] real >= 0.

    stop_reason is "gradient" when the ascent converged (see the module
    docstring), "radius" when the trust radius fell below MIN_RADIUS first,
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


@dataclass
class Ascent:
    """Outcome of a lockstep ascent as per-row arrays, one row per start.

    x_hat (T, L) is canonical, j_value (T,) the final J, iterations (T,) the
    steps taken and stop (T,) an index into STOP_REASONS. j_passes (T, P + 1)
    holds each row's J at the start and after each of the P passes; a row's
    value changes only at an accepted step, which raises it.
    """

    x_hat: np.ndarray
    j_value: np.ndarray
    iterations: np.ndarray
    stop: np.ndarray
    j_passes: np.ndarray

    def result(self, row: int) -> OptimResult:
        """The OptimResult of one row; its j_trace is the row's distinct J values."""
        passes = self.j_passes[row]
        trace = passes[np.r_[True, passes[1:] != passes[:-1]]]
        return OptimResult(self.x_hat[row].copy(), float(self.j_value[row]),
                           int(self.iterations[row]), STOP_REASONS[self.stop[row]], trace)


def _chart_forms(forms) -> tuple[np.ndarray, np.ndarray]:
    """Chart embeddings of the stacked forms (psi, gamma_m), each (T, L, L):
    their real embeddings M = [[Re A, -Im A], [Im A, Re A]], reduced to the
    chart coordinates [1; Re y; Im y]. Returns m (2, n+1, n+1, T), the
    embeddings as columns with the trials last, m[k, j, i, t] = M_k[i, j] of
    trial t, which _chart_value takes, and m_free (T, 2, n, n), a contiguous
    copy of their free blocks, which _chart_derivatives takes (its einsum
    over m's strided view gives the same bits in about 1.7 times the time).
    The |x|^2 term's embedding is the identity, which those two apply
    directly."""
    psi, gamma_m = (np.asarray(f, dtype=complex) for f in forms)
    dim = psi.shape[-1]
    m = np.empty((2, 2 * dim - 1, 2 * dim - 1, len(psi)))
    rows = m.transpose(3, 0, 2, 1)  # rows[t, k, i, j] = M_k[i, j] of trial t
    for k, form in enumerate((psi, gamma_m)):
        rows[:, k, :dim, :dim] = form.real
        rows[:, k, :dim, dim:] = -form.imag[..., 1:]
        rows[:, k, dim:, :dim] = form.imag[..., 1:, :]
        rows[:, k, dim:, dim:] = form.real[..., 1:, 1:]
    return m, np.ascontiguousarray(rows[..., 1:, 1:])


def _chart_point(x: np.ndarray) -> np.ndarray:
    """Chart point u = [1; Re y; Im y], y = x[1:] / x[0], of each row of x
    (T, L); x[0] must not vanish."""
    y = x[:, 1:] / x[:, :1]
    return np.concatenate([np.ones((len(x), 1)), y.real, y.imag], axis=1)


def _chart_value(m: np.ndarray, u: np.ndarray):
    """J at chart points u (T, n+1) of the chart embeddings m from
    _chart_forms, in the fixed order (log q_psi - log q_gamma) - log |x|^2
    with q_k = u^T M_k u, and the products M_k u (T, 3, n+1) and forms q_k
    (T, 3) of the three terms, which _chart_derivatives reuses. J is -inf on
    a row where a form is not positive and finite.

    Each product is summed over j in order from +0, one elementwise multiply
    and add per column over all trials: the bits of einsum, which sums that
    way here. The |x|^2 term's product is u itself, +0 for -0. The products
    are laid out as (n+1, T, 3) in memory, which the bits of q depend on."""
    size, count = u.shape[1], len(u)
    u_cols = np.ascontiguousarray(u.T)
    acc, prod = np.zeros((2, size, count)), np.empty((2, size, count))
    for j in range(size):
        acc += np.multiply(m[:, j], u_cols[j], out=prod)
    mu = np.empty((size, count, 3)).transpose(1, 2, 0)
    np.add(u, 0.0, out=mu[:, 0])
    mu[:, 1:] = acc.transpose(2, 0, 1)
    q = np.einsum("tki,ti->tk", mu, u)
    ok = ((q > 0.0) & np.isfinite(q)).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lq = np.log(q)
    return np.where(ok, (lq[:, 1] - lq[:, 2]) - lq[:, 0], -math.inf), mu, q


def _chart_derivatives(m_free: np.ndarray, mu: np.ndarray, q: np.ndarray):
    """Gradient and Hessian of J in the free coordinates, from _chart_value's
    products; m_free is _chart_forms' free blocks. The Hessian's first term
    sums w_k M_k over the three terms in order from +0, as einsum does: the
    |x|^2 term's w_0 I comes first, which off the diagonal adds +0 and on it
    w_0."""
    mu = mu[..., 1:]
    w = _SIGNS / q
    grad = 2.0 * np.einsum("tk,tki->ti", w, mu)
    hess = np.einsum("tk,tkij->tij", w[:, 1:], m_free)
    diag = np.diagonal(m_free, axis1=-2, axis2=-1)
    first = w[:, 1, None] * diag[:, 0]
    first += w[:, :1]
    first += w[:, 2, None] * diag[:, 1]
    np.einsum("tii->ti", hess)[...] = first
    hess *= 2.0
    hess -= 4.0 * (np.swapaxes(mu * (w / q)[..., None], 1, 2) @ mu)
    return grad, hess


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices a (n, n, T),
    stacked along the last axis, and whether each is positive definite:
    every pivot positive and finite. That is LAPACK's potrf test, except
    that the OpenBLAS build numpy ships lets a NaN pivot pass. The
    factors overwrite the lower triangle of a, which is returned, and are
    only meaningful on the rows that pass.

    Right-looking, one column per step, from elementwise operations over
    the last axis alone, so a row gets the same verdict and factor in a
    stack of any size. Every row is factored to the end, and each row's
    verdict is read once from its pivots, the factor's diagonal: a pivot p
    is in (0, inf) exactly when sqrt(p) is. A row whose pivot fails carries
    NaN from there on and fails, where np.linalg.cholesky would raise for
    the whole stack; the rows that pass never see a failed row's values.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(len(a)):
            np.sqrt(a[j, j], out=a[j, j])
            a[j + 1 :, j] /= a[j, j]
            col = a[j + 1 :, j]
            a[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    pivots = a.diagonal()
    return a, ((pivots > 0.0) & (pivots < math.inf)).all(axis=-1)


def _newton_step(low: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps p = B^{-1} g (T, n) for gradients g (T, n) and the
    factors B = L L^T in low (n, n, T) from _cholesky, by forward and back
    substitution, elementwise over the rows like _cholesky; and their gains
    g.p / 2 = |L^{-1} g|^2 / 2, a sum of squares free of cancellation."""
    x = g.T.copy()
    n = len(x)
    for j in range(n):
        x[j] /= low[j, j]
        x[j + 1 :] -= low[j + 1 :, j] * x[j]
    y = x.T.copy()
    for j in reversed(range(n)):
        x[j] /= low[j, j]
        x[:j] -= low[j, :j] * x[j]
    return x.T.copy(), 0.5 * (y * y).sum(axis=-1)


def _eigen_step(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray):
    """solve_subproblem's general path, from one batched eigendecomposition
    of B = -H: the interior step, the boundary step from the secular
    equation, or the hard case (see the module docstring).

    Works in the eigenbasis of B with c = -g, shifted so that the smallest
    eigenvalue sits at 0: d_i = lam_i - lam_1 and a boundary step is
    p_i = -c_i / (d_i + delta) with delta = lam_1 + s, which keeps delta
    resolved however close the root lies to the pole. An empty stack, where
    every row took its Newton step, returns at once, with no
    eigendecomposition.
    """
    if not len(grad):
        return grad.copy(), np.zeros(0)
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
            n2 = (c2 / (shift * shift)).sum(axis=-1, keepdims=True)
            n3 = (c2 / (shift * shift * shift)).sum(axis=-1, keepdims=True)
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


def solve_subproblem(
    grad: np.ndarray, hess: np.ndarray, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximizer p of g.p + p.H.p/2 subject to |p| <= radius, and the
    gain it predicts, for each row of stacked gradients (T, n), Hessians
    (T, n, n) and radii (T,). See the module docstring for the method.

    Every row gets the Newton step p = B^{-1} g, with gain g.p / 2, from one
    stacked Cholesky factorization of B = -H; a row whose factorization
    fails carries NaN, which no other row sees. The rows whose B is positive
    definite and whose step fits their radius keep it, and only the others
    reach _eigen_step. With n = 0 (L = 1, the chart is a point) every row
    keeps p = 0 and a gain of 0.
    """
    low, newton = _cholesky(np.negative(hess.transpose(1, 2, 0), order="C"))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p, gain = _newton_step(low, grad)
        rest = ~(newton & ((p * p).sum(axis=-1) <= radius**2))
    p[rest], gain[rest] = _eigen_step(grad[rest], hess[rest], radius[rest])
    return p, gain


def ascend(forms, starts: np.ndarray) -> Ascent:
    """Ascend J from each row of starts (T, L) on the surface of the same row
    of forms = (psi, gamma_m), each (T, L, L), all rows in lockstep, on the
    chart embeddings of the forms (_chart_forms), which no one else holds,
    so the rows that stop free their part.

    Each start is moved into the chart x = [1; y] by dividing by its first
    entry, which must not vanish. Steps are scored against the quadratic
    model and only improving steps are taken, so each row's J never falls.
    Returns the rows' outcomes as arrays; Ascent.result builds one row's
    OptimResult.
    """
    starts = np.asarray(starts, dtype=complex)
    count, dim = starts.shape
    if np.any(starts[:, 0] == 0):
        raise ValueError("start point x0 has x0[0] == 0, outside the chart x = [1; y]")
    m, m_free = _chart_forms(forms)
    u = _chart_point(starts)
    f, mu, q = _chart_value(m, u)
    if not np.all(np.isfinite(f)):
        bad = int(np.flatnonzero(~np.isfinite(f))[0])
        raise ValueError(f"objective is -inf at the start point of row {bad}")
    grad, hess = _chart_derivatives(m_free, mu, q)

    # Final state per row, filled in as rows stop; f_out is every row's
    # current J, and passes gets a copy of it after each pass.
    u_out, f_out = u.copy(), f.copy()
    passes = [f_out.copy()]
    iterations = np.zeros(count, dtype=int)
    stop = np.empty(count, dtype=np.int8)
    rows = np.arange(count)
    radius = np.full(count, INITIAL_RADIUS)
    steps = np.zeros(count, dtype=int)
    by_gradient, by_radius, by_max_iter = (STOP_REASONS.index(r) for r in ("gradient", "radius", "max_iter"))

    while True:
        p, pred = solve_subproblem(grad, hess, radius)
        gnorm = np.sqrt((grad * grad).sum(axis=-1))
        converged = (gnorm <= GRAD_TOL) | (pred <= _GAIN_RTOL * (1.0 + np.abs(f)))
        # Each row's stop, if any, in order of priority; -1 goes on.
        code = np.where(radius < MIN_RADIUS, by_radius,
                        np.where(steps >= MAX_ITER, by_max_iter, np.where(converged, by_gradient, -1)))
        done = code >= 0
        if done.any():  # a pass that stops no row copies nothing
            idx, live = rows[done], ~done
            u_out[idx], iterations[idx], stop[idx] = u[done], steps[done], code[done]
            m = m[..., live]
            rows, m_free, u, f, grad, hess, radius, steps, p, pred = (
                a[live] for a in (rows, m_free, u, f, grad, hess, radius, steps, p, pred)
            )
            if not rows.size:
                break
        steps += 1
        step_norm = np.sqrt((p * p).sum(axis=-1))
        u_new = u.copy()
        u_new[:, 1:] += p
        # pred > 0 here, so a step to a -inf value has ratio -inf.
        f_new, mu, q = _chart_value(m, u_new)
        ratio = (f_new - f) / pred
        acc = (f_new > f) & (ratio >= ACCEPT_RATIO)
        # Derivatives at every new point, then the rejected rows' old state
        # back; a rejected point's forms may be 0 or not finite.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grad_new, hess_new = _chart_derivatives(m_free, mu, q)
        rej = ~acc
        grad_new[rej], hess_new[rej], u_new[rej], f_new[rej] = grad[rej], hess[rej], u[rej], f[rej]
        grad, hess, u, f = grad_new, hess_new, u_new, f_new
        f_out[rows] = f
        passes.append(f_out.copy())
        grow = acc & (ratio > 0.75) & (step_norm >= 0.9 * radius)
        shrink = acc & ~grow & (ratio < 0.25)
        radius = np.where(grow, 2.0 * radius, np.where(shrink, 0.5 * radius, radius))
        radius = np.where(acc, radius, 0.25 * np.minimum(radius, step_norm))

    x_hat = u_out[:, :dim].astype(complex)
    x_hat[:, 1:] += 1j * u_out[:, dim:]
    return Ascent(_canonicalize(x_hat), f_out, iterations, stop, np.stack(passes, axis=1))


def _one(forms, x: np.ndarray):
    """One surface's forms (psi, gamma_m) and a point x as stacks of one."""
    forms = [np.asarray(f, dtype=complex)[None] for f in forms]
    x = np.asarray(x, dtype=complex).reshape(1, -1)
    dim = forms[0].shape[-1]
    if x.shape[1] != dim:
        raise ValueError(f"x has length {x.shape[1]}, expected {dim}")
    return forms, x


def cost_j(x: np.ndarray, forms) -> float:
    """J at a nonzero x on the surface of forms = (psi, gamma_m), each L x L:
    _chart_value at the chart point of x, the value the ascent sees there.
    Returns -inf when the first coordinate of x vanishes."""
    forms, x = _one(forms, x)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    if x[0, 0] == 0:
        return -math.inf
    f, _, _ = _chart_value(_chart_forms(forms)[0], _chart_point(x))
    return float(f[0])


def grad_hess_j(x: np.ndarray, forms) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of J at x on the surface of forms = (psi, gamma_m)
    in the chart coordinates [Re y; Im y], y = x[1:] / x[0]: the derivatives
    the ascent steps on (_chart_derivatives)."""
    forms, x = _one(forms, x)
    if x[0, 0] == 0:
        raise ValueError("x has x[0] == 0, outside the chart x = [1; y]")
    m, m_free = _chart_forms(forms)
    f, mu, q = _chart_value(m, _chart_point(x))
    if not np.isfinite(f[0]):
        raise ValueError("cost is -inf at this point; gradient undefined")
    grad, hess = _chart_derivatives(m_free, mu, q)
    return grad[0], hess[0]


def maximize_j(forms, x0: np.ndarray) -> OptimResult:
    """Ascend J on the surface of forms = (psi, gamma_m), each L x L, from x0
    with the exact-step trust-region method in the chart x = [1; y]: ascend
    on a stack of one."""
    forms, x0 = _one(forms, x0)
    return ascend(forms, x0).result(0)
