"""Shared helpers for the test suite: instance generators and independent
oracle implementations that deliberately avoid the library's own code paths.

make_instance builds one trial through the substream-driven per-trial
synthesis in _reference.py, so an instance stays fixed whatever the Monte
Carlo draw (model.draw_sample_cov) reads."""

from __future__ import annotations

import numpy as np

import subspace_glr as sg
from _reference import draw_channel, draw_steering, substream, synth_snapshots


def make_instance(
    seed: int,
    L: int = 3,
    N: int | None = None,
    snr_s_db: float = 0.0,
    snr_r_db: float = 10.0,
    hypothesis: str = "H1",
    mode: str = "random-unit",
    index: int = 0,
):
    """One synthetic trial built through the model pipeline: trial `index`
    of `hypothesis`, drawn from the substreams keyed (seed, hypothesis code,
    index, purpose).

    Returns (sample covariance, steering pair, snapshot data).
    """
    N = 4 * L if N is None else N
    cfg = sg.ScenarioConfig(L=L, N=N, snr_s_db=snr_s_db, snr_r_db=snr_r_db, seed=seed)
    code = {"H0": 0, "H1": 1}[hypothesis]
    steer = draw_steering(mode, L, substream(seed, code, index, 0))
    chan = draw_channel(cfg, substream(seed, code, index, 1), substream(seed, code, index, 2))
    data = synth_snapshots(cfg, steer, chan, hypothesis, substream(seed, code, index, 3))
    return sg.sample_cov(data), steer, data


def rand_pd(rng: np.random.Generator, dim: int, dof: int | None = None) -> np.ndarray:
    """Random Hermitian positive definite matrix (Gram of a wide Gaussian)."""
    dof = 2 * dim if dof is None else dof
    g = (rng.standard_normal((dim, dof)) + 1j * rng.standard_normal((dim, dof))) / np.sqrt(2)
    a = g @ g.conj().T / dof
    return 0.5 * (a + a.conj().T)


def rand_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return u / np.linalg.norm(u)


def null_cov(s: sg.BlockSampleCov) -> sg.BlockSampleCov:
    """Copy of a sample covariance with the cross block analytically zeroed."""
    zero = np.zeros_like(s.s_sr)
    return sg.BlockSampleCov(s.s_ss, zero, s.s_rr, s.n)


def zero_surveillance(s: sg.BlockSampleCov, rows: list[int]) -> None:
    """Zero, in place, the blocks an all-zero surveillance channel gives the
    stacked sample covariances s at the given rows: S_ss and S_sr."""
    s.s_ss[rows] = 0.0
    s.s_sr[rows] = 0.0


def chart_x(v: np.ndarray) -> np.ndarray:
    """The point x = [1; y] of chart coordinates v = [Re y; Im y]."""
    half = v.size // 2
    return np.concatenate([[1.0], v[:half] + 1j * v[half:]])


def fd_gradient(x: np.ndarray, forms, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of cost_j in the chart coordinates
    [Re y; Im y], y = x[1:] / x[0]."""
    y = x[1:] / x[0]
    v = np.concatenate([y.real, y.imag])
    grad = np.zeros(v.size)
    for k in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[k] += h
        vm[k] -= h
        grad[k] = (sg.cost_j(chart_x(vp), forms) - sg.cost_j(chart_x(vm), forms)) / (2 * h)
    return grad


def grid_max_j_l2(forms, grid: int = 2000, zoom_steps: int = 8) -> float:
    """Exhaustive derivative-free maximum of J for L = 2 and forms
    (psi, gamma_m).

    Canonical points are x = [cos(a), sin(a) e^{jb}] with a in (0, pi/2),
    b in [0, 2pi). They are unit vectors, so the |x|^2 term of J is 0. A
    dense polar grid locates the basin; repeated local re-gridding around
    the argmax then shrinks the cell until the objective is resolved well
    below 1e-6. Never touches gradients.
    """
    psi, gamma_m = forms

    def eval_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a: (ka, 1), b: (1, kb); returns J on the product grid
        ca, sa = np.cos(a), np.sin(a)
        e_jb = np.exp(1j * b)

        def form(m: np.ndarray) -> np.ndarray:
            return (
                m[0, 0].real * ca**2
                + m[1, 1].real * sa**2
                + 2.0 * ca * sa * (m[0, 1] * e_jb).real
            )

        return np.log(ca**2) + np.log(form(psi)) - np.log(form(gamma_m))

    lo_a, hi_a = 1e-9, np.pi / 2 - 1e-9
    lo_b, hi_b = 0.0, 2 * np.pi
    best = -np.inf
    for step in range(zoom_steps):
        a = np.linspace(lo_a, hi_a, grid).reshape(-1, 1)
        b = np.linspace(lo_b, hi_b, grid).reshape(1, -1)
        block = 200
        best_val, best_ij = -np.inf, (0, 0)
        for i0 in range(0, grid, block):
            vals = eval_block(a[i0 : i0 + block], b)
            k = int(np.argmax(vals))
            i, j = divmod(k, grid)
            if vals[i, j] > best_val:
                best_val, best_ij = float(vals[i, j]), (i0 + i, j)
        best = max(best, best_val)
        i, j = best_ij
        da = (hi_a - lo_a) / (grid - 1)
        db = (hi_b - lo_b) / (grid - 1)
        ai, bj = lo_a + i * da, lo_b + j * db
        lo_a, hi_a = max(ai - 2 * da, 1e-9), min(ai + 2 * da, np.pi / 2 - 1e-9)
        lo_b, hi_b = bj - 2 * db, bj + 2 * db
        grid = 81  # one dense sweep, then local refinement passes
    return best


def det_m_direct(
    s: sg.BlockSampleCov, u_s: np.ndarray, u_r: np.ndarray, q_grid: np.ndarray
) -> np.ndarray:
    """det M(q, S_rr) over a complex grid, assembled from the raw blocks."""
    t_r = np.linalg.solve(s.s_rr, u_r)
    w = s.s_sr @ t_r
    e_rr = float((t_r.conj() @ (s.s_rr @ t_r)).real)
    uu = np.outer(u_s, u_s.conj())
    uw = np.outer(u_s, w.conj())
    wu = np.outer(w, u_s.conj())
    q = q_grid.reshape(-1, 1, 1)
    m = s.s_ss[None, :, :] + (np.abs(q) ** 2 * e_rr) * uu - q * uw - np.conj(q) * wu
    return np.linalg.det(m).real
