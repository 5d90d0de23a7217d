import numpy as np
import pytest
import scipy.optimize

import subspace_glr as sg
from subspace_glr import optimizer
from subspace_glr.optimizer import random_start, solve_subproblem
from _utils import chart_x, fd_gradient, grid_max_j_l2, make_instance


def identity_forms(dim):
    eye = np.eye(dim, dtype=complex)
    return eye, eye


def beamformed_forms(s, steer):
    """The beamformer pair of an instance and the exact cost's forms
    (psi, gamma_m) built from it."""
    pair = sg.capon_pair(s, steer.u_s, steer.u_r)
    return pair, sg.cost_forms(sg.coherence_matrix(s), pair)


def instance_forms(seed, L=3):
    s, steer, _ = make_instance(seed=seed, L=L)
    return (s, steer) + beamformed_forms(s, steer)


def warm_start(dim):
    """The detector's warm start e1."""
    return np.eye(1, dim, dtype=complex)[0]


class TestCostJ:
    def test_identity_context_closed_form(self):
        forms = identity_forms(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            if abs(x[0]) < 1e-3:
                continue
            # second log term cancels when psi equals gamma
            want = np.log(abs(x[0]) ** 2 / np.vdot(x, x).real)
            assert sg.cost_j(x, forms) == pytest.approx(want, rel=1e-12)
            assert sg.cost_j(x, forms) <= 1e-15

    def test_scale_invariance(self):
        _, _, _, forms = instance_forms(seed=30)
        x = random_start(3, np.random.default_rng(1))
        assert sg.cost_j(3j * x, forms) == pytest.approx(sg.cost_j(x, forms), abs=1e-12)

    def test_first_basis_vector_value(self):
        _, _, _, (psi, gamma_m) = instance_forms(seed=31)
        e1 = np.zeros(3, dtype=complex)
        e1[0] = 1.0
        want = np.log(psi[0, 0].real / gamma_m[0, 0].real)
        assert sg.cost_j(e1, (psi, gamma_m)) == pytest.approx(want, rel=1e-12)

    def test_vanishing_first_entry(self):
        _, _, _, forms = instance_forms(seed=32)
        x = np.array([0.0, 1.0, 0.5j])
        assert sg.cost_j(x, forms) == -np.inf

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            sg.cost_j(np.zeros(3, dtype=complex), identity_forms(3))

    @pytest.mark.parametrize("L", [1, 2, 4, 8])
    def test_is_the_ascents_value(self, L):
        # cost_j evaluates J as the ascent does: its value at a start is the
        # first entry of the ascent's trace, bit for bit.
        rng = np.random.default_rng(50 + L)
        for seed in range(5):
            s, steer, _ = make_instance(seed=900 + seed, L=L)
            _, forms = beamformed_forms(s, steer)
            for x0 in (warm_start(L), random_start(L, rng), 2.5j * random_start(L, rng)):
                assert sg.cost_j(x0, forms) == sg.maximize_j(forms, x0).j_trace[0]


class TestGradJ:
    def test_vanishes_at_identity_maximizer(self):
        grad, _ = sg.grad_hess_j(warm_start(4), identity_forms(4))
        assert np.linalg.norm(grad) <= 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        checked = 0
        for seed in range(4):
            _, _, _, forms = instance_forms(seed=600 + seed, L=3)
            for _ in range(5):
                x = random_start(3, rng)
                g, _ = sg.grad_hess_j(x, forms)
                fd = fd_gradient(x, forms)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
                checked += 1
        assert checked == 20


class TestHessJ:
    def test_matches_fd_of_gradient(self):
        _, _, _, forms = instance_forms(seed=34)
        rng = np.random.default_rng(4)
        x = random_start(3, rng)
        _, h = sg.grad_hess_j(x, forms)
        assert np.allclose(h, h.T, atol=1e-10)
        y = x[1:] / x[0]
        v = np.concatenate([y.real, y.imag])
        step = 1e-6
        fd = np.empty_like(h)
        for k in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[k] += step
            vm[k] -= step
            gp, _ = sg.grad_hess_j(chart_x(vp), forms)
            gm, _ = sg.grad_hess_j(chart_x(vm), forms)
            fd[:, k] = (gp - gm) / (2 * step)
        assert np.max(np.abs(h - fd)) <= 1e-4 * max(1.0, np.max(np.abs(h)))


class TestMaximizeJ:
    def test_identity_context_converges_to_e1(self):
        forms = identity_forms(4)
        rng = np.random.default_rng(6)
        for _ in range(3):
            res = sg.maximize_j(forms, random_start(4, rng))
            assert res.converged
            assert abs(res.x_hat[0]) >= 1.0 - 1e-8
            assert res.j_value == pytest.approx(0.0, abs=1e-10)

    def test_trace_non_decreasing(self):
        for seed in range(5):
            _, _, _, forms = instance_forms(seed=700 + seed)
            res = sg.maximize_j(forms, random_start(3, np.random.default_rng(seed)))
            trace = np.asarray(res.j_trace)
            assert trace.size >= 1
            assert np.all(np.diff(trace) >= 0)

    def test_phase_invariant_start(self):
        _, _, _, forms = instance_forms(seed=36)
        x0 = warm_start(3)
        base = sg.maximize_j(forms, x0)
        rotated = sg.maximize_j(forms, np.exp(1.7j) * x0)
        assert np.max(np.abs(base.x_hat - rotated.x_hat)) <= 1e-8

    def test_stationary_when_converged(self):
        _, _, _, forms = instance_forms(seed=37)
        res = sg.maximize_j(forms, warm_start(3))
        assert res.converged
        grad, _ = sg.grad_hess_j(res.x_hat, forms)
        assert np.linalg.norm(grad) <= 1e-7

    def test_result_is_canonical(self):
        _, _, _, forms = instance_forms(seed=38)
        res = sg.maximize_j(forms, warm_start(3))
        assert np.linalg.norm(res.x_hat) == pytest.approx(1.0, abs=1e-10)
        assert res.x_hat[0].imag == 0.0
        assert res.x_hat[0].real >= 0.0

    def test_beats_grid_oracle_two_sensors(self):
        _, _, _, forms = instance_forms(seed=39, L=2)
        res = sg.maximize_j(forms, warm_start(2))
        grid_best = grid_max_j_l2(forms, grid=400, zoom_steps=6)
        assert res.j_value >= grid_best - 1e-6

    def test_warm_start_ascent_stops_on_gradient(self):
        # The stop test reads converged whenever no step can raise J beyond
        # its roundoff, so no ascent from the warm start ends unconverged.
        iterations = []
        for seed in range(200):
            s, steer, _ = make_instance(
                seed, L=4, N=15, snr_s_db=0.0, snr_r_db=0.0, hypothesis="H0"
            )
            _, forms = beamformed_forms(s, steer)
            res = sg.maximize_j(forms, warm_start(4))
            assert res.stop_reason == "gradient", f"seed {seed}: {res.stop_reason}"
            assert res.converged
            iterations.append(res.iterations)
        assert max(iterations) > 1

    def test_high_snr_ula_iterations(self):
        # L=8 ULA trials at 40/40 dB are the slowest surface seen: the
        # Steihaug chart ascent took 27.4 mean H1 iterations (max 40) and
        # the earlier flat coordinates 21.6; the exact step takes 15.8 (24)
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=8, N=20, snr_s_db=40.0, snr_r_db=40.0, seed=6),
            trials_h0=1, trials_h1=150, steering_mode="ula-random-doa", detectors=("glr",),
        )
        scores = sg.run_trials(cfg, threads=1)
        h1 = slice(cfg.trials_h0, None)
        assert all(sg.STOP_REASONS[code] == "gradient" for code in scores.stop[h1])
        assert np.mean(scores.iterations[h1]) <= 18.0

    def test_stops_on_max_iter(self, monkeypatch):
        _, _, _, forms = instance_forms(seed=40, L=4)
        x0 = warm_start(4)
        assert sg.maximize_j(forms, x0).iterations > 1
        monkeypatch.setattr(optimizer, "MAX_ITER", 1)
        res = sg.maximize_j(forms, x0)
        assert res.stop_reason == "max_iter"
        assert res.iterations == 1
        assert not res.converged

    def test_stops_on_radius(self, monkeypatch):
        # A first step of length 10 from the warm start overshoots and is
        # rejected; the shrunken radius then falls below MIN_RADIUS.
        _, _, _, forms = instance_forms(seed=41, L=4)
        monkeypatch.setattr(optimizer, "INITIAL_RADIUS", 10.0)
        monkeypatch.setattr(optimizer, "MIN_RADIUS", 5.0)
        res = sg.maximize_j(forms, warm_start(4))
        assert res.stop_reason == "radius"
        assert not res.converged
        assert res.j_trace.size == 1

    def test_rejects_start_off_the_chart(self):
        _, _, _, forms = instance_forms(seed=42)
        with pytest.raises(ValueError, match="start point"):
            sg.maximize_j(forms, np.array([0.0, 1.0, 0.5j]))

    def test_warm_start_value_matches_sample_approximation(self):
        # At the warm start the likelihood ratio equals 1 + glr_sample exactly.
        for seed in range(5):
            s, steer, data = make_instance(seed=800 + seed, L=3)
            _, forms = beamformed_forms(s, steer)
            lam_app = sg.glr_sample(s, steer.u_s, steer.u_r)
            assert np.exp(sg.cost_j(warm_start(3), forms)) == pytest.approx(1.0 + lam_app, rel=1e-8)


def brute_force_gain(g, h, radius, samples=200_000):
    """Largest g.p + p.H.p/2 over |p| <= radius, without the eigenbasis: the
    stationary point -H^{-1} g when H is negative definite and it fits, and
    the best of a dense random sample of the sphere refined by Nelder-Mead."""

    def gain(p):
        return g @ p + 0.5 * p @ h @ p

    best = -np.inf
    if np.all(np.linalg.eigvalsh(h) < 0):
        p = np.linalg.solve(h, -g)
        if np.linalg.norm(p) <= radius:
            best = gain(p)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((samples, g.size))
    v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
    vals = v @ g + 0.5 * np.einsum("si,ij,sj->s", v, h, v)
    for k in np.argsort(vals)[-3:]:
        res = scipy.optimize.minimize(
            lambda w: -gain(radius * w / np.linalg.norm(w)), v[k], method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20000},
        )
        best = max(best, -res.fun)
    return best


def rotated(eigenvalues, seed):
    """A symmetric matrix with the given eigenvalues and a random eigenbasis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    return q @ np.diag(eigenvalues) @ q.T, q


def subproblem_cases():
    rng = np.random.default_rng(9)
    cases = {}
    # interior: H negative definite, the Newton step fits
    h, _ = rotated([-1.0, -2.0, -3.0, -0.5], 1)
    cases["interior"] = (0.1 * rng.standard_normal(4), h, 10.0)
    # boundary, H indefinite
    h, _ = rotated([-1.0, 0.5, 2.0, -0.3], 2)
    cases["boundary-indefinite"] = (rng.standard_normal(4), h, 1.0)
    # boundary, H negative definite but the Newton step too long
    h, _ = rotated([-0.1, -2.0, -3.0, -1.0], 3)
    cases["boundary-definite"] = (rng.standard_normal(4), h, 0.5)
    # hard case: g has no component on the eigenvector of the largest
    # eigenvalue of H, which is positive, and the radius exceeds the pole's
    # step; exact zero in a diagonal basis, roundoff in a rotated one
    cases["hard-exact"] = (np.array([0.7, 0.0, -0.4, 0.2]), np.diag([-3.0, 2.0, -1.0, -0.5]), 2.0)
    h, q = rotated([-3.0, 2.0, -1.0, -0.5], 4)
    cases["hard-rotated"] = (q @ np.array([0.7, 0.0, -0.4, 0.2]), h, 2.0)
    # the same orthogonal g with a radius below the pole's step (0.209):
    # not the hard case, the root lies right of the pole
    cases["orthogonal-not-hard"] = (np.array([0.7, 0.0, -0.4, 0.2]), np.diag([-3.0, 2.0, -1.0, -0.5]), 0.15)
    return cases


def spectral_stack(lam, rng):
    """Symmetric matrices q diag(lam) q^T with random orthogonal q, one per
    row of lam (T, n)."""
    q = np.linalg.qr(rng.standard_normal(lam.shape + lam.shape[-1:]))[0]
    b = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
    return 0.5 * (b + np.swapaxes(b, 1, 2))


def semidefinite_stack(count, n, rng):
    """Singular positive semidefinite matrices l l^T whose column Cholesky is
    exact: l is lower triangular with integer entries, diagonal entries that
    are powers of two and one zero, so the pivot there is exactly 0 for any
    order of the arithmetic."""
    low = np.tril(rng.integers(-3, 4, (count, n, n)).astype(float), -1)
    diag = 2.0 ** rng.integers(0, 3, (count, n))
    diag[np.arange(count), rng.integers(0, n, count)] = 0.0
    low += diag[:, :, None] * np.eye(n)
    return low @ np.swapaxes(low, 1, 2)


def definiteness_stack(count, n, rng):
    """Positive definite, semidefinite, indefinite and NaN matrices, in
    random order, with LAPACK's verdict on each: np.linalg.cholesky
    succeeds with a finite factor (OpenBLAS lets a NaN pivot pass)."""
    kinds = rng.permutation(np.arange(count) % 4)
    lam = 10.0 ** rng.uniform(-3, 3, (count, n))
    lam[kinds == 2, 0] *= -1.0  # indefinite
    b = spectral_stack(lam, rng)
    b[kinds == 1] = semidefinite_stack(int(np.sum(kinds == 1)), n, rng)
    for i in np.flatnonzero(kinds == 3):  # NaN on or below the diagonal
        j, k = sorted(rng.integers(0, n, 2))
        b[i, k, j] = b[i, j, k] = np.nan
    verdict = np.ones(count, dtype=bool)
    for i in range(count):
        try:
            verdict[i] = np.all(np.isfinite(np.linalg.cholesky(b[i])))
        except np.linalg.LinAlgError:
            verdict[i] = False
    return b, kinds, verdict


class TestSolveSubproblem:
    @pytest.mark.parametrize("name", list(subproblem_cases()))
    def test_matches_brute_force(self, name):
        g, h, radius = subproblem_cases()[name]
        p, gain = solve_subproblem(g[None], h[None], np.array([radius]))
        p, gain = p[0], gain[0]
        assert np.linalg.norm(p) <= radius * (1.0 + 1e-12)
        assert gain == pytest.approx(g @ p + 0.5 * p @ h @ p, rel=1e-12)
        assert gain >= brute_force_gain(g, h, radius) - 1e-10
        if name == "interior":
            assert np.allclose(p, np.linalg.solve(h, -g), rtol=1e-12, atol=0.0)
        else:
            assert np.linalg.norm(p) == pytest.approx(radius, rel=1e-12)

    def test_mixed_stack_rows_equal_rows_alone(self):
        cases = list(subproblem_cases().values())
        g = np.stack([c[0] for c in cases])
        h = np.stack([c[1] for c in cases])
        radius = np.array([c[2] for c in cases])
        p, gain = solve_subproblem(g, h, radius)
        for i in range(len(cases)):
            p1, gain1 = solve_subproblem(g[i : i + 1], h[i : i + 1], radius[i : i + 1])
            assert np.array_equal(p1[0], p[i]) and gain1[0] == gain[i]

    def test_random_stacks_match_bisection(self):
        # clustered and near-hard spectra over five decades of scale, against
        # bisection on |p| = radius in the shift delta = lam_1 + s; every
        # stacked row equals the row solved alone
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            count = 150
            lam = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-3, 2, (count, 1))
            lam[::3, 1] = lam[::3, 0] + 1e-12  # near-double eigenvalue
            q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
            h = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
            c = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-4, 1, (count, 1))
            rows = np.arange(1, count, 3)
            c[rows, np.argmax(lam[rows], axis=1)] = 1e-12  # near-hard
            g = np.einsum("tij,tj->ti", q, c)
            h = 0.5 * (h + np.swapaxes(h, 1, 2))
            radius = 10.0 ** rng.uniform(-3, 1, count)
            p, gain = solve_subproblem(g, h, radius)
            lam_b, vec = np.linalg.eigh(-h)
            cb = -np.einsum("tji,tj->ti", vec, g)
            d = lam_b - lam_b[:, :1]
            lo = np.maximum(lam_b[:, 0], 0.0)  # s = max(0, -lam_1)
            hi = lo + np.linalg.norm(cb, axis=1) / radius + 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                with np.errstate(divide="ignore"):
                    long = np.linalg.norm(cb / (d + mid[:, None]), axis=1) > radius
                lo, hi = np.where(long, mid, lo), np.where(long, hi, mid)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = -cb / lam_b
                inside = (lam_b[:, 0] > 0) & (np.linalg.norm(newton, axis=1) <= radius)
                pb = np.where(inside[:, None], newton, -cb / (d + hi[:, None]))
            ref = -np.sum(cb * pb + 0.5 * lam_b * pb * pb, axis=1)
            model = np.einsum("ti,ti->t", g, p) + 0.5 * np.einsum("ti,tij,tj->t", p, h, p)
            scale = np.abs(ref) + np.linalg.norm(g, axis=1) * radius + np.max(np.abs(lam_b), axis=1) * radius**2
            assert np.all(np.linalg.norm(p, axis=1) <= radius * (1 + 1e-12))
            assert np.all(model >= ref - 1e-10 * scale)
            assert np.allclose(gain, model, rtol=0, atol=1e-10 * scale.max())
            for i in range(0, count, 10):
                p1, gain1 = solve_subproblem(g[i : i + 1], h[i : i + 1], radius[i : i + 1])
                assert np.array_equal(p1[0], p[i]) and gain1[0] == gain[i]

    def test_newton_rows_skip_the_eigendecomposition(self, monkeypatch):
        # -H positive definite and every Newton step inside its radius: the
        # step and gain of the eigen path, without an eigendecomposition
        rng = np.random.default_rng(21)
        for n in (2, 6, 14):
            h = -spectral_stack(10.0 ** rng.uniform(-1, 1, (40, n)), rng)
            g = rng.standard_normal((40, n))
            radius = 1.5 * np.linalg.norm(np.linalg.solve(-h, g[..., None])[..., 0], axis=1)
            p_ref, gain_ref = optimizer._eigen_step(g, h, radius)

            def refuse(*args, **kwargs):
                raise AssertionError("eigh called on a Newton stack")

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", refuse)
                p, gain = solve_subproblem(g, h, radius)
            err = np.linalg.norm(p - p_ref, axis=1) / np.linalg.norm(p_ref, axis=1)
            assert np.all(err <= 1e-12), (n, err.max())
            np.testing.assert_allclose(gain, gain_ref, rtol=1e-12, atol=0.0)

    def test_only_fallback_rows_reach_the_eigen_path(self, monkeypatch):
        # Newton rows, Newton steps outside the radius, indefinite and
        # negative definite -H, singular semidefinite -H: only the first
        # kind skips _eigen_step, and every row equals the row solved alone
        rng = np.random.default_rng(22)
        n, count = 6, 50
        kinds = rng.permutation(np.arange(count) % 5)
        lam = 10.0 ** rng.uniform(-1, 1, (count, n))
        lam[kinds == 2, :2] *= -1.0
        lam[kinds == 3] *= -1.0
        b = spectral_stack(lam, rng)
        b[kinds == 4] = semidefinite_stack(int(np.sum(kinds == 4)), n, rng)
        g = rng.standard_normal((count, n))
        definite = kinds < 2
        newton = np.linalg.norm(np.linalg.solve(b[definite], g[definite, :, None])[..., 0], axis=1)
        radius = np.ones(count)
        radius[definite] = np.where(kinds[definite] == 0, 2.0, 0.5) * newton
        seen = []
        real = optimizer._eigen_step

        def recorded(grad, hess, rad):
            seen.append(grad.copy())
            return real(grad, hess, rad)

        monkeypatch.setattr(optimizer, "_eigen_step", recorded)
        p, gain = solve_subproblem(g, -b, radius)
        assert len(seen) == 1 and np.array_equal(seen[0], g[kinds != 0])
        for i in range(count):
            p1, gain1 = solve_subproblem(g[i : i + 1], -b[i : i + 1], radius[i : i + 1])
            assert np.array_equal(p1[0], p[i]) and gain1[0] == gain[i]

    @pytest.mark.parametrize("n", [2, 6, 14])
    def test_definiteness_verdict_matches_lapack(self, n):
        # the column Cholesky's verdict is LAPACK's, matrix by matrix, on
        # definite, semidefinite, indefinite and NaN rows; a row gets the
        # same verdict, factor and step when it is solved alone
        rng = np.random.default_rng(23 + n)
        b, kinds, verdict = definiteness_stack(120, n, rng)
        low, ok = optimizer._cholesky(np.moveaxis(b, 0, -1).copy())
        assert np.array_equal(ok, verdict)
        assert set(kinds[~ok]) == {1, 2, 3} and set(kinds[ok]) == {0}
        ref = np.linalg.cholesky(b[ok])
        got = np.tril(np.moveaxis(low, -1, 0)[ok])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())
        finite = kinds != 3
        g = rng.standard_normal((120, n))
        radius = 10.0 ** rng.uniform(-2, 2, 120)
        p, gain = solve_subproblem(g[finite], -b[finite], radius[finite])
        for k, i in enumerate(np.flatnonzero(finite)):
            low1, ok1 = optimizer._cholesky(b[i][..., None].copy())
            assert ok1[0] == ok[i]
            assert not ok[i] or np.array_equal(low1[..., 0], low[..., i])
            p1, gain1 = solve_subproblem(g[i : i + 1], -b[i : i + 1], radius[i : i + 1])
            assert np.array_equal(p1[0], p[k]) and gain1[0] == gain[k]

    def test_single_sensor_chart_takes_no_step(self):
        p, gain = solve_subproblem(np.zeros((3, 0)), np.zeros((3, 0, 0)), np.ones(3))
        assert p.shape == (3, 0) and np.array_equal(gain, np.zeros(3))


class TestRandomStart:
    def test_canonical_and_reproducible(self):
        a = random_start(5, np.random.default_rng(7))
        b = random_start(5, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert a[0].real > 0 and a[0].imag == 0.0
