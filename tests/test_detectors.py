import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

import subspace_glr as sg
from subspace_glr import detectors
from subspace_glr.covariance import adjoint, hermitize
from subspace_glr.detectors import _ZERO_CHANNEL, COHERENCE_FLOOR
from _reference import (
    _profile_gradient,
    _profile_objective,
    distortionless_pair,
    family_certificate,
    family_grid_oracle,
    glr_by_eigvalsh,
    low_snr_qsr,
    m_matrix,
    ml_qsr,
    oracle_glr,
    random_start,
    substream,
    svd_corr,
    synth_batch,
    unpack_cholesky,
)
from _utils import det_m_direct, make_instance, null_cov, rand_unit


def scaled_instance(seed, c_s, c_r, L=3, N=None):
    s, steer, data = make_instance(seed=seed, L=L, N=N)
    scaled = sg.block_sample_cov(c_s * data.y_s, c_r * data.y_r)
    return s, scaled, steer, data


def pinned_near_2l():
    """Trial 71 of H0 at seed 101, L = 4, N = 8, 10/10 dB, on the per-trial
    substreams: a record whose ascent from e1 stops at a local maximum.
    Returns its sample covariance, steering pair and cost forms."""
    _, steer, data = make_instance(seed=101, L=4, N=8, snr_s_db=10.0, snr_r_db=10.0,
                                   hypothesis="H0", index=71)
    s = sg.block_sample_cov(data.y_s, data.y_r)
    return s, steer, sg.cost_forms(sg.coherence_matrix(s), sg.capon_pair(s, steer.u_s, steer.u_r))


class TestNullCrossBlock:
    def test_exact_statistic_is_one(self):
        for seed in range(5):
            s, steer, _ = make_instance(seed=seed, L=3)
            stat, res = sg.glr_exact(null_cov(s), steer.u_s, steer.u_r)
            assert stat == pytest.approx(1.0, abs=1e-6)
            assert res.converged

    def test_closed_forms_are_zero(self):
        s, steer, _ = make_instance(seed=6, L=4)
        s0 = null_cov(s)
        assert sg.glr_sample(s0, steer.u_s, steer.u_r) == 0.0
        assert sg.glr_low(s0, steer.u_s, steer.u_r) == 0.0
        assert sg.sigma_max_coherence(s0) == 0.0
        assert sg.cross_corr_stat(s0) == 0.0
        assert ml_qsr(s0, steer.u_s, steer.u_r) == 0.0

    def test_oracle_agrees(self):
        s, steer, _ = make_instance(seed=7, L=2)
        assert oracle_glr(null_cov(s), steer.u_s, steer.u_r, n_restarts=2) == pytest.approx(
            1.0, abs=1e-6
        )


class TestScaleInvariance:
    def test_positive_scalings_five_invariant(self):
        for seed, (c_s, c_r) in enumerate([(1e-3, 1.0), (1e3, 1e-3), (1e3, 1e3)]):
            s, scaled, steer, _ = scaled_instance(900 + seed, c_s, c_r)
            base_exact, _ = sg.glr_exact(s, steer.u_s, steer.u_r)
            got_exact, _ = sg.glr_exact(scaled, steer.u_s, steer.u_r)
            assert got_exact == pytest.approx(base_exact, rel=1e-9)
            for fn in (sg.glr_sample, sg.glr_low):
                assert fn(scaled, steer.u_s, steer.u_r) == pytest.approx(
                    fn(s, steer.u_s, steer.u_r), rel=1e-9
                )
            assert sg.sigma_max_coherence(scaled) == pytest.approx(
                sg.sigma_max_coherence(s), rel=1e-9
            )
            assert sg.svd_corr_stat(scaled) == pytest.approx(
                sg.svd_corr_stat(s), rel=1e-9
            )

    def test_exact_statistic_scale_free_to_roundoff(self):
        # the cost's forms carry no units of the channels, so rescaling them
        # moves log Lambda^{1/N} by roundoff only, not by a stop tolerance
        # that grows with |log(beta_s beta_r)|
        cfg = sg.ScenarioConfig(L=4, N=100, snr_s_db=0.0, snr_r_db=0.0, seed=11)
        u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", [("H0", k) for k in range(100)])

        def log_glr(c_s, c_r):
            scores = sg.score_batch(
                sg.block_sample_cov(c_s * y_s, c_r * y_r), u_s, u_r, detectors=("glr",)
            )
            return np.log(scores.stat("glr"))

        base = log_glr(1.0, 1.0)
        for c_s, c_r in [(1e3, 1e-3), (1e-4, 1e-4), (1e5, 1e5)]:
            assert np.max(np.abs(log_glr(c_s, c_r) - base)) <= 1e-14

    def test_per_channel_basis_invariance(self):
        # y_i -> A_i y_i with u_i -> A_i u_i / |A_i u_i| is a change of sensor
        # basis in each channel; the four whitened statistics do not see it
        rng = np.random.default_rng(15)
        for k in range(20):
            L = 2 + k % 5
            s, steer, data = make_instance(seed=950 + k, L=L)
            a_s, a_r = (rng.standard_normal((2, L, L)) + 1j * rng.standard_normal((2, L, L)))
            u_s, u_r = a_s @ steer.u_s, a_r @ steer.u_r
            u_s, u_r = u_s / np.linalg.norm(u_s), u_r / np.linalg.norm(u_r)
            moved = sg.block_sample_cov(a_s @ data.y_s, a_r @ data.y_r)
            assert sg.glr_exact(moved, u_s, u_r)[0] == pytest.approx(
                sg.glr_exact(s, steer.u_s, steer.u_r)[0], rel=1e-9
            )
            for fn in (sg.glr_sample, sg.glr_low):
                assert fn(moved, u_s, u_r) == pytest.approx(fn(s, steer.u_s, steer.u_r), rel=1e-9)
            assert sg.sigma_max_coherence(moved) == pytest.approx(sg.sigma_max_coherence(s), rel=1e-9)

    def test_cross_corr_scales_exactly(self):
        # the one deliberately non-invariant statistic: raw Frobenius energy
        for seed, (c_s, c_r) in enumerate([(1e-3, 1.0), (1e3, 1e-3), (7.0, 0.2)]):
            s, scaled, _, _ = scaled_instance(905 + seed, c_s, c_r)
            assert sg.cross_corr_stat(scaled) == pytest.approx(
                (c_s * c_r) ** 2 * sg.cross_corr_stat(s), rel=1e-10
            )

    def test_complex_scalings_proposed_three(self):
        c_s, c_r = 2.0 * np.exp(0.7j), 0.05 * np.exp(-2.1j)
        s, scaled, steer, _ = scaled_instance(910, c_s, c_r)
        base_exact, _ = sg.glr_exact(s, steer.u_s, steer.u_r)
        got_exact, _ = sg.glr_exact(scaled, steer.u_s, steer.u_r)
        assert got_exact == pytest.approx(base_exact, rel=1e-9)
        for fn in (sg.glr_sample, sg.glr_low):
            assert fn(scaled, steer.u_s, steer.u_r) == pytest.approx(
                fn(s, steer.u_s, steer.u_r), rel=1e-9
            )


class TestLowSnrIdentities:
    def test_three_expressions_agree(self):
        for seed in range(20):
            s, steer, _ = make_instance(seed=1000 + seed, L=3)
            lam = sg.glr_low(s, steer.u_s, steer.u_r)
            pair = sg.capon_pair(s, steer.u_s, steer.u_r)
            b_s, b_r = distortionless_pair(s, steer.u_s, steer.u_r)
            capon_form = abs(np.vdot(b_s, s.s_sr @ b_r)) ** 2 / (
                np.vdot(b_s, s.s_ss @ b_s).real
                * np.vdot(b_r, s.s_rr @ b_r).real
            )
            whitened_form = abs(np.vdot(pair.w_s, sg.coherence_matrix(s) @ pair.w_r)) ** 2
            assert capon_form == pytest.approx(lam, rel=1e-10)
            assert whitened_form == pytest.approx(lam, rel=1e-10)

    def test_inflation_identity(self):
        for seed in range(20):
            s, steer, _ = make_instance(seed=1100 + seed, L=3)
            lam_low = sg.glr_low(s, steer.u_s, steer.u_r)
            lam_app = sg.glr_sample(s, steer.u_s, steer.u_r)
            pair = sg.capon_pair(s, steer.u_s, steer.u_r)
            c = sg.coherence_matrix(s)
            shrink = np.vdot(pair.w_r, c.conj().T @ c @ pair.w_r).real
            assert lam_app == pytest.approx(lam_low / (1.0 - shrink), rel=1e-10)

    def test_coherence_bound(self):
        for seed in range(20):
            s, steer, _ = make_instance(seed=1200 + seed, L=4)
            lam_low = sg.glr_low(s, steer.u_s, steer.u_r)
            smax = sg.sigma_max_coherence(s)
            assert lam_low <= smax**2 + 1e-12
            pair = sg.capon_pair(s, steer.u_s, steer.u_r)
            inner = abs(np.vdot(pair.w_s, sg.coherence_matrix(s) @ pair.w_r))
            assert smax >= inner - 1e-12

    def test_sigma_max_matches_square_root_whitening(self):
        # reference: top singular value of S_ss^{-1/2} S_sr S_rr^{-1/2},
        # Hermitian inverse square roots built here from eigendecompositions
        def inv_sqrt(a):
            w, v = np.linalg.eigh(a)
            return (v / np.sqrt(w)) @ v.conj().T

        for L in (2, 4, 8):
            for seed in range(5):
                s, _, _ = make_instance(seed=1250 + 10 * L + seed, L=L)
                c = inv_sqrt(s.s_ss) @ s.s_sr @ inv_sqrt(s.s_rr)
                want = np.linalg.svd(c, compute_uv=False)[0]
                assert sg.sigma_max_coherence(s) == pytest.approx(want, rel=1e-12)


class TestScalarCase:
    def test_low_snr_is_squared_coherence(self):
        s = sg.BlockSampleCov(
            np.array([[2.0]]), np.array([[1.0 + 1.0j]]), np.array([[4.0]]), n=3
        )
        one = np.array([1.0 + 0j])
        want = abs(1.0 + 1.0j) ** 2 / 8.0
        assert sg.glr_low(s, one, one) == pytest.approx(want, rel=1e-12)
        assert sg.sigma_max_coherence(s) == pytest.approx(np.sqrt(want), rel=1e-12)

    def test_exact_single_sensor(self):
        rng = np.random.default_rng(8)
        y_s = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        y_r = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        s = sg.block_sample_cov(y_s, y_r)
        one = np.array([1.0 + 0j])
        stat, res = sg.glr_exact(s, one, one)
        assert res.iterations == 0 and res.converged
        assert stat >= 1.0 - 1e-12
        # scalar blocks admit a closed form: 1 / (1 - squared coherence)
        rho2 = sg.glr_low(s, one, one)
        assert stat == pytest.approx(1.0 / (1.0 - rho2), rel=1e-10)


class TestExactStatistic:
    def test_dominates_sample_approximation(self):
        for seed in range(10):
            s, steer, _ = make_instance(seed=1300 + seed, L=3)
            stat, _ = sg.glr_exact(s, steer.u_s, steer.u_r)
            lam_app = sg.glr_sample(s, steer.u_s, steer.u_r)
            assert stat >= 1.0 + lam_app - 1e-8

    def test_matches_brute_force_oracle(self):
        for seed in range(2):
            s, steer, _ = make_instance(seed=1400 + seed, L=2, N=50)
            stat, _ = sg.glr_exact(s, steer.u_s, steer.u_r)
            ref = oracle_glr(s, steer.u_s, steer.u_r, n_restarts=4, seed=seed)
            assert stat == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("L", [2, 3])
    def test_oracle_gradient_matches_central_differences(self, L):
        # the analytic gradient BFGS gets in oracle_glr, against central
        # differences of the profiled objective, at random factors T
        rng = np.random.default_rng(1700 + L)
        h = 1e-6
        for seed in range(3):
            s, steer, _ = make_instance(seed=1700 + 10 * L + seed, L=L, N=50)
            for _ in range(2):
                theta = 0.5 * rng.standard_normal(L * L)
                grad = _profile_gradient(s, steer.u_s, steer.u_r, unpack_cholesky(theta, L))
                fd = np.zeros_like(theta)
                for k in range(theta.size):
                    step = h * np.eye(1, theta.size, k)[0]
                    fd[k] = (
                        _profile_objective(s, steer.u_s, steer.u_r, unpack_cholesky(theta + step, L))
                        - _profile_objective(s, steer.u_s, steer.u_r, unpack_cholesky(theta - step, L))
                    ) / (2 * h)
                assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    def test_single_sensor_is_sample_approximation(self):
        # at L = 1 the warm start is the only ray, so no step is taken and
        # the exact statistic is 1 + glr_sample
        for seed in range(5):
            s, steer, _ = make_instance(seed=1550 + seed, L=1)
            stat, res = sg.glr_exact(s, steer.u_s, steer.u_r)
            assert res.iterations == 0 and res.converged
            assert stat == pytest.approx(1.0 + sg.glr_sample(s, steer.u_s, steer.u_r), rel=1e-12)

    def test_restarts_escape_a_local_maximum_near_n_2l(self):
        # Near N = 2L the ascent from e1 can stop at a local maximum. Here e1
        # stops on the gradient test at glr = 1.117 while maximize_j from e1
        # and 16 random starts reaches 31.307, which an independent BFGS
        # search over R_rr with 160 starts also reaches.
        s, steer, forms = pinned_near_2l()
        warm = sg.compute_report(s, steer, ("glr",))[1]
        starts = [np.eye(1, 4, dtype=complex)[0]] + [random_start(4, substream(0, k)) for k in range(16)]
        restarted = max((sg.maximize_j(forms, x0) for x0 in starts), key=lambda r: r.j_value)
        assert warm.stop_reason == "gradient"
        assert restarted.j_value > warm.j_value + 1.0

    def test_oracle_feasibility_bound(self):
        for seed in range(3):
            s, steer, _ = make_instance(seed=1500 + seed, L=2)
            ref = oracle_glr(s, steer.u_s, steer.u_r, n_restarts=2, seed=seed)
            lam_app = sg.glr_sample(s, steer.u_s, steer.u_r)
            assert ref >= 1.0 + lam_app - 1e-6


class TestFamilyGridOracle:
    # Every stationary point of J lies on the family
    # x(t, rho) = (I + t gamma_m)^{-1} (e1 + rho g). A fine grid on it plus
    # one polish sees the local maxima of the ascent from e1 near N = 2L,
    # which oracle_glr's search from the sample start does not.
    def test_never_below_the_warm_ascent_at_n_2l(self):
        for L in (2, 3, 4):
            cfg = sg.ScenarioConfig(L=L, N=2 * L, snr_s_db=10.0, snr_r_db=10.0, seed=101)
            u_s, u_r, s = sg.draw_sample_cov(cfg, [("H0", k) for k in range(12)])
            forms = sg.cost_forms(sg.coherence_matrix(s), sg.capon_pair(s, u_s, u_r))
            warm = np.log(sg.score_batch(s, u_s, u_r, ("glr",)).stats[:, 0])
            for i, j in enumerate(warm.tolist()):
                trial = (forms[0][i], forms[1][i])
                _, found = family_grid_oracle(trial)
                assert found.j_value >= j - 1e-12 * (1.0 + abs(j)), (L, i)
                for x in (found.x_hat, sg.maximize_j(trial, np.eye(1, L, dtype=complex)[0]).x_hat):
                    residual, j_family = family_certificate(trial, x)
                    assert residual <= 1e-5, (L, i)
                    assert j_family == pytest.approx(sg.cost_j(x, trial), abs=1e-12 * (1.0 + abs(j)))

    def test_sees_the_local_maximum_near_n_2l(self):
        s, steer, forms = pinned_near_2l()
        warm = sg.compute_report(s, steer, ("glr",))[1]
        grid_j, found = family_grid_oracle(forms)
        assert warm.j_value < grid_j <= found.j_value < grid_j + 1e-4  # the grid alone lands within 2e-5
        assert found.j_value > warm.j_value + 1.0
        assert found.j_value == pytest.approx(3.4438493648303607, rel=1e-12)  # 16 random restarts' value
        for x in (warm.x_hat, found.x_hat):
            residual, j_family = family_certificate(forms, x)
            assert residual <= 1e-5
            assert j_family == pytest.approx(sg.cost_j(x, forms), rel=1e-12)


class TestCrossGainEstimate:
    def test_zero_cross_block(self):
        s, steer, _ = make_instance(seed=41, L=3)
        assert ml_qsr(null_cov(s), steer.u_s, steer.u_r) == 0.0

    def test_grid_minimizes_determinant(self):
        for seed in range(3):
            s, steer, _ = make_instance(seed=1700 + seed, L=2)
            q_hat = ml_qsr(s, steer.u_s, steer.u_r)
            r = 3.0 * abs(q_hat)
            re = np.linspace(q_hat.real - r, q_hat.real + r, 41)
            im = np.linspace(q_hat.imag - r, q_hat.imag + r, 41)
            grid = re[:, None] + 1j * im[None, :]
            dets = det_m_direct(s, steer.u_s, steer.u_r, grid.ravel())
            d_hat = det_m_direct(s, steer.u_s, steer.u_r, np.array([q_hat]))[0]
            assert d_hat <= dets.min() + 1e-12 * abs(d_hat)

    def test_m_matrix_matches_direct_assembly(self):
        s, steer, _ = make_instance(seed=42, L=3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = complex(rng.standard_normal(), rng.standard_normal())
            m = m_matrix(s, steer.u_s, steer.u_r, q)
            want = det_m_direct(s, steer.u_s, steer.u_r, np.array([q]))[0]
            assert np.linalg.det(m).real == pytest.approx(want, rel=1e-10)

    def test_low_snr_trace_constraint(self):
        for seed in range(5):
            s, steer, _ = make_instance(seed=1800 + seed, L=3)
            q = low_snr_qsr(s, steer.u_s, steer.u_r)
            L = s.num_sensors
            cross = q * np.outer(steer.u_s, steer.u_r.conj())
            r1 = np.block([[s.s_ss, cross], [cross.conj().T, s.s_rr]])
            val = np.trace(np.linalg.solve(r1, s.full())).real
            assert val == pytest.approx(2 * L, abs=1e-8)


class TestComparisonStats:
    def test_svd_identical_channels(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        assert sg.svd_corr_stat(sg.block_sample_cov(y, y.copy())) == pytest.approx(1.0, rel=1e-12)

    def test_svd_noiseless_rank_one(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        h_s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = sg.block_sample_cov(np.outer(h_s, x), np.outer(h_r, x))
        assert sg.svd_corr_stat(s) == pytest.approx(1.0, rel=1e-10)

    def test_svd_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            sg.svd_corr_stat(sg.block_sample_cov(np.zeros((2, 4), complex), np.ones((2, 4), complex)))

    @pytest.mark.parametrize("mode", ["random-unit", "ula-random-doa"])
    @pytest.mark.parametrize("L", [1, 2, 4, 8])
    def test_svd_matches_snapshot_oracle(self, L, mode):
        # the top eigenpairs of S_ss and S_rr give the same statistic as the
        # dominant right singular vectors of the snapshot matrices
        cfg = sg.ScenarioConfig(L=L, N=4 * L, snr_s_db=0.0, snr_r_db=10.0, seed=70 + L)
        trials = [("H0", k) for k in range(32)] + [("H1", k) for k in range(32)]
        u_s, u_r, y_s, y_r = synth_batch(cfg, mode, trials)
        scores = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r, detectors=("t_svd",))
        got = scores.stat("t_svd")
        assert np.max(np.abs(got - svd_corr(y_s, y_r))) <= 1e-12

    def test_svd_zero_channel_fails_its_trial_only(self, monkeypatch):
        # t_svd factors nothing, so a zero channel reaches it and fails only
        # its own trial of the block
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=75)
        u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", [("H1", k) for k in range(4)])
        y_r[2] = 0.0

        def no_cholesky(*args, **kwargs):
            raise AssertionError("t_svd ran a Cholesky factorization")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        out = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r, detectors=("t_svd",))
        assert list(out.errors) == [2]
        assert isinstance(out.errors[2], ValueError) and str(out.errors[2]) == _ZERO_CHANNEL
        for k in (0, 1, 3):
            assert out.stats[k, 0] == pytest.approx(svd_corr(y_s[k], y_r[k]), abs=1e-12)

    def test_svd_non_finite_channel_fails_its_trial_only(self):
        # a NaN in one trial's S_ss makes the stacked eigh raise for the
        # block; it runs again on the finite trials, so that trial alone
        # fails as a non-finite statistic and the others keep their bytes
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=75)
        u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", [("H1", k) for k in range(4)])
        s = sg.block_sample_cov(y_s, y_r)
        clean = sg.score_batch(s, u_s, u_r, ("t_cc", "t_svd"))
        s.s_ss[2, 1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(s.s_ss)
        out = sg.score_batch(s, u_s, u_r, ("t_cc", "t_svd"))
        assert {i: (type(e), str(e)) for i, e in out.errors.items()} == {
            2: (sg.DegenerateSampleError, "non-finite statistic t_svd = nan")
        }
        rest = [0, 1, 3]
        assert out.stats[rest].tobytes() == clean.stats[rest].tobytes()

    def test_cross_corr_nonnegative_bounded(self):
        # entrywise Cauchy-Schwarz on snapshot rows: |S_sr|_F^2 <= tr S_ss tr S_rr
        for seed in range(10):
            s, _, _ = make_instance(seed=1900 + seed, L=3)
            val = sg.cross_corr_stat(s)
            bound = np.trace(s.s_ss).real * np.trace(s.s_rr).real
            assert 0.0 <= val <= bound * (1.0 + 1e-12)

    def test_range_invariants(self):
        for seed in range(10):
            s, steer, _ = make_instance(seed=2000 + seed, L=3)
            assert 0.0 <= sg.glr_low(s, steer.u_s, steer.u_r) <= 1.0 + 1e-12
            assert 0.0 <= sg.sigma_max_coherence(s) <= 1.0 + 1e-12
            assert 0.0 <= sg.svd_corr_stat(s) <= 1.0 + 1e-12
            assert sg.glr_sample(s, steer.u_s, steer.u_r) >= 0.0


class TestComputeReport:
    def test_full_report(self):
        s, steer, data = make_instance(seed=43, L=3)
        rep, optim = sg.compute_report(s, steer)
        glr_1n = rep.stat("glr")[0]
        assert glr_1n >= 1.0 - 1e-9
        n = data.num_snapshots
        assert rep.two_log_glr[0] == pytest.approx(2.0 * n * np.log(glr_1n), rel=1e-12)
        assert optim is not None and optim.converged
        for name in sg.DETECTOR_NAMES:
            assert np.isfinite(rep.stat(name)[0])

    def test_subset_leaves_others_none(self):
        s, steer, _ = make_instance(seed=44, L=3)
        rep, optim = sg.compute_report(s, steer, detectors=("glr_low", "t_cc"))
        assert rep.stat("glr_low").size == 1 and rep.stat("t_cc").size == 1
        assert "glr" not in rep.detectors and optim is None
        with pytest.raises(KeyError, match="glr"):
            rep.stat("glr")

    def test_rejects_unknown_detector(self):
        s, steer, _ = make_instance(seed=45, L=3)
        with pytest.raises(ValueError, match="unknown"):
            sg.compute_report(s, steer, detectors=("glr", "bogus"))

    def test_factors_each_block_once(self, monkeypatch):
        # one six-detector trial: one Cholesky per diagonal block, one
        # Cholesky screen of the exact cost's gamma_m and no eigvalsh (the
        # screen clears a clean trial), one stacked eigh of the diagonal
        # blocks (t_svd), and one eigh per pass of the lockstep ascent, the
        # exact trust-region step: at most the iteration count plus the pass
        # that stops it
        s, steer, _ = make_instance(seed=47, L=4)
        calls = {"cho_factor": 0, "cholesky": 0, "eigh": 0, "eigvalsh": 0}
        factored = []

        def counted(mod, name):
            orig = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "cholesky":
                    factored.append(args[0])
                return orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counted(scipy.linalg, "cho_factor")
        counted(np.linalg, "cholesky")
        counted(np.linalg, "eigh")
        counted(np.linalg, "eigvalsh")
        _, optim = sg.compute_report(s, steer)
        on_blocks = sum(any(np.array_equal(a, b[None]) for b in (s.s_ss, s.s_rr)) for a in factored)
        assert calls["cho_factor"] + on_blocks <= 2
        assert calls["cholesky"] - on_blocks <= 1  # the screen
        assert 1 <= calls["eigh"] <= optim.iterations + 2
        assert calls["eigvalsh"] == 0

    @pytest.mark.parametrize("L, ill", [(2, False), (4, False), (8, False), (4, True)],
                             ids=["2", "4", "8", "4-ula-40dB-n2l"])
    def test_split_invariance(self, L, ill):
        # the lockstep ascent never mixes rows: a block scored whole equals
        # the same block scored in splits of 1, 7 and 37, bit for bit. The
        # ill-conditioned block (N = 2L, 40 dB ULA) has passes that mix
        # accepted and rejected steps, and Newton and eigen steps
        if ill:
            cfg = sg.ScenarioConfig(L=L, N=2 * L, snr_s_db=40.0, snr_r_db=40.0, seed=60 + 2 * L)
        else:
            cfg = sg.ScenarioConfig(L=L, N=3 * L, snr_s_db=0.0, snr_r_db=10.0, seed=60 + L)
        trials = [("H0", k) for k in range(37)] + [("H1", k) for k in range(37)]
        u_s, u_r, y_s, y_r = synth_batch(cfg, "ula-random-doa" if ill else "random-unit", trials)

        def keys(scores):
            return list(zip(scores.stats[:, 0].tolist(), scores.two_log_glr.tolist(),
                            scores.iterations.tolist(), [sg.STOP_REASONS[c] for c in scores.stop]))

        s = sg.block_sample_cov(y_s, y_r)
        whole = keys(sg.score_batch(s, u_s, u_r, ("glr",)))
        assert len(set(k[2] for k in whole)) > 1
        for size in (1, 7, 37):
            split = []
            for a in range(0, len(trials), size):
                b = slice(a, a + size)
                part = sg.block_sample_cov(y_s[b], y_r[b])
                split += keys(sg.score_batch(part, u_s[b], u_r[b], ("glr",)))
            assert split == whole, f"split {size}"

    def test_block_columns_equal_blocks_of_one(self):
        # every column of a six-detector block holds, bit for bit, what each
        # row scored as a block of one gets
        cfg = sg.ScenarioConfig(L=4, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=64)
        trials = [("H0", k) for k in range(12)] + [("H1", k) for k in range(12)]
        u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", trials)
        block = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r)
        assert block.detectors == sg.DETECTOR_NAMES and not block.errors
        assert block.stats.shape == (24, 6)
        for k in range(len(trials)):
            b = slice(k, k + 1)
            one = sg.score_batch(sg.block_sample_cov(y_s[b], y_r[b]), u_s[b], u_r[b])
            for name in ("stats", "two_log_glr", "iterations", "stop"):
                assert getattr(block, name)[b].tobytes() == getattr(one, name).tobytes(), (k, name)

    @staticmethod
    def standalone_calls(s, u_s, u_r):
        """Each detector's statistic function on s, as a call to make."""
        return {
            "glr": lambda: sg.glr_exact(s, u_s, u_r)[0],
            "glr_sample": lambda: sg.glr_sample(s, u_s, u_r),
            "glr_low": lambda: sg.glr_low(s, u_s, u_r),
            "sigma_max": lambda: sg.sigma_max_coherence(s),
            "t_cc": lambda: sg.cross_corr_stat(s),
            "t_svd": lambda: sg.svd_corr_stat(s),
        }

    def standalone(self, s, u_s, u_r):
        return {name: call() for name, call in self.standalone_calls(s, u_s, u_r).items()}

    def test_matches_standalone_functions(self):
        # the six statistic functions and compute_report give each record
        # of a stack of one and a stack of 5 score_batch's numbers bit for
        # bit, as a float
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=46)
        for size in (1, 5):
            u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", [("H1", k) for k in range(size)])
            stack = sg.block_sample_cov(y_s, y_r)
            block = sg.score_batch(stack, u_s, u_r)
            assert not block.errors
            for k in range(size):
                s = sg.BlockSampleCov(stack.s_ss[k], stack.s_sr[k], stack.s_rr[k], stack.n)
                rep, _ = sg.compute_report(s, sg.SteeringPair(u_s[k], u_r[k]))
                for name, val in self.standalone(s, u_s[k], u_r[k]).items():
                    assert type(val) is float, name
                    assert val == block.stat(name)[k] == rep.stat(name)[0], (size, k, name)

    def test_record_api_refuses_a_stack(self):
        # the statistic functions and compute_report take one record; a
        # stack of 3 raises a ValueError that points to score_batch
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=46)
        u_s, u_r, y_s, y_r = synth_batch(cfg, "random-unit", [("H1", k) for k in range(3)])
        stack = sg.block_sample_cov(y_s, y_r)
        calls = list(self.standalone_calls(stack, u_s[0], u_r[0]).values())
        calls.append(lambda: sg.compute_report(stack, sg.SteeringPair(u_s[0], u_r[0])))
        for call in calls:
            with pytest.raises(ValueError, match="score_batch"):
                call()

    @pytest.mark.parametrize("detectors", [("glr",), ("glr_sample", "t_cc"), sg.DETECTOR_NAMES],
                             ids=["glr", "closed", "all"])
    def test_score_batch_refuses_other_shapes(self, detectors):
        # score_batch takes a (T, L, L) stack only: a record's (L, L) blocks
        # and a (2, 2, L, L) stack raise a ValueError that points to
        # compute_report
        s, steer, data = make_instance(seed=46, L=3)
        with pytest.raises(ValueError, match="compute_report"):
            sg.score_batch(s, steer.u_s, steer.u_r, detectors)
        y_s, y_r = (np.broadcast_to(y, (2, 2) + y.shape) for y in (data.y_s, data.y_r))
        u_s, u_r = (np.broadcast_to(u, (2, 2, 3)) for u in (steer.u_s, steer.u_r))
        with pytest.raises(ValueError, match="compute_report"):
            sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r, detectors)

    def test_nan_cross_entry_raises_named_errors(self):
        # a record whose S_sr holds a NaN fails its row in score_batch, and
        # each statistic function raises that row's error, which names the
        # statistic, instead of returning a nan
        s, steer, _ = make_instance(seed=46, L=3)
        s_sr = s.s_sr.copy()
        s_sr[0, 1] = np.nan
        bad = sg.BlockSampleCov(s.s_ss, s_sr, s.s_rr, s.n)
        for name, call in self.standalone_calls(bad, steer.u_s, steer.u_r).items():
            with pytest.raises(sg.DegenerateSampleError, match=f"non-finite statistic {name} = nan"):
                call()


class TestDegenerateSamples:
    def test_non_finite_exact_statistic_fails_its_trial(self, monkeypatch):
        # an ascent whose J overflows exp or is NaN fails that trial alone,
        # by score_batch's check of every statistic; the rest keep their rows
        trials = [make_instance(seed=5700 + k, L=3, N=9) for k in range(5)]
        s = sg.block_sample_cov(np.stack([t[2].y_s for t in trials]), np.stack([t[2].y_r for t in trials]))
        u_s, u_r = np.stack([t[1].u_s for t in trials]), np.stack([t[1].u_r for t in trials])
        clean = sg.score_batch(s, u_s, u_r)
        real = detectors.ascend

        def overflowing(chart, x0):
            out = real(chart, x0)
            out.j_value[1], out.j_value[3] = 800.0, np.nan
            return out

        monkeypatch.setattr(detectors, "ascend", overflowing)
        block = sg.score_batch(s, u_s, u_r)
        assert {i: (type(e), str(e)) for i, e in block.errors.items()} == {
            1: (sg.DegenerateSampleError, "non-finite statistic glr = inf"),
            3: (sg.DegenerateSampleError, "non-finite statistic glr = nan"),
        }
        assert np.isnan(block.stats[[1, 3]]).all() and np.isnan(block.two_log_glr[[1, 3]]).all()
        assert block.iterations[[1, 3]].tolist() == [0, 0] and block.stop[[1, 3]].tolist() == [-1, -1]
        rest = [0, 2, 4]
        for name in ("stats", "two_log_glr", "iterations", "stop"):
            assert getattr(block, name)[rest].tobytes() == getattr(clean, name)[rest].tobytes()

    def test_non_pd_trials_fail_alone(self):
        # a trial whose S_ss or S_rr is not positive definite fails alone
        # with cholesky_pd's error, s_ss named first when both fail; the
        # other trials keep their bytes, and the block does not raise
        trials = [make_instance(seed=5800 + k, L=3, N=12) for k in range(5)]
        y_s, y_r = np.stack([t[2].y_s for t in trials]), np.stack([t[2].y_r for t in trials])
        u_s, u_r = np.stack([t[1].u_s for t in trials]), np.stack([t[1].u_r for t in trials])
        clean = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r)
        y_s[1], y_r[3], y_s[4], y_r[4] = 0.0, 0.0, 0.0, 0.0
        block = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r)
        assert {i: (type(e), str(e)) for i, e in block.errors.items()} == {
            1: (ValueError, "s_ss is not positive definite"),
            3: (ValueError, "s_rr is not positive definite"),
            4: (ValueError, "s_ss is not positive definite"),
        }
        assert np.isnan(block.stats[[1, 3, 4]]).all() and block.stop[[1, 3, 4]].tolist() == [-1] * 3
        rest = [0, 2]
        for name in ("stats", "two_log_glr", "iterations", "stop"):
            assert getattr(block, name)[rest].tobytes() == getattr(clean, name)[rest].tobytes()

    def test_undersampled_rejected(self):
        rng = np.random.default_rng(14)
        L, N = 3, 4  # N < 2L
        y_s = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
        y_r = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
        s = sg.block_sample_cov(y_s, y_r)
        u = rand_unit(rng, L)
        with pytest.raises(ValueError):
            sg.glr_exact(s, u, u)

    def test_zero_surveillance_channel_names_s_ss(self):
        _, steer, data = make_instance(seed=48, L=3, N=12)
        s = sg.block_sample_cov(np.zeros_like(data.y_s), data.y_r)
        assert not s.maybe_singular
        for fn in (sg.glr_exact, sg.glr_sample, sg.glr_low):
            with pytest.raises(ValueError, match="s_ss"):
                fn(s, steer.u_s, steer.u_r)
        with pytest.raises(ValueError, match="s_ss"):
            sg.sigma_max_coherence(s)

    @pytest.mark.parametrize("case", ["scaled-copy", "copy", "copy-plus-1e-9"])
    def test_coherent_channels_named(self, case):
        # a surveillance channel that repeats the reference channel makes
        # the full sample covariance singular; glr names the cause
        _, steer, data = make_instance(seed=49, L=2, N=8)
        y_s = {"scaled-copy": 3.0 * data.y_r, "copy": data.y_r.copy(),
               "copy-plus-1e-9": data.y_r + 1e-9 * data.y_s}[case]
        s = sg.block_sample_cov(y_s, data.y_r)
        with pytest.raises(ValueError, match="coherent") as info:
            sg.glr_exact(s, steer.u_s, steer.u_r)
        assert not isinstance(info.value, sg.DegenerateSampleError)

    def test_coherent_trial_isolated_in_its_block(self):
        # the coherence check runs once per block but fails only its trial
        trials = [make_instance(seed=50 + k, L=3, N=12) for k in range(3)]
        y_s = np.stack([t[2].y_s for t in trials])
        y_r = np.stack([t[2].y_r for t in trials])
        y_s[1] = 3.0 * y_r[1]
        u_s = np.stack([t[1].u_s for t in trials])
        u_r = np.stack([t[1].u_r for t in trials])
        out = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r)
        assert list(out.errors) == [1]
        assert isinstance(out.errors[1], ValueError) and "coherent" in str(out.errors[1])
        for k in (0, 2):
            alone, _ = sg.compute_report(trials[k][0], trials[k][1])
            assert out.stats[k, sg.DETECTOR_NAMES.index("glr")] == alone.stat("glr")[0]
            assert out.stats[k, sg.DETECTOR_NAMES.index("glr_sample")] == alone.stat("glr_sample")[0]


def unitary_stack(count, dim, rng):
    return np.linalg.qr(rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim)))[0]


def forms_with_gaps(gaps, dim, rng):
    """Forms (psi, gamma_m) whose gamma_m have the given smallest
    eigenvalues, the others in [0.1, 1], and psi = gamma_m + g g^H."""
    lam = rng.uniform(0.1, 1.0, (len(gaps), dim))
    lam[:, 0] = gaps
    q = unitary_stack(len(gaps), dim, rng)
    gamma_m = hermitize(q @ (lam[..., None] * q.conj().swapaxes(-1, -2)))
    g = 0.3 * (rng.standard_normal((len(gaps), dim, 1)) + 1j * rng.standard_normal((len(gaps), dim, 1)))
    return hermitize(gamma_m + g @ g.conj().swapaxes(-1, -2)), gamma_m


def expected_glr(forms):
    """What each trial's glr reads under the eigvalsh rule: its error
    message or its statistic."""
    stats, errors = glr_by_eigvalsh(forms)
    for i, stat in enumerate(stats.tolist()):  # an unscored trial fails as non-finite
        if i not in errors:
            errors[i] = stat if np.isfinite(stat) else f"non-finite statistic glr = {stat}"
    return dict(sorted(errors.items()))


def scored_glr(s, u_s, u_r):
    """What score_batch's glr gives each trial."""
    out = sg.score_batch(s, u_s, u_r, ("glr",))
    return {i: str(out.errors[i]) if i in out.errors else out.stats[i, 0] for i in range(len(out.stats))}


class TestCoherenceScreen:
    # The Cholesky screen on gamma_m - 2 COHERENCE_FLOOR I clears most
    # blocks without eigvalsh; every trial still gets the error or the
    # score the eigvalsh rule gives it, in its block and alone
    def test_records_get_the_eigvalsh_rule(self):
        trials = [make_instance(seed=3100 + k, L=3, N=12) for k in range(8)]
        y_s = np.stack([t[2].y_s for t in trials])
        y_r = np.stack([t[2].y_r for t in trials])
        y_s[2] = 3.0 * y_r[2]
        y_s[5] = y_r[5] + 1e-9 * y_s[5]
        s = sg.block_sample_cov(y_s, y_r)
        s.s_sr[6, 0, 1] = np.nan
        u_s = np.stack([t[1].u_s for t in trials])
        u_r = np.stack([t[1].u_r for t in trials])
        outcomes = []
        for rows in [slice(None), slice(0, 6)] + [slice(k, k + 1) for k in range(8)]:
            part = sg.BlockSampleCov(s.s_ss[rows], s.s_sr[rows], s.s_rr[rows], s.n)
            forms = sg.cost_forms(sg.coherence_matrix(part), sg.capon_pair(part, u_s[rows], u_r[rows]))
            want = expected_glr(forms)
            assert scored_glr(part, u_s[rows], u_r[rows]) == want
            outcomes.append(want)
        assert outcomes[1][2].startswith("the channels are fully coherent")
        assert outcomes[1][5].startswith("the channels are fully coherent")
        assert sum(isinstance(v, float) for v in outcomes[1].values()) == 4
        # the NaN record fails alone, as a non-finite statistic, and every
        # record of the whole block reads what it reads alone
        assert outcomes[0][6] == "non-finite statistic glr = nan"
        assert outcomes[0] == {k: outcomes[2 + k][0] for k in range(8)}

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_gaps_at_and_near_the_floor(self, dim, monkeypatch):
        rng = np.random.default_rng(3200 + dim)
        gaps = np.array([0.5, 1e-3] + [f * COHERENCE_FLOOR for f in (8.0, 4.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.0, -1.0)])
        forms = forms_with_gaps(np.repeat(gaps, 4), dim, rng)
        stats, _, _, _, errors = detectors._glr(forms)
        got = {i: str(errors[i]) if i in errors else stats[i] for i in range(len(stats))}
        want = expected_glr(forms)
        assert got == want
        assert isinstance(want[0], float) and isinstance(want[len(stats) - 1], str)
        # the screen never clears a row whose gap is at or below the floor,
        # and clears every row whose gap is at least 4 floors: a block it
        # clears gets no eigvalsh, and it clears a block when it clears each
        # of its rows
        gap = np.linalg.eigvalsh(forms[1])[:, 0]
        judged, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: judged.append(len(a)) or eigvalsh(a))

        def screened(rows):
            judged.clear()
            detectors._glr([f[rows] for f in forms])
            return not judged

        assert not any(screened([i]) for i in np.flatnonzero(gap <= COHERENCE_FLOOR).tolist())
        assert screened(np.flatnonzero(gap >= 4.0 * COHERENCE_FLOOR))


def fixing_group_element(u, rng):
    """Random complex G (T, L, L) with G u = c u for each unit row u of u
    (T, L) and a random complex c: G = c u u^H + X (I - u u^H) with X the
    identity plus complex normals of variance 1 / L."""
    count, dim = u.shape
    c = np.exp(1j * rng.uniform(0, 2 * np.pi, count)) * rng.uniform(0.5, 2.0, count)
    x = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2 * dim)
    proj = u[:, :, None] * u.conj()[:, None, :]
    return c[:, None, None] * proj + (x + np.eye(dim)) @ (np.eye(dim) - proj)


class TestInvarianceGroup:
    # Y_i -> G_i Y_i with G_i u_i = c_i u_i maps S_ss -> G_s S_ss G_s^H,
    # S_sr -> G_s S_sr G_r^H and S_rr -> G_r S_rr G_r^H; glr, glr_sample,
    # glr_low and sigma_max are invariant under this group, so their law
    # depends on a trial only through its whitened SNRs. (t_cc and t_svd are
    # not; criterion 3 checks scaling alone, and TestUnitaryRotation the
    # unitary G that all six statistics share.) The bound is the statistics'
    # roundoff, which grows as 1 / (1 - sigma_max^2): at L=8, N=16 (seed
    # 9204, ULA steering) one trial has 1 - sigma_max^2 = 1.2e-6, and
    # perturbing its S by 2 ulps already moves its glr by 2e-9, so L=8 runs
    # at N=20
    @pytest.mark.parametrize("L, N, seed", [(2, 4, 9201), (4, 8, 9202), (4, 15, 9203), (8, 20, 9208)])
    def test_four_statistics_are_invariant(self, L, N, seed):
        cfg = sg.ScenarioConfig(L=L, N=N, snr_s_db=5.0, snr_r_db=10.0, seed=seed)
        u_s, u_r, s = sg.draw_sample_cov(cfg, [("H0", k) for k in range(16)] + [("H1", k) for k in range(16)])
        rng = np.random.default_rng(seed)
        g_s, g_r = fixing_group_element(u_s, rng), fixing_group_element(u_r, rng)
        moved = sg.BlockSampleCov(hermitize(g_s @ s.s_ss @ adjoint(g_s)), g_s @ s.s_sr @ adjoint(g_r),
                                  hermitize(g_r @ s.s_rr @ adjoint(g_r)), s.n)
        names = ("glr", "glr_sample", "glr_low", "sigma_max")
        before, after = (sg.score_batch(cov, u_s, u_r, names) for cov in (s, moved))
        assert not before.errors and not after.errors
        np.testing.assert_allclose(after.stats, before.stats, rtol=1e-9, atol=0.0)


class TestUnitaryRotation:
    # One unitary U_i per channel rotating its data and steering vector,
    # S_ss -> U_s S_ss U_s^H, S_sr -> U_s S_sr U_r^H, S_rr -> U_r S_rr U_r^H
    # and u_i -> U_i u_i, changes none of the six statistics and not the
    # ascent's path, for every unitary (here random ones). The drawn noise
    # covariances' law is unitarily invariant too, so a rotation maps the
    # model at one steering pair onto the model at any other, and no
    # statistic's law depends on the pair: the draw's random unit pairs stand
    # for every steering. The bound is roundoff; the largest relative change
    # read 4.2e-12 (glr, L=2, N=4)
    @pytest.mark.parametrize("L, N, seed", [(1, 2, 9211), (2, 4, 9212), (4, 8, 9213), (4, 15, 9214),
                                            (8, 20, 9215), (8, 32, 9216)])
    def test_statistics_and_ascent_unchanged(self, L, N, seed):
        cfg = sg.ScenarioConfig(L=L, N=N, snr_s_db=5.0, snr_r_db=10.0, seed=seed)
        u_s, u_r, s = sg.draw_sample_cov(cfg, [("H0", k) for k in range(32)] + [("H1", k) for k in range(32)])
        rng = np.random.default_rng(seed)
        q_s, q_r = unitary_stack(64, L, rng), unitary_stack(64, L, rng)
        moved = sg.BlockSampleCov(hermitize(q_s @ s.s_ss @ adjoint(q_s)), q_s @ s.s_sr @ adjoint(q_r),
                                  hermitize(q_r @ s.s_rr @ adjoint(q_r)), s.n)
        before = sg.score_batch(s, u_s, u_r, sg.DETECTOR_NAMES)
        after = sg.score_batch(moved, (q_s @ u_s[..., None])[..., 0], (q_r @ u_r[..., None])[..., 0],
                               sg.DETECTOR_NAMES)
        assert not before.errors and not after.errors
        np.testing.assert_allclose(after.stats, before.stats, rtol=1e-9, atol=0.0)
        assert np.array_equal(after.iterations, before.iterations)
        assert np.array_equal(after.stop, before.stop)


def kolmogorov_p(sample: np.ndarray, cdf) -> float:
    """Asymptotic p-value of the one-sample Kolmogorov-Smirnov test of
    sample against the continuous CDF cdf: Q(sqrt(n) D) with
    Q(t) = 2 sum_k (-1)^(k-1) exp(-2 k^2 t^2)."""
    x = np.sort(sample)
    n = x.size
    f = cdf(x)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    t = np.sqrt(n) * d
    k = np.arange(1, 101)
    return float(np.clip(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * t**2)), 0.0, 1.0))


def beta_1_cdf(b: int):
    """CDF 1 - (1 - x)^b of Beta(1, b)."""
    return lambda x: 1.0 - (1.0 - x) ** b


class TestExactNullLaws:
    # Under H0, glr_low ~ Beta(1, N - 1) at every L, and
    # glr_sample / (1 + glr_sample) ~ Beta(1, N - L); the seeds are fixed
    # once, 3000 H0 trials per scenario. The glr_sample law is measured, not
    # derived: these draws fit it, and no proof backs it
    @pytest.mark.parametrize("L, N, seed", [(2, 12, 9101), (4, 15, 9102)])
    def test_closed_forms_follow_their_beta_laws(self, L, N, seed):
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=L, N=N, snr_s_db=0.0, snr_r_db=10.0, seed=seed),
            trials_h0=3000, detectors=("glr_sample", "glr_low"),
        )
        scores = sg.run_trials(cfg, threads=1)
        assert not scores.errors
        low, sample = scores.stat("glr_low"), scores.stat("glr_sample")
        assert kolmogorov_p(low, beta_1_cdf(N - 1)) >= 1e-3
        assert kolmogorov_p(sample / (1.0 + sample), beta_1_cdf(N - L)) >= 1e-3


CFAR_NAMES = ("glr", "glr_sample", "glr_low", "sigma_max")


def null_sample(L, N, seed, snr_r_db=-20.0, dof=None, snr_s_db=None):
    """The four statistics of 1500 trials, H0 by default, H1 at snr_s_db."""
    h1 = 0 if snr_s_db is None else 1500
    cfg = sg.ExperimentConfig(
        scenario=sg.ScenarioConfig(L=L, N=N, snr_s_db=snr_s_db or 0.0, snr_r_db=snr_r_db,
                                   wishart_dof=dof, seed=seed),
        trials_h0=1500, trials_h1=h1, detectors=CFAR_NAMES,
    )
    scores = sg.run_trials(cfg, threads=1)
    assert not scores.errors
    rows = slice(1500, None) if h1 else slice(0, 1500)
    return {name: scores.stat(name, rows) for name in CFAR_NAMES}


class TestCfar:
    # Under H0 the law of the four invariant statistics does not depend on
    # the reference SNR, the steering or the noise covariance's Wishart dof
    # (CFAR): each case is compared with a reference sample (snr_r_db -20) by
    # a two-sample KS test at 1e-3, Bonferroni corrected over the 24 tests of
    # both shapes; the smallest p read 0.038. The draw's random unit steering
    # pairs vary from trial to trial, and TestUnitaryRotation shows that the
    # pair does not move a statistic's law.
    # The power check: an H1 sample at snr_s_db -10 (snr_r_db 10) is told
    # from the reference at p <= 6e-56
    LEVEL = 1e-3 / 24

    @pytest.mark.parametrize("L, N", [(2, 8), (4, 15)])
    def test_null_law_free_of_reference_snr_steering_and_dof(self, L, N):
        ref = null_sample(L, N, 9601)
        cases = [null_sample(L, N, 9602, snr_r_db=30.0),
                 null_sample(L, N, 9603, snr_r_db=10.0),
                 null_sample(L, N, 9604, dof=3 * L)]
        for case in cases:
            for name in CFAR_NAMES:
                assert ks_2samp(ref[name], case[name]).pvalue >= self.LEVEL, name
        h1 = null_sample(L, N, 9610, snr_r_db=10.0, snr_s_db=-10.0)
        for name in CFAR_NAMES:
            assert ks_2samp(ref[name], h1[name]).pvalue < self.LEVEL, name
