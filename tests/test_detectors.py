import numpy as np
import pytest
import scipy.linalg

import subspace_glr as sg
from subspace_glr.detectors import _ZERO_CHANNEL
from _reference import distortionless_pair, low_snr_qsr, m_matrix, ml_qsr, oracle_glr, svd_corr
from _utils import det_m_direct, make_instance, null_cov, rand_unit


def scaled_instance(seed, c_s, c_r, L=3, N=None):
    s, steer, data = make_instance(seed=seed, L=L, N=N)
    scaled = sg.block_sample_cov(c_s * data.y_s, c_r * data.y_r)
    return s, scaled, steer, data


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
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, "random-unit", [("H0", k) for k in range(100)])

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

    def test_single_sensor_is_sample_approximation(self):
        # at L = 1 the warm start is the only ray, so no step is taken and
        # the exact statistic is 1 + glr_sample
        for seed in range(5):
            s, steer, _ = make_instance(seed=1550 + seed, L=1)
            stat, res = sg.glr_exact(s, steer.u_s, steer.u_r)
            assert res.iterations == 0 and res.converged
            assert stat == pytest.approx(1.0 + sg.glr_sample(s, steer.u_s, steer.u_r), rel=1e-12)

    def test_restarts_escape_a_local_maximum_near_n_2l(self):
        # Near N = 2L the ascent from e1 can stop at a local maximum; this is
        # what n_restarts is for. Here e1 stops on the gradient test at
        # glr = 1.117 while 16 restarts reach 31.307, which an independent
        # BFGS search over R_rr with 160 starts also reaches. The instance
        # is trial 71 of H0 at seed 101 on the per-trial substreams.
        _, steer, data = make_instance(seed=101, L=4, N=8, snr_s_db=10.0, snr_r_db=10.0,
                                       hypothesis="H0", index=71)
        s = sg.block_sample_cov(data.y_s, data.y_r)
        warm, restarted = (
            sg.compute_report(s, steer, ("glr",), n_restarts=k)
            for k in (0, 16)
        )
        assert warm.optim.stop_reason == "gradient"
        assert restarted.optim.j_value > warm.optim.j_value + 1.0

    def test_rejects_negative_restarts(self):
        s, steer, _ = make_instance(seed=3, L=3)
        with pytest.raises(ValueError, match="n_restarts"):
            sg.glr_exact(s, steer.u_s, steer.u_r, n_restarts=-1)

    def test_oracle_feasibility_bound(self):
        for seed in range(3):
            s, steer, _ = make_instance(seed=1500 + seed, L=2)
            ref = oracle_glr(s, steer.u_s, steer.u_r, n_restarts=2, seed=seed)
            lam_app = sg.glr_sample(s, steer.u_s, steer.u_r)
            assert ref >= 1.0 + lam_app - 1e-6


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
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, mode, trials)
        scores = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r, detectors=("t_svd",))
        got = scores.stat("t_svd")
        assert np.max(np.abs(got - svd_corr(y_s, y_r))) <= 1e-12

    def test_svd_zero_channel_fails_its_trial_only(self, monkeypatch):
        # t_svd factors nothing, so a zero channel reaches it and fails only
        # its own trial of the block
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=75)
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, "random-unit", [("H1", k) for k in range(4)])
        y_r[2] = 0.0

        def no_cholesky(*args, **kwargs):
            raise AssertionError("t_svd ran a Cholesky factorization")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        out = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r, detectors=("t_svd",))
        assert list(out.errors) == [2]
        assert isinstance(out.errors[2], ValueError) and str(out.errors[2]) == _ZERO_CHANNEL
        for k in (0, 1, 3):
            assert out.stats[k, 0] == pytest.approx(svd_corr(y_s[k], y_r[k]), abs=1e-12)

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
        rep = sg.compute_report(s, steer)
        assert rep.glr_1n >= 1.0 - 1e-9
        n = data.num_snapshots
        assert rep.two_log_glr == pytest.approx(2.0 * n * np.log(rep.glr_1n), rel=1e-12)
        assert rep.optim is not None and rep.optim.converged
        for name in sg.DETECTOR_NAMES:
            assert np.isfinite(rep.stat(name))

    def test_subset_leaves_others_none(self):
        s, steer, _ = make_instance(seed=44, L=3)
        rep = sg.compute_report(s, steer, detectors=("glr_low", "t_cc"))
        assert rep.glr_low is not None and rep.t_cc is not None
        assert rep.glr_1n is None and rep.optim is None
        with pytest.raises(KeyError):
            rep.stat("glr")

    def test_rejects_unknown_detector(self):
        s, steer, _ = make_instance(seed=45, L=3)
        with pytest.raises(ValueError, match="unknown"):
            sg.compute_report(s, steer, detectors=("glr", "bogus"))

    def test_factors_each_block_once(self, monkeypatch):
        # one six-detector trial: one Cholesky per diagonal block, one
        # eigvalsh (the stacked validation of the exact cost's forms), one
        # stacked eigh of the diagonal blocks (t_svd), and one eigh per pass
        # of the lockstep ascent, the exact trust-region step: at most the
        # iteration count plus the pass that stops it
        s, steer, _ = make_instance(seed=47, L=4)
        calls = {"cho_factor": 0, "cholesky": 0, "eigh": 0, "eigvalsh": 0}

        def counted(mod, name):
            orig = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counted(scipy.linalg, "cho_factor")
        counted(np.linalg, "cholesky")
        counted(np.linalg, "eigh")
        counted(np.linalg, "eigvalsh")
        rep = sg.compute_report(s, steer)
        assert calls["cho_factor"] <= 2
        assert calls["cho_factor"] + calls["cholesky"] <= 2
        assert 1 <= calls["eigh"] <= rep.optim.iterations + 2
        assert calls["eigvalsh"] <= 1

    @pytest.mark.parametrize("n_restarts", [0, 2])
    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_split_invariance(self, L, n_restarts):
        # the lockstep ascent never mixes rows: a block scored whole equals
        # the same block scored in splits of 1, 7 and 37, bit for bit
        cfg = sg.ScenarioConfig(L=L, N=3 * L, snr_s_db=0.0, snr_r_db=10.0, seed=60 + L)
        trials = [("H0", k) for k in range(37)] + [("H1", k) for k in range(37)]
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, "random-unit", trials)

        def keys(scores):
            return list(zip(scores.stats[:, 0].tolist(), scores.two_log_glr.tolist(),
                            scores.iterations.tolist(), [sg.STOP_REASONS[c] for c in scores.stop]))

        s = sg.block_sample_cov(y_s, y_r)
        whole = keys(sg.score_batch(s, u_s, u_r, ("glr",), n_restarts))
        assert len(set(k[2] for k in whole)) > 1
        for size in (1, 7, 37):
            split = []
            for a in range(0, len(trials), size):
                b = slice(a, a + size)
                part = sg.block_sample_cov(y_s[b], y_r[b])
                split += keys(sg.score_batch(part, u_s[b], u_r[b], ("glr",), n_restarts))
            assert split == whole, f"split {size}"

    def test_block_columns_equal_blocks_of_one(self):
        # every column of a six-detector block holds, bit for bit, what each
        # row scored as a block of one gets
        cfg = sg.ScenarioConfig(L=4, N=12, snr_s_db=0.0, snr_r_db=10.0, seed=64)
        trials = [("H0", k) for k in range(12)] + [("H1", k) for k in range(12)]
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, "random-unit", trials)
        block = sg.score_batch(sg.block_sample_cov(y_s, y_r), u_s, u_r)
        assert block.detectors == sg.DETECTOR_NAMES and not block.errors
        assert block.stats.shape == (24, 6)
        for k in range(len(trials)):
            b = slice(k, k + 1)
            one = sg.score_batch(sg.block_sample_cov(y_s[b], y_r[b]), u_s[b], u_r[b])
            for name in ("stats", "two_log_glr", "iterations", "stop"):
                assert getattr(block, name)[b].tobytes() == getattr(one, name).tobytes(), (k, name)

    def test_matches_standalone_functions(self):
        s, steer, _ = make_instance(seed=46, L=3)
        rep = sg.compute_report(s, steer)
        assert rep.glr_sample == pytest.approx(
            sg.glr_sample(s, steer.u_s, steer.u_r), rel=1e-12
        )
        assert rep.sigma_max == pytest.approx(sg.sigma_max_coherence(s), rel=1e-12)
        assert rep.t_svd == pytest.approx(sg.svd_corr_stat(s), rel=1e-12)


class TestDegenerateSamples:
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
            alone = sg.compute_report(trials[k][0], trials[k][1])
            assert out.stats[k, sg.DETECTOR_NAMES.index("glr")] == alone.glr_1n
            assert out.stats[k, sg.DETECTOR_NAMES.index("glr_sample")] == alone.glr_sample
