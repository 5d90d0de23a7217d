import numpy as np
import pytest
import scipy.stats

import subspace_glr as sg
from _reference import (
    ChannelRealization,
    _cn_matrix,
    draw_channel,
    draw_channel_gain,
    draw_cov_trial,
    draw_noise_cov,
    draw_steering,
    draw_trial,
    population_cov,
    scale_noise_to_snr,
    snapshot_route_scores,
    synth_batch,
    synth_snapshots,
)


class TestUlaSteering:
    def test_broadside_all_ones(self):
        u = sg.ula_steering(4, 0.0)
        assert np.allclose(u, 0.5 * np.ones(4), atol=1e-15)

    def test_single_element(self):
        assert np.allclose(sg.ula_steering(1, 0.7), [1.0])

    def test_quarter_wave_increments(self):
        # theta = pi/6 gives sin(theta) = 1/2, phase step pi/2 per element
        u = sg.ula_steering(4, np.pi / 6)
        expected = 0.5 * np.array([1, 1j, -1, -1j])
        assert np.allclose(u, expected, atol=1e-14)

    def test_unit_norm(self):
        for L in (1, 2, 5, 9):
            assert np.linalg.norm(sg.ula_steering(L, 0.3)) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            sg.ula_steering(0, 0.1)


class TestChannelGain:
    def test_moments(self):
        # one stacked draw gives the per-call gains (checked on the first
        # 10^4), so the moments of 10^6 gains take one call
        x = np.random.default_rng(123).standard_normal((10**6, 2))
        draws = (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)
        rng = np.random.default_rng(123)
        assert np.array_equal(draws[: 10**4], [draw_channel_gain(rng) for _ in range(10**4)])
        assert abs(draws.mean()) < 4 / np.sqrt(10**6)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_rayleigh_magnitude(self):
        rng = np.random.default_rng(7)
        mags = np.abs([draw_channel_gain(rng) for _ in range(20000)])
        # |CN(0,1)| is Rayleigh with scale 1/sqrt(2)
        stat = scipy.stats.kstest(mags, "rayleigh", args=(0, 1 / np.sqrt(2)))
        assert stat.pvalue > 0.01


class TestNoiseCov:
    def test_scalar_wishart_positive(self):
        rng = np.random.default_rng(0)
        sigma = draw_noise_cov(rng, 1, 8)
        assert sigma.shape == (1, 1)
        assert sigma[0, 0].real > 0

    def test_full_rank(self):
        rng = np.random.default_rng(1)
        worst = min(
            np.linalg.eigvalsh(draw_noise_cov(rng, 4, 8))[0] for _ in range(10**4)
        )
        assert worst > 0

    def test_mean_identity(self):
        rng = np.random.default_rng(2)
        acc = np.zeros((2, 2), dtype=complex)
        n = 10**4
        for _ in range(n):
            acc += draw_noise_cov(rng, 2, 16)
        mean = acc / n
        assert np.all(np.abs(mean - np.eye(2)) < 0.05)

    def test_rejects_rank_deficient_dof(self):
        with pytest.raises(ValueError, match="rank deficient"):
            draw_noise_cov(np.random.default_rng(0), 4, 3)


class TestScaleNoise:
    def test_identity_zero_db(self):
        out = scale_noise_to_snr(np.eye(2, dtype=complex), 1.0, 1.0, 0.0)
        assert np.allclose(out, 0.5 * np.eye(2))
        assert np.trace(out).real == pytest.approx(1.0)

    def test_trace_hits_target(self):
        rng = np.random.default_rng(3)
        sigma = draw_noise_cov(rng, 3, 6)
        a = 0.8 - 0.3j
        out = scale_noise_to_snr(sigma, a, 1.0, 10.0)
        assert np.trace(out).real == pytest.approx(abs(a) ** 2 / 10.0, abs=1e-12)

    def test_linear_in_gain_power(self):
        sigma = np.diag([1.0, 2.0]).astype(complex)
        t1 = np.trace(scale_noise_to_snr(sigma, 1.0, 1.0, 5.0)).real
        t2 = np.trace(scale_noise_to_snr(sigma, 2.0, 1.0, 5.0)).real
        assert t2 == pytest.approx(4 * t1)

    def test_scaling_preserves_eigenvectors(self):
        rng = np.random.default_rng(4)
        sigma = draw_noise_cov(rng, 3, 9)
        out = scale_noise_to_snr(sigma, 1.0 + 1j, 2.0, -3.0)
        _, v1 = np.linalg.eigh(sigma)
        _, v2 = np.linalg.eigh(out)
        assert np.allclose(np.abs(v1.conj().T @ v2), np.eye(3), atol=1e-10)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            scale_noise_to_snr(np.eye(2, dtype=complex), 0.0, 1.0, 0.0)


class TestSteeringPair:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit norm"):
            sg.SteeringPair(np.array([0.9, 0.0]), np.array([1.0, 0.0]))

    def test_normalized_factory(self):
        pair = sg.SteeringPair.normalized([3.0, 4.0], [1j, 0.0])
        assert np.linalg.norm(pair.u_s) == pytest.approx(1.0, abs=1e-15)

    def test_draw_modes(self):
        rng = np.random.default_rng(5)
        for mode in ("random-unit", "ula-random-doa"):
            pair = draw_steering(mode, 4, rng)
            assert abs(np.linalg.norm(pair.u_s) - 1) < 1e-12
            assert abs(np.linalg.norm(pair.u_r) - 1) < 1e-12
        with pytest.raises(ValueError, match="steering mode"):
            draw_steering("bogus", 4, rng)


class TestScenarioConfig:
    def test_requires_two_l_snapshots(self):
        with pytest.raises(ValueError, match="2\\*L"):
            sg.ScenarioConfig(L=4, N=7, snr_s_db=0, snr_r_db=0)

    def test_default_dof(self):
        cfg = sg.ScenarioConfig(L=4, N=8, snr_s_db=0, snr_r_db=0)
        assert cfg.dof == 8

    def test_zero_signal_power_allowed(self):
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0, snr_r_db=0, sigma_x2=0.0)
        assert cfg.sigma_x2 == 0.0


def _chan_with(sigma_ss, sigma_rr, a_s=1.0, a_r=1.0, sigma_x2=1.0):
    return ChannelRealization(a_s, a_r, sigma_ss, sigma_rr, sigma_x2)


class TestSynthSnapshots:
    def test_pure_noise_covariance(self):
        cfg = sg.ScenarioConfig(L=2, N=10**4, snr_s_db=0, snr_r_db=0, sigma_x2=0.0)
        steer = draw_steering("random-unit", 2, sg.substream(0, 0))
        chan = _chan_with(np.eye(2, dtype=complex), np.eye(2, dtype=complex), sigma_x2=0.0)
        data = synth_snapshots(cfg, steer, chan, "H1", sg.substream(0, 1))
        for y in (data.y_s, data.y_r):
            s_hat = y @ y.conj().T / cfg.N
            assert np.all(np.abs(s_hat - np.eye(2)) < 0.05)

    def test_h0_channels_uncorrelated(self):
        cfg = sg.ScenarioConfig(L=2, N=10**4, snr_s_db=0, snr_r_db=0)
        steer = draw_steering("random-unit", 2, sg.substream(1, 0))
        chan = _chan_with(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        data = synth_snapshots(cfg, steer, chan, "H0", sg.substream(1, 1))
        cross = data.y_s @ data.y_r.conj().T / cfg.N
        assert np.all(np.abs(cross) < 4 / np.sqrt(cfg.N))

    def test_rank_one_limit(self):
        cfg = sg.ScenarioConfig(L=2, N=10**4, snr_s_db=0, snr_r_db=0)
        steer = draw_steering("random-unit", 2, sg.substream(2, 0))
        eps = 1e-6
        chan = _chan_with(eps * np.eye(2, dtype=complex), eps * np.eye(2, dtype=complex))
        data = synth_snapshots(cfg, steer, chan, "H1", sg.substream(2, 1))
        s_hat = data.y_s @ data.y_s.conj().T / cfg.N
        target = np.outer(steer.u_s, steer.u_s.conj())
        assert np.linalg.norm(s_hat - target) / np.linalg.norm(target) < 0.05

    def test_reproducible(self):
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=0, snr_r_db=5)
        steer = draw_steering("random-unit", 3, sg.substream(3, 0))
        chan = draw_channel(cfg, sg.substream(3, 1), sg.substream(3, 2))
        d1 = synth_snapshots(cfg, steer, chan, "H1", sg.substream(3, 3))
        d2 = synth_snapshots(cfg, steer, chan, "H1", sg.substream(3, 3))
        assert np.array_equal(d1.y_s, d2.y_s)
        assert np.array_equal(d1.y_r, d2.y_r)

    def test_rejects_bad_hypothesis(self):
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0, snr_r_db=0)
        steer = draw_steering("random-unit", 2, sg.substream(4, 0))
        chan = _chan_with(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="hypothesis"):
            synth_snapshots(cfg, steer, chan, "H2", sg.substream(4, 1))


class TestPopulationCov:
    def test_matches_long_run_sample(self):
        cfg = sg.ScenarioConfig(L=2, N=10**5, snr_s_db=3, snr_r_db=8)
        steer = draw_steering("random-unit", 2, sg.substream(5, 0))
        chan = draw_channel(cfg, sg.substream(5, 1), sg.substream(5, 2))
        for hyp in ("H0", "H1"):
            data = synth_snapshots(cfg, steer, chan, hyp, sg.substream(5, 3))
            s_hat = sg.sample_cov(data).full()
            r = population_cov(steer, chan, hyp)
            assert np.linalg.norm(s_hat - r) / np.linalg.norm(r) < 0.03

    def test_h0_block_diagonal(self):
        steer = draw_steering("random-unit", 3, sg.substream(6, 0))
        chan = _chan_with(np.eye(3, dtype=complex), np.eye(3, dtype=complex), a_s=2.0)
        r0 = population_cov(steer, chan, "H0")
        assert np.all(r0[:3, 3:] == 0)

    def test_rank_one_q_consistency(self):
        chan = _chan_with(np.eye(2, dtype=complex), np.eye(2, dtype=complex), a_s=1 + 2j, a_r=3 - 1j, sigma_x2=0.7)
        assert abs(chan.q_sr) ** 2 == pytest.approx(chan.q_ss * chan.q_rr, rel=1e-12)


class TestSubstream:
    def test_distinct_purposes_differ(self):
        a = sg.substream(9, 0, 0, 0).standard_normal(4)
        b = sg.substream(9, 0, 0, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_key_identical(self):
        a = sg.substream(9, 1, 5, 3).standard_normal(4)
        b = sg.substream(9, 1, 5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_rejects_non_u64(self):
        with pytest.raises(ValueError, match="u64"):
            sg.substream(-1, 0)


class TestSynthBatch:
    @pytest.mark.parametrize("mode", sg.model.STEERING_MODES)
    @pytest.mark.parametrize("sigma_x2", [0.0, 1.0])
    @pytest.mark.parametrize("L", [1, 3])
    def test_bit_identical_to_reference(self, mode, sigma_x2, L):
        # the stacked draw of the sample covariances reproduces, bit for bit,
        # the per-trial oracle that reads each trial's words from a Philox
        # set to its counter; N = 2L (a zero last Gamma) and N = 4L
        for N in (2 * L, 4 * L):
            cfg = sg.ScenarioConfig(L=L, N=N, snr_s_db=-5.0, snr_r_db=15.0,
                                    sigma_x2=sigma_x2, seed=31 + L)
            trials = [(hyp, i) for hyp in ("H0", "H1") for i in range(20)]
            u_s, u_r, s = sg.draw_sample_cov(cfg, mode, trials)
            assert s.n == N
            for t, (hyp, i) in enumerate(trials):
                steer, _, one = draw_cov_trial(cfg, mode, hyp, i)
                assert np.array_equal(u_s[t], steer.u_s)
                assert np.array_equal(u_r[t], steer.u_r)
                for name in ("s_ss", "s_sr", "s_rr"):
                    assert np.array_equal(getattr(s, name)[t], getattr(one, name))

    @pytest.mark.parametrize("mode", sg.model.STEERING_MODES)
    @pytest.mark.parametrize("sigma_x2", [0.0, 1.0])
    def test_block_equals_its_splits(self, mode, sigma_x2):
        # a block of 256 (an H0 tail, then an H1 head) equals its 100 + 156
        # split, whose second part mixes the two, its 256 blocks of one and,
        # permuted, its trials in any order
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=-5.0, snr_r_db=15.0,
                                sigma_x2=sigma_x2, seed=2**64 - 1)
        trials = [("H0", i) for i in range(400, 528)] + [("H1", i) for i in range(128)]

        def arrays(part):
            u_s, u_r, s = sg.draw_sample_cov(cfg, mode, part)
            return u_s, u_r, s.s_ss, s.s_sr, s.s_rr

        block = arrays(trials)
        split = zip(arrays(trials[:100]), arrays(trials[100:]))
        ones = zip(*(arrays([trial]) for trial in trials))
        perm = np.random.default_rng(0).permutation(len(trials))
        shuffled = arrays([trials[k] for k in perm])
        for whole, halves, singles, permuted in zip(block, split, ones, shuffled):
            assert np.array_equal(whole, np.concatenate(halves))
            assert np.array_equal(whole, np.concatenate(singles))
            assert np.array_equal(whole[perm], permuted)

    def test_rejects_bad_trials(self):
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0, snr_r_db=0)
        with pytest.raises(ValueError, match="hypothesis"):
            sg.draw_sample_cov(cfg, "random-unit", [("H0", 0), ("H2", 1)])
        with pytest.raises(ValueError, match=">= 0"):
            sg.draw_sample_cov(cfg, "random-unit", [("H1", -1)])

    def test_seeds_no_sequence(self, monkeypatch):
        # trials are addressed by Philox counter, so draw_sample_cov builds
        # no SeedSequence, whatever the block size
        built = []
        real = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0, snr_r_db=0, seed=5)
        per_size = {}
        for trials in (8, 64):
            built.clear()
            half = [(hyp, i) for hyp in ("H0", "H1") for i in range(trials // 2)]
            sg.draw_sample_cov(cfg, "random-unit", half)
            per_size[trials] = len(built)
        assert per_size == {8: 0, 64: 0}


class TestWordLayout:
    @pytest.mark.parametrize("L, N, dof, width", [
        (1, 2, None, 24),  # N = 2L
        (2, 4, None, 60),  # N = 2L
        (4, 8, None, 204),  # N = 2L
        (4, 15, None, 268),
        (4, 15, 4, 236),
        (2, 32, None, 200),
        (8, 32, None, 1028),
        (8, 32, 20, 1092),
    ])
    def test_trial_width(self, L, N, dof, width):
        # 2 words per complex normal (steering 2L, gains 2, the strict lower
        # triangles L (L - 1) / 2 twice and L (2L + 1)) plus one per Exp(1)
        # term of the Gamma shapes dof - k (k < L, twice) and N - k (k <= 2L),
        # rounded up to a multiple of 4
        cfg = sg.ScenarioConfig(L=L, N=N, snr_s_db=0.0, snr_r_db=0.0, wishart_dof=dof)
        normals = 2 * L + 2 + L * (L - 1) + L * (2 * L + 1)
        gammas = 2 * sum(cfg.dof - k for k in range(L)) + sum(N - k for k in range(2 * L + 1))
        assert width == -(-(2 * normals + gammas) // 4) * 4
        assert sg.model.trial_width(cfg) == width

    def test_zero_shape_gamma_is_exactly_zero(self):
        # the shapes 3, 0, 2 read 3 + 2 words; the zero shape reads none
        u = np.array([[0.5, 0.25, 1.0, 0.125, 0.5]])
        out = sg.model._gammas(u, np.array([3, 0, 2]))
        assert out[0, 1] == 0.0 and not np.signbit(out[0, 1])
        assert out[0, 0] == pytest.approx(np.log(8.0), rel=1e-15)
        assert out[0, 2] == pytest.approx(np.log(16.0), rel=1e-15)

    def test_last_diagonal_zero_at_n_2l(self):
        # at N = 2L the joint factor's last Gamma shape is 0, so its last
        # diagonal entry is exactly 0: V ~ CW_{2L+1}(2L, I) is singular. S,
        # of 2L snapshots, stays positive definite
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0.0, snr_r_db=10.0, seed=3)
        _, shapes = sg.model._layout(cfg)
        assert shapes[-1] == 0 and np.all(shapes[:-1] > 0)
        words = np.random.Philox(key=np.array([3, 1], dtype=np.uint64)).random_raw(8 * shapes.sum())
        gamma = sg.model._gammas(sg.model._uniforms(words).reshape(8, -1), shapes)
        assert np.all(gamma[:, -1] == 0.0) and np.all(gamma[:, :-1] > 0.0)
        _, _, s = sg.draw_sample_cov(cfg, "random-unit", [("H1", i) for i in range(8)])
        assert np.all(np.linalg.eigvalsh(s.full())[:, 0] > 0.0)

    def test_long_gamma_sums_stay_finite(self):
        # L = 1, N = 4096: shapes up to 4096 terms, summed as logs, give
        # finite positive diagonals with the mean N
        cfg = sg.ScenarioConfig(L=1, N=4096, snr_s_db=0.0, snr_r_db=0.0, seed=9)
        _, _, s = sg.draw_sample_cov(cfg, "random-unit", [("H0", i) for i in range(64)])
        diag = np.concatenate([s.s_ss[:, 0, 0], s.s_rr[:, 0, 0]])
        assert np.all(np.isfinite(diag)) and np.all(diag.real > 0)
        assert np.array_equal(diag.imag, np.zeros(diag.size))


class TestBartlettDraw:
    def test_mean_is_the_population_covariance(self):
        # E[S] = F F^H for S = (F A)(F A)^H / N and A the Bartlett factor of
        # CW_5(N, I), drawn 10^4 times from Philox words like a trial's
        L, N, draws = 2, 6, 10**4
        p = 2 * L + 1
        rng = np.random.default_rng(11)
        f = _cn_matrix(rng, 2 * L, p)
        f[:L, L : 2 * L] = f[L:, :L] = 0.0
        shapes = N - np.arange(p)
        words = np.random.Philox(key=np.array([11, 0], dtype=np.uint64)).random_raw(
            draws * (p * (p - 1) + shapes.sum())
        )
        u = sg.model._uniforms(words).reshape(draws, -1)
        z = sg.model._complex_normals(u[:, : p * (p - 1)])
        a = sg.model._bartlett(z, sg.model._gammas(u[:, p * (p - 1) :], shapes))
        fa = f @ a
        s = fa @ fa.conj().swapaxes(-1, -2) / N
        parts = np.stack([s.real, s.imag], axis=1)  # (draws, 2, 2L, 2L)
        mean, se = parts.mean(axis=0), parts.std(axis=0) / np.sqrt(draws)
        target = f @ f.conj().T
        assert np.all(np.abs(mean - np.stack([target.real, target.imag])) <= 4 * se + 1e-12)


class TestSnapshotRoute:
    def test_matches_its_per_trial_oracle(self):
        # the snapshot route, the draw's distribution oracle, reproduces its
        # own per-trial oracle bit for bit
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=-5.0, snr_r_db=15.0, seed=34)
        trials = [(hyp, i) for hyp in ("H0", "H1") for i in range(10)]
        for mode in sg.model.STEERING_MODES:
            u_s, u_r, y_s, y_r = synth_batch(cfg, mode, trials)
            for t, (hyp, i) in enumerate(trials):
                steer, _, data = draw_trial(cfg, mode, hyp, i)
                assert np.array_equal(u_s[t], steer.u_s) and np.array_equal(u_r[t], steer.u_r)
                assert np.array_equal(y_s[t], data.y_s) and np.array_equal(y_r[t], data.y_r)


# The distribution gate: each statistic of 2000 trials per hypothesis drawn
# by draw_sample_cov against 2000 scored from synth_batch's snapshots, at
# other seeds so that the two samples are independent; two-sample KS, with a
# Bonferroni-corrected level of 0.01 over every test of the gate.
KS_SCENARIOS = {
    "n2l-ula-10db": (dict(L=4, N=8, snr_s_db=10.0, snr_r_db=10.0), "ula-random-doa"),
    "no-signal": (dict(L=4, N=15, snr_s_db=0.0, snr_r_db=0.0, sigma_x2=0.0), "random-unit"),
    "l8-n32": (dict(L=8, N=32, snr_s_db=-12.0, snr_r_db=0.0), "random-unit"),
}
KS_STATS = ("glr", "glr_sample", "sigma_max", "t_cc")
KS_LEVEL = 0.01 / (len(KS_SCENARIOS) * 2 * len(KS_STATS))


@pytest.mark.parametrize("scenario", sorted(KS_SCENARIOS))
def test_draw_matches_snapshot_route_in_distribution(scenario):
    params, mode = KS_SCENARIOS[scenario]
    runs = {}
    for route, seed in (("snapshots", 1701), ("covariance", 2701)):
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(**params, seed=seed), trials_h0=2000, trials_h1=2000,
            steering_mode=mode, detectors=KS_STATS,
        )
        runs[route] = snapshot_route_scores(cfg) if route == "snapshots" else sg.run_trials(cfg, threads=1)
    for route, scores in runs.items():
        assert not scores.errors, route
    for hyp, rows in (("H0", slice(0, 2000)), ("H1", slice(2000, None))):
        for name in KS_STATS:
            old, new = (runs[route].stat(name, rows) for route in ("snapshots", "covariance"))
            p = scipy.stats.ks_2samp(old, new).pvalue
            assert p > KS_LEVEL, f"{scenario} {hyp} {name}: p = {p:.2e}"


class TestComplexNormals:
    def test_uniforms_in_half_open_unit_interval(self):
        words = np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
        assert sg.model._uniforms(words).tolist() == [2.0**-53, 2.0**-53, 2.0**-52, 1.0]

    def test_distribution(self):
        # sqrt(-log u1) exp(2 pi i u2) is CN(0, 1): |z|^2 is Exp(1), the phase
        # is uniform on [0, 2 pi)
        words = np.random.Philox(key=np.array([7, 0], dtype=np.uint64)).random_raw(4 * 10**5)
        z = sg.model._complex_normals(sg.model._uniforms(words))
        assert z.size == 2 * 10**5
        power = np.abs(z) ** 2
        assert power.mean() == pytest.approx(1.0, abs=4 / np.sqrt(z.size))
        assert abs(z.mean()) < 4 / np.sqrt(z.size)
        assert scipy.stats.kstest(power, "expon").pvalue > 0.01
        phase = np.mod(np.angle(z), 2 * np.pi) / (2 * np.pi)
        assert scipy.stats.kstest(phase, "uniform").pvalue > 0.01
