import numpy as np
import pytest
import scipy.stats

import subspace_glr as sg
from _reference import (
    ChannelRealization,
    draw_channel,
    draw_channel_gain,
    draw_noise_cov,
    draw_steering,
    draw_trial,
    population_cov,
    scale_noise_to_snr,
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
        rng = np.random.default_rng(123)
        draws = np.array([draw_channel_gain(rng) for _ in range(10**6)])
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
        # the stacked synthesis reproduces, bit for bit, the per-trial oracle
        # that reads each trial's words from a Philox set to its counter
        cfg = sg.ScenarioConfig(L=L, N=4 * L, snr_s_db=-5.0, snr_r_db=15.0,
                                sigma_x2=sigma_x2, seed=31 + L)
        trials = [(hyp, i) for hyp in ("H0", "H1") for i in range(20)]
        u_s, u_r, y_s, y_r = sg.synth_batch(cfg, mode, trials)
        for t, (hyp, i) in enumerate(trials):
            steer, _, data = draw_trial(cfg, mode, hyp, i)
            assert np.array_equal(u_s[t], steer.u_s)
            assert np.array_equal(u_r[t], steer.u_r)
            assert np.array_equal(y_s[t], data.y_s)
            assert np.array_equal(y_r[t], data.y_r)

    @pytest.mark.parametrize("mode", sg.model.STEERING_MODES)
    @pytest.mark.parametrize("sigma_x2", [0.0, 1.0])
    def test_block_equals_its_splits(self, mode, sigma_x2):
        # a block of 256 (an H0 tail, then an H1 head) equals its 100 + 156
        # split, whose second part mixes the two, its 256 blocks of one and,
        # permuted, its trials in any order
        cfg = sg.ScenarioConfig(L=3, N=12, snr_s_db=-5.0, snr_r_db=15.0,
                                sigma_x2=sigma_x2, seed=2**64 - 1)
        trials = [("H0", i) for i in range(400, 528)] + [("H1", i) for i in range(128)]
        block = sg.synth_batch(cfg, mode, trials)
        split = zip(sg.synth_batch(cfg, mode, trials[:100]), sg.synth_batch(cfg, mode, trials[100:]))
        ones = zip(*(sg.synth_batch(cfg, mode, [trial]) for trial in trials))
        perm = np.random.default_rng(0).permutation(len(trials))
        shuffled = sg.synth_batch(cfg, mode, [trials[k] for k in perm])
        for whole, halves, singles, permuted in zip(block, split, ones, shuffled):
            assert np.array_equal(whole, np.concatenate(halves))
            assert np.array_equal(whole, np.concatenate(singles))
            assert np.array_equal(whole[perm], permuted)

    def test_rejects_bad_trials(self):
        cfg = sg.ScenarioConfig(L=2, N=4, snr_s_db=0, snr_r_db=0)
        with pytest.raises(ValueError, match="hypothesis"):
            sg.synth_batch(cfg, "random-unit", [("H0", 0), ("H2", 1)])
        with pytest.raises(ValueError, match=">= 0"):
            sg.synth_batch(cfg, "random-unit", [("H1", -1)])

    def test_seeds_no_sequence(self, monkeypatch):
        # trials are addressed by Philox counter, so synth_batch builds no
        # SeedSequence, whatever the block size
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
            sg.synth_batch(cfg, "random-unit", half)
            per_size[trials] = len(built)
        assert per_size == {8: 0, 64: 0}


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
