import dataclasses
import logging
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

import subspace_glr as sg
from subspace_glr import montecarlo
from subspace_glr.montecarlo import apply_sweep_value, wilks_diag
from _utils import zero_surveillance


def tiny_config(seed=1, L=2, N=8, trials_h0=4, trials_h1=4, detectors=("glr_low", "t_cc")):
    return sg.ExperimentConfig(
        scenario=sg.ScenarioConfig(L=L, N=N, snr_s_db=0.0, snr_r_db=10.0, seed=seed),
        trials_h0=trials_h0,
        trials_h1=trials_h1,
        detectors=detectors,
    )


def run_items(cfg):
    """The trials of a run of cfg in row order: all H0 by index, then all H1."""
    return [("H0", i) for i in range(cfg.trials_h0)] + [("H1", i) for i in range(cfg.trials_h1)]


def record_keys(scores, items, extra=False):
    """One key per row of scores, whose trials are items: the trial, its
    error and, on a valid row, its statistics; with extra, also 2 log Lambda
    and the ascent's iteration count and stop code."""
    keys = []
    for row, (hyp, idx) in enumerate(items):
        err = scores.errors.get(row)
        stats = None
        if err is None:
            stats = tuple(zip(scores.detectors, scores.stats[row].tolist()))
            if extra:
                stats += (float(scores.two_log_glr[row]), int(scores.iterations[row]),
                          int(scores.stop[row]))
        keys.append((idx, hyp, None if err is None else f"{type(err).__name__}: {err}", stats))
    return keys


def full_keys(scores, items):
    """record_keys with all six statistics and the ascent's columns."""
    assert scores.detectors == sg.DETECTOR_NAMES
    return record_keys(scores, items, extra=True)


class TestRunTrials:
    def test_deterministic_rerun(self):
        cfg = tiny_config()
        a = sg.run_trials(cfg, threads=1)
        b = sg.run_trials(cfg, threads=1)
        assert record_keys(a, run_items(cfg)) == record_keys(b, run_items(cfg))

    def test_worker_count_invariance(self):
        cfg = tiny_config(trials_h0=8, trials_h1=8)
        serial = sg.run_trials(cfg, threads=1)
        parallel = sg.run_trials(cfg, threads=2)
        assert record_keys(serial, run_items(cfg)) == record_keys(parallel, run_items(cfg))

    def test_record_reconstructible(self):
        # every record of a block equals the same trial scored alone
        cfg = tiny_config(trials_h0=12, trials_h1=12, detectors=sg.DETECTOR_NAMES)
        records = sg.run_trials(cfg, threads=1)
        assert len(records.stats) == 24 and not records.errors
        for key in full_keys(records, run_items(cfg)):
            idx, hyp = key[:2]
            assert full_keys(sg.run_one_trial(cfg, hyp, idx), [(hyp, idx)]) == [key]

    def test_block_calls_do_not_grow_with_trials(self, monkeypatch):
        # a block is factored and decomposed as one stack, whatever its size:
        # one SVD (sigma_max) and one eigh of the diagonal blocks (t_svd);
        # the lockstep ascent makes at most one eigh and one solve per pass
        # over the whole block, so their counts follow the block's largest
        # iteration count, not T
        calls = {"cholesky": 0, "cho_factor": 0, "svd": 0, "eigvalsh": 0, "eigh": 0, "solve": 0}

        def counted(mod, name):
            orig = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counted(np.linalg, "cholesky")
        counted(scipy.linalg, "cho_factor")
        counted(np.linalg, "svd")
        counted(np.linalg, "eigvalsh")
        counted(np.linalg, "eigh")
        counted(np.linalg, "solve")
        per_size, passes = {}, {}
        for trials in (8, 64):
            calls.update(dict.fromkeys(calls, 0))
            cfg = tiny_config(trials_h0=trials // 2, trials_h1=trials // 2,
                              detectors=sg.DETECTOR_NAMES)
            records = sg.run_trials(cfg, threads=1)
            per_size[trials] = dict(calls)
            passes[trials] = 1 + max(records.iterations)
        for t in per_size:
            assert 1 <= per_size[t].pop("eigh") <= 1 + passes[t]
            assert per_size[t].pop("solve") <= passes[t]
        assert per_size[8] == per_size[64]
        assert per_size[8]["svd"] == 1

    def test_failing_trial_isolated_in_its_block(self, monkeypatch):
        # one all-zero surveillance channel fails its block's stacked
        # factorization; only that trial's record carries the error
        cfg = tiny_config(trials_h0=6, trials_h1=6, detectors=sg.DETECTOR_NAMES)
        monkeypatch.setattr(montecarlo, "MAX_FAILURE_RATE", 0.5)
        real = montecarlo.draw_sample_cov

        def zero_h1_3(sc, mode, trials):
            u_s, u_r, s = real(sc, mode, trials)
            zero_surveillance(s, [k for k, item in enumerate(trials) if item == ("H1", 3)])
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", zero_h1_3)
        records = sg.run_trials(cfg, threads=1)
        keys = full_keys(records, run_items(cfg))
        failed = [key for key in keys if key[2] is not None]
        assert [(hyp, idx) for idx, hyp, *_ in failed] == [("H1", 3)]
        assert "s_ss" in failed[0][2]
        assert montecarlo.telemetry(cfg, records)["failures"] == {
            "ValueError": {"count": 1, "first": "1/H1/3"}
        }
        for idx, hyp, err, stats in keys:
            if err is None:
                alone = sg.run_one_trial(cfg, hyp, idx)
                assert full_keys(alone, [(hyp, idx)]) == [(idx, hyp, err, stats)]

    def test_nan_snapshot_fails_its_trial_alone(self, monkeypatch):
        # a NaN snapshot fails its block's stacked factorization of S_ss; the
        # one-at-a-time retry fails that trial alone, with the factorization's
        # error, and every other row equals its block-of-one score
        cfg = tiny_config(trials_h0=6, trials_h1=6, detectors=sg.DETECTOR_NAMES)
        items = run_items(cfg)
        real = montecarlo.draw_sample_cov

        def nan_h0_4(sc, mode, trials):
            u_s, u_r, s = real(sc, mode, trials)
            s.s_ss[[k for k, item in enumerate(trials) if item == ("H0", 4)], 1, 0] = np.nan
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", nan_h0_4)
        (block,) = montecarlo._run_chunk(cfg, items)
        assert list(block.errors) == [4]
        assert type(block.errors[4]) is ValueError
        assert str(block.errors[4]) == "s_ss is not positive definite"
        for row, item in enumerate(items):
            one = montecarlo._run_chunk(cfg, [item])[0]
            for name in ("stats", "two_log_glr", "iterations", "stop"):
                assert getattr(block, name)[row : row + 1].tobytes() == getattr(one, name).tobytes()

    def test_order_is_h0_then_h1(self):
        cfg = tiny_config(trials_h0=3, trials_h1=2)
        records = sg.run_trials(cfg, threads=1)
        items = [("H0", 0), ("H0", 1), ("H0", 2), ("H1", 0), ("H1", 1)]
        assert len(records.stats) == len(items)
        for row, item in enumerate(items):
            assert records.stats[row].tolist() == sg.run_one_trial(cfg, *item).stats[0].tolist()

    def test_hypotheses_use_disjoint_streams(self):
        cfg = tiny_config()
        h0 = sg.run_one_trial(cfg, "H0", 0)
        h1 = sg.run_one_trial(cfg, "H1", 0)
        assert h0.stat("glr_low")[0] != h1.stat("glr_low")[0]

    def test_signal_free_scenario_matches_null(self):
        # sigma_x2 = 0 makes H1 records statistically identical to H0 ones.
        sc = sg.ScenarioConfig(L=2, N=8, snr_s_db=0.0, snr_r_db=10.0, sigma_x2=0.0, seed=3)
        cfg = sg.ExperimentConfig(
            scenario=sc, trials_h0=800, trials_h1=800, detectors=("glr_low",)
        )
        records = sg.run_trials(cfg, threads=0)
        h0 = records.stat("glr_low", slice(0, 800))
        h1 = records.stat("glr_low", slice(800, 1600))
        from scipy.stats import ks_2samp

        assert ks_2samp(h0, h1).pvalue > 0.01


def l_sweep_config(trials_h0, trials_h1, values=(2.0, 3.0, 5.0), detectors=sg.DETECTOR_NAMES):
    return dataclasses.replace(
        tiny_config(N=16, trials_h0=trials_h0, trials_h1=trials_h1, detectors=detectors),
        sweep=sg.SweepSpec(axis="l", values=values),
        pfa=0.1,
    )


class TestPooledPoints:
    @pytest.mark.parametrize("n", [16, 66, 500, 3000, 20000])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_chunk_plan(self, n, workers):
        items = [("H0", i) for i in range(n)]
        chunks = montecarlo._plan_chunks(items, workers)
        size = min(montecarlo.BLOCK_TRIALS, math.ceil(n / workers))
        assert all(len(c) <= montecarlo.BLOCK_TRIALS for c in chunks)
        assert all(len(c) == size for c in chunks[:-1])
        assert [item for c in chunks for item in c] == items

    def test_small_point_is_one_chunk(self):
        items = [("H0", i) for i in range(7)]
        assert montecarlo._plan_chunks(items, 4) == [items]
        assert montecarlo._plan_chunks(items * 100, 1) == [items * 100]

    def test_pm_sweep_creates_one_pool(self, monkeypatch):
        created = []
        real = montecarlo.ProcessPoolExecutor

        class CountingPool(real):
            def __init__(self, *args, **kwargs):
                created.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        sg.run_pm_sweep(l_sweep_config(8, 8, detectors=("glr_low",)), threads=2)
        assert created == [{"max_workers": 2}]

    def test_pool_size_capped_at_jobs(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Stands in for the pool: records max_workers, forks nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        # three points of 10 trials, each below 2 * 8: one job per point
        sg.run_pm_sweep(l_sweep_config(5, 5, detectors=("glr_low",)), threads=8)
        # 20 trials on 8 workers: jobs of ceil(20 / 8) = 3, so 7 of them
        sg.run_trials(tiny_config(trials_h0=10, trials_h1=10), threads=8)
        # one job runs in-process and makes no pool
        sg.run_trials(tiny_config(trials_h0=3, trials_h1=3), threads=8)
        assert sizes == [3, 7]

    def test_sweep_invariant_to_workers(self):
        cfg = l_sweep_config(37, 29)
        cfgs = [apply_sweep_value(cfg, v) for v in cfg.sweep.values]
        keys, points = {}, {}
        for threads in (1, 2, 3):
            per_point = montecarlo._run_points(cfgs, threads)
            keys[threads] = [full_keys(scores, run_items(c)) for c, scores in zip(cfgs, per_point)]
            points[threads] = sg.run_pm_sweep(cfg, threads)
        assert [len(k) for k in keys[1]] == [66, 66, 66]
        assert keys[1] == keys[2] == keys[3]
        assert points[1] == points[2] == points[3]

    def test_first_failing_point_raises_at_any_worker_count(self, monkeypatch):
        # the second point (L = 3) fails 3 trials and the third (L = 5) 5;
        # the error names the second, the first over the allowed rate
        real = montecarlo.draw_sample_cov

        def zero_some(sc, mode, trials):
            u_s, u_r, s = real(sc, mode, trials)
            bad = {3: 3, 5: 5}.get(sc.L, 0)
            zero_surveillance(s, [k for k, (hyp, idx) in enumerate(trials) if hyp == "H1" and idx < bad])
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", zero_some)
        cfg = l_sweep_config(12, 12, detectors=("glr_low",))
        messages = []
        for threads in (1, 2):
            with pytest.raises(RuntimeError) as err:
                sg.run_pm_sweep(cfg, threads)
            messages.append(str(err.value))
        assert messages == ["3 of 24 trials failed, above the allowed rate 0.001"] * 2


class TestPayload:
    def test_chunk_ships_columns_only(self):
        # what a pool job sends back: a few columns per trial, and no
        # per-trial object; this counts bytes, not time
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=8, N=32, snr_s_db=-12.0, snr_r_db=0.0, seed=5),
            trials_h0=32, trials_h1=32, detectors=("glr", "glr_sample", "glr_low"),
        )
        items = [("H0", i) for i in range(32)] + [("H1", i) for i in range(32)]
        data = pickle.dumps(montecarlo._run_chunk(cfg, items))
        assert len(data) <= 64 * len(items)
        for name in (b"OptimResult", b"DetectorReport", b"TrialRecord"):
            assert name not in data


class TestCollectAndCalibrate:
    def test_collect_filters_errors(self):
        # H0 rows 0 and 1, H1 row 2; row 1 failed
        ok, failed = sg.BlockScores.empty(("glr_low",), 1), sg.BlockScores.empty(("glr_low",), 1)
        ok.stats[0, 0] = 0.5
        failed.errors[0] = ValueError("boom")
        records = sg.BlockScores.concat([ok, failed, ok])
        assert records.stat("glr_low", slice(0, 2)).tolist() == [0.5]
        assert list(records.errors) == [1] and records.valid.tolist() == [True, False, True]

    def test_order_statistic_rank(self):
        stats = np.arange(1.0, 101.0)
        assert sg.calibrate_threshold(stats, 0.05) == 95.0
        assert sg.calibrate_threshold(stats, 0.5) == 50.0

    def test_empirical_rate_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            stats = rng.standard_normal(500)
            for pfa in (0.01, 0.1, 0.3):
                thr = sg.calibrate_threshold(stats, pfa)
                assert np.mean(stats > thr) <= pfa

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sg.calibrate_threshold(np.array([]), 0.1)
        with pytest.raises(ValueError):
            sg.calibrate_threshold(np.ones(10), 1.5)


class TestRocCurve:
    def test_identical_distributions_auc_half(self):
        rng = np.random.default_rng(5)
        h0 = rng.standard_normal(4000)
        h1 = rng.standard_normal(4000)
        curve = sg.roc_curve(h0, h1)
        assert curve.auc == pytest.approx(0.5, abs=0.03)

    def test_disjoint_supports_auc_one(self):
        curve = sg.roc_curve(np.arange(100.0), np.arange(200.0, 300.0))
        assert curve.auc == pytest.approx(1.0, abs=1e-12)
        assert np.all(curve.pd[curve.pfa > 0] == 1.0)

    def test_monotone_in_pfa(self):
        rng = np.random.default_rng(6)
        curve = sg.roc_curve(rng.standard_normal(300), rng.standard_normal(300) + 1.0)
        assert np.all(np.diff(curve.pfa) >= 0)
        assert np.all(np.diff(curve.pd) >= 0)
        assert curve.pfa[0] == 0.0 or curve.pd[0] <= curve.pd[-1]
        assert curve.pfa[-1] == 1.0 and curve.pd[-1] == 1.0

    def test_shift_improves_auc(self):
        rng = np.random.default_rng(7)
        h0 = rng.standard_normal(2000)
        weak = sg.roc_curve(h0, rng.standard_normal(2000) + 0.3).auc
        strong = sg.roc_curve(h0, rng.standard_normal(2000) + 2.0).auc
        assert strong > weak > 0.5


class TestPmAt:
    def test_separated_samples(self):
        h0 = np.arange(100.0)
        h1 = np.arange(1000.0, 1100.0)
        point = sg.pm_at(h0, h1, pfa=0.05, sweep_value=-5.0)
        assert point.pm == 0.0
        assert point.ci_lo == 0.0 and point.ci_hi == 0.0
        assert point.sweep_value == -5.0

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(8)
        point = sg.pm_at(rng.standard_normal(500), rng.standard_normal(400) + 1.0, 0.1)
        assert 0.0 <= point.ci_lo <= point.pm <= point.ci_hi <= 1.0
        assert point.ci_hi - point.ci_lo > 0.0


class TestWilksDiag:
    def test_chi2_sample_close(self):
        rng = np.random.default_rng(9)
        m = 10_000
        draws = -2.0 * np.log(rng.uniform(size=m))
        ks, table = wilks_diag(draws)
        assert ks <= 1.36 / np.sqrt(m) + 0.01
        assert table.shape == (m, 3)
        assert np.all(np.diff(table[:, 0]) >= 0)

    def test_constant_sample_far(self):
        ks, _ = wilks_diag(np.full(100, 5.0))
        assert ks > 0.9

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            wilks_diag(np.array([1.0, -1e-3]))

    def test_clips_roundoff(self):
        ks, table = wilks_diag(np.array([0.2, -1e-12, 1.0]))
        assert table[0, 0] == 0.0
        assert 0.0 < ks <= 1.0


class TestSweep:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            sg.SweepSpec(axis="bogus", values=(1.0, 2.0))
        with pytest.raises(ValueError, match="increasing"):
            sg.SweepSpec(axis="snr_s_db", values=(0.0, 0.0))
        with pytest.raises(ValueError, match="offset"):
            sg.SweepSpec(axis="n", values=(8.0, 12.0), snr_r_db_offset=10.0)
        assert sg.SweepSpec(axis="snr_s_db", values=(3.0,)).values == (3.0,)

    def test_snr_axis_couples_reference(self):
        cfg = tiny_config()
        cfg = dataclasses.replace(
            cfg, sweep=sg.SweepSpec(axis="snr_s_db", values=(-10.0, 0.0), snr_r_db_offset=10.0)
        )
        point = apply_sweep_value(cfg, -10.0)
        assert point.scenario.snr_s_db == -10.0
        assert point.scenario.snr_r_db == 0.0
        assert point.sweep is None

    def test_snr_axis_without_offset_keeps_reference(self):
        cfg = dataclasses.replace(
            tiny_config(), sweep=sg.SweepSpec(axis="snr_s_db", values=(-5.0, 5.0))
        )
        point = apply_sweep_value(cfg, 5.0)
        assert point.scenario.snr_r_db == 10.0

    def test_integer_axes(self):
        cfg = dataclasses.replace(tiny_config(), sweep=sg.SweepSpec(axis="n", values=(8.0, 12.0)))
        assert apply_sweep_value(cfg, 12.0).scenario.N == 12
        cfg = dataclasses.replace(
            tiny_config(L=2, N=16), sweep=sg.SweepSpec(axis="l", values=(2.0, 3.0))
        )
        point = apply_sweep_value(cfg, 3.0)
        assert point.scenario.L == 3 and isinstance(point.scenario.L, int)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="trials_h0"):
            tiny_config(trials_h0=0)
        with pytest.raises(ValueError, match="pfa"):
            dataclasses.replace(tiny_config(), pfa=0.0)
        with pytest.raises(ValueError, match="detector"):
            tiny_config(detectors=())
        with pytest.raises(ValueError, match="unknown"):
            tiny_config(detectors=("glr", "nope"))
        with pytest.raises(ValueError, match="n_restarts"):
            dataclasses.replace(tiny_config(), n_restarts=-1)

    def test_rejects_repeated_detectors(self):
        # checked by the dataclass, so library callers get it too
        with pytest.raises(ValueError, match="config.detectors"):
            tiny_config(detectors=("glr_low", "glr_low"))


class TestExperimentRunners:
    def test_roc_experiment_smoke(self):
        cfg = tiny_config(trials_h0=30, trials_h1=30, detectors=("glr_low", "sigma_max"))
        curves, failures, _ = sg.run_roc_experiment(cfg, threads=1)
        assert set(curves) == {"glr_low", "sigma_max"}
        assert failures == {"H0": 0, "H1": 0}
        for curve in curves.values():
            assert 0.0 <= curve.auc <= 1.0

    def test_roc_requires_h1(self):
        with pytest.raises(ValueError, match="trials_h1"):
            sg.run_roc_experiment(tiny_config(trials_h1=0), threads=1)

    def test_pm_sweep_smoke(self):
        cfg = dataclasses.replace(
            tiny_config(trials_h0=30, trials_h1=30, detectors=("glr_low",)),
            sweep=sg.SweepSpec(axis="snr_s_db", values=(-5.0, 5.0), snr_r_db_offset=10.0),
            pfa=0.1,
        )
        points, failures, _ = sg.run_pm_sweep(cfg, threads=1)
        assert [p.sweep_value for p in points["glr_low"]] == [-5.0, 5.0]
        assert set(failures) == {repr(-5.0), repr(5.0)}
        assert all(0.0 <= p.pm <= 1.0 for p in points["glr_low"])

    def test_pm_sweep_warns_once_per_noisy_point(self, caplog):
        # 30 H0 trials are fewer than 10 / pfa at pfa = 0.1: one warning per
        # point, however many detectors share its H0 trials
        cfg = dataclasses.replace(
            tiny_config(trials_h0=30, trials_h1=30, detectors=("glr_sample", "glr_low", "t_cc")),
            sweep=sg.SweepSpec(axis="snr_s_db", values=(-5.0, 0.0, 5.0), snr_r_db_offset=10.0),
            pfa=0.1,
        )
        caplog.set_level(logging.WARNING, logger="subspace_glr.montecarlo")
        sg.run_pm_sweep(cfg, threads=1)
        noisy = [r.getMessage() for r in caplog.records if "threshold is noisy" in r.getMessage()]
        assert noisy == [
            f"point {v}: only 30 H0 trials for pfa = 0.1; threshold is noisy" for v in (-5.0, 0.0, 5.0)
        ]

    def test_pm_sweep_requires_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            sg.run_pm_sweep(tiny_config(), threads=1)

    def test_null_dist_smoke(self):
        cfg = tiny_config(trials_h0=40, trials_h1=5, detectors=("glr",))
        ks, table, n_valid, _ = sg.run_null_dist(cfg, threads=1)
        assert n_valid == 40  # H1 trials are dropped for a null-only run
        assert table.shape == (40, 3)
        assert 0.0 <= ks <= 1.0

    def test_null_dist_needs_glr(self):
        with pytest.raises(ValueError, match="glr"):
            sg.run_null_dist(tiny_config(detectors=("glr_low",)), threads=1)
