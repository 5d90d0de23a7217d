import dataclasses
import json
import logging
import math
import os
import pickle
import signal

import numpy as np
import pytest
import scipy.linalg

import subspace_glr as sg
from subspace_glr import cli, montecarlo
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

        def zero_h1_3(sc, trials):
            u_s, u_r, s = real(sc, trials)
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
        # a NaN snapshot fails its block's stacked factorization of S_ss;
        # score_batch then factors each trial alone, fails that trial with
        # the factorization's error, and every other row equals its
        # block-of-one score
        cfg = tiny_config(trials_h0=6, trials_h1=6, detectors=sg.DETECTOR_NAMES)
        items = run_items(cfg)
        real = montecarlo.draw_sample_cov

        def nan_h0_4(sc, trials):
            u_s, u_r, s = real(sc, trials)
            s.s_ss[[k for k, item in enumerate(trials) if item == ("H0", 4)], 1, 0] = np.nan
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", nan_h0_4)
        block = montecarlo._score_block(cfg, items)
        assert list(block.errors) == [4]
        assert type(block.errors[4]) is ValueError
        assert str(block.errors[4]) == "s_ss is not positive definite"
        for row, item in enumerate(items):
            one = montecarlo._score_block(cfg, [item])
            for name in ("stats", "two_log_glr", "iterations", "stop"):
                assert getattr(block, name)[row : row + 1].tobytes() == getattr(one, name).tobytes()

    def test_failing_trial_scored_in_one_call(self, monkeypatch):
        # one NaN snapshot in a 300-item block fails its stacked
        # factorization; the block still takes one draw and one score_batch
        # call, that trial alone fails, and every other row keeps its bytes
        # from the clean block
        cfg = tiny_config(trials_h0=300, trials_h1=0)
        items = run_items(cfg)
        clean = montecarlo._score_block(cfg, items)
        real_draw, real_score, draws, calls = montecarlo.draw_sample_cov, montecarlo.score_batch, [], []

        def nan_h0_137(sc, trials):
            draws.append(len(trials))
            u_s, u_r, s = real_draw(sc, trials)
            s.s_ss[[k for k, item in enumerate(trials) if item == ("H0", 137)], 1, 0] = np.nan
            return u_s, u_r, s

        def counted(*args):
            calls.append(len(args[0].s_ss))
            return real_score(*args)

        monkeypatch.setattr(montecarlo, "draw_sample_cov", nan_h0_137)
        monkeypatch.setattr(montecarlo, "score_batch", counted)
        block = montecarlo._score_block(cfg, items)
        assert draws == [300] and calls == [300]
        assert list(block.errors) == [137]
        assert str(block.errors[137]) == "s_ss is not positive definite"
        rest = np.arange(300) != 137
        for name in ("stats", "two_log_glr", "iterations", "stop"):
            assert getattr(block, name)[rest].tobytes() == getattr(clean, name)[rest].tobytes()

    def test_high_snr_block_rows_equal_trials_alone(self, monkeypatch):
        # at 150 dB and N = 2L many trials' S_ss or S_rr do not factor and
        # many channels are fully coherent; the block takes one score_batch
        # call, and each row's error, message and columns equal the trial's
        # scored alone
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=4, N=8, snr_s_db=150.0, snr_r_db=150.0, seed=5),
            trials_h0=40, trials_h1=40, detectors=("glr", "glr_sample", "sigma_max"),
        )
        items = run_items(cfg)
        real, calls = montecarlo.score_batch, []

        def counted(*args):
            calls.append(len(args[0].s_ss))
            return real(*args)

        monkeypatch.setattr(montecarlo, "score_batch", counted)
        block = montecarlo._score_block(cfg, items)
        assert calls == [80]
        messages = {str(e).split(":")[0] for e in block.errors.values()}
        assert messages == {"s_ss is not positive definite", "s_rr is not positive definite",
                            "the channels are fully coherent"}
        assert 0 < np.sum(block.valid) < 80
        monkeypatch.setattr(montecarlo, "score_batch", real)
        keys = record_keys(block, items)
        for row, item in enumerate(items):
            one = sg.run_one_trial(cfg, *item)
            assert record_keys(one, [item]) == [keys[row]]
            for name in ("stats", "two_log_glr", "iterations", "stop"):
                assert getattr(block, name)[row : row + 1].tobytes() == getattr(one, name).tobytes()

    def test_defect_in_scoring_propagates(self, monkeypatch):
        # an exception from score_batch is a defect, not a trial failure:
        # run_trials and run_one_trial raise it as it is
        class Defect(Exception):
            pass

        def broken(*args):
            raise Defect("defect in scoring")

        monkeypatch.setattr(montecarlo, "score_batch", broken)
        cfg = tiny_config()
        with pytest.raises(Defect):
            sg.run_trials(cfg, threads=1)
        with pytest.raises(Defect):
            sg.run_one_trial(cfg, "H1", 0)

    def test_nan_cross_entry_scored_without_bisection(self, monkeypatch):
        # a NaN in one trial's S_sr leaves every stacked factorization whole:
        # the block is scored by one score_batch call, that trial fails as a
        # non-finite statistic, and every other row equals the clean block's
        cfg = tiny_config(L=3, N=12, trials_h0=6, trials_h1=6, detectors=sg.DETECTOR_NAMES)
        items = run_items(cfg)
        clean = montecarlo._score_block(cfg, items)
        real_draw, real_score, calls = montecarlo.draw_sample_cov, montecarlo.score_batch, []

        def nan_h1_2(sc, trials):
            u_s, u_r, s = real_draw(sc, trials)
            s.s_sr[[k for k, item in enumerate(trials) if item == ("H1", 2)], 0, 1] = np.nan
            return u_s, u_r, s

        def counted(*args):
            calls.append(len(args[0].s_ss))
            return real_score(*args)

        monkeypatch.setattr(montecarlo, "draw_sample_cov", nan_h1_2)
        monkeypatch.setattr(montecarlo, "score_batch", counted)
        block = montecarlo._score_block(cfg, items)
        assert calls == [12]
        assert list(block.errors) == [8]
        assert type(block.errors[8]) is sg.DegenerateSampleError
        assert str(block.errors[8]) == "non-finite statistic glr = nan"
        rest = np.arange(12) != 8
        for name in ("stats", "two_log_glr", "iterations", "stop"):
            assert getattr(block, name)[rest].tobytes() == getattr(clean, name)[rest].tobytes()

    @pytest.mark.parametrize("n, sizes", [(300, [300]), (600, [300, 300]), (513, [257, 256])])
    def test_point_scored_in_balanced_blocks(self, n, sizes):
        # the fewest blocks of at most BLOCK_TRIALS, whose sizes differ by at
        # most one; the plan's columns equal one block holding all the items
        cfg = tiny_config(trials_h0=n // 2, trials_h1=n - n // 2, detectors=sg.DETECTOR_NAMES)
        items = run_items(cfg)
        blocks = [montecarlo._score_block(cfg, b) for b in montecarlo._blocks(items, 1)]
        assert [len(b.stats) for b in blocks] == sizes
        plan, whole = sg.BlockScores.concat(blocks), montecarlo._score_block(cfg, items)
        assert not plan.errors and not whole.errors
        for name in ("stats", "two_log_glr", "iterations", "stop"):
            assert getattr(plan, name).tobytes() == getattr(whole, name).tobytes()

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


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def l_sweep_config(trials_h0, trials_h1, values=(2.0, 3.0, 5.0), detectors=sg.DETECTOR_NAMES):
    return dataclasses.replace(
        tiny_config(N=16, trials_h0=trials_h0, trials_h1=trials_h1, detectors=detectors),
        sweep=sg.SweepSpec(axis="l", values=values),
        pfa=0.1,
    )


class TestPooledPoints:
    @pytest.mark.parametrize("n", [1, 7, 15, 16, 66, 300, 500, 513, 600, 1025, 3000, 20000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_blocks(self, n, workers):
        # the fewest blocks of at most BLOCK_TRIALS, and at least one per
        # worker from 2 * workers items, of sizes within one of each other,
        # in order
        items = [("H0", i) for i in range(n)]
        blocks = montecarlo._blocks(items, workers)
        sizes = [len(b) for b in blocks]
        assert len(blocks) == max(math.ceil(n / montecarlo.BLOCK_TRIALS), workers if n >= 2 * workers else 1)
        assert max(sizes) <= montecarlo.BLOCK_TRIALS
        assert max(sizes) - min(sizes) <= 1
        assert [item for b in blocks for item in b] == items

    def test_threads_0_counts_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert montecarlo.resolve_threads(0) == 1
        assert montecarlo.resolve_threads(3) == 3
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        assert montecarlo.resolve_threads(0) == 3
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo.resolve_threads(0) == 1

    def test_pm_sweep_creates_one_pool(self, monkeypatch):
        maps = []
        real = montecarlo._forked_map

        def counting_map(fn, args, workers):
            maps.append(workers)
            return real(fn, args, workers)

        monkeypatch.setattr(montecarlo, "_forked_map", counting_map)
        sg.run_pm_sweep(l_sweep_config(8, 8, detectors=("glr_low",)), threads=2)
        assert maps == [2]

    def test_pool_size_capped_at_jobs(self, monkeypatch):
        sizes = []

        def in_process_map(fn, args, workers):
            """Stands in for the forked map: records its worker count, forks nothing."""
            sizes.append(min(workers, len(args)))
            return (fn(*a) for a in args)

        monkeypatch.setattr(montecarlo, "_forked_map", in_process_map)
        # three points of 10 trials, each below 2 * 8: one job per point
        sg.run_pm_sweep(l_sweep_config(5, 5, detectors=("glr_low",)), threads=8)
        # 20 trials on 8 workers: 8 blocks of 3 or 2 trials, one job each
        sg.run_trials(tiny_config(trials_h0=10, trials_h1=10), threads=8)
        # one job runs in-process and forks nothing
        sg.run_trials(tiny_config(trials_h0=3, trials_h1=3), threads=8)
        assert sizes == [3, 8]

    def test_no_fork_runs_in_process(self, monkeypatch):
        # without os.fork a run stays in-process, cut as at one worker
        cfg = tiny_config(trials_h0=10, trials_h1=10)
        serial = sg.run_trials(cfg, 1)
        monkeypatch.delattr(montecarlo.os, "fork")
        monkeypatch.setattr(montecarlo, "_forked_map", None)
        assert record_keys(sg.run_trials(cfg, 2), run_items(cfg)) == record_keys(serial, run_items(cfg))

    def test_killed_worker_raises_and_leaves_no_process(self, monkeypatch, tmp_path, capsys):
        # a worker that dies mid-run fails the run, naming the worker; the
        # CLI maps that to exit 3, and no worker outlives the call
        real, parent = montecarlo.draw_sample_cov, os.getpid()

        def killing(sc, trials):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(sc, trials)

        monkeypatch.setattr(montecarlo, "draw_sample_cov", killing)
        cfg = l_sweep_config(8, 8, detectors=("glr_low",))
        with pytest.raises(RuntimeError, match=r"^worker process \d+ ended \(exit status -9\) before"):
            sg.run_pm_sweep(cfg, threads=2)
        assert_no_child()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        argv = ["pm-sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("error: worker process ")
        assert_no_child()

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

    def test_long_point_invariant_to_workers(self):
        # a point of more than 2 * BLOCK_TRIALS trials: at one worker and at
        # two it is cut into the same three blocks of 357 or 356, scored
        # in-process or in the pool
        cfg = tiny_config(trials_h0=550, trials_h1=520, detectors=("glr_low",))
        assert [len(b) for b in montecarlo._blocks(run_items(cfg), 2)] == [357, 357, 356]
        serial, pooled = (sg.run_trials(cfg, threads) for threads in (1, 2))
        assert record_keys(serial, run_items(cfg)) == record_keys(pooled, run_items(cfg))

    def test_first_failing_point_raises_at_any_worker_count(self, monkeypatch):
        # the second point (L = 3) fails 3 trials and the third (L = 5) 5;
        # the error names the second, the first over the allowed rate
        real = montecarlo.draw_sample_cov

        def zero_some(sc, trials):
            u_s, u_r, s = real(sc, trials)
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
            assert_no_child()
        assert messages == ["3 of 24 trials failed, above the allowed rate 0.001"] * 2


class TestPayload:
    def test_block_ships_columns_only(self):
        # what a pool job sends back: a few columns per trial, and no
        # per-trial object; this counts bytes, not time
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=8, N=32, snr_s_db=-12.0, snr_r_db=0.0, seed=5),
            trials_h0=32, trials_h1=32, detectors=("glr", "glr_sample", "glr_low"),
        )
        items = [("H0", i) for i in range(32)] + [("H1", i) for i in range(32)]
        data = pickle.dumps(montecarlo._score_block(cfg, items))
        assert len(data) <= 64 * len(items)
        for name in (b"OptimResult", b"DetectorReport", b"TrialRecord"):
            assert name not in data


def binomial_tail(m: int, u: float, k: int) -> float:
    """P(Bin(m, u) >= k), summed from log-binomial terms."""
    j = np.arange(k, m + 1)
    log_c = np.array([math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1) for i in j.tolist()])
    return float(np.sum(np.exp(log_c + j * math.log(u) + (m - j) * math.log1p(-u))))


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

    @pytest.mark.parametrize("L, N, seed", [(2, 12, 9301), (4, 15, 9302)])
    def test_glr_low_threshold_within_the_order_statistic_band(self, L, N, seed):
        # under H0 glr_low ~ Beta(1, N - 1), with CDF F(x) = 1 - (1 - x)^{N-1},
        # so the threshold at pfa is the quantile q = 1 - pfa^{1/(N-1)}.
        # calibrate_threshold returns the order statistic X_(k) of M draws,
        # k = ceil((1 - pfa) M), and P(F(X_(k)) <= u) = P(Bin(M, u) >= k):
        # the threshold lies within that binomial band's two-sided 1e-3
        # level, as does q. The seeds are fixed once, 2000 H0 trials
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=L, N=N, snr_s_db=0.0, snr_r_db=10.0, seed=seed),
            trials_h0=2000, detectors=("glr_low",),
        )
        scores = sg.run_trials(cfg, threads=1)
        assert not scores.errors
        h0 = scores.stat("glr_low")
        for pfa in (0.01, 0.05, 0.1):
            k = math.ceil((1.0 - pfa) * h0.size)
            thr = sg.calibrate_threshold(h0, pfa)
            for x in (thr, 1.0 - pfa ** (1.0 / (N - 1))):
                band = binomial_tail(h0.size, 1.0 - (1.0 - x) ** (N - 1), k)
                assert 5e-4 <= band <= 1.0 - 5e-4, (pfa, x, band)

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

    def test_thresholds_are_np_unique_of_the_pooled_sample(self):
        # ties within and across the samples, and signed zeros, give the
        # operating points of np.unique's thresholds, bit for bit
        rng = np.random.default_rng(8)
        h0 = np.concatenate([rng.integers(0, 6, 40) / 4.0, [-0.0, 0.0]])
        h1 = np.concatenate([rng.integers(2, 9, 30) / 4.0, [0.0, -0.0]])
        thresholds = np.unique(np.concatenate([h0, h1]))
        pfa = np.r_[1.0, 1.0 - np.searchsorted(np.sort(h0), thresholds, side="right") / h0.size]
        pd = np.r_[1.0, 1.0 - np.searchsorted(np.sort(h1), thresholds, side="right") / h1.size]
        order = np.lexsort((pd, pfa))
        curve = sg.roc_curve(h0, h1)
        assert curve.pfa.tobytes() == pfa[order].tobytes()
        assert curve.pd.tobytes() == pd[order].tobytes()

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

    def test_rejects_repeated_detectors(self):
        # checked by the dataclass, so library callers get it too
        with pytest.raises(ValueError, match="config.detectors"):
            tiny_config(detectors=("glr_low", "glr_low"))

    @pytest.mark.parametrize("field, value", [
        ("L", 2.0), ("N", 8.5), ("wishart_dof", 3.5), ("seed", 1.5), ("trials_h0", 2.5), ("trials_h1", 2.5),
        ("L", None), ("N", None), ("seed", None), ("trials_h0", None), ("trials_h1", None),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        # checked by the dataclasses, for library callers and the JSON loader
        # alike: a float seed would draw as its floor, a float size fail inside
        # numpy; None is the default of wishart_dof only
        scenario = dict(L=2, N=8, snr_s_db=0.0, snr_r_db=10.0, seed=1)
        run = dict(trials_h0=4, trials_h1=4)
        (run if field.startswith("trials") else scenario)[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            sg.ExperimentConfig(scenario=sg.ScenarioConfig(**scenario), **run)

    @pytest.mark.parametrize("part, fields, message", [
        ("scenario", {"snr_s_db": "3"}, "snr_s_db must be a real number, got '3'"),
        ("scenario", {"snr_r_db": None}, "snr_r_db must be a real number, got None"),
        ("scenario", {"L": True}, "L must be an integer, got True"),
        ("run", {"pfa": "0.1"}, "pfa must be a real number, got '0.1'"),
        ("run", {"trials_h0": True}, "trials_h0 must be an integer, got True"),
        ("run", {"detectors": "glr"}, "detectors must be a list of names, got 'glr'"),
        ("run", {"detectors": "t_cc"}, "detectors must be a list of names, got 't_cc'"),
        ("sweep", {"axis": "l", "values": "12"}, "sweep values must be a list, got '12'"),
        ("sweep", {"axis": "l", "values": ["2", "4"]}, "sweep value must be a real number, got '2'"),
        ("sweep", {"axis": "snr_s_db", "values": [0.0], "snr_r_db_offset": "1"},
         "snr_r_db_offset must be a real number, got '1'"),
        ("run", {"scenario": {"L": 2}}, "scenario must be a ScenarioConfig, got {'L': 2}"),
        ("run", {"sweep": "l"}, "sweep must be a SweepSpec or None, got 'l'"),
        ("sweep", {"axis": "l", "values": 5}, "sweep values must be a list, got 5"),
        ("run", {"detectors": 5}, "detectors must be a list of names, got 5"),
        ("run", {"detectors": [1, "x"]}, "detectors must be a list of names, got [1, 'x']"),
    ], ids=["snr_s_db-str", "snr_r_db-none", "l-bool", "pfa-str", "trials_h0-bool", "detectors-glr",
            "detectors-t_cc", "values-str", "values-strs", "offset-str", "scenario-dict", "sweep-str",
            "values-int", "detectors-int", "detectors-non-str"])
    def test_fields_of_the_wrong_type_get_named_errors(self, part, fields, message):
        # the dataclasses are the config's only type check: a library caller
        # and the JSON loader get a ValueError naming the field, not a
        # TypeError, a string read as a list of characters, a bool read as an
        # integer or a dict taken for a scenario
        scenario = dict(L=2, N=8, snr_s_db=0.0, snr_r_db=10.0)
        run = dict(trials_h0=4)
        with pytest.raises(ValueError) as err:
            if part == "sweep":
                sg.SweepSpec(**fields)
            else:
                (scenario if part == "scenario" else run).update(fields)
                sg.ExperimentConfig(**{"scenario": sg.ScenarioConfig(**scenario), **run})
        assert str(err.value) == message

    def test_real_fields_take_numpy_reals(self):
        cfg = sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=2, N=8, snr_s_db=np.float32(0.5), snr_r_db=np.int64(10)),
            trials_h0=4, pfa=np.float64(0.05),
        )
        assert (cfg.scenario.snr_s_db, cfg.scenario.snr_r_db, cfg.pfa) == (0.5, 10.0, 0.05)
        assert all(type(v) is float for v in (cfg.scenario.snr_s_db, cfg.scenario.snr_r_db, cfg.pfa))
        sweep = sg.SweepSpec("snr_s_db", (np.int32(-5), np.float64(5.0)), snr_r_db_offset=np.float32(1.0))
        assert sweep.values == (-5.0, 5.0) and sweep.snr_r_db_offset == 1.0

    def test_integer_fields_take_numpy_integers(self):
        cfg = tiny_config(seed=np.uint64(2**64 - 1), L=np.int64(2), trials_h0=np.int32(3))
        assert cfg.scenario.seed == 2**64 - 1 and type(cfg.scenario.seed) is int
        assert type(cfg.scenario.L) is int and type(cfg.trials_h0) is int


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
        (ks, table), failures, _ = sg.run_null_dist(cfg, threads=1)
        assert len(table) == 40  # H1 trials are dropped for a null-only run
        assert failures == {"H0": 0}
        assert table.shape == (40, 3)
        assert 0.0 <= ks <= 1.0

    @pytest.mark.parametrize("command", ["roc", "pm-sweep", "null-dist"])
    def test_failures_count_invalid_rows(self, tmp_path, monkeypatch, command):
        # a NaN in the sample covariance of H0 trial 2 and of H1 trial 4
        # fails those trials: every runner counts the invalid rows per
        # hypothesis (per sweep value for pm-sweep, H0 alone for null-dist),
        # and the CLI writes those counts to the manifest's trial_failures
        monkeypatch.setattr(montecarlo, "MAX_FAILURE_RATE", 0.5)
        real = montecarlo.draw_sample_cov

        def nan_h0_2_and_h1_4(sc, trials):
            u_s, u_r, s = real(sc, trials)
            s.s_ss[[k for k, item in enumerate(trials) if item in {("H0", 2), ("H1", 4)}], 1, 0] = np.nan
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", nan_h0_2_and_h1_4)
        cfg = dataclasses.replace(
            tiny_config(trials_h0=6, trials_h1=6, detectors=("glr", "glr_low")),
            sweep=sg.SweepSpec(axis="snr_s_db", values=(-5.0, 5.0), snr_r_db_offset=10.0),
        )

        def invalid(point):
            valid = sg.run_trials(point, threads=1).valid
            rows = {"H0": valid[: point.trials_h0], "H1": valid[point.trials_h0 :]}
            return {hyp: int(np.sum(~v)) for hyp, v in rows.items() if v.size}

        if command == "roc":
            _, failures, _ = sg.run_roc_experiment(cfg, threads=1)
            expected = invalid(cfg)
            assert expected == {"H0": 1, "H1": 1}
        elif command == "pm-sweep":
            _, failures, _ = sg.run_pm_sweep(cfg, threads=1)
            expected = {repr(v): sum(invalid(apply_sweep_value(cfg, v)).values()) for v in cfg.sweep.values}
            assert expected == {"-5.0": 2, "5.0": 2}
        else:
            _, failures, _ = sg.run_null_dist(cfg, threads=1)
            expected = invalid(dataclasses.replace(cfg, trials_h1=0))
            assert expected == {"H0": 1}
        assert failures == expected
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["trial_failures"] == expected

    def test_null_dist_needs_glr(self):
        with pytest.raises(ValueError, match="glr"):
            sg.run_null_dist(tiny_config(detectors=("glr_low",)), threads=1)
