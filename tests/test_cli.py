import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subspace_glr as sg
from subspace_glr import montecarlo
from subspace_glr.cli import main
from _utils import rand_unit, zero_surveillance


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": {"L": 2, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0, "seed": 7},
        "trials_h0": 12,
        "trials_h1": 12,
        "detectors": ["glr_low", "sigma_max"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def write_null_case_files(tmp_path, L=2, N=8, seed=60):
    # disjoint snapshot supports force the sample cross block to exact zero
    rng = np.random.default_rng(seed)
    y_s = np.zeros((L, N), dtype=complex)
    y_r = np.zeros((L, N), dtype=complex)
    half = N // 2
    y_s[:, :half] = rng.standard_normal((L, half)) + 1j * rng.standard_normal((L, half))
    y_r[:, half:] = rng.standard_normal((L, half)) + 1j * rng.standard_normal((L, half))
    data_path = tmp_path / "data.csv"
    sg.write_snapshot_csv(data_path, sg.SnapshotData(y_s, y_r, "unknown"))
    steer_path = tmp_path / "steer.csv"
    sg.write_steering_csv(steer_path, sg.SteeringPair(rand_unit(rng, L), rand_unit(rng, L)))
    return data_path, steer_path


class TestValidateConfig:
    def test_resolves_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["scenario"]["wishart_dof"] == 4  # 2L materialized
        assert resolved["pfa"] == 0.01
        assert resolved["steering_mode"] == "random-unit"
        assert resolved["n_restarts"] == 0
        assert "optimizer" not in resolved

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", str(cfg), "--seed", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"]["seed"] == 99

    def test_unknown_field_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus_knob=1)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials_h0=0)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "trials_h0" in capsys.readouterr().err

    def test_missing_scenario_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"L": 2}, "trials_h0": 4}))
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "scenario.N" in capsys.readouterr().err

    def test_huge_integer_in_float_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario={"L": 2, "N": 8, "snr_s_db": 10**400, "snr_r_db": 0.0})
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "scenario.snr_s_db: integer too large for a float" in capsys.readouterr().err

    def test_nested_type_error_names_path_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario={"L": 2.5, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0})
        assert main(["validate-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "scenario.L: expected int" in err
        assert "scenario: " not in err

    def test_readme_configs_validate(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for k, block in enumerate(blocks):
            cfg = tmp_path / f"readme{k}.json"
            cfg.write_text(block)
            assert main(["validate-config", "--config", str(cfg)]) == 0, capsys.readouterr().err

    def test_readme_config_reference_names_every_field(self):
        # each "(`Class`):" line opens a list of "- `field`: ..." bullets
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config reference")[1].split("\n### ")[0]
        named, current = {}, None
        for line in section.splitlines():
            head = re.search(r"\(`(\w+)`\):$", line)
            if head:
                current = named.setdefault(head.group(1), set())
            elif line.startswith("- `"):
                current.update(re.findall(r"`(\w+)`", line.split(":")[0]))
        expected = {
            cls.__name__: {f.name for f in dataclasses.fields(cls)}
            for cls in (sg.ExperimentConfig, sg.ScenarioConfig, sg.SweepSpec)
        }
        assert named == expected

    def test_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_integer_beyond_digit_limit(self, tmp_path, capsys):
        # json.load raises a plain ValueError here, not a JSONDecodeError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(write_config(tmp_path).read_text().replace('"seed": 7', '"seed": ' + "7" * 5000))
        assert main(["validate-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "4300" in err

    def test_undecodable_bytes_name_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"scenario": \xff}')
        assert main(["validate-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "utf-8" in err

    @pytest.mark.parametrize("field, value", [
        ("optimizer", {"n_restarts": 1}),
        ("pfa_grid", [0.1]),
        ("max_failure_rate", 0.5),
    ])
    def test_removed_fields_rejected(self, tmp_path, capsys, monkeypatch, field, value):
        # rejected with the config, before any trial runs
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_run_points", no_trials)
        cfg = write_config(
            tmp_path, detectors=["glr"], sweep={"axis": "snr_s_db", "values": [0.0]}, **{field: value}
        )
        for command in ("validate-config", "roc", "pm-sweep", "null-dist"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(tmp_path / command), "--threads", "1"]
            assert main(argv) == 2
            assert f"unknown fields ['{field}']" in capsys.readouterr().err

    def test_duplicate_detectors_rejected(self, tmp_path, capsys):
        # a repeated name would score and write every row once per repeat
        cfg = write_config(
            tmp_path, detectors=["glr_low", "glr_low"],
            sweep={"axis": "snr_s_db", "values": [-5.0, 0.0, 5.0]},
        )
        for command in ("validate-config", "pm-sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(tmp_path / command), "--threads", "1"]
            assert main(argv) == 2
            assert "config.detectors" in capsys.readouterr().err
        assert not (tmp_path / "pm-sweep" / "pm.csv").exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field, path", [
        ("snr_s_db", "config.scenario: snr_s_db"),
        ("snr_r_db", "config.scenario: snr_r_db"),
        ("sigma_x2", "config.scenario: sigma_x2"),
        ("values", "config.sweep: sweep values"),
        ("snr_r_db_offset", "config.sweep: snr_r_db_offset"),
    ])
    def test_non_finite_floats_rejected(self, tmp_path, capsys, monkeypatch, field, path, text):
        # JSON's NaN and Infinity, and 1e400 (which parses to inf), are
        # rejected with the config, before any trial runs
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_run_points", no_trials)
        scenario = {"L": 2, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0, "seed": 7}
        sweep = {"axis": "snr_s_db", "values": [0.0], "snr_r_db_offset": 1.0}
        if field == "values":
            sweep["values"] = [-5.0, "@"]
        elif field == "snr_r_db_offset":
            sweep["snr_r_db_offset"] = "@"
        else:
            scenario[field] = "@"
        cfg = write_config(tmp_path, scenario=scenario, sweep=sweep)
        cfg.write_text(cfg.read_text().replace('"@"', text))
        for command in ("validate-config", "roc", "pm-sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(tmp_path / command), "--threads", "1"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"{path} must be finite" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("axis, values", [("l", [2, 2.5, 3.7]), ("n", [16, 20.5])])
    def test_sweep_rejects_non_integer_sizes(self, tmp_path, capsys, axis, values):
        cfg = write_config(tmp_path, sweep={"axis": axis, "values": values})
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "sweep.values" in capsys.readouterr().err

    def test_sweep_accepts_integral_floats(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "l", "values": [1.0, 2]})
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["sweep"]["values"] == [1.0, 2.0]

    @pytest.mark.parametrize("sweep, needle", [
        ({"axis": "n", "values": [4, 16]}, "N must be >= 2*L"),
        ({"axis": "l", "values": [2, 8]}, "N must be >= 2*L"),
    ])
    def test_every_sweep_point_checked_at_load(self, tmp_path, capsys, sweep, needle):
        # validate-config rejects what pm-sweep would reject at that point
        cfg = write_config(
            tmp_path, scenario={"L": 4, "N": 15, "snr_s_db": 0.0, "snr_r_db": 10.0}, sweep=sweep,
        )
        for command in ("validate-config", "pm-sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(tmp_path / command), "--threads", "1"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "sweep.values" in err and needle in err


class TestRoc:
    def test_writes_tables_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["roc", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "detector,pfa,pd"
        assert {line.split(",")[0] for line in roc_lines[1:]} == {"glr_low", "sigma_max"}
        auc_lines = (out / "auc.csv").read_text().splitlines()
        assert auc_lines[0] == "detector,auc"
        assert len(auc_lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "roc"
        assert manifest["config"]["scenario"]["seed"] == 7
        assert manifest["trial_failures"] == {"H0": 0, "H1": 0}
        assert manifest["outputs"] == ["roc.csv", "auc.csv"]

    def test_telemetry_same_at_any_thread_count(self, tmp_path, monkeypatch):
        # the manifest's telemetry holds counts only, so it repeats for one
        # seed at any worker count; two zero channels make one failure group
        monkeypatch.setattr(montecarlo, "MAX_FAILURE_RATE", 0.5)
        real = montecarlo.draw_sample_cov

        def zero_h1_3_and_5(sc, mode, trials):
            u_s, u_r, s = real(sc, mode, trials)
            zero_surveillance(s, [k for k, item in enumerate(trials) if item in {("H1", 3), ("H1", 5)}])
            return u_s, u_r, s

        monkeypatch.setattr(montecarlo, "draw_sample_cov", zero_h1_3_and_5)
        cfg = write_config(tmp_path, trials_h0=24, trials_h1=24, detectors=["glr", "glr_low"])
        got = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert main(["roc", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["trial_failures"] == {"H0": 0, "H1": 2}
            got[threads] = manifest["telemetry"]
        assert got[1] == got[2]
        assert got[1]["failures"] == {"ValueError": {"count": 2, "first": "7/H1/3"}}
        for hyp, valid in (("H0", 24), ("H1", 22)):
            ascent = got[1]["ascent"][hyp]
            assert sorted(ascent["stop_reasons"]) == sorted(sg.STOP_REASONS)
            assert sum(ascent["stop_reasons"].values()) == valid
            iterations = ascent["iterations"]
            assert 0 <= iterations["p50"] <= iterations["p90"] <= iterations["max"]

    def test_telemetry_without_glr_has_no_ascent(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["roc", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["telemetry"] == {"failures": {}}

    def test_rerun_byte_identical_across_threads(self, tmp_path):
        cfg = write_config(tmp_path, trials_h0=24, trials_h1=24)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["roc", "--config", str(cfg), "--out", str(a), "--threads", "1"]) == 0
        assert main(["roc", "--config", str(cfg), "--out", str(b), "--threads", "2"]) == 0
        for name in ("roc.csv", "auc.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_tables(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["roc", "--config", str(cfg), "--out", str(a), "--threads", "1"])
        main(["roc", "--config", str(cfg), "--out", str(b), "--threads", "1", "--seed", "8"])
        assert (a / "auc.csv").read_bytes() != (b / "auc.csv").read_bytes()

    def test_full_precision_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["roc", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        curves, _, _ = sg.run_roc_experiment(sg.ExperimentConfig(
            scenario=sg.ScenarioConfig(L=2, N=8, snr_s_db=0.0, snr_r_db=10.0, seed=7),
            trials_h0=12, trials_h1=12, detectors=("glr_low", "sigma_max"),
        ), threads=1)
        rows = [r.split(",") for r in (out / "roc.csv").read_text().splitlines()[1:]]
        got = [float(r[2]) for r in rows if r[0] == "glr_low"]
        assert got == curves["glr_low"].pd.tolist()


class TestPmSweep:
    def test_single_value_one_row_per_detector(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sweep={"axis": "snr_s_db", "values": [0.0], "snr_r_db_offset": 10.0},
            pfa=0.1,
        )
        out = tmp_path / "out"
        assert main(["pm-sweep", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        lines = (out / "pm.csv").read_text().splitlines()
        assert lines[0] == "detector,sweep_value,pm,ci_lo,ci_hi"
        assert len(lines) == 3  # one row per configured detector
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trial_failures"] == {"0.0": 0}

    def test_grid_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            detectors=["glr_low"],
            sweep={"axis": "snr_s_db", "values": [-5.0, 0.0, 5.0], "snr_r_db_offset": 10.0},
            pfa=0.1,
        )
        out = tmp_path / "out"
        assert main(["pm-sweep", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        rows = [r.split(",") for r in (out / "pm.csv").read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [-5.0, 0.0, 5.0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_log(self, tmp_path, caplog, threads):
        # one info line per completed chunk: 24 trials are one chunk on one
        # worker and two of 12 on two; logging at info leaves the bytes alone
        cfg = write_config(
            tmp_path,
            detectors=["glr_low"],
            sweep={"axis": "snr_s_db", "values": [-5.0, 0.0, 5.0], "snr_r_db_offset": 10.0},
            pfa=0.1,
        )
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        argv = ["pm-sweep", "--config", str(cfg), "--threads", str(threads), "--out"]
        assert main(argv + [str(quiet)]) == 0
        caplog.set_level(logging.INFO, logger="subspace_glr.montecarlo")
        assert main(argv + [str(loud)]) == 0
        progress = [r.getMessage() for r in caplog.records
                    if r.name == "subspace_glr.montecarlo" and r.levelno == logging.INFO]
        done = [24] if threads == 1 else [12, 24]
        assert progress == [
            f"point {p} ({value}): {n} of 24 trials done"
            for p, value in enumerate(("-5", "0", "5"))
            for n in done
        ]
        assert (quiet / "pm.csv").read_bytes() == (loud / "pm.csv").read_bytes()

    def test_requires_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pm-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sweep" in capsys.readouterr().err


class TestNullDist:
    def test_writes_tables(self, tmp_path):
        cfg = write_config(tmp_path, detectors=["glr"], trials_h0=25, trials_h1=0)
        out = tmp_path / "out"
        assert main(["null-dist", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        lines = (out / "nulldist.csv").read_text().splitlines()
        assert lines[0] == "t,empirical_cdf,chi2_cdf"
        assert len(lines) == 26
        ks = json.loads((out / "ks.json").read_text())
        assert 0.0 <= ks["ks_distance"] <= 1.0
        assert ks["n_trials"] == 25

    def test_requires_glr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, detectors=["glr_low"])
        assert main(["null-dist", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "glr" in capsys.readouterr().err


class TestDetect:
    def test_null_data_scores_one(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path)
        assert main(["detect", "--data", str(data), "--steering", str(steer)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["L"] == 2 and result["N"] == 8
        stats = result["statistics"]
        assert stats["glr"] == pytest.approx(1.0, abs=1e-6)
        assert stats["glr_sample"] == 0.0
        assert stats["glr_low"] == 0.0
        assert stats["sigma_max"] == pytest.approx(0.0, abs=1e-12)
        assert result["optimizer"]["converged"] is True
        assert result["optimizer"]["stop_reason"] == "gradient"

    def test_same_file_twice_identical_json(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, seed=61)
        main(["detect", "--data", str(data), "--steering", str(steer)])
        first = capsys.readouterr().out
        main(["detect", "--data", str(data), "--steering", str(steer)])
        assert capsys.readouterr().out == first

    def test_binary_input(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, seed=62)
        loaded = sg.read_snapshots(data)
        bin_path = tmp_path / "data.bin"
        sg.write_snapshot_bin(bin_path, loaded)
        assert main(["detect", "--data", str(bin_path), "--steering", str(steer)]) == 0
        stats = json.loads(capsys.readouterr().out)["statistics"]
        assert stats["glr_sample"] == 0.0

    def test_thresholds_produce_decisions(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, seed=63)
        rc = main([
            "detect", "--data", str(data), "--steering", str(steer),
            "--threshold", "glr=1.5", "--threshold", "glr_low=0.0",
        ])
        assert rc == 0
        decisions = json.loads(capsys.readouterr().out)["decisions"]
        assert decisions == {"glr": False, "glr_low": False}

    def test_bad_threshold_name(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, seed=64)
        rc = main(["detect", "--data", str(data), "--steering", str(steer),
                   "--threshold", "nope=1.0"])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err
        # NaN compares false with every statistic, so it is no threshold; +-inf are
        for value, want_rc in (("nan", 2), ("-NaN", 2), ("inf", 0), ("-inf", 0)):
            rc = main(["detect", "--data", str(data), "--steering", str(steer),
                       "--threshold", f"glr={value}"])
            assert rc == want_rc
            out, err = capsys.readouterr()
            if want_rc:
                assert "--threshold" in err
            else:
                assert json.loads(out)["decisions"] == {"glr": value == "-inf"}

    def test_off_norm_steering_names_field(self, tmp_path, capsys):
        data, _ = write_null_case_files(tmp_path, seed=65)
        bad = tmp_path / "bad_steer.csv"
        bad.write_text(
            "channel,sensor,re,im\n"
            "s,0,0.9,0.0\ns,1,0.0,0.0\n"
            "r,0,1.0,0.0\nr,1,0.0,0.0\n"
        )
        assert main(["detect", "--data", str(data), "--steering", str(bad)]) == 2
        assert "u_s" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        data, _ = write_null_case_files(tmp_path, seed=66)  # L = 2
        rng = np.random.default_rng(0)
        steer3 = tmp_path / "steer3.csv"
        sg.write_steering_csv(steer3, sg.SteeringPair(rand_unit(rng, 3), rand_unit(rng, 3)))
        assert main(["detect", "--data", str(data), "--steering", str(steer3)]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_zero_surveillance_channel(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, L=2, N=8, seed=68)
        loaded = sg.read_snapshots(data)
        zeroed = tmp_path / "zero_s.csv"
        zero_s = sg.SnapshotData(np.zeros_like(loaded.y_s), loaded.y_r, "unknown")
        sg.write_snapshot_csv(zeroed, zero_s)
        assert main(["detect", "--data", str(zeroed), "--steering", str(steer)]) == 2
        assert "s_ss" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, want_rc, needles",
        [
            ("csv-nan", 2, ["bad.csv", "channel 's'", "sensor 1", "snapshot 3"]),
            ("csv-inf", 2, ["bad.csv", "channel 'r'", "sensor 0", "snapshot 5"]),
            ("bin-nan", 2, ["bad.bin", "channel 'r'", "sensor 1", "snapshot 0"]),
            ("zero-reference", 2, ["s_rr"]),
            ("n-equals-2l", 0, []),
            ("truncated-bin", 2, ["bad.bin"]),
            ("coherent", 2, ["coherent"]),
            ("steering-nan", 2, ["steer.csv:2", "channel 's'", "sensor 0"]),
            ("csv-ragged", 2, ["bad.csv:4: 7 snapshots", "bad.csv:2 has 8"]),
            ("csv-no-values", 2, ["bad.csv:3: no snapshot values"]),
        ],
    )
    def test_malformed_input(self, tmp_path, capsys, case, want_rc, needles):
        # malformed or degenerate snapshot files exit 2 with a message that
        # names the fault; N = 2L snapshots is the smallest valid record
        rng = np.random.default_rng(69)
        L, N = 2, 8
        if case == "n-equals-2l":
            N = 2 * L
        y_s, y_r = rng.standard_normal((2, L, N)) + 1j * rng.standard_normal((2, L, N))
        if case == "csv-nan":
            y_s[1, 3] = complex(np.nan, 0.0)
        elif case == "csv-inf":
            y_r[0, 5] = complex(0.5, np.inf)
        elif case == "bin-nan":
            y_r[1, 0] = complex(np.nan, np.nan)
        elif case == "zero-reference":
            y_r[:] = 0.0
        elif case == "coherent":
            y_s = 3.0 * y_r
        data = sg.SnapshotData(y_s, y_r, "unknown")
        if "bin" in case:
            path = tmp_path / "bad.bin"
            sg.write_snapshot_bin(path, data)
            if case == "truncated-bin":
                path.write_bytes(path.read_bytes()[:-8])
        else:
            path = tmp_path / "bad.csv"
            sg.write_snapshot_csv(path, data)
            if case in ("csv-ragged", "csv-no-values"):
                lines = path.read_text().splitlines()
                if case == "csv-ragged":
                    lines[3] = lines[3].rsplit(",", 2)[0]  # r,0 loses its last snapshot
                else:
                    lines[2] = "s,1"
                path.write_text("\n".join(lines) + "\n")
        steer = tmp_path / "steer.csv"
        sg.write_steering_csv(steer, sg.SteeringPair(rand_unit(rng, L), rand_unit(rng, L)))
        if case == "steering-nan":
            lines = steer.read_text().splitlines()
            lines[1] = "s,0,nan,0.0"
            steer.write_text("\n".join(lines) + "\n")
        assert main(["detect", "--data", str(path), "--steering", str(steer)]) == want_rc
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err

    def test_too_few_snapshots(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, L=3, N=4, seed=67)
        assert main(["detect", "--data", str(data), "--steering", str(steer)]) == 2
        assert "2L" in capsys.readouterr().err


def child_env(**extra):
    """Environment for a `python -m subspace_glr` child process that imports
    the same package as this suite, installed or not."""
    root = str(Path(sg.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "subspace_glr", "validate-config", "--config", str(cfg)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["trials_h0"] == 12

    def test_unknown_log_level_warns(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "subspace_glr", "validate-config", "--config", str(cfg)],
            capture_output=True, text=True,
            env=child_env(SUBSPACE_GLR_LOG="shouty"),
        )
        assert proc.returncode == 0
        assert "SUBSPACE_GLR_LOG" in proc.stderr

    def test_cli_import_loads_no_scipy(self):
        # numpy is the only run-time dependency; scipy is for the tests.
        probe = (
            "import json, sys, subspace_glr.cli\n"
            "print(json.dumps([subspace_glr.cli.__file__,"
            " sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        cli_file, scipy_modules = json.loads(proc.stdout)
        assert Path(cli_file).resolve().parent == Path(sg.__file__).resolve().parent
        assert scipy_modules == []
