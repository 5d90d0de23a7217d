import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import subspace_glr as sg
from subspace_glr import cli, montecarlo
from subspace_glr.cli import load_config, main
from _reference import write_csv
from _utils import make_instance, rand_unit, zero_surveillance


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
    sg.write_snapshot_csv(data_path, sg.SnapshotData(y_s, y_r))
    steer_path = tmp_path / "steer.csv"
    sg.write_steering_csv(steer_path, sg.SteeringPair(rand_unit(rng, L), rand_unit(rng, L)))
    return data_path, steer_path


# A wrong JSON type for every field of the run config, by dotted path; null
# is the default of the two optional fields, so they do not take it.
OPTIONAL = {"scenario.wishart_dof", "sweep.snr_r_db_offset"}
WRONG_TYPES = [
    *[(path, value)
      for path in ["scenario.L", "scenario.N", "scenario.wishart_dof", "scenario.seed", "trials_h0", "trials_h1"]
      for value in ["4", True, 2.5, [2], {}, None] if value is not None or path not in OPTIONAL],
    *[(path, value)
      for path in ["scenario.snr_s_db", "scenario.snr_r_db", "pfa", "sweep.snr_r_db_offset"]
      for value in ["x", True, [1.0], {}, None] if value is not None or path not in OPTIONAL],
    *[("detectors", value) for value in ["glr", 5, [1], [["glr_low"]], None, {}]],
    *[("sweep.values", value) for value in ["1", 5, ["1"], [[1.0]], None, {}]],
    *[("sweep.axis", value) for value in [5, ["l"], None, {}]],
    *[("scenario", value) for value in [5, [], None, "x"]],
    *[("sweep", value) for value in [5, "l", []]],
]


class TestValidateConfig:
    def test_resolves_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["scenario"]["wishart_dof"] is None  # 2L at each point, not materialized
        assert resolved["pfa"] == 0.01
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
        assert "config.scenario: snr_s_db must be finite, got an integer too large for a float" in capsys.readouterr().err

    def test_nested_type_error_names_path_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario={"L": 2.5, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0})
        assert main(["validate-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config.scenario: L must be an integer, got 2.5" in err
        assert err.count("scenario") == 1

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

    @pytest.mark.parametrize("field, value, needle", [
        ("optimizer", {"n_restarts": 1}, "config: unknown fields ['optimizer']"),
        ("pfa_grid", [0.1], "config: unknown fields ['pfa_grid']"),
        ("max_failure_rate", 0.5, "config: unknown fields ['max_failure_rate']"),
        ("n_restarts", 0, "config: unknown fields ['n_restarts']"),
        ("scenario", {"L": 2, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0, "seed": 7, "sigma_x2": 1.0},
         "config.scenario: unknown fields ['sigma_x2']"),
        ("steering_mode", "random-unit", "config: unknown fields ['steering_mode']"),
    ], ids=["optimizer", "pfa_grid", "max_failure_rate", "n_restarts", "sigma_x2", "steering_mode"])
    def test_removed_fields_rejected(self, tmp_path, capsys, monkeypatch, field, value, needle):
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
            assert needle in capsys.readouterr().err

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

    @pytest.mark.parametrize("path, value", WRONG_TYPES, ids=[f"{p}={json.dumps(v)}" for p, v in WRONG_TYPES])
    def test_wrong_json_types_name_the_field(self, tmp_path, capsys, monkeypatch, path, value):
        # the dataclasses type-check every field; the loader only maps JSON
        # onto them, and a wrong type is rejected before any trial runs
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_run_points", no_trials)
        raw = {
            "scenario": {"L": 2, "N": 8, "snr_s_db": 0.0, "snr_r_db": 10.0, "wishart_dof": 4, "seed": 7},
            "trials_h0": 4, "trials_h1": 4, "pfa": 0.1, "detectors": ["glr_low"],
            "sweep": {"axis": "snr_s_db", "values": [0.0, 5.0], "snr_r_db_offset": 10.0},
        }
        *parents, field = path.split(".")
        target = raw[parents[0]] if parents else raw
        target[field] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        # a sweep element is named "sweep value" (the path sweep.values[0] once)
        needle = r"sweep[ .]value" if path == "sweep.values" else rf"\b{field}\b"
        for command in ("validate-config", "pm-sweep"):
            argv = [command, "--config", str(cfg)]
            if command != "validate-config":
                argv += ["--out", str(tmp_path / command), "--threads", "1"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: config")
            assert re.search(needle, captured.err), captured.err

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

    def test_duration_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        # a wall clock that steps back an hour at every read
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["roc", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        assert 0.0 <= json.loads((out / "manifest.json").read_text())["duration_s"] < 60.0

    def test_telemetry_same_at_any_thread_count(self, tmp_path, monkeypatch):
        # the manifest's telemetry holds counts only, so it repeats for one
        # seed at any worker count; two zero channels make one failure group
        monkeypatch.setattr(montecarlo, "MAX_FAILURE_RATE", 0.5)
        real = montecarlo.draw_sample_cov

        def zero_h1_3_and_5(sc, trials):
            u_s, u_r, s = real(sc, trials)
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
        # one info line per completed block: 24 trials are one block on one
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


class TestOutErrors:
    """--out paths that cannot be created or written exit 2 and name the path."""

    @pytest.mark.parametrize("command, first", [
        ("roc", "roc.csv"), ("pm-sweep", "pm.csv"), ("null-dist", "nulldist.csv"),
    ])
    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file", "output-is-dir"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command, first, case):
        cfg = write_config(tmp_path, detectors=["glr"], sweep={"axis": "snr_s_db", "values": [0.0]}, pfa=0.1)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = {"out-is-file": blocker, "out-under-file": blocker / "sub", "output-is-dir": tmp_path / "out"}[case]
        if case == "output-is-dir":
            (out / first).mkdir(parents=True)
        assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and str(out) in err
        assert "Traceback" not in err


VALUES = [0.0, -0.0, 5e-324, 1e-05, 1.0, 1 / 3, 1e308, -2.5e-17, 0.1 + 0.2]


class TestTables:
    """cli._write_table against the row writer it replaced (_reference.write_csv)."""

    @pytest.mark.parametrize("labels", [True, False])
    @pytest.mark.parametrize("columns", [
        [VALUES * 2, VALUES[::-1] * 2, [1 / 3] * 18],  # each value repeated, within and across columns
        [[-0.0], [1e-05], [5e-324]],  # one row
    ], ids=["repeats", "one-row"])
    def test_same_bytes_as_the_row_writer(self, tmp_path, labels, columns):
        n = len(columns[0])
        names = [f"d{k % 4}" for k in range(n)] if labels else None
        header = ("detector", "a", "b", "c")[0 if labels else 1:]
        cli._write_table(tmp_path / "new.csv", header, names, [np.array(c) for c in columns])
        write_csv(tmp_path / "old.csv", header, zip(*([names] if labels else []), *columns))
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "old.csv").read_bytes()
        assert got.count(b"\n") == got.count(b"\r\n") == n + 1 and got.endswith(b"\r\n")
        assert b"-0.0," in got and b"1e-05" in got and b"5e-324" in got

    def test_main_tables_match_the_row_writer(self, tmp_path):
        # every table main writes is the row writer applied to the runner's own return values
        path = write_config(
            tmp_path, detectors=["glr", "glr_low", "sigma_max"], pfa=0.1,
            sweep={"axis": "snr_s_db", "values": [-5.0, 0.0, 5.0], "snr_r_db_offset": 10.0},
        )
        cfg = load_config(str(path), None)
        ref = tmp_path / "ref"
        ref.mkdir()
        curves, _, _ = montecarlo.run_roc_experiment(cfg, threads=1)
        write_csv(ref / "roc.csv", ["detector", "pfa", "pd"],
                  [[n, p, q] for n in cfg.detectors for p, q in zip(curves[n].pfa, curves[n].pd)])
        write_csv(ref / "auc.csv", ["detector", "auc"], [[n, curves[n].auc] for n in cfg.detectors])
        points, _, _ = montecarlo.run_pm_sweep(cfg, threads=1)
        write_csv(ref / "pm.csv", ["detector", "sweep_value", "pm", "ci_lo", "ci_hi"],
                  [[n, pt.sweep_value, pt.pm, pt.ci_lo, pt.ci_hi] for n in cfg.detectors for pt in points[n]])
        (_, table), _, _ = montecarlo.run_null_dist(cfg, threads=1)
        write_csv(ref / "nulldist.csv", ["t", "empirical_cdf", "chi2_cdf"], table)
        for command, names in (("roc", ["roc.csv", "auc.csv"]), ("pm-sweep", ["pm.csv"]),
                               ("null-dist", ["nulldist.csv"])):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
            for name in names:
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_manifest_times_run_and_write(self, tmp_path):
        path = write_config(tmp_path, detectors=["glr"], sweep={"axis": "snr_s_db", "values": [0.0]}, pfa=0.1)
        for command in ("roc", "pm-sweep", "null-dist"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
            seconds = json.loads((out / "manifest.json").read_text())["seconds"]
            assert sorted(seconds) == ["run", "write"]
            assert all(math.isfinite(s) and s >= 0.0 for s in seconds.values())


# SHA-256 of the rank-based tables of two 40 + 40 trial runs, at --threads 1
# and 2. pfa, pd and pm are counts over n and auc sums their products, so
# libm's last bits move these bytes only if they reorder two trials. A
# deliberate change of the golden streams must update these digests and log
# the update in CHANGES.md.
ALL_DETECTORS = ["glr", "glr_sample", "glr_low", "sigma_max", "t_cc", "t_svd"]
GOLDEN = [
    ("roc", {
        "scenario": {"L": 4, "N": 15, "snr_s_db": -5.0, "snr_r_db": 15.0, "seed": 7},
        "trials_h0": 40, "trials_h1": 40, "detectors": ALL_DETECTORS,
    }, {
        "roc.csv": "6b503161e13775747b6d443b3ddbb3da37d027b390d2198ddc8d57ea6ffbfd80",
        "auc.csv": "afd53f41d071686bab5004832a04dde2389e35272c823e7d917ec54c13954d4c",
    }),
    ("pm-sweep", {
        "scenario": {"L": 4, "N": 15, "snr_s_db": 0.0, "snr_r_db": 10.0, "seed": 13},
        "trials_h0": 40, "trials_h1": 40, "pfa": 0.25, "detectors": ALL_DETECTORS,
        "sweep": {"axis": "snr_s_db", "values": [-10, -5, 0, 5, 10], "snr_r_db_offset": 10},
    }, {
        "pm.csv": "8deb9eeaf3778e2b661269e3b4e0b87c1299f7424db34d349ab9ed7d0af80b28",
    }),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command, cfg, digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_rank_tables_golden_bytes(tmp_path, command, cfg, digests, threads):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--threads", str(threads)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


# A call of each experiment command and of two sweep axes, by write_config's
# overrides, and the data files it writes. No config here sets wishart_dof,
# so each point's dof is 2L: on the l axis it differs from point to point.
RERUNS = {
    "roc": ("roc", {"detectors": ["glr", "glr_low"]}, ["roc.csv", "auc.csv"]),
    "null-dist": ("null-dist", {"detectors": ["glr"], "trials_h0": 40}, ["nulldist.csv", "ks.json"]),
    "sweep-snr_s_db": ("pm-sweep", {
        "pfa": 0.1, "sweep": {"axis": "snr_s_db", "values": [-5.0, 5.0], "snr_r_db_offset": 10.0},
    }, ["pm.csv"]),
    "sweep-l": ("pm-sweep", {
        "scenario": {"L": 2, "N": 12, "snr_s_db": -5.0, "snr_r_db": 5.0, "seed": 3},
        "trials_h0": 100, "trials_h1": 100, "detectors": ["glr_low"], "sweep": {"axis": "l", "values": [2, 3, 4]},
    }, ["pm.csv"]),
}


@pytest.mark.parametrize("command, overrides, names", RERUNS.values(), ids=list(RERUNS))
def test_manifest_config_reruns_the_call(tmp_path, capsys, command, overrides, names):
    # the manifest's config, fed back through --config, writes the same data
    # files and the same config; an unset wishart_dof stays null in it
    first, again, rerun = tmp_path / "first", tmp_path / "again", tmp_path / "rerun.json"
    path = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path), "--out", str(first), "--threads", "1"]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    rerun.write_text(json.dumps(config))
    assert main([command, "--config", str(rerun), "--out", str(again), "--threads", "1"]) == 0
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    assert json.loads((again / "manifest.json").read_text())["config"] == config
    assert config["scenario"]["wishart_dof"] is None
    assert main(["validate-config", "--config", str(rerun)]) == 0
    assert '"wishart_dof": null' in capsys.readouterr().out


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
        zero_s = sg.SnapshotData(np.zeros_like(loaded.y_s), loaded.y_r)
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
        data = sg.SnapshotData(y_s, y_r)
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

    def test_reports_the_library_numbers(self, tmp_path, capsys):
        # statistics and two_log_glr are score_batch's row and column for the
        # record as a stack of one (what compute_report returns), and the
        # optimizer block is glr_exact's OptimResult
        _, steering, data = make_instance(seed=68, L=3)
        data_path, steer_path = tmp_path / "data.csv", tmp_path / "steer.csv"
        sg.write_snapshot_csv(data_path, data)
        sg.write_steering_csv(steer_path, steering)
        assert main(["detect", "--data", str(data_path), "--steering", str(steer_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        s = sg.sample_cov(sg.read_snapshots(data_path))
        steer = sg.read_steering_csv(steer_path)
        stack = sg.BlockSampleCov(s.s_ss[None], s.s_sr[None], s.s_rr[None], s.n)
        row = sg.score_batch(stack, steer.u_s[None], steer.u_r[None])
        assert result["statistics"] == dict(zip(sg.DETECTOR_NAMES, row.stats[0].tolist()))
        assert result["two_log_glr"] == row.two_log_glr[0]
        _, optim = sg.glr_exact(s, steer.u_s, steer.u_r)
        assert result["optimizer"] == {"iterations": optim.iterations, "converged": optim.converged,
                                       "stop_reason": optim.stop_reason, "j_value": optim.j_value}
        assert optim.iterations > 0

    def test_too_few_snapshots(self, tmp_path, capsys):
        data, steer = write_null_case_files(tmp_path, L=3, N=4, seed=67)
        assert main(["detect", "--data", str(data), "--steering", str(steer)]) == 2
        assert "2L" in capsys.readouterr().err


def parse_outcome(run, argv, capsys):
    """Exit code and printed text of run(argv), which stops in argparse."""
    with pytest.raises(SystemExit) as info:
        run(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("command", ["roc", "pm-sweep", "null-dist"])
    def test_experiment_adds_its_parser_only(self, tmp_path, monkeypatch, command):
        cfg = write_config(tmp_path, detectors=["glr", "glr_low"], sweep={"axis": "snr_s_db", "values": [0.0]})
        added = []
        real = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            added.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert main([command, "--config", str(cfg), "--threads", "1", "--out", str(tmp_path / "out")]) == 0
        assert added == [command]

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["-x", "roc"], ["detect"], ["detect", "--help"], ["validate-config"],
        ["validate-config", "--help"], ["roc", "--help"], ["null-dist"], ["pm-sweep", "--config", "c.json", "--bogus"],
        ["roc", "extra", "--config", "c.json"], ["null-dist", "--config", "c.json", "--threads", "x"],
    ])
    def test_prints_what_the_full_parser_prints(self, capsys, argv):
        # a command line that starts with a subcommand parses with that
        # subcommand's parser alone; help, usage and errors read the same
        full = parse_outcome(lambda args: cli.build_parser().parse_args(args), argv, capsys)
        assert parse_outcome(main, argv, capsys) == full
        assert full[0] == (0 if "--help" in argv else 2)


# The modules of the stdlib process pool; no call loads them.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


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
        # numpy is the only run-time dependency; scipy is for the tests. No
        # call loads the process pool's modules.
        probe = (
            "import json, sys, subspace_glr.cli\n"
            "print(json.dumps([subspace_glr.cli.__file__,"
            " sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),"
            f" sorted(set({POOL_MODULES!r}) & set(sys.modules))]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        cli_file, scipy_modules, pool_modules = json.loads(proc.stdout)
        assert Path(cli_file).resolve().parent == Path(sg.__file__).resolve().parent
        assert scipy_modules == []
        assert pool_modules == []

    def test_roc_loads_no_numpy_ma(self, tmp_path):
        # roc_curve and the table writer find distinct values without
        # np.unique's float path, which imports numpy.ma on first use; a
        # run in one process loads no process pool either
        cfg = write_config(tmp_path)
        probe = (
            "import sys, subspace_glr.cli\n"
            f"code = subspace_glr.cli.main(['roc', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r},"
            " '--threads', '1'])\n"
            f"print(code, 'numpy.ma' in sys.modules, sorted(set({POOL_MODULES!r}) & set(sys.modules)),"
            " file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 False []"
        assert (tmp_path / "out" / "roc.csv").exists()

    def test_pooled_run_forks_and_loads_no_pool_module(self, tmp_path):
        # a --threads 2 run forks its two workers directly: it loads no
        # process pool module and writes the bytes of a --threads 1 run
        cfg = write_config(tmp_path, sweep={"axis": "l", "values": [2, 3]})
        probe = (
            "import os, sys, subspace_glr.cli\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(1))\n"
            f"code = subspace_glr.cli.main(['pm-sweep', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 't2')!r}, '--threads', '2'])\n"
            f"print(code, len(forks), sorted(set({POOL_MODULES!r}) & set(sys.modules)), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 2 []"
        assert main(["pm-sweep", "--config", str(cfg), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert (tmp_path / "t2" / "pm.csv").read_bytes() == (tmp_path / "t1" / "pm.csv").read_bytes()

    def test_threads_0_uses_the_usable_cpus(self, tmp_path):
        # with one usable CPU, --threads 0 runs one worker in-process: it
        # records one thread and loads no process pool
        cfg = write_config(tmp_path, sweep={"axis": "l", "values": [2, 3]})
        probe = (
            "import os, sys, subspace_glr.cli\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            f"code = subspace_glr.cli.main(['pm-sweep', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'out')!r}, '--threads', '0'])\n"
            f"print(code, sorted(set({POOL_MODULES!r}) & set(sys.modules)), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["threads"] == 1
