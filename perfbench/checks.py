"""Correctness checks on the files one CLI call wrote.

``check_outputs`` parses every output file, checks that every number is
finite and in range and that the manifest matches the config, and returns the
failed-trial count, the workload's accuracy figure and a digest of each data
file. The manifest gets no digest, because it records the wall time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DATA_FILES = {
    "roc": ("roc.csv", "auc.csv"),
    "pm-sweep": ("pm.csv",),
    "null-dist": ("nulldist.csv", "ks.json"),
}


class CheckError(Exception):
    """An output file is missing, malformed or out of range."""


@dataclass
class Outputs:
    failed_trials: int
    figure: float  # auc_mean, pm_mean or ks_distance
    digests: dict[str, str] = field(default_factory=dict)
    data_bytes: int = 0


def attempted_trials(command: str, cfg: dict) -> int:
    per_point = cfg["trials_h0"] + (0 if command == "null-dist" else cfg["trials_h1"])
    points = len(cfg["sweep"]["values"]) if command == "pm-sweep" else 1
    return per_point * points


def _number(text: str, where: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise CheckError(f"{where}: not a number: {text!r}") from exc
    if not math.isfinite(val):
        raise CheckError(f"{where}: non-finite value {val}")
    if not lo <= val <= hi:
        raise CheckError(f"{where}: {val} outside [{lo}, {hi}]")
    return val


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: header {rows[:1]} is not {header}")
    if any(len(r) != len(header) for r in rows[1:]):
        raise CheckError(f"{path.name}: a row does not have {len(header)} fields")
    return rows[1:]


def _check_roc(out: Path, cfg: dict) -> float:
    detectors = cfg["detectors"]
    for i, (name, pfa, pd) in enumerate(_rows(out / "roc.csv", ["detector", "pfa", "pd"])):
        if name not in detectors:
            raise CheckError(f"roc.csv row {i}: unknown detector {name!r}")
        _number(pfa, f"roc.csv row {i} pfa", 0.0, 1.0)
        _number(pd, f"roc.csv row {i} pd", 0.0, 1.0)
    aucs = {
        name: _number(val, f"auc.csv {name}", 0.0, 1.0)
        for name, val in _rows(out / "auc.csv", ["detector", "auc"])
    }
    if sorted(aucs) != sorted(detectors):
        raise CheckError(f"auc.csv detectors {sorted(aucs)} != {sorted(detectors)}")
    return sum(aucs.values()) / len(aucs)


def _check_pm(out: Path, cfg: dict) -> float:
    rows = _rows(out / "pm.csv", ["detector", "sweep_value", "pm", "ci_lo", "ci_hi"])
    want = {(d, float(v)) for d in cfg["detectors"] for v in cfg["sweep"]["values"]}
    got = set()
    pms = []
    for i, (name, value, pm, lo, hi) in enumerate(rows):
        got.add((name, _number(value, f"pm.csv row {i} sweep_value")))
        pm_v = _number(pm, f"pm.csv row {i} pm", 0.0, 1.0)
        lo_v = _number(lo, f"pm.csv row {i} ci_lo", 0.0, 1.0)
        hi_v = _number(hi, f"pm.csv row {i} ci_hi", 0.0, 1.0)
        if not lo_v <= pm_v <= hi_v:
            raise CheckError(f"pm.csv row {i}: ci_lo <= pm <= ci_hi fails ({lo_v}, {pm_v}, {hi_v})")
        pms.append(pm_v)
    if got != want or len(rows) != len(want):
        raise CheckError(f"pm.csv has rows for {sorted(got)}, expected {sorted(want)}")
    return sum(pms) / len(pms)


def _check_null(out: Path, cfg: dict) -> tuple[float, int]:
    ks = json.loads((out / "ks.json").read_text())
    dist = _number(repr(ks.get("ks_distance")), "ks.json ks_distance", 0.0, 1.0)
    n_valid = ks.get("n_trials")
    if not isinstance(n_valid, int) or not 1 <= n_valid <= cfg["trials_h0"]:
        raise CheckError(f"ks.json n_trials {n_valid!r} not in [1, {cfg['trials_h0']}]")
    rows = _rows(out / "nulldist.csv", ["t", "empirical_cdf", "chi2_cdf"])
    if len(rows) != n_valid:
        raise CheckError(f"nulldist.csv has {len(rows)} rows, ks.json says {n_valid}")
    for i, (t, emp, ref) in enumerate(rows):
        _number(t, f"nulldist.csv row {i} t", 0.0)
        _number(emp, f"nulldist.csv row {i} empirical_cdf", 0.0, 1.0)
        _number(ref, f"nulldist.csv row {i} chi2_cdf", 0.0, 1.0)
    return dist, cfg["trials_h0"] - n_valid


def _check_manifest(out: Path, command: str, cfg: dict) -> int:
    """Check the manifest against the config; return its failed-trial count."""
    man = json.loads((out / "manifest.json").read_text())
    if man.get("command") != command:
        raise CheckError(f"manifest command {man.get('command')!r} != {command!r}")
    if sorted(man.get("outputs", [])) != sorted(DATA_FILES[command]):
        raise CheckError(f"manifest outputs {man.get('outputs')} != {list(DATA_FILES[command])}")
    got = man.get("config", {})
    for key in ("trials_h0",) if command == "null-dist" else ("trials_h0", "trials_h1"):
        if got.get(key) != cfg[key]:
            raise CheckError(f"manifest {key} {got.get(key)!r} != config {cfg[key]}")
    if got.get("scenario", {}).get("seed") != cfg["scenario"]["seed"]:
        raise CheckError("manifest seed differs from the config")
    failures = man.get("trial_failures")
    if not isinstance(failures, dict):
        raise CheckError("manifest trial_failures is not an object")
    if command == "pm-sweep":
        per_point = cfg["trials_h0"] + cfg["trials_h1"]
        limits = {repr(float(v)): per_point for v in cfg["sweep"]["values"]}
    elif command == "null-dist":
        limits = {"H0": cfg["trials_h0"]}
    else:
        limits = {"H0": cfg["trials_h0"], "H1": cfg["trials_h1"]}
    if set(failures) != set(limits):
        raise CheckError(f"manifest trial_failures keys {sorted(failures)} != {sorted(limits)}")
    for key, val in failures.items():
        if not isinstance(val, int) or not 0 <= val <= limits[key]:
            raise CheckError(f"manifest trial_failures[{key}] = {val!r} out of range")
    return sum(failures.values())


def check_outputs(command: str, cfg: dict, out: Path) -> Outputs:
    """Check every output of one call; raises CheckError on the first problem."""
    try:
        failed = _check_manifest(out, command, cfg)
        if command == "roc":
            figure = _check_roc(out, cfg)
        elif command == "pm-sweep":
            figure = _check_pm(out, cfg)
        else:
            figure, null_failed = _check_null(out, cfg)
            if null_failed != failed:
                raise CheckError(f"manifest counts {failed} failed trials, ks.json {null_failed}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError, csv.Error) as exc:
        raise CheckError(f"{type(exc).__name__}: {exc}") from exc
    result = Outputs(failed_trials=failed, figure=figure)
    for name in DATA_FILES[command]:
        data = (out / name).read_bytes()
        result.digests[name] = hashlib.sha256(data).hexdigest()
        result.data_bytes += len(data)
    return result
