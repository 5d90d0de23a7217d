"""Command-line harness.

Subcommands:

    roc              H0/H1 trials, per-detector ROC and AUC tables
    pm-sweep         missed-detection probability along a swept parameter
    null-dist        null distribution of 2 log Lambda vs chi-squared(2)
    detect           score one snapshot file with optional thresholds
    validate-config  parse a config, print the resolved form

Exit codes: 0 success, 2 invalid config or input file, 3 numerical failure,
such as more failed trials than montecarlo.MAX_FAILURE_RATE allows. Logging
level comes from SUBSPACE_GLR_LOG (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .detectors import (
    DETECTOR_NAMES,
    DegenerateSampleError,
    compute_report,
)
from .covariance import sample_cov
from .dataio import read_snapshots, read_steering_csv
from .montecarlo import (
    ExperimentConfig,
    resolve_threads,
    run_null_dist,
    run_pm_sweep,
    run_roc_experiment,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _from_dict(cls, d, where: str):
    """Build the config dataclass cls from the JSON object d.

    The keys are the dataclass fields: unknown and missing ones are rejected,
    as are values of the wrong JSON type, each with its path from where.
    Lists become tuples, ints become floats where a float is declared, and a
    nested dataclass is built the same way. cls checks the values itself.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in d:
            kwargs[name] = _from_json(hints[name], d[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{name}: required field is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _from_json(tp, val, where: str):
    """Convert one JSON value to the declared field type tp."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if val is None:
            return None
        tp = args[0]
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, val, where)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(val, list):
            raise ConfigError(f"{where}: expected a list, got {val!r}")
        return tuple(_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(val))
    if tp is float and type(val) is int:
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(f"{where}: integer too large for a float") from None
    if type(val) is not tp:
        raise ConfigError(f"{where}: expected {tp.__name__}, got {val!r}")
    return val


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config with defaults filled in, for json (which writes tuples as lists)."""
    out = dataclasses.asdict(cfg)
    out["scenario"]["wishart_dof"] = cfg.scenario.dof
    return out


def load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # say, an integer beyond Python's int digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    cfg = _from_dict(ExperimentConfig, raw, "config")
    if seed_override is not None:
        try:
            scenario = dataclasses.replace(cfg.scenario, seed=seed_override)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
        cfg = dataclasses.replace(cfg, scenario=scenario)
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(
    out_dir: Path, command: str, cfg: ExperimentConfig, threads: int,
    outputs: list[str], failures: dict[str, int], telemetry: dict, started: float,
) -> None:
    manifest = {
        "tool": "subspace-glr",
        "version": __version__,
        "command": command,
        "config": config_to_dict(cfg),
        "threads": threads,
        "outputs": outputs,
        "trial_failures": failures,
        "telemetry": telemetry,
        "duration_s": round(time.time() - started, 3),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(arg: str | None) -> Path:
    out = Path(arg) if arg else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_roc(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out)
    threads = resolve_threads(args.threads)
    curves, failures, telemetry = run_roc_experiment(cfg, threads)
    roc_rows = []
    auc_rows = []
    for name in cfg.detectors:
        curve = curves[name]
        roc_rows += [[name, _fmt(p), _fmt(q)] for p, q in zip(curve.pfa, curve.pd)]
        auc_rows.append([name, _fmt(curve.auc)])
    _write_csv(out / "roc.csv", ["detector", "pfa", "pd"], roc_rows)
    _write_csv(out / "auc.csv", ["detector", "auc"], auc_rows)
    _write_manifest(out, "roc", cfg, threads, ["roc.csv", "auc.csv"], failures, telemetry, started)
    log.info("roc: wrote %s and %s", out / "roc.csv", out / "auc.csv")
    return 0


def cmd_pm_sweep(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = load_config(args.config, args.seed)
    if cfg.sweep is None:
        raise ConfigError("config.sweep: required for pm-sweep")
    out = _prepare_out(args.out)
    threads = resolve_threads(args.threads)
    points, failures, telemetry = run_pm_sweep(cfg, threads)
    rows = []
    for name in cfg.detectors:
        for pt in points[name]:
            rows.append([name, _fmt(pt.sweep_value), _fmt(pt.pm), _fmt(pt.ci_lo), _fmt(pt.ci_hi)])
    _write_csv(out / "pm.csv", ["detector", "sweep_value", "pm", "ci_lo", "ci_hi"], rows)
    _write_manifest(out, "pm-sweep", cfg, threads, ["pm.csv"], failures, telemetry, started)
    return 0


def cmd_null_dist(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out)
    threads = resolve_threads(args.threads)
    ks, table, n_valid, telemetry = run_null_dist(cfg, threads)
    _write_csv(
        out / "nulldist.csv",
        ["t", "empirical_cdf", "chi2_cdf"],
        ([_fmt(t), _fmt(e), _fmt(c)] for t, e, c in table),
    )
    with open(out / "ks.json", "w") as fh:
        json.dump(
            {"ks_distance": ks, "n_trials": n_valid, "reference": "chi-squared, 2 dof"},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    failures = {"H0": cfg.trials_h0 - n_valid}
    outputs = ["nulldist.csv", "ks.json"]
    _write_manifest(out, "null-dist", cfg, threads, outputs, failures, telemetry, started)
    return 0


def _parse_thresholds(pairs: list[str]) -> dict[str, float]:
    out = {}
    for raw in pairs:
        name, sep, val = raw.partition("=")
        if not sep or name not in DETECTOR_NAMES:
            raise ConfigError(
                f"--threshold: expected NAME=VALUE with NAME in {DETECTOR_NAMES}, got {raw!r}"
            )
        try:
            out[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--threshold {raw!r}: {exc}") from exc
        if math.isnan(out[name]):
            raise ConfigError(f"--threshold {raw!r}: NaN compares false with every statistic")
    return out


def cmd_detect(args: argparse.Namespace) -> int:
    try:
        data = read_snapshots(args.data)
        steering = read_steering_csv(args.steering)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if steering.num_sensors != data.num_sensors:
        raise ConfigError(
            f"steering length {steering.num_sensors} does not match data sensors {data.num_sensors}"
        )
    thresholds = _parse_thresholds(args.threshold or [])
    s = sample_cov(data)
    report = compute_report(s, steering)
    result = {
        "L": data.num_sensors,
        "N": data.num_snapshots,
        "statistics": {name: report.stat(name) for name in DETECTOR_NAMES},
        "two_log_glr": report.two_log_glr,
        "optimizer": {
            "iterations": report.optim.iterations,
            "converged": report.optim.converged,
            "stop_reason": report.optim.stop_reason,
            "j_value": report.optim.j_value,
        },
        "sample_cov_condition": float(np.linalg.cond(s.full())),
    }
    if thresholds:
        result["decisions"] = {
            name: bool(report.stat(name) > thr) for name, thr in thresholds.items()
        }
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.seed)
    json.dump(config_to_dict(cfg), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-glr",
        description="Two-channel GLR detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        p.add_argument("--threads", type=int, default=0, help="worker processes, 0 = all cores")
        p.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")

    p_roc = sub.add_parser("roc", help="ROC and AUC tables from H0/H1 trials")
    add_common(p_roc)
    p_roc.set_defaults(func=cmd_roc)

    p_pm = sub.add_parser("pm-sweep", help="missed-detection probability along a sweep")
    add_common(p_pm)
    p_pm.set_defaults(func=cmd_pm_sweep)

    p_null = sub.add_parser("null-dist", help="null distribution of 2 log Lambda")
    add_common(p_null)
    p_null.set_defaults(func=cmd_null_dist)

    p_det = sub.add_parser("detect", help="score one snapshot file")
    p_det.add_argument("--data", required=True, help="snapshot CSV or binary file")
    p_det.add_argument("--steering", required=True, help="steering CSV file")
    p_det.add_argument(
        "--threshold", action="append", metavar="NAME=VALUE",
        help="decision threshold for one detector; repeatable",
    )
    p_det.set_defaults(func=cmd_detect)

    p_val = sub.add_parser("validate-config", help="check a config and print the resolved form")
    p_val.add_argument("--config", required=True, help="JSON run configuration")
    p_val.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
    p_val.set_defaults(func=cmd_validate_config)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SUBSPACE_GLR_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        print(f"warning: unknown SUBSPACE_GLR_LOG level {level_name!r}, using WARNING", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSampleError as exc:
        print(f"error: degenerate sample: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
