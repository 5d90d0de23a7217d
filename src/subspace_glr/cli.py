"""Command-line harness.

Subcommands:

    roc              H0/H1 trials, per-detector ROC and AUC tables
    pm-sweep         missed-detection probability along a swept parameter
    null-dist        null distribution of 2 log Lambda vs chi-squared(2)
    detect           score one snapshot file with optional thresholds
    validate-config  check a config, print it with defaults filled in

The three experiment commands run through one driver, cmd_experiment: a
montecarlo runner returns (result, failures, telemetry), the command's
writer writes the result's data files into --out, and manifest.json
records the rest. The manifest's config, like validate-config's output,
is the config as given with defaults filled in: an unset wishart_dof stays
null (2L at each point), so the config reruns the call through --config.

Exit codes: 0 success, 2 invalid config or input file, or an --out
directory or output file that cannot be created or written, 3 numerical
failure, such as more failed trials than montecarlo.MAX_FAILURE_RATE
allows, or a worker process that dies mid-run. Logging level comes from
SUBSPACE_GLR_LOG (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
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
from .model import ScenarioConfig
from .montecarlo import (
    ExperimentConfig,
    SweepSpec,
    check_experiment,
    resolve_threads,
    run_null_dist,
    run_pm_sweep,
    run_roc_experiment,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# The config fields that hold a JSON object of their own, and its dataclass.
_NESTED = {"scenario": ScenarioConfig, "sweep": SweepSpec}


def _from_dict(cls, d, where: str):
    """Build the config dataclass cls from the JSON object d.

    The keys are the dataclass fields: unknown and missing ones are rejected
    with their path from where. An object under a _NESTED field is built the
    same way; every other value, null included, goes to cls as it is. The
    dataclasses check every value's type and range, and their ValueError
    gets the path of the object it was raised for.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    for name, f in fields.items():
        if name not in d and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{name}: required field is missing")
    kwargs = dict(d)
    for name, nested in _NESTED.items():
        if kwargs.get(name) is not None:
            kwargs[name] = _from_dict(nested, kwargs[name], f"{where}.{name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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


def _json(obj) -> str:
    """The text of every JSON output: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_table(path: Path, header: tuple[str, ...], labels: list[str] | None, columns) -> None:
    """Write one CSV table, given by its columns, with a single write.

    labels, if given, is the first column; columns holds the float columns,
    each written as repr(float(x)), the shortest string that reads back to
    the same double. Each distinct value is formatted once: values are told
    apart by bit pattern, so -0.0 and 0.0 keep their own strings, and the
    repr of a list of Python floats formats each with float.__repr__. The
    bytes are those of csv.writer in its default dialect (comma separators,
    \r\n line ends). No field ever needs quoting: the labels are detector
    names and the headers fixed identifiers.
    """
    values = np.array(columns, dtype=float)
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    text = repr(distinct.view(float).tolist())[1:-1].split(", ")
    fields = [list(map(text.__getitem__, col)) for col in where.reshape(values.shape).tolist()]
    if labels is not None:
        fields.insert(0, labels)
    lines = [",".join(header), *map(",".join, zip(*fields)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def _write_roc(out: Path, curves: dict) -> list[str]:
    """Write the runner's curves to roc.csv and auc.csv; return their names."""
    names = list(curves)
    _write_table(
        out / "roc.csv", ("detector", "pfa", "pd"),
        [name for name in names for _ in curves[name].pfa],
        [np.concatenate([curves[name].pfa for name in names]),
         np.concatenate([curves[name].pd for name in names])],
    )
    _write_table(out / "auc.csv", ("detector", "auc"), names, [[curves[name].auc for name in names]])
    return ["roc.csv", "auc.csv"]


def _write_pm(out: Path, points: dict) -> list[str]:
    """Write the runner's curves to pm.csv; return its name."""
    rows = [[pt.sweep_value, pt.pm, pt.ci_lo, pt.ci_hi] for curve in points.values() for pt in curve]
    _write_table(
        out / "pm.csv", ("detector", "sweep_value", "pm", "ci_lo", "ci_hi"),
        [name for name, curve in points.items() for _ in curve], np.array(rows).T,
    )
    return ["pm.csv"]


def _write_null(out: Path, result: tuple) -> list[str]:
    """Write the runner's (ks, table) to nulldist.csv and ks.json, whose
    n_trials counts the table's rows, one per valid trial; return their names."""
    ks, table = result
    _write_table(out / "nulldist.csv", ("t", "empirical_cdf", "chi2_cdf"), None, table.T)
    summary = {"ks_distance": ks, "n_trials": len(table), "reference": "chi-squared, 2 dof"}
    (out / "ks.json").write_text(_json(summary))
    return ["nulldist.csv", "ks.json"]


# Experiment commands and their help; cmd_experiment runs each.
_EXPERIMENTS = {
    "roc": "ROC and AUC tables from H0/H1 trials",
    "pm-sweep": "missed-detection probability along a sweep",
    "null-dist": "null distribution of 2 log Lambda",
}


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run an experiment command: load and check the config and --threads,
    create --out, run its runner, let its writer write the result into
    --out, then write manifest.json with the failures and telemetry. A
    refused config or flag creates no --out; an OSError creating --out or
    writing exits 2."""
    started = time.monotonic()
    # Looked up per call, so a wrapper set on this module's names after import runs.
    runner, writer = {
        "roc": (run_roc_experiment, _write_roc),
        "pm-sweep": (run_pm_sweep, _write_pm),
        "null-dist": (run_null_dist, _write_null),
    }[args.command]
    cfg = load_config(args.config, args.seed)
    check_experiment(args.command, cfg)
    threads = resolve_threads(args.threads)
    out = Path(args.out) if args.out else Path.cwd()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from exc
    run_start = time.perf_counter()
    result, failures, telemetry = runner(cfg, threads)
    write_start = time.perf_counter()
    try:
        outputs = writer(out, result)
        seconds = {"run": write_start - run_start, "write": time.perf_counter() - write_start}
        manifest = {
            "tool": "subspace-glr",
            "version": __version__,
            "command": args.command,
            "config": dataclasses.asdict(cfg),
            "threads": threads,
            "outputs": outputs,
            "trial_failures": failures,
            "telemetry": telemetry,
            "seconds": {stage: round(s, 6) for stage, s in seconds.items()},
            "duration_s": round(time.monotonic() - started, 3),
        }
        (out / "manifest.json").write_text(_json(manifest))
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from exc
    log.info("%s: wrote %s", args.command, ", ".join(str(out / name) for name in outputs + ["manifest.json"]))
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
    scores, optim = compute_report(s, steering)
    stats = dict(zip(scores.detectors, scores.stats[0].tolist()))
    result = {
        "L": data.num_sensors,
        "N": data.num_snapshots,
        "statistics": stats,
        "two_log_glr": float(scores.two_log_glr[0]),
        "optimizer": {
            "iterations": optim.iterations,
            "converged": optim.converged,
            "stop_reason": optim.stop_reason,
            "j_value": optim.j_value,
        },
        "sample_cov_condition": float(np.linalg.cond(s.full())),
    }
    if thresholds:
        result["decisions"] = {name: stats[name] > thr for name, thr in thresholds.items()}
    sys.stdout.write(_json(result))
    return 0


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.seed)
    sys.stdout.write(_json(dataclasses.asdict(cfg)))
    return 0


def _add_experiment(sub, name: str) -> None:
    p_exp = sub.add_parser(name, help=_EXPERIMENTS[name])
    p_exp.add_argument("--config", required=True, help="JSON run configuration")
    p_exp.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_exp.add_argument("--threads", type=int, default=0, help="worker processes, 0 = all usable CPUs")
    p_exp.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
    p_exp.set_defaults(func=cmd_experiment)


def _add_detect(sub, name: str) -> None:
    p_det = sub.add_parser(name, help="score one snapshot file")
    p_det.add_argument("--data", required=True, help="snapshot CSV or binary file")
    p_det.add_argument("--steering", required=True, help="steering CSV file")
    p_det.add_argument(
        "--threshold", action="append", metavar="NAME=VALUE",
        help="decision threshold for one detector; repeatable",
    )
    p_det.set_defaults(func=cmd_detect)


def _add_validate_config(sub, name: str) -> None:
    p_val = sub.add_parser(name, help="check a config and print it with defaults filled in")
    p_val.add_argument("--config", required=True, help="JSON run configuration")
    p_val.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
    p_val.set_defaults(func=cmd_validate_config)


# Every subcommand, in help order, and what adds its parser.
_COMMANDS = {
    **dict.fromkeys(_EXPERIMENTS, _add_experiment),
    "detect": _add_detect,
    "validate-config": _add_validate_config,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given one of the subcommands, only that
    subcommand's parser is added, and the usage line still names every
    subcommand: a command line that starts with it parses the same and
    prints the same text, since the rest of the line goes to that
    subcommand's parser alone."""
    parser = argparse.ArgumentParser(
        prog="subspace-glr",
        description="Two-channel GLR detection experiments",
    )
    usage = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in _COMMANDS if command is None else (command,):
        _COMMANDS[name](sub, name)
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
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
