"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records one span ``(id, parent, name, t0_ns, t1_ns, L, pid,
extra)``. Functions are replaced in the namespace of their caller (a function
that ``detectors`` imported is patched as ``detectors.<name>``), so no file
of the package changes. Times come from ``time.monotonic_ns``, which on Linux
reads the system-wide monotonic clock, so spans recorded in forked pool
workers line up with those of the parent process.

``L`` tags every span with the array size of the trial or run it belongs to:
the wrappers of functions that take an ``ExperimentConfig`` set it.

Pool workers are forked from the traced process and inherit the wrappers.
A worker's chunk returns its spans attached to the records (``_Shipped``),
and the wrapped ``ProcessPoolExecutor.map`` of the parent moves them into the
parent's buffer, so worker busy time comes from spans recorded in the workers.
"""

from __future__ import annotations

import functools
import itertools
import os
import time

# (module, attribute, span name). Patched where the caller looks the name up.
MONTECARLO_WRAPS = (
    ("substream", "model.substream"),
    ("draw_steering", "model.draw_steering"),
    ("draw_channel", "model.draw_channel"),
    ("synth_snapshots", "model.synth_snapshots"),
    ("collect_stats", "montecarlo.collect_stats"),
    ("roc_curve", "montecarlo.roc_curve"),
    ("pm_at", "montecarlo.pm_at"),
    ("wilks_diag", "montecarlo.wilks_diag"),
)
DETECTORS_WRAPS = (
    ("substream", "model.substream"),
    ("sample_cov", "covariance.sample_cov"),
    ("build_reduced_forms", "covariance.reduced_forms"),
    ("glr_exact", "detectors.glr_exact"),
    ("glr_sample", "detectors.glr_sample"),
    ("glr_low", "detectors.glr_low"),
    ("sigma_max_coherence", "detectors.sigma_max"),
    ("cross_corr_stat", "detectors.t_cc"),
    ("svd_corr_stat", "detectors.t_svd"),
    ("CostContext", "optimizer.cost_context"),
    ("init_x", "optimizer.init_x"),
)
CLI_WRAPS = (
    ("run_roc_experiment", "montecarlo.run_roc_experiment"),
    ("run_pm_sweep", "montecarlo.run_pm_sweep"),
    ("run_null_dist", "montecarlo.run_null_dist"),
)


def _cfg_sensors(args, kwargs) -> int:
    cfg = kwargs.get("cfg", args[0] if args else None)
    return int(cfg.scenario.L)


def _ascent_extra(res) -> list:
    return [int(res.iterations), bool(res.converged)]


def _dominance_extra(report) -> float | None:
    """1 + glr_sample - glr; positive beyond roundoff breaks glr >= 1 + glr_sample."""
    if report.glr_1n is None or report.glr_sample is None:
        return None
    return 1.0 + report.glr_sample - report.glr_1n


class _Shipped(list):
    """Chunk records returned by a pool worker, carrying the worker's spans."""

    spans: list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._owner = os.getpid()
        self.sensors = 0

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def _record(self, sid, parent, name, t0, extra) -> None:
        self.spans.append(
            (sid, parent, name, t0, time.monotonic_ns(), self.sensors, os.getpid(), extra)
        )

    def wrap(self, fn, name: str, tag=None, extra=None):
        """Return fn wrapped so that every call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tag is not None:
                self.sensors = tag(args, kwargs)
            sid = self._new_id()
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            t0 = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self._record(sid, parent, name, t0, None)
                raise
            self._stack.pop()
            self._record(sid, parent, name, t0, extra(out) if extra is not None else None)
            return out

        return traced

    def event(self, name: str, extra=None) -> None:
        t = time.monotonic_ns()
        self.spans.append((self._new_id(), 0, name, t, t, self.sensors, os.getpid(), extra))

    def _patch(self, module, attr: str, name: str, **kw) -> None:
        if hasattr(module, attr):
            setattr(module, attr, self.wrap(getattr(module, attr), name, **kw))

    def install(self) -> None:
        """Patch the package modules. A function a later version no longer has is
        skipped, and the metrics built on it read 0."""
        from subspace_glr import cli, detectors, montecarlo

        for attr, name in MONTECARLO_WRAPS:
            self._patch(montecarlo, attr, name)
        for attr, name in DETECTORS_WRAPS:
            self._patch(detectors, attr, name)
        for attr, name in CLI_WRAPS:
            self._patch(cli, attr, name)
        self._patch(detectors, "maximize_j", "optimizer.maximize_j", extra=_ascent_extra)
        self._patch(montecarlo, "compute_report", "detectors.compute_report",
                    extra=_dominance_extra)
        self._patch(montecarlo, "run_one_trial", "montecarlo.trial", tag=_cfg_sensors)
        self._patch(montecarlo, "run_trials", "montecarlo.run_trials", tag=_cfg_sensors)
        if hasattr(montecarlo, "_run_chunk"):
            montecarlo._run_chunk = self._shipping(
                self.wrap(montecarlo._run_chunk, "montecarlo.chunk", tag=_cfg_sensors)
            )
        if hasattr(montecarlo, "ProcessPoolExecutor"):
            montecarlo.ProcessPoolExecutor = self._counting_pool(montecarlo.ProcessPoolExecutor)

    def _shipping(self, chunk):
        """In a forked worker, return the chunk's spans along with its records."""

        @functools.wraps(chunk)
        def run_chunk(*args, **kwargs):
            if os.getpid() == self._owner:
                return chunk(*args, **kwargs)
            self.spans.clear()  # inherited at fork, or shipped with the previous chunk
            out = _Shipped(chunk(*args, **kwargs))
            out.spans = self.spans[:]
            self.spans.clear()
            return out

        return run_chunk

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.event("montecarlo.pool")

            def map(self, fn, *iterables, **kwargs):
                for part in super().map(fn, *iterables, **kwargs):
                    tracer.spans.extend(getattr(part, "spans", ()))
                    yield part

        return CountingPool
