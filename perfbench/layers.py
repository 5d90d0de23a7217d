"""Per-layer metrics from the spans of traced calls and from ``-X importtime``.

A span is ``(id, parent, name, t0_ns, t1_ns, L, pid, extra)`` as recorded by
tracer.py. A span's self time is its duration minus the part of its interval
that its child spans cover. Unless a metric says otherwise it is per trial:
the total over all trials divided by the number of trials. Metrics in
``KEYED`` are also reported for the trials of each array size, as
``<name>.L<size>``; a size that a workload does not run reads 0.

Metrics whose unit starts with ``count`` repeat exactly for a fixed seed.
"""

from __future__ import annotations

import math
from collections import defaultdict

SIZES = (2, 4, 8)

INCLUSIVE_US = {
    "model.substream.us": ("model.substream",),
    "covariance.sample_cov.us": ("covariance.sample_cov",),
    "covariance.reduced_forms.us": ("covariance.reduced_forms",),
    "detectors.glr_sample.us": ("detectors.glr_sample",),
    "detectors.glr_low.us": ("detectors.glr_low",),
    "detectors.sigma_max.us": ("detectors.sigma_max",),
    "detectors.t_cc.us": ("detectors.t_cc",),
    "detectors.t_svd.us": ("detectors.t_svd",),
    "optimizer.ascent.us": ("optimizer.maximize_j",),
    "optimizer.setup.us": ("optimizer.cost_context", "optimizer.init_x"),
}
SELF_US = {
    "model.synthesis.us": ("model.draw_steering", "model.draw_channel", "model.synth_snapshots"),
    "detectors.glr_exact.self_us": ("detectors.glr_exact",),
    "detectors.compute_report.self_us": ("detectors.compute_report",),
    "montecarlo.trial.self_us": ("montecarlo.trial",),
}
REDUCE = ("montecarlo.collect_stats", "montecarlo.roc_curve", "montecarlo.pm_at",
          "montecarlo.wilks_diag")
KEYED = (
    "model.synthesis.us",
    "covariance.sample_cov.us",
    "covariance.reduced_forms.us",
    "detectors.glr_sample.us",
    "detectors.glr_low.us",
    "detectors.glr_exact.self_us",
    "optimizer.ascent.us",
    "optimizer.setup.us",
    "optimizer.us_per_iteration",
    "optimizer.iterations.mean",
    "montecarlo.trial.self_us",
    "montecarlo.pool_overhead_share",
)
# Per-layer metric name -> unit, in the order they are printed.
UNITS = {
    "setup.import_s": "s",
    "setup.import_s.numpy": "s",
    "setup.import_s.scipy": "s",
    "setup.import_s.package": "s",
    "model.substream.calls": "count/trial",
    "model.substream.us": "us",
    "model.synthesis.us": "us",
    "covariance.sample_cov.us": "us",
    "covariance.reduced_forms.us": "us",
    "detectors.glr_sample.us": "us",
    "detectors.glr_low.us": "us",
    "detectors.sigma_max.us": "us",
    "detectors.t_cc.us": "us",
    "detectors.t_svd.us": "us",
    "detectors.glr_exact.self_us": "us",
    "detectors.compute_report.self_us": "us",
    "optimizer.ascent.us": "us",
    "optimizer.setup.us": "us",
    "optimizer.us_per_iteration": "us",
    "optimizer.iterations.mean": "count",
    "optimizer.iterations.p50": "count",
    "optimizer.iterations.p99": "count",
    "optimizer.iterations.max": "count",
    "optimizer.unconverged": "count/1000",
    "montecarlo.trial.self_us": "us",
    "montecarlo.reduce_s": "s",
    "montecarlo.pools": "count",
    "montecarlo.pool_overhead_share": "share",
    "cli.self_s": "s",
    "cli.output_bytes": "B/trial",
    "trace.overhead_share": "share",
}
for _name in KEYED:
    for _size in SIZES:
        UNITS[f"{_name}.L{_size}"] = UNITS[_name]
del _name, _size


def self_ns(spans: list) -> dict[int, int]:
    """Self time of every span: its duration minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, *_ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, *_ in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _overlap(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


def _pool_overhead(run_trials: list, chunks: list) -> float:
    """1 - busy / (workers x wall) over the given run_trials spans.

    Busy time is the chunk time inside each run_trials interval; workers are
    the distinct processes that ran those chunks (1 when they ran in-process).
    """
    capacity = busy = 0
    for r in run_trials:
        inside = [(c, _overlap(r[3], r[4], c[3], c[4])) for c in chunks]
        inside = [(c, ns) for c, ns in inside if ns > 0]
        workers = len({c[6] for c, _ in inside}) or 1
        capacity += workers * (r[4] - r[3])
        busy += sum(ns for _, ns in inside)
    return 1.0 - busy / capacity if capacity else 0.0


def _nearest_rank(sorted_vals: list, q: float) -> float:
    return float(sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)])


def _group(spans: list, selfs: dict, calls: int, size: int | None) -> dict[str, float]:
    """Metrics over the trials of one array size (all trials when size is None)."""
    spans = [s for s in spans if size is None or s[5] == size]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    trials = len(by_name["montecarlo.trial"])

    def per_trial_us(total_ns: float) -> float:
        return total_ns / trials / 1e3 if trials else 0.0

    out = {}
    for metric, names in INCLUSIVE_US.items():
        out[metric] = per_trial_us(sum(s[4] - s[3] for n in names for s in by_name[n]))
    for metric, names in SELF_US.items():
        out[metric] = per_trial_us(sum(selfs[s[0]] for n in names for s in by_name[n]))
    ascents = by_name["optimizer.maximize_j"]
    iters = sorted(s[7][0] for s in ascents if s[7] is not None)
    out["optimizer.us_per_iteration"] = (
        sum(s[4] - s[3] for s in ascents) / sum(iters) / 1e3 if sum(iters) else 0.0
    )
    out["optimizer.iterations.mean"] = sum(iters) / len(iters) if iters else 0.0
    out["montecarlo.pool_overhead_share"] = _pool_overhead(
        by_name["montecarlo.run_trials"], by_name["montecarlo.chunk"]
    )
    if size is not None:
        return {f"{name}.L{size}": out[name] for name in KEYED}
    out["optimizer.iterations.p50"] = _nearest_rank(iters, 0.50) if iters else 0.0
    out["optimizer.iterations.p99"] = _nearest_rank(iters, 0.99) if iters else 0.0
    out["optimizer.iterations.max"] = float(iters[-1]) if iters else 0.0
    unconverged = sum(1 for s in ascents if s[7] is not None and not s[7][1])
    out["optimizer.unconverged"] = 1000.0 * unconverged / len(ascents) if ascents else 0.0
    out["model.substream.calls"] = len(by_name["model.substream"]) / trials if trials else 0.0
    out["montecarlo.reduce_s"] = sum(s[4] - s[3] for n in REDUCE for s in by_name[n]) / 1e9 / calls
    out["montecarlo.pools"] = len(by_name["montecarlo.pool"]) / calls
    out["cli.self_s"] = sum(selfs[s[0]] for s in by_name["cli.main"]) / 1e9 / calls
    return out


def span_metrics(spans: list, calls: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``calls`` traced CLI calls.

    The experiment functions are the only wrapped callees of ``cli.main``, so
    its self time is config load plus output writing.
    """
    spans = [tuple(s) for s in spans]
    selfs = self_ns(spans)
    out = _group(spans, selfs, calls, None)
    for size in SIZES:
        out.update(_group(spans, selfs, calls, size))
    return out


def dominance_violations(spans: list, tol: float = 1e-8) -> int:
    """Trials where glr < 1 + glr_sample - tol (the acceptance-suite tolerance)."""
    return sum(
        1 for s in spans if s[2] == "detectors.compute_report" and s[7] is not None and s[7] > tol
    )


def import_split(stderr: str) -> dict[str, float]:
    """Import time of ``subspace_glr`` split into numpy, scipy and the package.

    Parses ``python -X importtime`` output (children listed before their
    parent, nesting shown by indentation). Each module's self time goes to
    the nearest enclosing numpy, scipy or subspace_glr module, so the three
    parts add up to the total.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, field = line[len("import time:"):].split("|", 2)
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = (field.strip(), int(self_us), pending.pop(depth + 1, []))
        pending[depth].append(node)
    parts = {"numpy": 0, "scipy": 0, "package": 0}

    def walk(node, owner: str) -> None:
        name, self_us, kids = node
        top = name.split(".")[0]
        owner = {"numpy": "numpy", "scipy": "scipy", "subspace_glr": "package"}.get(top, owner)
        parts[owner] += self_us
        for kid in kids:
            walk(kid, owner)

    for root in pending[0]:
        if root[0].split(".")[0] == "subspace_glr":
            walk(root, "package")
    out = {f"setup.import_s.{k}": v / 1e6 for k, v in parts.items()}
    out["setup.import_s"] = sum(parts.values()) / 1e6
    return out
