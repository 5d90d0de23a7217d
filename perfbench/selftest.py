"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def span(sid, parent, name, t0, t1, size=4, pid=1, extra=None):
    return (sid, parent, name, t0, t1, size, pid, extra)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),  # overlaps a: the union 10..60 counts once
            span(4, 2, "c", 20, 25),
            span(5, 1, "late", 90, 120),  # runs past its parent: clipped at 100
        ]
        selfs = layers.self_ns(spans)
        self.assertEqual(selfs, {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30})

    def test_tracer_nesting(self):
        tracer = Tracer()

        def inner():
            time.sleep(0.002)

        traced_inner = tracer.wrap(inner, "inner")

        def outer():
            traced_inner()
            traced_inner()
            time.sleep(0.002)

        tracer.wrap(outer, "outer")()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s[2], []).append(s)
        (o,) = by_name["outer"]
        self.assertEqual([s[1] for s in by_name["inner"]], [o[0], o[0]])
        selfs = layers.self_ns(tracer.spans)
        inner_ns = sum(s[4] - s[3] for s in by_name["inner"])
        self.assertEqual(selfs[o[0]], (o[4] - o[3]) - inner_ns)
        self.assertGreaterEqual(selfs[o[0]], 2_000_000)


class ImportSplit(unittest.TestCase):
    def test_parts_add_up(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        40 |         40 | site",
            "import time:         5 |          5 |         pickle",
            "import time:        10 |         15 |       numpy.core",
            "import time:       100 |        115 |     numpy",
            "import time:         7 |          7 |       inspect",
            "import time:       200 |        207 |     scipy.linalg",
            "import time:        50 |         50 |     json",
            "import time:        30 |        402 |   subspace_glr",
            "import time:        20 |        422 | subspace_glr.cli",
        ])
        got = layers.import_split(text)
        self.assertAlmostEqual(got["setup.import_s.numpy"], 115e-6)
        self.assertAlmostEqual(got["setup.import_s.scipy"], 207e-6)
        self.assertAlmostEqual(got["setup.import_s.package"], 100e-6)
        self.assertAlmostEqual(got["setup.import_s"], 422e-6)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_are_valid(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
        for w in self.spec["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])

    def test_spec_matches_what_the_benchmark_reports(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]}, layers.UNITS
        )
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(run.WORKLOADS))
        bench = run.Bench(HERE.parent, "roc-closed", 1)
        calls = [run.Call(k=0, traced=False, attempted=10, setup_s=1.0, run_s=1.0, figure=0.9)]
        metrics, _ = run.end_to_end(bench, calls)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            {name: unit for name, (_, unit) in metrics.items()},
        )


def _small(wl: run.Workload) -> run.Workload:
    base = dict(wl.base, trials_h0=40)
    if "trials_h1" in base:
        base["trials_h1"] = 40
    return dataclasses.replace(wl, base=base, configs=2)


class TracedRunsRepeat(unittest.TestCase):
    """Two traced runs with one seed give identical counts (reduced trial counts)."""

    def traced_run(self, name: str) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(rc, 0, out.getvalue())
        self.assertTrue(result["correct"])
        return result["metrics"]

    def test_counts_repeat(self):
        saved = dict(run.WORKLOADS)
        cwd = os.getcwd()
        os.chdir(HERE.parent)
        try:
            for name in saved:
                run.WORKLOADS[name] = _small(saved[name])
            for name in ("sweep-l-pool", "roc-closed"):
                first, second = self.traced_run(name), self.traced_run(name)
                counts = [k for k, v in first.items() if v["unit"].startswith("count")]
                self.assertIn("montecarlo.pools", counts)
                for key in counts:
                    self.assertEqual(first[key]["value"], second[key]["value"], f"{name} {key}")
                if name == "roc-closed":
                    self.assertEqual(first["optimizer.ascent.us"]["value"], 0.0)
                    self.assertEqual(first["montecarlo.pools"]["value"], 0.0)
                else:
                    self.assertEqual(first["detectors.t_cc.us"]["value"], 0.0)
                    self.assertEqual(first["model.substream.calls"]["value"], 4.0)
        finally:
            run.WORKLOADS.update(saved)
            os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
