"""Self-tests of the divlab benchmark.

    python3 bench/selftest.py

Runs every workload once per mode at smoke size (seconds, not minutes),
checks that each metric BENCHMARK.json names is printed with its unit, that
a deliberately wrong expected value is counted as a failure, that the span
recorder nests, self-checks and restores every wrapped name, and that the
benchmark refuses to run where there are no divlab sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import divlab  # noqa: E402
import divlab.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class SmokeRuns(unittest.TestCase):
    """Each workload's job list at reduced size, untraced and traced."""

    runs: dict[tuple[str, int], subprocess.CompletedProcess] = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = bench(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke")

    def test_every_job_passes(self):
        for (workload, trace), proc in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_every_named_metric_is_printed_with_its_unit(self):
        for (workload, trace), proc in self.runs.items():
            named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            lines = proc.stdout.splitlines()
            metrics = json.loads(lines[-1])["metrics"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(metrics), {m["name"] for m in named})
                for m in named:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                    self.assertTrue(any(line.strip().startswith(f"{m['name']} = ")
                                        and line.rstrip().endswith(f" {m['unit']}")
                                        for line in lines), m["name"])
                if not trace:  # reported with a unit but not gated
                    for name, unit in (("pass_wall_s", "s"), ("error_rate", "ratio")):
                        self.assertTrue(any(line.strip().startswith(f"{name} = ")
                                            and f" {unit} (not gated)" in line for line in lines))

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], run.WHY[w["name"]])
        predicted = {name for layer, _, _ in run.PREDICTIONS for name in layer}
        self.assertLessEqual(predicted, {m["name"] for m in SPEC["per_layer"]})


class Checks(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        saved = dict(workloads.SMOKE_CAP_83)
        workloads.SMOKE_CAP_83.update({cap: size + 1 for cap, size in saved.items()})
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                worker.main(["--workload", "exact-small", "--seed", "1", "--smoke"])
        finally:
            workloads.SMOKE_CAP_83.update(saved)
        report = json.loads(out.getvalue().splitlines()[-1])
        failing = [job["id"] for job in report["jobs"] if job["problems"]]
        self.assertEqual(failing, ["cap (8,3) cap=2"])

        report.update(setup_s=0.1, wall=1.0, traced=False)
        summary = run.summarize(SimpleNamespace(trace=0), [], [report])
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["failed"], 1)
        self.assertEqual(summary["reported"]["error_rate"][0], 1 / len(report["jobs"]))

    def test_refuses_without_sources(self):
        bare = BENCH_DIR / ".work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
                shutil.copy(BENCH_DIR / name, bare / "bench")
            proc = bench("--workload", "exact-small", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SpanRecorder(unittest.TestCase):
    def test_wraps_every_alias_nests_and_restores(self):
        originals = {
            "cli": divlab.cli.max_c_diversity,
            "package": divlab.max_c_diversity,
            "cap": divlab.search.max_size_with_degree_cap,
            "decomposition": divlab.stability.triangle_decomposition,
            "init": divlab.Family.__init__,
        }
        rec = tracing.Tracer()
        rec.install([workloads])
        try:
            self.assertIsNot(divlab.cli.max_c_diversity, originals["cli"])
            self.assertIs(divlab.cli.max_c_diversity, divlab.search.max_c_diversity)
            self.assertIsNot(divlab.max_c_diversity, originals["package"])
            self.assertIsNot(divlab.Family.__init__, originals["init"])
            rec.begin_job("probe")
            divlab.find_stability_triple(divlab.family_triangle(12, 3))
            divlab.max_c_diversity(5, 2, Fraction(5, 4), "exact", workers=1)
            rec.end_job()
        finally:
            left = rec.uninstall([workloads])
        self.assertEqual(left, [])
        self.assertIs(divlab.cli.max_c_diversity, originals["cli"])
        self.assertIs(divlab.max_c_diversity, originals["package"])
        self.assertIs(divlab.search.max_size_with_degree_cap, originals["cap"])
        self.assertIs(divlab.stability.triangle_decomposition, originals["decomposition"])
        self.assertIs(divlab.Family.__init__, originals["init"])

        names = {sid: name for sid, name, *_ in rec.spans}
        parents = {name: names.get(parent) for _, name, _, _, parent, _ in rec.spans}
        # found through the callers' global names, not only the package's
        self.assertEqual(parents["stability.triangle_decomposition"],
                         "stability.find_stability_triple")
        self.assertEqual(parents["search.max_size_with_degree_cap"],
                         "search.max_c_diversity_exact")
        metrics, problems = rec.summary()
        self.assertEqual(problems, [])
        self.assertEqual(metrics["stability.triples_scanned"], 220)
        self.assertGreater(metrics["search.exact.nodes"], 0)
        for name, _, _ in tracing.TARGETS:
            self.assertGreaterEqual(metrics[f"{name}.self_s"], 0.0)
            self.assertLessEqual(metrics[f"{name}.self_s"],
                                 metrics[f"{name}.total_s"] + tracing.EPS)

        # a child span longer than its parent must trip the self-check
        sid, name, start, end, parent, job = rec.spans[-1]
        rec.spans.append((10**9, "family.Family", start - 1.0, end + 1.0, sid, job))
        self.assertTrue(rec.summary()[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
