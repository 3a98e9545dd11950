"""Tests of the grid benchmark's own code (no build needed):

  python3 -m unittest discover -s gridbench -p 'test_*.py'
"""

import hashlib
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402
import run  # noqa: E402


def write_report(path, cells=harness.GRID_CELLS, cls="pass", extra=""):
    report = {"cells": [{"id": "c%d" % i, "class": cls, "sha256": "x"}
                        for i in range(cells)], "extra": extra}
    Path(path).write_text(json.dumps(report))


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, q2, q3 = harness.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, harness.median(values))

    def test_single_value_is_every_quartile(self):
        self.assertEqual(harness.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_median_of_even_count(self):
        self.assertEqual(harness.median([1.0, 2.0, 3.0, 10.0]), 2.5)


class EnvironmentTest(unittest.TestCase):
    def test_scrub_drops_inherited_fairclean_knobs(self):
        parent = {
            "PATH": "/usr/bin", "HOME": "/home/u",
            "FAIRCLEAN_FAULTS": "numeric:0.1", "FAIRCLEAN_EXEC_MODE": "naive",
            "FAIRCLEAN_STORE": "paged", "FAIRCLEAN_TRACE": "t.json",
            "FAIRCLEAN_METRICS": "m.jsonl", "FAIRCLEAN_FLIGHT": "1",
            "FAIRCLEAN_SAMPLE": "15000", "UNRELATED": "1",
        }
        env = harness.child_env(parent, {"FAIRCLEAN_SAMPLE": "1000",
                                         "FAIRCLEAN_SEED": "7"})
        self.assertEqual(env, {"PATH": "/usr/bin", "HOME": "/home/u",
                               "FAIRCLEAN_SAMPLE": "1000",
                               "FAIRCLEAN_SEED": "7"})

    def test_workload_env_sets_only_its_knobs(self):
        bench = run.Bench.__new__(run.Bench)
        bench.seed = "5"
        env = bench.env(1)
        knobs = {k for k in env if k.startswith("FAIRCLEAN_")}
        self.assertEqual(knobs, {"FAIRCLEAN_SAMPLE", "FAIRCLEAN_REPEATS",
                                 "FAIRCLEAN_MAX_RETRIES",
                                 "FAIRCLEAN_SEED", "FAIRCLEAN_THREADS",
                                 "FAIRCLEAN_CACHE_DIR",
                                 "FAIRCLEAN_SUITE_REPORT"})
        self.assertEqual(env["FAIRCLEAN_THREADS"], "1")
        self.assertEqual(env["FAIRCLEAN_SEED"], "5")


class ReportCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.registry = harness.ReportRegistry(self.dir / "registry")
        self.work = self.dir / "work"
        self.work.mkdir()
        self.report = self.work / "report.json"

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, key="k"):
        return harness.check_report(self.report, self.work, self.registry,
                                    key)[1]

    def test_good_report_passes_and_repeats_identically(self):
        write_report(self.report)
        self.assertEqual(self.check(), [])
        self.assertEqual(self.check(), [])

    def test_missing_and_unparsable(self):
        self.assertEqual(self.check(), ["report missing"])
        self.report.write_text("{not json")
        self.assertEqual(self.check(), ["report unparsable"])

    def test_too_few_cells(self):
        write_report(self.report, cells=harness.GRID_CELLS - 1)
        self.assertIn("fewer than", self.check()[0])

    def test_lost_cells(self):
        for cls in harness.FAILED_CLASSES:
            write_report(self.report, cls=cls)
            self.assertIn("lost work", self.check(key=cls)[0])
        write_report(self.report, cls="degenerate_retry")
        self.assertEqual(self.check(key="retry"), [])

    def test_corrupt_file_fails(self):
        write_report(self.report)
        (self.work / "cache").mkdir()
        (self.work / "cache" / "a.json.corrupt").write_text("")
        self.assertIn("corrupt", self.check()[0])

    def test_bytes_must_match_across_runs_at_one_key(self):
        write_report(self.report)
        self.assertEqual(self.check(key="n1000_r3_s7"), [])
        write_report(self.report, extra="drift")
        self.assertIn("differ", self.check(key="n1000_r3_s7")[0])
        self.assertEqual(self.check(key="n1000_r3_s8"), [])
        digest = (self.dir / "registry" / "n1000_r3_s7.sha256").read_text()
        write_report(self.report)
        self.assertEqual(digest.strip(), hashlib.sha256(
            self.report.read_bytes()).hexdigest())

    def test_fail_frac(self):
        self.assertEqual(harness.fail_frac(4, 1), 0.25)
        self.assertEqual(harness.fail_frac(3, 0), 0.0)
        self.assertEqual(harness.fail_frac(0, 0), 1.0)

    def test_parse_diagnostics(self):
        text = ("study driver diagnostics:\n"
                "  experiments=39 cache_hits=0 journal_resumes=0\n"
                "  repeats_run=117 retries=2 skips=0 checkpoints=117\n")
        self.assertEqual(harness.parse_diagnostics(text), {
            "experiments": 39, "cache_hits": 0, "repeats_run": 117,
            "retries": 2, "skips": 0})


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_are_declared_and_well_formed(self):
        declared_e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(dict(harness.END_TO_END), declared_e2e)
        self.assertEqual(dict(harness.PER_LAYER), declared_layer)
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(run.WORKLOADS))
        for name in list(declared_e2e) + list(declared_layer) + list(
                run.WORKLOADS):
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_layer_metrics_cover_the_declared_set(self):
        summary = {
            "layers": {"ml.tune.xgboost": {"self_s": 2.0, "calls": 3},
                       "detect.outliers-if": {"self_s": 1.0, "calls": 4},
                       "exec.cell": {"self_s": 0.5, "calls": 1}},
            "replay_s": 4.0, "cell_s": [1.0, 3.0],
            "store": {"bytes": 10, "records": 2},
            "spans": 8, "span_cost_s": 1e-7,
        }
        ref = harness.Child(0, 2.0, 6.0, 1000)
        metrics = run.layer_metrics(summary, ref, {"repeats_run": 3}, 4)
        self.assertEqual(set(metrics), set(dict(harness.PER_LAYER)))
        self.assertAlmostEqual(metrics["unattributed_frac"], 0.125)
        self.assertAlmostEqual(metrics["sched.idle_frac"], 0.25)
        self.assertEqual(metrics["detect.calls"], 4)
        self.assertEqual(metrics["exec.cell_s.max"], 3.0)

    def test_replay_must_reproduce_the_report(self):
        report = {"cells": [{"id": "a", "sha256": "1", "class": "pass"}],
                  "tables": [{"id": "t", "counts": [[1]]}]}
        summary = {"cells": [{"id": "a", "sha256": "1", "class": "pass"}],
                   "tables": [{"id": "t", "counts": [[1]]}],
                   "counts": {"repeats_run": 3, "retries": 0, "skips": 0},
                   "checks": {"slots": 1, "figures": 1}}
        diagnostics = {"repeats_run": 3, "retries": 0, "skips": 0}
        self.assertEqual(run.replay_problems(summary, report, diagnostics,
                                             False), [])
        summary["cells"][0]["sha256"] = "2"
        summary["tables"][0]["counts"] = [[2]]
        summary["counts"]["retries"] = 1
        problems = run.replay_problems(summary, report, diagnostics, False)
        self.assertEqual(len(problems), 3)
        self.assertEqual(run.replay_problems(summary, None, {}, True),
                         ["no reference report"])

    def test_result_line_shape(self):
        line = json.loads(harness.result_line(True, 3, 0,
                                              {"wall_s": (1.5, "s")}))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["wall_s"], {"value": 1.5,
                                                     "unit": "s"})


if __name__ == "__main__":
    unittest.main()
