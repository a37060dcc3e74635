"""Tests of run.py's result check against BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest
from unittest import mock

import run


def load_spec():
    with open(run.SPEC) as f:
        return json.load(f)


def result_line(section, drop=None, unit=None, extra=None):
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in section}
    if drop:
        del metrics[drop]
    if unit:
        metrics[unit]["unit"] = "furlongs"
    if extra:
        metrics[extra] = {"value": 1.0, "unit": "count"}
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": metrics})


class CheckResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_spec_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["mixed_io", "dss_io"])
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])
        for path in self.spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, path)))

    def test_complete_lines_pass(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = result_line(self.spec[key])
            self.assertEqual(run.check_result(line, self.spec, trace), [])

    def test_wrong_section_fails(self):
        line = result_line(self.spec["end_to_end"])
        self.assertTrue(run.check_result(line, self.spec, 1))

    def test_missing_metric_fails(self):
        line = result_line(self.spec["end_to_end"], drop="latency_p95_ms")
        self.assertIn("metric latency_p95_ms missing or malformed",
                      run.check_result(line, self.spec, 0))

    def test_wrong_unit_fails(self):
        line = result_line(self.spec["end_to_end"], unit="setup_s")
        self.assertTrue(run.check_result(line, self.spec, 0))

    def test_extra_metric_fails(self):
        line = result_line(self.spec["end_to_end"], extra="bogus")
        self.assertIn("unexpected metric bogus",
                      run.check_result(line, self.spec, 0))

    def test_malformed_lines_fail(self):
        self.assertTrue(run.check_result("not json", self.spec, 0))
        self.assertTrue(run.check_result("{}", self.spec, 0))
        line = json.loads(result_line(self.spec["end_to_end"]))
        line["attempted"] = 0
        self.assertTrue(run.check_result(json.dumps(line), self.spec, 0))


class TimeoutTest(unittest.TestCase):
    def test_timeout_fails_the_run(self):
        argv = ["run.py", "--workload", "mixed_io", "--seed", "1",
                "--seconds", "30", "--trace", "0"]
        expired = subprocess.TimeoutExpired("perfbench", 240)
        with mock.patch.object(sys, "argv", argv), \
                mock.patch.object(run, "build", return_value="perfbench"), \
                mock.patch.object(run.subprocess, "run",
                                  side_effect=expired) as started, \
                mock.patch("sys.stderr"):
            self.assertEqual(run.main(), 1)
        # 4x the window plus the set-up allowance.
        self.assertEqual(started.call_args.kwargs["timeout"], 240)


if __name__ == "__main__":
    unittest.main()
