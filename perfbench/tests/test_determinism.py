#!/usr/bin/env python3
"""Determinism self-test of the benchmark driver.

    python3 perfbench/tests/test_determinism.py

Builds the driver (as perfbench/run.py does) and runs every workload at a
tenth of its size:
  * two runs with one seed give byte-identical simulated-clock metrics and
    fingerprints;
  * another seed changes the fingerprint;
  * a traced run gives the same simulated-clock metrics as an untraced one
    (the driver compares every traced rep with the untraced rep 0 and
    exits non-zero on any difference), and two traced runs agree.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

SCALE = 0.1
# Host-clock metrics; everything else the driver reports is simulated.
HOST = ("host_cpu_s", "peak_rss_mb", "setup_s")


def sim_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name not in HOST and not name.startswith("host.")}


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def drive(self, workload, seed, trace=0):
        code, _, result = run.run_driver(self.driver, workload, seed, 0,
                                         trace, scale=SCALE)
        self.assertEqual(code, 0, "%s seed %d trace %d" % (workload, seed,
                                                           trace))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_same_seed_is_identical_and_other_seed_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.drive(workload, 5)
                b = self.drive(workload, 5)
                c = self.drive(workload, 6)
                self.assertEqual(sim_metrics(a), sim_metrics(b))
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertNotEqual(a["fingerprint"], c["fingerprint"])

    def test_traced_runs_match(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.drive(workload, 9, trace=1)
                b = self.drive(workload, 9, trace=1)
                self.assertEqual(sim_metrics(a), sim_metrics(b))
                self.assertGreater(a["metrics"]["trace.cmds"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
