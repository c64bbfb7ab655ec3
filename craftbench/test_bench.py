#!/usr/bin/env python3
"""Tests of craft-bench itself: fingerprint reproducibility, the fixed launch
multiset, failed-launch accounting and the stamp check of --compare.

  python3 craftbench/test_bench.py

Builds craftbench/ the way run.py does, then drives short runs.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BINARY = None


def soc(seed, *extra):
    """One short soc_fast run (two rounds); returns (exit code, document)."""
    r = subprocess.run([str(BINARY), "soc", "--workload", "soc_fast", "--seed", str(seed),
                        "--seconds", "2", *extra], capture_output=True, text=True, timeout=120)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


class Fingerprint(unittest.TestCase):
    def test_same_seed_reproduces_fingerprint(self):
        code_a, a = soc(5)
        code_b, b = soc(5)
        self.assertEqual((code_a, code_b), (0, 0))
        self.assertEqual(a["fingerprint"], b["fingerprint"])
        self.assertEqual(len(a["fingerprint"]["cycles"]), 2 * run.KERNELS)

    def test_other_seed_keeps_launch_multiset(self):
        _, a = soc(5)
        _, b = soc(6)
        names_a = [l["name"] for l in a["launches"]]
        names_b = [l["name"] for l in b["launches"]]
        self.assertNotEqual(names_a, names_b)  # the seed sets the order
        self.assertEqual(sorted(names_a), sorted(names_b))
        self.assertEqual(len(set(names_a)), run.KERNELS)


class FailedLaunch(unittest.TestCase):
    def test_wrong_golden_counts_failed_launch(self):
        code, d = soc(5, "--wrong-golden", "dot")
        self.assertEqual(code, 1)  # a failure exit, not a crash
        self.assertEqual(d["attempted"], 2 + 2 * run.KERNELS)
        self.assertEqual(d["failed"], 2)
        bad = [l for l in d["launches"] if not l["ok"]]
        self.assertEqual({l["name"] for l in bad}, {"dot"})

    def test_run_py_reports_failure(self):
        r = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", "soc_fast",
                            "--seed", "5", "--seconds", "2", "--wrong-golden", "dot"],
                           capture_output=True, text=True, timeout=170)
        self.assertNotEqual(r.returncode, 0)
        last = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(last["correct"])
        self.assertEqual(last["failed"], 2)


class Compare(unittest.TestCase):
    def report(self, tmp, name, **stamp):
        base = {"nproc": 4, "cpu_model": "cpu", "compiler": "GNU-12", "build_type": "Release",
                "commit": "a", "bench_sha256": "b", "workload": "soc_fast", "seconds": 10,
                "trace": 0}
        base.update(stamp)
        doc = {"stamp": base, "fingerprint": {"cycles": [1]},
               "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_refuses_different_stamps(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = self.report(tmp, "a.json")
            self.assertEqual(run.compare(a, self.report(tmp, "b.json", commit="c")), 0)
            self.assertEqual(run.compare(a, self.report(tmp, "c.json", nproc=1)), 2)
            self.assertEqual(run.compare(a, self.report(tmp, "d.json", build_type="Debug")), 2)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
