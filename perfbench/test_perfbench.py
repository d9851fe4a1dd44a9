#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of a checkout (builds the benchmark on first use):

  python3 perfbench/test_perfbench.py

- The traced run's exact counts: barrier calls per committed op equal what
  ObjectParams implies (90 reads / 30 writes on the hot view, 215 / 59 on
  the cold view) and every view keeps its fixed quota, identically on two
  seeds.
- Every workload's output checks pass, in both modes.
- BENCHMARK.json's per-layer list is exactly what the workloads measure.
- Without the library sources the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"

EXACT = {
    "eigen-tm": {"stm.reads_per_op.hot": 90, "stm.writes_per_op.hot": 30,
                 "stm.reads_per_op.cold": 215, "stm.writes_per_op.cold": 59,
                 "rac.quota.hot": 4, "rac.quota.cold": 4},
    "eigen-lock": {"stm.reads_per_op.hot": 90, "stm.writes_per_op.hot": 30,
                   "stm.reads_per_op.cold": 215,
                   "stm.writes_per_op.cold": 59,
                   "rac.quota.hot": 1, "rac.quota.cold": 4},
    "intruder": {"rac.quota.queue": 4, "rac.quota.dict": 4},
}


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


def result(workload, seed, trace):
    out = run(workload, seed, trace)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def setUpModule():
    sys.path.insert(0, str(HERE))
    import run as bench_run
    bench_run.build()


class TracedRun(unittest.TestCase):
    def test_exact_counts_repeat(self):
        for workload, expected in EXACT.items():
            with self.subTest(workload=workload):
                runs = [result(workload, seed, 1) for seed in (5, 6)]
                for r in runs:
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                    got = {k: r["metrics"][k]["value"] for k in expected}
                    self.assertEqual(got, expected)

    def test_per_layer_names_match_spec(self):
        measured = set()
        for workload in EXACT:
            out = subprocess.run(
                [str(BINARY), "--workload", workload, "--seed", "1",
                 "--seconds", "0.5", "--trace", "1"],
                capture_output=True, text=True, timeout=120, check=True)
            measured |= set(json.loads(out.stdout.splitlines()[-1])
                            ["metrics"])
        self.assertEqual(measured, {m["name"] for m in SPEC["per_layer"]})


class UntracedRun(unittest.TestCase):
    def test_checks_pass_and_metrics_are_positive(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result(w["name"], 7, 0)
                self.assertTrue(r["correct"], r)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0)


class StrippedCheckout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        tmp = ROOT / ".bench_build" / "stripped"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, tmp / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run("eigen-tm", 1, 0, cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
