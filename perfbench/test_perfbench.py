#!/usr/bin/env python3
"""Self-test of the compile benchmark on a tiny draw.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as perfbench/run.py does) and checks that:
  - the same seed gives the same draw and another seed another draw;
  - the default cold and warm draws take the cells they document;
  - every end-to-end and per-layer metric named in BENCHMARK.json is
    printed, with its unit, in the last stdout line;
  - a child that dies on a signal is reported with its kernel, target
    and signal, counted as failed, and leaves no work directory behind.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

# The matmul cells on x86 (256 and 512 bits) keep every run to seconds.
TINY = ["--cells", "0,2"]


def bench(*args, work_dir):
    proc = subprocess.run([run.BINARY, *args, "--work-dir", work_dir],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = os.path.join(run.BUILD_DIR, "selftest-work")
        shutil.rmtree(cls.work, ignore_errors=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def draw(self, seed, workload="mixed", cells=()):
        proc = bench("--workload", workload, "--seed", str(seed),
                     "--print-draw", *cells, work_dir=self.work)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return [line for line in proc.stdout.splitlines()
                if line.strip().startswith("draw ")]

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assertNoWorkDirs(self):
        left = os.listdir(self.work) if os.path.isdir(self.work) else []
        self.assertEqual([d for d in left if d.startswith("run.")], [])

    def test_draw_is_seeded(self):
        self.assertEqual(self.draw(7), self.draw(7))
        self.assertNotEqual(self.draw(7), self.draw(8))
        self.assertTrue(self.draw(7))

    def test_default_draws(self):
        # cold: one kernel per cell; warm: both matmul kernels on x86
        # 256 (the median's cluster), none from the gaussian cell.
        cold = self.draw(9, "cold")
        self.assertEqual(len(cold), 7)
        warm = [line.split()[1] for line in self.draw(9, "warm")]
        self.assertEqual(len(warm), 6)
        self.assertEqual(sorted(t.split("/")[0] for t in warm
                                if "/x86256/" in t),
                         ["matmul_b1", "matmul_b2"])
        self.assertFalse([t for t in warm if t.startswith("gaussian")])

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in ("cold", "warm", "mixed"):
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", *TINY,
                             work_dir=self.work)
                out = self.result(proc)
                self.assertEqual(set(out),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(set(out["metrics"]),
                                 set(declared("end_to_end")))
                for name, unit in declared("end_to_end").items():
                    self.assertEqual(out["metrics"][name]["unit"], unit)
                # Printed in the report, left out of the JSON line.
                self.assertIn("compile_ms.tail", proc.stdout)
                self.assertIn("synthesis options: timeout_seconds=2",
                              proc.stdout)
                self.assertNoWorkDirs()

    def test_per_layer_metrics_printed_with_units(self):
        proc = bench("--workload", "mixed", "--seed", "3", "--seconds", "2",
                     "--trace", "1", *TINY, work_dir=self.work)
        out = self.result(proc)
        self.assertEqual(set(out["metrics"]), set(declared("per_layer")))
        for name, unit in declared("per_layer").items():
            self.assertEqual(out["metrics"][name]["unit"], unit)
        self.assertGreater(out["metrics"]["specs.instructions"]["value"], 0)
        self.assertIn("self_ms", proc.stdout)
        with open(os.path.join(self.work, "spans-mixed-seed3.json")) as f:
            spans = json.load(f)
        names = {s["name"] for s in spans}
        self.assertLessEqual({"specs.semantics", "driver.kernel",
                              "driver.window", "synthesis.cache.lookup"},
                             names)
        kernels = {(s["kernel"], s["id"]) for s in spans
                   if s["name"] == "driver.kernel"}
        for span in spans:
            if span["name"] == "driver.window":
                self.assertIn((span["kernel"], span["parent"]), kernels)
        self.assertNoWorkDirs()

    def test_child_crash_is_a_counted_failure(self):
        proc = bench("--workload", "warm", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--inject-crash", "0", *TINY,
                     work_dir=self.work)
        out = self.result(proc)
        self.assertGreaterEqual(out["failed"], 1)
        self.assertLess(out["metrics"]["success_share"]["value"], 1.0)
        first = self.draw(5, "warm", TINY)[0].split()[1].split("/")
        self.assertIn("%s on %s: signal 11" % (first[0], first[1]),
                      proc.stdout)
        self.assertNoWorkDirs()


if __name__ == "__main__":
    unittest.main()
