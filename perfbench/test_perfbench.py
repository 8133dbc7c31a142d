#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes (k=16, l=4, --seconds 1).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that every workload
prints every metric with its unit, that the seed changes the inputs and the
result digest but not the set of metrics, that a corrupted makespan fails
the run, and that run.py fails cleanly where the library sources are absent.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCRATCH = Path(".bench_build") / "selftest"


def bench(workload, seed, trace, *extra):
    """Runs the built binary at tiny sizes; returns (exit code, meta, result)."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--workdir", str(SCRATCH),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return proc.returncode, meta, json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() != 0:
            raise RuntimeError("perfbench build failed")
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def assert_metrics(self, result, expected):
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for workload in self.workloads:
            with self.subTest(workload=workload, trace=0):
                code, meta, result = bench(workload, 1, 0)
                self.assertEqual(code, 0)
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertEqual(result["attempted"], meta["ops"])
                self.assert_metrics(result, self.end_to_end)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                for key in ("host", "seed", "ops", "digest", "inputs", "tail"):
                    self.assertIn(key, meta)
                self.assertEqual(meta["tail"]["samples"], meta["ops"])
            with self.subTest(workload=workload, trace=1):
                code, meta, result = bench(workload, 1, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assert_metrics(result, self.per_layer)

    def test_seed_changes_inputs_and_digest_not_metrics(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, first, r1 = bench(workload, 1, 0)
                _, again, _ = bench(workload, 1, 0)
                _, other, r2 = bench(workload, 2, 0)
                self.assertEqual((first["inputs"], first["digest"]),
                                 (again["inputs"], again["digest"]))
                self.assertNotEqual(first["inputs"], other["inputs"])
                self.assertNotEqual(first["digest"], other["digest"])
                self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))

    def test_corrupted_makespan_fails_the_run(self):
        # The last op, not op 0: the campaign re-solves the last cell of
        # each engine, after every other cell has run.
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, meta, _ = bench(workload, 1, 0)
                last = str(meta["ops"] - 1)
                code, _, result = bench(workload, 1, 0, "--corrupt-op", last)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_run_fails_without_the_library_sources(self):
        bare = run.ROOT / SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign-equal-evals",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
