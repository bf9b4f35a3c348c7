"""Contract self-tests: BENCHMARK.json agrees with run.py, and every
declared metric is emitted with its unit under a well-formed name.

Run through `python3 stablbench/run.py --selftest` (which also builds and
runs the C++ self-tests), from the root of a source checkout."""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(workload, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def test_matches_run_py(self):
        bench = load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(run.PER_LAYER))

    def test_names_and_units_are_well_formed(self):
        bench = load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in bench["end_to_end"]:
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class EmittedMetrics(unittest.TestCase):
    def check(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m[0] for m in declared})
        for name, unit, *_ in declared:
            self.assertRegex(name, NAME)
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))

    def test_end_to_end(self):
        self.check(run_benchmark("repro_grid", 0), run.END_TO_END)

    def test_per_layer(self):
        self.check(run_benchmark("repro_grid", 1), run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
