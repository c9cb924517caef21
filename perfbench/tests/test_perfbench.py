"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark (as perfbench/run.py does), run the C++ self-test,
check that the binary's metric catalog is exactly BENCHMARK.json's, run
every workload briefly with tracing off and on to check that every metric
is emitted with its unit and a finite value (perfbench refuses to print a
result with a catalogued metric unset or not finite), and check that a
perturbed stored reference makes the analyze and search runs fail.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

GATED = ["analyze_mix", "simulate_replicated"]
# Run and check like the others; BENCHMARK.json does not list them.
UNGATED = ["search_portfolio", "serve_mixed"]


def setUpModule():
    global BUILD
    os.chdir(ROOT)
    BUILD = run.build(("perfbench", "perfbench_selftest"))


def run_bench(*args, reference=None):
    command = [os.path.join(BUILD, "perfbench"), *args,
               "--reference",
               reference or os.path.join(BENCH_DIR, "reference.txt"),
               "--out-dir", os.path.join(BUILD, "perfbench-out")]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}: "
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class CatalogTest(unittest.TestCase):
    def test_selftest_passes(self):
        done = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_catalog_matches_benchmark_json(self):
        done = subprocess.run([os.path.join(BUILD, "perfbench"),
                               "--list-metrics"],
                              capture_output=True, text=True, check=True)
        catalog = json.loads(done.stdout)
        spec = benchmark_json()
        for section in ("end_to_end", "per_layer"):
            declared = [{k: m[k] for k in ("name", "unit", "better")}
                        for m in spec[section]]
            self.assertEqual(declared, catalog[section], section)
        self.assertEqual([w["name"] for w in spec["workloads"]], GATED)
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)


class EmissionTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = benchmark_json()
        section = "per_layer" if trace else "end_to_end"
        result = run_bench("--workload", workload, "--seed", "3",
                           "--seconds", "0.5", "--trace", str(int(trace)))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        if workload in GATED or not trace:
            self.assertEqual([m["name"] for m in spec[section]],
                             list(result["metrics"]))
            for metric in spec[section]:
                emitted = result["metrics"][metric["name"]]
                self.assertEqual(emitted["unit"], metric["unit"],
                                 metric["name"])
        # Traced runs of the ungated workloads report their own layers.
        self.assertTrue(result["metrics"])
        for name, emitted in result["metrics"].items():
            self.assertTrue(emitted["unit"], name)
            self.assertTrue(math.isfinite(emitted["value"]), name)
            if not trace:
                self.assertGreater(emitted["value"], 0, name)
        return result

    def test_every_workload_emits_every_metric(self):
        for workload in GATED + UNGATED:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_unknown_flag_fails_without_a_result(self):
        done = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", "analyze_mix",
             "--threads", "1"], capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class PlantedReferenceTest(unittest.TestCase):
    def test_perturbed_reference_fails_the_run(self):
        path = os.path.join(BUILD, "perturbed_reference.txt")
        with open(os.path.join(BENCH_DIR, "reference.txt")) as f:
            lines = f.read().splitlines()
        with open(path, "w") as out:
            for line in lines:
                fields = line.split()
                if line.startswith("#") or len(fields) != 5:
                    out.write(line + "\n")
                    continue
                # Raise every stored answer by 1%: analyze results no longer
                # agree, and every search score falls below its reference.
                fields[3] = repr(float(fields[3]) * 1.01)
                fields[4] = repr(float(fields[4]) * 1.01)
                out.write(" ".join(fields) + "\n")
        for workload in ("analyze_mix", "search_portfolio"):
            with self.subTest(workload=workload):
                result = run_bench("--workload", workload, "--seed", "3",
                                   "--seconds", "0.5", "--trace", "0",
                                   reference=path)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
