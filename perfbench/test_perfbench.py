"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
run.WORK.mkdir(exist_ok=True)

import corpus  # noqa: E402
import speed  # noqa: E402
from rho_bounds import is_connected, parse_graph6  # noqa: E402


def smoke(name: str) -> run.Workload:
    return run.workload(name, smoke=True)


def printed_metrics(text: str) -> dict[str, str]:
    """name -> unit, from the 'name value unit' lines of a run's output."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            found[parts[0]] = parts[2]
    return found


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class MetricsPrinted(unittest.TestCase):
    def check_mode(self, trace: str, spec) -> None:
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "5", "--seconds", "0",
                             "--trace", trace, "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                printed = printed_metrics(proc.stdout)
                for metric in spec:
                    self.assertEqual(printed.get(metric[0]), metric[1], metric[0])
                line = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
                self.assertEqual((line["correct"], line["failed"]), (True, 0))
                self.assertEqual(sorted(line["metrics"]), sorted(m[0] for m in spec))
                self.assertIn("failed_share 0.0 ", proc.stdout)

    def test_end_to_end(self):
        self.check_mode("0", run.END_TO_END)

    def test_per_layer(self):
        self.check_mode("1", run.PER_LAYER)


class FailuresShow(unittest.TestCase):
    def test_corrupted_reference_shows_as_failed_runs(self):
        for corrupt in ("digest", "count"):
            for name in run.WORKLOADS:
                with self.subTest(corrupt=corrupt, workload=name):
                    result = run.measure_end_to_end(smoke(name), 1, 0, corrupt=corrupt)
                    self.assertFalse(result.correct)
                    self.assertGreater(result.failed / result.attempted, 0)

    def test_corrupted_reference_fails_traced_run(self):
        result = run.measure_layers(smoke("corpus-mid"), 1, 0, corrupt="digest")
        self.assertFalse(result.correct)
        self.assertGreater(result.failed, 0)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "enum-n6", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_spec(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            self.assertEqual(json.load(fh), run.manifest())

    def test_names_units_and_bounds_within_limits(self):
        m = run.manifest()
        metrics = m["end_to_end"] + m["per_layer"]
        names = [w["name"] for w in m["workloads"]] + [x["name"] for x in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for x in metrics:
            self.assertRegex(x["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(x["bound"] for x in m["end_to_end"]))
        self.assertTrue(all(0 < x["bound"] <= 0.25 for x in m["end_to_end"]))


class HostSpeed(unittest.TestCase):
    def test_sampler_times_the_kernel_inside_the_interval(self):
        with speed.Sampler() as sampler:
            started = time.perf_counter()
            time.sleep(3 * speed.PERIOD_S)
            ended = time.perf_counter()
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertTrue(all(took > 0 for _, took in sampler.samples))
        self.assertGreater(sampler.slowdown(started, ended), 0)
        # an interval without samples falls back to all of them
        self.assertEqual(sampler.slowdown(ended + 10, ended + 20), sampler.slowdown())

    def test_workload_cpus_restores_the_affinity(self):
        home = os.sched_getaffinity(0)
        with speed.workload_cpus(1) as cpus:
            self.assertEqual(os.sched_getaffinity(0), set(cpus))
            self.assertEqual(len(cpus), 1)
        self.assertEqual(os.sched_getaffinity(0), home)


class Corpora(unittest.TestCase):
    def test_seeded_and_connected(self):
        for make in (corpus.corpus_mid, corpus.n7_sample):
            with self.subTest(make=make.__name__):
                first = make(3, 20)
                self.assertEqual(first, make(3, 20))
                self.assertNotEqual(first, make(4, 20))
                self.assertTrue(all(is_connected(parse_graph6(g)) for g in first))

    def test_corpus_mid_never_reaches_the_charpoly_oracle(self):
        sizes = [parse_graph6(g).n for g in corpus.corpus_mid(1, 50)]
        self.assertGreaterEqual(min(sizes), 13)
        self.assertLessEqual(max(sizes), 120)


if __name__ == "__main__":
    unittest.main()
