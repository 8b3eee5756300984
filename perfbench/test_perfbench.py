#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark (through run.py) and check that the metric
names it prints equal the ones BENCHMARK.json and declared.json declare,
that the seed argument reaches every scenario spec, that a violated
conservation check fails the run, and that the benchmark refuses to run
without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
OUT = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
EXE = os.path.join(OUT, "dune", "default", "perfbench", "perfbench.exe")
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def load(path):
    with open(path) as f:
        return json.load(f)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run(args, **kw):
    return subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True, **kw)


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load("BENCHMARK.json")
        cls.declared = load(os.path.join("perfbench", "declared.json"))
        # Building happens on the first run.py call.
        cls.e2e = run(RUN + ["--workload", "sweep-fig8", "--seed", "7", "--seconds", "0.5",
                             "--trace", "0"])
        cls.describe = json.loads(run([EXE, "--describe", "--seed", "12345"]).stdout)

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], name)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_declared_tables_match_benchmark_json(self):
        for key in ("end_to_end", "per_layer"):
            mine = [(m["name"], m["unit"], m["better"]) for m in self.describe[key]]
            theirs = [(m["name"], m["unit"], m["better"]) for m in self.bench[key]]
            self.assertEqual(mine, theirs, key)
        self.assertEqual([m["name"] for m in self.bench["per_layer"]],
                         [m["name"] for m in self.declared["per_layer"]])
        self.assertEqual(sorted(m["name"] for m in self.bench["end_to_end"]),
                         sorted(self.declared["end_to_end"]))

    def test_declared_workloads_match(self):
        gated = [w["name"] for w in self.describe["workloads"] if w["gated"]]
        self.assertEqual([w["name"] for w in self.bench["workloads"]], gated)
        self.assertEqual([w["name"] for w in self.describe["workloads"]],
                         [w["name"] for w in self.declared["workloads"]])
        for mine, decl in zip(self.describe["workloads"], self.declared["workloads"]):
            self.assertEqual(mine["gated"], decl["gated"], mine["name"])
            self.assertEqual(mine["limit_us"], decl["limit_us"], mine["name"])
            if mine["name"] != "sweep-fig8":
                self.assertEqual(mine["spec"], decl["spec"], mine["name"])

    def test_end_to_end_metric_names(self):
        self.assertEqual(self.e2e.returncode, 0, self.e2e.stdout + self.e2e.stderr)
        res = last_json(self.e2e.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]), [m["name"] for m in self.bench["end_to_end"]])
        for m in self.bench["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metric_names(self):
        p = run(RUN + ["--workload", "sweep-fig8", "--seed", "7", "--seconds", "1",
                       "--trace", "1"])
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        res = last_json(p.stdout)
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]), [m["name"] for m in self.bench["per_layer"]])
        self.assertIn("check traced: conservation (every point)", p.stdout.replace("  ", " "))
        spans = [f for f in os.listdir(os.path.join(OUT, "perfbench"))
                 if f.startswith("spans-sweep-fig8-seed7")]
        self.assertTrue(spans)

    def test_seed_reaches_every_spec(self):
        other = json.loads(run([EXE, "--describe", "--seed", "777"]).stdout)
        for a, b in zip(self.describe["workloads"], other["workloads"]):
            self.assertTrue(a["specs"], a["name"])
            # The first spec of every workload carries the seed itself;
            # the rest carry seeds derived from it.
            self.assertIn("seed=12345", a["specs"][0])
            self.assertIn("seed=777", b["specs"][0])
            for sa, sb in zip(a["specs"], b["specs"]):
                seed_a = re.findall(r"seed=(-?\d+)", sa)
                seed_b = re.findall(r"seed=(-?\d+)", sb)
                self.assertEqual(len(seed_a), 1, sa)
                self.assertNotEqual(seed_a, seed_b)
                self.assertEqual(re.sub(r"seed=-?\d+", "", sa), re.sub(r"seed=-?\d+", "", sb))

    def test_conservation_violation_fails(self):
        p = run([EXE, "--workload", "sweep-fig8", "--seed", "7", "--seconds", "0.5",
                 "--trace", "0", "--ledger-error", "1"])
        self.assertEqual(p.returncode, 1, p.stdout)
        res = last_json(p.stdout)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("conservation (every point)                   FAILED", p.stdout)

    def test_refuses_without_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(RUN + ["--workload", "rt-bimodal", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
