#!/usr/bin/env python3
"""Smoke-scale self-tests of lvpbench (README.md, "Self-tests").

    python3 lvpbench/selftest.py

Run from the repository root. Builds through run.py, then checks:
every named metric is present with its unit on every workload, traced
and untraced runs give identical counts, a corrupted reference is
reported as failed, malformed arguments exit 2, and a directory that
holds only the benchmark exits non-zero without printing a result.
Scratch files go under .bench_build/selftest. Exit 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
SCRATCH = os.path.join(".bench_build", "selftest")
BINARY = os.path.join(".bench_build", "lvpbench", "lvpbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("suite_detailed", "sweep_warm", "sampled_cold")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, reference=REFERENCE, seed="1"):
    """Run the binary at smoke scale; return (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", seed,
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
           "--reference", reference]
    p = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        # Build through run.py with a real one-second run, so a build
        # failure shows up as a non-zero exit here.
        p = subprocess.run(RUN + ["--workload", "suite_detailed",
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"],
                           stdout=subprocess.DEVNULL)
        assert p.returncode == 0, "run.py failed"

    def test_every_metric_present_with_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, res = bench(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"], (workload, trace))
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                self.assertEqual(set(res["metrics"]), set(want),
                                 (workload, trace))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], want[name], name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_traced_counts_equal_untraced(self):
        # With no stored reference every repetition is compared with
        # the first, which is untraced; traced repetitions alternate
        # with untraced ones, so a pass means identical counters.
        empty = os.path.join(SCRATCH, "empty.json")
        with open(empty, "w") as f:
            f.write("{}\n")
        for workload in WORKLOADS:
            code, res = bench(workload, 1, reference=empty)
            self.assertEqual(code, 0)
            self.assertTrue(res["correct"], workload)
            self.assertEqual(res["failed"], 0, workload)

    def test_corrupted_reference_fails(self):
        with open(REFERENCE) as f:
            doc = json.load(f)
        sums = doc["scales"]["smoke"]["1"]["suite_detailed"]
        key = sorted(sums)[0]
        sums[key] = "%016x" % (int(sums[key], 16) ^ 1)
        bad = os.path.join(SCRATCH, "corrupted.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        code, res = bench("suite_detailed", 0, reference=bad)
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["failed"], res["attempted"])

    def test_malformed_arguments_exit_2(self):
        good = {"--workload": "suite_detailed", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        bad = [("--seed", "-1"), ("--seed", "+1"), ("--seed", "1x"),
               ("--seed", ""), ("--seed", "18446744073709551616"),
               ("--seconds", "0"), ("--seconds", "99999999999999999999"),
               ("--trace", "2"), ("--workload", "nope")]
        for flag, value in bad:
            args = dict(good, **{flag: value})
            argv = [x for kv in args.items() for x in kv]
            p = subprocess.run(RUN + argv, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            self.assertEqual(p.returncode, 2, (flag, value))
            self.assertEqual(p.stdout, b"", (flag, value))
        for argv in (["--workload", "suite_detailed"],
                     ["--regen", "--seeds", "1,-2"],
                     ["--regen", "--seeds", "1", "--seed", "1"]):
            p = subprocess.run(RUN + argv, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            self.assertEqual(p.returncode, 2, argv)

    def test_benchmark_alone_fails_cleanly(self):
        alone = os.path.abspath(os.path.join(SCRATCH, "alone"))
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        self.addCleanup(shutil.rmtree, alone, True)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(BENCH_DIR, os.path.join(alone, "lvpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "lvpbench/run.py",
                            "--workload", "suite_detailed", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=alone, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, b"")


if __name__ == "__main__":
    unittest.main(verbosity=2)
