#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They check that each workload's result digest repeats exactly across runs
and thread counts and changes with the seed, and that run.py prints the
metrics BENCHMARK.json names, with their units, for both run kinds. The
digests come from short normal runs, so every correctness gate runs too.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()
DIGESTS = {"explore": ["sweep"], "sampled": ["campaign"],
           "submit": ["round0_cold", "round0_warm"]}


def digest_run(binary, workload, seed, threads):
    with tempfile.TemporaryDirectory(dir=run.build_dir(ROOT)) as tmp:
        out = os.path.join(tmp, "result.json")
        subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0",
                        "--threads", str(threads), "--out", out,
                        "--workdir", os.path.join(tmp, "work")],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            result = json.load(f)
    assert result["correct"] and result["failed"] == 0, result["detail"]["failures"]
    return {k: result["detail"]["digests"][k] for k in DIGESTS[workload]}


class DigestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(ROOT)
        cls.nproc = len(os.sched_getaffinity(0))

    def check_workload(self, workload):
        # submit's --threads is per worker, and it runs two workers.
        many = max(1, self.nproc // 2) if workload == "submit" else self.nproc
        base = digest_run(self.binary, workload, 7, 1)
        self.assertEqual(base, digest_run(self.binary, workload, 7, 1))
        self.assertEqual(base, digest_run(self.binary, workload, 7, many))
        self.assertNotEqual(base, digest_run(self.binary, workload, 8, 1))
        self.assertEqual(len(set(base.values())), 1)

    def test_explore(self):
        self.check_workload("explore")

    def test_sampled(self):
        self.check_workload("sampled")

    def test_submit(self):
        self.check_workload("submit")


class OutputTest(unittest.TestCase):
    def test_result_lines_match_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for w in spec["workloads"]:
                proc = subprocess.run(
                    [sys.executable, os.path.join("perfbench", "run.py"),
                     "--workload", w["name"], "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)],
                    check=True, capture_output=True, text=True)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreater(last["attempted"], 0)
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                self.assertEqual(got, want)
                if trace == 0:
                    for name, m in last["metrics"].items():
                        self.assertGreater(m["value"], 0, (w["name"], name))


if __name__ == "__main__":
    unittest.main()
