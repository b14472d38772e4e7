#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a jitstream checkout:

    python3 perfbench/selftest.py

A tiny-extent smoke run of every workload must pass, traced and untraced;
a tampered ``run.csv`` and a tampered prediction frame must each fail the
output checks; the benchmark must refuse a directory without the program.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.WORK / f"selftest-{os.getpid()}"


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170, check=False)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def tiny_round(name: str, tag: str):
    prepared = workloads.prepare(name, 3, SCRATCH / tag / "input", "tiny")
    out = SCRATCH / tag / "out"
    assert harness.run_round(prepared.config, out, prepared.save_predictions).rc == 0
    return prepared, out


class TestDeclaration(unittest.TestCase):
    def test_benchmark_json_names_what_the_code_reports(self):
        declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.NAMES))


class TestSmoke(unittest.TestCase):
    def test_every_workload_at_tiny_extent(self):
        for name in workloads.NAMES:
            for trace, names in ((0, dict(run.END_TO_END)),
                                 (1, {m for m, _, _ in spans.PER_LAYER})):
                with self.subTest(workload=name, trace=trace):
                    rc, lines, err = bench("--workload", name, "--seed", "3",
                                           "--seconds", "1", "--trace", str(trace),
                                           "--extent", "tiny")
                    self.assertEqual(rc, 0, err)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(names))

    def test_refuses_a_directory_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "bundled-oracle", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestTamper(unittest.TestCase):
    def test_untouched_outputs_pass(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                prepared, out = tiny_round(name, f"clean-{name}")
                self.assertEqual(checks.check_round(out, prepared), [])

    def test_tampered_run_csv_fails(self):
        prepared, out = tiny_round("bundled-oracle", "csv")
        original = (out / "run.csv").read_text(encoding="utf-8")
        lines = original.splitlines()
        edits = {
            "inference frame marked as teacher": (2, lambda f: f[:1] + ["1"] + f[2:]),
            "stride after a check": (1, lambda f: f[:5] + [str(int(f[5]) * 4)]),
            "updates beyond u_max": (1, lambda f: f[:2] + ["99"] + f[3:]),
            "evaluation score": (5, lambda f: f[:4] + ["0.123456"] + f[5:]),
        }
        for label, (row, edit) in edits.items():
            with self.subTest(edit=label):
                tampered = list(lines)
                tampered[row] = ",".join(edit(tampered[row].split(",")))
                (out / "run.csv").write_text("\n".join(tampered) + "\n", encoding="utf-8")
                self.assertNotEqual(checks.check_round(out, prepared), [])
        (out / "run.csv").write_text(original, encoding="utf-8")
        self.assertEqual(checks.check_round(out, prepared), [])

    def test_tampered_prediction_frame_fails(self):
        prepared, out = tiny_round("recorded-360p", "pred")
        path = out / "predictions.lvss"
        blob = bytearray(path.read_bytes())
        h, w = workloads.RECORDED_HW["tiny"]
        frame = 5
        start = workloads.LVSS_HEADER.size + frame * h * w
        for i in range(start, start + h * w // 3):
            blob[i] = (blob[i] + 1) % workloads.RECORDED_CLASSES
        path.write_bytes(bytes(blob))
        problems = checks.check_round(out, prepared)
        self.assertTrue(any(p.startswith(f"frame {frame}:") for p in problems), problems)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    if not (run.PROGRAM / "cli.py").is_file():
        sys.exit("selftest: run from the root of a jitstream checkout")
    unittest.main()
