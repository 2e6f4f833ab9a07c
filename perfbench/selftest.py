"""The benchmark's own tests, at tiny load (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that planted faults (a perturbed logit, an op that raises) are caught and
counted as failed ops, that a failed check makes the exit code non-zero, and
that the benchmark refuses to run where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._import_package()

from intentmatch import evaluation, model  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@contextlib.contextmanager
def _patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


def _prepared(workload):
    session = run.Session(workload, seed=3, smoke=True)
    session.setup(1)
    session.prepare()
    return session


class EmitsEveryMetric(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in run.WORKLOAD_NAMES:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run.run(workload, seed=3, seconds=0.1, trace=trace, smoke=True)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, _units(kind))
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    if kind == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    if trace:
                        nodes = result["metrics"]["autodiff.tape_nodes_per_step"]["value"]
                        if workload == "train-c4":
                            self.assertGreater(nodes, 0)
                            self.assertEqual(nodes, int(nodes))
                        else:
                            self.assertEqual(nodes, 0)


class CatchesPlantedFaults(unittest.TestCase):
    def test_perturbed_training_logit(self):
        session = _prepared("train-c4")
        self.assertEqual(session.ledger.failed, 0)
        original = model.Model.forward

        def perturbed(self, query, cat_encodings):
            out = original(self, query, cat_encodings)
            out.data[0] += 1e-6
            return out

        try:
            with _patched(model.Model, "forward", perturbed):
                session.drive(0.1)
        finally:
            session.close()
        self.assertGreater(session.ledger.failed, 0)

    def test_cold_and_warm_predict_disagree(self):
        session = _prepared("predict-1q")
        self.assertEqual(session.ledger.failed, 0)
        original = model.Model.forward
        calls = []

        def every_other(self, query, cat_encodings):
            out = original(self, query, cat_encodings)
            calls.append(1)
            if len(calls) % 2:
                out.data[0] += 1e-6
            return out

        try:
            with _patched(model.Model, "forward", every_other):
                session.drive(0.1)
        finally:
            session.close()
        self.assertGreater(session.ledger.failed, 0)

    def test_raising_op(self):
        session = _prepared("eval-wide")
        self.assertEqual(session.ledger.failed, 0)

        def boom(*args, **kwargs):
            raise RuntimeError("planted")

        try:
            with _patched(model.Model, "forward", boom):
                session.drive(0.1)
        finally:
            session.close()
        self.assertEqual(session.ledger.failed, 2 * session.wl.PASS)

    def test_failed_check_exits_nonzero(self):
        def boom(*args, **kwargs):
            raise RuntimeError("planted")

        out = io.StringIO()
        with _patched(evaluation, "evaluate", boom), contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "eval-wide", "--seed", "3", "--seconds", "0.1",
                           "--trace", "0", "--smoke"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("fail_frac", out.getvalue())


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_alone(self):
        bare = run.OUT_DIR / f"selftest-bare-{os.getpid()}"
        try:
            shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "train-c4", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
