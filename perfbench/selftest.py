"""Tests of the benchmark itself: ``python3 perfbench/selftest.py``.

Covers three things: every workload runs at a small size and emits every
metric named in BENCHMARK.json with its unit; an injected wrong answer is
counted as a failure without stopping the run; traced and untraced passes
give identical answers.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCH = json.load(fh)


def small_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Patched:
    """Replace a module attribute for the duration of a with-block."""

    def __init__(self, module, name, value):
        self.module, self.name, self.value = module, name, value

    def __enter__(self):
        self.saved = getattr(self.module, self.name)
        setattr(self.module, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.saved)


class SmallRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in BENCH["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    res = small_run(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(list(res["metrics"]), list(wanted))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], wanted[name])
                        self.assertTrue(math.isfinite(m["value"]))


class InjectedWrongAnswers(unittest.TestCase):
    def test_wrong_membership_counts_on_the_sweep(self):
        from stabtorus import hearts

        real = hearts.heart_membership

        def wrong(E, p, d):
            return (not real(E, p, d)) if p == 1 and E.degrees() == (-1,) else real(E, p, d)

        with Patched(hearts, "heart_membership", wrong):
            out = workloads.sweep(None, workloads.SMALL_SWEEP_MASS)
        self.assertEqual(out["ops"], workloads.SWEEP_EXPECTED[(4, 3)][0])
        self.assertGreater(out["failed"], 0)
        self.assertFalse(out["totals_ok"])

    def test_wrong_and_raising_queries_count(self):
        from stabtorus import walls

        ctx = workloads.PointContext()

        def always_escape(p, gamma, d):
            return walls.WallDecision(None, "twist-escape")

        def broken(*args):
            raise RuntimeError("injected")

        clean = workloads.run_queries(ctx, "5:0", count=300)
        self.assertEqual(clean["failed"], 0)
        with Patched(walls, "boundary_at", always_escape), Patched(walls, "twist_escape", broken):
            out = workloads.run_queries(ctx, "5:0", count=300)
        self.assertEqual(out["ops"], 300)
        # every escape raises; a boundary_at answer is wrong in the wall cells
        # only, so the count lies strictly between these two
        escapes, decisions = out["kinds"]["twist_escape"], out["kinds"]["boundary_at"]
        self.assertGreater(out["failed"], escapes)
        self.assertLess(out["failed"], escapes + decisions)

    def test_wrong_cli_output_counts(self):
        entry = json.loads(json.dumps(next(
            e for e in workloads.load_cli_pool() if e["id"] == "pi1-d5")))
        entry["steps"][0]["stdout"] = "not the output\n"
        deck = run.run_cli_deck([entry])
        self.assertEqual((deck["ops"], deck["failed"]), (1, 1))
        self.assertIsNone(deck["failures"][0]["known_defect"])

    def test_malformed_call_contract(self):
        step = {"expect": "error"}
        envelope = '{"error": {"message": "m", "name": "DomainError"}}\n'
        self.assertTrue(workloads.check_invocation(step, 2, "", envelope)[0])
        self.assertTrue(workloads.check_invocation(step, 1, "", "stabtorus: error: x\n")[0])
        self.assertFalse(workloads.check_invocation(step, 0, "{}", "")[0])
        self.assertFalse(workloads.check_invocation(step, 2, "", "no envelope\n")[0])
        self.assertFalse(workloads.check_invocation(
            step, 1, "", "Traceback (most recent call last):\nKeyError: 'points'\n")[0])


class TracedEqualsUntraced(unittest.TestCase):
    def test_same_answers(self):
        for spec in ({"kind": "sweep", "mass": workloads.SMALL_SWEEP_MASS},
                     {"kind": "queries", "seed": "9:0", "count": 300}):
            with self.subTest(kind=spec["kind"]):
                plain, _, _ = run.spawn(spec)
                traced, _, _ = run.spawn(dict(spec, trace=True))
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreater(traced["trace"]["stored_spans"], 0)
        argv = ["boundary", "--d", "5", "--p", "0", "--gamma", "7/10"]
        plain, _, _ = run.spawn({"kind": "cli", "argv": argv})
        traced, _, _ = run.spawn({"kind": "cli", "argv": argv, "trace": True})
        self.assertEqual((plain["code"], plain["stdout"]), (traced["code"], traced["stdout"]))


if __name__ == "__main__":
    unittest.main()
