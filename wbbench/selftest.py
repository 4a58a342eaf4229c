"""Self-tests of the benchmark itself (not of wbident).

    python3 wbbench/selftest.py          # about a minute

The file name keeps pytest's default collection away from it, so the
repository's own test run is unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import unittest

import workloads as W

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd=W.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "wbbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_and_verdicts(self):
        pool = W.load_pool()
        self.assertEqual(W.sweep_inputs(7, pool), W.sweep_inputs(7, pool))
        self.assertNotEqual(W.sweep_inputs(7, pool), W.sweep_inputs(8, pool))
        ks, xs = W.sweep_inputs(7, pool)
        self.assertEqual(ks[0], 0.0)
        self.assertTrue(all(1e-3 <= k <= 5 for k in ks[1:]))
        self.assertTrue(all(0.25 <= x <= 8 for x in xs))
        self.assertEqual(W.sweep_reference(7, pool), W.sweep_reference(7, pool))

        wb = W.load_wbident()

        def verdicts():
            reps = [wb.verify_identity(wb.OrderParams(n=n, k=k), xs)
                    for n in (0, 5, 24, 25) for k in ks]
            return W.verdicts_of(reps)

        first = verdicts()
        self.assertEqual(first, verdicts())
        ref = [v for v in W.sweep_reference(7, pool) if v.n in (0, 5, 24, 25)]
        self.assertEqual(first, ref)


class Guard(unittest.TestCase):
    def test_untampered_reference_passes(self):
        ref = W.load_suite_reference("suite-default")
        self.assertEqual(W.guard(ref, list(ref)), [])

    def test_fires_on_tampered_suite_reference(self):
        ref = W.load_suite_reference("suite-default")
        observed = list(ref)
        adv = next(i for i, v in enumerate(ref) if v.advisory and not v.passed)
        nonadv = next(i for i, v in enumerate(ref) if not v.advisory and v.passed)
        for i, change in ((adv, {"passed": True}), (nonadv, {"name": "renamed"}),
                          (nonadv, {"k": 9.75}), (adv, {"advisory": False})):
            tampered = list(ref)
            tampered[i] = dataclasses.replace(ref[i], **change)
            self.assertNotEqual(W.guard(tampered, observed), [], change)

    def test_fires_when_a_reference_pass_now_fails(self):
        ref = W.load_suite_reference("suite-default")
        nonadv = next(i for i, v in enumerate(ref) if not v.advisory and v.passed)
        observed = list(ref)
        observed[nonadv] = dataclasses.replace(ref[nonadv], passed=False)
        self.assertNotEqual(W.guard(ref, observed), [])
        self.assertEqual(W.regressions(ref, observed), 1)
        # a reference failure that now passes is an improvement, not a violation
        self.assertEqual(W.guard(observed, ref), [])

    def test_fires_on_tampered_sweep_verdict(self):
        pool = W.load_pool()
        wb = W.load_wbident()
        n, k, x, _ = pool["failing"][0]
        rep = wb.verify_identity(wb.OrderParams(n=n, k=k), [x])
        observed = W.verdicts_of([rep])
        self.assertFalse(observed[0].passed)
        honest = [W.Verdict("identity", n, k, False, False)]
        tampered = [W.Verdict("identity", n, k, False, True)]
        self.assertEqual(W.guard(honest, observed), [])
        self.assertNotEqual(W.guard(tampered, observed), [])


class Output(unittest.TestCase):
    def check_run(self, trace: int, section: str):
        proc = run_bench("--workload", "identity-sweep", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"])
        self.assertGreaterEqual(doc["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(doc["metrics"]), set(declared))
        for name, m in doc["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], declared[name])
            self.assertIsInstance(m["value"], (int, float))
        printed = [ln.split()[0] for ln in lines[1:-1] if ln.startswith("  ")]
        self.assertEqual(set(printed), set(declared))
        for name in printed:
            self.assertRegex(name, NAME)

    def test_end_to_end_metric_names(self):
        self.check_run(0, "end_to_end")

    def test_per_layer_metric_names(self):
        self.check_run(1, "per_layer")

    def test_fails_without_the_program(self):
        bare = W.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(W.HERE, bare / "wbbench",
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(W.ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "suite-default", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Spec(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(W.WORKLOADS))
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
