"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

LIGHT = run.SETUP_CALL


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.runner = run.Runner(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class MetricNames(BenchTestCase):
    def test_every_metric_for_every_workload(self):
        end_to_end = declared_metrics("end_to_end")
        per_layer = declared_metrics("per_layer")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = {w["name"] for w in json.load(fh)["workloads"]}
        self.assertEqual(names, set(workloads.WORKLOADS))
        for name in sorted(names):
            with self.subTest(workload=name):
                calls = workloads.build(name, 7, self.runner.reference)
                self.assertTrue(calls)
                # The metric set does not depend on the call list, so one
                # light call stands in for the heavy ones here.
                for trace, declared in ((False, end_to_end), (True, per_layer)):
                    metrics, _ = run.measure(self.runner, [LIGHT], 0, trace)
                    self.assertEqual(
                        {k: unit for k, (_, unit) in metrics.items()}, declared)
        self.assertEqual(self.runner.failed, 0)

    def test_seed_chooses_only_light_calls(self):
        a = workloads.build("cli-short", 1, self.runner.reference)
        b = workloads.build("cli-short", 1, self.runner.reference)
        c = workloads.build("cli-short", 2, self.runner.reference)
        self.assertEqual([x.argv for x in a], [x.argv for x in b])
        self.assertNotEqual([x.argv for x in a], [x.argv for x in c])
        for name in ("verify-characters", "verify-oracle", "compute-qanalogue"):
            self.assertEqual(
                [x.argv for x in workloads.build(name, 1, self.runner.reference)],
                [x.argv for x in workloads.build(name, 2, self.runner.reference)])


class Checks(BenchTestCase):
    F4_ADJOINT = ("compute", "lusztig", "--type", "F", "--rank", "4",
                  "--weight", "1,0,0,0")

    def test_correct_expected_value_passes(self):
        call = workloads.Call(self.F4_ADJOINT, workloads.poly_equals(
            "text", workloads.exponents(1, 5, 7, 11)))
        self.assertIsNone(self.runner.invoke(call).error)
        self.assertEqual(self.runner.failed, 0)

    def test_corrupted_expected_value_is_a_failure(self):
        corrupted = [
            workloads.Call(self.F4_ADJOINT, workloads.poly_equals(
                "text", workloads.exponents(1, 5, 7, 13))),
            workloads.Call(self.F4_ADJOINT, workloads.poly_equals(
                "text", workloads.exponents(1, 5, 7, 11)), expect_rc=3),
            workloads.Call(("compute", "truncsym", "--n", "2", "--m", "2"),
                           workloads.poly_value_at_1("text", 7, "C(4, 2)")),
        ]
        for call in corrupted:
            self.assertIsNotNone(self.runner.invoke(call).error)
        self.assertEqual(self.runner.failed, len(corrupted))
        self.assertEqual(self.runner.attempted, len(corrupted))

    def test_recorded_check_count_is_enforced(self):
        check = workloads.verify_check("truncsym")
        self.assertIsNone(check("PASS x\n64/64 checks passed\n"))
        self.assertIsNotNone(check("FAIL x\n63/64 checks passed\n"))
        self.assertIsNotNone(check("PASS x\n65/65 checks passed\n"))

    def test_output_formats_parse_alike(self):
        self.assertEqual(workloads.parse_poly("(1 + q)(1 + q^2)\n", "text"),
                         [1, 1, 1, 1])
        self.assertEqual(workloads.parse_poly(
            '{"coefficients": ["1", "0", "2"], "variable": "q"}', "json"),
            [1, 0, 2])
        self.assertEqual(workloads.parse_poly(
            "exponent,coefficient\n0,1\n1,0\n2,2\n", "csv"), [1, 0, 2])
        self.assertEqual(workloads.parse_series(
            "(1 + q^2) / (1 - q^2)(1 - q^3)\n", "text"), ([1, 0, 1], [2, 3]))
        self.assertIsNotNone(workloads.poly_equals("text", [1])("import os"))


class Shim(unittest.TestCase):
    def _python(self, code):
        env = run.child_env()
        env["PYTHONPATH"] = os.pathsep.join([run.SRC, BENCH])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout)

    def test_names_bound_by_from_import_are_wrapped(self):
        unwrapped = self._python(
            "import inspect, json, sys, shim\n"
            "shim.install(shim.Recorder())\n"
            "layers = {'spindle.' + l for l in shim.LAYERS}\n"
            "bad = []\n"
            "for modname, mod in list(sys.modules.items()):\n"
            "    if not modname.startswith('spindle'):\n"
            "        continue\n"
            "    for name, obj in vars(mod).items():\n"
            "        if (inspect.isfunction(obj) and not name.startswith('_')\n"
            "                and obj.__module__ in layers\n"
            "                and not hasattr(obj, '__perfbench_layer__')):\n"
            "            bad.append(modname + '.' + name)\n"
            "import spindle.dynkin as d, spindle.verify as v, spindle.cli as c\n"
            "for f in (d.t_poly, v.build_root_system, c.build_root_system):\n"
            "    if not hasattr(f, '__perfbench_layer__'):\n"
            "        bad.append(f.__qualname__)\n"
            "print(json.dumps(bad))\n")
        self.assertEqual(unwrapped, [])

    def test_traced_call_records_layers(self):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            runner = run.Runner(tmp)
            # cli reaches build_root_system only through its from-import.
            out = runner.invoke(LIGHT, trace=True)
            self.assertIsNone(out.error)
            self.assertEqual(out.trace["counts"]["rootsystem.builds"], 1)
            # truncsym reaches dynkin_product only through its from-import.
            out = runner.invoke(workloads.Call(
                ("verify", "truncsym"), workloads.verify_check("truncsym")),
                trace=True)
            self.assertIsNone(out.error)
            counts = out.trace["counts"]
            self.assertGreater(counts["dynkin.calls.dynkin_product"], 0)
            self.assertEqual(counts["verify.checks"], 64)
            self.assertGreater(out.trace["self_s"]["truncsym"], 0)


if __name__ == "__main__":
    unittest.main()
