"""Self-test of the benchmark at toy size.

    python3 -m pytest bench/test_bench.py -q

Covers the input generator's determinism, each output check firing on a
deliberately corrupted output, the span self-time arithmetic and the
arithmetic of the reported op metrics.
"""

import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import run  # noqa: E402
from cases import Op, Workload  # noqa: E402
from checks import DRIFT_BOUND, Checker  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

import nijflow.cli  # noqa: E402

STRUCTURE = ("n", "grid", "integrator", "pde")


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_bytes(self):
        for name in cases.WORKLOADS:
            a, b = cases.make_workload(name, 7), cases.make_workload(name, 7)
            self.assertEqual(
                {k: cases.config_bytes(c) for k, c in a.configs.items()},
                {k: cases.config_bytes(c) for k, c in b.configs.items()})
            self.assertEqual(a.cycle, b.cycle)

    def test_seed_varies_only_coefficients_and_points(self):
        for name in cases.WORKLOADS:
            a, b = cases.make_workload(name, 7), cases.make_workload(name, 8)
            self.assertEqual(a.cycle, b.cycle)
            self.assertEqual(a.facts, b.facts)
            self.assertNotEqual(a.configs, b.configs)
            for case in a.configs:
                for key in STRUCTURE:
                    self.assertEqual(a.configs[case].get(key),
                                     b.configs[case].get(key))
                self.assertEqual(len(a.configs[case]["sigma"]),
                                 len(b.configs[case]["sigma"]))

    def test_expected_exit_codes(self):
        certify = cases.make_workload("certify", 3)
        expected = {(op.command, op.case): op.expect_exit
                    for op in certify.cycle}
        self.assertEqual(expected[("verify", "obstructed5")], 1)
        self.assertEqual(expected[("build-metric", "obstructed5")], 0)
        self.assertEqual(expected[("verify", "curved4")], 0)

    def test_translation_is_a_shift(self):
        self.assertEqual(cases.translate(["u2 - 1/2*u1^2"], ["3/7", "-2/7"]),
                         ["(u2 - 2/7) - 1/2*(u1 + 3/7)^2"])


TOY = {
    "curved2": {"name": "curved2", "n": 2, "sigma": list(cases.CURVED[:2]),
                "seed": 5,
                "initial": {"u": [0.1, -0.2], "p": [0.8, 0.5]},
                "grid": {"x": {"start": -0.1, "stop": 0.1, "count": 11},
                         "t": [{"start": 0.0, "stop": 0.05, "count": 6}]},
                "integrator": {"method": "rk45"}},
    "obstructed2": {"name": "obstructed2", "n": 2, "sigma": ["u1", "u2"],
                    "seed": 5},
    "direct": {"name": "direct", "n": 2, "sigma": list(cases.CURVED[:2]),
               "initial": {"u": [0.1, -0.2], "p": [0.8, 2.5]},
               "grid": {"x": {"start": -1.5, "stop": 1.5, "count": 121}},
               "integrator": {"method": "rk45", "abs_tol": 1e-13,
                              "rel_tol": 1e-12},
               "pde": {"t_end": 0.05, "cfl": 0.4}},
}
TOY_FACTS = {"curved2": {"n": 2, "verdict": "pass", "shape": [11, 6]},
             "obstructed2": {"n": 2, "verdict": "fail"},
             "direct": {"dx": 0.025}}


class ChecksTest(unittest.TestCase):
    """Each check passes on the real output and fires on a corrupted one."""

    def setUp(self):
        self.workdir = HERE.parent / ".bench_out" / f"test-{id(self)}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = Workload("toy", TOY, (), TOY_FACTS)
        cases.write_configs(self.workload, self.workdir)
        self.runner = run.Runner(nijflow.cli.main,
                                 Checker(self.workload, self.workdir),
                                 self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fresh_checker(self):
        return Checker(self.workload, self.workdir)

    def op(self, command, case, expect=0):
        op = Op(command, case, expect)
        rc, _, stdout = self.runner.execute(op)
        return op, rc, stdout

    def assertFires(self, checker, op, rc, stdout, needle, kind="output"):
        fails, _ = checker.check(op, rc, stdout)
        self.assertTrue(any(needle in f.message and f.kind == kind
                            for f in fails), fails)

    def test_verify(self):
        op, rc, out = self.op("verify", "curved2")
        checker = self.fresh_checker()
        self.assertEqual(checker.check(op, rc, out), ([], 7))
        self.assertFires(checker, op, rc, out.replace('"pass"', '"fail"'),
                         "differs from its first run")
        self.assertFires(self.fresh_checker(), op, rc,
                         out.replace('"verdict": "pass"\n}',
                                     '"verdict": "fail"\n}'), "verdict")
        self.assertFires(self.fresh_checker(), op, 1, out, "exit 1")
        bad, rc, out = self.op("verify", "obstructed2", 1)
        self.assertEqual(self.fresh_checker().check(bad, rc, out)[0], [])
        self.assertFires(self.fresh_checker(), Op("verify", "obstructed2", 0),
                         rc, out, "expected 0")

    def test_build_metric(self):
        op, rc, out = self.op("build-metric", "curved2")
        self.assertEqual(self.fresh_checker().check(op, rc, out), ([], 0))
        self.assertFires(self.fresh_checker(), op, rc,
                         "\n".join(out.splitlines()[1:]), "lines")

    def test_evolve(self):
        op, rc, out = self.op("evolve", "curved2")
        checker = self.fresh_checker()
        self.assertEqual(checker.check(op, rc, out), ([], 66))
        self.assertLess(checker.drift, DRIFT_BOUND)
        csv = self.workdir / "curved2.csv"
        rows = csv.read_text().splitlines()
        cells = rows[20].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-3)   # move one momentum
        csv.write_text("\n".join(rows[:20] + [",".join(cells)] + rows[21:])
                       + "\n")
        self.assertFires(self.fresh_checker(), op, rc, out, "drift")
        cells[2] = repr(float(cells[2]) + 0.5)       # and one u value
        csv.write_text("\n".join(rows[:20] + [",".join(cells)] + rows[21:])
                       + "\n")
        self.assertFires(self.fresh_checker(), op, rc, out, "residual")
        csv.write_text("\n".join(rows[:-1]) + "\n")  # drop a row
        self.assertFires(self.fresh_checker(), op, rc, out, "malformed")

    def test_direct_rung(self):
        checker = self.fresh_checker()
        ops = [self.op(c, "direct") for c in
               ("solve-direct", "residual", "plot", "compare")]
        for op, rc, out in ops:
            fails, work = checker.check(op, rc, out)
            self.assertEqual(fails, [])
            self.assertGreater(work, 0)
        self.assertGreater(checker.direct_dev, 0.0)

        op, rc, out = ops[3]
        report = json.loads(out)
        report["max_deviation"] = 2 * 0.025 ** 2
        self.assertFires(self.fresh_checker(), op, rc, json.dumps(report),
                         "deviation", kind="deviation")
        repeated = self.fresh_checker()
        for _ in range(2):  # an identical repeat fails as its first run did
            self.assertFires(repeated, op, rc, json.dumps(report),
                             "deviation", kind="deviation")
        op, rc, out = ops[1]
        self.assertFires(self.fresh_checker(), op, rc,
                         out.replace('"t1"', '"t2"'), "residual direct")
        op, rc, out = ops[2]
        svg = self.workdir / "direct.svg"
        svg.write_text(svg.read_text()[:-7])
        self.assertFires(self.fresh_checker(), op, rc, out, "not an SVG")
        op, rc, out = ops[0]
        csv = self.workdir / "direct.csv"
        rows = csv.read_text().splitlines()
        cells = rows[5].split(",")
        cells[2] = "nan"
        csv.write_text("\n".join(rows[:5] + [",".join(cells)] + rows[6:])
                       + "\n")
        self.assertFires(self.fresh_checker(), op, rc, out, "not a finite")


class SpanTest(unittest.TestCase):

    def test_self_time_arithmetic(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        spans = [["root", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
                 ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0],
                 ["a", 10.0, 12.0, None, 1]]
        own = self_times(spans)
        self.assertEqual(dict(own), {"root": 3.0, "a": 4.0, "b": 1.0,
                                     "c": 4.0})
        self.assertEqual(sum(own.values()), 12.0)

    def test_traced_op_adds_up_and_uninstalls(self):
        originals = {attr: getattr(nijflow.cli, attr)
                     for attr in ("orbit_grid", "nijenhuis_torsion")}
        workdir = HERE.parent / ".bench_out" / f"test-{id(self)}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            config = workdir / "c.json"
            config.write_bytes(cases.config_bytes(TOY["curved2"]))
            tracer = Tracer("span")
            tracer.install()
            try:
                rc = tracer.run_op(0, nijflow.cli.main,
                                   ["verify", str(config), "--output",
                                    str(workdir / "r.json")])
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(rc, 0)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"cli.main", "model.build", "operators.torsion",
                         "compat.coordinate_form"} <= names)
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(self_times(tracer.spans).values()),
                               root[2] - root[1], places=9)
        for attr, fn in originals.items():
            self.assertIs(getattr(nijflow.cli, attr), fn)

    def test_tail_rank(self):
        value, pct = run.tail([float(v) for v in range(20, 0, -1)])
        self.assertEqual(value, 10.0)
        self.assertAlmostEqual(pct, 100 * 9 / 19)

    def test_p50_is_the_median_of_per_op_medians(self):
        # a cycle of one fast and one slow op: the plain median of all
        # samples would fall in the gap between them
        times = [[1.0, 1.0, 3.0] + [1.0] * 8, [10.0, 12.0] + [10.0] * 9]
        values, _ = run.op_metrics(times, work=44)
        self.assertEqual(values["op_s.p50"], 5.5)
        self.assertEqual(values["op_s.tail"], 10.0)
        self.assertAlmostEqual(values["work_per_s"], 44 / 125)

    def test_calibration_scales_by_the_kernel(self):
        nominal = run_reference().NOMINAL_S
        self.assertAlmostEqual(
            run_reference().calibrated(1.5, 2 * nominal), 0.75)
        self.assertGreater(run_reference().kernel_seconds(), 0.0)

    def test_repeat_cycles_stops_at_its_time_limit(self):
        ran = []
        self.assertEqual(run.repeat_cycles(3, 60.0, lambda: ran.append(1)),
                         3)
        self.assertEqual(run.repeat_cycles(3, 0.0, lambda: ran.append(1)),
                         1)
        self.assertEqual(len(ran), 4)


def run_reference():
    import reference
    return reference


class ContractTest(unittest.TestCase):

    def test_benchmark_json_names_match_the_run(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(cases.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
