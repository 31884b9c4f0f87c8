"""Self-tests for the benchmark harness (under a second):

    python3 perfbench/selftest.py
"""

import json
import statistics
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hkprod.cli  # noqa: E402
import hkprod.koszul  # noqa: E402
import hkprod.verify  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        clock = FakeClock()
        tr = spans.Tracer(clock=clock)
        # a: 0..10, b: 2..5 containing c: 3..4, then d: 6..8
        a = tr.enter("a")
        clock.now = 2
        b = tr.enter("b")
        clock.now = 3
        c = tr.enter("c")
        clock.now = 4
        tr.exit(c)
        clock.now = 5
        tr.exit(b)
        clock.now = 6
        d = tr.enter("d")
        clock.now = 8
        tr.exit(d)
        clock.now = 10
        tr.exit(a)
        self.assertEqual(tr.self_time("a"), 5)   # 10 - (3 + 2)
        self.assertEqual(tr.self_time("b"), 2)   # 3 - 1
        self.assertEqual(tr.self_time("c"), 1)
        self.assertEqual(tr.total("a"), 10)
        self.assertEqual(tr.calls("d"), 1)

    def test_recursive_span_total_counts_once(self):
        clock = FakeClock()
        tr = spans.Tracer(clock=clock)
        outer = tr.enter("f")
        clock.now = 1
        inner = tr.enter("f")
        clock.now = 3
        tr.exit(inner)
        clock.now = 4
        tr.exit(outer)
        self.assertEqual(tr.total("f"), 4)
        self.assertEqual(tr.self_time("f"), 4)
        self.assertEqual(tr.calls("f"), 2)


class Declared(unittest.TestCase):
    def test_json_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        layers = spans.layer_metrics(spans.Tracer(), 1)
        for name in run.PER_LAYER + run.PRINTED_ONLY:
            self.assertTrue(name in layers or name == "trace.overhead_share", name)


class Ratios(unittest.TestCase):
    def test_skipped_trials(self):
        tr = spans.Tracer()
        tr._originals = {"verify.run_trials": hkprod.verify.run_trials}
        frame = spans.Frame("verify.run_trials", 0.0)
        tr._after("verify.run_trials", ("eqconds", None, 4, 0), {}, ["r1", "r2"], frame)
        tr._after("verify.run_trials", ("len-identity", None, 2, 0), {"e_max": 2},
                  ["r"] * 6, frame)
        layers = spans.layer_metrics(tr, 1)
        self.assertEqual(layers["verify.skipped_share"], (2 / 6, "share"))

    def test_box_cells(self):
        self.assertEqual(spans.box_cells([(2, 0), (0, 3), (1, 1)], 2), 6)
        self.assertEqual(spans.box_cells([(2, 0), (1, 1)], 2), 0)


class Percentiles(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(199)), 95))
        self.assertEqual(run.tail_percentile(list(range(200)), 95), 190)
        self.assertIsNone(run.tail_percentile(list(range(99)), 90))
        self.assertEqual(run.tail_percentile(list(range(100)), 90), 90)


class Install(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        originals = (hkprod.koszul.kernel_length, hkprod.verify.kernel_length,
                     hkprod.cli.hk_table, hkprod.Ideal.bracket_power)
        self.assertIs(originals[0], originals[1])
        tr = spans.Tracer()
        tr.install()
        try:
            self.assertIsNot(hkprod.koszul.kernel_length, originals[0])
            self.assertIs(hkprod.verify.kernel_length, hkprod.koszul.kernel_length)
            self.assertIs(hkprod.kernel_length, hkprod.koszul.kernel_length)
            self.assertIsNot(hkprod.cli.hk_table, originals[2])
            self.assertIsNot(hkprod.Ideal.bracket_power, originals[3])
            with self.assertRaises(RuntimeError):
                tr.install()
            hkprod.Ideal(hkprod.Ring(2, "x"), ["x"]).groebner_basis
        finally:
            tr.uninstall()
        counted = tr.calls("rings.order_key")
        self.assertGreater(counted, 0)
        tr.install()   # counts carry over a second install
        tr.uninstall()
        self.assertEqual(tr.calls("rings.order_key"), counted)
        self.assertEqual((hkprod.koszul.kernel_length, hkprod.verify.kernel_length,
                          hkprod.cli.hk_table, hkprod.Ideal.bracket_power), originals)
        self.assertIsInstance(hkprod.Ideal.__dict__["groebner_basis"], property)


def traced_op(argv):
    tr = spans.Tracer()
    tr.install()
    try:
        rc, out, _ = workloads.run_cli(hkprod.cli.main, argv)
    finally:
        tr.uninstall()
    return tr, rc, out


class TracedOps(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_quartic_hk_makes_no_module_calls(self):
        (op,) = [o for o in workloads.build("quartic-hk", 0, self.dir)
                 if o.argv[2] == "I"]
        tr, rc, out = traced_op(op.argv)
        self.assertEqual(op.check(rc, out), workloads.OK)
        self.assertGreater(tr.calls("groebner.normal_form"), 0)
        self.assertEqual(tr.calls("cli.main"), 1)
        for name in ("module_normal_form", "module_buchberger", "syzygies",
                     "module_colength"):
            self.assertEqual(tr.calls(f"groebner.{name}"), 0, name)

    def test_length_identity_reaches_the_module_path(self):
        (op,) = workloads.build("quartic-identity", 0, self.dir)
        argv = op.argv[:-1] + ["0"]  # q = 1 only
        tr, rc, _ = traced_op(argv)
        self.assertEqual(rc, 0)
        self.assertGreater(tr.calls("groebner.module_normal_form"), 0)
        self.assertEqual(tr.calls("koszul.kernel_length"), 1)


class AnswerChecks(unittest.TestCase):
    def test_wrong_answers_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.build("monomial-hk", 3, Path(tmp))
            op = ops[0]
            rc, out, _ = workloads.run_cli(hkprod.cli.main, op.argv)
        self.assertEqual(op.check(rc, out), workloads.OK)
        rows, _ = workloads.parse_hk_table(out)
        q, c, _ = rows[-1]
        tampered = out.replace(f"{q:>8} {c:>12}", f"{q:>8} {c + 1:>12}")
        self.assertNotEqual(op.check(rc, tampered), workloads.OK)
        self.assertNotEqual(op.check(1, out), workloads.OK)

    def test_staircase_size(self):
        self.assertEqual(workloads.staircase_size([(2, 0, 0), (0, 2, 0), (0, 0, 2)]), 8)
        self.assertEqual(workloads.staircase_size(
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]), 6)
        m4 = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
        self.assertEqual(workloads.staircase_size(m4), 20)

    def test_digest_mismatch_fails(self):
        check = workloads.check_verify("0" * 16)
        line = '{"holds":true}\n'
        self.assertNotEqual(check(0, line), workloads.OK)
        good = workloads.check_verify(workloads.digest(line))
        self.assertEqual(good(0, line), workloads.OK)
        self.assertNotEqual(good(1, line), workloads.OK)
        false_line = '{"holds":false}\n'
        known = workloads.check_verify(workloads.digest(false_line))
        self.assertEqual(known(1, false_line), workloads.HOLDS_FALSE)


class Yardstick(unittest.TestCase):
    def test_work_clock_leaves_out_samples(self):
        ys = yardstick.Yardstick(period_s=0.005)
        ys.start()
        try:
            p0, w0 = time.perf_counter(), ys.work_clock()
            while len(ys.samples) < 20:
                pass
            p1, w1 = time.perf_counter(), ys.work_clock()
        finally:
            ys.stop()
        self.assertAlmostEqual((p1 - p0) - (w1 - w0), ys.stolen, delta=1e-3)
        self.assertGreater(ys.stolen, 0.9 * sum(ys.samples))
        self.assertAlmostEqual(ys.speed(w0, w1, pad=1), statistics.mean(ys.samples))


if __name__ == "__main__":
    unittest.main()
