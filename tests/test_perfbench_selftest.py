"""The benchmark harness's own self-tests (perfbench/selftest.py), run
in tier-1: they assert the boundary calls that the harness traces, so a
change to the engines that drops one fails here."""

import importlib.util
import sys
import unittest
from pathlib import Path

SELFTEST_PY = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # selftest.py prepends to it
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    suite = unittest.defaultTestLoader.loadTestsFromModule(module)
    result = unittest.TextTestRunner(verbosity=0).run(suite)
    assert result.wasSuccessful(), result.failures + result.errors
    assert result.testsRun > 0
