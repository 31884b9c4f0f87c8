"""The benchmark's span tracer (perfbench/spans.py) wraps hkprod's layer
functions from outside the package; installing it must find every name
it traces, and uninstalling it must put every original back."""

import importlib.util
import sys
from pathlib import Path

import hkprod.cli  # noqa: F401  (loads every module the tracer patches)

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the hkprod modules and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "hkprod" and not name.startswith("hkprod."):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[name, attr, cattr] = cvalue
    return out


def test_tracer_install_then_uninstall_restores_originals():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = [k for k, v in before.items() if during[k] is not v]
        # at least one rebinding per span or counter, each to a wrapper
        assert len(changed) >= len(spans.SPANS) + len(spans.COUNTERS)
        for k in changed:
            v = during[k]
            assert hasattr(v.fget if isinstance(v, property) else v, "__wrapped__"), k
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
