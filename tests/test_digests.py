"""The 252 verify-trials ops of the benchmark (perfbench/workloads.py),
run through the CLI: every output must match its recorded digest, so a
change of one output byte fails here before it reaches the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

from hkprod.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_verify_trials_outputs_match_recorded_digests(tmp_path):
    workloads = _load_workloads()
    recorded = json.loads(workloads.DIGESTS.read_text())
    ops = workloads.vt_ops(tmp_path)
    assert sorted(key for key, _ in ops) == sorted(recorded["digests"])
    changed, holds_false = [], []
    for key, argv in ops:
        rc, out, _ = workloads.run_cli(main, argv)
        if workloads.digest(out) != recorded["digests"][key]:
            changed.append(key)
        if rc == 1:
            holds_false.append(key)
        assert rc in (0, 1), key
    assert changed == []
    assert sorted(holds_false) == recorded["holds_false"]
