"""Record the verify-trials output digests that run.py checks against.

Run from the repository root at the commit whose output is the
reference (the outputs must stay byte-identical across changes):

    python3 perfbench/record_digests.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hkprod.cli import main  # noqa: E402
from workloads import DIGESTS, digest, run_cli, vt_ops  # noqa: E402


def git_sha() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def record() -> dict:
    digests, exits = {}, {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for key, argv in vt_ops(Path(tmp)):
            rc, out, _ = run_cli(main, argv)
            digests[key] = digest(out)
            exits[key] = rc
    return {"recorded_at": git_sha(),
            "holds_false": sorted(k for k, rc in exits.items() if rc == 1),
            "digests": digests}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
