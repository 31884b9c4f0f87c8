"""Wall probes: known slow or failing inputs, each run once in a fresh
process under a stated time cap.  They are recorded, not gated: each
ends as finished (with its answer), timed out, or an exit code plus the
last traceback line.  Takes up to about ten minutes:

    python3 perfbench/probes.py

Prints one JSON line per probe; NOTES.md keeps the latest results.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / "probes"

HEAD = "import sys; sys.path.insert(0, 'src')\n"
QUARTIC = """
from hkprod import Ideal, Ring
R = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
I = Ideal(R, ["x^2+y*z", "y^2", "z^2"])
J = Ideal(R, ["x+y", "y*z", "z^2"])
print((I * J).bracket_power(27).colength())
"""
M5_VOLUME = """
from hkprod import Ideal, Ring, monomial_hk_volume
R = Ring(2, "xyz")
gens = [f"x^{a}*y^{b}*z^{5 - a - b}" for a in range(6) for b in range(6 - a)]
print(monomial_hk_volume(Ideal(R, gens)))
"""
M4_POWER_VOLUME = """
from hkprod import Ring, maximal_ideal, monomial_hk_volume
print(monomial_hk_volume(maximal_ideal(Ring(2, "xyz")).power(4)))
"""
HK_QMAX9 = """
from hkprod.cli import main
sys.exit(main(["hk", sys.argv[1], "K", "--qmax", "9"]))
"""
SESSION = "ring: p=2 vars=x,y,z order=grevlex\nideal K = [x^2+y, y^2+z, z^2+x]\n"

# name -> (cap in seconds, script, extra argv)
PROBES = {
    "quartic-IJ-bracket-27": (240, QUARTIC, []),
    "m5-volume": (60, M5_VOLUME, []),
    "m4-power-4-volume": (240, M4_POWER_VOLUME, []),
    "hk-qmax9-x2+y": (120, HK_QMAX9, [str(WORK / "k.hk")]),
}


def run_probe(cap: int, script: str, extra: list[str]) -> dict:
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", HEAD + script, *extra],
                              capture_output=True, text=True, timeout=cap, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"status": "timed out", "cap_s": cap}
    elapsed = round(time.perf_counter() - t0, 2)
    if done.returncode == 0:
        return {"status": "finished", "seconds": elapsed, "cap_s": cap,
                "answer": done.stdout.strip().splitlines()[-1]}
    tail = done.stderr.strip().splitlines()
    return {"status": f"exit {done.returncode}", "seconds": elapsed, "cap_s": cap,
            "error": tail[-1] if tail else ""}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        (WORK / "k.hk").write_text(SESSION)
        for name, (cap, script, extra) in PROBES.items():
            print(json.dumps({"probe": name, **run_probe(cap, script, extra)}), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
