"""hkprod benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports hkprod from ./src, writes the
workload's session files under ./.perfbench_work, and drives `hkprod`
through `hkprod.cli.main` in this process with one client in a closed
loop: each op starts when the previous one returned.  A pass is the
workload's op list once; passes repeat until S seconds have gone.

Every metric is printed as `name value unit n=<samples>`, then the last
line is one JSON object with the metrics BENCHMARK.json declares:
end-to-end ones with --trace 0, per-layer ones with --trace 1.  See
NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import HOLDS_FALSE, OK  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SETUP_REPEATS = 5
SETUP_CHILD = """
import sys, time
sys.path.insert(0, {bench!r})
import workloads
from pathlib import Path
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import hkprod, hkprod.cli
workloads.build({name!r}, {seed!r}, Path({workdir!r}))
print(time.perf_counter() - t0)
"""

# The metrics BENCHMARK.json declares; only these go into the JSON line.
END_TO_END = ["setup_s", "wall_ref", "op_ref.p50", "peak_rss_mb"]
PER_LAYER = [
    "rings.order_key.calls", "rings.term_mul.calls",
    "groebner.normal_form.calls", "groebner.normal_form.self_s",
    "groebner.buchberger.calls", "groebner.buchberger.total_s",
    "groebner.buchberger.self_s", "groebner.s_polynomial.calls",
    "groebner.spair.useful_share", "groebner.interreduce.self_s",
    "groebner.module_normal_form.calls", "groebner.module_buchberger.calls",
    "groebner.module_spair.useful_share", "groebner.syzygies.calls",
    "groebner.module_colength.calls", "groebner.colon_by_element.calls",
    "groebner.staircase_count.calls", "groebner.staircase_count.self_s",
    "groebner.staircase_count.cells", "hk.monomial_hk_volume.calls",
    "hk.hk_table.calls", "ideals.Ideal.minimal_generators.calls",
    "ideals.Ideal.groebner_basis.builds", "ideals.Ideal.groebner_basis.memo_hit_share",
    "ideals.Ideal.bracket_power.calls", "ideals.Ideal.bracket_power.repeat_share",
    "koszul.kernel_length.calls", "verify.reports", "verify.skipped_share",
    "sessions.load_session.total_s", "cli.main.calls", "cli.main.total_s",
    "trace.overhead_share",
]
# Printed with the per-layer metrics but kept out of the JSON: each is a
# time that is exactly 0 on some workload, e.g. module work on quartic-hk.
PRINTED_ONLY = [
    "groebner.module_normal_form.self_s", "groebner.module_buchberger.total_s",
    "groebner.module_buchberger.self_s", "groebner.syzygies.total_s",
    "groebner.module_colength.total_s", "groebner.colon_by_element.total_s",
    "hk.monomial_hk_volume.self_s", "ideals.Ideal.minimal_generators.total_s",
    "ideals.Ideal.min_gens.total_s", "koszul.kernel_length.total_s",
    "koszul.len_identity_sides.total_s", "hk.hk_estimate.total_s",
    "hk.tc_probe.total_s",
]


def tail_percentile(values: list[float], pct: float):
    """The pct-th percentile, or None unless at least ten samples lie
    beyond it."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Import hkprod and write the sessions in fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        code = SETUP_CHILD.format(bench=str(HERE), src=str(SRC), name=name, seed=seed,
                                  workdir=str(workdir / f"setup{i}"))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


class Loop:
    """Closed loop over passes; records every op and checks its answer.

    Times come from the yardstick's work clock, which leaves out the
    reference samples taken in between."""

    def __init__(self, cli, ops, ys: Yardstick):
        self.cli, self.ops, self.ys = cli, ops, ys
        self.tracer = None
        self.records = []   # (pass index, start, end, outcome)
        self.passes = []    # (start, end, cpu seconds)
        self.failures = []

    def cpu(self) -> float:
        return time.process_time() - self.ys.stolen

    def run_pass(self):
        k = len(self.passes)
        p0, c0 = self.ys.work_clock(), self.cpu()
        for op in self.ops:
            if self.tracer:
                self.tracer.new_op()
            t0 = self.ys.work_clock()
            try:
                # looked up per op, so a traced run sees the wrapper
                rc, out, _ = workloads.run_cli(self.cli.main, op.argv)
                outcome = op.check(rc, out)
            except Exception:  # any exception is a failed op, not a crash
                outcome = "exception: " + traceback.format_exc(limit=-3)
            t1 = self.ys.work_clock()
            if outcome not in (OK, HOLDS_FALSE):
                self.failures.append(f"hkprod {' '.join(op.argv)}: {outcome}")
            self.records.append((k, t0, t1, outcome))
        self.passes.append((p0, self.ys.work_clock(), self.cpu() - c0))


def summarize(loop: Loop, ys: Yardstick, passes: range) -> dict:
    """Pass and op statistics, raw and in reference-kernel units."""
    recs = [r for r in loop.records if r[0] in passes]
    op_s = [t1 - t0 for _, t0, t1, _ in recs]
    op_ref = [(t1 - t0) / ys.speed(t0, t1) for _, t0, t1, _ in recs]
    pass_ref = [sum(u for r, u in zip(recs, op_ref) if r[0] == k) for k in passes]
    pass_s = [loop.passes[k][1] - loop.passes[k][0] for k in passes]
    pass_cpu = [loop.passes[k][2] for k in passes]
    return {"op_s": op_s, "op_ref": op_ref, "pass_s": pass_s,
            "pass_ref": pass_ref, "pass_cpu": pass_cpu}


def env_stamp() -> str:
    import numpy
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return (f"# env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()} git={sha}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hkprod" / "__init__.py").is_file():
        print(f"error: no hkprod sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def run(args, workdir: Path) -> int:
    setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    import hkprod.cli
    if Path(hkprod.__file__).resolve().parent != (SRC / "hkprod").resolve():
        raise RuntimeError(f"imported hkprod from {hkprod.__file__}, not {SRC}")
    ops = workloads.build(args.workload, args.seed, workdir / "run")

    ys = Yardstick()
    tracer = spans.Tracer(clock=ys.work_clock) if args.trace else None
    loop = Loop(hkprod.cli, ops, ys)
    ys.start()
    try:
        start = ys.work_clock()
        if tracer:
            # untraced and traced passes alternate; the untraced ones give
            # the tracing overhead
            while len(loop.passes) < 2 or ys.work_clock() - start < args.seconds:
                loop.run_pass()
                tracer.install()
                loop.tracer = tracer
                try:
                    loop.run_pass()
                finally:
                    tracer.uninstall()
                    loop.tracer = None
        else:
            while not loop.passes or ys.work_clock() - start < args.seconds:
                loop.run_pass()
        time.sleep(0.3)  # reference samples after the last op
    finally:
        ys.stop()

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops/pass={len(ops)}")
    print(env_stamp())
    for line in loop.failures[:20]:
        print(f"# FAILED {line}")
    metrics = {}
    declared = PER_LAYER if tracer else END_TO_END

    def emit(name, value, unit, n):
        print(f"{name:<44} {value!s:<22} {unit:<6} n={n}")
        if name in declared:
            metrics[name] = {"value": value, "unit": unit}

    attempted = len(loop.records)
    failed = len(loop.failures)
    holds_false = sum(1 for r in loop.records if r[3] == HOLDS_FALSE)
    npasses = len(loop.passes)
    if tracer:
        untraced = summarize(loop, ys, range(0, npasses, 2))
        traced = summarize(loop, ys, range(1, npasses, 2))
        ntraced = npasses // 2
        layers = spans.layer_metrics(tracer, ntraced)
        layers["trace.overhead_share"] = (statistics.median(traced["pass_ref"])
                                          / statistics.median(untraced["pass_ref"]) - 1,
                                          "share")
        for name in PER_LAYER + PRINTED_ONLY:
            value, unit = layers[name]
            emit(name, value, unit, ntraced)
        emit("trace.untraced_wall_s", statistics.median(untraced["pass_s"]), "s",
             npasses - ntraced)
        emit("trace.traced_wall_s", statistics.median(traced["pass_s"]), "s", ntraced)
    else:
        s = summarize(loop, ys, range(npasses))
        emit("setup_s", statistics.median(setup), "s", len(setup))
        emit("wall_ref", statistics.median(s["pass_ref"]), "ref", npasses)
        emit("op_ref.p50", statistics.median(s["op_ref"]), "ref", attempted)
        emit("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "MB", 1)
        emit("wall_s", statistics.median(s["pass_s"]), "s", npasses)
        emit("cpu_s", statistics.median(s["pass_cpu"]), "s", npasses)
        emit("op_ms.p50", 1000 * statistics.median(s["op_s"]), "ms", attempted)
        p95 = tail_percentile(s["op_s"], 95)
        emit("op_ms.p95", "n/a" if p95 is None else 1000 * p95, "ms", attempted)
        emit("ref_kernel_ms", 1000 * statistics.mean(ys.samples), "ms", len(ys.samples))
    emit("failed_share", (failed + holds_false) / attempted, "share", attempted)
    emit("holds_false_ops", holds_false, "count", attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
