"""The four workloads: session files, the ops of one pass, and the answer
check for each op.  One op is one `hkprod` CLI invocation.

Answer checks do not trust the engine: expected values come from the
recorded seed-commit outputs (verify-trials), from the length identity
across two workloads (quartic-*), or from a brute-force staircase count
done here (monomial-hk).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

OK, HOLDS_FALSE = "ok", "holds-false"


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], str]   # (exit code, stdout) -> OK, HOLDS_FALSE or a failure


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Call `hkprod.cli.main(argv)` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


# --- verify-trials -----------------------------------------------------------

VT_SESSIONS = {  # name -> (ring line, --qmax)
    "F2": ("ring: p=2 vars=x,y order=grevlex", 1),
    "F3": ("ring: p=3 vars=x,y,z order=grevlex", 1),
    "fermat": ("ring: p=2 vars=x,y,z mod=[x^3+y^3+z^3] order=grevlex", 2),
}
VT_SEEDS = range(6)
VT_CHECKS = ("len-identity", "prop-ineq", "cor-power", "eqconds", "freeness",
             "square", "eq7", "hk-product", "cor-power-hk", "eqthentc",
             "param-lower", "square-hk", "prop42", "huneke-yao")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def vt_ops(workdir: Path) -> list[tuple[str, list[str]]]:
    """(digest key, argv) of every verify-trials op, in a fixed order."""
    ops = []
    for sess, (ring, qmax) in VT_SESSIONS.items():
        path = workdir / f"{sess}.hk"
        path.write_text(ring + "\n")
        for check in VT_CHECKS:
            for s in VT_SEEDS:
                ops.append((f"{sess}|{check}|{s}",
                            ["verify", str(path), check, "--trials", "1",
                             "--seed", str(s), "--qmax", str(qmax)]))
    return ops


def check_verify(expected_digest: str | None) -> Callable[[int, str], str]:
    def check(rc: int, out: str) -> str:
        if rc not in (0, 1):
            return f"undocumented exit code {rc}"
        try:
            reports = [json.loads(line) for line in out.splitlines()]
        except json.JSONDecodeError:
            return "output is not JSON lines"
        any_false = any(r.get("holds") is not True for r in reports)
        if any_false != (rc == 1):
            return f"exit code {rc} disagrees with the holds fields"
        if digest(out) != expected_digest:
            return "output differs from the seed-commit recording"
        return HOLDS_FALSE if any_false else OK
    return check


def build_verify_trials(rng: random.Random, workdir: Path) -> list[Op]:
    # The op set is fixed (CLI seeds 0-5); the benchmark seed only orders
    # it.  A per-CLI-seed cost of 0.8-4.5 s would otherwise make pass
    # time depend on which seeds were drawn, not on the program.
    recorded = json.loads(DIGESTS.read_text())["digests"]
    ops = [Op(argv, check_verify(recorded.get(key))) for key, argv in vt_ops(workdir)]
    rng.shuffle(ops)
    return ops


# --- quartic-identity and quartic-hk -----------------------------------------

QUARTIC_RING = "ring: p=3 vars=x,y,z mod=[x^4+y^4+z^4] order=grevlex"
QUARTIC_I = ["x^2+y*z", "y^2", "z^2"]
QUARTIC_J = ["x+y", "y*z", "z^2"]
# q -> (lambda(R/I^[q]), lambda(R/J^[q]), lambda(R/(IJ)^[q])).  quartic-hk
# reads these off tables; quartic-identity must reproduce them through the
# length identity 3*lambda_I + lambda_J = lambda_K + lambda_IJ, whose
# kernel term comes from the module path.
QUARTIC_LENGTHS = {1: (8, 5, 17), 3: (104, 63, 229), 9: (968, 576, 2137)}
QUARTIC_QMAX = "2"


def quartic_session(rng: random.Random, workdir: Path) -> Path:
    """I, J and IJ (9 products written out), each generator times a seeded
    unit of F_3 and in seeded order: the ideals, so the answers, do not
    change with the seed."""
    def scaled(gens):
        return [f"{rng.choice((1, 2))}*({g})" for g in gens]
    I = scaled(rng.sample(QUARTIC_I, 3))
    J = scaled(rng.sample(QUARTIC_J, 3))
    IJ = [f"{rng.choice((1, 2))}*({a})*({b})" for a in QUARTIC_I for b in QUARTIC_J]
    rng.shuffle(IJ)
    path = workdir / "quartic.hk"
    path.write_text("\n".join([QUARTIC_RING, f"ideal I = [{', '.join(I)}]",
                               f"ideal J = [{', '.join(J)}]",
                               f"ideal IJ = [{', '.join(IJ)}]"]) + "\n")
    return path


def check_eq7(rc: int, out: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    try:
        (report,) = [json.loads(line) for line in out.splitlines()]
    except ValueError:
        return "expected one JSON report"
    per_q = report["data"]["per_q"]
    if report["data"]["ell"] != 3 or sorted(map(int, per_q)) != sorted(QUARTIC_LENGTHS):
        return "wrong sequence length or q levels"
    for q, (lam_i, lam_j, lam_ij) in QUARTIC_LENGTHS.items():
        row = per_q[str(q)]
        if row["lhs"] != 3 * lam_i + lam_j or row["rhs_product"] != lam_ij:
            return f"lengths at q={q} differ from the hk tables"
        if row["lhs"] != row["rhs_kernel"] + row["rhs_product"]:
            return f"length identity fails at q={q}"
    return OK if report["holds"] is True else "report does not hold"


def parse_hk_table(out: str) -> tuple[list[tuple[int, int, str]], str]:
    """Rows (q, colength, normalized) and the estimate line of `hkprod hk`."""
    lines = out.splitlines()
    rows = [(int(q), int(c), n) for q, c, n in (ln.split() for ln in lines[1:-1])]
    return rows, lines[-1]


def check_hk(expected: list[tuple[int, int]], d: int, estimate: str):
    """Rows must be exactly `expected` [(q, colength)], normalized by q^d,
    and the estimate line must read `estimate`."""
    def check(rc: int, out: str) -> str:
        if rc != 0:
            return f"exit code {rc}"
        try:
            rows, est = parse_hk_table(out)
        except (ValueError, IndexError):
            return "unparseable table"
        if [(q, c) for q, c, _ in rows] != expected:
            return "wrong colengths"
        if any(n != str(Fraction(c, q ** d)) for q, c, n in rows):
            return "wrong normalization"
        return OK if est == estimate else f"wrong estimate line {est!r}"
    return check


def build_quartic_identity(rng: random.Random, workdir: Path) -> list[Op]:
    path = quartic_session(rng, workdir)
    return [Op(["verify", str(path), "eq7", "--ideal", "I", "--ideal", "J",
                "--qmax", QUARTIC_QMAX], check_eq7)]


def build_quartic_hk(rng: random.Random, workdir: Path) -> list[Op]:
    path = quartic_session(rng, workdir)
    ops = []
    for k, name in enumerate(("I", "J", "IJ")):
        expected = [(q, lens[k]) for q, lens in QUARTIC_LENGTHS.items()]
        q, lam = expected[-1]
        ops.append(Op(["hk", str(path), name, "--qmax", QUARTIC_QMAX],
                      check_hk(expected, 2, f"estimate: {Fraction(lam, q ** 2)} "
                                            "[sequence-last; finite-q value, not "
                                            "asserted as the limit]")))
    rng.shuffle(ops)
    return ops


# --- monomial-hk ----------------------------------------------------------------

MONO_RING = "ring: p=2 vars=x,y,z order=grevlex"
MONO_QMAX = 7
# Pure-power exponents of the 40 ideals, cycled.  Fixing them fixes the
# staircase box of every row (its cells are the exponents' product times
# q^3), so a pass has the same input size at every seed; the seed picks
# which variable gets which power and the mixed generators.
MONO_BOXES = [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 3)]
MONO_COUNT = 40


def monomial_text(exps) -> str:
    return "*".join(f"{v}^{e}" for v, e in zip("xyz", exps) if e)


def staircase_size(gens: list[tuple[int, ...]]) -> int:
    """lambda(R/I) for a monomial ideal with pure powers of x, y and z, by
    enumerating the box: independent of the engine."""
    box = [min(g[i] for g in gens if g[i] and sum(g) == g[i]) for i in range(3)]
    return sum(1 for a in range(box[0]) for b in range(box[1]) for c in range(box[2])
               if not any(g[0] <= a and g[1] <= b and g[2] <= c for g in gens))


def monomial_ideals(rng: random.Random) -> dict[str, list[tuple[int, ...]]]:
    ideals = {}
    for k in range(MONO_COUNT):
        powers = list(MONO_BOXES[k % len(MONO_BOXES)])
        rng.shuffle(powers)
        gens = [tuple(e if j == i else 0 for j in range(3)) for i, e in enumerate(powers)]
        # up to two mixed monomials inside the box; mixed only, so the box
        # stays fixed, and a fixed number, so the work per pass does too
        mixed = [e for e in itertools.product(*(range(p) for p in powers))
                 if sum(1 for x in e if x) >= 2]
        gens += rng.sample(mixed, min(2, len(mixed)))
        ideals[f"M{k}"] = gens
    m4 = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
    rng.shuffle(m4)
    ideals["m4"] = m4  # m^4 written out as 15 generators
    return ideals


def build_monomial_hk(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for name, gens in monomial_ideals(rng).items():
        # one session per ideal, so an op parses only its own ideal
        path = workdir / f"{name}.hk"
        path.write_text(f"{MONO_RING}\nideal {name} = "
                        f"[{', '.join(monomial_text(g) for g in gens)}]\n")
        lam = staircase_size(gens)
        # Kunz: lambda(R/I^[q]) = q^3 lambda(R/I) in a regular ring of dim 3
        expected = [(2 ** e, 8 ** e * lam) for e in range(MONO_QMAX + 1)]
        ops.append(Op(["hk", str(path), name, "--qmax", str(MONO_QMAX)],
                      check_hk(expected, 3,
                               f"estimate: {lam} [exact-monomial-volume; exact limit]")))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "verify-trials": build_verify_trials,
    "quartic-identity": build_quartic_identity,
    "quartic-hk": build_quartic_hk,
    "monomial-hk": build_monomial_hk,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's session files under workdir; return one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
