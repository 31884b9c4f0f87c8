"""Acceptance gate: the eleven headline guarantees, one test each.

Every comparison is exact (integers and Fractions); there are no
tolerances anywhere.  Each test prints a single pass/fail line, so
running this file with `pytest -s` gives an 11-line scoreboard.
"""

import random
import time
from fractions import Fraction

from hkprod import (Ideal, Ring, hk_table, monomial_hk_volume, random_ideal,
                    tc_probe)
from hkprod import verify as V
from hkprod.cli import main

from .oracles import brute_membership


def _criterion(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_length_identity_randomized():
    start = time.monotonic()
    r2 = V.run_trials("len-identity", Ring(2, ["x", "y"]), 200, seed=1, e_max=1)
    r3 = V.run_trials("len-identity", Ring(3, ["x", "y", "z"]), 50, seed=2, e_max=1)
    elapsed = time.monotonic() - start
    ok = (len(r2) == 400 and len(r3) == 100
          and all(r.holds for r in r2 + r3) and elapsed < 300)
    _criterion(1, "length identity, 200+50 random pairs at q in {1,p} "
                  f"({elapsed:.1f}s)", ok)


def test_criterion_02_parameter_square_colength():
    ring = Ring(5, ["x", "y", "z"])
    rng = random.Random(11)
    ideals = [random_ideal(rng, ring, "parameter-powers", 4) for _ in range(50)]
    ok = len(ideals) == 50 and all(
        J.power(2).colength_strict() == 4 * J.colength_strict() for J in ideals)
    _criterion(2, "lambda(R/J^2) = 4*lambda(R/J) for 50 parameter ideals in "
                  "F_5[x,y,z]", ok)


def test_criterion_03_equality_conditions_both_directions():
    reports = V.run_trials("eqconds", Ring(2, ["x", "y"]), 100, seed=3)
    saw_equality = any(r.data["equality"] for r in reports)
    saw_param_sub = any(r.data["parameter"] and r.data["containment"]
                        for r in reports)
    ok = (bool(reports) and all(r.holds for r in reports)
          and saw_equality and saw_param_sub)
    _criterion(3, "equality <-> containment conditions, 100 seeded trials, "
                  "both branches exercised", ok)


def test_criterion_04_kunz_scaling_cross_oracle():
    ok = True
    count = 0
    for p in (2, 3):
        ring = Ring(p, ["x", "y"])
        for seed, family in ((21, "monomial"), (22, "binomial"), (23, "dense")):
            rng = random.Random(seed)
            for I in [random_ideal(rng, ring, family, 3) for _ in range(17)]:
                count += 1
                # Buchberger's count on the bracket generators against Kunz
                lam = I.bracket_power(p).colength_strict()
                ok = ok and lam == I.bracket_colength(p) == p * p * I.colength_strict()
    _criterion(4, f"Kunz scaling lambda(R/I^[p]) = p^2*lambda(R/I) on {count} "
                  "random ideals in F_2[x,y] and F_3[x,y]", ok and count >= 100)


def test_criterion_05_monomial_volume_oracle():
    ring = Ring(2, ["x", "y", "z"])
    rng = random.Random(31)
    ideals = [random_ideal(rng, ring, "monomial", 3) for _ in range(100)]
    ok = len(ideals) == 100 and all(
        monomial_hk_volume(I) == Fraction(I.colength_strict()) for I in ideals)
    _criterion(5, "monomial volume = colength for 100 random monomial ideals "
                  "in F_2[x,y,z]", ok)


def test_criterion_06_fermat_square_per_q():
    start = time.monotonic()
    ring = Ring(2, ["x", "y", "z"], relations=["x^3+y^3+z^3"])
    J = Ideal(ring, ["y", "z"])
    rows_J = [r.colength for r in hk_table(J, 3).rows]
    rows_J2 = [r.colength for r in hk_table(J.power(2), 3).rows]
    report = V.verify_cor_square_hk(J, 3)
    elapsed = time.monotonic() - start
    ok = (rows_J == [3 * q * q for q in (1, 2, 4, 8)]
          and rows_J2 == [9 * q * q for q in (1, 2, 4, 8)]
          and report.holds and elapsed < 60)
    _criterion(6, "hypersurface parameter ideal: 3q^2 and 9q^2 per-q tables "
                  f"({elapsed:.1f}s)", ok)


def test_criterion_07_per_q_upper_bound_on_hypersurface():
    ring = Ring(2, ["x", "y", "z"], relations=["x^3+y^3+z^3"])
    reports = V.run_trials("huneke-yao", ring, 50, seed=41, e_max=3)
    fixed = V.verify_huneke_yao_per_q(Ideal(ring, ["x^2", "y", "z"]), 1)
    ok = (len(reports) == 50 and all(r.holds for r in reports)
          and fixed.holds and fixed.data["per_q"]["2"] == {"lhs": 12, "rhs": 16})
    _criterion(7, "lambda(R/I^[q]) <= lambda(R/m^[q])*lambda(R/I) for 50 "
                  "random I at q in {2,4,8}, plus the 12 <= 16 fixture", ok)


def test_criterion_08_stable_bracket_product_values():
    ring = Ring(2, ["x", "y"])
    I = Ideal(ring, ["x^2", "y^2"])
    J = Ideal(ring, ["x", "y"])
    vals = {}
    for q in (2, 4):
        Jq = J.bracket_power(q)
        vals[q] = ((I * Jq).colength_strict(),
                   2 * I.colength_strict() + Jq.colength_strict())
    report = V.verify_prop42(I, J, 2)
    ok = vals[2] == (12, 12) and vals[4] == (24, 24) and report.holds
    _criterion(8, "lambda(R/I*J^[q]) = 2*lambda(R/I) + lambda(R/J^[q]) with "
                  "values 12 and 24", ok)


def test_criterion_09_product_bound_equality_iff_containment():
    ring = Ring(2, ["x", "y"])
    rng = random.Random(51)
    families = ("monomial", "binomial", "dense")
    saw_equality = saw_strict = False
    ok = True
    for t in range(60):
        J = random_ideal(random.Random(rng.randrange(2 ** 32)), ring,
                         "parameter-powers", 3)
        I = random_ideal(random.Random(rng.randrange(2 ** 32)), ring,
                         families[t % 3], 3)
        if t % 3 == 2:
            I = I + J  # force the containment branch
        lhs = (I * J).colength_strict()
        rhs = J.min_gens() * I.colength_strict() + J.colength_strict()
        contained = I.contains_ideal(J)
        ok = ok and lhs <= rhs and ((lhs == rhs) == contained)
        saw_equality = saw_equality or lhs == rhs
        saw_strict = saw_strict or lhs < rhs
    _criterion(9, "product bound holds with equality iff J in I, over 60 "
                  "parameter-J trials", ok and saw_equality and saw_strict)


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    session = tmp_path / "det.hk"
    session.write_text("ring: p=2 vars=x,y\n")

    def full_suite():
        chunks = []
        for check in V.CHECK_NAMES:
            rc = main(["verify", str(session), check,
                       "--trials", "6", "--seed", "77", "--qmax", "1"])
            out = capsys.readouterr().out
            chunks.append((check, rc, out))
        return chunks

    first = full_suite()
    second = full_suite()
    ok = (first == second
          and all(rc == 0 for _, rc, _ in first)
          and "".join(out for _, _, out in first).encode()
          == "".join(out for _, _, out in second).encode())
    _criterion(10, "two identically seeded runs of all 14 checkers produce "
                   "byte-identical JSON lines", ok)


def test_criterion_11_probe_fixtures_with_independent_membership():
    fermat = Ring(2, ["x", "y", "z"], relations=["x^3+y^3+z^3"])
    J = Ideal(fermat, ["y", "z"])
    consistent = tc_probe(fermat.poly("x^2"), J, fermat.poly("x^2"), 3)
    # independent check: x^2 * (x^2)^q in (y^q, z^q, x^3+y^3+z^3) by
    # brute-force linear algebra, no Groebner machinery involved
    confirmed = all(
        brute_membership(fermat.poly(f"x^{2 * q + 2}"),
                         [fermat.poly(f"y^{q}"), fermat.poly(f"z^{q}")],
                         fermat, 2 * q + 2)
        for q in (2, 4, 8))
    F2xy = Ring(2, ["x", "y"])
    refuted = tc_probe(F2xy.poly("x"), Ideal(F2xy, ["x^2", "y^2"]),
                       F2xy.one(), 3)
    not_member = not brute_membership(F2xy.poly("x^2"),
                                      [F2xy.poly("x^4"), F2xy.poly("y^4")],
                                      F2xy, 8)
    ok = (str(consistent) == "ConsistentUpTo(8)" and confirmed
          and not refuted.consistent and refuted.q == 2 and not_member)
    _criterion(11, "probe fixtures ConsistentUpTo(8) and RefutedAt(2), both "
                   "confirmed by brute-force membership", ok)
