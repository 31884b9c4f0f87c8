"""Koszul vectors, kernel lengths, and the length identity sides."""

import pytest

from hkprod import Ideal, Ring, groebner, kernel_length, len_identity_sides
from hkprod.koszul import LenIdentitySides

from .oracles import koszul_cells, koszul_vector


def test_koszul_vector_values(F2xyz):
    a = [F2xyz.var(v) for v in "xyz"]
    v = koszul_vector(a, 0, 2)  # pairs x with z
    assert [str(f) for f in v] == ["z", "0", "x"]


def test_koszul_vector_frobenius_level(F3xy):
    a = [F3xy.poly("x + y"), F3xy.poly("y^2")]
    v = koszul_vector(a, 0, 1, q=3)
    assert v[0] == -(F3xy.poly("y^6"))
    assert v[1] == F3xy.poly("x^3 + y^3")


def test_koszul_vector_index_validation(F2xy):
    a = [F2xy.var("x"), F2xy.var("y")]
    with pytest.raises(IndexError):
        koszul_vector(a, 1, 1)
    with pytest.raises(ValueError):
        koszul_vector(a, 0, 1, q=3)


def test_koszul_cells_are_syzygies(fermat):
    a = [fermat.poly("y"), fermat.poly("z"), fermat.poly("x^2")]
    relations = Ideal(fermat, [])
    for q in (1, 2, 4):
        cells = koszul_cells(a, q)
        assert len(cells) == 3
        for v in cells:
            combo = sum((vi * ai.frobenius(q) for vi, ai in zip(v, a)),
                        fermat.zero())
            assert relations.contains(combo)


def test_kernel_length_spec_values(F2xy):
    a = [F2xy.var("x"), F2xy.var("y")]
    assert kernel_length(a, Ideal(F2xy, a), 1) == 0
    I = Ideal(F2xy, ["x^2", "y^2"])
    assert kernel_length(a, I, 1) == 3
    assert kernel_length(a, I, 2) == 12  # q^2 * 3 by Kunz scaling


def test_kernel_vanishes_for_regular_sequences_inside_i(F5xyz):
    # a regular sequence has only Koszul syzygies, all inside I R^l
    a = [F5xyz.poly("x^2"), F5xyz.poly("y^3"), F5xyz.poly("z")]
    I = Ideal(F5xyz, a)
    for q in (1, 5):
        assert kernel_length(a, I, q) == 0


def test_kernel_kunz_scaling(F3xy):
    a = [F3xy.poly("x + y^2"), F3xy.poly("y")]
    I = Ideal(F3xy, ["x^2", "x*y", "y^3"])
    base = kernel_length(a, I, 1)
    assert kernel_length(a, I, 3) == 9 * base


def test_len_identity_sides_spec_values(F2xy):
    a = [F2xy.var("x"), F2xy.var("y")]
    I, J = Ideal(F2xy, ["x^2", "y^2"]), Ideal(F2xy, a)
    s1, s2 = len_identity_sides(I, J, a, [1, 2])
    assert s1 == LenIdentitySides(q=1, ell=2, lambda_Iq=4, lambda_Jq=1, lambda_K=3,
                                  lambda_IJq=6)
    assert (s1.lhs, s1.rhs) == (9, 9)
    assert s1.holds()
    assert (s2.q, s2.lhs, s2.lambda_K, s2.lambda_IJq) == (2, 36, 12, 24)
    assert s2.holds()
    (s3,) = len_identity_sides(J, J, a, [1])
    assert (s3.lhs, s3.lambda_K, s3.lambda_IJq) == (3, 0, 3)
    assert s3.holds()


def test_len_identity_on_quotient(fermat):
    m = Ideal(fermat, ["x", "y", "z"])
    a = [fermat.poly("y"), fermat.poly("z")]
    sides = len_identity_sides(m, Ideal(fermat, a), a, [1, 2, 4])
    assert [s.q for s in sides] == [1, 2, 4]
    for s in sides:
        assert s.holds(), f"identity failed at q={s.q}"


def test_len_identity_on_four_variable_quotient():
    # the ideal path (lhs and the product term) and the module path (the
    # kernel term) agree on a cubic in four variables
    ring = Ring(2, "xyzw", relations=["x^3+y^3+z^3+w^3"])
    I = Ideal(ring, ["x^2+y*z", "y^2+z*w", "z^2+x*w", "w^2"])
    a = [ring.poly(g) for g in ["x+y", "y+z", "z*w+w^2", "w^3"]]
    sides = len_identity_sides(I, Ideal(ring, a), a, [1, 2])
    assert [(s.lhs, s.lambda_K, s.lambda_IJq) for s in sides] == [(61, 33, 28),
                                                                 (544, 278, 266)]
    assert all(s.holds() for s in sides)


def _quartic():
    ring = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
    I = Ideal(ring, ["x^2+y*z", "y^2", "z^2"])
    return I, [ring.poly(g) for g in ["x+y", "z^2", "y*z"]]


def test_len_identity_on_the_quartic_at_high_q():
    I, a = _quartic()
    sides = len_identity_sides(I, Ideal(I.ring, a), a, [27, 81])
    assert [(s.lhs, s.lambda_K, s.lambda_IJq) for s in sides] == [
        (31416, 12107, 19309), (282840, 108983, 173857)]
    assert all(s.holds() for s in sides)


def test_kernel_length_on_the_quartic_divides_little(monkeypatch):
    # e_i in degree deg(a_i^q) lets both module bases be built degree by
    # degree; with every e_i in degree 0 this takes 507 divisions
    I, a = _quartic()
    I.bracket_power(27).colength()  # as len_identity_sides does first
    calls = []
    divide = groebner._divide
    monkeypatch.setattr(groebner, "_divide", lambda *args: calls.append(1) or divide(*args))
    assert kernel_length(a, I, 27) == 12107
    assert len(calls) <= 250


def test_len_identity_nonminimal_sequence(F2xy):
    # the identity holds for any generating sequence, minimal or not
    I = Ideal(F2xy, ["x^2", "y^2"])
    a = [F2xy.var("x"), F2xy.var("y"), F2xy.poly("x + y")]
    (s,) = len_identity_sides(I, Ideal(F2xy, a), a, [1])
    assert s.ell == 3 and s.holds()


def test_kernel_length_rejects_bad_input(F2xy):
    with pytest.raises(ValueError):
        kernel_length([], Ideal(F2xy, ["x", "y"]), 1)
