"""Polynomial arithmetic, parsing, monomial orders, Frobenius powers."""

import random
import re
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import MonomialOrder, PolynomialParseError, Ring
from hkprod.rings import is_p_power

from .strategies import rings


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        Ring(4, ["x"])
    with pytest.raises(ValueError):
        Ring(1, ["x"])


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        Ring(2, ["x", "x"])


@pytest.mark.parametrize("name", ["2y", "x y", "y-1", "(y)", ""])
def test_variable_names_must_be_name_tokens(name):
    with pytest.raises(ValueError, match=re.escape(f"variable name {name!r} is not")):
        Ring(2, ["x", name])


@settings(max_examples=30, deadline=None)
@given(rings())
def test_variable_text_parses_back(ring):
    for v in ring.variables:
        assert ring.poly(str(ring.var(v))) == ring.var(v)


def test_ring_needs_a_variable():
    for variables in ([], "", ()):
        with pytest.raises(ValueError, match="at least one variable"):
            Ring(2, variables)


@pytest.mark.parametrize("relation", ["x*y + y", "x^2 + y^2 + 1", "1"])
def test_relations_must_be_homogeneous_of_positive_degree(relation):
    # with such a relation m is not the homogeneous maximal ideal: the
    # ring's dimension is not dim R_m, or m is the unit ideal
    with pytest.raises(ValueError, match=re.escape(f"relation {relation} is not homogeneous")):
        Ring(2, "xy", relations=[relation])
    graded = Ring(2, "xy", relations=["x^2 + y^2", "x*y", "0"])  # a zero relation is dropped
    assert [str(r) for r in graded.relations] == ["x^2 + y^2", "x*y"]


def test_square_of_sum_in_char_two(F2xy):
    f = F2xy.poly("(x+y)^2")
    assert f == F2xy.poly("x^2 + y^2")


def test_leading_minus_sign(F5xy):
    assert str(F5xy.poly("-x^2 + y")) == "4*x^2 + y"


def test_multiply_by_zero(F2xy):
    f = F2xy.poly("x^2*y + x + 1")
    assert (f * F2xy.zero()).is_zero()


def test_coefficients_reduced_mod_p(F3xy):
    assert F3xy.poly("3*x + 4*y") == F3xy.poly("y")
    assert F3xy.poly("x - x").is_zero()


def test_parse_implicit_products_and_unicode_minus(F5xy):
    assert F5xy.poly("2x y") == F5xy.poly("2*x*y")
    assert F5xy.poly("x − y") == F5xy.poly("x - y")


def test_parse_errors(F2xy):
    for bad in ["", "x +", "w", "x^y", "(x", "2²", "x^²"]:
        with pytest.raises(PolynomialParseError):
            F2xy.poly(bad)


def test_grevlex_order_on_spec_pair():
    order = MonomialOrder("grevlex")
    assert order.key((2, 1)) > order.key((1, 2))  # x^2*y beats x*y^2
    assert order.key((1, 1)) == order.key((1, 1))
    assert order.key((0, 3)) < order.key((2, 1))


def test_lex_order():
    order = MonomialOrder("lex")
    assert order.key((1, 0)) > order.key((0, 5))


def test_leading_monomial_grevlex(F2xy):
    f = F2xy.poly("x^2*y + x*y^2 + y^3")
    assert f.leading_monomial() == (2, 1)


def test_frobenius_of_sum(F2xyz):
    f = F2xyz.poly("x + y + z")
    assert f.frobenius(4) == F2xyz.poly("x^4 + y^4 + z^4")


def test_frobenius_rejects_non_p_powers(F3xy):
    with pytest.raises(ValueError):
        F3xy.poly("x + y").frobenius(2)


def test_is_p_power():
    assert is_p_power(1, 3) and is_p_power(27, 3)
    assert not is_p_power(6, 3) and not is_p_power(0, 3)


def test_partial_derivative(F3xy):
    f = F3xy.poly("x^3 + x^2*y + y")
    assert f.partial(0) == F3xy.poly("2*x*y")  # 3x^2 vanishes mod 3
    assert f.partial(1) == F3xy.poly("x^2 + 1")


def test_str_round_trips_through_parser(F5xy):
    f = F5xy.poly("3*x^2*y + 2*y^4 + 1")
    assert F5xy.poly(str(f)) == f


# --- property tests ----------------------------------------------------------

def _polys(ring, max_deg=3, max_terms=4):
    monos = st.tuples(*[st.integers(0, max_deg) for _ in range(ring.nvars)])
    term = st.tuples(monos, st.integers(0, ring.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((ring.monomial(m, c) for m, c in ts), ring.zero()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    ring = Ring(3, ["x", "y"])
    f = data.draw(_polys(ring))
    g = data.draw(_polys(ring))
    h = data.draw(_polys(ring))
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == ring.zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_is_repeated_squaring(data):
    ring = Ring(2, ["x", "y"])
    f = data.draw(_polys(ring))
    assert f.frobenius(2) == f * f
    assert f.frobenius(4) == (f * f) * (f * f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_additive(data):
    ring = Ring(3, ["x", "y"])
    f = data.draw(_polys(ring))
    g = data.draw(_polys(ring))
    assert (f + g).frobenius(3) == f.frobenius(3) + g.frobenius(3)
    assert (f * g).frobenius(9) == f.frobenius(9) * g.frobenius(9)


def _blank(rnd) -> str:
    return rnd.choice(["", " ", "  "])


def _factor_text(rnd, ring, depth):
    r = rnd.randint(0, 2 if depth else 1)
    if r == 0:
        n = rnd.randint(0, 20)
        text, value = str(n), ring.monomial((0,) * ring.nvars, n)
    elif r == 1:
        name = rnd.choice(ring.variables)
        text, value = name, ring.var(name)
    else:
        inner, value = _sum_text(rnd, ring, depth - 1)
        text = "(" + _blank(rnd) + inner + _blank(rnd) + ")"
    if rnd.random() < 0.3:
        k = rnd.randint(0, 3)
        text += _blank(rnd) + "^" + _blank(rnd) + str(k)
        value = reduce(mul, [value] * k, ring.one())
    return text, value


def _term_text(rnd, ring, depth):
    text, value = _factor_text(rnd, ring, depth)
    for _ in range(rnd.randint(0, 2)):
        factor, f = _factor_text(rnd, ring, depth)
        if rnd.random() < 0.5:
            text += _blank(rnd) + "*" + _blank(rnd) + factor
        else:  # juxtaposed, with a blank where two tokens would merge
            merge = text[-1].isalnum() and factor[0].isalnum()
            text += (" " if merge else "") + _blank(rnd) + factor
        value = value * f
    return text, value


def _sum_text(rnd, ring, depth):
    """(text, value) of a random sum: the value is built from the same
    tree by Polynomial arithmetic, never from text."""
    text, value = "", ring.zero()
    for k in range(rnd.randint(1, 3)):
        op = rnd.choice(["+", "-", "−"] if k else ["", "", "+", "-", "−"])
        term, t = _term_text(rnd, ring, depth)
        text += (_blank(rnd) if k else "") + op + _blank(rnd) + term
        value = value + t if op in ("", "+") else value - t
    return text, value


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 101]), st.integers(0, 2**32))
def test_parsed_text_equals_its_expression_tree(p, seed):
    ring = Ring(p, ["x", "y", "z1"])
    text, value = _sum_text(random.Random(seed), ring, 3)
    assert ring.poly(text) == value, text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_no_zero_coefficients(data):
    """Every arithmetic entry returns coefficients in [1, p) and no zero
    terms, also for multipliers that are negative, >= p or 0 mod p."""
    p = 5
    ring = Ring(p, ["x", "y"])
    f = data.draw(_polys(ring))
    g = data.draw(_polys(ring))
    k = data.draw(st.sampled_from([-7, -5, -1, 0, 3, 5, 6, 10, 2**40 + 1]))
    mono = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    h = f + ring.monomial((p, 1), 3)  # d/dx of 3*x^p*y is 3p*x^(p-1)*y = 0
    results = [f + g, -f, f - g, f - f, f * k, k * f, f * g, f * (g * k),
               f.term_mul(mono, k), h.partial(0), h.partial(1),
               ring.monomial(mono, k), f.frobenius(p), (f * k).frobenius(p * p)]
    for r in results:
        for m, c in r.terms.items():
            assert 1 <= c < p and len(m) == 2
    assert (f - f).is_zero() and f.term_mul(mono, p).is_zero()
    assert h.partial(0) == f.partial(0)
    assert f * k == f * (k % p) and ring.monomial(mono, k) == ring.monomial(mono, k % p)
