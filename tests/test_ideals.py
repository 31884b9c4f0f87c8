"""Ideal operations: products, bracket powers, colons, minimal
generators, dimension, parameter detection, random families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import (Ideal, InfiniteColengthError, Polynomial, Ring, TrialSpec,
                    is_parameter_ideal, krull_dim, maximal_ideal,
                    random_ideals)
from hkprod import buchberger, groebner
from hkprod.ideals import FAMILIES

from .oracles import brute_colength
from .strategies import bounded_ideals


def I_(ring, *gens):
    return Ideal(ring, list(gens))


def test_product_of_maximal_ideal(F2xy):
    m = maximal_ideal(F2xy)
    prod = m * m
    assert prod.equals(I_(F2xy, "x^2", "x*y", "y^2"))
    assert prod.equals(m.power(2))


def test_product_mixed(F2xy):
    prod = I_(F2xy, "x^2", "y^2") * maximal_ideal(F2xy)
    assert prod.equals(I_(F2xy, "x^3", "x^2*y", "x*y^2", "y^3"))


def test_sum_absorbs(F2xy):
    assert (I_(F2xy, "x^2", "y^2") + I_(F2xy, "x", "y")).equals(I_(F2xy, "x", "y"))


def test_bracket_power_basics(F2xy):
    I = I_(F2xy, "x + y", "y^2")
    assert I.bracket_power(1) is I
    assert I.bracket_power(4).equals(I_(F2xy, "x^4 + y^4", "y^8"))
    with pytest.raises(ValueError):
        I.bracket_power(3)


def test_bracket_power_distributes_over_sums(F3xy):
    I = I_(F3xy, "x^2 + y", "y^2")
    J = I_(F3xy, "x*y", "y^3 + x")
    lhs = (I + J).bracket_power(9)
    rhs = I.bracket_power(9) + J.bracket_power(9)
    assert lhs.equals(rhs)


@settings(max_examples=150, deadline=None)
@given(bounded_ideals(), st.booleans())
def test_bracket_power_basis_is_buchberger_on_the_bracket_generators(case, square):
    """On polynomial rings bracket_power takes G^[q] for the basis, which
    must be what Buchberger makes of the q-th powers of the generators;
    the Fermat cubic draws check that quotients still compute it."""
    ring, gens, _ = case
    q = ring.p ** 2 if square and ring.p < 2**31 - 1 else ring.p
    basis = Ideal(ring, gens).bracket_power(q).groebner_basis
    assert basis == buchberger([g.frobenius(q) for g in gens], ring)
    assert buchberger(basis, ring) == basis


def test_bracket_power_basis_is_transported_on_polynomial_rings(F2xyz, fermat, monkeypatch):
    built = []
    engine = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *args: built.append(args) or engine(*args))
    I = I_(F2xyz, "x^2 + y*z", "y^2", "z^3")
    assert I.colength() == 12
    built.clear()
    assert I.bracket_power(8).colength() == 8**3 * 12
    assert built == []
    # over a quotient the bracket power runs Buchberger
    J = I_(fermat, "y", "z")
    assert J.colength() == 3
    built.clear()
    assert J.bracket_power(8).colength() == 3 * 8**2
    assert len(built) == 1


def test_bracket_power_on_polynomial_rings_powers_the_basis_once(F2xyz, monkeypatch):
    I = I_(F2xyz, "x^2 + y*z", "y^2 + x*z", "z^3", "x*y*z")
    G = I.groebner_basis
    powered = []
    frobenius = Polynomial.frobenius
    monkeypatch.setattr(Polynomial, "frobenius",
                        lambda f, q: powered.append(f) or frobenius(f, q))
    B = I.bracket_power(8)
    assert powered == list(G)
    assert list(B.gens) == B.groebner_basis == [g.frobenius(8) for g in G]
    assert B.colength() == 8**3 * I.colength()


def test_colon_spec_value(F2xy):
    colon = I_(F2xy, "x^2", "y^2").colon(F2xy.poly("x"))
    assert colon.equals(I_(F2xy, "x", "y^2"))


def test_colon_recovers_ideal_for_nonzerodivisor(F3xy):
    I = I_(F3xy, "x^2", "x*y + y^3")
    f = F3xy.poly("x + y")
    fI = Ideal(F3xy, [f * g for g in I.gens])
    assert fI.colon(f).equals(I)


def test_colon_over_quotient(fermat):
    # x * x^2 = y^3 + z^3 in the quotient, so x^2 lies in ((y^3, z^3) : x)
    colon = I_(fermat, "y^3", "z^3").colon(fermat.poly("x"))
    assert colon.contains(fermat.poly("x^2"))


def test_min_gens(F2xy, F3xy):
    assert I_(F2xy, "x^2", "x*y", "y^2").min_gens() == 3
    assert I_(F2xy, "x", "x + y", "y").min_gens() == 2
    assert I_(F3xy, "x^2", "y^5").min_gens() == 2


def test_min_gens_is_cached(F2xy, monkeypatch):
    I = I_(F2xy, "x^2", "x*y", "y^2")
    assert I.min_gens() == 3
    built = []
    engine = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *args: built.append(args) or engine(*args))
    assert I.min_gens() == 3
    assert built == []
    # the count sees the bases that a fresh ideal builds
    assert I_(F2xy, "x^2", "y^2").min_gens() == 2
    assert built


def test_minimal_generators_trims(F2xy):
    gens = I_(F2xy, "x", "x + y", "y").minimal_generators()
    assert len(gens) == 2
    assert Ideal(F2xy, gens).equals(maximal_ideal(F2xy))


def test_minimal_generators_nonstrict_on_stubborn_fixture(F2xy):
    # equals (x, y) but no single listed generator is redundant
    I = I_(F2xy, "x^2 + y", "y^2", "x^2*y + x*y^2 + x")
    assert I.min_gens() == 2
    assert I.equals(maximal_ideal(F2xy))
    # the reduced basis trims down to mu elements even when the raw
    # generators do not
    assert len(I.minimal_generators()) == 2


@st.composite
def trim_inputs(draw):
    """Monomial and binomial ideals over F_2[x,y] and the Fermat cubic:
    some pure powers, then further monomials and binomials in shuffled
    order, duplicates and redundant generators included.  Without a pure
    power of every variable the ideal is seldom m-primary, and then the
    trimmed generators are returned without the reduced-basis fallback."""
    ring = draw(st.sampled_from([Ring(2, "xy"),
                                 Ring(2, "xyz", relations=["x^3+y^3+z^3"])]))
    n = ring.nvars
    exps = st.tuples(*[st.integers(0, 3)] * n)
    mono = ring.monomial
    gens = [mono([draw(st.integers(1, 4)) if j == i else 0 for j in range(n)])
            for i in range(n) if draw(st.booleans())]
    gens += [mono(e) for e in draw(st.lists(exps, min_size=1, max_size=3))]
    gens += [mono(a) + mono(b)
             for a, b in draw(st.lists(st.tuples(exps, exps), max_size=2))]
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return Ideal(ring, draw(st.permutations(gens)))


@settings(max_examples=60, deadline=None)
@given(trim_inputs())
def test_minimal_generators_trim_is_irredundant(I):
    gens = I.minimal_generators()
    assert Ideal(I.ring, gens).equals(I)
    for i, g in enumerate(gens):
        assert not Ideal(I.ring, gens[:i] + gens[i + 1:]).contains(g)


def test_colength_finiteness(F2xy):
    assert I_(F2xy, "x^2", "y^3").colength() == 6
    assert I_(F2xy, "x").colength() is None
    with pytest.raises(InfiniteColengthError):
        I_(F2xy, "x").colength_strict()


def test_colength_against_brute_force_dense(F3xy):
    I = I_(F3xy, "x^2 + 2*y^3", "y^4", "x*y + y^2")
    assert I.colength_strict() == brute_colength(I.gens, F3xy)


def test_krull_dim(F2xy, fermat):
    assert krull_dim(F2xy) == 2
    assert krull_dim(fermat) == 2
    assert krull_dim(Ring(2, ["x"], relations=["x^2"])) == 0


def test_is_parameter_ideal(F3xy, fermat):
    assert is_parameter_ideal(I_(F3xy, "x^2", "y^5"))
    assert not is_parameter_ideal(I_(F3xy, "x^2", "x*y", "y^2"))
    assert not is_parameter_ideal(I_(F3xy, "x"))  # infinite colength
    assert is_parameter_ideal(I_(fermat, "y", "z"))


def test_fermat_parameter_colength(fermat):
    J = I_(fermat, "y", "z")
    assert J.colength() == 3
    assert J.power(2).colength() == 9


def test_random_families_deterministic(F2xy):
    for family in FAMILIES:
        spec = TrialSpec(seed=42, family=family, degree_bound=3, count=5)
        a = random_ideals(spec, F2xy)
        b = random_ideals(spec, F2xy)
        assert [[str(g) for g in i.gens] for i in a] == \
               [[str(g) for g in i.gens] for i in b]
        assert all(i.is_m_primary() for i in a)


def test_parameter_powers_family_colength(F5xyz):
    spec = TrialSpec(seed=3, family="parameter-powers", degree_bound=4, count=10)
    for J in random_ideals(spec, F5xyz):
        exps = [g.leading_monomial() for g in J.gens]
        expected = 1
        for m in exps:
            expected *= sum(m)
        assert J.colength_strict() == expected
        assert is_parameter_ideal(J)


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(seed=0, family="nope", degree_bound=2, count=1)
    with pytest.raises(ValueError):
        TrialSpec(seed=0, family="monomial", degree_bound=0, count=1)


def test_power_requires_positive_exponent(F2xy):
    with pytest.raises(ValueError):
        I_(F2xy, "x").power(0)
