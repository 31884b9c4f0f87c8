"""Ideal operations: products, bracket powers, colons, minimal
generators, dimension, parameter detection, random families."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import (Ideal, InfiniteColengthError, Polynomial, Ring,
                    is_parameter_ideal, krull_dim, maximal_ideal, random_ideal)
from hkprod import buchberger, groebner, hk_table
from hkprod.ideals import FAMILIES

from .oracles import brute_colength, rescan_normal_form
from .strategies import bounded_ideals, polys, rings


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


@settings(max_examples=100, deadline=None)
@given(bounded_ideals(ring=rings(primes=(2, 3, 5), quotients=False)), st.booleans())
def test_kunz_scaled_bracket_colength_matches_both_counts(case, square):
    """A polynomial-ring bracket power takes its colength q^n * lambda(R/I)
    from Kunz's theorem; Buchberger on the powered generators, and the
    staircase of the bracket's own reduced basis, each count it anew."""
    ring, gens, _ = case
    q = ring.p ** 2 if square else ring.p
    B = Ideal(ring, gens).bracket_power(q)
    colength = B.colength()
    assert colength == Ideal(ring, [g.frobenius(q) for g in gens]).colength()
    assert colength == groebner.staircase_count(
        [g.leading_monomial() for g in B.groebner_basis], ring.nvars)


def test_kunz_scaled_bracket_colength_pinned(F2xy, F2xyz):
    for q in (2, 4, 8):
        assert I_(F2xy, "x").bracket_power(q).colength() is None
        assert I_(F2xy, "1").bracket_power(q).colength() == 0
    assert I_(F2xyz, "x^2 + y*z", "y^2", "z^3").bracket_power(8).colength() == 6144


def test_table_counts_one_staircase_on_polynomial_rings(F2xyz, fermat, monkeypatch):
    # a polynomial-ring table scales lambda(R/I) to every level; a
    # quotient's brackets run Buchberger and count their own staircases
    calls = []
    count = groebner.staircase_count
    monkeypatch.setattr(groebner, "staircase_count",
                        lambda *args: calls.append(args) or count(*args))
    assert ([r.colength for r in hk_table(I_(F2xyz, "x^2 + y*z", "y^2", "z^3"), 3).rows]
            == [12, 96, 768, 6144])
    assert len(calls) == 1
    calls.clear()
    assert len(hk_table(maximal_ideal(fermat), 3).rows) == len(calls) == 4


def count_engine_runs(monkeypatch) -> list:
    """Record the arguments of every Groebner engine run from now on."""
    built = []
    engine = groebner.Reducers.from_engine
    monkeypatch.setattr(groebner.Reducers, "from_engine",
                        classmethod(lambda cls, *args: built.append(args) or engine(*args)))
    return built


def test_bracket_power_basis_is_transported_on_polynomial_rings(F2xyz, fermat, monkeypatch):
    built = count_engine_runs(monkeypatch)
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


def test_transported_bracket_is_packed_only_at_its_first_division(F2xyz, monkeypatch):
    # the colength of a transported G^[q] is scaled from lambda(R/I):
    # a table of such brackets builds no layout and packs no term, and
    # the first division packs G^[q] once for every later one
    I = I_(F2xyz, "x^2 + y*z", "y^2", "z^3")
    assert I.colength() == 12
    I.groebner_basis
    calls = []
    init, pack = groebner._Layout.__init__, groebner._Layout.pack
    monkeypatch.setattr(groebner._Layout, "__init__",
                        lambda *args: calls.append("layout") or init(*args))
    monkeypatch.setattr(groebner._Layout, "pack",
                        lambda *args: calls.append("pack") or pack(*args))
    assert [r.colength for r in hk_table(I, 3).rows] == [12, 96, 768, 6144]
    assert calls == []
    B = I.bracket_power(8)
    f = F2xyz.poly("x^17*y + y^9*z^8 + x*y*z")
    assert B.normal_form(f) == rescan_normal_form(f, B.groebner_basis)
    assert calls.count("layout") == 1
    reducers = B.reducers
    g = F2xyz.poly("x^16*z^3 + y^8")
    assert B.normal_form(g) == rescan_normal_form(g, B.groebner_basis)
    assert B.reducers is reducers
    assert calls.count("layout") == 1
    assert calls.count("pack") == len(B.groebner_basis) + 2


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
    built = count_engine_runs(monkeypatch)
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


@settings(max_examples=100, deadline=None)
@given(bounded_ideals(), st.data())
def test_ideal_answers_from_the_engine_reducers_agree_with_the_oracles(case, data):
    """Colength from the packed leads, division by the packed minimal
    basis, and the reduced basis that groebner_basis unpacks and
    interreduces afterwards."""
    ring, gens, exact = case
    I = Ideal(ring, gens)
    assert I.colength() == brute_colength(gens, ring, max_deg=exact, slack=0)
    gb = buchberger(gens, ring)
    f = data.draw(polys(ring, max_terms=4, max_degree=6))
    assert I.normal_form(f) == rescan_normal_form(f, gb)
    assert I.groebner_basis == gb


def test_division_repacks_a_basis_that_was_never_unpacked():
    # the engine packs this basis in one-byte fields, exponents up to
    # 127; the dividend does not fit them, so the division unpacks the
    # basis from the engine's rows and repacks it wider
    ring = Ring(3, "xyz")
    gens = [ring.poly("x^2 + y*z"), ring.poly("y^3 + x*z")]
    I = Ideal(ring, gens)
    assert I.colength() is None
    assert I.reducers.lay.field_bytes == 1 and I.reducers._basis is None
    f = ring.poly("x^130*z + 2*x*y^129 + z^140 + x*y")
    gb = buchberger(gens, ring)
    assert I.normal_form(f) == rescan_normal_form(f, gb)
    assert I.reducers.lay.field_bytes == 2
    assert {pos: sorted(leads) for pos, leads in I.reducers.leads().items()} == {
        0: sorted(g.leading_monomial() for g in gb)}


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


def _gens(ideals):
    return [[str(g) for g in i.gens] for i in ideals]


def test_random_families_deterministic(F2xy):
    for family in FAMILIES:
        rng_a, rng_b = random.Random(42), random.Random(42)
        a = [random_ideal(rng_a, F2xy, family, 3) for _ in range(5)]
        b = [random_ideal(rng_b, F2xy, family, 3) for _ in range(5)]
        assert _gens(a) == _gens(b)
        assert all(i.is_m_primary() for i in a)


# The first three ideals of every family from Random(42).  Every verify
# trial draws its ideals this way, so a changed stream changes the trial
# outputs.  The second dense draw on F_2[x,y] has a generator that
# cancels to zero and is dropped.
PINNED_STREAMS = {
    "F2xy": (3, {
        "monomial": [["x^3", "y"], ["x^3", "y^2"], ["x", "y", "x", "x^2*y"]],
        "binomial": [["x^3", "y", "x^2*y + x"], ["x^3", "y^3", "x^2*y + x*y^2"],
                     ["x^2", "y^2", "x^2 + x*y"]],
        "dense": [["x*y^2 + x*y", "x^3 + x*y + y^2", "x*y + y^2 + x"],
                  ["y^3 + x", "x^2*y + x"], ["x*y", "x*y^2 + y", "x + y"]],
        "parameter-powers": [["x^3", "y"], ["x", "y^3"], ["x^2", "y"]],
    }),
    "fermat": (2, {
        "monomial": [["x", "y", "z^2", "x"], ["x", "y", "z^2"],
                     ["x", "y", "z", "z"]],
        "binomial": [["x", "y", "z^2", "x", "x^2 + z"],
                     ["x", "y", "z", "x*y", "y^2 + x", "x + y"],
                     ["x", "y^2", "z^2", "z", "x*z", "z^2 + z", "x + z"]],
        "dense": [["x^2 + z", "y*z + z", "x^2 + x + y"],
                  ["x*z + z^2 + y + z", "x + y", "x*y + y*z + z",
                   "x^2 + y^2 + y*z + x"],
                  ["x*z + y*z", "y*z", "x + z", "x*y + y*z + y + z"]],
        "parameter-powers": [["x", "y"], ["x^2", "y"], ["x", "y"]],
    }),
}


@pytest.mark.parametrize("ring_name", sorted(PINNED_STREAMS))
def test_random_ideal_streams_pinned(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    bound, streams = PINNED_STREAMS[ring_name]
    assert sorted(streams) == sorted(FAMILIES)
    for family, expected in streams.items():
        rng = random.Random(42)
        assert _gens(random_ideal(rng, ring, family, bound)
                     for _ in range(3)) == expected


def test_parameter_powers_family_colength(F5xyz):
    rng = random.Random(3)
    for J in [random_ideal(rng, F5xyz, "parameter-powers", 4) for _ in range(10)]:
        exps = [g.leading_monomial() for g in J.gens]
        expected = 1
        for m in exps:
            expected *= sum(m)
        assert J.colength_strict() == expected
        assert is_parameter_ideal(J)


def test_random_ideal_validation(F2xy):
    with pytest.raises(ValueError, match="unknown family"):
        random_ideal(random.Random(0), F2xy, "nope", 2)
    with pytest.raises(ValueError, match="degree bound"):
        random_ideal(random.Random(0), F2xy, "monomial", 0)


def test_power_requires_positive_exponent(F2xy):
    with pytest.raises(ValueError):
        I_(F2xy, "x").power(0)
