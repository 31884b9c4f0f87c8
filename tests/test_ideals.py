"""Ideal operations: products, bracket powers, colons, minimal
generators, dimension, parameter detection, random families."""

import random
import signal
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import (Ideal, InfiniteColengthError, Polynomial, Ring,
                    is_parameter_ideal, krull_dim, maximal_ideal, random_ideal)
from hkprod import buchberger, groebner, hk_table
from hkprod.ideals import FAMILIES

from .oracles import (brute_colength, rational_normal_curve, rescan_normal_form,
                      subset_dim, toric_colength, toric_exponents, toric_hk)
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
    """The basis of a bracket power is what Buchberger makes of the q-th
    powers of the generators, on polynomial rings and on the Fermat
    cubic alike, and it is a Groebner basis."""
    ring, gens, _ = case
    q = ring.p ** 2 if square and ring.p < 2**31 - 1 else ring.p
    basis = Ideal(ring, gens).bracket_power(q).groebner_basis
    assert basis == buchberger([g.frobenius(q) for g in gens], ring)
    assert buchberger(basis, ring) == basis


@settings(max_examples=100, deadline=None)
@given(bounded_ideals(ring=rings(primes=(2, 3, 5), quotients=False)), st.booleans())
def test_kunz_scaled_bracket_colength_matches_both_counts(case, square):
    """On a polynomial ring bracket_colength takes q^n * lambda(R/I) from
    Kunz's theorem; the bracket power, Buchberger on the powered
    generators, and the staircase of its reduced basis each count it
    anew."""
    ring, gens, _ = case
    q = ring.p ** 2 if square else ring.p
    I = Ideal(ring, gens)
    B = I.bracket_power(q)
    assert I.bracket_colength(q) == B.colength() == groebner.staircase_count(
        [g.leading_monomial() for g in B.groebner_basis], ring.nvars)


def test_kunz_scaled_bracket_colength_pinned(F2xy, F2xyz):
    for q in (2, 4, 8):
        assert I_(F2xy, "x").bracket_power(q).colength() is None
        with pytest.raises(InfiniteColengthError):
            I_(F2xy, "x").bracket_colength(q)
        assert I_(F2xy, "1").bracket_power(q).colength() == 0
        assert I_(F2xy, "1").bracket_colength(q) == 0
    I = I_(F2xyz, "x^2 + y*z", "y^2", "z^3")
    assert I.bracket_colength(8) == I.bracket_power(8).colength() == 6144
    assert I.bracket_colength(1) == 12
    with pytest.raises(ValueError, match="not a power"):
        I.bracket_colength(6)


@settings(max_examples=100, deadline=None)
@given(bounded_ideals(ring=rings(primes=(2, 3, 5), quotients=False)), st.booleans(),
       st.data())
def test_polynomial_bracket_divides_like_the_transported_basis(case, square, data):
    """A polynomial-ring bracket power is generated by the powered
    generators, and divides by the engine's basis of them.  By Kunz's
    theorem G^[q], G the reduced basis of I, is a Groebner basis of I^[q]
    too, so division by it, the reference here, leaves the same normal
    forms."""
    ring, gens, _ = case
    q = ring.p ** 2 if square else ring.p
    I = Ideal(ring, gens)
    B = I.bracket_power(q)
    powered = [g.frobenius(q) for g in I.gens]
    assert B.gens == tuple(powered)
    transported = [g.frobenius(q) for g in buchberger(gens, ring)]
    for _ in range(3):
        f = data.draw(polys(ring, max_terms=2, max_degree=2))
        for g in powered:
            f = f + data.draw(polys(ring, max_terms=2, max_degree=2)) * g
        assert B.normal_form(f) == rescan_normal_form(f, transported)


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


def test_polynomial_bracket_colength_runs_no_engine(F2xyz, fermat, monkeypatch):
    built = count_engine_runs(monkeypatch)
    I = I_(F2xyz, "x^2 + y*z", "y^2", "z^3")
    assert I.colength() == 12
    built.clear()
    assert I.bracket_colength(8) == 8**3 * 12
    assert built == []
    # over a quotient the bracket power runs Buchberger, once
    J = I_(fermat, "y", "z")
    assert J.colength() == 3
    built.clear()
    assert J.bracket_colength(8) == 3 * 8**2
    assert J.bracket_colength(8) == 3 * 8**2
    assert len(built) == 1


def test_polynomial_bracket_runs_the_engine_at_its_first_division(F2xyz, monkeypatch):
    # a polynomial-ring table scales lambda(R/I) and builds no bracket,
    # so it builds no layout and packs no term; the bracket's first
    # division runs the engine once for every later one
    I = I_(F2xyz, "x^2 + y*z", "y^2", "z^3")
    assert I.colength() == 12
    transported = [g.frobenius(8) for g in I.groebner_basis]
    calls = []
    init, pack = groebner._Layout.__init__, groebner._Layout.pack
    monkeypatch.setattr(groebner._Layout, "__init__",
                        lambda *args: calls.append("layout") or init(*args))
    monkeypatch.setattr(groebner._Layout, "pack",
                        lambda *args: calls.append("pack") or pack(*args))
    assert [r.colength for r in hk_table(I, 3).rows] == [12, 96, 768, 6144]
    assert calls == []
    built = count_engine_runs(monkeypatch)
    B = I.bracket_power(8)
    f = F2xyz.poly("x^17*y + y^9*z^8 + x*y*z")
    assert B.normal_form(f) == rescan_normal_form(f, transported)
    assert len(built) == 1
    reducers = B.reducers
    g = F2xyz.poly("x^16*z^3 + y^8")
    assert B.normal_form(g) == rescan_normal_form(g, transported)
    assert B.reducers is reducers
    assert len(built) == 1


def test_bracket_power_on_polynomial_rings_powers_the_generators_once(F2xyz, monkeypatch):
    # bracket_colength powers nothing and runs no engine; bracket_power
    # powers each generator once, and its colength is Buchberger's count
    I = I_(F2xyz, "x^2 + y*z", "y^2 + x*z", "z^3", "x*y*z")
    lam = I.colength()
    built = count_engine_runs(monkeypatch)
    powered = []
    frobenius = Polynomial.frobenius
    monkeypatch.setattr(Polynomial, "frobenius",
                        lambda f, q: powered.append(f) or frobenius(f, q))
    assert I.bracket_colength(8) == 8**3 * lam
    assert powered == [] and built == []
    B = I.bracket_power(8)
    assert I.bracket_power(8) is B
    assert powered == list(I.gens)
    assert B.colength() == 8**3 * lam
    assert len(built) == 1


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


@settings(max_examples=60, deadline=None)
@given(bounded_ideals())
def test_min_gens_matches_the_oracle_on_the_written_out_product(case):
    """mu(I) from the packed basis times each variable against the
    truncated-span oracle on the products x_i * g written out.  The
    pure powers times m bound the quotient by mI one degree above I's,
    and its generators are one degree higher: two more degrees keep the
    oracle exact."""
    ring, gens, exact = case
    mI = [ring.var(i) * g for i in range(ring.nvars) for g in gens]
    lam = brute_colength(gens, ring, max_deg=exact, slack=0)
    assert Ideal(ring, gens).min_gens() == brute_colength(mI, ring, max_deg=exact + 2,
                                                          slack=0) - lam


def test_min_gens_of_the_unit_and_the_zero_ideal():
    assert I_(Ring(2, "xy"), "1").min_gens() == 1
    # (0) of F_2[x]/(x^2): m(0) + Q = Q, so lambda(R/mI) = lambda(R/I) = 2
    assert Ideal(Ring(2, "x", relations=["x^2"]), []).min_gens() == 0


def test_min_gens_widens_when_a_shifted_term_overflows(monkeypatch):
    # the basis of I holds z^127, the largest exponent of a one-byte
    # field, so z times it overflows and the run is widened once
    ring = Ring(2, "xyz", order="lex")
    I = I_(ring, "x + z^63", "y + z^63", "x*y*z")
    assert I.colength() == 127 and I.reducers.lay.field_bytes == 1
    widened, runs = [], []
    layout, engine = groebner.Reducers._layout, groebner._buchberger
    monkeypatch.setattr(groebner.Reducers, "_layout",
                        lambda self, *args: widened.append(args) or layout(self, *args))
    # no term reaches the engine with a guard bit set
    monkeypatch.setattr(groebner, "_buchberger", lambda works, lay: runs.append(
        (lay.field_bytes, any(e & lay.guard for w in works for e in w))) or engine(works, lay))
    assert I.min_gens() == 3
    assert widened == [((), 2, 1)] and runs == [(2, False)]
    monkeypatch.undo()
    # the basis was repacked wider in place and still divides
    assert I.reducers.lay.field_bytes == 2
    assert I.contains(ring.poly("z^127")) and not I.contains(ring.poly("z^126"))
    assert (maximal_ideal(ring) * I).colength() - 127 == 3


@pytest.mark.parametrize("quotient", [False, True])
def test_min_gens_builds_no_product_from_cached_reducers(quotient, monkeypatch):
    ring = (Ring(2, "xyz", relations=["x^3+y^3+z^3"]) if quotient
            else Ring(3, "xyz"))
    I = I_(ring, "x^2 + y*z", "y^2", "z^3 + x*y")
    I.colength()
    calls = []
    for owner, name in [(Polynomial, "__mul__"), (Ideal, "__init__"),
                        (groebner.Reducers, "_repack"), (groebner, "as_vector")]:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, original=original, name=name:
                            calls.append(name) or original(*args))
    mu = I.min_gens()
    monkeypatch.undo()
    # only the relation enters as a vector
    assert calls == (["as_vector"] if quotient else [])
    assert mu == (maximal_ideal(ring) * I).colength() - I.colength()


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


@st.composite
def monomial_quotients(draw):
    """Rings with up to 8 variables modulo up to 6 monomial relations."""
    n = draw(st.integers(1, 8))
    names = [f"x{i}" for i in range(n)]
    relations = []
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        relations.append("*".join(names[i] for i in support))
    return Ring(2, names, relations=relations, order=draw(st.sampled_from(["grevlex", "lex"])))


@given(monomial_quotients())
def test_krull_dim_matches_subset_enumeration(ring):
    assert krull_dim(ring) == subset_dim(ring)


def test_krull_dim_of_a_long_path_ring_is_fast():
    # F_2[x_0..x_39]/(x_i x_{i+1}): an exhaustive subset search takes 44 s
    # at 26 variables, and 4x more for every two variables added
    def too_slow(signum, frame):
        raise TimeoutError("krull_dim took more than 5 s")

    ring = Ring(2, [f"x{i}" for i in range(40)],
                relations=[f"x{i}*x{i + 1}" for i in range(39)])
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        assert krull_dim(ring) == 20
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_colength_of_a_wide_maximal_ideal_is_fast():
    # m is generated by terms, so the engine returns its generators
    # without a pair update; the Gebauer-Moeller update over its 600
    # coprime leads took 8 s
    def too_slow(signum, frame):
        raise TimeoutError("colength took more than 5 s")

    ring = Ring(2, [f"x{i}" for i in range(600)])
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        assert maximal_ideal(ring).colength() == 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_bracket_colength_on_rational_normal_curves_matches_lattice_count(n, p):
    # C(n, 2) quadric relations: the only rings with several relations
    ring = rational_normal_curve(n, p)
    assert len(ring.relations) == n * (n - 1) // 2 and krull_dim(ring) == 2
    rng = random.Random(100 * n + p)
    for _ in range(6):
        exps = toric_exponents(rng, n)
        I = I_(ring, *(ring.monomial(e) for e in exps))
        for q in (1, p, p * p):
            assert I.bracket_power(q).colength() == toric_colength(n, exps, q), (exps, q)


def test_toric_hk_product_bound_and_its_equality_case():
    # e_HK(IJ) <= mu(J) e_HK(I) + e_HK(J), and equality forces J inside I,
    # on about 200 random monomial pairs: e_HK from exact staircase areas,
    # mu(J) and the containment from the engine
    for n in (2, 3, 4):
        ring = rational_normal_curve(n, 2)
        m = [tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)]
        assert toric_hk(n, m) == Fraction(n + 1, 2)
        rng = random.Random(n)
        equalities = 0
        for _ in range(67):
            e_I, e_J = toric_exponents(rng, n), toric_exponents(rng, n)
            e_IJ = [tuple(map(add, a, b)) for a in e_I for b in e_J]
            I, J = (I_(ring, *(ring.monomial(e) for e in exps)) for exps in (e_I, e_J))
            lhs = toric_hk(n, e_IJ)
            rhs = J.min_gens() * toric_hk(n, e_I) + toric_hk(n, e_J)
            assert lhs <= rhs, (e_I, e_J)
            if lhs == rhs:
                equalities += 1
                assert I.contains_ideal(J), (e_I, e_J)
        assert equalities > 0, n


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


@pytest.mark.parametrize("relation, variables", [("x^2", ["y", "z"]),
                                                  ("x*z + y^2", ["x", "z"])])
def test_parameter_powers_off_the_first_variables(relation, variables):
    # the first d = 2 variables are no parameters here: (x, y) misses z
    ring = Ring(2, ["x", "y", "z"], relations=[relation])
    rng = random.Random(0)
    for J in [random_ideal(rng, ring, "parameter-powers", 3) for _ in range(5)]:
        assert [str(g).split("^")[0] for g in J.gens] == variables
        assert is_parameter_ideal(J)


def test_parameter_powers_refused_at_once_when_no_powers_fit():
    ring = Ring(2, ["x", "y"], relations=["x*y"])
    with pytest.raises(InfiniteColengthError, match="no powers of the variables"):
        random_ideal(random.Random(0), ring, "parameter-powers", 3)


def test_random_ideal_validation(F2xy):
    with pytest.raises(ValueError, match="unknown family"):
        random_ideal(random.Random(0), F2xy, "nope", 2)
    with pytest.raises(ValueError, match="degree bound"):
        random_ideal(random.Random(0), F2xy, "monomial", 0)


def test_power_requires_positive_exponent(F2xy):
    with pytest.raises(ValueError):
        I_(F2xy, "x").power(0)
