"""Hilbert-Kunz tables, estimates, monomial volumes, star spread, and
the membership probe."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import (Ideal, InfiniteColengthError, Polynomial, Ring, groebner, hk_estimate,
                    hk_table, jacobian_candidates, krull_dim,
                    monomial_hk_volume, random_ideal, star_spread, tc_probe)
from hkprod.hk import levels

from .oracles import (diagonal_colength, hypersurface_colon_sides, rational_normal_curve,
                      subset_volume, toric_colength, toric_exponents, toric_hk)
from .strategies import polys


def I_(ring, *gens):
    return Ideal(ring, list(gens))


def test_table_on_fermat_parameter(fermat):
    table = hk_table(I_(fermat, "y", "z"), 3)
    assert [r.colength for r in table.rows] == [3, 12, 48, 192]
    assert all(r.normalized == 3 for r in table.rows)
    assert table.d == 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_on_rational_normal_curves_matches_lattice_count(n, p):
    # C(n, 2) quadric relations, p up to 5: each row against the lattice
    # count, which needs no Groebner basis
    ring = rational_normal_curve(n, p)
    rng = random.Random(1000 + 10 * n + p)
    for _ in range(4):
        exps = toric_exponents(rng, n)
        table = hk_table(I_(ring, *(ring.monomial(e) for e in exps)), 2)
        lengths = {q: toric_colength(n, exps, q) for q in (1, p, p * p)}
        assert table.d == 2
        assert [(r.q, r.colength, r.normalized) for r in table.rows] == [
            (q, lam, Fraction(lam, q * q)) for q, lam in lengths.items()], exps


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_parameter_square_on_rational_normal_curves_matches_lattice_count(n, p):
    # J = (a_0^i, a_n^j) is a monomial parameter ideal of the 2-dimensional
    # R_n: each row of J^2, a product of packed bases whose generators a
    # bracket writes out, against the lattice count of J^2's exponents,
    # and e_HK(J^2) = (d+1)*e_HK(J) from the exact staircase areas
    ring = rational_normal_curve(n, p)
    for i in (1, 2):
        for j in (1, 2):
            e_J = [(i,) + (0,) * n, (0,) * n + (j,)]
            e_J2 = [tuple(map(add, a, b)) for a, b in combinations_with_replacement(e_J, 2)]
            J = I_(ring, *(ring.monomial(e) for e in e_J))
            table = hk_table(J.power(2), 2)
            assert [(r.q, r.colength) for r in table.rows] == [
                (q, toric_colength(n, e_J2, q)) for q in (1, p, p * p)], e_J
            assert toric_hk(n, e_J2) == 3 * toric_hk(n, e_J), e_J


def test_quotient_table_reads_only_the_engine_leads(monkeypatch):
    # a colength counts the staircase of the engine's packed leading
    # terms: with the ring's dimension known, no basis of the table is
    # interreduced and no term is unpacked
    ring = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
    IJ = I_(ring, "x^2+y*z", "y^2", "z^2") * I_(ring, "x+y", "y*z", "z^2")
    krull_dim(ring)
    calls = []
    interreduce, unpack = groebner.interreduce, groebner._Layout.unpack
    monkeypatch.setattr(groebner, "interreduce",
                        lambda *args: calls.append("interreduce") or interreduce(*args))
    monkeypatch.setattr(groebner._Layout, "unpack",
                        lambda *args: calls.append("unpack") or unpack(*args))
    assert [r.colength for r in hk_table(IJ, 2).rows] == [17, 229, 2137]
    assert calls == []


def test_polynomial_table_reads_only_the_engine_leads(F2xyz, monkeypatch):
    # a polynomial-ring table scales lambda(R/I) to every level and
    # builds no bracket: it interreduces no basis and unpacks no term
    calls = []
    interreduce, unpack = groebner.interreduce, groebner._Layout.unpack
    monkeypatch.setattr(groebner, "interreduce",
                        lambda *args: calls.append("interreduce") or interreduce(*args))
    monkeypatch.setattr(groebner._Layout, "unpack",
                        lambda *args: calls.append("unpack") or unpack(*args))
    I = I_(F2xyz, "x^2+y*z", "y^2", "z^3")
    assert [r.colength for r in hk_table(I, 3).rows] == [12, 96, 768, 6144]
    assert calls == []


def test_polynomial_table_powers_no_generator(F2xyz, monkeypatch):
    powered = []
    frobenius = Polynomial.frobenius
    monkeypatch.setattr(Polynomial, "frobenius",
                        lambda f, q: powered.append(f) or frobenius(f, q))
    I = I_(F2xyz, "x^2+y*z", "y^2", "z^3")
    assert hk_table(I, 7).rows[-1].colength == 128**3 * 12
    assert powered == []


def test_table_kunz_scaling(F5xy):
    table = hk_table(I_(F5xy, "x^2", "y^3"), 1)
    assert [(r.q, r.colength) for r in table.rows] == [(1, 6), (5, 150)]
    assert [r.normalized for r in table.rows] == [6, 6]


# diagonal hypersurfaces, each with the largest q of its colon identity test
FERMAT = Ring(2, "xyz", relations=["x^3+y^3+z^3"])
QUARTIC = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
CUBIC4 = Ring(2, "xyzw", relations=["x^3+y^3+z^3+w^3"])
HYPERSURFACES = [(FERMAT, 8), (QUARTIC, 9), (CUBIC4, 2)]


@st.composite
def hypersurface_cases(draw):
    """(ring, generators, q): a pure power of every variable plus one or
    two generators without constant term, at a q > 1 up to the ring's
    bound (at q = 1 the colon is the unit ideal)."""
    ring, qmax = draw(st.sampled_from(HYPERSURFACES))
    n = ring.nvars
    gens = [ring.monomial([draw(st.integers(1, 3)) if j == i else 0 for j in range(n)])
            for i in range(n)]
    gens += [g for g in draw(st.lists(polys(ring, min_degree=1), min_size=1, max_size=2))
             if not g.is_zero()]
    q = draw(st.sampled_from([q for q in (ring.p, ring.p ** 2, ring.p ** 3) if q <= qmax]))
    return ring, gens, q


@settings(max_examples=60, deadline=None)
@given(hypersurface_cases())
def test_hypersurface_colon_identity(case):
    ring, gens, q = case
    lam, colon, total = hypersurface_colon_sides(gens, ring, q)
    assert lam + colon == total


@pytest.mark.parametrize("ring, gens, q, sides", [
    (FERMAT, ["x", "y", "z"], 4, (36, 28, 64)),
    (FERMAT, ["x", "y", "z"], 8, (144, 368, 512)),
    (QUARTIC, ["x^2+y*z", "y^2", "z^2"], 9, (968, 4864, 5832)),
    (CUBIC4, ["x", "y", "z^2", "w"], 2, (24, 8, 32)),
])
def test_hypersurface_colon_identity_values(ring, gens, q, sides):
    assert hypersurface_colon_sides([ring.poly(g) for g in gens], ring, q) == sides


@st.composite
def m_primary_pairs(draw):
    """(ring, qs, I, J): two m-primary ideals on the Fermat cubic (q <= 8)
    or the quartic (q <= 9), each a pure power of every variable plus up
    to two generators without constant term."""
    ring, qmax = draw(st.sampled_from(HYPERSURFACES[:2]))
    n = ring.nvars

    def ideal():
        gens = [ring.monomial([draw(st.integers(1, 2)) if j == i else 0 for j in range(n)])
                for i in range(n)]
        return Ideal(ring, gens + draw(st.lists(polys(ring, min_degree=1), max_size=2)))
    qs = [q for q in (1, ring.p, ring.p ** 2, ring.p ** 3) if q <= qmax]
    return ring, qs, ideal(), ideal()


@settings(max_examples=60, deadline=None)
@given(m_primary_pairs())
def test_mu_form_bounds_at_every_q(case):
    # lambda(K) >= 0 in the length identity, with mu(J) local generators
    # of the m-primary J, bounds lambda(R/(IJ)^[q]); with J = I it bounds
    # the square.  Theorems at every q, so a failure is an engine bug.
    ring, qs, I, J = case
    IJ, I2 = I * J, I.power(2)
    for q in qs:
        lam_I = I.bracket_power(q).colength()
        assert (IJ.bracket_power(q).colength()
                <= J.min_gens() * lam_I + J.bracket_power(q).colength()), q
        assert I2.bracket_power(q).colength() <= (1 + I.min_gens()) * lam_I, q


def test_mu_form_power_bound_on_the_fermat_maximal_ideal():
    # 112 <= (1 + mu(m)) * 36 = 144; the parameter-mode spread d = 2
    # would give (1 + d) * 36 = 108 < 112
    m = I_(FERMAT, "x", "y", "z")
    assert m.min_gens() == 3 and krull_dim(FERMAT) == 2
    assert (m.power(2).bracket_power(4).colength(), m.bracket_power(4).colength()) == (112, 36)


# diagonal hypersurfaces sum_i c_i x_i^d as (ring, d, coefficients, the
# largest q of the random test), for the Groebner-free oracle
DIAGONAL = {
    "fermat": (FERMAT, 3, (1, 1, 1), 4),
    "quartic": (QUARTIC, 4, (1, 1, 1), 3),
    "cubic4": (CUBIC4, 3, (1, 1, 1, 1), 2),
    "fermat5": (Ring(5, "xyz", relations=["x^3+y^3+z^3"]), 3, (1, 1, 1), 5),
    "fermat7": (Ring(7, "xyz", relations=["x^3+y^3+z^3"]), 3, (1, 1, 1), 1),
    "skew5": (Ring(5, "xyz", relations=["x^3+2*y^3+4*z^3"]), 3, (1, 2, 4), 5),
}


def _engine_and_oracle(name, gens, q):
    """lambda(R/M^[q]) by the engine and by diagonal_colength, for the
    monomial ideal M of the exponent tuples gens."""
    ring, d, coeffs, _ = DIAGONAL[name]
    M = Ideal(ring, [ring.monomial(a) for a in gens])
    powered = [tuple(q * e for e in a) for a in gens]
    return (M.bracket_power(q).colength(),
            diagonal_colength(powered, coeffs, d, ring.p))


@pytest.mark.parametrize("name, gens, values", [
    ("fermat", ["x", "y", "z"], {2: 8, 4: 36, 8: 144, 16: 576}),
    ("fermat", ["x^2", "y", "z^2"], {2: 20, 4: 84, 8: 336}),
    ("quartic", ["x", "y", "z"], {3: 27, 9: 252, 27: 2268}),
    ("quartic", ["x^2", "y*z", "y^3", "z^2"], {3: 108, 9: 972}),
    ("cubic4", ["x", "y", "z", "w"], {2: 16, 4: 136}),
    ("fermat5", ["x", "y", "z"], {5: 55}),
    ("fermat7", ["x", "y^2", "z"], {7: 146}),
])
def test_diagonal_oracle_values(name, gens, values):
    ring = DIAGONAL[name][0]
    exps = [ring.poly(g).leading_monomial() for g in gens]
    for q, value in values.items():
        assert _engine_and_oracle(name, exps, q) == (value, value), q


@st.composite
def diagonal_cases(draw):
    """(ring name, exponent tuples of an m-primary monomial ideal, q): a
    pure power of every variable plus up to two mixed monomials."""
    name = draw(st.sampled_from(sorted(DIAGONAL)))
    ring, _, _, qmax = DIAGONAL[name]
    n = ring.nvars
    gens = [tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n))
            for i in range(n)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any), max_size=2))
    q = draw(st.sampled_from([q for q in (1, ring.p, ring.p ** 2) if q <= qmax]))
    return name, gens, q


@settings(max_examples=60, deadline=None)
@given(diagonal_cases())
def test_diagonal_oracle_matches_the_engine(case):
    engine, oracle = _engine_and_oracle(*case)
    assert engine == oracle


def test_table_rejects_infinite_colength(F2xy):
    with pytest.raises(InfiniteColengthError):
        hk_table(I_(F2xy, "x"), 1)


def test_table_serialization(F2xy):
    table = hk_table(I_(F2xy, "x", "y"), 2)
    obj = table.to_json_obj()
    assert obj["schema"] == 1
    assert [row["normalized"] for row in obj["rows"]] == ["1/1"] * 3
    json.dumps(obj)  # must be serializable as-is
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "q,colength,normalized_num,normalized_den"
    assert lines[1] == "1,1,1,1"


def test_estimate_exact_regular(F5xy):
    # auto on an ideal that is not monomial: Kunz's lambda(R/I), exact
    est = hk_estimate(I_(F5xy, "x^2 + y", "y^3"), 1)
    assert est.method == "exact-regular"
    assert est.value == 6 and est.is_limit


def test_estimate_auto_picks_monomial_volume(F2xy):
    est = hk_estimate(I_(F2xy, "x^2", "x*y", "y^2"), 1)
    assert est.method == "exact-monomial-volume"
    assert est.value == 3 and est.is_limit


def test_estimate_sequence_methods_on_fermat(fermat):
    m = I_(fermat, "x", "y", "z")
    last = hk_estimate(m, 3)
    assert last.method == "sequence-last" and not last.is_limit
    assert last.value == Fraction(m.bracket_power(8).colength_strict(), 64)
    extrap = hk_estimate(m, 3, "sequence-extrapolated")
    assert extrap.method == "sequence-extrapolated" and not extrap.is_limit
    rows = hk_table(m, 3).rows
    (q1, v1), (q2, v2) = (rows[-2].q, rows[-2].normalized), (rows[-1].q, rows[-1].normalized)
    assert extrap.value == Fraction(q2 * v2 - q1 * v1, q2 - q1)


def test_estimate_validation(F2xy, fermat):
    # the labels name how a value was found; they are not methods to ask for
    for label in ("exact-regular", "exact-monomial-volume", "sequence-last"):
        with pytest.raises(ValueError, match="unknown estimation method"):
            hk_estimate(I_(fermat, "x", "y", "z"), 1, label)
    with pytest.raises(ValueError):
        hk_estimate(I_(F2xy, "x", "y"), 1, "no-such-method")
    with pytest.raises(ValueError, match="at least two rows"):
        hk_estimate(I_(fermat, "x", "y", "z"), 0, "sequence-extrapolated")


def test_monomial_volume_spec_value(F2xy):
    assert monomial_hk_volume(I_(F2xy, "x^2", "x*y", "y^2")) == 3
    assert monomial_hk_volume(I_(F2xy, "1", "x")) == 0  # unit ideal


def test_monomial_volume_drops_cancelled_join(F2xy):
    # x^3*y^3 joins the pair (x*y^3, x^3*y) and the triple: its coefficient is 0
    I = I_(F2xy, "x^4", "y^4", "x*y^3", "x^2*y^2", "x^3*y")
    assert monomial_hk_volume(I) == 10 == I.colength_strict()


def test_monomial_volume_equals_colength_randomized(F3xy):
    rng = random.Random(17)
    for I in [random_ideal(rng, F3xy, "monomial", 4) for _ in range(25)]:
        assert monomial_hk_volume(I) == I.colength_strict()


@st.composite
def monomial_ideals(draw):
    """m-primary monomial ideals in 2-3 variables, with scalar
    coefficients, duplicate and non-minimal generators."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    ring = Ring(p, "xyz"[:n])
    top = {2: 6, 3: 4}[n]
    exps = [tuple(a if j == i else 0 for j in range(n))
            for i in range(n) for a in [top] + draw(st.lists(st.integers(2, top),
                                                             max_size=1))]
    exps += draw(st.lists(st.tuples(*[st.integers(1, top - 1)] * n),
                          min_size=2, max_size=5))
    exps += draw(st.lists(st.sampled_from(exps), max_size=2))
    gens = [ring.monomial(e, draw(st.integers(1, p - 1)))
            for e in draw(st.permutations(exps))]
    return Ideal(ring, gens)


@settings(max_examples=80, deadline=None)
@given(monomial_ideals())
def test_monomial_volume_matches_subset_sum_and_colength(I):
    assert monomial_hk_volume(I) == subset_volume(I) == I.colength_strict()


def test_monomial_volume_validation(F2xy, fermat):
    with pytest.raises(ValueError):
        monomial_hk_volume(I_(F2xy, "x + y", "y^2"))
    with pytest.raises(ValueError):
        monomial_hk_volume(I_(fermat, "y", "z"))
    with pytest.raises(InfiniteColengthError):
        monomial_hk_volume(I_(F2xy, "x^2"))


def test_star_spread_modes(F2xy, fermat):
    # an integer off polynomial rings; test_star_spread_default_mode has the defaults
    assert star_spread(I_(fermat, "y", "z"), 4) == 4
    # on a polynomial ring the spread is mu(J): no mode, not even mu(J) itself
    for mode in (2, 3, "parameter", "regular"):
        with pytest.raises(ValueError, match="polynomial ring"):
            star_spread(I_(F2xy, "x^2", "x*y", "y^2"), mode)
    for mode in (0, -1, True, "regular", "parameter", "2"):
        with pytest.raises(ValueError, match="positive int"):
            star_spread(I_(fermat, "y", "z"), mode)


def test_star_spread_default_mode(F2xy, fermat):
    # regular rings default to mu(J), the others to the dimension
    assert star_spread(I_(F2xy, "x^2", "x*y", "y^2")) == 3
    assert star_spread(I_(fermat, "y", "z", "x^2")) == 2


def test_probe_trivial_member(fermat):
    verdict = tc_probe(fermat.poly("y"), I_(fermat, "y", "z"), fermat.one(), 3)
    assert verdict.consistent and str(verdict) == "ConsistentUpTo(8)"


def test_probe_fermat_classical_candidate(fermat):
    verdict = tc_probe(fermat.poly("x^2"), I_(fermat, "y", "z"),
                       fermat.poly("x^2"), 3)
    assert verdict.consistent and verdict.q == 8


def test_probe_refutation(F2xy):
    verdict = tc_probe(F2xy.poly("x"), I_(F2xy, "x^2", "y^2"), F2xy.one(), 3)
    assert not verdict.consistent and verdict.q == 2
    assert str(verdict).startswith("RefutedAt(2): normal form")
    assert verdict.witness == F2xy.poly("x^2")


def test_probe_membership_in_ideal_always_consistent(F3xy):
    rng = random.Random(2)
    draws = random.Random(8)
    for I in [random_ideal(draws, F3xy, "binomial", 3) for _ in range(8)]:
        z = I.gens[rng.randrange(len(I.gens))]
        assert tc_probe(z, I, F3xy.one(), 2).consistent


def test_probe_validation(F2xy):
    I = I_(F2xy, "x", "y")
    with pytest.raises(ValueError):
        tc_probe(F2xy.poly("x"), I, F2xy.zero(), 2)
    with pytest.raises(ValueError, match="needs e_max at least 1, got 0"):
        tc_probe(F2xy.poly("x"), I, F2xy.one(), 0)


def test_levels_refuse_an_empty_range():
    assert levels(3, 2, 1) == [3, 9]
    with pytest.raises(ValueError, match="needs e_max at least 0, got -1"):
        levels(3, -1)


def test_jacobian_candidates(fermat):
    cands = jacobian_candidates(fermat)
    assert sorted(str(c) for c in cands) == ["x^2", "y^2", "z^2"]
    # over F_3 the Fermat cubic is a cube of linear forms: all partials vanish
    frobenius_cubic = Ring(3, ["x", "y", "z"], relations=["x^3+y^3+z^3"])
    assert jacobian_candidates(frobenius_cubic) == []
    with pytest.raises(ValueError):
        jacobian_candidates(Ring(2, ["x", "y"]))
