"""Groebner bases, staircase counts, syzygies, module colengths."""

import inspect
import random
import sys
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkprod import Ideal, Polynomial, Ring, buchberger, groebner, syzygies
from hkprod.groebner import (Reducers, _buchberger, _divide, _field_bytes, _Layout, _Overflow,
                             _reducer, _update_pairs, as_vector, module_buchberger,
                             module_colength, module_normal_form, staircase_count,
                             vector_to_polys)

from .oracles import (brute_colength, brute_membership, brute_staircase,
                      colength_of_basis, is_groebner, module_is_groebner, module_order,
                      rescan_module_normal_form, rescan_normal_form, vector_from_polys)
from .strategies import bounded_ideals, polys, rings


def test_basis_already_reduced(F5xy):
    gb = buchberger([F5xy.poly("x^2 - y"), F5xy.poly("y^2")], F5xy)
    assert [str(g) for g in gb] == ["y^2", "x^2 + 4*y"]
    assert is_groebner(gb)


def test_basis_over_fermat_quotient(fermat):
    gb = buchberger([fermat.poly("y"), fermat.poly("z")], fermat)
    assert [str(g) for g in gb] == ["z", "y", "x^3"]


def test_normal_form_single_step(F5xy):
    I = Ideal(F5xy, ["x^2 - y", "y^2"])
    assert I.normal_form(F5xy.poly("x^2")) == F5xy.poly("y")


def test_normal_form_idempotent_and_linear(F3xy):
    nf = Ideal(F3xy, ["x^2 + y", "y^3"]).normal_form
    rng = random.Random(5)
    for _ in range(20):
        f = sum((F3xy.monomial((rng.randint(0, 3), rng.randint(0, 3)),
                               rng.randint(0, 2)) for _ in range(3)), F3xy.zero())
        g = sum((F3xy.monomial((rng.randint(0, 3), rng.randint(0, 3)),
                               rng.randint(0, 2)) for _ in range(3)), F3xy.zero())
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(f) + nf(g)


def test_staircase_counts():
    assert staircase_count([(2, 0), (0, 2)], 2) == 4
    assert staircase_count([(1, 0)], 2) is None  # no pure power of y
    assert staircase_count([(0, 0)], 2) == 0  # unit ideal
    assert staircase_count([], 0) == 1


def test_staircase_count_at_large_q_needs_no_box():
    q = 1024
    leads = [(q, 0, 0), (0, q, 0), (0, 0, q), (3, 5, 7)]
    assert staircase_count(leads, 3) == q ** 3 - (q - 3) * (q - 5) * (q - 7)


def test_staircase_count_needs_no_stack_frame_per_variable():
    n = 200
    leads = [tuple(2 * (j == i) for j in range(n)) for i in range(n)]
    leads.append((1, 1) + (0,) * (n - 2))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        count = staircase_count(leads, n)
    finally:
        sys.setrecursionlimit(old)
    assert count == 3 * 2 ** (n - 2)  # the box 2^n less the multiples of x_0*x_1


def test_staircase_count_stops_at_the_first_empty_slab(monkeypatch):
    # the leads of the quartic's (IJ)^[27], I and J as in the benchmark:
    # each level-0 slab makes one min call.  The early stop leaves 87 of
    # them; without it every slab up to the last distinct exponent is
    # pushed, 556 here, though each one past the stop counts 0.
    ring = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
    IJ = Ideal(ring, ["x^2+y*z", "y^2", "z^2"]) * Ideal(ring, ["x+y", "y*z", "z^2"])
    leads = IJ.bracket_power(27).reducers.leads()[0]
    slabs = []
    monkeypatch.setattr(groebner, "min", lambda *args: slabs.append(1) or min(*args),
                        raising=False)
    assert staircase_count(leads, 3) == 19309  # lambda_IJq in test_koszul.py
    assert len(slabs) <= 150


def test_division_pushes_each_term_once(monkeypatch):
    # the quartic's (IJ)^[27], I and J as in the benchmark.  A term that
    # cancels stays in the division's work dict as 0 until it is popped,
    # so a term that is created again is not pushed again: about 7300
    # pushes here, divisions and pair queue together.  Pushing a
    # re-created term again makes 19838, most of them popped as stale.
    ring = Ring(3, "xyz", relations=["x^4+y^4+z^4"])
    IJ = Ideal(ring, ["x^2+y*z", "y^2", "z^2"]) * Ideal(ring, ["x+y", "y*z", "z^2"])
    pushes = []
    push = groebner.heappush
    monkeypatch.setattr(groebner, "heappush",
                        lambda heap, item: pushes.append(1) or push(heap, item))
    assert IJ.bracket_colength(27) == 19309  # lambda_IJq in test_koszul.py
    assert len(pushes) <= 10000


@st.composite
def staircase_cases(draw):
    """(lead monomials, nvars): pure powers that may be missing or
    repeated, generators inside and outside the box, duplicates and
    sometimes the unit monomial."""
    n = draw(st.integers(1, 5))
    top = {1: 9, 2: 7, 3: 5, 4: 4, 5: 3}[n]
    leads = []
    for i in range(n):
        for a in draw(st.lists(st.integers(1, top), max_size=2)):
            leads.append(tuple(a if j == i else 0 for j in range(n)))
    exps = st.tuples(*[st.integers(0, top + 1)] * n)
    leads += draw(st.lists(exps, max_size=6))
    leads += draw(st.lists(st.sampled_from(leads), max_size=2)) if leads else []
    if draw(st.integers(0, 9)) == 0:
        leads.append((0,) * n)
    return draw(st.permutations(leads)), n


@settings(max_examples=300, deadline=None)
@given(staircase_cases())
def test_staircase_count_matches_box_enumeration(case):
    leads, n = case
    assert staircase_count(leads, n) == brute_staircase(leads, n)


def test_colength_spec_value(F5xy):
    gb = buchberger([F5xy.poly("x^2 - y"), F5xy.poly("y^2")], F5xy)
    assert colength_of_basis(gb, F5xy) == 4  # quotient is F_5[x]/(x^4)


def test_colength_independent_of_order_and_generator_shuffle(F2xy):
    gens = ["x^3 + y", "x*y + y^2", "y^4"]
    base = colength_of_basis(buchberger([F2xy.poly(g) for g in gens], F2xy), F2xy)
    lex_ring = Ring(2, ["x", "y"], order="lex")
    swapped = Ring(2, ["y", "x"])
    for ring in (lex_ring, swapped):
        for perm in ([2, 0, 1], [1, 2, 0]):
            polys = [ring.poly(gens[i]) for i in perm]
            assert colength_of_basis(buchberger(polys, ring), ring) == base


def test_colength_matches_brute_force_on_random_ideals(F2xy):
    rng = random.Random(9)
    for _ in range(15):
        gens = [F2xy.poly(f"x^{rng.randint(1, 3)}"), F2xy.poly(f"y^{rng.randint(1, 3)}")]
        for _ in range(rng.randint(0, 2)):
            gens.append(F2xy.monomial((rng.randint(0, 3), rng.randint(0, 3)))
                        + F2xy.monomial((rng.randint(0, 3), rng.randint(0, 3))))
        gens = [g for g in gens if not g.is_zero()]
        engine = colength_of_basis(buchberger(gens, F2xy), F2xy)
        assert engine == brute_colength(gens, F2xy)


def test_colength_matches_brute_force_on_fermat(fermat):
    for gens in (["y", "z"], ["x", "y", "z"], ["x^2", "y", "z"], ["y^2", "z^2"]):
        polys = [fermat.poly(g) for g in gens]
        engine = colength_of_basis(buchberger(polys, fermat), fermat)
        assert engine == brute_colength(polys, fermat)


def test_membership_via_normal_form(F2xy, fermat):
    assert Ideal(F2xy, ["x", "y"]).normal_form(F2xy.poly("x*y")).is_zero()
    assert not Ideal(F2xy, ["x^2", "y^2"]).normal_form(F2xy.poly("x")).is_zero()
    # x^3 = y^3 + z^3 in the quotient, so it reduces to zero mod (y, z)
    assert Ideal(fermat, ["y", "z"]).normal_form(fermat.poly("x^3")).is_zero()


def test_syzygies_are_actual_syzygies(F2xy, fermat):
    for ring, gens in ((F2xy, ["x^2", "x*y", "y^2"]),
                       (F2xy, ["x^2 + y", "y^2"]),
                       (fermat, ["y", "z"])):
        polys = [ring.poly(g) for g in gens]
        relations = Ideal(ring, [])
        for s in syzygies(polys, ring):
            combo = sum((si * ai for si, ai in zip(s, polys)), ring.zero())
            assert relations.contains(combo)


def test_syzygies_of_maximal_ideal(F2xy):
    syz = syzygies([F2xy.var("x"), F2xy.var("y")], F2xy)
    assert len(syz) == 1
    assert [str(f) for f in syz[0]] == ["y", "x"]


def test_syzygies_contain_taylor_relations(F2xy):
    # for a monomial sequence the Taylor vectors generate all syzygies
    a = [F2xy.poly("x^2"), F2xy.poly("x*y"), F2xy.poly("y^2")]
    syz = syzygies(a, F2xy)
    reducers = Reducers.from_engine([vector_from_polys(s) for s in syz], F2xy)
    taylor = [
        [F2xy.poly("y"), F2xy.poly("x"), F2xy.zero()],
        [F2xy.zero(), F2xy.poly("y"), F2xy.poly("x")],
        [F2xy.poly("y^2"), F2xy.zero(), F2xy.poly("x^2")],
    ]
    for t in taylor:
        assert not module_normal_form(vector_from_polys(t), reducers)


def test_module_colength_spec_value(F2xy):
    # N = K_{(x,y)} + (x^2, y^2) R^2: the syzygy (y, x) plus I e_1, I e_2
    vectors = [vector_from_polys([F2xy.poly("y"), F2xy.poly("x")])]
    for g in ("x^2", "y^2"):
        for pos in (0, 1):
            comps = [F2xy.zero(), F2xy.zero()]
            comps[pos] = F2xy.poly(g)
            vectors.append(vector_from_polys(comps))
    assert module_colength(vectors, 2, F2xy) == 5


def test_module_colength_full_module(F2xy):
    vectors = [vector_from_polys([F2xy.one(), F2xy.zero()]),
               vector_from_polys([F2xy.zero(), F2xy.one()])]
    assert module_colength(vectors, 2, F2xy) == 0


def test_kunz_scaling_of_colength():
    # over a polynomial ring lambda(R/I^[q]) = q^d lambda(R/I)
    for p in (2, 3):
        ring = Ring(p, ["x", "y"])
        rng = random.Random(p)
        for _ in range(10):
            gens = [ring.poly(f"x^{rng.randint(1, 3)}"),
                    ring.poly(f"y^{rng.randint(1, 3)}"),
                    ring.monomial((rng.randint(0, 2), rng.randint(0, 2)))
                    + ring.monomial((rng.randint(0, 2), rng.randint(0, 2)))]
            gens = [g for g in gens if not g.is_zero()]
            lam = colength_of_basis(buchberger(gens, ring), ring)
            scaled = colength_of_basis(
                buchberger([g.frobenius(p) for g in gens], ring), ring)
            assert scaled == p * p * lam


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=5))
def test_buchberger_criterion_on_monomial_ideals(monos):
    ring = Ring(2, ["x", "y"])
    gens = [ring.monomial(m) for m in monos if sum(m)]
    if not gens:
        return
    gb = buchberger(gens, ring)
    assert is_groebner(gb)
    # reduced basis of a monomial ideal is its minimal generating set
    assert all(len(g.terms) == 1 for g in gb)


def test_engines_widen_fields_when_a_term_overflows():
    # fields chosen from inputs of degree 16 cannot hold y^128 or y^256,
    # so every result below comes from a rerun with wider fields
    assert _field_bytes(16) == 1  # exponents up to 127
    ring = Ring(2, ["x", "y"], order="lex")
    gens = [ring.poly("x + y^16"), ring.poly("x^16")]
    gb = buchberger(gens, ring)
    assert [str(g) for g in gb] == ["y^256", "x + y^16"]
    assert is_groebner(gb)
    assert Ideal(ring, gens).colength() == 256
    assert module_colength([vector_from_polys([g]) for g in gens], 1, ring) == 256
    f, basis = ring.poly("x^8"), [ring.poly("x + y^16")]
    I = Ideal(ring, basis)
    reducers = Reducers.from_engine([vector_from_polys(basis)], ring)
    assert I.reducers.lay.field_bytes == reducers.lay.field_bytes == 1
    assert I.normal_form(f) == rescan_normal_form(f, basis) == ring.poly("y^128")
    assert module_normal_form(vector_from_polys([f]), reducers) == {(0, (0, 128)): 1}
    assert I.reducers.lay.field_bytes == reducers.lay.field_bytes == 2


def test_tail_reduction_widens_the_engine_layout():
    # the engines hold x + y^60 and y + z^63 in one-byte fields; reducing
    # the tail y^60 to z^3780 does not fit them, so the division that
    # interreduces the engine's packed basis repacks it wider
    assert _field_bytes(63) == 1  # exponents up to 127
    ring = Ring(2, ["x", "y", "z"], order="lex")
    gens = [ring.poly("x + y^60"), ring.poly("y + z^63")]
    gb = buchberger(gens, ring)
    assert [str(g) for g in gb] == ["y + z^63", "x + z^3780"]
    assert is_groebner(gb)
    basis = module_buchberger([vector_from_polys([g]) for g in gens], ring)
    assert basis == [vector_from_polys([g]) for g in gb]
    assert module_is_groebner(basis, ring, module_order(ring))


def test_engine_widens_when_a_shifted_s_pair_tail_overflows():
    # x^4*y^2 and x^2*y^2 + x*y^38 fit one-byte fields.  Their S-pair
    # reduces to x*y^110; the S-pair of x*y^110 and x^2*y^2 + x*y^38 then
    # shifts the tail x*y^38 to x*y^146, past the field, before any
    # division sees it, so the S-pair build must widen the run
    assert _field_bytes(40) == 1  # exponents up to 127
    ring = Ring(2, ["x", "y"], order="lex")
    gens = [ring.poly("x^4*y^2"), ring.poly("x^2*y^2 + x*y^38")]
    gb = buchberger(gens, ring)
    assert [str(g) for g in gb] == ["x*y^110", "x^2*y^2 + x*y^38"]
    assert is_groebner(gb)
    assert Reducers.from_engine([as_vector(g) for g in gens], ring).lay.field_bytes == 2


@st.composite
def layouts(draw):
    """A packing of 1 to 4 variables, lex or grevlex, fields of 1 to 3
    bytes, rank 1 to 3, TOP or ELIM, each e_i in a degree from 0 to 6."""
    ring = Ring(2, "wxyz"[:draw(st.integers(1, 4))],
                order=draw(st.sampled_from(["grevlex", "lex"])))
    rank = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank))
    return ring, _Layout(ring, draw(st.integers(1, 3)), rank, draw(st.booleans()), degrees)


@settings(max_examples=300, deadline=None)
@given(layouts(), st.data())
def test_packed_monomials_match_tuple_operations(case, data):
    ring, lay = case
    monos = st.tuples(*[st.integers(0, lay.largest)] * ring.nvars)
    a, b = data.draw(monos), data.draw(monos)
    ma, mb = lay.monomial(a), lay.monomial(b)
    assert lay.exponents(ma) == a and lay.degree(ma) == sum(a)
    # the engine sorts monomials by their codes in component 0, the
    # larger monomial first
    ka, kb = lay.code(0, ma, sum(a)), lay.code(0, mb, sum(b))
    assert (ka < kb) == (ring.order.key(a) > ring.order.key(b))
    assert (ka == kb) == (a == b)
    assert lay.divides(ma, mb) == all(x <= y for x, y in zip(a, b))
    assert lay.lcm(ma, mb) == lay.monomial(tuple(map(max, a, b)))
    # codes of module terms sort as the reference module order and unpack
    # to the term
    key = module_order(ring, lay.elim, lay.degrees)
    pa, pb = (data.draw(st.integers(0, lay.rank - 1)) for _ in "ab")
    ca, cb = lay.code(pa, ma, sum(a)), lay.code(pb, mb, sum(b))
    assert (ca < cb) == (key((pa, a)) > key((pb, b)))
    assert lay.unpack([(ca, 1)]) == {(pa, a): 1}
    c = data.draw(st.integers(1, 10))
    assert lay.pack({(pa, a): c}) == {ca: c}
    # an exponent one above the field, or twice that (128 and 256 in
    # one-byte fields, past what bytes() takes), does not pack
    for e in (lay.largest + 1, 2 * (lay.largest + 1)):
        with pytest.raises(_Overflow):
            lay.pack({(pa, a): 1, (pb, (e, *b[1:])): c})
    # a product is a sum with a linear code, or sets a guard bit
    ab = tuple(x + y for x, y in zip(a, b))
    if max(ab, default=0) <= lay.largest:
        assert ma + mb == lay.monomial(ab)
        assert lay.code(0, ma + mb, sum(ab)) == ka + kb - lay.code(0, 0, 0)
        assert lay.code(pa, ma + mb, sum(ab)) - ca == cb - lay.code(pb, 0, 0)
    else:
        assert (ma + mb) & lay.guard


@settings(max_examples=300, deadline=None)
@given(layouts(), st.booleans(), st.data())
def test_update_pairs_is_the_gebauer_moeller_update(case, coprime, data):
    ring, lay = case
    # small exponents, so that lcms often coincide or divide each other
    monos = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    exps = data.draw(st.lists(monos, min_size=1, max_size=9))
    leads = [lay.monomial(m) for m in exps]
    t = len(leads) - 1
    earlier = list(range(t))
    lcm = {i: lay.monomial(tuple(map(max, exps[i], exps[t]))) for i in earlier}
    pairs = [(i, j) for j in earlier for i in range(j)]
    drawn = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pending = {(i, j): lay.lcm(leads[i], leads[j]) for i, j in drawn}
    bare = set(data.draw(st.lists(st.sampled_from(range(t + 1)), unique=True)))
    before = dict(pending)
    queued = _update_pairs(t, leads, bare, earlier, pending, coprime, lay)

    assert all(lcm[i] == m for i, m in queued)
    returned = [i for i, _ in queued]
    assert len(set(returned)) == len(returned)
    zeros = [i for i in earlier
             if (coprime and not any(a and b for a, b in zip(exps[i], exps[t])))
             or {i, t} <= bare]
    assert not set(zeros) & set(returned)
    kept = returned + zeros
    # no kept lcm divides a queued one: queued lcms are pairwise
    # non-dividing, and none is a multiple of the lcm of a pair that
    # reduces to 0 (coprime, or two bare elements)
    for i in returned:
        assert not any(lay.divides(lcm[j], lcm[i]) for j in kept if j != i)
    # every pair not queued is covered by a kept pair whose lcm divides its own
    for i in set(earlier) - set(returned):
        assert any(lay.divides(lcm[j], lcm[i]) for j in kept)

    def criterion_b(i, j):
        m = before[i, j]
        return lay.divides(leads[t], m) and lcm[i] != m and lcm[j] != m
    assert pending == {pair: m for pair, m in before.items() if pair in pending}
    assert all(criterion_b(*pair) for pair in before.keys() - pending.keys())
    assert not any(criterion_b(*pair) for pair in pending)


def test_empty_input(F2xy):
    assert buchberger([], F2xy) == []
    assert colength_of_basis([], F2xy) is None


def test_engine_takes_monomial_inputs_without_division_or_pair(F2xyz, monkeypatch):
    # an ideal generated by monomials is its own Groebner basis, since
    # every S-polynomial of two monomials is 0: the engine divides no
    # input and updates no pair; x^3*z, a multiple of x^3, is not minimal
    calls = []
    for name in ("_divide", "_update_pairs"):
        monkeypatch.setattr(groebner, name, lambda *args, name=name, f=getattr(groebner, name):
                            calls.append(name) or f(*args))
    gens = ["x^3", "x^2*y", "x*y*z", "y^2*z", "z^4", "x*y^2", "x^3*z"]
    reducers = Reducers.from_engine([as_vector(F2xyz.poly(f)) for f in gens], F2xyz)
    assert calls == []
    assert sorted(reducers.leads()[0]) == sorted(
        F2xyz.poly(f).leading_monomial() for f in gens[:-1])


@st.composite
def term_vectors(draw):
    """Vectors of one term each over F_5, in 1 to 3 variables, rank 1 to
    3, TOP or ELIM, each e_i in a degree from 0 to 4: drawn terms, their
    multiples and repeats, with coefficients 1 to 4."""
    ring = Ring(5, "xyz"[:draw(st.integers(1, 3))],
                order=draw(st.sampled_from(["grevlex", "lex"])))
    rank = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank))
    monos = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = draw(st.lists(st.tuples(st.integers(0, rank - 1), monos), min_size=1, max_size=8))
    for (pos, m), shift in draw(st.lists(st.tuples(st.sampled_from(terms), monos), max_size=4)):
        terms.append((pos, tuple(map(add, m, shift))))
    terms += draw(st.lists(st.sampled_from(terms), max_size=3))
    vectors = [{t: draw(st.integers(1, 4))} for t in terms]
    return ring, draw(st.booleans()), degrees, vectors


@settings(max_examples=200, deadline=None)
@given(term_vectors())
def test_term_generated_input_keeps_its_minimal_terms(case):
    ring, elim, degrees, vectors = case
    reducers = Reducers.from_engine(vectors, ring, elim, degrees)
    terms = {t for v in vectors for t in v}
    minimal = [(pos, m) for pos, m in terms
               if not any(i == pos and n != m and all(map(int.__le__, n, m)) for i, n in terms)]
    assert sorted((pos, m) for pos, ms in reducers.leads().items() for m in ms) == sorted(minimal)
    basis = reducers.basis
    assert all(list(v.values()) == [1] for v in basis)
    assert module_is_groebner(basis, ring, module_order(ring, elim, degrees))


def test_engine_drops_an_input_that_reduces_to_zero(F2xyz):
    # x^3 + x*y = x*(x^2 + y) is reduced when it is popped, after
    # x^2 + y, and leaves no element with lead x^3 in the unreduced basis
    gens = [F2xyz.poly(f) for f in ("x^2 + y", "x^3 + x*y", "y^3")]
    lay = _Layout(F2xyz, 1)
    G = _buchberger([lay.pack(as_vector(f)) for f in gens], lay)
    assert (3, 0, 0) not in [lay.exponents(r[0]) for r in G]
    gb = buchberger(gens, F2xyz)
    assert is_groebner(gb) and [str(g) for g in gb] == ["x^2 + y", "y^3"]


# --- differential tests against the oracles ---------------------------------
#
# The rings and ideals are drawn by tests/strategies.py.


@settings(max_examples=150, deadline=None)
@given(bounded_ideals())
def test_buchberger_agrees_with_span_oracles(case):
    ring, gens, exact = case
    gb = buchberger(gens, ring)
    assert is_groebner(gb)
    assert colength_of_basis(gb, ring) == brute_colength(gens, ring, max_deg=exact, slack=0)
    for g in gb:
        assert brute_membership(g, gens, ring, exact)
    for g in gens:
        assert rescan_normal_form(g, gb).is_zero()


def _tail(g):
    lead = g.leading_monomial()
    return Polynomial(g.ring, {m: c for m, c in g.terms.items() if m != lead})


@settings(max_examples=150, deadline=None)
@given(bounded_ideals())
def test_buchberger_output_is_reduced(case):
    ring, gens, _ = case
    gb = buchberger(gens, ring)
    assert all(g.leading_coefficient() == 1 for g in gb)
    keys = [ring.order.key(g.leading_monomial()) for g in gb]
    assert keys == sorted(set(keys))  # by leading term, smallest first
    assert buchberger(gb, ring) == gb
    for g in gb:
        assert rescan_normal_form(_tail(g), gb) == _tail(g)


def _bounded_vectors(ring, gens, rank):
    """The pure powers of a bounded ideal in every component, which keep
    the quotient module finite, then its other generators spread."""
    vectors = [{(i, g.leading_monomial()): 1} for g in gens[:ring.nvars] for i in range(rank)]
    return vectors + [_spread(g, i, rank) for i, g in enumerate(gens[ring.nvars:])]


def _degrees(data, rank):
    """None (every e_i in degree 0) or a degree from 0 to 6 for each of
    rank components."""
    return data.draw(st.none() | st.lists(st.integers(0, 6), min_size=rank, max_size=rank))


@settings(max_examples=60, deadline=None)
@given(bounded_ideals(max_extra=2), st.integers(1, 3), st.booleans(), st.data())
def test_module_buchberger_output_is_reduced(case, rank, elim, data):
    ring, gens, _ = case
    degrees = _degrees(data, rank)
    key = module_order(ring, elim, degrees)
    basis = module_buchberger(_bounded_vectors(ring, gens, rank), ring, elim, degrees)
    leads = [max(v, key=key) for v in basis]
    assert [next(iter(v)) for v in basis] == leads  # lead-first
    assert all(v[t] == 1 for v, t in zip(basis, leads))
    keys = [key(t) for t in leads]
    assert keys == sorted(set(keys))
    assert module_buchberger(basis, ring, elim, degrees) == basis
    for v, t in zip(basis, leads):
        tail = {u: c for u, c in v.items() if u != t}
        assert rescan_module_normal_form(tail, basis, ring, key) == tail


@settings(max_examples=60, deadline=None)
@given(bounded_ideals(max_extra=2), st.integers(1, 3), st.data())
def test_module_colength_is_the_same_under_every_grading(case, rank, data):
    ring, gens, _ = case
    vectors = _bounded_vectors(ring, gens, rank)
    degrees = data.draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank))
    assert module_colength(vectors, rank, ring, degrees) == module_colength(vectors, rank, ring)


@settings(max_examples=30, deadline=None)
@given(bounded_ideals(max_extra=1))
def test_graded_and_ungraded_syzygies_generate_one_module(case):
    ring, gens, _ = case
    # the ungraded syzygies, read off the ELIM basis with every e_i in
    # degree 0 (syzygies puts e_i in degree deg(a_i))
    extended = [{(0, m): c for m, c in f.terms.items()} | {(i + 1, (0,) * ring.nvars): 1}
                for i, f in enumerate(gens)]
    extended += [vector_from_polys([f]) for f in ring.relations]
    ungraded = [{(i - 1, m): c for (i, m), c in v.items()}
                for v in module_buchberger(extended, ring, elim=True) if next(iter(v))[0]]
    graded = [vector_from_polys(s) for s in syzygies(gens, ring)]
    graded_key = module_order(ring, degrees=[g.degree() for g in gens])
    for v in graded:
        assert not rescan_module_normal_form(v, ungraded, ring, module_order(ring))
    for v in ungraded:
        assert not rescan_module_normal_form(v, graded, ring, graded_key)


@settings(max_examples=40, deadline=None)
@given(bounded_ideals(), st.booleans(), st.integers(0, 6))
def test_module_colength_at_rank_one_matches_ideal_path(case, elim, degree):
    """A rank-1 module run is an ideal run, with the coprime criterion:
    under TOP or ELIM, e_0 in any degree, it gives the colength and the
    vectors of the ideal's reduced basis, and passes the unpruned check."""
    ring, gens, _ = case
    gb = buchberger(gens, ring)
    vectors = [as_vector(g) for g in gens]
    assert module_colength(vectors, 1, ring, [degree]) == colength_of_basis(gb, ring)
    vectors += [as_vector(f) for f in ring.relations]
    basis = module_buchberger(vectors, ring, elim, [degree])
    assert basis == [as_vector(g) for g in gb]
    assert module_is_groebner(basis, ring, module_order(ring, elim, [degree]))


@settings(max_examples=30, deadline=None)
@given(bounded_ideals(max_extra=1))
def test_syzygies_of_random_sequences_are_syzygies(case):
    ring, gens, _ = case
    relations = Ideal(ring, [])
    for s in syzygies(gens, ring):
        combo = sum((si * ai for si, ai in zip(s, gens)), ring.zero())
        assert relations.contains(combo)


@st.composite
def division_cases(draw):
    ring = draw(rings())
    basis = draw(st.lists(polys(ring), max_size=4))
    if draw(st.booleans()):
        basis.append(ring.zero())
    f = draw(polys(ring, max_terms=6, max_degree=5))
    return ring, basis, f


def _first_match(v, basis, ring, elim=False):
    """Remainder of the vector v under _divide by the vectors basis, packed
    in their order with zero ones skipped, in the TOP order or, with elim,
    the ELIM order: the engine's division by a list that need not be a
    Groebner basis, as _buchberger divides by a partial basis.  The
    fields are widened until every term fits."""
    terms = [t for w in (v, *basis) for t in w]
    rank = 1 + max((pos for pos, _ in terms), default=0)
    field_bytes = _field_bytes(max((sum(m) for _, m in terms), default=0))
    while True:
        lay = _Layout(ring, field_bytes, rank, elim)
        try:
            rows = {}
            for r in [_reducer(lay.pack(w), lay) for w in basis if w]:
                rows.setdefault(lay.position(r[1]), []).append(r)
            return lay.unpack(_divide(lay.pack(v), rows, lay).items())
        except _Overflow:
            field_bytes *= 2


@settings(max_examples=80, deadline=None)
@given(division_cases(), bounded_ideals(), st.data())
def test_normal_form_matches_rescan_division(case, ideal, data):
    ring, basis, f = case
    # the engine's division is defined for any list: arbitrary ones, then
    # an ideal's normal form, of bounded ideals so that Buchberger stays small
    assert _first_match(as_vector(f), list(map(as_vector, basis)), ring) == \
        as_vector(rescan_normal_form(f, basis))
    ring, gens, _ = ideal
    f = data.draw(polys(ring, max_terms=6, max_degree=5))
    gb = buchberger(gens, ring)
    assert Ideal(ring, gens).normal_form(f).terms == rescan_normal_form(f, gb).terms


def _spread(g, shift, rank):
    """g in component shift and (shift + 1) * g in the next, cyclically
    (at rank 1 both land in component 0)."""
    ring = g.ring
    comps = [ring.zero()] * rank
    comps[shift % rank] = g
    comps[(shift + 1) % rank] = comps[(shift + 1) % rank] + g * (shift + 1)
    return vector_from_polys(comps)


@settings(max_examples=60, deadline=None)
@given(division_cases(), st.integers(1, 3), st.booleans())
def test_module_normal_form_matches_rescan_division(case, rank, elim):
    ring, polys_, f = case
    basis = [_spread(g, i, rank) for i, g in enumerate(polys_)]
    v = _spread(f, 0, rank)
    assert _first_match(v, basis, ring, elim) == \
        rescan_module_normal_form(v, basis, ring, module_order(ring, elim))


@settings(max_examples=40, deadline=None)
@given(bounded_ideals(max_extra=2), st.integers(2, 3), st.booleans(), st.data())
def test_module_buchberger_passes_unpruned_criterion(case, rank, elim, data):
    ring, gens, _ = case
    degrees = _degrees(data, rank)
    key = module_order(ring, elim, degrees)
    vectors = _bounded_vectors(ring, gens, rank)
    basis = module_buchberger(vectors, ring, elim, degrees)
    assert module_is_groebner(basis, ring, key)
    for v in vectors:
        assert not rescan_module_normal_form(v, basis, ring, key)


def _rearranged(items, multiple, data):
    """items in a drawn order, with one of them repeated and a multiple of
    another inserted at drawn places."""
    items = list(data.draw(st.permutations(items)))
    for extra in (data.draw(st.sampled_from(items)),
                  multiple(data.draw(st.sampled_from(items)))):
        items.insert(data.draw(st.integers(0, len(items))), extra)
    return items


@settings(max_examples=80, deadline=None)
@given(bounded_ideals(), st.data())
def test_buchberger_is_independent_of_input_order_and_redundancy(case, data):
    ring, gens, _ = case
    gb = buchberger(gens, ring)
    f = data.draw(polys(ring))
    again = buchberger(_rearranged(gens, lambda g: g * f, data), ring)
    assert [g.terms for g in again] == [g.terms for g in gb]
    assert is_groebner(again)


@settings(max_examples=40, deadline=None)
@given(bounded_ideals(max_extra=2), st.integers(1, 3), st.booleans(), st.data())
def test_module_buchberger_is_independent_of_input_order_and_redundancy(case, rank, elim,
                                                                         data):
    ring, gens, _ = case
    degrees = _degrees(data, rank)
    vectors = _bounded_vectors(ring, gens, rank)
    basis = module_buchberger(vectors, ring, elim, degrees)
    f = data.draw(polys(ring))

    def times_f(v):
        return vector_from_polys([h * f for h in vector_to_polys(v, rank, ring)])

    again = module_buchberger(_rearranged(vectors, times_f, data), ring, elim, degrees)
    assert [list(v.items()) for v in again] == [list(v.items()) for v in basis]
    assert module_is_groebner(again, ring, module_order(ring, elim, degrees))
