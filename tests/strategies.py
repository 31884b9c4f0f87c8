"""Hypothesis strategies shared by the differential tests.

Rings: lex or grevlex, p in {2, 3, 5, 2^31-1} (or a given subset), one
to four variables or, unless excluded, a quotient: the Fermat cubic over
F_2 with the variables listed in a drawn order (which ranks them in that
order), or the cone R_n over the rational normal curve, n in 2..4, over
a drawn p in {2, 3, 5}, with its several quadratic relations.
Ideals: a pure power of every variable plus non-homogeneous generators.
The pure powers bound the quotient, which keeps the bases small and
makes the truncated-span oracles exact at a degree computed from the
input.
"""

from hypothesis import strategies as st

from hkprod import Ring

from .oracles import rational_normal_curve

PRIMES = (2, 3, 5, 2**31 - 1)


@st.composite
def rings(draw, primes=PRIMES, quotients=True):
    order = draw(st.sampled_from(["grevlex", "lex"]))
    small = [p for p in primes if p in (2, 3, 5)]
    branch = draw(st.integers(0, 4)) if quotients else None
    if branch == 0:
        return Ring(2, draw(st.permutations("xyz")), relations=["x^3+y^3+z^3"],
                    order=order)
    if branch == 1 and small:
        return rational_normal_curve(draw(st.integers(2, 4)), draw(st.sampled_from(small)),
                                     order)
    n = draw(st.integers(1, 4))
    return Ring(draw(st.sampled_from(primes)), draw(st.permutations("wxyz"[:n])),
                order=order)


@st.composite
def polys(draw, ring, max_terms=3, max_degree=3, min_degree=0):
    f = ring.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        exps = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1),
                               min_size=min_degree, max_size=max_degree)):
            exps[i] += 1
        f = f + ring.monomial(exps, draw(st.integers(1, ring.p - 1)))
    return f


@st.composite
def bounded_ideals(draw, max_extra=4, ring=rings()):
    """(ring, generators, degree at which the span oracles are exact);
    the ring is drawn from the strategy `ring`."""
    ring = draw(ring)
    top = 3 if ring.nvars <= 3 else 2
    powers = [draw(st.integers(1, top)) for _ in range(ring.nvars)]
    gens = [ring.monomial([a if j == i else 0 for j in range(ring.nvars)])
            for i, a in enumerate(powers)]
    # no constant terms: the ideal stays inside the maximal ideal
    gens += [g for g in draw(st.lists(polys(ring, min_degree=1), max_size=max_extra))
             if not g.is_zero()]
    return ring, gens, exact_degree(ring, powers, gens)


def exact_degree(ring, powers, gens):
    """The degree at which the span oracles are exact for an ideal that
    holds gens and the pure powers x_i^powers[i], each power at least 1."""
    # every monomial of degree >= d0 is a multiple of a pure power, so the
    # span of generator multiples of degree <= D holds every ideal member of
    # degree <= D once D >= d0 - 1 + (largest generator degree); D >= d0 + 1
    # gives brute_colength three degrees >= d0 - 1, where the count is stable
    d0 = sum(a - 1 for a in powers) + 1
    max_gen_deg = max(g.degree() for g in list(gens) + list(ring.relations))
    return max(d0 + 1, d0 - 1 + max_gen_deg)
