"""Ideal algebra over a Ring: sums, products, powers, bracket powers,
colons, minimal generator counts, Krull dimension, parameter-ideal
detection, and random_ideal, which draws one ideal of a named family
from the caller's random.Random for randomized trials."""

from __future__ import annotations

import random
from itertools import combinations

from . import groebner
from .rings import Polynomial, Ring, RingMismatchError, is_p_power


class InfiniteColengthError(ValueError):
    """The ideal, or module, has infinite colength."""


class Ideal:
    """An ideal of the presented ring, with a lazily cached Groebner basis.

    The basis always presents I + Q in the ambient polynomial ring, so
    colengths over the quotient come for free.  A computed basis is held
    as groebner.Reducers, the engine's packed minimal basis: colengths
    count the staircase of its leading terms, membership tests and
    normal forms divide by it, and only groebner_basis unpacks and
    interreduces it, at its first read.  A bracket power's transported
    G^[q] is held as the reduced basis alone: its colength reads the
    leading monomials of G^[q], and reducers packs G^[q] at the first
    division.
    """

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        polys = []
        for g in gens:
            f = ring.poly(g) if isinstance(g, str) else g
            if not f.ring.same_as(ring):
                raise RingMismatchError("generator from a different ring")
            if not f.is_zero():
                polys.append(f)
        self.gens = tuple(polys)
        self._reducers = None
        self._gb = None
        self._colength = None
        self._mu = None
        self._min_gens = None
        self._brackets: dict[int, Ideal] = {}

    @property
    def reducers(self) -> groebner.Reducers:
        """A minimal Groebner basis of I + Q, packed at the first read:
        a bracket power's G^[q], else the engine's."""
        if self._reducers is None:
            if self._gb is not None:
                self._reducers = groebner.Reducers(
                    list(map(groebner.as_vector, self._gb)), self.ring)
            else:
                self._reducers = groebner.Reducers.from_engine(
                    [groebner.as_vector(f) for f in (*self.gens, *self.ring.relations)],
                    self.ring)
        return self._reducers

    @property
    def groebner_basis(self) -> list[Polynomial]:
        """The reduced Groebner basis, groebner.buchberger(gens, ring)."""
        if self._gb is None:
            self._gb = groebner.interreduce(self.reducers)
        return self._gb

    def colength(self):
        """lambda(R/I); None when infinite."""
        if self._colength is None:
            if self._reducers is None and self._gb is not None:
                leads = [g.leading_monomial() for g in self._gb]  # a transported G^[q]
            else:
                leads = [m for _, m in self.reducers.leads()]
            self._colength = groebner.staircase_count(leads, self.ring.nvars)
        return self._colength

    def colength_strict(self) -> int:
        c = self.colength()
        if c is None:
            raise InfiniteColengthError(f"ideal ({self}) has infinite colength")
        return c

    def is_m_primary(self) -> bool:
        return self.colength() is not None

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return groebner.normal_form(f, None, self.reducers)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        gens = dict.fromkeys(f * g for f in self.gens for g in other.gens)
        return Ideal(self.ring, gens)

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, list(self.gens) + list(other.gens))

    def power(self, n: int) -> "Ideal":
        if n < 1:
            raise ValueError("ideal power needs n >= 1")
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def bracket_power(self, q: int) -> "Ideal":
        """I^[q], generated by the q-th Frobenius powers of one generating
        list, memoized per q so each bracket power keeps its cached basis.

        On a polynomial ring that list is G, the reduced basis of I, and
        G^[q] is both the generators and the reduced basis of I^[q]; no
        engine runs, and G^[q] is packed only at its first division.
        Over a quotient the generators are powered and Buchberger runs."""
        if not is_p_power(q, self.ring.p):
            raise ValueError(f"{q} is not a power of the characteristic")
        if q == 1:
            return self
        if q not in self._brackets:
            regular = self.ring.is_regular
            gq = [g.frobenius(q) for g in (self.groebner_basis if regular else self.gens)]
            bracket = Ideal(self.ring, gq)
            if regular:
                # Frobenius is flat on S (Kunz): S is free over S^q on the
                # x^a with 0 <= a_i < q, so every lead of I^[q] is a multiple
                # of some lt(g)^q; and x -> x^q keeps the monomial order,
                # monic leads and reducedness.  G^[q] is the reduced basis.
                bracket._gb = gq
            self._brackets[q] = bracket
        return self._brackets[q]

    def colon(self, f: Polynomial) -> "Ideal":
        """(I : f) = {g : g*f in I}, computed by module elimination."""
        return Ideal(self.ring, groebner.colon_by_element(list(self.gens), f, self.ring))

    def min_gens(self) -> int:
        """mu(I) = lambda(R/mI) - lambda(R/I), m the ideal of all variables."""
        if self._mu is None:
            lam = self.colength_strict()
            self._mu = (maximal_ideal(self.ring) * self).colength_strict() - lam
        return self._mu

    def _greedy_trim(self, gens) -> list[Polynomial]:
        gens = sorted(gens, key=lambda g: (g.degree(),
                                           self.ring.order.key(g.leading_monomial())))
        # one backward pass: a kept generator stays outside the ideal of
        # the others, because deleting generators only shrinks that ideal
        for i in range(len(gens) - 1, -1, -1):
            rest = gens[:i] + gens[i + 1:]
            if rest and Ideal(self.ring, rest).contains(gens[i]):
                del gens[i]
        return gens

    def minimal_generators(self) -> list[Polynomial]:
        """A generating sequence of I, by greedy trimming.

        Trims the given generators and, when that leaves more than mu(I)
        of an m-primary I, also the reduced basis (echelonized, so single
        generators are redundant there more often), and returns the
        shorter.  Each is irredundant, but neither need have mu(I)
        elements: a unit combination of generators can be redundant where
        no single one is.  The length identity holds for any generating
        sequence; a caller that needs mu(I) compares lengths.  Computed
        once per ideal; each call returns a fresh list.
        """
        if self._min_gens is None:
            trimmed = self._greedy_trim(list(self.gens))
            if self.is_m_primary() and len(trimmed) != self.min_gens():
                trimmed = min(trimmed, self._greedy_trim(list(self.groebner_basis)), key=len)
            self._min_gens = trimmed
        return list(self._min_gens)

    def equals(self, other: "Ideal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def _check(self, other: "Ideal"):
        if not self.ring.same_as(other.ring):
            raise RingMismatchError("ideals over different rings")

    def __str__(self):
        return ", ".join(str(g) for g in self.gens) if self.gens else "0"

    def __repr__(self):
        return f"Ideal({self})"


def maximal_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, [ring.var(i) for i in range(ring.nvars)])


def krull_dim(ring: Ring) -> int:
    """Dimension of S/Q: the largest variable subset meeting no leading
    monomial of GB(Q) (combinatorial dimension of the initial ideal)."""
    if ring._dim is None:
        gb = groebner.buchberger([], ring) if ring.relations else []
        supports = [frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
                    for g in gb]
        # every subset contains the empty support of a unit: the zero ring
        ring._dim = next((size for size in range(ring.nvars, -1, -1)
                          for sub in combinations(range(ring.nvars), size)
                          if not any(s.issubset(sub) for s in supports)), 0)
    return ring._dim


def is_parameter_ideal(J: Ideal) -> bool:
    """m-primary and generated by exactly d = dim elements."""
    if not J.is_m_primary():
        return False
    return J.min_gens() == krull_dim(J.ring)


# --- seeded random families --------------------------------------------------

def _random_monomial(rng: random.Random, ring: Ring, bound: int) -> Polynomial:
    total = rng.randint(1, bound)
    exps = [0] * ring.nvars
    for _ in range(total):
        exps[rng.randrange(ring.nvars)] += 1
    return ring.monomial(exps)


def _pure_powers(rng: random.Random, ring: Ring, count: int, bound: int) -> list[Polynomial]:
    """x_i^(a_i) for the first count variables in order, each a_i drawn
    from 1 ... bound in turn."""
    gens = []
    for i in range(count):
        exps = [0] * ring.nvars
        exps[i] = rng.randint(1, bound)
        gens.append(ring.monomial(exps))
    return gens


def _monomial_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    # pure powers of every variable first, forcing m-primariness
    gens = _pure_powers(rng, ring, ring.nvars, bound)
    for _ in range(rng.randint(0, ring.nvars)):
        gens.append(_random_monomial(rng, ring, bound))
    return gens


def _binomial_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    gens = _monomial_gens(rng, ring, bound)
    for _ in range(rng.randint(1, 2)):
        m1 = _random_monomial(rng, ring, bound)
        m2 = _random_monomial(rng, ring, bound)
        gens.append(m1 + m2 * rng.randint(1, ring.p - 1))
    return gens


def _dense_poly(rng: random.Random, ring: Ring, bound: int) -> Polynomial:
    f = ring.zero()
    for _ in range(rng.randint(2, 4)):
        f = f + _random_monomial(rng, ring, bound) * rng.randint(1, ring.p - 1)
    return f


def _dense_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    return [_dense_poly(rng, ring, bound) for _ in range(ring.nvars + 1)]


def _parameter_powers_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    return _pure_powers(rng, ring, krull_dim(ring), bound)


_BUILDERS = {
    "monomial": _monomial_gens,
    "binomial": _binomial_gens,
    "dense": _dense_gens,
    "parameter-powers": _parameter_powers_gens,
}
FAMILIES = tuple(_BUILDERS)


def random_ideal(rng: random.Random, ring: Ring, family: str, bound: int) -> Ideal:
    """The next ideal of `family` drawn from `rng`, monomials of degree
    at most `bound`.  A family that cannot guarantee finite colength by
    construction (dense, binomial over quotients) is redrawn from the
    same rng, up to 200 draws, so the stream stays a function of the
    rng's state."""
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}")
    if bound < 1:
        raise ValueError("degree bound must be positive")
    for _ in range(200):
        ideal = Ideal(ring, _BUILDERS[family](rng, ring, bound))
        if ideal.gens and ideal.is_m_primary():
            return ideal
    raise InfiniteColengthError(
        "random ideal family keeps producing non-m-primary ideals")
