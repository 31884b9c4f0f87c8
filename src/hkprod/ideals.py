"""Ideal algebra over a Ring: sums, products, powers, bracket powers,
colons, minimal generator counts, Krull dimension, parameter-ideal
detection, and random_ideal, which draws one ideal of a named family
from the caller's random.Random for randomized trials."""

from __future__ import annotations

import random

from . import groebner
from .rings import Polynomial, Ring, RingMismatchError, is_p_power


_UNCOUNTED = object()  # Ideal._colength before the first count; None means infinite


class InfiniteColengthError(ValueError):
    """The ideal, or module, has infinite colength."""


class Ideal:
    """An ideal of the presented ring, with a lazily cached Groebner basis.

    The basis always presents I + Q in the ambient polynomial ring, so
    colengths over the quotient come for free.  A computed basis is held
    as groebner.Reducers, the engine's packed minimal basis: colengths
    count the staircase of its leading terms, membership tests and
    normal forms divide by it, and only groebner_basis unpacks and
    interreduces it, at its first read.  A product keeps its factors:
    its basis comes from theirs, and its generators f*g are built only
    when read.
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
        self._gens = tuple(polys)
        self._factors = None
        self._reducers = None
        self._gb = None
        self._colength = _UNCOUNTED
        self._mu = None
        self._min_gens = None
        self._brackets: dict[int, Ideal] = {}
        self._products: dict[tuple, tuple[Ideal, Ideal]] = {}

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        if self._gens is None:
            A, B = self._factors
            self._gens = tuple(dict.fromkeys(f * g for f in A.gens for g in B.gens))
            if self._reducers is not None:
                self._factors = None  # as in reducers
        return self._gens

    @property
    def reducers(self) -> groebner.Reducers:
        """A minimal Groebner basis of I + Q, run by the engine at the
        first read, on a product's factors' bases (Reducers.times)."""
        if self._reducers is None and self._factors:
            A, B = self._factors
            self._reducers = A.reducers.times(B.reducers)
            if self._gens is not None:
                # both built: let the factors go, so that a product kept by
                # its factor (sequence_product) leaves no reference cycle
                self._factors = None
        elif self._reducers is None:
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
        if self._colength is _UNCOUNTED:
            self._colength = _staircase(self.reducers)
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
        product = Ideal(self.ring, ())
        product._gens, product._factors = None, (self, other)
        return product

    def sequence_product(self, a) -> tuple["Ideal", "Ideal"]:
        """(J, I*J) for the ideal J of the sequence a, memoized per
        generator tuple of a, so each keeps its cached basis across
        Frobenius levels."""
        key = tuple(a)
        if key not in self._products:
            J = Ideal(self.ring, key)
            self._products[key] = (J, self * J)
        return self._products[key]

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
        """I^[q], generated by the q-th Frobenius powers of I's generators,
        memoized per q so each bracket power keeps its cached basis."""
        if not is_p_power(q, self.ring.p):
            raise ValueError(f"{q} is not a power of the characteristic")
        if q == 1:
            return self
        if q not in self._brackets:
            self._brackets[q] = Ideal(self.ring, [g.frobenius(q) for g in self.gens])
        return self._brackets[q]

    def bracket_colength(self, q: int) -> int:
        """lambda(R/I^[q]); raises InfiniteColengthError when infinite.

        On a polynomial ring this is q^n * lambda(R/I) and no bracket is
        built: S is free over S^q on the x^a with 0 <= a_i < q (Kunz
        1969).  On a quotient the staircase of bracket_power(q) is
        counted."""
        if not self.ring.is_regular:
            return self.bracket_power(q).colength_strict()
        if not is_p_power(q, self.ring.p):
            raise ValueError(f"{q} is not a power of the characteristic")
        return q ** self.ring.nvars * self.colength_strict()

    def colon(self, f: Polynomial) -> "Ideal":
        """(I : f) = {g : g*f in I}, computed by module elimination."""
        return Ideal(self.ring, groebner.colon_by_element(list(self.gens), f, self.ring))

    def min_gens(self) -> int:
        """mu(I) = lambda(R/mI) - lambda(R/I), m the ideal of all variables;
        mI comes from I's packed basis (Reducers.times)."""
        if self._mu is None:
            lam = self.colength_strict()
            self._mu = _staircase(self.reducers.times(self.reducers.variables())) - lam
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


def _staircase(reducers: groebner.Reducers):
    """lambda(R/I) for the Reducers of I + Q, None when infinite."""
    return groebner.staircase_count(reducers.leads().get(0, ()), reducers.ring.nvars)


def maximal_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, [ring.var(i) for i in range(ring.nvars)])


def _lead_supports(ring: Ring) -> list[frozenset[int]]:
    """The variables of each leading monomial of GB(Q)."""
    gb = groebner.buchberger([], ring) if ring.relations else []
    return [frozenset(i for i, e in enumerate(g.leading_monomial()) if e) for g in gb]


def _cover_number(supports: list[frozenset[int]]) -> int:
    """The fewest variables that meet every support, all nonempty.

    Depth-first over partial covers: a cover branches on the smallest
    support it misses, one child per variable of it, and is pruned when
    its size plus a greedy count of pairwise disjoint missed supports,
    each of which needs a variable of its own, reaches the best cover
    found so far."""
    supports = sorted(set(supports), key=len)
    best = len(frozenset().union(*supports))
    stack = [frozenset()]
    while stack:
        cover = stack.pop()
        missed = [s for s in supports if not s & cover]
        if not missed:
            best = len(cover)  # below best, or the bound had pruned it
            continue
        used, bound = set(), len(cover)
        for s in missed:
            if not s & used:
                used |= s
                bound += 1
        if bound < best:
            stack.extend(cover | {v} for v in missed[0])
    return best


def krull_dim(ring: Ring) -> int:
    """Dimension of S/Q: n minus the fewest variables that meet every
    leading monomial of GB(Q) (combinatorial dimension of the initial
    ideal: the complement of such a cover is a largest variable subset
    that contains no leading monomial)."""
    if ring._dim is None:
        supports = _lead_supports(ring)
        # the empty support of a unit meets no cover: the zero ring
        ring._dim = 0 if frozenset() in supports else ring.nvars - _cover_number(supports)
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


def _pure_powers(rng: random.Random, ring: Ring, variables, bound: int) -> list[Polynomial]:
    """x_i^(a_i) for the variables i in order, each a_i drawn from
    1 ... bound in turn."""
    gens = []
    for i in variables:
        exps = [0] * ring.nvars
        exps[i] = rng.randint(1, bound)
        gens.append(ring.monomial(exps))
    return gens


def _monomial_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    # pure powers of every variable first, forcing m-primariness
    gens = _pure_powers(rng, ring, range(ring.nvars), bound)
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


def _parameter_variables(ring: Ring) -> list[int]:
    """d = dim R variables whose powers form parameters: the first d
    when they and Q give an m-primary ideal, else the d variables that
    have no pure power among the leading monomials of GB(Q), whose
    powers and Q then hold a power of every variable.  A ring of
    dimension 0 has only the empty parameter sequence and is refused."""
    d = krull_dim(ring)
    if d == 0:
        raise ValueError(f"parameter-powers needs dim R >= 1, but dim R = 0 in {ring}")
    if Ideal(ring, map(ring.var, range(d))).is_m_primary():
        return list(range(d))
    powered = {i for s in _lead_supports(ring) if len(s) == 1 for i in s}
    free = [i for i in range(ring.nvars) if i not in powered]
    if len(free) != d:
        raise InfiniteColengthError(f"no powers of the variables form parameters in {ring}")
    return free


def _parameter_powers_gens(rng: random.Random, ring: Ring, bound: int) -> list[Polynomial]:
    return _pure_powers(rng, ring, _parameter_variables(ring), bound)


_BUILDERS = {
    "monomial": _monomial_gens,
    "binomial": _binomial_gens,
    "dense": _dense_gens,
    "parameter-powers": _parameter_powers_gens,
}
FAMILIES = tuple(_BUILDERS)


def random_ideal(rng: random.Random, ring: Ring, family: str, bound: int) -> Ideal:
    """The next ideal of `family` drawn from `rng`, monomials of degree
    at most `bound`.  Monomial and binomial draws hold a pure power of
    every variable, and parameter-powers draws take the powers of
    _parameter_variables, which raises at once on a ring of dimension
    0 or where none fit; a draw of infinite colength, which only the
    dense family can make, is redrawn from the same rng, up to 200
    draws, so the stream stays a function of the rng's state."""
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
