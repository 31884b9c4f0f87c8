"""Exact multivariate polynomial arithmetic over prime fields F_p.

Monomials are exponent tuples, one entry per ring variable.  Polynomials
are immutable maps monomial -> nonzero coefficient in [1, p).  All
arithmetic is exact mod p; there is no floating point anywhere.

Polynomial.__init__ is the one place that puts coefficients in that
canonical form: it reduces each one mod p and drops the zeros.  The
arithmetic methods and Ring.monomial pass it plain integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add
from typing import Iterable

Monomial = tuple[int, ...]

MAX_CHARACTERISTIC = 2**31


class RingMismatchError(ValueError):
    """Operands live in different rings."""


class PolynomialParseError(ValueError):
    """Malformed polynomial text."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_p_power(q: int, p: int) -> bool:
    """True iff q is a (possibly zeroth) power of p."""
    if q < 1:
        return False
    while q % p == 0:
        q //= p
    return q == 1


@dataclass(frozen=True)
class MonomialOrder:
    """A degree-compatible-or-lex total order on monomials.

    kind is "grevlex" or "lex"; variables rank in the ring's order, the
    first most significant.  key() returns a tuple that sorts small
    monomials first, so max(..., key=order.key) is the leading monomial.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return mono
        # grevlex: total degree first, then the reversed exponent vector
        # with sign flipped (smaller last exponent wins ties).
        return (sum(mono), tuple(-e for e in reversed(mono)))


class Ring:
    """A presentation F_p[variables] / (relations) with a fixed monomial order.

    With no relations this is the polynomial ring itself (the regular
    case).  Every relation is homogeneous of positive degree, so the ring
    is graded and the ideal m of all variables is its homogeneous maximal
    ideal: the global dimension is dim R_m, and every colength downstream
    is an F_p-vector-space dimension.
    """

    def __init__(self, p: int, variables: Iterable[str], relations=(),
                 order: str = "grevlex"):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p >= MAX_CHARACTERISTIC:
            raise ValueError("characteristic too large; prime fields only, p < 2^31")
        self.p = p
        self.variables = tuple(variables)
        if not self.variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for v in self.variables:
            # a name that polynomial text cannot spell could never be used
            try:
                ok = _tokenize(v) == [("name", v), (None, None)]
            except PolynomialParseError:
                ok = False
            if not ok:
                raise ValueError(f"variable name {v!r} is not a single name "
                                 "token of polynomial text")
        self.order = MonomialOrder(order)
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        rels = []
        for r in relations:
            poly = self.poly(r) if isinstance(r, str) else r
            if poly.ring is not self:
                raise RingMismatchError("relation from a different ring")
            if not poly.is_homogeneous() or poly.degree() == 0:
                raise ValueError(f"relation {poly} is not homogeneous of positive degree")
            if not poly.is_zero():
                rels.append(poly)
        self.relations = tuple(rels)
        self._dim = None  # filled lazily by ideals.krull_dim

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def is_regular(self) -> bool:
        """True when there are no relations (the polynomial ring)."""
        return not self.relations

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def var(self, name_or_index) -> "Polynomial":
        i = (self._var_index[name_or_index]
             if isinstance(name_or_index, str) else name_or_index)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps: Iterable[int], coeff: int = 1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        return Polynomial(self, {exps: coeff})

    def poly(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def same_as(self, other: "Ring") -> bool:
        return self is other or (
            self.p == other.p and self.variables == other.variables
            and self.order == other.order
            and [r.terms for r in self.relations] == [r.terms for r in other.relations])

    def __repr__(self):
        quot = ""
        if self.relations:
            quot = "/(" + ", ".join(str(r) for r in self.relations) + ")"
        return f"F_{self.p}[{', '.join(self.variables)}]{quot}"


class Polynomial:
    """An element of a Ring's ambient polynomial ring, in canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        p = ring.p
        self.terms = {m: r for m, c in terms.items() if (r := c % p)}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        """Every term of one total degree; the zero polynomial is."""
        return len({sum(m) for m in self.terms}) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.order.key)

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def _check(self, other: "Polynomial"):
        if not self.ring.same_as(other.ring):
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.ring, terms)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.ring, {m: v * other for m, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def term_mul(self, mono: Monomial, coeff: int) -> "Polynomial":
        """Multiply by a single term, cheaper than building a Polynomial."""
        return Polynomial(self.ring, {tuple(map(add, m, mono)): v * coeff
                                      for m, v in self.terms.items()})

    def frobenius(self, q: int) -> "Polynomial":
        """f^q for q a power of the characteristic, term by term.

        Valid because Frobenius is additive in characteristic p; equals
        repeated squaring.  Coefficients in F_p are fixed by x -> x^q.
        """
        if not is_p_power(q, self.ring.p):
            raise ValueError(f"{q} is not a power of the characteristic {self.ring.p}")
        if q == 1:
            return self
        return Polynomial(self.ring,
                          {tuple(e * q for e in m): c for m, c in self.terms.items()})

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        terms: dict = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                terms[tuple(mm)] = c * m[i]
        return Polynomial(self.ring, terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.ring.monomial((0,) * self.ring.nvars, other).terms
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.same_as(other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in self.sorted_terms():
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s+|(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()])|(?P<bad>.)")


def _tokenize(text: str) -> list[tuple[str | None, str | None]]:
    """(kind, text) of each token, then (None, None).  kind is "int",
    "name", or the operator character itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m[0]
        # \w also takes digits that int() refuses, such as '²'
        if kind == "bad" or kind == "name" and not (tok[0].isalpha() or tok[0] == "_"):
            raise PolynomialParseError(f"unexpected character {tok[0]!r} in {text!r}")
        if kind:
            tokens.append((tok if kind == "op" else kind, tok))
    tokens.append((None, None))
    return tokens


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse integer-coefficient polynomial text into canonical form mod p.

    sum = ('+'|'-')? term (('+'|'-') term)*, term = factor ('*'? factor)*,
    factor = base ('^' int)?, base = int | var | '(' sum ')'.  One loop
    reads the tokens left to right.  A product is kept as one
    coefficient mod p, one exponent list and the product of its groups,
    so Polynomial arithmetic runs only for sums, groups and powers of
    groups.  A '(' saves the interrupted (sum, sign, product) on a stack
    and its ')' restores it, with the group's sum as the next base, so
    any nesting depth parses.  None is an empty sum, product or group
    product; sign 0 means no sign yet at the start of a sum.
    """
    if not text.strip():
        raise PolynomialParseError("empty polynomial text")
    tokens = _tokenize(text.replace("−", "-"))  # unicode minus
    p, nvars, index = ring.p, ring.nvars, ring._var_index
    stack = []
    # a product is coeff * x^exps * group
    total, sign, coeff, exps, group = None, 0, None, None, None
    i = 0
    while True:
        kind, val = tokens[i]
        i += 1
        if kind in ("+", "-") and sign == 0 and coeff is None:
            sign = 1 if kind == "+" else -1
            kind, val = tokens[i]
            i += 1
        if kind == "(":
            stack.append((total, sign, coeff, exps, group))
            total, sign, coeff = None, 0, None
            continue
        if kind == "int":
            var, base = None, int(val)
        elif kind == "name":
            var = index.get(val)
            if var is None:
                raise PolynomialParseError(f"unknown variable {val!r}")
        else:
            raise PolynomialParseError(f"unexpected token {val!r}")
        while True:  # after a base: its power, then the next factor, term or ')'
            kind, val = tokens[i]
            power = 1
            if kind == "^":
                kind, val = tokens[i + 1]
                if kind != "int":
                    raise PolynomialParseError("exponent must be a natural number")
                power = int(val)
                i += 2
                kind, val = tokens[i]
            if coeff is None:
                coeff, exps, group = 1, [0] * nvars, None
            if var is not None:
                exps[var] += power
            elif isinstance(base, int):
                coeff = coeff * pow(base, power, p) % p
            else:
                base = base if power == 1 else base ** power
                group = base if group is None else group * base
            if kind in ("*", "int", "name", "("):  # another factor: '*' is optional
                i += kind == "*"
                break
            if sign < 0:
                coeff = -coeff
            product = Polynomial(ring, {tuple(exps): coeff})
            if group is not None:
                product = group * product
            total = product if total is None else total + product
            if kind in ("+", "-"):
                sign, coeff = (1 if kind == "+" else -1), None
                i += 1
                break
            if not stack:
                if kind is None:
                    return total
                raise PolynomialParseError(f"trailing input at token {val!r}")
            if kind != ")":
                raise PolynomialParseError("unbalanced parentheses")
            i += 1
            var, base = None, total
            total, sign, coeff, exps, group = stack.pop()
