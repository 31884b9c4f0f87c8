"""Hilbert-Kunz tables and estimates, exact monomial volumes, the
star spread, and a finite-q tight-closure membership probe.

Every normalized value is an exact Fraction; nothing here touches
floating point, so downstream equality checks carry no tolerance."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import le

from .ideals import Ideal, InfiniteColengthError, krull_dim
from .rings import Polynomial, Ring


def exact_text(v) -> str:
    """The text of an exact value in JSON and CSV output: a Fraction as
    n/d, whole numbers too (5/1), so a reader parses one form; anything
    else as str(v)."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


@dataclass
class HKRow:
    q: int
    colength: int
    normalized: Fraction


@dataclass
class HKTable:
    """Per-q colengths lambda(R/I^[q]) with exact normalizations by q^d."""

    ideal: Ideal
    d: int
    rows: list[HKRow]

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "d": self.d,
            "ideal": [str(g) for g in self.ideal.gens],
            "rows": [{"q": r.q, "colength": r.colength,
                      "normalized": exact_text(r.normalized)}
                     for r in self.rows],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["q", "colength", "normalized_num", "normalized_den"])
        for r in self.rows:
            w.writerow([r.q, r.colength, r.normalized.numerator, r.normalized.denominator])
        return buf.getvalue()


def levels(p: int, e_max: int, start: int = 0) -> list[int]:
    """The Frobenius levels q = p^start ... p^e_max, ascending: the one
    list every per-q loop (tables, probes, per-q checks) reads.  An
    empty range would check nothing and is refused."""
    if e_max < start:
        raise ValueError(f"needs e_max at least {start}, got {e_max}")
    return [p ** e for e in range(start, e_max + 1)]


def hk_table(I: Ideal, e_max: int) -> HKTable:
    """Exact rows for q = p^0 ... p^e_max; raises on infinite colength."""
    d = krull_dim(I.ring)
    rows = []
    for q in levels(I.ring.p, e_max):
        lam = I.bracket_colength(q)
        rows.append(HKRow(q=q, colength=lam, normalized=Fraction(lam, q ** d)))
    return HKTable(ideal=I, d=d, rows=rows)


ESTIMATE_METHODS = ("auto", "sequence-extrapolated")


@dataclass
class HKEstimate:
    """A value for e_HK(I) together with how it was obtained; is_limit
    only on polynomial rings, where the value is exact."""

    value: Fraction
    method: str
    is_limit: bool


def hk_estimate(I: Ideal, e_max: int, method: str = "auto") -> HKEstimate:
    """Exact on a polynomial ring, where only `auto` applies; elsewhere
    the last row, or with sequence-extrapolated the last two rows' fit."""
    if method not in ESTIMATE_METHODS:
        raise ValueError(f"unknown estimation method {method!r}")
    if I.ring.is_regular:
        if method != "auto":
            raise ValueError(f"{method} needs a ring with relations")
        if I.gens and all(len(g.terms) == 1 for g in I.gens):
            return HKEstimate(monomial_hk_volume(I), "exact-monomial-volume", True)
        # Kunz: Frobenius is flat over regular rings, so e_HK(I) = lambda(R/I)
        return HKEstimate(Fraction(I.colength_strict()), "exact-regular", True)
    rows = hk_table(I, e_max).rows
    if method == "auto":
        return HKEstimate(rows[-1].normalized, "sequence-last", False)
    if len(rows) < 2:
        raise ValueError("extrapolation needs at least two rows")
    # fit v(q) = e + c/q through the last two rows; O(1/q) deviation
    # heuristic, never claimed as the limit
    (q1, v1), (q2, v2) = ((r.q, r.normalized) for r in rows[-2:])
    return HKEstimate(Fraction(q2 * v2 - q1 * v1, q2 - q1), method, False)


def monomial_hk_volume(I: Ideal) -> Fraction:
    """Exact e_HK of an m-primary monomial ideal in a polynomial ring.

    The Euclidean volume of the staircase complement inside the box
    bounded by the pure powers, by inclusion-exclusion over the lcm
    lattice (Miller-Sturmfels, ch. 5): the minimal generators inside the
    box are joined one at a time, every distinct join (componentwise
    max) carries one signed coefficient, and joins whose coefficient
    cancels to 0 are dropped.  The unit ideal has volume 0.
    """
    ring = I.ring
    if not ring.is_regular:
        raise ValueError("monomial volume needs a relation-free presentation")
    if any(len(g.terms) != 1 for g in I.gens):
        raise ValueError("monomial volume needs monomial generators")
    n = ring.nvars
    leads = set(g.leading_monomial() for g in I.gens)
    if (0,) * n in leads:
        return Fraction(0)
    gens = sorted(m for m in leads
                  if not any(o != m and all(map(le, o, m)) for o in leads))
    bounds = [None] * n
    for m in gens:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            bounds[support[0]] = m[support[0]]
    if any(b is None for b in bounds):
        raise InfiniteColengthError("monomial ideal is not m-primary")
    # the pure powers bound the box and cover no volume inside it; every
    # other minimal generator, and so every join, lies inside the box
    inside = [m for m in gens if all(e < b for e, b in zip(m, bounds))]
    coeffs: dict[tuple[int, ...], int] = {}
    for g in inside:
        step = {g: 1}
        for join, c in coeffs.items():
            j = tuple(map(max, join, g))
            step[j] = step.get(j, 0) - c
        for join, c in step.items():
            c += coeffs.get(join, 0)
            if c:
                coeffs[join] = c
            else:
                coeffs.pop(join, None)
    box = prod(bounds)
    covered = sum(c * prod(b - e for e, b in zip(join, bounds))
                  for join, c in coeffs.items())
    return Fraction(box - covered)


def star_spread(J: Ideal, mode=None) -> int:
    """The *-spread of J.  On a polynomial ring tight closure is trivial,
    so it is mu(J) and no mode is taken.  Elsewhere J is asserted tightly
    equivalent to a parameter ideal, so it is dim R, or `mode` when the
    caller gives a positive integer."""
    if J.ring.is_regular:
        if mode is not None:
            raise ValueError("no star-spread mode on a polynomial ring")
        return J.min_gens()
    if mode is None:
        return krull_dim(J.ring)
    if type(mode) is not int or mode < 1:
        raise ValueError(f"star spread must be a positive int, got {mode!r}")
    return mode


@dataclass
class ProbeVerdict:
    """Outcome of the finite-q membership probe c * z^q in I^[q].

    consistent=True means every checked level passed (ConsistentUpTo
    q_max); otherwise q is the first failing level and witness the
    nonzero normal form there.  A refutation disproves z in I* only
    under the caller's assertion that c is a test element.
    """

    consistent: bool
    q: int
    witness: Polynomial | None = None

    def __str__(self):
        if self.consistent:
            return f"ConsistentUpTo({self.q})"
        return f"RefutedAt({self.q}): normal form {self.witness}"


def tc_probe(z: Polynomial, I: Ideal, c: Polynomial, e_max: int) -> ProbeVerdict:
    """Check c * z^q in I^[q] for q = p^1 ... p^e_max."""
    if c.is_zero():
        raise ValueError("multiplier c must be nonzero")
    qs = levels(I.ring.p, e_max, 1)
    for q in qs:
        nf = I.bracket_power(q).normal_form(c * z.frobenius(q))
        if not nf.is_zero():
            return ProbeVerdict(consistent=False, q=q, witness=nf)
    return ProbeVerdict(consistent=True, q=qs[-1])


def jacobian_candidates(ring: Ring) -> list[Polynomial]:
    """Nonzero partial derivatives of a single-relation presentation;
    candidate test elements for hypersurface probes.  An empty list
    flags the degenerate case of all partials vanishing."""
    if len(ring.relations) != 1:
        raise ValueError("jacobian candidates need exactly one relation")
    f = ring.relations[0]
    return [g for g in (f.partial(i) for i in range(ring.nvars)) if not g.is_zero()]
