"""Brute-force linear-algebra oracles, independent of the Groebner engine.

Everything here works by truncating the ring at a total degree and doing
plain Gaussian elimination over F_p, so agreement with the staircase
counts exercises a completely different code path.

Columns are ordered by total degree and elimination pivots on the
highest column of each row, so the pivots lying in columns of degree
<= t span exactly (row space) intersect (degree <= t).  The row space is
built with a degree slack above t because low-degree ideal members can
need higher-degree multiples to cancel against.

The staircase and volume references at the end are plain too: one
enumerates every cell of the box, the other sums inclusion-exclusion
over all generator subsets.  The unpruned Buchberger criteria and the
trivial Koszul syzygies are references for the two Groebner engines,
and colength_of_basis counts the staircase of a basis from the leading
monomials its Polynomials report, not from the engine's packed codes.
diagonal_colength needs no Groebner basis at all: it reads a monomial
ideal's colength on a diagonal hypersurface off block ranks, and
toric_colength counts lattice points for a monomial ideal on a rational
normal curve cone, a quotient by several relations, and toric_hk gives
its e_HK as the area of the same staircase.  subset_dim is the
exhaustive reference for krull_dim's bounded cover search.
"""

from fractions import Fraction
from itertools import combinations, product

from hkprod import Ideal, InfiniteColengthError, Polynomial, Ring
from hkprod.groebner import as_vector, colon_by_element, s_polynomial, staircase_count
from hkprod.rings import is_p_power


def monomials_up_to(nvars, deg):
    """Exponent tuples of total degree <= deg, sorted by degree."""
    if deg < 0:
        return []
    return sorted((m for m in product(range(deg + 1), repeat=nvars)
                   if sum(m) <= deg), key=lambda m: (sum(m), m))


class _Gf2Span:
    """Row space over F_2; rows are bitmask ints indexed by monomial."""

    def __init__(self, index):
        self.index = index
        self.pivots = {}

    def _reduce(self, row):
        while row:
            b = row.bit_length() - 1
            if b not in self.pivots:
                return row
            row ^= self.pivots[b]
        return 0

    def _poly_row(self, f):
        row = 0
        for m in f.terms:
            row |= 1 << self.index[m]
        return row

    def add_poly(self, f):
        row = self._reduce(self._poly_row(f))
        if row:
            self.pivots[row.bit_length() - 1] = row

    def contains_poly(self, f):
        return self._reduce(self._poly_row(f)) == 0

    def pivot_columns(self):
        return list(self.pivots)


class _ModPSpan:
    """Row space over F_p; sparse rows keyed by column index.  The
    truncated spans take it for odd p, diagonal_colength for every p."""

    def __init__(self, index, p):
        self.index = index
        self.p = p
        self.pivots = {}

    def _reduce(self, row):
        while row:
            col = max(row)
            if col not in self.pivots:
                return row
            f = row[col]
            for c, v in self.pivots[col].items():
                nv = (row.get(c, 0) - f * v) % self.p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row

    def add_poly(self, f):
        self.add_terms(f.terms)

    def add_terms(self, terms):
        """Add the row {monomial: coefficient}."""
        row = self._reduce({self.index[m]: c for m, c in terms.items()})
        if row:
            col = max(row)
            inv = pow(row[col], -1, self.p)
            self.pivots[col] = {c: (v * inv) % self.p for c, v in row.items()}

    def contains_poly(self, f):
        return not self._reduce({self.index[m]: c for m, c in f.terms.items()})

    def pivot_columns(self):
        return list(self.pivots)


def truncated_span(gens, ring, deg):
    """Span of {x^m * g : g in gens + relations, total degree <= deg}.

    Returns (span, monomial list); column i of the span is monomial i.
    """
    monos = monomials_up_to(ring.nvars, deg)
    index = {m: i for i, m in enumerate(monos)}
    span = _Gf2Span(index) if ring.p == 2 else _ModPSpan(index, ring.p)
    for g in list(gens) + list(ring.relations):
        dg = g.degree()
        if dg < 0:
            continue
        for m in monomials_up_to(ring.nvars, deg - dg):
            span.add_poly(g.term_mul(m, 1))
    return span, monos


def brute_colength(gens, ring, max_deg=20, slack=4):
    """lambda of the quotient by stabilized truncated linear algebra.

    Builds one span at degree max_deg, reads dim(I intersect R_{<=t})
    off the pivots of degree <= t for every t <= max_deg - slack, and
    returns the codimension once it is constant over the last three
    degrees; None if it never settles.
    """
    span, monos = truncated_span(gens, ring, max_deg)
    degrees = [sum(m) for m in monos]
    pivot_degs = sorted(degrees[c] for c in span.pivot_columns())
    values = []
    for t in range(max_deg - slack + 1):
        n_monos = sum(1 for d in degrees if d <= t)
        n_pivots = sum(1 for d in pivot_degs if d <= t)
        values.append(n_monos - n_pivots)
    if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
        return values[-1]
    return None


def hypersurface_colon_sides(gens, ring, q):
    """The three lengths of the hypersurface colon identity at level q.

    For a hypersurface R = S/(f) and an m-primary I = (gens) of R, let
    I_S be the lifted generators plus f, an m-primary ideal of S.  Then
    (I_S)^[q] + (f) = I^[q] + (f), multiplication by f gives the exact
    sequence 0 -> S/((I_S)^[q] : f)(-deg f) -> S/(I_S)^[q] -> R/I^[q] -> 0,
    and Kunz gives lambda(S/(I_S)^[q]) = q^n lambda(S/I_S), so

        lambda(R/I^[q]) + lambda(S/((I_S)^[q] : f)) = q^n lambda(S/I_S)

    at every q.  Returns the three terms in that order.  The first is
    the ideal engine's colength over R; the colon runs through the
    module engine's elimination syzygies (colon_by_element), on powered
    generators of S that the ideal path never sees.
    """
    (f,) = ring.relations
    S = Ring(ring.p, ring.variables, order=ring.order.kind)
    I_S = [Polynomial(S, g.terms) for g in (*gens, f)]
    colon = colon_by_element([g.frobenius(q) for g in I_S], I_S[-1], S)
    return (Ideal(ring, gens).bracket_power(q).colength_strict(),
            Ideal(S, colon).colength_strict(),
            q ** S.nvars * Ideal(S, I_S).colength_strict())


def brute_membership(f, gens, ring, deg):
    """True iff f lies in the degree-<= deg truncated span of the ideal.

    A True is a certificate of membership; a False only says no
    combination exists within the truncation.
    """
    span, _ = truncated_span(gens, ring, max(deg, f.degree()))
    return span.contains_poly(f)


# --- reference division --------------------------------------------------

def _divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def rescan_normal_form(f, basis):
    """First-match division that rescans the work dict with max per step.

    The plain textbook loop: pick the largest remaining term, reduce it by
    the first basis element whose leading monomial divides it, else move
    it to the remainder.  The engine's division (groebner._divide) must
    return exactly this remainder on any list, also one that is not a
    Groebner basis, as the engine divides by partial bases.
    """
    ring = f.ring
    p = ring.p
    key = ring.order.key
    lead = [(g.leading_monomial(), pow(g.leading_coefficient(), -1, p), g)
            for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, lcinv, g in lead:
            if _divides(lm, m):
                factor = (c * lcinv) % p
                q = tuple(a - b for a, b in zip(m, lm))
                for gm, gc in g.terms.items():
                    mm = tuple(a + b for a, b in zip(gm, q))
                    if mm == m:
                        continue
                    v = (work.get(mm, 0) - factor * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return type(f)(ring, remainder)


def vector_from_polys(polys):
    """The module vector whose component i is polys[i]."""
    v = {}
    for i, f in enumerate(polys):
        v.update(as_vector(f, i))
    return v


def module_order(ring, elim=False, degrees=None):
    """Ascending sort key on module terms (component, monomial), so that
    max(v, key=module_order(ring, elim, degrees)) is the leading term of v.

    e_i sits in degree degrees[i] (all 0 when degrees is None).  TOP
    under grevlex: the shifted degree deg(m) + degrees[i], then the
    reversed exponent vector with its sign flipped, then position, e_0 >
    e_1 > ...; under lex: the shift, then the exponent vector, then
    position.  With every shift 0 that is the ring's monomial order,
    then position.  ELIM (elim=True): every term in component 0 above
    every term elsewhere, then TOP.  A tuple comparison written out here,
    apart from the engine's packed codes, so that the reference division
    below does not share its order with the code it checks.
    """
    shift = tuple(degrees or ())

    def d(i):
        return shift[i] if i < len(shift) else 0

    if ring.order.kind == "lex":
        def weight(t):
            return (d(t[0]), t[1])
    else:
        def weight(t):
            return (sum(t[1]) + d(t[0]), tuple(-e for e in reversed(t[1])))
    if elim:
        return lambda t: (t[0] == 0, weight(t), -t[0])
    return lambda t: (weight(t), -t[0])


def rescan_module_normal_form(v, basis, ring, key):
    """The module analogue of rescan_normal_form, for vectors
    {(component, monomial): coeff} under the term order `key`, a sort key
    such as module_order(ring, elim, degrees)."""
    p = ring.p
    lead = []
    for w in basis:
        if w:
            t = max(w, key=key)
            lead.append((t, pow(w[t], -1, p), w))
    remainder = {}
    work = dict(v)
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        pos, mono = t
        for (lpos, lmono), lcinv, w in lead:
            if lpos == pos and _divides(lmono, mono):
                factor = (c * lcinv) % p
                q = tuple(a - b for a, b in zip(mono, lmono))
                for (i, m), wc in w.items():
                    tt = (i, tuple(a + b for a, b in zip(m, q)))
                    if tt == t:
                        continue
                    val = (work.get(tt, 0) - factor * wc) % p
                    if val:
                        work[tt] = val
                    else:
                        work.pop(tt, None)
                break
        else:
            remainder[t] = c
    return remainder


def is_groebner(G):
    """Buchberger criterion: every S-pair reduces to zero under
    rescan_normal_form.

    Deliberately unpruned (no coprime or chain criterion) and dividing
    with the reference loop, not the engine's, so it is an independent
    check on buchberger's output.
    """
    for f, g in combinations(G, 2):
        if not rescan_normal_form(s_polynomial(f, g), G).is_zero():
            return False
    return True


def colength_of_basis(gb, ring):
    """lambda of the quotient by the ideal a Groebner basis presents,
    counted from the leading monomials that the Polynomials report."""
    leads = [g.leading_monomial() for g in gb if not g.is_zero()]
    return staircase_count(leads, ring.nvars)


def module_is_groebner(basis, ring, key):
    """Unpruned module Buchberger criterion: the S-vector of every pair of
    basis vectors whose leading terms share a component reduces to zero
    under rescan_module_normal_form."""
    p = ring.p
    leads = [max(v, key=key) for v in basis]
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            (pa, ma), (pb, mb) = leads[a], leads[b]
            if pa != pb:
                continue
            lcm = tuple(max(x, y) for x, y in zip(ma, mb))
            s = {}
            for v, lead, sign in ((basis[a], leads[a], 1), (basis[b], leads[b], -1)):
                factor = sign * pow(v[lead], -1, p)
                shift = tuple(x - y for x, y in zip(lcm, lead[1]))
                for (i, m), c in v.items():
                    t = (i, tuple(x + y for x, y in zip(m, shift)))
                    val = (s.get(t, 0) + factor * c) % p
                    if val:
                        s[t] = val
                    else:
                        s.pop(t, None)
            if rescan_module_normal_form(s, basis, ring, key):
                return False
    return True


# --- reference staircase and volume ---------------------------------------

def brute_staircase(lead_monos, nvars):
    """Monomials outside the monomial ideal of lead_monos, by enumerating
    every cell of the box bounded by the pure powers: 0 when 1 is a
    generator, None when some variable has no pure power."""
    if any(not any(m) for m in lead_monos):
        return 0
    bounds = []
    for i in range(nvars):
        powers = [m[i] for m in lead_monos
                  if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not powers:
            return None
        bounds.append(min(powers))
    return sum(1 for cell in product(*(range(b) for b in bounds))
               if not any(_divides(m, cell) for m in lead_monos))


def subset_volume(I):
    """e_HK of an m-primary monomial ideal in a polynomial ring, by
    inclusion-exclusion over all 2^k subsets of the minimal generators
    (the distinct generator monomials that no other one divides), with
    componentwise-max joins inside the box.  No Groebner basis is
    involved."""
    ring = I.ring
    monos = {g.leading_monomial() for g in I.gens}
    gens = [m for m in monos if not any(n != m and _divides(n, m) for n in monos)]
    n = ring.nvars
    bounds = [None] * n
    for m in gens:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1 and (bounds[support[0]] is None or m[support[0]] < bounds[support[0]]):
            bounds[support[0]] = m[support[0]]
    if any(b is None for b in bounds):
        raise InfiniteColengthError("monomial ideal is not m-primary")
    box = 1
    for b in bounds:
        box *= b
    covered = 0
    for k in range(1, len(gens) + 1):
        sign = 1 if k % 2 else -1
        for subset in combinations(gens, k):
            join = tuple(max(col) for col in zip(*subset))
            vol = 1
            for j, b in zip(join, bounds):
                vol *= max(b - j, 0)
            covered += sign * vol
    return Fraction(box - covered)


# --- monomial ideals on diagonal hypersurfaces -----------------------------

def diagonal_colength(gens, coeffs, d, p):
    """lambda(S/(M + f)) for the m-primary monomial ideal M generated by
    the exponent tuples gens and f = sum_i coeffs[i] x_i^d over F_p.

    It is dim S/M - rank(f.) on S/M, with the standard monomials of M as
    a basis (Han and Monsky, Math. Z. 1993).  Multiplying x^a by f keeps
    a mod d in every coordinate and raises the degree by d, so the map is
    block diagonal over (a mod d, deg a) and its rank is a sum of small
    block ranks.  No Groebner basis is involved.
    """
    n = len(coeffs)
    bounds = [min((g[i] for g in gens if not any(g[:i] + g[i + 1:])), default=None)
              for i in range(n)]
    if None in bounds:
        raise InfiniteColengthError("monomial ideal is not m-primary")
    standard = {a for a in product(*(range(b) for b in bounds))
                if not any(_divides(g, a) for g in gens)}
    index = {a: i for i, a in enumerate(standard)}
    blocks = {}
    for a in standard:
        blocks.setdefault((tuple(e % d for e in a), sum(a)), []).append(a)
    rank = 0
    for block in blocks.values():
        span = _ModPSpan(index, p)  # plain mod-p elimination, also at p = 2
        for a in block:
            image = {}
            for i, c in enumerate(coeffs):
                b = a[:i] + (a[i] + d,) + a[i + 1:]
                if c % p and b in standard:
                    image[b] = c % p
            span.add_terms(image)
        rank += len(span.pivot_columns())
    return len(standard) - rank


# --- Krull dimension and toric quotients ------------------------------------

def subset_dim(ring):
    """dim S/Q for Q generated by monomials, by trying every variable
    subset from the largest down until one contains no relation's
    support.  Monomials are their own Groebner basis, so the supports are
    read off the relations as given."""
    if any(len(r.terms) != 1 for r in ring.relations):
        raise ValueError("subset_dim needs monomial relations")
    supports = [frozenset(i for i, e in enumerate(r.leading_monomial()) if e)
                for r in ring.relations]
    return next(size for size in range(ring.nvars, -1, -1)
                for sub in combinations(range(ring.nvars), size)
                if not any(s <= set(sub) for s in supports))


def rational_normal_curve(n, p, order="grevlex"):
    """R_n = F_p[a_0..a_n] modulo the 2x2 minors of
    [[a_0 ... a_{n-1}], [a_1 ... a_n]]: the cone over the rational normal
    curve of degree n, a normal semigroup ring of dimension 2."""
    minors = [f"a{i}*a{j + 1} - a{i + 1}*a{j}" for i in range(n) for j in range(i + 1, n)]
    return Ring(p, [f"a{i}" for i in range(n + 1)], relations=minors, order=order)


def _toric_points(n, exps):
    """The points (sum e_i(n-i), sum e_i*i) of the monomials of exps."""
    return [(sum(e * (n - i) for i, e in enumerate(x)), sum(e * i for i, e in enumerate(x)))
            for x in exps]


def toric_exponents(rng, n):
    """Exponent tuples of a random monomial ideal of R_n with finite
    colength: a power of a_0, a power of a_n and up to three random
    monomials, drawn from the random.Random rng."""
    exps = [tuple(rng.randint(1, 2) if i == end else 0 for i in range(n + 1))
            for end in (0, n)]
    for _ in range(rng.randint(0, 3)):
        e = [0] * (n + 1)
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(n + 1)] += 1
        exps.append(tuple(e))
    return exps


def toric_colength(n, exps, q):
    """lambda(R_n/I^[q]) for the monomial ideal I of R_n (see
    rational_normal_curve) generated by the exponent tuples exps, which
    must hold a power of a_0 and one of a_n.

    The monomial prod a_i^(e_i) is the point (sum e_i(n-i), sum e_i*i) of
    S = {(u, v) in N^2 : n | u+v}.  S is normal, so a point lies in
    I^[q] iff it lies in q*point + N^2 for a generator's point; the
    colength counts the points of S in no such quadrant.  No Groebner
    basis is involved.
    """
    corners = [(q * u, q * v) for u, v in _toric_points(n, exps)]
    width = min(u for u, v in corners if v == 0)  # a power of a_0
    total = 0
    for u in range(width):
        top = min(v for cu, v in corners if cu <= u)  # a power of a_n has cu = 0
        total += len(range(-u % n, top, n))
    return total


def toric_hk(n, exps):
    """e_HK(I) for the monomial ideal I of R_n generated by the exponent
    tuples exps, which must hold a power of a_0 and one of a_n:
    area(R_{>=0}^2 minus (E + R_{>=0}^2)) / n, E the points of exps (see
    toric_colength).  The q^2-scaled counts of toric_colength tend to
    it, since S has one point per n unit squares.  Exact, a Fraction."""
    corners = _toric_points(n, exps)
    width = min(u for u, v in corners if v == 0)
    steps = sorted({u for u, _ in corners if u < width} | {width})
    area = sum((right - left) * min(v for cu, v in corners if cu <= left)
               for left, right in zip(steps, steps[1:]))
    return Fraction(area, n)


# --- Koszul syzygies --------------------------------------------------------

def koszul_vector(a, i, j, q=1):
    """The trivial syzygy -a_j^q e_i + a_i^q e_j of the sequence a^q.

    Indices are 0-based with i < j < len(a).
    """
    ell = len(a)
    if not (0 <= i < j < ell):
        raise IndexError(f"need 0 <= i < j < {ell}")
    ring = a[0].ring
    if not is_p_power(q, ring.p):
        raise ValueError(f"{q} is not a power of the characteristic")
    vec = [ring.zero()] * ell
    vec[i] = -(a[j].frobenius(q))
    vec[j] = a[i].frobenius(q)
    return vec


def koszul_cells(a, q=1):
    """All v_ij(a^q), the generators of the image of the second Koszul
    differential; a proper submodule of the syzygies unless a is a
    regular sequence."""
    ell = len(a)
    return [koszul_vector(a, i, j, q) for i in range(ell) for j in range(i + 1, ell)]
