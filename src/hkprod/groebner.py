"""Buchberger-based Groebner machinery for ideals and free-module submodules.

Everything is computed in the ambient polynomial ring; quotient-ring
questions are handled by the callers adjoining the presentation's
relations (for ideals) or relation multiples of the basis vectors (for
modules).  Output bases are reduced, monic and deterministically sorted,
so identical inputs give identical bases.

There is one packed engine, on vectors: an ideal element enters it as
its vector in component 0 (as_vector), and a rank-1 run is an ideal
run, with Buchberger's coprime criterion.  Inside the engine every term
is one int (see _Layout), whose order on module terms is the one term
order.  The public functions take and return Polynomials and vectors:
they convert and pack on entry and unpack on exit.  Every Groebner
basis is computed by Reducers.from_engine (or times), which
keeps the packed minimal basis, and every normal form divides by one.
A colength reads only its leading terms (Reducers.leads); the basis is
unpacked, and reduced by interreduce, only for a caller that reads it.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from operator import attrgetter, itemgetter, or_

from .rings import Monomial, Polynomial, Ring

# A module element of R^rank is a dict {(component, monomial): coeff}; an
# ideal element enters the engine as its vector in component 0.
Vector = dict


def as_vector(f: Polynomial, pos: int = 0) -> Vector:
    """f as a vector in component pos."""
    return {(pos, m): c for m, c in f.terms.items()}


# --- packed terms -----------------------------------------------------------

class _Overflow(Exception):
    """A term has an exponent that its field cannot hold."""


def _field_bytes(degree: int) -> int:
    """Bytes per exponent field for an input of this total degree: room
    for twice any exponent of the input, under the guard bit."""
    return (degree.bit_length() + 9) // 8


class _Layout:
    """Module terms (component, monomial) packed into ints (Bachmann and
    Schoenemann, "Monomial representations for Groebner bases
    computations", ISSAC 1998).

    Each exponent gets a field of whole bytes whose top bit is a guard
    bit.  The fields fill the low S bits, the first variable highest
    under lex and the last highest under grevlex; one-byte fields, the
    common case, are packed and unpacked by int.from_bytes and
    int.to_bytes, wider ones by shifts.  While every guard bit is
    clear, a product of monomials is their sum, a divides b iff
    ((b | guard) - a) & guard == guard, and their lcm is a max taken in
    all fields at once.  A field that overflows sets its guard bit and
    does not carry into the next field, so one & checks a new term.

    The order key of a monomial m is one int, linear in m: m itself
    under lex, (deg(m) << S) - m under grevlex.  A term in component i
    is coded as

        (rank_key << (S + PB)) + (i << S) + m,  rank_key = r_i - (key << PB)

    with the component in PB bits of its own.  One offset table holds
    the whole module order: r_i = i - ((d_i << S) << PB) for the degree
    d_i >= 0 of e_i, less 1 << top for component 0 of an elimination
    order, and base[i] = (r_i << (S + PB)) + (i << S), so that a code is
    base[i] - (key << (S + 2 PB)) + m.  Larger terms have smaller codes,
    so a heap pops the leading term first, and two codes in one
    component differ by an amount that depends only on the quotient of
    their monomials: the code of a multiple of a term is that term's
    code plus a shift.

    The code defines the engines' term order, the only one they have.
    On monomials it is the ring's order.  On module terms it compares
    key(m) + (d_i << S), then the position, e_0 > e_1 > ...: with every
    d_i = 0 that is TOP (term over position), and under grevlex with
    d_i = deg(e_i) it is graded, the shifted degree deg(m) + d_i first
    (Schreyer's induced orders).  With elim it is ELIM: every term in
    component 0 above every term elsewhere, then that order.
    """

    __slots__ = ("p", "field_bytes", "bits", "largest", "byteorder", "nbytes", "shifts",
                 "rank", "S", "PB", "guard", "mask", "pmask", "grevlex", "elim", "degrees",
                 "base", "key_shift", "degree_shift")

    def __init__(self, ring: Ring, field_bytes: int, rank: int = 1, elim: bool = False,
                 degrees=None):
        n = ring.nvars
        width = 8 * field_bytes
        self.p = ring.p
        self.field_bytes = field_bytes
        self.bits = width - 1  # value bits per field
        self.largest = (1 << self.bits) - 1
        self.grevlex = ring.order.kind == "grevlex"
        self.byteorder = "little" if self.grevlex else "big"
        self.nbytes = n * field_bytes
        self.shifts = [width * (i if self.grevlex else n - 1 - i) for i in range(n)]
        self.rank = rank
        self.S = n * width
        self.PB = (rank - 1).bit_length()
        self.guard = sum(1 << (width * i + self.bits) for i in range(n))
        self.mask = (1 << self.S) - 1
        self.pmask = (1 << self.PB) - 1
        self.elim = elim
        self.degrees = tuple(degrees) if degrees else (0,) * rank
        if len(self.degrees) != rank or min(self.degrees) < 0:
            raise ValueError(f"need {rank} nonnegative degree shifts, got {self.degrees}")
        S, PB = self.S, self.PB
        # above every (key + (d << S)) << PB + component: a grevlex key is
        # below (n << bits) << S
        top = S + ((n << self.bits) + max(self.degrees)).bit_length() + PB
        r = [pos - ((d << S) << PB) for pos, d in enumerate(self.degrees)]
        if elim:
            r[0] -= 1 << top
        self.base = [(r_pos << (S + PB)) + (pos << S) for pos, r_pos in enumerate(r)]
        self.key_shift = S + 2 * PB
        self.degree_shift = S + self.key_shift

    def monomial(self, mono: Monomial) -> int:
        if max(mono, default=0) > self.largest:
            raise _Overflow
        return sum(map(int.__lshift__, mono, self.shifts))

    def exponents(self, m: int) -> Monomial:
        if self.field_bytes == 1:
            return tuple(m.to_bytes(self.nbytes, self.byteorder))
        v = self.largest
        return tuple([(m >> s) & v for s in self.shifts])

    def degree(self, m: int) -> int:
        if self.field_bytes == 1:
            return sum(m.to_bytes(self.nbytes, "big"))
        v = self.largest
        return sum([(m >> s) & v for s in self.shifts])

    def code(self, pos: int, m: int, degree: int) -> int:
        """base[pos] - (key << key_shift) + m, with the key written out."""
        if self.grevlex:
            return self.base[pos] + (m << self.key_shift) + m - (degree << self.degree_shift)
        return self.base[pos] - (m << self.key_shift) + m

    def position(self, code: int) -> int:
        return (code >> self.S) & self.pmask

    def divides(self, a: int, b: int) -> bool:
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        ge = ((a | guard) - b) & guard  # guard bits of the fields where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> self.bits)))

    def pack(self, v: Vector) -> dict:
        """{code: coeff} of a vector; raises _Overflow if it does not fit.

        One-byte fields take one pass, code written out; the guard bits,
        which are the low bits of every code, are then tested once."""
        if self.field_bytes != 1:
            return {self.code(pos, self.monomial(m), sum(m)): c for (pos, m), c in v.items()}
        base, key_shift, order = self.base, self.key_shift, self.byteorder
        try:  # bytes() refuses an exponent above 255
            if self.grevlex:
                degree_shift = self.degree_shift
                packed = {base[pos] + (m << key_shift) + m - (sum(mono) << degree_shift): c
                          for (pos, mono), c in v.items()
                          for m in (int.from_bytes(bytes(mono), order),)}
            else:
                packed = {base[pos] - (m << key_shift) + m: c
                          for (pos, mono), c in v.items()
                          for m in (int.from_bytes(bytes(mono), order),)}
        except ValueError:
            raise _Overflow from None
        if reduce(or_, packed, 0) & self.guard:
            raise _Overflow
        return packed

    def unpack(self, terms) -> Vector:
        """The vector of the (code, coeff) pairs, in their order."""
        S, pmask, mask, exponents = self.S, self.pmask, self.mask, self.exponents
        return {((e >> S) & pmask, exponents(e & mask)): c for e, c in terms}


def _reducer(work: dict, lay: _Layout) -> tuple:
    """A nonzero packed element made monic for division: (leading
    monomial, leading code, tail), where tail lists (code, coeff) for
    every other term of the element divided by its leading coefficient.

    This is the one place that makes an engine element monic, so every
    reducer has leading coefficient 1 and is stored without it."""
    lead = min(work)
    tail = [(e, c) for e, c in work.items() if e != lead]
    if work[lead] != 1:
        p = lay.p
        inv = pow(work[lead], -1, p)
        tail = [(e, c * inv % p) for e, c in tail]
    return lead & lay.mask, lead, tail


def _divide(work: dict, rows: dict, lay: _Layout) -> dict:
    """Remainder of the packed terms in work under first-match division.

    work ({code: coeff}) is consumed.  rows maps a component to the
    reducers whose leading term lies in it, in basis order.  The largest
    remaining term comes off a heap of codes; entries whose term has
    cancelled are skipped when popped.  Each term is reduced by the first
    reducer whose leading monomial divides it, else it moves to the
    remainder, which thus lists its terms from the largest down.  Every
    reducer is monic (see _reducer), so the popped coefficient is the
    factor of the reducer's tail that is subtracted.  Every new term is
    checked for overflow.
    """
    p, mask, guard, S, pmask = lay.p, lay.mask, lay.guard, lay.S, lay.pmask
    heap = list(work)
    heapify(heap)
    remainder: dict = {}
    while heap:
        e = heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue  # cancelled after it was pushed
        mg = (e & mask) | guard
        for lm, lead, tail in rows.get((e >> S) & pmask, ()):
            if (mg - lm) & guard == guard:
                shift = e - lead
                for t, tc in tail:
                    t += shift
                    old = work.get(t)
                    if old is None:
                        if t & guard:
                            raise _Overflow
                        work[t] = (-c * tc) % p
                        heappush(heap, t)
                    else:
                        v = (old - c * tc) % p
                        if v:
                            work[t] = v
                        else:
                            del work[t]
                break
        else:
            remainder[e] = c
    return remainder


def _update_pairs(t: int, leads: list[int], bare: set[int], earlier, pending: dict,
                  coprime_criterion: bool, lay: _Layout) -> list:
    """Gebauer-Moeller update of the pair set for a new basis element t
    (Gebauer and Moeller, "On an installation of Buchberger's
    algorithm", J. Symbolic Comput. 6, 1988).

    leads are the packed leading monomials of the basis, bare the
    indices of its elements with no tail, earlier the indices of the
    elements that t pairs with, pending maps each queued pair (i, j) to
    its lcm.  Criterion B drops the pending pairs that t makes
    redundant: lead(t) divides lcm(i, j), and lcm(i, t) and lcm(j, t)
    both differ from it.  The new pairs (i, t) are then taken in one
    pass sorted by lcm, and a pair is dropped when the lcm of a pair
    kept before it divides its own (criteria M and F).  The sort is by
    the packed lcm, which puts every divisor before its multiples: a
    divisor's fields are each no larger, so it is the smaller int.
    Each of these drops is the chain criterion: S(i, j) is covered by
    the S-polynomials of a chain i - k - j whose leads divide
    lcm(i, j).  A pair whose S-polynomial is known to reduce to 0 is
    kept but not returned, and sorts first among equal lcms, so it
    drops every pair whose lcm is a multiple of its own: a pair of two
    bare elements, whose S-vector is 0 at every rank, and, with
    coprime_criterion, a pair with coprime leading monomials
    (Buchberger's first criterion, valid for polynomials but not for
    module vectors).  Returns the new pairs to queue, as (i, lcm).
    """
    guard, bits, lcm_of = lay.guard, lay.bits, lay.lcm
    lt = leads[t]
    t_bare = t in bare
    dead = [pair for pair, lcm in pending.items()
            if ((lcm | guard) - lt) & guard == guard
            and lcm_of(leads[pair[0]], lt) != lcm and lcm_of(leads[pair[1]], lt) != lcm]
    for pair in dead:
        del pending[pair]
    new = []  # (lcm << 1 | to queue, i): pairs known to reduce to 0 sort first among equal lcms
    for i in earlier:
        a = leads[i]
        ge = ((a | guard) - lt) & guard  # lay.lcm, inline
        lcm = lt ^ ((a ^ lt) & (ge - (ge >> bits)))
        zero = (coprime_criterion and lcm == a + lt) or (t_bare and i in bare)
        new.append(((lcm << 1) | (not zero), i))
    new.sort()
    kept = []  # lcms of the kept pairs, those not queued included
    queued = []
    for code, i in new:
        lcm = code >> 1
        lg = lcm | guard
        for other in kept:
            if (lg - other) & guard == guard:
                break
        else:
            kept.append(lcm)
            if code & 1:
                queued.append((i, lcm))
    return queued


def _buchberger(works: list[dict], lay: _Layout) -> list[tuple]:
    """Groebner basis, not yet reduced, of the nonzero packed elements in
    works, which are consumed: monic reducers, in the order they entered
    the basis.

    Input made only of terms skips the loop: it is its own Groebner
    basis, since the S-vector of two terms in one component is 0, so
    its reducers come back at once, with no heap, no division and no
    pair update.  Any other input: normal selection strategy on one
    queue that holds the inputs and the S-pairs (Giovini et al., "One
    sugar cube, please", ISSAC 1991).  An S-pair is keyed by the degree
    of its lcm term, deg(lcm) + d_i in component i (see _Layout), then
    by the term order on the lcm, then by index; an input is keyed by its leading term in the same way, and
    comes before the pairs with its key.  An input is reduced when it is
    popped, by the basis found so far: a nonzero remainder enters the
    basis, a zero one is dropped and makes no pairs.  Only elements
    whose leading terms share a component form pairs.  Each new element
    updates its component's pairs in Gebauer-Moeller's form: criterion
    B on the queued pairs, then one pass over its new pairs sorted by
    lcm for criteria M and F (see _update_pairs).  A pair of two bare
    elements, which have no tail, and at rank 1, where a vector is a
    polynomial, a pair with coprime leads are kept for those criteria
    but not queued.  A queued pair that a later update drops is skipped
    when popped.  An S-polynomial is built in the division's work dict
    from the two reducers.
    """
    if all(len(w) <= 1 for w in works):
        return [_reducer(w, lay) for w in works if w]
    p, guard, mask, coprime = lay.p, lay.guard, lay.mask, lay.rank == 1
    degree, code, position = lay.degree, lay.code, lay.position
    G: list[tuple] = []
    leads: list[int] = []
    bare: set[int] = set()
    # per component: the reducers of the basis elements whose leading
    # term lies in it, their indices, and its queued pairs with their lcms
    rows: dict[int, list] = {}
    members: dict[int, list[int]] = {}
    pending: dict[int, dict] = {}
    # (degree, -code, i, j): an S-pair (i, j) has i >= 0, input k is (-1, k)
    queue = []
    for k, w in enumerate(works):
        if w:
            lead = min(w)
            queue.append((degree(lead & mask) + lay.degrees[position(lead)], -lead, -1, k))
    heapify(queue)

    def add_pairs(t):
        pos = position(G[t][1])
        shift = lay.degrees[pos]
        earlier = members.setdefault(pos, [])
        in_pos = pending.setdefault(pos, {})
        for i, lcm in _update_pairs(t, leads, bare, earlier, in_pos, coprime, lay):
            in_pos[i, t] = lcm
            deg = degree(lcm)
            heappush(queue, (deg + shift, -code(pos, lcm, deg), i, t))
        earlier.append(t)
        rows.setdefault(pos, []).append(G[t])

    while queue:
        _, lcm_code, i, j = heappop(queue)
        if i < 0:
            work = works[j]
        else:
            lcm_code = -lcm_code
            if pending[position(lcm_code)].pop((i, j), None) is None:
                continue  # dropped by a later update
            work = {}
            for (_, lead, tail), sign in ((G[i], 1), (G[j], -1)):
                shift = lcm_code - lead
                for e, c in tail:
                    e += shift
                    if e & guard:
                        raise _Overflow
                    v = (work.get(e, 0) + sign * c) % p
                    if v:
                        work[e] = v
                    else:
                        del work[e]
        rem = _divide(work, rows, lay)
        if rem:
            G.append(_reducer(rem, lay))
            leads.append(G[-1][0])
            if not G[-1][2]:
                bare.add(len(G) - 1)
            add_pairs(len(G) - 1)
    return G


def _minimal(G: list[tuple], lay: _Layout) -> dict[int, list]:
    """The minimal part of a basis given by its reducers, as rows (see
    _divide), each sorted by leading term: an element is dropped when
    the leading monomial of an earlier kept one in its component divides
    its own."""
    guard, S, pmask = lay.guard, lay.S, lay.pmask
    rows: dict[int, list] = {}
    for r in sorted(G, key=itemgetter(1), reverse=True):
        kept = rows.setdefault((r[1] >> S) & pmask, [])
        mg = r[0] | guard
        for k in kept:
            if (mg - k[0]) & guard == guard:  # lay.divides, inline
                break
        else:
            kept.append(r)
    return rows


class Reducers:
    """A minimal Groebner basis packed by the engine, for many normal forms.

    Every Reducers holds an engine basis (from_engine, times, variables),
    so every remainder is a normal form.  The basis is ordered by the
    module order that elim and degrees pick (see _Layout); an ideal
    element is its vector in component 0 (see as_vector), at rank 1.
    .basis, at its first read, unpacks it: monic, sorted by leading term,
    each vector listing its leading term first.  It is repacked wider,
    in place, when a later dividend or reduction does not fit.
    """

    __slots__ = ("_basis", "ring", "elim", "degrees", "lay", "rows")

    def __init__(self, ring: Ring, elim: bool, degrees):
        """An empty Reducers: the caller sets lay and rows."""
        self._basis, self.ring, self.elim, self.degrees = None, ring, elim, degrees

    @classmethod
    def from_engine(cls, elements: list[Vector], ring: Ring, elim: bool = False,
                    degrees=None) -> "Reducers":
        """Reducers of the minimal Groebner basis of the vectors elements.

        The engine (_buchberger) runs in fields sized from elements,
        widened by _run, in a layout that the ring builds once per shape
        (see _layout); input made only of terms skips the engine's loop.
        degrees puts e_i in degree degrees[i] (see _Layout).
        """
        self = cls(ring, elim, degrees)
        return self._run(self._layout(elements), lambda lay: [lay.pack(v) for v in elements])

    def times(self, other: "Reducers") -> "Reducers":
        """Reducers of (I + Q)(J + Q) + Q = IJ + Q, other being J's: one run
        on the relations and the products of the packed bases (each pair
        once if other is self), coded e1 + e2 - code(1) as codes are
        linear.  A factor outside the run's layout is repacked in place."""
        out = Reducers(self.ring, self.elim, self.degrees)
        relations = [as_vector(f) for f in self.ring.relations]

        def inputs(lay):
            for factor in (self, other):
                if factor.lay is not lay:
                    factor._repack(lay)
            p, one = lay.p, lay.code(0, 0, 0)
            mine, theirs = ([((lead, 1), *tail) for group in r.rows.values()
                             for _, lead, tail in group] for r in (self, other))
            works = []
            for j, f in enumerate(mine):
                for g in mine[j:] if other is self else theirs:
                    w = {}
                    for e, c in f:
                        for e2, c2 in g:
                            t = e + e2 - one
                            w[t] = (w.get(t, 0) + c * c2) % p
                    works.append({t: c for t, c in w.items() if c})
            if reduce(or_, [e for w in works for e in w], 0) & lay.guard:
                raise _Overflow
            return works + [lay.pack(v) for v in relations]

        return out._run(max(self.lay, other.lay, key=attrgetter("field_bytes")), inputs)

    def variables(self) -> "Reducers":
        """Reducers of m + Q = m, the ideal of the variables, in this
        layout and with no engine run (Q lies in m: see Ring)."""
        out = Reducers(self.ring, self.elim, self.degrees)
        lay = out.lay = self.lay
        out.rows = {0: [(1 << s, lay.code(0, 1 << s, 1), []) for s in lay.shifts]}
        return out

    def _run(self, lay: _Layout, inputs) -> "Reducers":
        """Keep the minimal basis of inputs(lay), the packed input in
        the layout lay, rerun twice as wide while a term overflows."""
        while True:
            try:
                G = _buchberger(inputs(lay), lay)
                break
            except _Overflow:
                lay = self._layout((), 2 * lay.field_bytes, lay.rank)
        self.lay, self.rows = lay, _minimal(G, lay)
        return self

    @property
    def basis(self) -> list[Vector]:
        if self._basis is None:
            rows = sorted((r for group in self.rows.values() for r in group),
                          key=itemgetter(1), reverse=True)
            self._basis = [self.lay.unpack([(r[1], 1), *r[2]]) for r in rows]
        return self._basis

    def leads(self) -> dict[int, list[Monomial]]:
        """{component: exponents of each leading term in it}, read off the
        packed leading codes of the minimal basis; a component that holds
        no leading term is absent."""
        exponents = self.lay.exponents
        return {pos: [exponents(r[0]) for r in group] for pos, group in self.rows.items()}

    def _layout(self, vectors, field_bytes: int = 1, rank: int = 1) -> _Layout:
        """A layout that the vectors fit, with at least rank components
        and fields of at least field_bytes: room for twice their largest
        total degree.  The ring keeps one layout per shape, built at its
        first use."""
        terms = [t for v in vectors for t in v]
        degree = max(map(sum, map(itemgetter(1), terms)), default=0)
        rank = max(rank, 1 + max(map(itemgetter(0), terms), default=0),
                   len(self.degrees or ()))
        shape = (max(field_bytes, _field_bytes(degree)), rank, self.elim,
                 tuple(self.degrees or ()))
        lay = self.ring._layouts.get(shape)
        if lay is None:
            lay = self.ring._layouts[shape] = _Layout(self.ring, *shape)
        return lay

    def _repack(self, lay: _Layout):
        """Pack the basis, unpacked from the old layout, in lay."""
        rows: dict[int, list] = {}
        for r in [_reducer(w, lay) for w in map(lay.pack, self.basis) if w]:
            rows.setdefault(lay.position(r[1]), []).append(r)
        self.lay, self.rows = lay, rows

    def remainder(self, v: Vector) -> Vector:
        """The remainder of the vector v, from the largest term down."""
        while True:
            lay = self.lay
            try:
                rem = _divide(lay.pack(v), self.rows, lay)
            except _Overflow:
                self._repack(self._layout([*self.basis, v], 2 * lay.field_bytes))
                continue
            return lay.unpack(rem.items())


# --- ideals: the engine at rank 1 -------------------------------------------

def normal_form(f: Polynomial, reducers: Reducers) -> Polynomial:
    """Normal form of f modulo the ideal whose engine basis reducers
    holds, zero iff f lies in it: f divides as its vector in component 0
    (as_vector), and as every Reducers holds a Groebner basis, any
    Groebner basis with its leading terms gives the same remainder."""
    return vector_to_polys(reducers.remainder(as_vector(f)), 1, f.ring)[0]


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(map(max, lf, lg))
    p = f.ring.p
    cf = pow(f.leading_coefficient(), -1, p)
    cg = pow(g.leading_coefficient(), -1, p)
    return (f.term_mul(tuple(a - b for a, b in zip(lcm, lf)), cf)
            - g.term_mul(tuple(a - b for a, b in zip(lcm, lg)), cg))


def buchberger(gens, ring: Ring) -> list[Polynomial]:
    """Reduced Groebner basis of (gens) + (ring.relations) in the ambient ring.

    The engine's packed minimal basis (Reducers.from_engine) goes to
    interreduce without a second pack.
    """
    return interreduce(Reducers.from_engine([as_vector(f) for f in (*gens, *ring.relations)],
                                            ring))


def interreduce(reducers: Reducers) -> list[Polynomial]:
    """Fully reduce the minimal monic basis of reducers (see
    Reducers.from_engine), vectors in component 0, to Polynomials; the
    result is canonical.

    Each tail is reduced by the whole minimal basis: an element never
    reduces a term of its own tail, which lies below its leading term.
    """
    ring = reducers.ring
    reduced = []
    for v in reducers.basis:
        g = vector_to_polys(v, 1, ring)[0]
        lead = g.leading_monomial()
        tail = {m: c for m, c in g.terms.items() if m != lead}
        r = normal_form(Polynomial(ring, tail), reducers).terms if tail else {}
        reduced.append(g if r == tail else Polynomial(ring, {lead: 1, **r}))
    return reduced


# --- staircase counting ----------------------------------------------------

def staircase_count(lead_monos: list[Monomial], nvars: int):
    """Number of monomials outside the monomial ideal of lead_monos.

    Returns None when infinite.  Finiteness is decided combinatorially:
    the complement is infinite iff some variable has no pure power among
    the leading monomials.  The finite count cuts the box bounded by the
    pure powers into slabs (Bayer-Stillman): a slab with last variable
    x_k is cut only at the distinct x_k exponents of its generators, and
    each piece is pushed as a slab one variable down, seeing exactly the
    generators entered so far.  The cost depends on the generators, not
    on the size of the box.
    """
    if nvars == 0:
        return 0 if lead_monos else 1
    bounds = [None] * nvars
    for m in lead_monos:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return 0  # 1 is a leading monomial: unit ideal
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return None
    # Each slab holds the pure powers of x_0 .. x_k, so its first
    # generators have x_k exponent 0 and some generator free of
    # x_0 .. x_{k-1} enters: from there on every slab counts 0.
    total, stack = 0, [(1, lead_monos, nvars - 1)]
    while stack:
        width, gens, k = stack.pop()
        if not k:
            total += width * min([bounds[0], *(g[0] for g in gens)])
            continue
        start, active = 0, []
        for g in sorted(gens, key=itemgetter(k)):
            if g[k] != start:
                stack.append(((g[k] - start) * width, active[:], k - 1))
                start = g[k]
            active.append(g)
            if not any(g[:k]):
                break
    return total


# --- modules ----------------------------------------------------------------
#
# Module terms are ordered by _Layout.code: TOP with elim=False, ELIM
# (used to read syzygies / colon ideals off an extended module basis)
# with elim=True, each graded by degrees, one shift per component (all 0
# by default).  Module bases come back lead-first: each vector lists its
# leading term first, so next(iter(v)) is its leading term.


def vector_to_polys(v: Vector, rank: int, ring: Ring) -> list[Polynomial]:
    comps: list[dict] = [{} for _ in range(rank)]
    for (i, m), c in v.items():
        comps[i][m] = c
    return [Polynomial(ring, t) for t in comps]


def module_normal_form(v: Vector, reducers: Reducers) -> Vector:
    """Normal form of v modulo the module whose engine basis reducers
    holds, in its order (TOP or ELIM, graded by its degrees): the
    division of normal_form, on module terms."""
    return reducers.remainder(v)


def module_buchberger(vectors: list[Vector], ring: Ring, elim: bool = False,
                      degrees=None) -> list[Vector]:
    """Reduced module Groebner basis, lead-first, in the TOP order or, with
    elim, the ELIM order; S-pairs only within a component.

    degrees, when given, puts e_i in degree degrees[i] >= 0 (see _Layout):
    for homogeneous input in a grevlex ring the module is then graded and
    S-pairs are taken degree by degree, as for homogeneous ideals.  The
    engine's minimal basis is then reduced as by interreduce.
    """
    reducers = Reducers.from_engine(vectors, ring, elim, degrees)
    reduced = []
    for v in reducers.basis:
        lead = next(iter(v))
        tail = {t: c for t, c in v.items() if t != lead}
        r = module_normal_form(tail, reducers) if tail else {}
        reduced.append({lead: 1, **r})
    return reduced


def syzygy_vectors(polys: list[Polynomial], modulo, ring: Ring) -> list[Vector]:
    """Syzygies of polys modulo (modulo) + Q, as vectors of rank len(polys).

    A syzygy is a tuple s with sum(s_i * a_i) in (modulo) + Q, read off
    an elimination-order module basis of the vectors a_i*e_0 + e_i
    together with g*e_0 for each g in modulo and each relation.  e_i
    sits in degree deg(a_i), so these vectors are homogeneous when the
    a_i, modulo and Q are, and the engine runs degree by degree; any
    ELIM-type order gives the same syzygy module.
    """
    vectors: list[Vector] = []
    for i, a in enumerate(polys):
        vectors.append({(i + 1, (0,) * ring.nvars): 1, **as_vector(a)})
    vectors += map(as_vector, [*modulo, *ring.relations])
    # under ELIM a vector whose lead lies outside component 0 has no term there
    degrees = [0, *(max(a.degree(), 0) for a in polys)]
    basis = module_buchberger(vectors, ring, elim=True, degrees=degrees)
    return [{(i - 1, m): c for (i, m), c in v.items()}
            for v in basis if next(iter(v))[0] != 0]


def syzygies(polys: list[Polynomial], ring: Ring) -> list[list[Polynomial]]:
    """Generators of the first syzygy module of polys over Ring (= S/Q),
    lifted to the ambient ring."""
    if not polys:
        raise ValueError("syzygies of an empty sequence")
    return [vector_to_polys(v, len(polys), ring)
            for v in syzygy_vectors(polys, (), ring)]


def colon_by_element(gens: list[Polynomial], f: Polynomial, ring: Ring) -> list[Polynomial]:
    """Generators of ((gens) + Q : f) in the ambient ring: the syzygies
    of [f] modulo gens."""
    if f.is_zero():
        raise ValueError("colon by zero")
    return [vector_to_polys(v, 1, ring)[0] for v in syzygy_vectors([f], gens, ring)]


def module_colength(vectors: list[Vector], rank: int, ring: Ring, degrees=None):
    """lambda(R^rank / N) for N generated by vectors (relations adjoined).

    None when infinite.  Computed componentwise from the leading-term
    module of a minimal basis of N + Q*(e_0,...,e_{rank-1}) in the TOP
    order graded by degrees (see module_buchberger).  That count is
    lambda(R^rank / N) under any module order, so degrees change only
    the work: for a graded N, putting e_i in its degree lets the engine
    run degree by degree.  Only leading terms are read (Reducers.leads),
    so the minimal basis is neither interreduced nor unpacked.  The
    vectors are read, not copied; the engine skips zero vectors.
    """
    gens = [*vectors, *(as_vector(f, i) for f in ring.relations for i in range(rank))]
    leads = Reducers.from_engine(gens, ring, degrees=degrees).leads()
    total = 0
    for i in range(rank):
        c = staircase_count(leads.get(i, ()), ring.nvars)
        if c is None:
            return None
        total += c
    return total
