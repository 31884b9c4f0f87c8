"""Buchberger-based Groebner machinery for ideals and free-module submodules.

Everything is computed in the ambient polynomial ring; quotient-ring
questions are handled by the callers adjoining the presentation's
relations (for ideals) or relation multiples of the basis vectors (for
modules).  Output bases are reduced, monic and deterministically sorted,
so identical inputs give identical bases.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import groupby
from math import prod
from operator import add, itemgetter, le, sub

from .rings import Monomial, Polynomial, Ring


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))


def _lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


def _quot(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(sub, m1, m2))


def _update_pairs(t: int, leads: list[Monomial], earlier, pending: dict,
                  coprime_criterion: bool) -> list:
    """Gebauer-Moeller update of the pair set for a new basis element t.

    leads are the leading monomials of the basis, earlier the indices of
    the elements that t pairs with, pending maps each queued pair (i, j)
    to its lcm.  First the pending pairs that t makes redundant are
    dropped (criterion B: lead(t) divides lcm(i, j), and lcm(i, t) and
    lcm(j, t) both differ from it).  Then a new pair whose lcm is a
    multiple of another surviving new pair's lcm is dropped (criteria M
    and F).  Each of these drops is the chain criterion: S(i, j) is
    covered by the S-polynomials of a chain i - k - j whose leads divide
    lcm(i, j).  With coprime_criterion, pairs with coprime leading
    monomials are dropped last (Buchberger's first criterion, valid for
    polynomials but not for module vectors).  Returns the new pairs to
    queue, as (i, lcm).
    """
    lt = leads[t]
    for (i, j), lcm in list(pending.items()):
        if (_divides(lt, lcm) and _lcm(leads[i], lt) != lcm
                and _lcm(leads[j], lt) != lcm):
            del pending[i, j]
    new = [(i, _lcm(leads[i], lt)) for i in earlier]
    kept = []  # (i, lcm, coprime)
    for n, (i, lcm) in enumerate(new):
        coprime = coprime_criterion and lcm == tuple(map(add, leads[i], lt))
        if coprime or not (any(_divides(other, lcm) for _, other, _ in kept)
                           or any(_divides(other, lcm) for _, other in new[n + 1:])):
            kept.append((i, lcm, coprime))
    return [(i, lcm) for i, lcm, coprime in kept if not coprime]


# A reducer is a basis element prepared for division:
# (lead, heap key of lead, inverse lead coefficient, tail), where tail
# lists (term, heap key, coefficient) for every other term.  Heap keys
# are linear, so the key of a multiple's term is a sum of two keys.

def _reducer(g: Polynomial):
    heap_key = g.ring.order.heap_key
    lm = g.leading_monomial()
    tail = [(m, heap_key(m), c) for m, c in g.terms.items() if m != lm]
    return lm, heap_key(lm), pow(g.terms[lm], -1, g.ring.p), tail


def normal_form(f: Polynomial, basis: list[Polynomial], reducers=None) -> Polynomial:
    """Remainder of multivariate division of f by basis (first-match reducer).

    Zero iff f lies in the ideal generated by a *Groebner* basis; always
    idempotent and F_p-linear for a fixed basis.  The largest remaining
    term comes off a heap keyed once per inserted term; entries whose
    term has cancelled are skipped when popped.  Each term is reduced by
    the first basis element whose leading monomial divides it.
    reducers, when given, is [_reducer(g) for the nonzero g in basis].
    """
    ring = f.ring
    p = ring.p
    if reducers is None:
        reducers = [_reducer(g) for g in basis if not g.is_zero()]
    heap_key = ring.order.heap_key
    work = dict(f.terms)
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    remainder: dict = {}
    while heap:
        hm, m = heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        for lm, hlm, lcinv, tail in reducers:
            if all(map(le, lm, m)):
                factor = (c * lcinv) % p
                q = tuple(map(sub, m, lm))
                hq = tuple(map(sub, hm, hlm))
                for gm, hg, gc in tail:
                    mm = tuple(map(add, gm, q))
                    old = work.get(mm)
                    if old is None:
                        work[mm] = (-factor * gc) % p
                        heappush(heap, (tuple(map(add, hg, hq)), mm))
                    else:
                        v = (old - factor * gc) % p
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _lcm(lf, lg)
    p = f.ring.p
    cf = pow(f.leading_coefficient(), -1, p)
    cg = pow(g.leading_coefficient(), -1, p)
    return f.term_mul(_quot(lcm, lf), cf) - g.term_mul(_quot(lcm, lg), cg)


def buchberger(gens, ring: Ring) -> list[Polynomial]:
    """Reduced Groebner basis of (gens) + (ring.relations) in the ambient ring.

    Normal selection strategy: S-pairs ordered by lcm degree, then by
    the monomial order on the lcm, then by index.  Pairs are pruned by
    Buchberger's two criteria, coprime leading monomials and the chain
    criterion, in Gebauer-Moeller's form (see _update_pairs).  Leading
    monomials and reducers are kept in lists parallel to the basis.
    """
    G: list[Polynomial] = []
    for f in list(gens) + list(ring.relations):
        if not f.is_zero():
            G.append(f.monic())
    key = ring.order.key
    G.sort(key=lambda g: key(g.leading_monomial()))
    reducers = [_reducer(g) for g in G]
    leads = [r[0] for r in reducers]
    queue: list = []
    pending: dict = {}  # queued pair -> lcm of its leading monomials

    def add_pairs(t):
        for i, lcm in _update_pairs(t, leads, range(t), pending, True):
            pending[i, t] = lcm
            heappush(queue, (sum(lcm), key(lcm), i, t))

    for t in range(len(G)):
        add_pairs(t)
    while queue:
        _, _, i, j = heappop(queue)
        if pending.pop((i, j), None) is None:
            continue  # dropped by a later update
        s = normal_form(s_polynomial(G[i], G[j]), G, reducers)
        if not s.is_zero():
            s = s.monic()
            G.append(s)
            reducers.append(_reducer(s))
            leads.append(reducers[-1][0])
            add_pairs(len(G) - 1)
    return interreduce(G)


def interreduce(G: list[Polynomial]) -> list[Polynomial]:
    """Minimalize then fully reduce a Groebner basis; result is canonical."""
    if not G:
        return []
    ring = G[0].ring
    key = ring.order.key
    minimal: list[Polynomial] = []
    for g in sorted(G, key=lambda h: key(h.leading_monomial())):
        if not any(_divides(h.leading_monomial(), g.leading_monomial())
                   for h in minimal):
            minimal.append(g)
    reducers = [_reducer(g) for g in minimal]
    reduced = []
    for i, g in enumerate(minimal):
        r = normal_form(g, minimal[:i] + minimal[i + 1:],
                        reducers[:i] + reducers[i + 1:])
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda h: key(h.leading_monomial()))
    return reduced


# --- staircase counting ----------------------------------------------------

def staircase_count(lead_monos: list[Monomial], nvars: int):
    """Number of monomials outside the monomial ideal of lead_monos.

    Returns None when infinite.  Finiteness is decided combinatorially:
    the complement is infinite iff some variable has no pure power among
    the leading monomials.  The finite count is exact recursion on the
    last variable (Bayer-Stillman): the box bounded by the pure powers
    is cut only at that variable's distinct exponents, and each slab is
    counted one variable down.  The cost depends on the generators, not
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
    return _box_count(lead_monos, bounds)


def _box_count(gens: list[Monomial], bounds: list[int]) -> int:
    """Monomials of the box prod(range(b)) divisible by none of gens.

    Only the first len(bounds) exponents of a generator are read.  Each
    bound is the exponent of a pure power among gens, so every slab from
    the one where that pure power enters counts 0: generators outside
    the box change nothing.
    """
    n = len(bounds) - 1
    if n == 0:
        return min([bounds[0], *(g[0] for g in gens)])
    inner = bounds[:n]
    last = itemgetter(n)
    # the slab at last exponent a sees exactly the generators with
    # last exponent <= a; the count changes only where a generator enters
    total, start, below = 0, 0, prod(inner)
    active: list[Monomial] = []
    for a, group in groupby(sorted(gens, key=last), key=last):
        total += (a - start) * below
        active.extend(group)
        below = _box_count(active, inner)
        start = a
        if not below:
            return total
    return total + (bounds[n] - start) * below


def colength_of_basis(gb: list[Polynomial], ring: Ring):
    """lambda of the quotient by the ideal a reduced basis presents."""
    leads = [g.leading_monomial() for g in gb if not g.is_zero()]
    return staircase_count(leads, ring.nvars)


# --- module machinery -------------------------------------------------------
#
# A module element of R^rank is a dict {(component, monomial): coeff}.
# Orders on module terms:
#   TOP  - term over position, position tiebreak e_0 > e_1 > ...
#   ELIM - every term in component 0 beats every term elsewhere (used to
#          read syzygies / colon ideals off an extended module basis).

VecTerm = tuple[int, Monomial]
Vector = dict


class ModuleOrder:
    """A term order on module terms (component, monomial), TOP or ELIM.

    Called on a term it returns an ascending sort key, so max(v, key=order)
    is the leading term.  heap_key() is the descending key for heapq and,
    like MonomialOrder.heap_key, linear in the exponents.
    """

    def __init__(self, ring: Ring, elim: bool):
        self.elim = elim
        self._key = ring.order.key
        self._heap_key = ring.order.heap_key

    def __call__(self, t: VecTerm):
        pos, m = t
        if self.elim:
            return (1 if pos == 0 else 0, self._key(m), -pos)
        return (self._key(m), -pos)

    def heap_key(self, t: VecTerm) -> tuple[int, ...]:
        pos, m = t
        k = self._heap_key(m) + (pos,)
        return ((0 if pos == 0 else 1),) + k if self.elim else k


def top_key(ring: Ring) -> ModuleOrder:
    return ModuleOrder(ring, elim=False)


def elim_key(ring: Ring) -> ModuleOrder:
    return ModuleOrder(ring, elim=True)


def vector_from_polys(polys) -> Vector:
    v: Vector = {}
    for i, f in enumerate(polys):
        for m, c in f.terms.items():
            v[(i, m)] = c
    return v


def vector_to_polys(v: Vector, rank: int, ring: Ring) -> list[Polynomial]:
    comps: list[dict] = [{} for _ in range(rank)]
    for (i, m), c in v.items():
        comps[i][m] = c
    return [Polynomial(ring, t) for t in comps]


def _vec_leading(v: Vector, key) -> VecTerm:
    return max(v, key=key)


def _vec_axpy(v: Vector, coeff: int, mono: Monomial, w: Vector, p: int) -> None:
    """v -= coeff * x^mono * w, in place."""
    for (i, m), c in w.items():
        t = (i, tuple(map(add, m, mono)))
        val = (v.get(t, 0) - coeff * c) % p
        if val:
            v[t] = val
        else:
            v.pop(t, None)


def _vec_reducer(w: Vector, key: ModuleOrder, p: int):
    """(lead, heap key of lead, inverse lead coefficient, tail) of w."""
    lead = _vec_leading(w, key)
    tail = [(t, key.heap_key(t), c) for t, c in w.items() if t != lead]
    return lead, key.heap_key(lead), pow(w[lead], -1, p), tail


def _by_component(reducers) -> dict[int, list]:
    groups: dict[int, list] = {}
    for r in reducers:
        groups.setdefault(r[0][0], []).append(r)
    return groups


def module_normal_form(v: Vector, basis: list[Vector], ring: Ring, key,
                       reducers=None) -> Vector:
    """Remainder of v under first-match division by basis in order key.

    The heap division of normal_form, on one work dict updated in place.
    reducers, when given, maps each component to the _vec_reducer of the
    nonzero basis vectors whose leading term lies in it, in basis order.
    """
    p = ring.p
    if reducers is None:
        reducers = _by_component(_vec_reducer(w, key, p) for w in basis if w)
    heap_key = key.heap_key
    work = dict(v)
    heap = [(heap_key(t), t) for t in work]
    heapify(heap)
    remainder: Vector = {}
    while heap:
        ht, t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue  # cancelled after it was pushed
        mono = t[1]
        for (_, lmono), hl, lcinv, tail in reducers.get(t[0], ()):
            if all(map(le, lmono, mono)):
                factor = (c * lcinv) % p
                q = tuple(map(sub, mono, lmono))
                hq = tuple(map(sub, ht, hl))
                for (i, m), hw, wc in tail:
                    tt = (i, tuple(map(add, m, q)))
                    old = work.get(tt)
                    if old is None:
                        work[tt] = (-factor * wc) % p
                        heappush(heap, (tuple(map(add, hw, hq)), tt))
                    else:
                        val = (old - factor * wc) % p
                        if val:
                            work[tt] = val
                        else:
                            del work[tt]
                break
        else:
            remainder[t] = c
    return remainder


def _vec_monic(v: Vector, ring: Ring, key) -> Vector:
    inv = pow(v[_vec_leading(v, key)], -1, ring.p)
    if inv == 1:
        return v
    return {t: (c * inv) % ring.p for t, c in v.items()}


def module_buchberger(vectors: list[Vector], ring: Ring, key) -> list[Vector]:
    """Reduced module Groebner basis; S-pairs only within a component.

    Normal selection strategy as in buchberger: pairs ordered by lcm
    degree, then by key, then by index.  Only vectors whose leading
    terms share a component form pairs, and those are pruned by the
    chain criterion in Gebauer-Moeller's form, per component.  The
    coprime criterion does not hold for module vectors and is not used.
    Leading terms and reducers are kept per basis vector, the reducers
    also grouped by component.
    """
    p = ring.p
    G = [_vec_monic(dict(v), ring, key) for v in vectors if v]
    G.sort(key=lambda v: key(_vec_leading(v, key)))
    reducers = [_vec_reducer(w, key, p) for w in G]
    leads = [r[0] for r in reducers]
    by_component = _by_component(reducers)
    monos = [m for _, m in leads]
    # per component: the indices of the basis vectors whose leading term
    # lies in it, and its queued pairs with their lcms
    members: dict[int, list[int]] = {}
    pending: dict[int, dict] = {}
    queue: list = []

    def add_pairs(t):
        pos = leads[t][0]
        earlier = members.setdefault(pos, [])
        in_pos = pending.setdefault(pos, {})
        for i, lcm in _update_pairs(t, monos, earlier, in_pos, False):
            in_pos[i, t] = lcm
            heappush(queue, (sum(lcm), key((pos, lcm)), i, t))
        earlier.append(t)

    for t in range(len(G)):
        add_pairs(t)
    while queue:
        _, _, i, j = heappop(queue)
        lcm = pending[leads[i][0]].pop((i, j), None)
        if lcm is None:
            continue  # dropped by a later update
        s: Vector = {}
        _vec_axpy(s, p - reducers[i][2], _quot(lcm, monos[i]), G[i], p)
        _vec_axpy(s, reducers[j][2], _quot(lcm, monos[j]), G[j], p)
        s = module_normal_form(s, G, ring, key, by_component)
        if s:
            s = _vec_monic(s, ring, key)
            r = _vec_reducer(s, key, p)
            G.append(s)
            reducers.append(r)
            leads.append(r[0])
            monos.append(r[0][1])
            by_component.setdefault(r[0][0], []).append(r)
            add_pairs(len(G) - 1)
    return module_interreduce(G, ring, key)


def module_interreduce(G: list[Vector], ring: Ring, key) -> list[Vector]:
    p = ring.p
    prepared = sorted(((_vec_reducer(v, key, p), v) for v in G if v),
                      key=lambda rv: key(rv[0][0]))
    minimal: list = []  # (reducer, vector) pairs
    for r, v in prepared:
        pv, mv = r[0]
        if not any(rw[0][0] == pv and _divides(rw[0][1], mv) for rw, _ in minimal):
            minimal.append((r, v))
    reduced = []
    for i, (_, v) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = module_normal_form(v, [w for _, w in others], ring, key,
                               _by_component(rw for rw, _ in others))
        if r:
            reduced.append(_vec_monic(r, ring, key))
    reduced.sort(key=lambda v: key(_vec_leading(v, key)))
    return reduced


def _syzygy_basis(polys: list[Polynomial], modulo, ring: Ring) -> list[Vector]:
    """Syzygies of polys modulo (modulo) + Q, as vectors of rank len(polys).

    A syzygy is a tuple s with sum(s_i * a_i) in (modulo) + Q, read off
    an elimination-order module basis of the vectors a_i*e_0 + e_i
    together with g*e_0 for each g in modulo and each relation.
    """
    vectors: list[Vector] = []
    for i, a in enumerate(polys):
        v: Vector = {(i + 1, (0,) * ring.nvars): 1}
        for m, c in a.terms.items():
            v[(0, m)] = c
        vectors.append(v)
    for g in list(modulo) + list(ring.relations):
        vectors.append({(0, m): c for m, c in g.terms.items()})
    basis = module_buchberger(vectors, ring, elim_key(ring))
    return [{(i - 1, m): c for (i, m), c in v.items()}
            for v in basis if all(t[0] != 0 for t in v)]


def syzygies(polys: list[Polynomial], ring: Ring) -> list[list[Polynomial]]:
    """Generators of the first syzygy module of polys over Ring (= S/Q),
    lifted to the ambient ring."""
    if not polys:
        raise ValueError("syzygies of an empty sequence")
    return [vector_to_polys(v, len(polys), ring)
            for v in _syzygy_basis(polys, (), ring)]


def colon_by_element(gens: list[Polynomial], f: Polynomial, ring: Ring) -> list[Polynomial]:
    """Generators of ((gens) + Q : f) in the ambient ring: the syzygies
    of [f] modulo gens."""
    if f.is_zero():
        raise ValueError("colon by zero")
    return [vector_to_polys(v, 1, ring)[0] for v in _syzygy_basis([f], gens, ring)]


def module_colength(vectors: list[Vector], rank: int, ring: Ring):
    """lambda(R^rank / N) for N generated by vectors (relations adjoined).

    None when infinite.  Computed componentwise from the leading-term
    module of the TOP-order basis of N + Q*(e_0,...,e_{rank-1}).
    """
    gens = [dict(v) for v in vectors if v]
    for f in ring.relations:
        for i in range(rank):
            gens.append({(i, m): c for m, c in f.terms.items()})
    basis = module_buchberger(gens, ring, top_key(ring))
    key = top_key(ring)
    per_component: list[list[Monomial]] = [[] for _ in range(rank)]
    for v in basis:
        i, m = _vec_leading(v, key)
        per_component[i].append(m)
    total = 0
    for leads in per_component:
        c = staircase_count(leads, ring.nvars)
        if c is None:
            return None
        total += c
    return total
