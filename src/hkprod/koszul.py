"""The presentation kernel of a generating sequence at every Frobenius
level, and both sides of the length identity.

For a sequence a = a_1,...,a_l generating J and an m-primary ideal I,
the kernel K_{a,I} sits in the exact length bookkeeping

    l * lambda(R/I) + lambda(R/J) = lambda(K_{a,I}) + lambda(R/IJ)

whose two sides are computed along disjoint code paths: the left and the
product term by ideal staircases, the kernel term by syzygies plus a
module staircase.  The identity itself is asserted by the verifiers, not
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groebner
from .ideals import Ideal, InfiniteColengthError
from .rings import Polynomial


def kernel_length(a: list[Polynomial], I: Ideal, q: int = 1) -> int:
    """lambda(K_{a^q, I^[q]}).

    Computed as l * lambda(R/I^[q]) minus lambda(R^l / (K_{a^q} + I^[q] R^l)),
    with the syzygy module K_{a^q} and the module basis recomputed fresh at
    every q on every ring.  That is on purpose: Frobenius does not transport
    syzygies outside regular rings.  The module side powers a and I.gens
    itself, and reads no basis from the ideal engine, so it stays
    independent of Ideal.bracket_power, which on a polynomial ring takes
    G^[q] as the generators of I^[q].
    """
    if not a:
        raise ValueError("empty generating sequence")
    ring = I.ring
    ell = len(a)
    aq = [f.frobenius(q) for f in a]
    lam_Iq = I.bracket_power(q).colength_strict()
    syz = groebner.syzygies(aq, ring)
    vectors = [groebner.vector_from_polys(v) for v in syz]
    for g in I.gens:
        gq = g.frobenius(q)
        for pos in range(ell):
            vectors.append({(pos, m): c for m, c in gq.terms.items()})
    quotient = groebner.module_colength(vectors, ell, ring)
    if quotient is None:
        raise InfiniteColengthError("K_a + I R^l has infinite module colength")
    return ell * lam_Iq - quotient


@dataclass
class LenIdentitySides:
    """Both sides of the length identity at Frobenius level q.

    lhs = l*lambda(R/I^[q]) + lambda(R/J^[q]);
    rhs_kernel = lambda(K_{a^q, I^[q]}); rhs_product = lambda(R/(IJ)^[q]).
    The equality is asserted by the caller.
    """

    q: int
    ell: int
    lhs: int
    rhs_kernel: int
    rhs_product: int
    parts: dict = field(default_factory=dict)

    @property
    def rhs(self) -> int:
        return self.rhs_kernel + self.rhs_product

    def holds(self) -> bool:
        return self.lhs == self.rhs


def len_identity_sides(I: Ideal, a: list[Polynomial], q: int = 1) -> LenIdentitySides:
    """Compute all three lengths of the identity along independent paths."""
    ring = I.ring
    ell = len(a)
    J = Ideal(ring, a)
    lam_I = I.bracket_power(q).colength_strict()
    lam_J = J.bracket_power(q).colength_strict()
    lam_K = kernel_length(a, I, q)
    lam_IJ = (I * J).bracket_power(q).colength_strict()
    return LenIdentitySides(
        q=q, ell=ell,
        lhs=ell * lam_I + lam_J,
        rhs_kernel=lam_K,
        rhs_product=lam_IJ,
        parts={"lambda_Iq": lam_I, "lambda_Jq": lam_J,
               "lambda_K": lam_K, "lambda_IJq": lam_IJ},
    )
