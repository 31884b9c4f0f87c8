"""The presentation kernel of a generating sequence at every Frobenius
level, and both sides of the length identity.

For a sequence a = a_1,...,a_l generating J and an m-primary ideal I,
the kernel K_{a,I} sits in the exact length bookkeeping

    l * lambda(R/I) + lambda(R/J) = lambda(K_{a,I}) + lambda(R/IJ)

whose left side and product term are ideal staircases, and whose kernel
term is l * lambda(R/I) less a module staircase over syzygies.  Both
sides carry the one memoized l * lambda(R/I), so at level q a report
holds exactly when lambda(R/J^[q]) + lambda(R^l/(K_{a^q} + I^[q]R^l))
= lambda(R/(IJ)^[q]): one module staircase against two ideal ones.
len_identity_sides computes the four lengths for the caller's I and J,
one LenIdentitySides per level; the verifiers assert the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner
from .ideals import Ideal, InfiniteColengthError
from .rings import Polynomial


def kernel_length(a: list[Polynomial], I: Ideal, q: int = 1) -> int:
    """lambda(K_{a^q, I^[q]}).

    Computed as l * lambda(R/I^[q]) minus lambda(R^l / (K_{a^q} + I^[q] R^l)),
    with the syzygy module K_{a^q} and the module basis recomputed fresh at
    every q on every ring.  That is on purpose: Frobenius does not transport
    syzygies outside regular rings.  The module side reads the generators
    of I.bracket_power(q), the Frobenius powers of I.gens, and powers a
    itself; it reads no basis from the ideal engine.  The syzygies go from
    groebner.syzygy_vectors to module_colength as vectors.  The first term
    is I.bracket_colength(q), the left side's own value.

    e_i sits in degree deg(a_i^q): then K_{a^q} + I^[q] R^l is a graded
    submodule of the sum of the R(-deg a_i^q) when a and I are homogeneous
    (the ring always is, see Ring), and both module bases are built degree
    by degree.  The quotient length is the same under any module order.
    """
    if not a:
        raise ValueError("empty generating sequence")
    ring = I.ring
    ell = len(a)
    lam_Iq = I.bracket_colength(q)
    aq = [f.frobenius(q) for f in a]
    vectors = groebner.syzygy_vectors(aq, (), ring)
    for gq in I.bracket_power(q).gens:
        vectors += [groebner.as_vector(gq, pos) for pos in range(ell)]
    degrees = [max(f.degree(), 0) for f in aq]
    quotient = groebner.module_colength(vectors, ell, ring, degrees)
    if quotient is None:
        raise InfiniteColengthError("K_a + I R^l has infinite module colength")
    return ell * lam_Iq - quotient


@dataclass
class LenIdentitySides:
    """The four lengths of the identity at Frobenius level q, for a
    sequence of length ell:

        lhs = ell*lambda_Iq + lambda_Jq,   rhs = lambda_K + lambda_IJq,

    with lambda_Iq = lambda(R/I^[q]), lambda_Jq = lambda(R/J^[q]),
    lambda_K = lambda(K_{a^q, I^[q]}) and lambda_IJq = lambda(R/(IJ)^[q]).
    The equality is asserted by the caller.
    """

    q: int
    ell: int
    lambda_Iq: int
    lambda_Jq: int
    lambda_K: int
    lambda_IJq: int

    @property
    def lhs(self) -> int:
        return self.ell * self.lambda_Iq + self.lambda_Jq

    @property
    def rhs(self) -> int:
        return self.lambda_K + self.lambda_IJq

    def holds(self) -> bool:
        return self.lhs == self.rhs


def len_identity_sides(I: Ideal, J: Ideal, a: list[Polynomial],
                       qs: list[int]) -> list[LenIdentitySides]:
    """The four lengths of the identity at each level q in qs, along
    independent paths.  a is the sequence of the kernel term; lambda_Jq
    and the product term read the caller's J, and IJ is built once for
    every level, so a sequence that does not generate J breaks the
    identity instead of passing under J's name."""
    IJ = I * J
    return [LenIdentitySides(q, len(a), I.bracket_colength(q), J.bracket_colength(q),
                             kernel_length(a, I, q), IJ.bracket_colength(q))
            for q in qs]
