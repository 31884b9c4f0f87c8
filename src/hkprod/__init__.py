"""Exact colength and Hilbert-Kunz computations for products of ideals
in polynomial rings and their graded quotients over prime fields."""

from .groebner import buchberger, syzygies
from .hk import (HKEstimate, HKTable, ProbeVerdict, hk_estimate, hk_table,
                 jacobian_candidates, monomial_hk_volume, star_spread, tc_probe)
from .ideals import (Ideal, InfiniteColengthError, is_parameter_ideal,
                     krull_dim, maximal_ideal, random_ideal)
from .koszul import kernel_length, len_identity_sides
from .rings import (MonomialOrder, Polynomial, PolynomialParseError, Ring,
                    RingMismatchError, parse_polynomial)
from .sessions import Session, load_session, parse_session

__all__ = [
    "Ring", "Polynomial", "MonomialOrder", "parse_polynomial",
    "RingMismatchError", "PolynomialParseError",
    "buchberger", "syzygies",
    "Ideal", "random_ideal", "krull_dim", "maximal_ideal",
    "is_parameter_ideal", "InfiniteColengthError",
    "kernel_length", "len_identity_sides",
    "HKTable", "HKEstimate", "ProbeVerdict", "hk_table", "hk_estimate",
    "monomial_hk_volume", "star_spread",
    "tc_probe", "jacobian_candidates",
    "Session", "parse_session", "load_session",
]
