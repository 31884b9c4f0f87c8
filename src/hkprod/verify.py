"""Executable checkers, one per numbered claim about lengths and
Hilbert-Kunz multiplicities of ideal products.

Every checker computes both sides of its (in)equality through disjoint
call graphs (ideal staircases vs. syzygy module staircases vs. volume
formulas) and returns a structured VerifyReport.  Limit statements on
non-regular presentations are checked as exact per-q surrogates and the
report carries an explicit caveat; nothing is ever compared with a
tolerance."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .hk import exact_text, jacobian_candidates, levels, star_spread, tc_probe
from .ideals import (Ideal, is_parameter_ideal, krull_dim, maximal_ideal,
                     random_ideal)
from .koszul import kernel_length, len_identity_sides
from .rings import Ring

# Check names, each written once: the reports and CHECKS below use these.
LEN_IDENTITY = "len-identity"
PROP_INEQ = "prop-ineq"
COR_POWER = "cor-power"
EQCONDS = "eqconds"
FREENESS = "freeness"
SQUARE = "square"
EQ7 = "eq7"
HK_PRODUCT = "hk-product"
COR_POWER_HK = "cor-power-hk"
EQTHENTC = "eqthentc"
PARAM_LOWER = "param-lower"
SQUARE_HK = "square-hk"
PROP42 = "prop42"
HUNEKE_YAO = "huneke-yao"


class NotApplicable(ValueError):
    """The ideals miss the check's hypotheses: trials skip, --ideal exits 2."""


@dataclass
class VerifyReport:
    check: str
    fixture: str
    lhs: object
    rhs: object
    relation: str  # "=", "<=", ">="
    holds: bool
    q: int | None = None
    caveat: str | None = None
    data: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        obj = {"schema": 1, "checker": self.check, "fixture": self.fixture,
               "lhs": self.lhs, "rhs": self.rhs, "relation": self.relation,
               "holds": self.holds, "q": self.q, "caveat": self.caveat,
               "data": self.data}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          default=exact_text)

    def csv_row(self) -> list:
        """The CSV_HEADER fields of the JSON line; csv writes None as ''."""
        obj = json.loads(self.to_json_line())
        return [obj[k] for k in CSV_HEADER]


CSV_HEADER = ["checker", "fixture", "lhs", "rhs", "relation", "holds", "q"]


def _fixture(*ideals, extra=""):
    desc = "; ".join(f"({i})" for i in ideals)
    return desc + (f" {extra}" if extra else "")


def _parameter_dim(J: Ideal, least: int = 0) -> int:
    """The dimension d, once it is checked to be at least least and J to
    be a parameter ideal."""
    d = krull_dim(J.ring)
    if d < least:
        raise ValueError(f"needs dimension at least {least}")
    if not is_parameter_ideal(J):
        raise ValueError("needs a parameter ideal")
    return d


def _product_bound(I: Ideal, J: Ideal, spread, side) -> tuple:
    """The two sides of the product bound side(IJ) <= spread*side(I) +
    side(J), with IJ built once: side is Ideal.colength_strict for the
    length form and _hk_side's hk for the e_HK form."""
    return side(I * J), spread * side(I) + side(J)


def _power_bound(I: Ideal, n: int, spread, side) -> tuple:
    """The two sides of the power bound side(I^n) <= (1 + spread + ... +
    spread^(n-1)) * side(I), with side as in _product_bound.  At n = 2
    and spread d this is the (d+1) of a parameter ideal's square."""
    return side(I.power(n)), sum(spread ** k for k in range(n)) * side(I)


# --- length identities (general case) ---------------------------------------

def verify_len_identity(I: Ideal, J: Ideal, e_max: int) -> list[VerifyReport]:
    """l*lambda(R/I^[q]) + lambda(R/J^[q]) = lambda(K) + lambda(R/(IJ)^[q]),
    one report per q = p^0 ... p^e_max.

    Exact for any generating sequence of J, minimal or not; the l on the
    left is the length of the sequence actually used."""
    a = J.minimal_generators()
    return [VerifyReport(check=LEN_IDENTITY, fixture=_fixture(I, J), q=s.q,
                         lhs=s.lhs, rhs=s.rhs, relation="=", holds=s.holds(),
                         data={k: v for k, v in asdict(s).items() if k != "q"})
            for s in len_identity_sides(I, J, a, levels(I.ring.p, e_max))]


def verify_prop_ineq(I: Ideal, J: Ideal) -> VerifyReport:
    """lambda(R/IJ) <= mu(J)*lambda(R/I) + lambda(R/J); principal J gets
    the regular-element branch lambda(M/IM) <= lambda(R/I) with the
    annihilator criterion reported.  J is trimmed only if it might be
    principal: not m-primary, or mu(J) = 1."""
    a = None if J.is_m_primary() and J.min_gens() >= 2 else J.minimal_generators()
    lam_I = I.colength_strict()
    if a is not None and len(a) == 1:
        # principal J needs no colength of its own: the bound reduces to
        # lambda(M/IM) <= lambda(R/I) for the rank-1 module M = (f)
        f = a[0]
        fI = Ideal(I.ring, [f]) * I
        lam_mim = fI.colon(f).colength_strict()  # lambda((f)/(f)I)
        ann = Ideal(I.ring, []).colon(f)  # (0 : f)
        ann_in_I = I.contains_ideal(ann)
        holds = lam_mim <= lam_I and ((lam_mim == lam_I) == ann_in_I)
        return VerifyReport(
            check=PROP_INEQ, fixture=_fixture(I, J, extra="[principal]"),
            lhs=lam_mim, rhs=lam_I, relation="<=", holds=holds,
            data={"mu": 1, "annihilator_in_I": ann_in_I},
        )
    mu = J.min_gens()
    lhs, rhs = _product_bound(I, J, mu, Ideal.colength_strict)
    return VerifyReport(
        check=PROP_INEQ, fixture=_fixture(I, J),
        lhs=lhs, rhs=rhs, relation="<=", holds=lhs <= rhs,
        data={"mu": mu, "lambda_I": lam_I, "lambda_J": J.colength_strict()},
    )


def verify_cor_power(I: Ideal, n: int) -> VerifyReport:
    """lambda(R/I^n) <= (1 + l + ... + l^(n-1)) * lambda(R/I), l = mu(I)."""
    ell = I.min_gens()
    lhs, rhs = _power_bound(I, n, ell, Ideal.colength_strict)
    return VerifyReport(
        check=COR_POWER, fixture=_fixture(I, extra=f"n={n}"),
        lhs=lhs, rhs=rhs, relation="<=", holds=lhs <= rhs,
        data={"mu": ell, "n": n},
    )


def verify_eqconds(I: Ideal, J: Ideal) -> VerifyReport:
    """Equality in the product bound forces J in I; the converse when J
    is generated by a regular sequence (parameter surrogate)."""
    mu = J.min_gens()
    if mu < 2:
        raise NotApplicable("theorem needs a non-principal J")
    lam_IJ, bound = _product_bound(I, J, mu, Ideal.colength_strict)
    equality = lam_IJ == bound
    containment = I.contains_ideal(J)
    parameter = is_parameter_ideal(J)
    forward_ok = (not equality) or containment
    converse_ok = (not (parameter and containment)) or equality
    return VerifyReport(
        check=EQCONDS, fixture=_fixture(I, J),
        lhs=lam_IJ, rhs=bound, relation="=",
        holds=forward_ok and converse_ok,
        data={"equality": equality, "containment": containment,
              "parameter": parameter, "mu": mu},
    )


def verify_freeness(J: Ideal, I: Ideal) -> VerifyReport:
    """lambda(J/IJ) = mu(J)*lambda(R/I) exactly when the presentation
    kernel vanishes (J/IJ free over R/I); the two detections must agree.
    Needs mu(J) generators: at a longer presentation the kernel is nonzero
    even for free quotients, so a J that minimal_generators cannot bring
    down to mu(J), possible only when J's generators are not all
    homogeneous, is NotApplicable."""
    a = J.minimal_generators()
    mu = J.min_gens()
    if len(a) != mu:
        raise NotApplicable(f"could not trim ({J}) to mu={mu} generators")
    lam_JIJ = (I * J).colength_strict() - J.colength_strict()
    rhs = mu * I.colength_strict()
    free_by_length = lam_JIJ == rhs
    kernel = kernel_length(a, I, 1)
    return VerifyReport(
        check=FREENESS, fixture=_fixture(J, I),
        lhs=lam_JIJ, rhs=rhs, relation="=",
        holds=free_by_length == (kernel == 0),
        data={"free_by_length": free_by_length, "kernel_length": kernel, "mu": mu},
    )


def verify_cor_square(J: Ideal) -> VerifyReport:
    """lambda(R/J^2) = (d+1)*lambda(R/J) for parameter ideals, d >= 2."""
    d = _parameter_dim(J, least=2)
    lhs, rhs = _power_bound(J, 2, d, Ideal.colength_strict)
    return VerifyReport(
        check=SQUARE, fixture=_fixture(J),
        lhs=lhs, rhs=rhs, relation="=", holds=lhs == rhs,
        data={"d": d},
    )


# --- per-q and Hilbert-Kunz statements ---------------------------------------

def verify_eq7_per_q(I: Ideal, J: Ideal, e_max: int) -> VerifyReport:
    """The length identity at every q = p^0 ... p^e_max (the exact form
    behind the limiting Hilbert-Kunz identity)."""
    a = J.minimal_generators()
    per_q = {str(s.q): {"lhs": s.lhs, "rhs_kernel": s.lambda_K,
                        "rhs_product": s.lambda_IJq, "holds": s.holds()}
             for s in len_identity_sides(I, J, a, levels(I.ring.p, e_max))}
    return VerifyReport(
        check=EQ7, fixture=_fixture(I, J), q=I.ring.p ** e_max,
        lhs="per-q", rhs="per-q", relation="=",
        holds=all(row["holds"] for row in per_q.values()),
        data={"per_q": per_q, "ell": len(a)},
    )


def _hk_side(ring: Ring, e_max: int):
    """`(hk, q, caveat)` for the e_HK sides of a bound.  On regular rings
    hk(I) is the exact lambda(R/I) (Kunz: e_HK(I) = lambda(R/I)) and q and
    caveat are None; elsewhere hk(I) is the surrogate lambda(R/I^[q])/q^d
    at q = p^e_max and the caveat says so."""
    if ring.is_regular:
        return Ideal.colength_strict, None, None
    d = krull_dim(ring)
    q = ring.p ** e_max
    return ((lambda I: Fraction(I.bracket_colength(q), q ** d)),
            q, f"finite-q surrogate at q={q}")


def verify_hk_product_bound(I: Ideal, J: Ideal, mode, e_max: int = 1) -> VerifyReport:
    """e_HK(IJ) <= l*(J)*e_HK(I) + e_HK(J); exact via Kunz when the ring
    is regular, a flagged finite-q surrogate otherwise."""
    ls = star_spread(J, mode)
    hk, q, caveat = _hk_side(I.ring, e_max)
    lhs, rhs = _product_bound(I, J, ls, hk)
    return VerifyReport(
        check=HK_PRODUCT, fixture=_fixture(I, J), q=q,
        lhs=lhs, rhs=rhs, relation="<=", holds=lhs <= rhs, caveat=caveat,
        data={"star_spread": ls, "exact": I.ring.is_regular},
    )


def verify_cor_power_hk(I: Ideal, n: int, mode, e_max: int = 1) -> VerifyReport:
    """e_HK(I^n) <= (1 + l + ... + l^(n-1)) * e_HK(I) with l = l*(I)."""
    ls = star_spread(I, mode)
    hk, q, caveat = _hk_side(I.ring, e_max)
    lhs, rhs = _power_bound(I, n, ls, hk)
    return VerifyReport(
        check=COR_POWER_HK, fixture=_fixture(I, extra=f"n={n}"), q=q,
        lhs=lhs, rhs=rhs, relation="<=", holds=lhs <= rhs, caveat=caveat,
        data={"star_spread": ls, "n": n, "exact": I.ring.is_regular},
    )


def verify_eqthentc(I: Ideal, J: Ideal, mode, e_max: int = 1) -> VerifyReport:
    """Equality in the product bound forces J inside the tight closure
    of I: exact containment check in regular rings (I* = I); in other
    rings a zero finite-q gap triggers probe runs, reported unasserted."""
    ring = I.ring
    if not ring.is_regular and e_max < 1:
        raise ValueError(f"{EQTHENTC} off regular rings needs e_max at least 1")
    ls = star_spread(J, mode)
    if ls < 2:
        raise NotApplicable("theorem needs star spread at least 2")
    hk, q, _ = _hk_side(ring, e_max)
    lhs, rhs = _product_bound(I, J, ls, hk)
    if ring.is_regular:
        equality = lhs == rhs
        containment = I.contains_ideal(J) if equality else None
        holds, caveat = (not equality) or bool(containment), None
        data = {"equality": equality, "containment": containment}
    else:
        gap = rhs - lhs
        verdicts = {}
        if gap == 0 and len(ring.relations) == 1:
            for ci, c in enumerate(jacobian_candidates(ring)):
                for gi, g in enumerate(J.gens):
                    verdicts[f"c{ci}_gen{gi}"] = str(tc_probe(g, I, c, e_max))
        holds = True
        caveat = f"finite-q gap report at q={q}; membership in I* is not decided"
        data = {"gap": gap, "probe_verdicts": verdicts}
    return VerifyReport(
        check=EQTHENTC, fixture=_fixture(I, J), q=q,
        lhs=lhs, rhs=rhs, relation="=", holds=holds, caveat=caveat,
        data=dict(data, star_spread=ls, exact=ring.is_regular),
    )


def verify_param_lower_bound(I: Ideal, J: Ideal, e_max: int = 1) -> VerifyReport:
    """e_HK(IJ) >= d*e_HK(I+J) + e_HK(J) for parameter J, with the
    equality branch d*e_HK(I) + e_HK(J) when J is contained in I: asserted
    on regular rings, its gap reported elsewhere."""
    ring = I.ring
    d = _parameter_dim(J, least=2)
    containment = I.contains_ideal(J)
    hk, q, caveat = _hk_side(ring, e_max)
    lhs = hk(I * J)
    rhs = d * hk(I + J) + hk(J)
    holds = lhs >= rhs
    data = {"d": d, "containment": containment, "exact": ring.is_regular}
    if containment:
        eq_rhs = d * hk(I) + hk(J)
        if ring.is_regular:
            data["equality_branch_rhs"] = eq_rhs
            holds = holds and lhs == eq_rhs
        else:
            data["equality_branch_gap"] = eq_rhs - lhs
    return VerifyReport(
        check=PARAM_LOWER, fixture=_fixture(I, J), q=q,
        lhs=lhs, rhs=rhs, relation=">=", holds=holds, caveat=caveat, data=data,
    )


def verify_cor_square_hk(J: Ideal, e_max: int = 1) -> VerifyReport:
    """e_HK(J^2) = (d+1)*e_HK(J) = (d+1)*e(J) for parameter ideals.

    Regular rings reduce to the exact length statement; elsewhere the
    per-q form is checked at every computed q and any gap is reported."""
    ring = J.ring
    d = _parameter_dim(J, least=2)
    lam_J = J.colength_strict()  # = e(J) in the Cohen-Macaulay rings handled
    J2 = J.power(2)
    hk, q, _ = _hk_side(ring, e_max)
    lhs, rhs = hk(J2), (d + 1) * hk(J)
    data = {"d": d, "e_J": lam_J, "exact": ring.is_regular}
    holds, caveat = lhs == rhs, None
    if not ring.is_regular:
        per_q = data["per_q"] = {}
        for qe in levels(ring.p, e_max):
            lhs_q = J2.bracket_colength(qe)
            rhs_q = (d + 1) * J.bracket_colength(qe)
            per_q[str(qe)] = {"lhs": lhs_q, "rhs": rhs_q,
                              "gap_normalized": Fraction(lhs_q - rhs_q, qe ** d)}
        holds = all(row["lhs"] == row["rhs"] for row in per_q.values())
        caveat = f"exact per-q form checked for q <= {q}"
    return VerifyReport(
        check=SQUARE_HK, fixture=_fixture(J), q=q, lhs=lhs, rhs=rhs,
        relation="=", holds=holds, caveat=caveat, data=data,
    )


def verify_prop42(I: Ideal, J: Ideal, e_max: int) -> VerifyReport:
    """Once some bracket power of the parameter ideal J lands inside I,
    lambda(R/I*J^[q]) = d*lambda(R/I) + lambda(R/J^[q]) for all larger q
    (exact in regular rings via Kunz)."""
    ring = I.ring
    d = _parameter_dim(J)
    p = ring.p
    qs = levels(p, e_max)
    q0 = next((q for q in qs if I.contains_ideal(J.bracket_power(q))), None)
    if q0 is None:
        return VerifyReport(
            check=PROP42, fixture=_fixture(I, J), q=p ** e_max,
            lhs="n/a", rhs="n/a", relation="=", holds=True,
            caveat=f"inconclusive: no q0 <= {p ** e_max} with J^[q0] in I",
            data={"d": d},
        )
    lam_I = I.colength_strict()
    per_q = {}
    for q in qs[qs.index(q0):]:
        per_q[str(q)] = {"lhs": (I * J.bracket_power(q)).colength_strict(),
                         "rhs": d * lam_I + J.bracket_colength(q)}
    all_equal = all(row["lhs"] == row["rhs"] for row in per_q.values())
    caveat = None if ring.is_regular else "finite-q report on a non-regular presentation"
    holds = all_equal if ring.is_regular else True
    return VerifyReport(
        check=PROP42, fixture=_fixture(I, J), q=p ** e_max,
        lhs="per-q", rhs="per-q", relation="=", holds=holds, caveat=caveat,
        data={"d": d, "q0": q0, "per_q": per_q, "all_equal": all_equal},
    )


def verify_huneke_yao_per_q(I: Ideal, e_max: int) -> VerifyReport:
    """lambda(R/I^[q]) <= lambda(R/m^[q]) * lambda(R/I) for every
    q = p^1 ... p^e_max; e_max < 1 would check nothing and is refused."""
    ring = I.ring
    m = maximal_ideal(ring)
    lam_I = I.colength_strict()
    per_q = {str(q): {"lhs": I.bracket_colength(q),
                      "rhs": m.bracket_colength(q) * lam_I}
             for q in levels(ring.p, e_max, 1)}
    data = {"per_q": per_q, "lambda_I": lam_I}
    if ring.is_regular:
        # Kunz: e_HK(R) = 1, so the limit statement is lam_I <= lam_I
        data["limit_equality"] = True
    return VerifyReport(
        check=HUNEKE_YAO, fixture=_fixture(I), q=ring.p ** e_max,
        lhs="per-q", rhs="per-q", relation="<=",
        holds=all(row["lhs"] <= row["rhs"] for row in per_q.values()), data=data,
    )


# --- the check table and the randomized trial driver ------------------------

def _draw(ring: Ring, rng: random.Random, family: str, bound: int) -> Ideal:
    return random_ideal(random.Random(rng.randrange(2 ** 32)), ring, family, bound)


def _draw_parameter(ring, rng, t, bound):
    """(J,), a parameter ideal."""
    return (_draw(ring, rng, "parameter-powers", 4),)


def _draw_single(ring, rng, t, bound):
    """(I,), binomial and monomial in turn."""
    return (_draw(ring, rng, "monomial" if t % 2 else "binomial", bound),)


def _draw_parameter_pair(ring, rng, t, bound):
    """(I, J), J a parameter ideal, and inside I every fourth trial."""
    J = _draw(ring, rng, "parameter-powers", bound)
    extra = _draw(ring, rng, "monomial", bound)
    return (J + extra if t % 4 == 3 else extra), J


def _draw_pair(ring, rng, t, bound):
    """(I, J) from random families, but a parameter pair every fourth trial."""
    if t % 4 == 3:
        return _draw_parameter_pair(ring, rng, t, bound)
    families = ["monomial", "binomial"] + (["dense"] if ring.is_regular else [])
    fam_i = families[rng.randrange(len(families))]
    fam_j = families[rng.randrange(len(families))]
    return _draw(ring, rng, fam_i, bound), _draw(ring, rng, fam_j, bound)


def _draw_hk_pair(ring, rng, t, bound):
    """Any pair on regular rings, a parameter pair on the others."""
    return (_draw_pair if ring.is_regular else _draw_parameter_pair)(ring, rng, t, bound)


@dataclass(frozen=True)
class CheckSpec:
    """One row of the check table.  `verifier` names a module-global
    verify_* function, looked up at each call so that a rebound name
    (the benchmark tracer's wrappers) is the one run.  It takes `arity`
    ideals in `--ideal` order, then `options` in order, each one of
    e_max (--qmax), n (-n) and mode (--mode), and returns one report or,
    for len-identity, a list of them.  `draw(ring, rng, t, bound)` gives
    trial t's ideals."""
    verifier: str
    options: tuple[str, ...]
    draw: object
    arity: int

    def run(self, ideals, e_max, n, mode) -> list[VerifyReport]:
        given = {"e_max": e_max, "n": n, "mode": mode}
        out = globals()[self.verifier](*ideals, *(given[o] for o in self.options))
        return out if isinstance(out, list) else [out]


CHECKS = {
    LEN_IDENTITY: CheckSpec("verify_len_identity", ("e_max",), _draw_pair, 2),
    PROP_INEQ: CheckSpec("verify_prop_ineq", (), _draw_pair, 2),
    COR_POWER: CheckSpec("verify_cor_power", ("n",), _draw_single, 1),
    EQCONDS: CheckSpec("verify_eqconds", (), _draw_pair, 2),
    FREENESS: CheckSpec("verify_freeness", (),  # J first, then I
                        lambda *args: _draw_pair(*args)[::-1], 2),
    SQUARE: CheckSpec("verify_cor_square", (), _draw_parameter, 1),
    EQ7: CheckSpec("verify_eq7_per_q", ("e_max",), _draw_pair, 2),
    HK_PRODUCT: CheckSpec("verify_hk_product_bound", ("mode", "e_max"), _draw_hk_pair, 2),
    COR_POWER_HK: CheckSpec("verify_cor_power_hk", ("n", "mode", "e_max"), _draw_single, 1),
    EQTHENTC: CheckSpec("verify_eqthentc", ("mode", "e_max"), _draw_hk_pair, 2),
    PARAM_LOWER: CheckSpec("verify_param_lower_bound", ("e_max",), _draw_parameter_pair, 2),
    SQUARE_HK: CheckSpec("verify_cor_square_hk", ("e_max",), _draw_parameter, 1),
    PROP42: CheckSpec("verify_prop42", ("e_max",), _draw_parameter_pair, 2),
    HUNEKE_YAO: CheckSpec("verify_huneke_yao_per_q", ("e_max",), _draw_single, 1),
}
CHECK_NAMES = tuple(CHECKS)


def check_spec(name: str) -> CheckSpec:
    """The CHECKS row of `name`; any other name is a ValueError."""
    try:
        return CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; choose from "
                         f"{', '.join(CHECK_NAMES)}") from None


def run_trials(check: str, ring: Ring, trials: int, seed: int,
               e_max: int = 1, n: int = 2, mode=None) -> list[VerifyReport]:
    """Seeded randomized suite for one checker; deterministic output.
    Trials outside the check's hypotheses (NotApplicable) are skipped."""
    spec = check_spec(check)
    rng = random.Random(seed)
    bound = 3 if ring.nvars <= 2 else 2
    reports: list[VerifyReport] = []
    for t in range(trials):
        ideals = spec.draw(ring, rng, t, bound)
        try:
            reports += spec.run(ideals, e_max, n, mode)
        except NotApplicable:
            pass
    return reports
