"""One test per checker, on hand-verified fixtures, plus the trial driver."""

import gc
import hashlib
import inspect
import json
import re
import weakref
from pathlib import Path

import pytest

from hkprod import Ideal, Ring, groebner
from hkprod import verify as V
from hkprod.cli import main


def I_(ring, *gens):
    return Ideal(ring, list(gens))


def test_len_identity_fixtures(F2xy):
    I, J = I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y")
    r1, r2 = V.verify_len_identity(I, J, 1)  # q = 1, 2
    assert (r1.q, r2.q) == (1, 2)
    assert r1.holds and (r1.lhs, r1.rhs) == (9, 9)
    assert r1.data["lambda_K"] == 3 and r1.data["lambda_IJq"] == 6
    assert r2.holds and (r2.lhs, r2.rhs) == (36, 36)
    (r3,) = V.verify_len_identity(J, J, 0)
    assert r3.holds and r3.data["lambda_K"] == 0 and r3.rhs == 3


def test_len_identity_reads_the_callers_J(F2xy, monkeypatch):
    # x^2, y does not generate J = (x, y): the kernel term follows the
    # sequence, lambda(R/J) and lambda(R/IJ) follow J, so the identity
    # must fail rather than pass for the ideal (x^2, y)
    I, J = I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y")
    monkeypatch.setattr(J, "minimal_generators",
                        lambda: [F2xy.poly("x^2"), F2xy.poly("y")])
    (r,) = V.verify_len_identity(I, J, 0)
    assert not r.holds and (r.lhs, r.rhs) == (9, 8)
    assert r.data["lambda_Jq"] == J.colength() == 1
    e = V.verify_eq7_per_q(I, J, 0)
    assert not e.holds
    assert e.data["per_q"]["1"] == {"lhs": 9, "rhs_kernel": r.data["lambda_K"],
                                    "rhs_product": 6, "holds": False}


def test_eq7_leaves_no_cycle_and_repeats_no_engine_input(F2xy, fermat, monkeypatch):
    # IJ is built once per check and stored on no factor, so I is freed by
    # reference counting alone; J's basis is the caller's, so no engine
    # run within the check is handed an input that an earlier one had
    seen = []
    run = groebner._buchberger

    def keyed(works, lay):
        seen.append((lay.p, lay.grevlex, lay.field_bytes, lay.rank, lay.elim,
                     tuple(sorted(tuple(sorted(w.items())) for w in works))))
        return run(works, lay)

    monkeypatch.setattr(groebner, "_buchberger", keyed)
    for ring, gens_I, gens_J in ((F2xy, ("x^2", "y^2"), ("x", "y")),
                                 (fermat, ("x^2", "y", "z^2"), ("y + x*z", "z^2"))):
        seen.clear()
        gc.disable()
        try:
            I, J = I_(ring, *gens_I), I_(ring, *gens_J)
            assert V.verify_eq7_per_q(I, J, 1).holds
            freed = weakref.ref(I)
            del I, J
            assert freed() is None, ring
        finally:
            gc.enable()
        assert seen and len(seen) == len(set(seen)), ring


def test_prop_ineq_fixtures(F2xy):
    r = V.verify_prop_ineq(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"))
    assert r.holds and (r.lhs, r.rhs) == (6, 9)
    eq = V.verify_prop_ineq(I_(F2xy, "x", "y"), I_(F2xy, "x", "y"))
    assert eq.holds and eq.lhs == eq.rhs == 3


def test_prop_ineq_principal_branch(F2xy):
    r = V.verify_prop_ineq(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x"))
    assert r.holds and (r.lhs, r.rhs) == (4, 4)
    assert r.data["mu"] == 1 and r.data["annihilator_in_I"]


def test_prop_ineq_reads_mu_before_it_trims(fermat, monkeypatch):
    # an m-primary J with mu(J) = 2 has no generating sequence of length 1
    trims = []
    trim = Ideal.minimal_generators
    monkeypatch.setattr(Ideal, "minimal_generators",
                        lambda self: trims.append(self) or trim(self))
    r = V.verify_prop_ineq(I_(fermat, "x^2", "y", "z^2"), I_(fermat, "y + x*z", "z^2", "y^2"))
    assert trims == []
    assert r.to_json_line() == (
        '{"caveat":null,"checker":"prop-ineq","data":{"lambda_I":4,"lambda_J":6,"mu":2},'
        '"fixture":"(x^2, y, z^2); (x*z + y, z^2, y^2)","holds":true,"lhs":13,"q":null,'
        '"relation":"<=","rhs":14,"schema":1}')


def test_prop_ineq_principal_branch_of_an_m_primary_J():
    line = Ring(2, ["x"])
    r = V.verify_prop_ineq(I_(line, "x^3"), I_(line, "x^2"))
    assert r.to_json_line() == (
        '{"caveat":null,"checker":"prop-ineq","data":{"annihilator_in_I":true,"mu":1},'
        '"fixture":"(x^3); (x^2) [principal]","holds":true,"lhs":3,"q":null,'
        '"relation":"<=","rhs":3,"schema":1}')


def test_cor_power_fixtures(F2xy):
    r = V.verify_cor_power(I_(F2xy, "x", "y"), 2)
    assert r.holds and r.lhs == r.rhs == 3
    r2 = V.verify_cor_power(I_(F2xy, "x^2", "x*y", "y^2"), 2)
    assert r2.holds and (r2.lhs, r2.rhs) == (10, 12)
    r3 = V.verify_cor_power(I_(F2xy, "x", "y"), 1)
    assert r3.holds and r3.lhs == r3.rhs


def test_eqconds_fixtures(F2xy):
    both = V.verify_eqconds(I_(F2xy, "x", "y"), I_(F2xy, "x", "y"))
    assert both.holds and both.data["equality"] and both.data["containment"]
    strict = V.verify_eqconds(I_(F2xy, "x^2", "x*y", "y^2"), I_(F2xy, "x", "y"))
    assert strict.holds and not strict.data["equality"]
    assert (strict.lhs, strict.rhs) == (6, 7)
    forced = V.verify_eqconds(I_(F2xy, "x^2", "x*y", "y^2"), I_(F2xy, "x^2", "y^2"))
    assert forced.holds and forced.data["parameter"] and forced.data["containment"]
    assert forced.lhs == forced.rhs == 10
    with pytest.raises(ValueError):
        V.verify_eqconds(I_(F2xy, "x", "y"), I_(F2xy, "x"))
    line = Ring(2, ["x"])  # every ideal principal: mu(J) < 2
    with pytest.raises(V.NotApplicable):
        V.verify_eqconds(I_(line, "x"), I_(line, "x^2"))


def test_freeness_needs_mu_generators(F2xy):
    # greedy trimming cannot bring J down to mu(J) = 2 generators
    J = I_(F2xy, "y^3+x*y+x+y", "x^2*y+x*y+y^2+y", "x^2*y+x*y^2")
    assert J.min_gens() == 2 and len(J.minimal_generators()) == 3
    with pytest.raises(V.NotApplicable, match="mu=2"):
        V.verify_freeness(J, I_(F2xy, "x^2", "y^2"))


def test_freeness_fixtures(F2xy):
    free = V.verify_freeness(I_(F2xy, "x", "y"), I_(F2xy, "x", "y"))
    assert free.holds and free.data["free_by_length"] and free.data["kernel_length"] == 0
    assert free.lhs == 2
    non_free = V.verify_freeness(I_(F2xy, "x", "y"), I_(F2xy, "x^2", "y^2"))
    assert non_free.holds and not non_free.data["free_by_length"]
    assert (non_free.lhs, non_free.rhs) == (5, 8)
    assert non_free.data["kernel_length"] == 3


def test_square_fixtures(F3xy, F2xyz, F5xy):
    r = V.verify_cor_square(I_(F3xy, "x", "y^2"))
    assert r.holds and r.lhs == 6 == 3 * 2
    r2 = V.verify_cor_square(I_(F2xyz, "x", "y", "z"))
    assert r2.holds and r2.lhs == 4
    r3 = V.verify_cor_square(I_(F5xy, "x^2", "y^3"))
    assert r3.holds and r3.lhs == 18
    with pytest.raises(ValueError):
        V.verify_cor_square(I_(F5xy, "x^2", "x*y", "y^2"))
    with pytest.raises(ValueError):
        V.verify_cor_square(I_(Ring(2, ["x"]), "x"))


def test_eq7_fixtures(F2xy, F3xy, fermat):
    r = V.verify_eq7_per_q(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"), 2)
    assert r.holds and set(r.data["per_q"]) == {"1", "2", "4"}
    m3 = I_(F3xy, "x", "y")
    assert V.verify_eq7_per_q(m3, m3, 1).holds
    rf = V.verify_eq7_per_q(I_(fermat, "x", "y", "z"), I_(fermat, "y", "z"), 2)
    assert rf.holds


def test_hk_product_fixtures(F2xy, fermat):
    r = V.verify_hk_product_bound(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"), None)
    assert r.holds and (r.lhs, r.rhs) == (6, 9) and r.data["exact"]
    eq = V.verify_hk_product_bound(I_(F2xy, "x", "y"), I_(F2xy, "x", "y"), None)
    assert eq.holds and eq.lhs == eq.rhs == 3
    surrogate = V.verify_hk_product_bound(I_(fermat, "x", "y", "z"),
                                          I_(fermat, "y", "z"), None, 3)
    assert surrogate.holds and not surrogate.data["exact"]
    assert surrogate.caveat and "q=8" in surrogate.caveat


def test_cor_power_hk_fixtures(F2xy):
    r = V.verify_cor_power_hk(I_(F2xy, "x", "y"), 2, None)
    assert r.holds and r.lhs == r.rhs == 3
    r2 = V.verify_cor_power_hk(I_(F2xy, "x^2", "x*y", "y^2"), 2, None)
    assert r2.holds and (r2.lhs, r2.rhs) == (10, 12)


def test_eqthentc_fixtures(F2xy, fermat):
    eq = V.verify_eqthentc(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x^2", "y^2"), None)
    assert eq.holds and eq.data["equality"] and eq.data["containment"]
    assert eq.lhs == eq.rhs == 12
    strict = V.verify_eqthentc(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"), None)
    assert strict.holds and not strict.data["equality"]
    probe = V.verify_eqthentc(I_(fermat, "x", "y", "z"),
                              I_(fermat, "y", "z"), None, 2)
    assert probe.holds and probe.caveat  # reported, never asserted
    with pytest.raises(ValueError):
        V.verify_eqthentc(I_(F2xy, "x", "y"), I_(F2xy, "x"), None)
    line = Ring(2, ["x"])  # every ideal principal: star spread < 2
    with pytest.raises(V.NotApplicable):
        V.verify_eqthentc(I_(line, "x"), I_(line, "x^2"), None)


def test_eqthentc_off_regular_rings_refuses_e_max_0(fermat):
    # the gap is 1 at q = 1, so e_max = 0 never reached tc_probe's own
    # check: the refusal must not depend on the gap
    I, J = I_(fermat, "x", "y^2", "z"), I_(fermat, "y", "z^2")
    assert V.verify_eqthentc(I, J, None, 1).holds
    with pytest.raises(ValueError, match="e_max"):
        V.verify_eqthentc(I, J, None, 0)


def test_param_lower_fixtures(F2xy, fermat):
    r = V.verify_param_lower_bound(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"))
    assert r.holds and (r.lhs, r.rhs) == (6, 3)
    eq = V.verify_param_lower_bound(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x^2", "y^2"))
    assert eq.holds and eq.data["containment"]
    assert eq.lhs == 12 == eq.data["equality_branch_rhs"]
    sur = V.verify_param_lower_bound(I_(fermat, "x", "y", "z"),
                                     I_(fermat, "y", "z"), 3)
    assert sur.holds and not sur.data["exact"]


def test_square_hk_fixtures(F3xy, fermat):
    r = V.verify_cor_square_hk(I_(F3xy, "x", "y^2"))
    assert r.holds and r.lhs == 6
    per_q = V.verify_cor_square_hk(I_(fermat, "y", "z"), 3)
    assert per_q.holds
    rows = per_q.data["per_q"]
    assert [rows[q]["lhs"] for q in ("1", "2", "4", "8")] == [9, 36, 144, 576]
    assert all(rows[q]["gap_normalized"] == 0 for q in rows)


def test_prop42_fixtures(F2xy, F3xy):
    r = V.verify_prop42(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"), 2)
    assert r.holds and r.data["q0"] == 2
    assert r.data["per_q"]["2"] == {"lhs": 12, "rhs": 12}
    assert r.data["per_q"]["4"] == {"lhs": 24, "rhs": 24}
    r3 = V.verify_prop42(I_(F3xy, "x^2", "y^2"), I_(F3xy, "x", "y"), 2)
    assert r3.holds and r3.data["q0"] == 3
    assert r3.data["per_q"]["3"]["lhs"] == 17
    inconclusive = V.verify_prop42(I_(F2xy, "x^8", "y^8"), I_(F2xy, "x", "y"), 1)
    assert inconclusive.holds and "inconclusive" in inconclusive.caveat


def test_huneke_yao_fixtures(F2xy, fermat):
    r = V.verify_huneke_yao_per_q(I_(fermat, "x^2", "y", "z"), 1)
    assert r.holds and r.data["per_q"]["2"] == {"lhs": 12, "rhs": 16}
    eq = V.verify_huneke_yao_per_q(I_(F2xy, "x^2", "y^2"), 1)
    assert eq.holds and eq.data["per_q"]["2"] == {"lhs": 16, "rhs": 16}
    with pytest.raises(ValueError, match="e_max"):  # no q > 1 to check
        V.verify_huneke_yao_per_q(I_(F2xy, "x^2", "y^2"), 0)


def test_report_json_lines_are_canonical(F2xy):
    r = V.verify_prop_ineq(I_(F2xy, "x^2", "y^2"), I_(F2xy, "x", "y"))
    line = r.to_json_line()
    obj = json.loads(line)
    assert obj["schema"] == 1 and obj["checker"] == "prop-ineq"
    assert obj["holds"] is True
    assert line == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert len(r.csv_row()) == len(V.CSV_HEADER)


def test_fraction_serialization(fermat):
    r = V.verify_hk_product_bound(Ideal(fermat, ["x", "y", "z"]),
                                  Ideal(fermat, ["y", "z"]), None, 2)
    obj = json.loads(r.to_json_line())
    num, den = obj["lhs"].split("/")
    assert int(num) > 0 and int(den) > 0


def test_run_trials_every_checker(F2xy):
    for check in V.CHECK_NAMES:
        reports = V.run_trials(check, F2xy, 8, seed=123, e_max=1)
        assert reports, check
        assert all(r.holds for r in reports), check


def test_run_trials_deterministic(F3xy):
    a = V.run_trials("eqconds", F3xy, 12, seed=7)
    b = V.run_trials("eqconds", F3xy, 12, seed=7)
    assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]
    c = V.run_trials("eqconds", F3xy, 12, seed=8)
    assert [r.to_json_line() for r in a] != [r.to_json_line() for r in c]


def test_run_trials_on_quotient(fermat):
    for check in ("len-identity", "huneke-yao", "hk-product", "param-lower"):
        reports = V.run_trials(check, fermat, 4, seed=5, e_max=2)
        assert reports and all(r.holds for r in reports), check


def test_run_trials_unknown_check(F2xy):
    # the one unknown-check error, shared with the CLI through check_spec
    with pytest.raises(ValueError, match=re.escape(
            f"unknown check 'bogus'; choose from {', '.join(V.CHECK_NAMES)}")):
        V.run_trials("bogus", F2xy, 1, seed=0)


# sha256 prefixes of the joined JSON lines of run_trials(check, ring, 8,
# seed=21, e_max=1).  Eight trials reach every branch of the draws (t % 2,
# t % 4 == 3); on F2xy one freeness trial has no trimmable minimal
# generating sequence and is skipped.
TRIAL_STREAMS = {
    "F2xy": {
        "len-identity": "a9f17c359050a8f2",
        "prop-ineq": "1dff2cb102a12aa8",
        "cor-power": "f2befbb50cb69532",
        "eqconds": "e334bba028871258",
        "freeness": "d02c90dfada01716",
        "square": "0756722b7abfd0e3",
        "eq7": "30be9b8b255036dd",
        "hk-product": "30d3069d27b09da2",
        "cor-power-hk": "edda00115e8573d0",
        "eqthentc": "69f84365a3680db9",
        "param-lower": "ff543030c4416b02",
        "square-hk": "4b65412d93ef75b2",
        "prop42": "893bd340011ebd07",
        "huneke-yao": "1ea33a358799ce79",
    },
    "F3xyz": {
        "len-identity": "a1134918da2bfc61",
        "prop-ineq": "e2c650672b2f5b30",
        "cor-power": "4f1befb415f57536",
        "eqconds": "9a39339e9dd91139",
        "freeness": "f4c6690020ad1c56",
        "square": "32bbf76f63b1877f",
        "eq7": "01eeddbc676de776",
        "hk-product": "477323337be59884",
        "cor-power-hk": "723501b77b7d2de6",
        "eqthentc": "bb4baf8c5b858a9d",
        "param-lower": "eb75cf8ac12c0d19",
        "square-hk": "48728056e3f3302e",
        "prop42": "e34dbe62846451f7",
        "huneke-yao": "0f824bea78db6062",
    },
    "fermat": {
        "len-identity": "2ba785f3a9724a8f",
        "prop-ineq": "33970f185fae1c44",
        "cor-power": "cd8dd153a52b074d",
        "eqconds": "f16fb8d5362d293f",
        "freeness": "34ed2a1ebd6adca6",
        "square": "05924c0c1d86fd26",
        "eq7": "3e357291f1631044",
        "hk-product": "f8ea27b9e9776fda",
        "cor-power-hk": "b4a6d71b10085b69",
        "eqthentc": "c6f4e14b19ad08d7",
        "param-lower": "3cda4e5ce8c8d157",
        "square-hk": "887b2507183c83d0",
        "prop42": "8b3772c78e228f5b",
        "huneke-yao": "fae0699dea2cbd8d",
    },
}


@pytest.mark.parametrize("ring_name", sorted(TRIAL_STREAMS))
def test_run_trials_golden_stream(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    for check, expected in TRIAL_STREAMS[ring_name].items():
        reports = V.run_trials(check, ring, 8, seed=21, e_max=1)
        text = "\n".join(r.to_json_line() for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, check
    if ring_name == "F2xy":
        assert len(V.run_trials("freeness", ring, 8, seed=21, e_max=1)) == 7


def test_run_trials_skips_inapplicable_fixtures():
    # every ideal of F_2[x] is principal: mu < 2 and star spread < 2
    line = Ring(2, ["x"])
    assert V.run_trials("eqconds", line, 8, seed=21, e_max=1) == []
    assert V.run_trials("eqthentc", line, 8, seed=21, e_max=1) == []


def test_table_looks_verifiers_up_at_call_time(F2xy, tmp_path, monkeypatch, capsys):
    # The benchmark tracer counts reports by rebinding these module
    # attributes; a table holding the function objects would miss them.
    names = [n for n in dir(V) if n.startswith("verify_")]
    assert len(names) == len(V.CHECK_NAMES) == 14
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(V, name, counting(name, getattr(V, name)))
    for check in V.CHECK_NAMES:
        V.run_trials(check, F2xy, 1, seed=0)
    assert all(calls.values()), calls

    path = tmp_path / "r.hk"
    path.write_text("ring: p=2 vars=x,y\nideal m = [x, y]\nideal sq = [x^2, y^2]\n")
    calls.update(dict.fromkeys(names, 0))
    for check, spec in V.CHECKS.items():
        argv = ["verify", str(path), check]
        for ideal in ["m", "sq"][-spec.arity:]:
            argv += ["--ideal", ideal]
        assert main(argv) == 0, check
    capsys.readouterr()
    assert all(calls.values()), calls


def test_table_options_match_the_verifier_signatures():
    # a row's options are exactly the verifier's parameters after its ideals
    for check, spec in V.CHECKS.items():
        params = list(inspect.signature(getattr(V, spec.verifier)).parameters)
        assert tuple(params[spec.arity:]) == spec.options, check


# the CLI flag of each option a CheckSpec names
FLAGS = {"e_max": "--qmax", "n": "-n", "mode": "--mode"}


def test_readme_checks_table_matches_the_check_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([IJ ]+) \|([^|]*)\|", readme, re.M)
    assert [name for name, _, _ in rows] == list(V.CHECK_NAMES)
    for name, ideals, options in rows:
        spec = V.CHECKS[name]
        assert len(ideals.split()) == spec.arity, name
        assert re.findall(r"`([^`]+)`", options) == [FLAGS[o] for o in spec.options], name
