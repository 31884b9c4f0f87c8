"""CLI behavior: output formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hkprod.cli
from hkprod import verify as V
from hkprod.cli import main
from hkprod.sessions import load_session

REGULAR = "ring: p=2 vars=x,y\nideal I = [x^2, y^3]\nideal L = [x]\nideal m = [x, y]\nideal sq = [x^2, y^2]\n"
FERMAT = "ring: p=2 vars=x,y,z mod=[x^3+y^3+z^3]\nideal J = [y, z]\nideal m = [x, y, z]\n"


# subprocesses import the same hkprod as this process, installed or not
SUBPROCESS_ENV = dict(os.environ,
                      PYTHONPATH=os.path.dirname(os.path.dirname(hkprod.__file__)))


@pytest.fixture
def regular_file(tmp_path):
    path = tmp_path / "regular.hk"
    path.write_text(REGULAR)
    return str(path)


@pytest.fixture
def fermat_file(tmp_path):
    path = tmp_path / "fermat.hk"
    path.write_text(FERMAT)
    return str(path)


def test_colength_prints_value(regular_file, capsys):
    assert main(["colength", regular_file, "I"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_colength_infinite(regular_file, capsys):
    assert main(["colength", regular_file, "L"]) == 0
    assert capsys.readouterr().out.strip() == "infinite"


def test_missing_ideal_is_usage_error(regular_file, capsys):
    assert main(["colength", regular_file, "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["colength", "/no/such/file.hk", "I"]) == 2


def test_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["colength", str(tmp_path), "I"]) == 2  # a directory
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_internal_error_exit_3(regular_file, capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("broken loader")

    monkeypatch.setattr("hkprod.cli.load_session", broken)
    assert main(["colength", regular_file, "I"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError" in captured.err


def test_hk_table_human(fermat_file, capsys):
    assert main(["hk", fermat_file, "J", "--qmax", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["q", "colength", "normalized"]
    assert [ln.split() for ln in lines[1:5]] == [
        ["1", "3", "3"], ["2", "12", "3"], ["4", "48", "3"], ["8", "192", "3"]]
    assert "not asserted as the limit" in lines[-1]


def test_hk_table_qmax_zero(regular_file, capsys):
    assert main(["hk", regular_file, "m", "--qmax", "0"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for ln in out.splitlines() if ln.strip().startswith("1 ")) == 1


def test_hk_table_json(fermat_file, capsys):
    assert main(["hk", fermat_file, "J", "--qmax", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == 1 and obj["d"] == 2
    assert [r["colength"] for r in obj["rows"]] == [3, 12, 48]
    assert obj["estimate"]["is_limit"] is False


def test_hk_table_csv(regular_file, capsys):
    assert main(["hk", regular_file, "I", "--qmax", "1", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,colength,normalized_num,normalized_den"
    assert lines[1] == "1,6,6,1" and lines[2] == "2,24,6,1"
    assert lines[-1] == "# estimate,6/1,exact-monomial-volume,limit"  # n/d, whole too


def test_hk_infinite_colength_exit_2(regular_file, capsys):
    assert main(["hk", regular_file, "L"]) == 2


def test_hk_large_q_is_exact(tmp_path, capsys):
    path = tmp_path / "k.hk"
    path.write_text("ring: p=2 vars=x,y,z\nideal K = [x^2+y, y^2+z, z^2+x]\n")
    assert main(["hk", str(path), "K", "--qmax", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split() for ln in lines[1:-1]] == [
        [str(2 ** e), str(8 * 2 ** (3 * e)), "8"] for e in range(10)]
    assert lines[-2].split()[1] == "1073741824"
    assert lines[-1] == "estimate: 8 [exact-regular; exact limit]"


def test_hk_json_row_at_q_2_to_the_30(regular_file, capsys):
    # lambda(R/I^[q]) = q^2 * 6 by Kunz's theorem, far past any staircase
    assert main(["hk", regular_file, "I", "--qmax", "30", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][-1]
    assert (row["q"], row["colength"]) == (2 ** 30, 6 * 4 ** 30)


def test_hk_unit_ideal_has_colength_zero(tmp_path, capsys):
    path = tmp_path / "u.hk"
    path.write_text("ring: p=2 vars=x,y\nideal U = [1, x]\n")
    assert main(["hk", str(path), "U", "--qmax", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split() for ln in lines[1:-1]] == [["1", "0", "0"], ["2", "0", "0"],
                                                  ["4", "0", "0"]]
    assert lines[-1] == "estimate: 0 [exact-monomial-volume; exact limit]"


@pytest.mark.parametrize("argv", [  # each argv ends with the flag given -1
    ["hk", "fermat", "J", "--qmax"],  # raised IndexError in the sequence estimate
    ["hk", "regular", "m", "--qmax"],  # printed an empty table
    ["verify", "regular", "len-identity", "--trials", "2", "--qmax"],  # printed no report
    ["verify", "regular", "len-identity", "--trials"],  # printed no report
])
def test_negative_qmax_is_usage_error(argv, regular_file, fermat_file, capsys):
    files = {"fermat": fermat_file, "regular": regular_file}
    with pytest.raises(SystemExit) as exc:
        main([argv[0], files[argv[1]], *argv[2:], "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and argv[-1] in err


def test_verify_named_fixture_exit_0(regular_file, capsys):
    rc = main(["verify", regular_file, "len-identity",
               "--ideal", "sq", "--ideal", "m", "--qmax", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["holds"] and obj["checker"] == "len-identity"


def test_verify_random_trials_exit_0(regular_file, capsys):
    assert main(["verify", regular_file, "prop-ineq",
                 "--trials", "10", "--seed", "3"]) == 0
    assert all(json.loads(ln)["holds"]
               for ln in capsys.readouterr().out.strip().splitlines())


def test_verify_csv_summary(regular_file, capsys):
    assert main(["verify", regular_file, "cor-power", "--trials", "5",
                 "--seed", "1", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "checker,fixture,lhs,rhs,relation,holds,q"
    assert len(lines) == 6


def test_verify_csv_fraction_sides(tmp_path, capsys):
    # every other CSV test runs on a polynomial ring, where sides are integers
    path = tmp_path / "fermat.hk"
    path.write_text(FERMAT + "ideal I = [x^2, y, z^2]\n")
    argv = ["verify", str(path), "hk-product", "--ideal", "I", "--ideal", "m"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["lhs"], obj["rhs"]) == ("19/2", "12/1")
    assert main(argv + ["--csv"]) == 0
    row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(row) == 1 and (row[0]["lhs"], row[0]["rhs"]) == ("19/2", "12/1")


def test_csv_stdout_ends_every_line_with_a_bare_newline(regular_file, capsys):
    # the table rows and the estimate line that hk prints after them share
    # one line ending, as do verify's header and rows
    for argv in (["hk", regular_file, "I", "--qmax", "1", "--csv"],
                 ["verify", regular_file, "cor-power", "--trials", "2", "--seed", "1",
                  "--csv"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "\r" not in out and out.endswith("\n"), argv


def test_verify_unknown_check_exit_2(regular_file, capsys):
    assert main(["verify", regular_file, "no-such-check"]) == 2


def test_verify_unknown_check_reports_one_error_line(regular_file, capsys):
    assert main(["verify", regular_file, "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown check 'bogus'; choose from {', '.join(V.CHECK_NAMES)}\n"


def test_hk_inapplicable_method_fails_before_the_table(regular_file, monkeypatch, capsys):
    # on a polynomial ring e_HK(I) = lambda(R/I) exactly: no fit applies
    def no_table(*args, **kwargs):
        raise AssertionError("hk_table called")
    monkeypatch.setattr(hkprod.cli, "hk_table", no_table)
    assert main(["hk", regular_file, "I", "--qmax", "3",
                 "--method", "sequence-extrapolated"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sequence-extrapolated needs a ring with relations\n"


def test_hk_extrapolated_estimate_off_polynomial_rings(fermat_file, capsys):
    assert main(["hk", fermat_file, "m", "--qmax", "3",
                 "--method", "sequence-extrapolated"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "estimate: 9/4 [sequence-extrapolated; finite-q value, not asserted as the limit]")


def test_hk_of_the_zero_ideal_is_infinite_colength(tmp_path, capsys):
    # auto took an ideal without generators for a monomial one and failed
    # inside the volume with "monomial ideal is not m-primary"
    path = tmp_path / "zero.hk"
    path.write_text("ring: p=2 vars=x,y\nideal Z = []\n")
    assert main(["hk", str(path), "Z"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ideal (0) has infinite colength\n"


def test_hk_unknown_method_fails_before_any_work(regular_file, monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("hk_table called")
    monkeypatch.setattr(hkprod.cli, "hk_table", no_table)
    with pytest.raises(SystemExit) as exc:
        main(["hk", regular_file, "I", "--method", "exact-regluar"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'exact-regluar'" in err


@pytest.mark.parametrize("argv", [
    ["colength", "I"],  # answered 0 on F_2[]
    ["verify", "len-identity", "--trials", "1"],  # failed inside randrange
])
def test_ring_without_variables_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "empty.hk"
    path.write_text("ring: p=2 vars=\nideal I = [1]\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a ring needs at least one variable\n"


def test_ungraded_ring_is_usage_error(tmp_path, capsys):
    # over F_2 this ring is a line through the origin plus a plane that
    # misses it; hk on m printed a table normalized by q^2, where e_HK = 1
    path = tmp_path / "ungraded.hk"
    path.write_text("ring: p=2 vars=x,y,z mod=[x*y+y, x*z+z]\nideal m = [x, y, z]\n")
    assert main(["hk", str(path), "m"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: relation x*y + y is not homogeneous "
                                 "of positive degree\n")


def test_variable_name_that_text_cannot_spell_is_usage_error(tmp_path, capsys):
    # no polynomial text can name 2y, so only the unit ideal of such a
    # ring has finite colength: colength of [x] printed "infinite", exit 0
    path = tmp_path / "digit.hk"
    path.write_text("ring: p=2 vars=x,2y\nideal I = [x]\n")
    assert main(["colength", str(path), "I"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: variable name '2y' is not a single "
                                 "name token of polynomial text\n")


def test_verify_integer_star_spread_mode(fermat_file, capsys):
    assert main(["verify", fermat_file, "hk-product", "--ideal", "m",
                 "--ideal", "J", "--qmax", "2", "--mode", "3"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    obj = json.loads(line)
    assert obj["data"]["star_spread"] == 3 and obj["holds"] is True
    assert (obj["lhs"], obj["rhs"]) == ("15/2", "39/4")


def test_prop_ineq_of_m_times_m_on_the_fermat_cubic(fermat_file, capsys):
    # m*m from the packed bases: lambda(R/m^2) = 1 + 3 on the cubic
    assert main(["verify", fermat_file, "prop-ineq", "--ideal", "m", "--ideal", "m"]) == 0
    assert json.loads(capsys.readouterr().out)["lhs"] == 4


def test_len_identity_rhs_is_the_product_term_of_eq7(fermat_file, capsys):
    # one len-identity report per level, whose rhs eq7 reads as rhs_product
    argv = ["--ideal", "m", "--ideal", "J", "--qmax", "2"]
    assert main(["verify", fermat_file, "len-identity", *argv]) == 0
    rhs = [json.loads(line)["rhs"] for line in capsys.readouterr().out.splitlines()]
    assert main(["verify", fermat_file, "eq7", *argv]) == 0
    per_q = json.loads(capsys.readouterr().out)["data"]["per_q"]
    assert rhs == [5, 28, 120] == [per_q[q]["rhs_product"] for q in ("1", "2", "4")]


POLY_SQUARE = "ring: p=2 vars=x,y\nideal m = [x, y]\nideal J = [x^2, x*y, y^2]\n"


@pytest.mark.parametrize("mode", ["parameter", "2"])
def test_verify_no_star_spread_mode_on_polynomial_rings(mode, tmp_path, capsys):
    # l*(J) = mu(J) = 3 here; spread 2 printed holds:false (lhs 6 > rhs 5)
    # and exited 1 on a true bound
    path = tmp_path / "square.hk"
    path.write_text(POLY_SQUARE)
    argv = ["verify", str(path), "hk-product", "--ideal", "m", "--ideal", "J"]
    assert main(argv + ["--mode", mode]) == 2
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is True and obj["data"]["star_spread"] == 3
    assert (obj["lhs"], obj["rhs"]) == (6, 6)


def test_hk_sequence_method_on_polynomial_rings_is_usage_error(tmp_path, capsys):
    # printed Kunz's exact 4 as "finite-q value, not asserted as the limit"
    path = tmp_path / "square.hk"
    path.write_text(POLY_SQUARE + "ideal I = [x^2, x*y, y^3]\n")
    with pytest.raises(SystemExit) as exc:
        main(["hk", str(path), "I", "--method", "sequence-last"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_bad_star_spread_mode_exit_2(regular_file, capsys):
    assert main(["verify", regular_file, "hk-product", "--ideal", "m",
                 "--ideal", "sq", "--mode", "foo"]) == 2
    assert "star-spread mode" in capsys.readouterr().err


def test_verify_trials_without_m_primary_ideals_exit_2(tmp_path, capsys):
    # over F_2[x,y]/(xy) the trial families keep drawing ideals of
    # infinite colength
    path = tmp_path / "axes.hk"
    path.write_text("ring: p=2 vars=x,y mod=[x*y]\n")
    assert main(["verify", str(path), "hk-product", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("ring_line", ["ring: p=2 vars=x,y,z mod=[x^2]",
                                       "ring: p=2 vars=a,b,c mod=[a*c - b^2]"])
def test_verify_square_trials_off_the_first_variables_exit_0(ring_line, tmp_path, capsys):
    # d = 2, but the first two variables are no parameters on either ring
    path = tmp_path / "ring.hk"
    path.write_text(ring_line + "\n")
    assert main(["verify", str(path), "square", "--trials", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# check -> (--ideal names on REGULAR, the verifier calls on those ideals
# with the CLI defaults --qmax 1, -n 2 and the ring's star spread)
NAMED = {
    "len-identity": (("m", "sq"), lambda I, J: V.verify_len_identity(I, J, 1)),
    "prop-ineq": (("m", "sq"), lambda I, J: [V.verify_prop_ineq(I, J)]),
    "cor-power": (("sq",), lambda I: [V.verify_cor_power(I, 2)]),
    "eqconds": (("m", "sq"), lambda I, J: [V.verify_eqconds(I, J)]),
    "freeness": (("sq", "m"), lambda J, I: [V.verify_freeness(J, I)]),
    "square": (("sq",), lambda J: [V.verify_cor_square(J)]),
    "eq7": (("m", "sq"), lambda I, J: [V.verify_eq7_per_q(I, J, 1)]),
    "hk-product": (("m", "sq"),
                   lambda I, J: [V.verify_hk_product_bound(I, J, None, 1)]),
    "cor-power-hk": (("sq",), lambda I: [V.verify_cor_power_hk(I, 2, None, 1)]),
    "eqthentc": (("m", "sq"), lambda I, J: [V.verify_eqthentc(I, J, None, 1)]),
    "param-lower": (("m", "sq"), lambda I, J: [V.verify_param_lower_bound(I, J, 1)]),
    "square-hk": (("sq",), lambda J: [V.verify_cor_square_hk(J, 1)]),
    "prop42": (("m", "sq"), lambda I, J: [V.verify_prop42(I, J, 1)]),
    "huneke-yao": (("sq",), lambda I: [V.verify_huneke_yao_per_q(I, 1)]),
}


def test_named_table_covers_every_check():
    assert sorted(NAMED) == sorted(V.CHECK_NAMES)


@pytest.mark.parametrize("check", sorted(NAMED))
def test_verify_named_matches_direct_verifier(check, regular_file, capsys):
    names, direct = NAMED[check]
    argv = ["verify", regular_file, check]
    for name in names:
        argv += ["--ideal", name]
    assert main(argv) == 0
    sess = load_session(regular_file)
    expected = "".join(r.to_json_line() + "\n"
                       for r in direct(*(sess.ideal(n) for n in names)))
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("check", sorted(NAMED))
def test_verify_wrong_ideal_count_exit_2(check, regular_file, capsys):
    names = ["m"] if len(NAMED[check][0]) == 2 else ["m", "sq"]
    argv = ["verify", regular_file, check]
    for name in names:
        argv += ["--ideal", name]
    assert main(argv) == 2
    assert "--ideal" in capsys.readouterr().err


def test_verify_named_outside_hypotheses_exit_2(tmp_path, capsys):
    # every ideal of F_2[x] is principal, so eqconds does not apply
    path = tmp_path / "line.hk"
    path.write_text("ring: p=2 vars=x\nideal I = [x]\nideal J = [x^2]\n")
    assert main(["verify", str(path), "eqconds", "--ideal", "I", "--ideal", "J"]) == 2
    assert "non-principal" in capsys.readouterr().err


def test_verify_prop42_needs_a_parameter_ideal_exit_2(tmp_path, capsys):
    # neither J is a parameter ideal: (x) is not m-primary, and the
    # m-primary (x^2, x*y, y^2) needs three generators in dimension 2
    path = tmp_path / "nonparam.hk"
    path.write_text("ring: p=2 vars=x,y\nideal m = [x, y]\n"
                    "ideal L = [x]\nideal N = [x^2, x*y, y^2]\n")
    for J in ("L", "N"):
        assert main(["verify", str(path), "prop42", "--ideal", "m", "--ideal", J]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: needs a parameter ideal\n"


def test_verify_parameter_trials_on_a_zero_dimensional_ring_exit_2(tmp_path, capsys):
    # dim R = 0: the only parameter sequence is empty, so none is drawn
    path = tmp_path / "artinian.hk"
    path.write_text("ring: p=2 vars=x mod=[x^2]\n")
    assert main(["verify", str(path), "prop42", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: parameter-powers needs dim R >= 1, but dim R = 0 in F_2[x]/(x^2)\n"


def test_verify_untrimmable_generators_exit_2(tmp_path, capsys):
    # greedy trimming cannot bring J down to mu(J) = 2 generators
    path = tmp_path / "untrim.hk"
    path.write_text("ring: p=2 vars=x,y\n"
                    "ideal J = [y^3+x*y+x+y, x^2*y+x*y+y^2+y, x^2*y+x*y^2]\n"
                    "ideal I = [x^2, y^2]\n")
    assert main(["verify", str(path), "freeness", "--ideal", "J", "--ideal", "I"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_huneke_yao_qmax_zero_exit_2(regular_file, capsys):
    # at q = 1 alone there is nothing to check: this printed holds: true
    assert main(["verify", regular_file, "huneke-yao", "--qmax", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "e_max at least 1" in err


def test_verify_deterministic_output(regular_file, capsys):
    args = ["verify", regular_file, "eqconds", "--trials", "15", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_probe_consistent(fermat_file, capsys):
    assert main(["probe", fermat_file, "-z", "x^2", "-i", "J",
                 "-c", "x^2", "--qmax", "3"]) == 0
    assert capsys.readouterr().out.strip() == "ConsistentUpTo(8)"


def test_probe_refuted(regular_file, capsys):
    assert main(["probe", regular_file, "-z", "x", "-i", "sq", "-c", "1"]) == 0
    assert capsys.readouterr().out.strip().startswith("RefutedAt(2)")


DENSE = "ring: p=2 vars=x,y,z\nideal D = [x^2+y*z, y^2+x*z, z^3+x*y]\n"


@pytest.mark.parametrize("c, verdict", [
    ("y^16+x^8", "ConsistentUpTo(8)"),
    ("y^4+x^2", "RefutedAt(4): normal form y^4*z^8 + x^6*y^4"),
])
def test_probe_on_a_dense_polynomial_ideal(tmp_path, capsys, c, verdict):
    # x*y is not in D; c lies in (D : x*y)^[q] for q = 2, 4, 8 in the first
    # case, and for q = 2 only in the second
    path = tmp_path / "dense.hk"
    path.write_text(DENSE)
    assert main(["probe", str(path), "-z", "x*y", "-i", "D", "-c", c, "--qmax", "3"]) == 0
    assert capsys.readouterr().out == verdict + "\n"


@pytest.mark.parametrize("check", ["cor-power", "cor-power-hk"])
def test_power_check_below_one_exit_2(regular_file, capsys, check):
    assert main(["verify", regular_file, check, "-n", "0", "--ideal", "I"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_probe_bad_polynomial_exit_2(regular_file, capsys):
    assert main(["probe", regular_file, "-z", "w^2", "-i", "sq", "-c", "1"]) == 2


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def _call_at_depth(depth, call):
    """call() from depth frames down the stack."""
    return call() if _stack_depth() >= depth else _call_at_depth(depth, call)


def test_any_nesting_depth_parses(tmp_path, capsys):
    # the parser keeps open parentheses on a list, not on the call stack
    for depth in (200, 300, 5000):
        path = tmp_path / f"nested{depth}.hk"
        path.write_text(f"ring: p=2 vars=x,y\nideal I = [{'(' * depth}x{')' * depth}, y]\n")
        assert main(["colength", str(path), "I"]) == 0
        assert capsys.readouterr().out == "1\n"
    ring = load_session(str(tmp_path / "nested200.hk")).ring
    text = "(" * 500 + "x" + ")" * 500
    assert _call_at_depth(900, lambda: ring.poly(text)) == ring.var("x")


def test_module_entry_point(regular_file):
    proc = subprocess.run([sys.executable, "-m", "hkprod.cli",
                           "colength", regular_file, "I"],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "6"


def test_cli_import_needs_no_numpy():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, hkprod.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_successive_calls_share_no_parser_state(regular_file, capsys):
    # one parser serves every call in a process
    assert main(["verify", regular_file, "len-identity",
                 "--ideal", "sq", "--ideal", "m", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("checker,")
    # without --ideal: random trials, as JSON lines
    assert main(["verify", regular_file, "len-identity", "--trials", "2"]) == 0
    ring = load_session(regular_file).ring
    expected = "".join(r.to_json_line() + "\n" for r in
                       V.run_trials("len-identity", ring, 2, 0, e_max=1, n=2, mode=None))
    assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as exc:
        main(["verify", regular_file, "len-identity", "--qmax", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["colength", regular_file, "I"]) == 0
    assert capsys.readouterr() == ("6\n", "")


def test_parser_is_built_once_per_process(regular_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(5):
        assert main(["colength", regular_file, "I"]) == 0
    # none when an earlier test in this process built it
    assert built.count("hkprod") <= 1
    assert capsys.readouterr().out == "6\n" * 5


def test_cli_import_builds_no_parser():
    code = ("import argparse\n"
            "init = argparse.ArgumentParser.__init__\n"
            "built = []\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import hkprod.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_lines_do_what_their_comments_say(tmp_path, monkeypatch, capsys):
    # each hkprod line of README's CLI block runs on its fermat.hk block:
    # "prints X" means exit 0 with X on stdout, "exits N" exit N, and a
    # line that states neither exits 0
    blocks = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(), re.M | re.S)
    session = next(body for kind, body in blocks
                   if kind == "text" and body.startswith("# fermat.hk\n"))
    commands = next(body for kind, body in blocks
                    if kind == "sh" and body.startswith("hkprod "))
    (tmp_path / "fermat.hk").write_text(session)
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "hkprod", line
        try:
            rc = main(argv[1:])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        out = capsys.readouterr().out
        exits = re.search(r"exits (\d)", comment)
        assert rc == (int(exits[1]) if exits else 0), line
        printed = re.search(r"prints (\S+)", comment)
        if printed:
            assert out.strip() == printed[1], line
