"""Session file parsing, serialization round trips, error reporting."""

import re

import pytest

from hkprod import Session, load_session, parse_session
from hkprod.sessions import SessionError

EXAMPLE = """\
# a hypersurface session
ring: p=2 vars=x,y,z mod=[x^3+y^3+z^3] order=grevlex

ideal J = [y, z]
ideal m = [x, y, z]  # trailing comment
"""


def test_parse_example():
    sess = parse_session(EXAMPLE)
    assert sess.ring.p == 2 and sess.ring.variables == ("x", "y", "z")
    assert len(sess.ring.relations) == 1
    assert [str(g) for g in sess.ideal("J").gens] == ["y", "z"]
    assert sess.ideal("J").colength() == 3


def test_parse_regular_ring_without_mod():
    sess = parse_session("ring: p=5 vars=x,y\nideal I = [x^2 - y, y^2]\n")
    assert sess.ring.is_regular
    assert sess.ideal("I").colength() == 4


def test_parse_bracketed_generators_with_commas_inside_parens():
    sess = parse_session("ring: p=2 vars=x,y\nideal I = [(x+y)^2, y^2]\n")
    assert [str(g) for g in sess.ideal("I").gens] == ["x^2 + y^2", "y^2"]


def test_parse_mod_with_blanks_inside_brackets():
    sess = parse_session("ring: p=3 vars=x,y mod=[x^2 + y^2, x*y] order=lex\n")
    assert [str(r) for r in sess.ring.relations] == ["x^2 + y^2", "x*y"]
    assert sess.ring.order.kind == "lex"


def serialize(sess: Session) -> str:
    """Session text that parse_session reads back to the same session."""
    ring = sess.ring
    parts = [f"p={ring.p}", "vars=" + ",".join(ring.variables)]
    if ring.relations:
        parts.append("mod=[" + ", ".join(str(r) for r in ring.relations) + "]")
    parts.append(f"order={ring.order.kind}")
    lines = ["ring: " + " ".join(parts)]
    for name, ideal in sess.ideals.items():
        lines.append(f"ideal {name} = [" + ", ".join(str(g) for g in ideal.gens) + "]")
    return "\n".join(lines) + "\n"


def test_serialize_round_trip():
    sess = parse_session(EXAMPLE)
    again = parse_session(serialize(sess))
    assert again.ring.same_as(sess.ring)
    assert set(again.ideals) == set(sess.ideals)
    for name in sess.ideals:
        assert again.ideal(name).equals(sess.ideal(name))


def test_missing_ideal_name():
    sess = parse_session(EXAMPLE)
    with pytest.raises(SessionError):
        sess.ideal("K")


@pytest.mark.parametrize("text", [
    "ideal I = [x]\n",                           # no ring block
    "ring: vars=x,y\n",                          # missing p
    "ring: p=2 vars=x,y\nring: p=3 vars=x\n",    # duplicate ring
    "ring: p=2 vars=x,y\nideal I [x]\n",         # missing '='
    "ring: p=2 vars=x,y\nideal I = x, y\n",      # not a bracket list
    "ring: p=2 vars=x,y\nideal 2bad = [x]\n",    # bad name
    "ring: p=2 vars=x,y\nideal I = [x]\nideal I = [y]\n",  # duplicate
    "ring: p=2 vars=x,y\nwhat is this\n",        # unrecognized line
    "ring: p=2 vars=x,y,z mdo=[x^3+y^3+z^3]\n",  # unknown ring field
    "ring: p=2 vars=x,y mod=[x^2] mod=[y^2]\n",  # repeated ring field
    "ring: p=2 vars=x,y mod=[x^3\n",             # unclosed bracket
    "ring: p=2 vars=x,y mod=[x]]\n",             # stray bracket
    "ring: p=abc vars=x,y\n",                    # p not an integer
    "ring: p=2 vars=x,y mod=[x^2+y]\n",          # relation not homogeneous
])
def test_malformed_sessions(text):
    with pytest.raises(SessionError):
        parse_session(text)


@pytest.mark.parametrize("field", ["mod=[x^3", "mod=[x]]", "mod=[x]y", "x,y"])
def test_bad_ring_field_is_named(field):
    # the field itself is rejected, before its value reaches the ring
    with pytest.raises(SessionError, match=re.escape(f"bad ring field {field!r}")):
        parse_session(f"ring: p=2 vars=x,y {field}\n")


def test_load_session(tmp_path):
    path = tmp_path / "s.hk"
    path.write_text(EXAMPLE)
    sess = load_session(str(path))
    assert isinstance(sess, Session) and "J" in sess.ideals
