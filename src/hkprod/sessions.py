"""Line-oriented session files: one ring block, named ideal blocks.

    # comments and blank lines are ignored
    ring: p=2 vars=x,y,z mod=[x^3+y^3+z^3] order=grevlex
    ideal J = [y, z]
    ideal m = [x, y, z]
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ideals import Ideal
from .rings import Ring


class SessionError(ValueError):
    """Malformed session file."""


@dataclass
class Session:
    ring: Ring
    ideals: dict  # name -> Ideal

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise SessionError(f"no ideal named {name!r} "
                               f"(have: {', '.join(self.ideals) or 'none'})")
        return self.ideals[name]


def _split_bracket_list(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SessionError(f"expected a [...] list, got {text!r}")
    # polynomial text has no commas, so every comma separates two items
    return [p.strip() for p in text[1:-1].split(",") if p.strip()]


RING_FIELDS = ("p", "vars", "mod", "order")
# name=value, where a [...] value may hold blanks; any other run of
# non-blanks is a bad field
_RING_FIELD = re.compile(r"(\w+)=(\[[^\[\]]*\]|[^\s\[\]]*)(?!\S)|\S+")


def _parse_ring_line(body: str) -> Ring:
    kv = {}
    for f in _RING_FIELD.finditer(body):
        k, v = f.groups()
        if k is None:
            raise SessionError(f"bad ring field {f[0]!r}")
        if k not in RING_FIELDS:
            raise SessionError(f"unknown ring field {k!r} "
                               f"(known: {', '.join(RING_FIELDS)})")
        if k in kv:
            raise SessionError(f"repeated ring field {k!r}")
        kv[k] = v
    if "p" not in kv or "vars" not in kv:
        raise SessionError("ring line needs p= and vars=")
    if not kv["p"].isdecimal():
        raise SessionError(f"ring field p={kv['p']} is not a positive integer")
    relations = _split_bracket_list(kv["mod"]) if "mod" in kv else []
    try:
        return Ring(int(kv["p"]), [v for v in kv["vars"].split(",") if v],
                    relations=relations, order=kv.get("order", "grevlex"))
    except ValueError as exc:  # a bad prime, variable or relation
        raise SessionError(str(exc)) from None


def parse_session(text: str) -> Session:
    ring = None
    pending: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring:"):
            if ring is not None:
                raise SessionError(f"line {lineno}: second ring block")
            ring = _parse_ring_line(line[len("ring:"):])
        elif line.startswith("ideal "):
            body = line[len("ideal "):]
            if "=" not in body:
                raise SessionError(f"line {lineno}: ideal needs '='")
            name, gens = body.split("=", 1)
            pending.append((name.strip(), gens.strip()))
        else:
            raise SessionError(f"line {lineno}: unrecognized line {line!r}")
    if ring is None:
        raise SessionError("no ring block")
    ideals = {}
    for name, gens in pending:
        if not name or not name.isidentifier():
            raise SessionError(f"bad ideal name {name!r}")
        if name in ideals:
            raise SessionError(f"duplicate ideal name {name!r}")
        ideals[name] = Ideal(ring, _split_bracket_list(gens))
    return Session(ring=ring, ideals=ideals)


def load_session(path: str) -> Session:
    with open(path, encoding="utf-8") as fh:
        return parse_session(fh.read())
