"""Line-oriented session files: one ring block, named ideal blocks.

    # comments and blank lines are ignored
    ring: p=2 vars=x,y,z mod=[x^3+y^3+z^3] order=grevlex
    ideal J = [y, z]
    ideal m = [x, y, z]
"""

from __future__ import annotations

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


def _parse_ring_line(body: str) -> Ring:
    # split on spaces outside brackets
    fields, depth, cur = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                fields.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        fields.append("".join(cur))
    kv = {}
    for f in fields:
        if "=" not in f:
            raise SessionError(f"bad ring field {f!r}")
        k, v = map(str.strip, f.split("=", 1))
        if k not in RING_FIELDS:
            raise SessionError(f"unknown ring field {k!r} "
                               f"(known: {', '.join(RING_FIELDS)})")
        if k in kv:
            raise SessionError(f"repeated ring field {k!r}")
        kv[k] = v
    if "p" not in kv or "vars" not in kv:
        raise SessionError("ring line needs p= and vars=")
    relations = _split_bracket_list(kv["mod"]) if "mod" in kv else []
    return Ring(int(kv["p"]), [v for v in kv["vars"].split(",") if v],
                relations=relations, order=kv.get("order", "grevlex"))


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
