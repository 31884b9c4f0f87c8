"""Span tracer that wraps hkprod's layer functions from the outside.

No file of the program changes: `Tracer.install()` replaces each traced
function at every hkprod module attribute that binds it (modules import
many functions by name, e.g. both `koszul.kernel_length` and
`verify.kernel_length`), and `uninstall()` puts the originals back.

Spans are aggregated as they close, so memory stays flat however many
calls an op makes.  A span's self time is its duration minus the time
covered by its child spans.  Functions listed in COUNTERS are only
counted; their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import inspect
import sys
import time

# (metric prefix, module, attribute path) of each function timed as a span
SPANS = [
    ("cli.main", "hkprod.cli", "main"),
    ("sessions.load_session", "hkprod.sessions", "load_session"),
    ("verify.run_trials", "hkprod.verify", "run_trials"),
    ("koszul.len_identity_sides", "hkprod.koszul", "len_identity_sides"),
    ("koszul.kernel_length", "hkprod.koszul", "kernel_length"),
    ("hk.hk_table", "hkprod.hk", "hk_table"),
    ("hk.hk_estimate", "hkprod.hk", "hk_estimate"),
    ("hk.tc_probe", "hkprod.hk", "tc_probe"),
    ("hk.monomial_hk_volume", "hkprod.hk", "monomial_hk_volume"),
    ("ideals.Ideal.groebner_basis", "hkprod.ideals", "Ideal.groebner_basis"),
    ("ideals.Ideal.bracket_power", "hkprod.ideals", "Ideal.bracket_power"),
    ("ideals.Ideal.min_gens", "hkprod.ideals", "Ideal.min_gens"),
    ("ideals.Ideal.minimal_generators", "hkprod.ideals", "Ideal.minimal_generators"),
    ("groebner.buchberger", "hkprod.groebner", "buchberger"),
    ("groebner.normal_form", "hkprod.groebner", "normal_form"),
    ("groebner.interreduce", "hkprod.groebner", "interreduce"),
    ("groebner.staircase_count", "hkprod.groebner", "staircase_count"),
    ("groebner.syzygies", "hkprod.groebner", "syzygies"),
    ("groebner.colon_by_element", "hkprod.groebner", "colon_by_element"),
    ("groebner.module_colength", "hkprod.groebner", "module_colength"),
    ("groebner.module_buchberger", "hkprod.groebner", "module_buchberger"),
    ("groebner.module_normal_form", "hkprod.groebner", "module_normal_form"),
]
# the 14 checkers; each call returns one report
VERIFIERS = ["verify_len_identity", "verify_prop_ineq", "verify_cor_power",
             "verify_eqconds", "verify_freeness", "verify_cor_square",
             "verify_eq7_per_q", "verify_hk_product_bound", "verify_cor_power_hk",
             "verify_eqthentc", "verify_param_lower_bound", "verify_cor_square_hk",
             "verify_prop42", "verify_huneke_yao_per_q"]
SPANS += [(f"verify.{name}", "hkprod.verify", name) for name in VERIFIERS]
# called far too often for a span each
COUNTERS = [
    ("rings.order_key", "hkprod.rings", "MonomialOrder.key"),
    ("rings.term_mul", "hkprod.rings", "Polynomial.term_mul"),
    ("groebner.s_polynomial", "hkprod.groebner", "s_polynomial"),
]


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # outermost activations only, so recursion counts once
        self.self_time = 0.0
        self.active = 0


class Frame:
    __slots__ = ("name", "start", "child_time", "child_names")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.child_names = set()


class Tracer:
    """Aggregated span statistics plus the few ratios the metrics need."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.extra = {"spair_attempts": 0, "spair_useful": 0,
                      "module_spair_attempts": 0, "module_spair_useful": 0,
                      "gb_builds": 0, "bracket_repeats": 0, "cells": 0,
                      "trials_requested": 0, "trials_run": 0}
        self._op_brackets: set = set()
        self._originals: dict = {}
        self._undo: list = []

    # -- span arithmetic ----------------------------------------------------

    def enter(self, name: str) -> Frame:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.active += 1
        frame = Frame(name, self.clock())
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame):
        duration = self.clock() - frame.start
        self.stack.pop()
        stat = self.stats[frame.name]
        stat.active -= 1
        stat.self_time += duration - frame.child_time
        if not stat.active:
            stat.total += duration
        if self.stack:
            parent = self.stack[-1]
            parent.child_time += duration
            parent.child_names.add(frame.name)

    def new_op(self):
        """Start a new op: `repeat_share` looks for repeats within one op."""
        self._op_brackets.clear()

    # -- per-function hooks -------------------------------------------------

    def _after(self, name, args, kwargs, result, frame):
        # runs after the frame closed, so the enclosing span is on top
        extra = self.extra
        parent = self.stack[-1].name if self.stack else None
        if name == "groebner.normal_form" and parent == "groebner.buchberger":
            extra["spair_attempts"] += 1
            extra["spair_useful"] += bool(result.terms)
        elif (name == "groebner.module_normal_form"
              and parent == "groebner.module_buchberger"):
            extra["module_spair_attempts"] += 1
            extra["module_spair_useful"] += bool(result)
        elif name == "ideals.Ideal.groebner_basis":
            # a buchberger child means the basis was built, not memoized
            extra["gb_builds"] += "groebner.buchberger" in frame.child_names
        elif name == "verify.run_trials":
            bound = inspect.signature(self._originals[name]).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            per_trial = a["e_max"] + 1 if a["check"] == "len-identity" else 1
            extra["trials_requested"] += a["trials"]
            extra["trials_run"] += len(result) // per_trial

    def _before(self, name, args):
        if name == "ideals.Ideal.bracket_power":
            ideal, q = args[0], args[1]
            key = (ideal.gens, q)
            self.extra["bracket_repeats"] += key in self._op_brackets
            self._op_brackets.add(key)
        elif name == "groebner.staircase_count":
            self.extra["cells"] += box_cells(args[0], args[1])

    HOOKED_AFTER = {"groebner.normal_form", "groebner.module_normal_form",
                    "ideals.Ideal.groebner_basis", "verify.run_trials"}
    HOOKED_BEFORE = {"ideals.Ideal.bracket_power", "groebner.staircase_count"}

    def _span(self, name, fn):
        enter, exit_ = self.enter, self.exit
        before = self._before if name in self.HOOKED_BEFORE else None
        after = self._after if name in self.HOOKED_AFTER else None

        def wrapper(*args, **kwargs):
            if before:
                before(name, args)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after:
                after(name, args, kwargs, result, frame)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)  # install() runs once per traced pass

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for specs, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, modname, path in specs:
                self._wrap(name, modname, path, make)

    def _wrap(self, name, modname, path, make):
        owner = sys.modules[modname]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
        else:
            attr = path
        original = owner.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(make(name, original.fget), original.fset,
                               original.fdel, original.__doc__)
            self._originals[name] = original.fget
            self._rebind(owner, attr, original, wrapped)
            return
        self._originals[name] = original
        wrapped = make(name, original)
        if owner is sys.modules[modname]:
            # every hkprod module that imported the function by name
            for mod in [m for k, m in sys.modules.items()
                        if k == "hkprod" or k.startswith("hkprod.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)
        else:
            self._rebind(owner, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_time if stat else 0.0


def box_cells(lead_monos, nvars: int) -> int:
    """Cells of the staircase box, recomputed from staircase_count's
    arguments: the product of the smallest pure power per variable, or 0
    when some variable has none (the count is then infinite, no box)."""
    bounds = [None] * nvars
    for m in lead_monos:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return 0
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return 0
    cells = 1
    for b in bounds:
        cells *= b
    return cells


def share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as {name: (value per pass, unit)}."""
    per = 1.0 / passes
    x = tr.extra
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in COUNTERS:
        out[f"{name}.calls"] = (tr.calls(name) * per, "count")
    for name, _, _ in SPANS:
        if name.startswith("verify.verify_"):
            continue
        out[f"{name}.calls"] = (tr.calls(name) * per, "count")
        out[f"{name}.total_s"] = (tr.total(name) * per, "s")
        out[f"{name}.self_s"] = (tr.self_time(name) * per, "s")
    gb = "ideals.Ideal.groebner_basis"
    out[f"{gb}.builds"] = (x["gb_builds"] * per, "count")
    out[f"{gb}.memo_hit_share"] = (
        share(tr.calls(gb) - x["gb_builds"], tr.calls(gb)), "share")
    out["ideals.Ideal.bracket_power.repeat_share"] = (
        share(x["bracket_repeats"], tr.calls("ideals.Ideal.bracket_power")), "share")
    out["groebner.spair.useful_share"] = (
        share(x["spair_useful"], x["spair_attempts"]), "share")
    out["groebner.module_spair.useful_share"] = (
        share(x["module_spair_useful"], x["module_spair_attempts"]), "share")
    out["groebner.staircase_count.cells"] = (x["cells"] * per, "cells")
    reports = sum(tr.calls(f"verify.{v}") for v in VERIFIERS)
    out["verify.reports"] = (reports * per, "count")
    out["verify.skipped_share"] = (
        share(x["trials_requested"] - x["trials_run"], x["trials_requested"]), "share")
    return out
