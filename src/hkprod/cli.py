"""Command-line front end.

Subcommands: colength, hk, verify, probe.  Exit codes: 0 all checks
pass, 1 a verified claim was violated, 2 usage/parse/configuration
errors, 3 an internal error (a bug, never a verdict).  All randomness
flows from --seed; identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache

from . import verify as V
from .hk import ESTIMATE_METHODS, exact_text, hk_estimate, hk_table, tc_probe
from .sessions import load_session


def _parse_mode(text):
    """None (the ring's default, see star_spread) or an int."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad star-spread mode {text!r}") from None


def nonnegative_int(text: str) -> int:
    """argparse type of --qmax (rows run from q = p^0 to p^E) and --trials."""
    e = int(text)
    if e < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {e}")
    return e


def cmd_colength(sess, args) -> int:
    lam = sess.ideal(args.ideal).colength()
    print("infinite" if lam is None else lam)
    return 0


def cmd_hk(sess, args) -> int:
    ideal = sess.ideal(args.ideal)
    # the estimate first: an inapplicable method fails before any table
    # work, and the sequence methods leave the bracket colengths memoized
    est = hk_estimate(ideal, args.qmax, args.method)
    table = hk_table(ideal, args.qmax)
    if args.json:
        obj = table.to_json_obj()
        obj["estimate"] = {
            "value": exact_text(est.value),
            "method": est.method,
            "is_limit": est.is_limit,
        }
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    elif args.csv:
        sys.stdout.write(table.to_csv())
        print(f"# estimate,{exact_text(est.value)},{est.method},"
              f"{'limit' if est.is_limit else 'not-a-limit'}")
    else:
        print(f"{'q':>8} {'colength':>12} normalized")
        for r in table.rows:
            print(f"{r.q:>8} {r.colength:>12} {r.normalized}")
        tag = "exact limit" if est.is_limit else "finite-q value, not asserted as the limit"
        print(f"estimate: {est.value} [{est.method}; {tag}]")
    return 0


def cmd_verify(sess, args) -> int:
    spec = V.check_spec(args.check)
    ideals = [sess.ideal(n) for n in args.ideal]
    mode = _parse_mode(args.mode)
    if not ideals:
        reports = V.run_trials(args.check, sess.ring, args.trials, args.seed,
                               e_max=args.qmax, n=args.n, mode=mode)
    elif len(ideals) != spec.arity:
        raise ValueError(f"check {args.check} needs {spec.arity} --ideal argument(s), "
                         f"got {len(ideals)}")
    else:
        reports = spec.run(ideals, args.qmax, args.n, mode)
    if args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(V.CSV_HEADER)
        for r in reports:
            w.writerow(r.csv_row())
    else:
        for r in reports:
            print(r.to_json_line())
    return 0 if all(r.holds for r in reports) else 1


def cmd_probe(sess, args) -> int:
    ring = sess.ring
    z = ring.poly(args.z)
    c = ring.poly(args.c)
    ideal = sess.ideal(args.ideal)
    verdict = tc_probe(z, ideal, c, args.qmax)
    print(verdict)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The hkprod parser, built at the first call and shared by later
    ones: parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="hkprod",
        description="Exact colengths, Hilbert-Kunz tables and theorem "
                    "checks for ideals over prime fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colength", help="print lambda(R/I) or 'infinite'")
    p.add_argument("file")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_colength)

    p = sub.add_parser("hk", help="Hilbert-Kunz table for an ideal")
    p.add_argument("file")
    p.add_argument("ideal")
    p.add_argument("--qmax", type=nonnegative_int, default=2, metavar="E",
                   help="largest exponent e, rows up to q=p^e")
    p.add_argument("--method", default="auto", choices=ESTIMATE_METHODS,
                   help="sequence-extrapolated only off polynomial rings")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_hk)

    p = sub.add_parser("verify", help="run one theorem checker")
    p.add_argument("file")
    p.add_argument("check", help=", ".join(V.CHECK_NAMES))
    p.add_argument("--trials", type=nonnegative_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qmax", type=nonnegative_int, default=1, metavar="E")
    p.add_argument("-n", type=int, default=2, help="power for power checks")
    p.add_argument("--mode", default=None,
                   help="star spread, an integer; only off polynomial rings")
    p.add_argument("--ideal", action="append", default=[],
                   help="named ideal argument(s); omit to run random trials")
    p.add_argument("--csv", action="store_true", help="CSV summary instead of JSON lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="finite-q tight-closure membership probe")
    p.add_argument("file")
    p.add_argument("-z", required=True, help="candidate element")
    p.add_argument("-i", "--ideal", required=True, dest="ideal")
    p.add_argument("-c", required=True, help="multiplier")
    p.add_argument("--qmax", type=int, default=3, metavar="E")
    p.set_defaults(func=cmd_probe)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(load_session(args.file), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a bug gets here; keeps it out of startup

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
