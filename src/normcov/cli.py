"""Command-line surface: bounds, verification, exact minima and type listings.

Each subparser names its handler, which takes the parsed arguments and returns
(exit code, JSON payload, text); main prints the payload with --format json and
the text otherwise. Exit codes: 0 for success, 1 for a basic set that fails to
cover, 2 for any error, which main reports as "error: ..." on stderr with
nothing on stdout. Every JSON file is read by subgroups._load_json.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bounds import bounds_report
from .coverings import BasicSet, construct_delta, delta_families, exact_gamma, verify_basic_set
from .cycle_types import CycleType, GroupId, SplitTag, t_prime_set, t_set, u_set
from .numtheory import Interval
from .subgroups import (
    FullAlternating,
    Imprimitive,
    IntersectAlt,
    Intransitive,
    NamedGroup,
    _coverage_rule,
    _load_json,
    catalog_to_json,
    load_catalog,
    parse_descriptor,
)

__all__ = ["entry", "main"]

OK, UNCOVERED, ERROR = 0, 1, 2


def cmd_bounds(args):
    rep = bounds_report(GroupId.parse(args.group, degree=args.n))
    lines = [f"group {rep.group}"]
    lines.append(f"  lower bound: {rep.lower} (ceiling {rep.lower_ceil})")
    lines.append(f"  upper bound: {rep.upper}")
    lines.append(f"  exact:       {rep.exact if rep.exact is not None else 'unknown'}")
    lines.append("  rules:")
    for value, rule in rep.sources:
        lines.append(f"    {value:>12}  {rule}")
    return OK, rep.to_json(), "\n".join(lines)


def cmd_verify(args):
    if args.file:
        basic = BasicSet.from_json(_load_json(args.file, "basic set file"))
    elif args.family:
        flags = {key: getattr(args, key) for key in ("n", "p", "q", "alpha", "beta", "group", "big_blocks")}
        basic = construct_delta(args.family, **{key: val for key, val in flags.items() if val is not None})
    else:
        raise ValueError("verify needs --file or --family")
    report = verify_basic_set(basic)
    # report.to_json() names the classes each component meets, from one unpruned walk over every class
    payload = {"basic_set": basic.to_json(), "report": report.to_json()} if args.format == "json" else {}
    lines = [f"group {basic.group}: {len(basic.components)} components"]
    for d in basic.components:
        lines.append(f"  {d}")
    if report.covered:
        lines.append("covered: every conjugacy class is met")
        return OK, payload, "\n".join(lines)
    lines.append("NOT covered; missed classes:")
    for cid in report.uncovered:
        lines.append(f"  {cid}")
    return UNCOVERED, payload, "\n".join(lines)


def cmd_gamma(args):
    g = GroupId.parse(args.group, degree=args.n)
    result = exact_gamma(g, load_catalog(g, path=args.catalog or None))
    payload = {
        "group": g.name,
        "gamma": result.gamma,
        "exact": result.exact,
        "witness": result.witness.to_json(),
    }
    kind = "gamma" if result.exact else "upper bound on gamma (catalog incomplete)"
    lines = [f"{kind} for {g}: {result.gamma}", "witness basic set:"]
    for d in result.witness.components:
        lines.append(f"  {d}")
    return OK, payload, "\n".join(lines)


def cmd_table3(args):
    sym: dict[int, int] = {}
    alt: dict[int, int] = {}
    for n in range(3, 13):
        sym[n] = exact_gamma(GroupId.sym(n), load_catalog(GroupId.sym(n))).gamma
        if n >= 4:
            alt[n] = exact_gamma(GroupId.alt(n), load_catalog(GroupId.alt(n))).gamma
    payload = {
        "sym": {str(n): v for n, v in sym.items()},
        "alt": {str(n): v for n, v in alt.items()},
    }
    header = "n        " + " ".join(f"{n:2d}" for n in range(3, 13))
    row_s = "gamma(S) " + " ".join(f"{sym[n]:2d}" for n in range(3, 13))
    row_a = "gamma(A)  - " + " ".join(f"{alt[n]:2d}" for n in range(4, 13))
    return OK, payload, "\n".join([header, row_s, row_a])


_MEMBERSHIP_RULES = {
    Intransitive: "the parts split into sub-multisets summing to k and n-k",
    Imprimitive: "the parts admit a block-orbit grouping",
    FullAlternating: "the type has even parity",
    NamedGroup: "the type occurs in the exact spectrum, from a closed form or every element",
    IntersectAlt: "even type contained in the intersected class",
}


def cmd_membership(args):
    d = parse_descriptor(args.descriptor, args.n)
    t = CycleType.parse(args.type)
    if t.n != args.n:
        raise ValueError(f"type {t} is a partition of {t.n}, not {args.n}")
    member = _coverage_rule(d, t.n, isinstance(d, IntersectAlt))(t.parts, SplitTag.NOT_SPLIT)
    rule = _MEMBERSHIP_RULES[type(d)]
    payload = {"descriptor": str(d), "type": str(t), "member": member, "rule": rule}
    text = f"{t} in {d}: {'yes' if member else 'no'} ({rule})"
    return OK, payload, text


# u and t have about n/2 types at degree n, and t_prime up to one type per
# integer of its interval; past this bound listing them costs seconds and gigabytes.
MAX_TYPES_DEGREE = 10**6


def cmd_types(args):
    n, family = args.n, args.family
    if family == "t_prime":
        if not args.interval:
            raise ValueError("t_prime needs --interval, e.g. --interval '[1,3)'")
        iv = Interval.parse(args.interval)
        if iv.last_integer() - iv.first_integer() >= MAX_TYPES_DEGREE:
            raise ValueError(f"types t_prime needs an interval of at most {MAX_TYPES_DEGREE} integers, got {iv}")
        types = t_prime_set(n, iv)
    elif n > MAX_TYPES_DEGREE:
        raise ValueError(f"types {family} needs n <= {MAX_TYPES_DEGREE}, got {n}")
    else:
        types = (u_set if family == "u" else t_set)(n)
    payload = {"n": n, "family": family, "types": [str(t) for t in types]}
    return OK, payload, " ".join(str(t) for t in types)


def cmd_catalog(args):
    g = GroupId.parse(args.group, degree=args.n)
    cat = load_catalog(g)
    payload = catalog_to_json(cat)
    lines = [f"catalog for {g} ({'complete' if cat.complete else 'incomplete'}):"]
    for d in cat.descriptors:
        lines.append(f"  {d}")
    return OK, payload, "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normcov",
        description="Normal coverings of symmetric and alternating groups: "
        "bounds, verification and exact minimal basic sets.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[common], help="print all applicable bounds")
    p.add_argument("n", type=int)
    p.add_argument("group", choices=("sym", "alt"))
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="check that a basic set covers")
    p.add_argument("--file", help="basic set JSON file")
    p.add_argument("--family", choices=delta_families(), help="named construction")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--group", choices=("sym", "alt"))
    p.add_argument("--big-blocks", action="store_true", default=None,
                   help="use the wreath product with large blocks")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("gamma", parents=[common], help="exact minimal basic set size")
    p.add_argument("n", type=int)
    p.add_argument("group", choices=("sym", "alt"))
    p.add_argument("--catalog", help="user catalog JSON file")
    p.set_defaults(run=cmd_gamma)

    p = sub.add_parser("table3", parents=[common], help="exact values for degrees 3..12")
    p.set_defaults(run=cmd_table3)

    p = sub.add_parser(
        "membership",
        parents=[common],
        help="does a class contain a type",
        epilog="descriptor syntax: 'intransitive:K', 'imprimitive:B,C', "
        "'alternating', 'named:NAME[:CLASS]', and 'alt:...' for the "
        "intersection of any of these with the alternating group",
    )
    p.add_argument("n", type=int)
    p.add_argument("descriptor", help="e.g. 'imprimitive:3,4' or 'alt:intransitive:2'")
    p.add_argument("type", help="cycle type in bracket syntax, e.g. '[1,2,9]'; part order is ignored")
    p.set_defaults(run=cmd_membership)

    p = sub.add_parser("types", parents=[common], help="list a distinguished type family")
    p.add_argument("n", type=int)
    p.add_argument("family", choices=("u", "t", "t_prime"))
    p.add_argument("--interval", help="interval for t_prime, e.g. '[1,3)'")
    p.set_defaults(run=cmd_types)

    p = sub.add_parser("catalog", parents=[common], help="dump a built-in catalog")
    p.add_argument("n", type=int)
    p.add_argument("group", choices=("sym", "alt"))
    p.set_defaults(run=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, text = args.run(args)
    # CatalogError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    try:
        if args.format != "json":
            print(text, flush=True)
        else:
            import json  # loaded by file reads and JSON output only, so text commands start sooner
            json.dump(payload, sys.stdout, indent=2)  # streamed, with no second copy of the text
            print(flush=True)
    except BrokenPipeError:
        # The reader left early; send the rest, and the flush at exit, nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
