"""Command-line surface: bounds, verification, exact minima and type listings.

Each entry of the command table _COMMANDS names its handler, which takes the
parsed arguments and returns (exit code, JSON payload, text); main prints the
payload with --format json and the text otherwise. Exit codes: 0 for success,
1 for a basic set that fails to cover, 2 for any error, an argument error
included, which main reports as "error: ..." on stderr with nothing on stdout.
Every JSON file is read by subgroups._load_json.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

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


_SYM_ALT, _HELP = ("sym", "alt"), ("-h", "--help")
_FORMAT = {"--format": (str, ("text", "json"))}
_DEGREE_GROUP = {"n": (int, None), "group": (str, _SYM_ALT)}
# A token that is a value, not an option: one not starting with "-", a lone "-" or a negative number.
_VALUE = re.compile(r"(?!-)|-(?:\d+|\d*\.\d+)?$")

# name: (handler, help, positionals, options). A positional or an option maps its name to (type,
# choices); an option of type None is a flag, True when given and None otherwise. Every command
# takes --format and -h/--help. The first line of the help is the command's summary.
_COMMANDS = {
    "bounds": (cmd_bounds, "print all applicable bounds", _DEGREE_GROUP, _FORMAT),
    "verify": (cmd_verify, "check that a basic set covers\n--file reads a basic set JSON file, --family builds a "
               "named construction,\n--big-blocks uses the wreath product with large blocks", {},
               {**_FORMAT, "--file": (str, None), "--family": (str, tuple(delta_families())),
                **dict.fromkeys(("--n", "--p", "--q", "--alpha", "--beta"), (int, None)),
                "--group": (str, _SYM_ALT), "--big-blocks": (None, None)}),
    "gamma": (cmd_gamma, "exact minimal basic set size\n--catalog reads a user catalog JSON file", _DEGREE_GROUP,
              {**_FORMAT, "--catalog": (str, None)}),
    "table3": (cmd_table3, "exact values for degrees 3..12", {}, _FORMAT),
    "membership": (cmd_membership, "does a class contain a type\ndescriptor syntax: 'intransitive:K', "
                   "'imprimitive:B,C', 'alternating', 'named:NAME[:CLASS]',\nand 'alt:...' for the intersection of "
                   "any of these with the alternating group;\ntype is a cycle type in bracket syntax, e.g. '[1,2,9]'; "
                   "part order is ignored",
                   {"n": (int, None), "descriptor": (str, None), "type": (str, None)}, _FORMAT),
    "types": (cmd_types, "list a distinguished type family\n--interval is the interval for t_prime, e.g. '[1,3)'",
              {"n": (int, None), "family": (str, ("u", "t", "t_prime"))}, {**_FORMAT, "--interval": (str, None)}),
    "catalog": (cmd_catalog, "dump a built-in catalog", _DEGREE_GROUP, _FORMAT),
}


def _help(command: str | None) -> SimpleNamespace:
    """A pseudo-command printing the help of one command, or of the program for None."""
    if command is None:
        lines = ["usage: normcov [-h] COMMAND ...", "", "Normal coverings of symmetric and alternating groups: "
                 "bounds, verification and exact minimal basic sets.", "", "commands:"]
        lines += [f"  {name:<11} {spec[1].splitlines()[0]}" for name, spec in _COMMANDS.items()]
        lines += ["", "Run 'normcov COMMAND -h' for the arguments of one command."]
    else:
        _, text, positionals, options = _COMMANDS[command]
        words = [f"usage: normcov {command} [-h]"]
        words += [f"[{name}]" if kind is None else f"[{name} {_metavar(name[2:].upper(), choices)}]"
                  for name, (kind, choices) in options.items()]
        lines = [" ".join(words + [_metavar(name, choices) for name, (_, choices) in positionals.items()]), "", text]
    return SimpleNamespace(run=lambda _: (OK, {}, "\n".join(lines)), format="text")


def _metavar(name: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else name


def _option(token: str, names) -> str | None:
    """The name that token spells, in full or as a unique prefix of a --name; None if it spells none."""
    hits = [token] if token in names else [name for name in names if token[:2] == "--" and name.startswith(token)]
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _convert(name: str, kind, choices, text: str):
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """The handler and arguments of a command line, read as argparse read them: --opt=value or
    --opt value, the last of a repeated option, options among positionals. Raises ValueError."""
    if argv and _option(argv[0], _HELP):
        return _help(None)
    if not argv:
        raise ValueError("the following arguments are required: command")
    run, _, positionals, options = _COMMANDS[_convert("command", str, _COMMANDS, argv[0])]
    args = SimpleNamespace(run=run, **{name[2:].replace("-", "_"): None for name in options} | {"format": "text"})
    values, tokens = [], iter(argv[1:])
    for token in tokens:
        if token == "--":
            values += tokens  # every later token is a positional
        elif _VALUE.match(token):
            values.append(token)
        else:
            name, eq, text = token.partition("=")
            option = _option(name, [*options, *_HELP])
            if option is None:
                raise ValueError(f"unrecognized arguments: {token}")
            if option in _HELP:
                return _help(argv[0])
            kind, choices = options[option]
            if kind is None and eq:
                raise ValueError(f"argument {option}: ignored explicit argument {text!r}")
            if kind is not None and not eq:
                text = next(tokens, "--")  # no token left reads as the next option
                if not _VALUE.match(text):
                    raise ValueError(f"argument {option}: expected one argument")
            value = True if kind is None else _convert(option, kind, choices, text)
            setattr(args, option[2:].replace("-", "_"), value)
    if len(values) < len(positionals):
        raise ValueError(f"the following arguments are required: {', '.join(list(positionals)[len(values):])}")
    if len(values) > len(positionals):
        raise ValueError(f"unrecognized arguments: {' '.join(values[len(positionals):])}")
    for (name, (kind, choices)), text in zip(positionals.items(), values):
        setattr(args, name, _convert(name, kind, choices, text))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
