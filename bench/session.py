"""session-sweep: one long-lived process drives normcov's Python API.

Run by run.py as a child, so that its peak RSS can be read from os.wait4:

    python3 bench/session.py --seed N --seconds S --out FILE [--trace-dir DIR]

It first runs one untimed round to warm the caches. Without --trace-dir it
then repeats the operation list in rounds for the rest of S seconds and keeps
each operation's median scaled time (bench/timing.py). With --trace-dir it
runs one traced round and writes the spans there. Every result is checked
against bench/oracle.py. The summary goes to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from pathlib import Path
from time import perf_counter

import normcov as nc

import oracle
import timing
import tracing

VERIFY_DEGREES = range(14, 29)
SMALL_BOUNDS = range(4, 1501)
TYPE_SETS = range(5, 401)
# Composite degrees only, so that every query has an imprimitive case too and
# every seed makes the same number of operations.
CONTAINS_DEGREES = [n for n in range(40, 61) if not oracle.is_prime(n)]
CONTAINS_TYPES = 200
GAMMA_DEGREES = range(5, 11)
DATA = Path(nc.__file__).resolve().parent / "data"


def _families(n: int) -> list[tuple[str, dict]]:
    """Every construction family that applies at degree n, on S_n and A_n."""
    f = oracle.factorize(n)
    ps = sorted(f)
    out = []
    if len(f) > 1 or f[ps[0]] > 1:
        out.append(("upper_sym", {"n": n}))
    out.append(("upper_alt_even", {"n": n}) if n % 2 == 0 else ("upper_alt_odd", {"n": n}))
    if f == {n: 1}:
        out.append(("sym_prime", {"p": n}))
    groups = ("sym", "alt")
    if len(f) == 1 and f[ps[0]] >= 2:
        out += [("prime_power", {"p": ps[0], "alpha": f[ps[0]], "group": g}) for g in groups]
    if len(f) == 2:
        p, q = ps
        if f[p] == f[q] == 1:
            out += [("two_primes", {"p": p, "q": q, "group": g}) for g in groups]
        else:
            params = {"p": p, "q": q, "alpha": f[p], "beta": f[q]}
            out += [("two_prime_powers", dict(params, group=g)) for g in groups]
    return out


def _random_type(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, rest = [], n
    while rest:
        part = rng.randint(1, min(rest, max(1, n // 3)))
        parts.append(part)
        rest -= part
    return tuple(sorted(parts, reverse=True))


def _wreath_type(rng: random.Random, b: int, c: int) -> tuple[int, ...]:
    """Cycle type of a random element of S_b wr S_c: d * (a partition of b) per top cycle."""
    parts = []
    for d in _random_type(rng, c):
        parts += [d * x for x in _random_type(rng, b)]
    return tuple(sorted(parts, reverse=True))


def _large_bounds(rng: random.Random) -> list[tuple[str, int, dict[int, int]]]:
    """Group kind, n and its factorization, known by construction, for larger n.

    A prime and a product of two primes near each of ten points from 10**6 to
    10**10, on S_n and A_n; then, where trial division does the most work, a
    prime near 10**12 on S_n, a product of two primes near 10**6 on A_n, and
    twice a prime near 5 * 10**10 on S_n, which takes phi_interval's Moebius
    path. One of each keeps a round short, so each operation gets many repeats.
    """
    out = []
    for i in range(10):
        x = 10 ** (6 + 4 * i / 9)
        p = oracle.next_prime(int(x * (1 - 0.01 * rng.random())))
        a = oracle.next_prime(int(x**0.5 * (0.9 + 0.05 * rng.random())))
        b = oracle.next_prime(int(x**0.5 * (0.95 + 0.05 * rng.random())) + 1)
        for kind in ("S", "A"):
            out += [(kind, p, {p: 1}), (kind, a * b, {a: 1, b: 1})]
    p = oracle.next_prime(int(1e12 * (1 - 0.001 * rng.random())))
    a = oracle.next_prime(int(1e6 * (0.99 - 0.01 * rng.random())))
    b = oracle.next_prime(int(1e6 * (0.995 + 0.005 * rng.random())))
    q = oracle.next_prime(int(5e10 * (1 - 0.01 * rng.random())))
    return out + [("S", p, {p: 1}), ("A", a * b, {a: 1, b: 1}), ("S", 2 * q, {2: 1, q: 1})]


def build_ops(seed: int) -> list[tuple[str, object, object]]:
    """(name, thunk, check) per operation; a check maps the result to problems.

    Thunks look normcov functions up at call time, so the traced round goes
    through the wrappers installed after the ops are built.
    """
    rng = random.Random(seed)
    ops = []

    degrees = list(VERIFY_DEGREES)
    rng.shuffle(degrees)
    for n in degrees:
        for fam, params in _families(n):
            kind = "A" if params.get("group") == "alt" or fam.startswith("upper_alt") else "S"

            def run(fam=fam, params=params):
                b = nc.construct_delta(fam, **params)
                return b, nc.verify_basic_set(b)

            def check(res, fam=fam, n=n, kind=kind):
                b, rep = res
                probs = oracle.check_cover(0, rep.covered, len(b.components), fam, n)
                met = set().union(*rep.coverage_matrix.values())
                want = oracle.partition_count(n) if kind == "S" else oracle.alt_class_count(n)
                if len(met) != want or rep.uncovered:
                    probs.append(f"{fam} {kind}_{n}: components meet {len(met)} of {want} classes")
                return probs

            ops.append((f"verify {fam} {kind}{n}", run, check))

    bounds = [(kind, n, oracle.factorize(n)) for n in SMALL_BOUNDS for kind in ("S", "A")]
    bounds += _large_bounds(rng)
    rng.shuffle(bounds)
    for kind, n, fac in bounds:
        g = nc.GroupId.sym(n) if kind == "S" else nc.GroupId.alt(n)

        def check(rep, kind=kind, n=n, fac=fac):
            return oracle.check_bounds(kind, n, fac, rep.lower_ceil, rep.upper, rep.exact)

        ops.append((f"bounds {kind}{n}", lambda g=g: nc.bounds_report(g), check))

    for i in range(CONTAINS_TYPES):
        n = rng.choice(CONTAINS_DEGREES)
        k = rng.randint(1, n // 2)
        b = rng.choice([b for b in range(2, n // 2 + 1) if n % b == 0])
        parts = _random_type(rng, n)
        # Half random types, half types of actual wreath elements.
        tparts = parts if i % 2 else _wreath_type(rng, b, n // b)
        cases = [
            (("intransitive", k), parts, nc.Intransitive(n, k), f"{i}a"),
            (("imprimitive", b, n // b), tparts, nc.Imprimitive(n, b, n // b), f"{i}b"),
        ]
        for desc, tp, d, tag in cases:
            t = nc.CycleType(tp)

            def check(ans, desc=desc, tp=tp):
                return oracle.check_contains(ans, desc, tp)

            ops.append((f"contains {tag} {desc} {oracle.type_str(tp)}",
                        lambda d=d, t=t: nc.contains_type(d, t), check))

    # The README's library example: exact gamma over a built-in catalog.
    for n in GAMMA_DEGREES:
        for kind in ("S", "A"):
            g = nc.GroupId.sym(n) if kind == "S" else nc.GroupId.alt(n)
            catalog = json.loads((DATA / "catalogs" / f"{kind}{n}.json").read_text())["subgroups"]

            def check(res, kind=kind, n=n, catalog=catalog):
                return oracle.check_gamma(kind, n, res.gamma, res.witness.to_json()["components"], catalog)

            ops.append((f"gamma {kind}{n}", lambda g=g: nc.exact_gamma(g, nc.load_catalog(g)), check))

    sizes = list(TYPE_SETS)
    rng.shuffle(sizes)
    for n in sizes:
        ops.append((f"u_set {n}", lambda n=n: nc.u_set(n),
                    lambda ts, n=n: oracle.check_u_set(n, [t.parts for t in ts])))
        ops.append((f"t_set {n}", lambda n=n: nc.t_set(n),
                    lambda ts, n=n: oracle.check_t_set(n, [t.parts for t in ts])))
    return ops


# A host-speed reference sample follows each stretch of about this much work.
CHUNK_S = 0.05


def run_round(ops, times: timing.Scaled, counts: dict, tracer=None) -> None:
    """One pass over ops, timed into times."""
    times.mark()
    last = perf_counter()
    for i, (name, thunk, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = i + 1
        counts["attempted"] += 1
        start = perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # an operation that raises is a failed operation
            counts["failed"] += 1
            counts["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        took = perf_counter() - start
        times.add(name, took)
        counts["wrong"].extend(check(result))
        if perf_counter() - last > CHUNK_S:
            times.mark()
            last = perf_counter()
    times.mark()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-dir")
    args = ap.parse_args()

    started = perf_counter()
    ops = build_ops(args.seed)
    counts = {"attempted": 0, "failed": 0, "errors": [], "wrong": []}
    setup = timing.Scaled()
    summary: dict = {}
    run_round(ops, timing.Scaled(), counts)  # warm-up: fills the caches; checked, not timed
    times = timing.Scaled()
    if args.trace_dir:
        tracer = tracing.Tracer()
        tracer.install()
        run_round(ops, times, counts, tracer)
        summary["traced_wall_s"] = times.total()
        os.makedirs(args.trace_dir, exist_ok=True)
        tracer.dump(os.path.join(args.trace_dir, "session.jsonl"))
    else:
        rounds, round_s = 0, 0.0
        while timing.more_rounds(rounds, started, round_s, args.seconds):
            t0 = perf_counter()
            timing.setup_probes(setup)
            run_round(ops, times, counts)
            rounds += 1
            round_s = perf_counter() - t0
        summary["rounds"] = rounds
    counts["errors"] = counts["errors"][:50]
    counts["wrong"] = counts["wrong"][:50]
    summary.update(op_s=times.typical(), fastest=times.fastest, host=times.refs,
                   setup=setup.samples.get(timing.SETUP, []), **counts)
    with open(args.out, "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
