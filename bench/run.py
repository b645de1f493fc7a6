"""Benchmark for normcov: three workloads, end-to-end metrics and a traced per-layer pass.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Workloads: verify-ladder and catalog-gamma run CLI commands, each as a fresh
``python -m normcov.cli`` child of this checkout's ``src``; session-sweep
drives the Python API inside one child process (bench/session.py). All three
are closed loops with one client: a run repeats its operation list in
interleaved rounds and keeps each operation's median time, scaled to a
reference host speed (bench/timing.py). With --trace 1
a traced pass follows and the per-layer metrics are printed instead of the
end-to-end ones. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
import timing
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
CHILD_TIMEOUT_S = 150.0
# A traced run spends this share of --seconds on the untraced rounds that
# trace.overhead_s is measured against, and the rest on the traced pass.
UNTRACED_SHARE_WHEN_TRACING = 0.5

WORKLOADS = ("verify-ladder", "catalog-gamma", "session-sweep")

# Per-layer metrics from tracing.aggregate, with their units.
PER_LAYER = {
    "cycle_types.self_s": "s",
    "cycle_types.partitions.calls": "count",
    "cycle_types.partitions.items": "count",
    "cycle_types.partitions.self_s": "s",
    "cycle_types.class_universe.self_s": "s",
    "subgroups.self_s": "s",
    "subgroups.class_coverage.calls": "count",
    "subgroups.class_coverage.intransitive.self_s": "s",
    "subgroups.class_coverage.imprimitive.self_s": "s",
    "subgroups.class_coverage.intersect_alt.self_s": "s",
    "subgroups.class_coverage.named.self_s": "s",
    "subgroups.contains_type.calls": "count",
    "subgroups.contains_type.self_s": "s",
    "subgroups.named_group.self_s": "s",
    "subgroups.load_catalog.self_s": "s",
    "coverings.self_s": "s",
    "coverings.verify_basic_set.self_s": "s",
    "coverings.CoverReport.to_json.self_s": "s",
    "coverings.exact_gamma.self_s": "s",
    "permgroup.self_s": "s",
    "permgroup.closure.calls": "count",
    "permgroup.closure.elements": "count",
    "permgroup.closure.self_s": "s",
    "permgroup.type_spectrum.self_s": "s",
    "permgroup.alt_class_coverage.self_s": "s",
    "numtheory.self_s": "s",
    "numtheory.factorize.calls": "count",
    "numtheory.factorize.self_s": "s",
    "numtheory.phi_interval.self_s": "s",
    "bounds.self_s": "s",
    "bounds.bounds_report.calls": "count",
    "cli.self_s": "s",
}
# Where a metric's name differs from its key in tracing.aggregate's output.
AGGREGATE_KEY = {"permgroup.closure.elements": "permgroup.closure.items"}


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, a broken check or a crashed child."""


@dataclass
class Op:
    """One CLI command and the check of its exit code and stdout."""

    name: str
    argv: list[str]
    check: Callable[[int, str], list[str]]


@dataclass
class Child:
    rc: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "NCK_DATA_DIR"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str], env: dict[str, str]) -> Child:
    """Run one child to its end; wall time from spawn to reap, peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall, usage.ru_maxrss / 1024)


def setup_probes(times: timing.Scaled, env: dict[str, str]) -> None:
    try:
        timing.setup_probes(times, env, ROOT)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        raise BenchError(str(exc)) from exc


# --- verify-ladder --------------------------------------------------------------

# Every construction family on S_n and A_n: composite n, p^a, pq, p^a q^b, and
# odd primes through 29, the largest with AGL_1 data. Degrees stay at 26 or
# below, except for AGL_1(29), so that a round is short and each command gets
# many repeats within a run.
LADDER = [
    ("upper_sym", {"n": 26}),
    ("upper_sym", {"n": 21}),
    ("upper_alt_even", {"n": 24}),
    ("upper_alt_odd", {"n": 25}),
    ("upper_alt_odd", {"n": 23}),
    ("sym_prime", {"p": 29}),
    ("prime_power", {"p": 5, "alpha": 2}),
    ("prime_power", {"p": 2, "alpha": 4, "group": "alt"}),
    ("two_primes", {"p": 2, "q": 11}),
    ("two_primes", {"p": 3, "q": 7, "group": "alt"}),
    ("two_prime_powers", {"p": 2, "q": 5, "alpha": 2, "beta": 1}),
    ("two_prime_powers", {"p": 2, "q": 3, "alpha": 3, "beta": 1, "group": "alt"}),
    ("special_s10", {}),
]
REMOVED_N = 25
JSON_N = 22
SPECIAL_DEGREE = {"special_s10": 10, "special_a9": 9, "special_a11": 11}


def family_degree(fam: str, params: dict) -> int:
    if fam in SPECIAL_DEGREE:
        return SPECIAL_DEGREE[fam]
    if "n" in params:
        return params["n"]
    if fam == "sym_prime":
        return params["p"]
    if fam == "prime_power":
        return params["p"] ** params["alpha"]
    if fam == "two_primes":
        return params["p"] * params["q"]
    return params["p"] ** params["alpha"] * params["q"] ** params["beta"]


def family_argv(fam: str, params: dict) -> list[str]:
    argv = ["verify", "--family", fam]
    for key, val in params.items():
        argv += [f"--{key}", str(val)]
    return argv


def parse_verify_text(out: str) -> tuple[str, int, int, bool, list[str]]:
    lines = out.splitlines()
    m = re.fullmatch(r"group ([SA])(\d+): (\d+) components", lines[0])
    if m is None:
        raise ValueError(f"unexpected first line {lines[0]!r}")
    uncovered = []
    if "NOT covered; missed classes:" in lines:
        uncovered = [line.strip() for line in lines[lines.index("NOT covered; missed classes:") + 1 :]]
    covered = "covered: every conjugacy class is met" in lines
    return m.group(1), int(m.group(2)), int(m.group(3)), covered, uncovered


def verify_op(fam: str, params: dict) -> Op:
    n = family_degree(fam, params)
    alt_only = ("upper_alt_even", "upper_alt_odd", "special_a9", "special_a11")
    kind = "A" if params.get("group") == "alt" or fam in alt_only else "S"

    def check(rc: int, out: str) -> list[str]:
        got_kind, got_n, count, covered, _ = parse_verify_text(out)
        probs = oracle.check_cover(rc, covered, count, fam, n)
        if (got_kind, got_n) != (kind, n):
            probs.append(f"{fam}: reports group {got_kind}{got_n}, expected {kind}{n}")
        return probs

    return Op(f"verify {fam} {kind}{n}", family_argv(fam, params), check)


def removed_op(n: int, k: int) -> Op:
    comps = [c for c in oracle.upper_sym_components(n) if c != {"kind": "intransitive", "k": k}]
    path = OUT / "removed-set.json"
    path.write_text(json.dumps({"group": f"S{n}", "components": comps, "provenance": f"upper_sym without {k}"}))

    def check(rc: int, out: str) -> list[str]:
        _, _, count, _, uncovered = parse_verify_text(out)
        probs = oracle.check_removed(rc, uncovered, n, k, comps)
        if count != len(comps):
            probs.append(f"S_{n} without intransitive:{k}: {count} components, the file has {len(comps)}")
        return probs

    return Op(f"verify S{n} without intransitive:{k}", ["verify", "--file", str(path.relative_to(ROOT))], check)


def json_op(n: int) -> Op:
    def check(rc: int, out: str) -> list[str]:
        obj = json.loads(out)
        rep = obj["report"]
        probs = oracle.check_cover(rc, rep["covered"], len(obj["basic_set"]["components"]), "upper_sym", n)
        return probs + oracle.check_coverage_union(list(rep["coverage"].values()), n, rep["uncovered"])

    return Op(f"verify upper_sym S{n} json", family_argv("upper_sym", {"n": n}) + ["--format", "json"], check)


def ladder_ops(rng: random.Random) -> list[Op]:
    ops = [verify_op(fam, params) for fam, params in LADDER]
    k = rng.choice([k for k in range(1, (REMOVED_N + 1) // 2) if gcd(k, REMOVED_N) == 1])
    return ops + [removed_op(REMOVED_N, k), json_op(JSON_N)]


# --- catalog-gamma ---------------------------------------------------------------

NAMED = (("M12", 12), ("M12:2", 12), ("M11", 11))


def load_spectra() -> dict[str, set]:
    data = json.loads((BENCH / "expected" / "named_spectra.json").read_text())
    return {name: {tuple(t) for t in rec["types"]} for name, rec in data.items()}


def catalog_entries(kind: str, n: int) -> list[dict]:
    return json.loads((SRC / "normcov" / "data" / "catalogs" / f"{kind}{n}.json").read_text())["subgroups"]


def table3_op() -> Op:
    def check(rc: int, out: str) -> list[str]:
        obj = json.loads(out)
        return ([f"table3: exit {rc}"] if rc else []) + oracle.check_table3(obj["sym"], obj["alt"])

    return Op("table3", ["table3", "--format", "json"], check)


def gamma_op(n: int, group: str) -> Op:
    kind = "S" if group == "sym" else "A"
    catalog = catalog_entries(kind, n)

    def check(rc: int, out: str) -> list[str]:
        obj = json.loads(out)
        probs = [f"gamma {n} {group}: exit {rc}"] if rc else []
        if obj["exact"] is not True:
            probs.append(f"gamma {n} {group}: not exact over a complete catalog")
        return probs + oracle.check_gamma(kind, n, obj["gamma"], obj["witness"]["components"], catalog)

    return Op(f"gamma {n} {group}", ["gamma", str(n), group, "--format", "json"], check)


def membership_op(name: str, n: int, parts: tuple[int, ...], spectrum: set, text: str) -> Op:
    def check(rc: int, out: str) -> list[str]:
        m = re.search(r": (yes|no) \(", out)
        if rc or m is None:
            return [f"membership {name} {text}: exit {rc}, output {out!r}"]
        return oracle.check_membership(m.group(1) == "yes", spectrum, parts, name)

    return Op(f"membership {name} {oracle.type_str(parts)}", ["membership", str(n), f"named:{name}", text], check)


def catalog_ops(rng: random.Random) -> list[Op]:
    ops = [table3_op()]
    ops += [gamma_op(n, g) for n in range(9, 13) for g in ("sym", "alt")]
    spectra = load_spectra()
    flip = rng.randrange(2)
    for i, (name, n) in enumerate(NAMED):
        # One query per group, alternating between a type in its spectrum and one outside.
        spectrum = spectra[name]
        inside = (i + flip) % 2 == 0
        parts = rng.choice([t for t in oracle.partitions(n) if (t in spectrum) == inside])
        shuffled = list(parts)
        rng.shuffle(shuffled)
        ops.append(membership_op(name, n, parts, spectrum, "[" + ",".join(map(str, shuffled)) + "]"))
    ops += [verify_op("special_a9", {}), verify_op("special_a11", {})]
    return ops


# --- measurement -----------------------------------------------------------------


class Tally:
    """What a run saw: operations attempted and failed, wrong outputs, each
    operation's scaled time, peak RSS, set-up and host-speed samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.op_s: dict[str, float] = {}
        self.fastest: dict[str, float] = {}
        self.rss_mb = 0.0
        self.setup: list[float] = []
        self.host: list[float] = []
        self.rounds = 0

    def record(self, op: Op, child: Child, times: timing.Scaled) -> None:
        self.attempted += 1
        if child.rc not in (0, 1):
            self.failed += 1
            self.errors.append(f"{op.name}: exit {child.rc}: {child.err.strip()[-300:]}")
            return
        try:
            self.wrong.extend(op.check(child.rc, child.out))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.wrong.append(f"{op.name}: unreadable output ({exc}): {child.out[:200]!r}")
        times.add(op.name, child.wall_s)
        self.rss_mb = max(self.rss_mb, child.rss_mb)

    def absorb(self, summary: dict) -> None:
        """Add the counts of a session child's summary."""
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.errors += summary["errors"]
        self.wrong += summary["wrong"]

    def end_to_end(self) -> dict[str, float]:
        setup_s = statistics.median(self.setup)
        return dict(timing.op_metrics(self.op_s), peak_rss_mb=self.rss_mb, setup_s=setup_s)


def run_cli_workload(ops: list[Op], rng: random.Random, seconds: float, trace: bool, tag: str) -> tuple[Tally, dict]:
    env = child_env()
    cli = [PY, "-m", "normcov.cli"]
    run_child(cli + ops[0].argv, env)  # warm-up, discarded: compiles bytecode after a checkout
    tally, times, setup = Tally(), timing.Scaled(), timing.Scaled()
    started, round_s = perf_counter(), 0.0
    while timing.more_rounds(tally.rounds, started, round_s, seconds):
        t0 = perf_counter()
        setup_probes(setup, env)
        order = ops[:]
        rng.shuffle(order)
        times.mark()
        for op in order:
            tally.record(op, run_child(cli + op.argv, env), times)
            times.mark()
        tally.rounds += 1
        round_s = perf_counter() - t0
    tally.op_s, tally.fastest, tally.host = times.typical(), times.fastest, times.refs
    tally.setup = setup.samples[timing.SETUP]
    metrics = tally.end_to_end()
    if not trace:
        return tally, metrics

    tdir = OUT / f"trace-{tag}"
    shutil.rmtree(tdir, ignore_errors=True)
    tdir.mkdir(parents=True)
    traced, stdout_bytes, spans = timing.Scaled(), 0, []
    traced.mark()
    for i, op in enumerate(ops, 1):
        path = tdir / f"op{i:02d}.jsonl"
        child = run_child([PY, str(BENCH / "cli_child.py"), str(path), str(i), "--"] + op.argv, env)
        tally.record(op, child, traced)
        traced.mark()
        stdout_bytes += len(child.out.encode())
        if path.exists():
            spans += tracing.load(str(path))
    layers = per_layer(tracing.aggregate(spans))
    layers["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    layers["trace.overhead_s"] = (traced.total() - metrics["wall_s"], "s")
    return tally, layers


def per_layer(agg: dict[str, float]) -> dict[str, tuple[float, str]]:
    return {name: (agg.get(AGGREGATE_KEY.get(name, name), 0), unit) for name, unit in PER_LAYER.items()}


def run_session(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    env = child_env()
    tally = Tally()
    setup_probes(timing.Scaled(), env)  # warm-up, discarded: compiles bytecode after a checkout
    result = OUT / "session-result.json"
    base = [PY, str(BENCH / "session.py"), "--seed", str(seed), "--out", str(result)]

    def session(extra: list[str]) -> tuple[dict, Child]:
        child = run_child(base + ["--seconds", str(seconds)] + extra, env)
        if child.rc != 0:
            raise BenchError(f"session child exited {child.rc}:\n{child.err[-2000:]}")
        return json.loads(result.read_text()), child

    summary, child = session([])
    tally.absorb(summary)
    tally.op_s, tally.fastest, tally.host = summary["op_s"], summary["fastest"], summary["host"]
    tally.setup = summary["setup"]
    tally.rounds, tally.rss_mb = summary["rounds"], child.rss_mb
    metrics = tally.end_to_end()
    if not trace:
        return tally, metrics
    tdir = OUT / "trace-session-sweep"
    shutil.rmtree(tdir, ignore_errors=True)
    traced, _ = session(["--trace-dir", str(tdir)])
    tally.absorb(traced)
    layers = per_layer(tracing.aggregate(tracing.load(str(tdir / "session.jsonl"))))
    layers["cli.stdout_bytes"] = (0, "bytes")
    layers["trace.overhead_s"] = (traced["traced_wall_s"] - metrics["wall_s"], "s")
    return tally, layers


UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "normcov" / "__init__.py").is_file():
        print(f"error: no normcov sources under {SRC}", file=sys.stderr)
        return 2
    broken = oracle.selftest()
    if broken:
        print("error: output checks failed their self-test:\n" + "\n".join(broken), file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    seconds = args.seconds * (UNTRACED_SHARE_WHEN_TRACING if args.trace else 1)
    try:
        if args.workload == "session-sweep":
            tally, metrics = run_session(args.seed, seconds, bool(args.trace))
        else:
            ops = ladder_ops(rng) if args.workload == "verify-ladder" else catalog_ops(rng)
            tally, metrics = run_cli_workload(ops, rng, seconds, bool(args.trace), args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    if args.trace:
        out_metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    else:
        out_metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}
    for line in tally.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in tally.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(timing.host_line(tally.host))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": tally.rounds,
              "op_s": tally.op_s, "fastest_s": tally.fastest, "setup_s": tally.setup,
              "host_ref_s": tally.host}
    (OUT / f"detail-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
