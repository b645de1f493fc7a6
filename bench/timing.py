"""Timing helpers shared by bench/run.py and its session child.

The benchmark runs on shared hosts whose speed drifts by half or more within
minutes. So every stretch of timed work is bracketed by samples of a fixed
pure-Python workload, the host-speed reference, and each time is scaled to a
host on which that workload takes REF_NOMINAL_S. An operation's time is the
median of its scaled repeats.
"""

from __future__ import annotations

import functools
import random
import statistics
import subprocess
import sys
from time import perf_counter

# Every run attempts at least this many whole timed rounds, then stops before
# a round that would end past its time budget.
MIN_ROUNDS = 2

# The reference has two halves of about equal length: integer arithmetic,
# and reads at random places in a list of floats of about 13 MB. A shared
# host slows cache-heavy work more than arithmetic, and normcov does both.
_HOST_LOOP = 40_000
_POOL_SIZE = 400_000
_POOL_READS = 8_000
# Scaled times are seconds on a host where the reference takes this long:
# about its median on the 2-vCPU VM the benchmark was tuned on.
REF_NOMINAL_S = 0.007


@functools.cache
def _pool() -> tuple[list[float], list[int]]:
    rng = random.Random(0)
    return [rng.random() for _ in range(_POOL_SIZE)], rng.sample(range(_POOL_SIZE), _POOL_READS)


def host_ref() -> float:
    """Seconds for a fixed pure-Python workload: a gauge of host speed."""
    floats, order = _pool()
    start = perf_counter()
    acc = 0
    for i in range(_HOST_LOOP):
        acc += i * i % 7
    total = 0.0
    for i in order:
        total += floats[i]
    return perf_counter() - start


class Scaled:
    """Operation times, each scaled by the reference samples around it.

    Call ``mark`` before the first ``add`` and after the last; each ``add``
    is scaled by the mean of the two samples that bracket it.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.fastest: dict[str, float] = {}
        self.refs: list[float] = []
        self._pending: list[tuple[str, float]] = []

    def add(self, name: str, took: float) -> None:
        self._pending.append((name, took))
        self.fastest[name] = min(self.fastest.get(name, float("inf")), took)

    def mark(self) -> None:
        ref = host_ref()
        if self._pending:
            factor = 2 * REF_NOMINAL_S / (self.refs[-1] + ref)
            for name, took in self._pending:
                self.samples.setdefault(name, []).append(took * factor)
            self._pending.clear()
        self.refs.append(ref)

    def typical(self) -> dict[str, float]:
        """Each operation's median scaled time, in seconds."""
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def total(self) -> float:
        return sum(sum(v) for v in self.samples.values())


# Each probe is a fresh interpreter that times its own `import normcov`, so
# interpreter start-up is left out of set-up time.
_PROBE = "import time; t = time.perf_counter(); import normcov; print(time.perf_counter() - t)"
SETUP_PROBES_PER_ROUND = 3
SETUP = "import normcov"


def setup_probes(times: Scaled, env: dict[str, str] | None = None, cwd=None) -> None:
    """Time SETUP_PROBES_PER_ROUND fresh interpreters' import into times, under SETUP."""
    times.mark()
    for _ in range(SETUP_PROBES_PER_ROUND):
        done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"import normcov failed:\n{done.stderr}")
        times.add(SETUP, float(done.stdout))
        times.mark()


def more_rounds(rounds: int, started: float, round_s: float, budget_s: float) -> bool:
    if rounds < MIN_ROUNDS:
        return True
    return perf_counter() - started + round_s <= budget_s


def op_metrics(op_s: dict[str, float]) -> dict[str, float]:
    """wall_s, op_p50_ms and op_p99_ms from each operation's scaled time."""
    values = list(op_s.values())
    return {
        "wall_s": sum(values),
        "op_p50_ms": statistics.median(values) * 1e3,
        "op_p99_ms": statistics.quantiles(values, n=100, method="inclusive")[98] * 1e3,
    }


def host_line(samples: list[float]) -> str:
    return (
        f"host_ref: fastest {min(samples) * 1e3:.3f} ms, median {statistics.median(samples) * 1e3:.3f} ms, "
        f"slowest {max(samples) * 1e3:.3f} ms over {len(samples)} samples "
        f"(host speed; times are scaled to a reference of {REF_NOMINAL_S * 1e3:g} ms)"
    )
