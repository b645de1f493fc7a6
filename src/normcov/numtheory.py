"""Exact integer arithmetic underpinning every bound in this package.

All counting here is exact. Interval endpoints are rationals, divisibility is
integer divisibility, and no float ever enters a code path that produces a
number used in a bound.
"""

from __future__ import annotations

import re
import sys
from itertools import count
from math import ceil, floor, gcd, isqrt

from . import _value
from ._value import Value

__all__ = [
    "Interval",
    "TotientReport",
    "a_of_n",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "moebius",
    "nu",
    "p0_of_n",
    "phi_interval",
    "primes_up_to",
    "squarefree_divisors",
    "totient_report",
]

def _check_positive(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")


# Brent's rho finds a prime factor p in about sqrt(p) steps. A cofactor that
# reaches it lies below 3.317e24, where is_prime is exact, so it has a factor
# below 1.83e12: up to about 2**22 steps, some seconds. The margin is four.
_RHO_STEPS = 1 << 24


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n, as (prime, exponent) pairs.

    Trial division up to 1000; a composite cofactor is then split by Brent's
    variant of Pollard's rho. ValueError for a cofactor above is_prime's range
    or one that rho does not split within _RHO_STEPS steps.
    """
    _check_positive(n)
    twos = (n & -n).bit_length() - 1
    out: list[tuple[int, int]] = [(2, twos)] if twos else []
    m = n >> twos
    p = 3
    while p * p <= m and p < 1000:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 2
    if p * p <= m:
        big = _split(m)
        out += [(q, big.count(q)) for q in sorted(set(big))]
    elif m > 1:
        out.append((m, 1))
    return out


def _split(m: int) -> list[int]:
    """The prime factors of m > 1, with repeats, when m has none below 1000."""
    if _miller_rabin(m):
        return [m]
    d = _rho(m)
    return _split(d) + _split(m // d)


def _rho(m: int) -> int:
    """A proper factor of the odd composite m by Brent's rho, trying x*x + c for c = 1, 2, ... in turn."""
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            steps += r
            if steps > _RHO_STEPS:
                raise ValueError(f"{m} did not split within {_RHO_STEPS} steps of Pollard's rho")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
                g = gcd(x - y, m)
                if g != 1:
                    break
            r *= 2
        if g != m:
            return g


# Miller-Rabin with the 13 prime bases up to 41 is exact below this bound
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017): it is the least strong
# pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by factors up to 1000, then deterministic Miller-Rabin.

    Every n below 10**6 is decided by trial division alone. Raises ValueError
    for an n of at least 3.317e24 with no factor up to 1000: the bases are
    proven only below that.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f, top = 3, n if n < 10**6 else 10**6
    while f * f <= top:
        if n % f == 0:
            return False
        f += 2
    if top == n:
        return True
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Exact primality of an odd n > 41 with no prime factor up to 1000, by the 13 bases."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} has no prime factor up to 1000 and is too large for an exact primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i in range(limit + 1) if sieve[i]]


def euler_phi(n: int) -> int:
    """Count of integers in 1..n coprime to n."""
    return _phi(n, factorize(n))


def _phi(n: int, fac: list[tuple[int, int]]) -> int:
    """euler_phi(n), given fac = factorize(n)."""
    for p, _ in fac:
        n = n // p * (p - 1)
    return n


def nu(n: int) -> int:
    """Number of distinct prime divisors of n."""
    return len(factorize(n))


def moebius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)**nu(n)."""
    return _moebius(factorize(n))


def _moebius(fac: list[tuple[int, int]]) -> int:
    """moebius(n), given fac = factorize(n)."""
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, built from factorize."""
    out = [1]
    for p, e in factorize(n):
        out += [d * p**i for i in range(1, e + 1) for d in out]
    return sorted(out)


def squarefree_divisors(n: int) -> list[int]:
    """Squarefree divisors of n, ascending; there are exactly 2**nu(n)."""
    _check_positive(n)
    out = [1]
    for p, _ in factorize(n):
        out += [d * p for d in out]
    return sorted(out)


def a_of_n(n: int) -> int:
    """Least positive integer that does not divide n.

    The result is always a prime power p**k with gcd(n, result) == p**(k-1).
    """
    _check_positive(n)
    m = 2
    while n % m == 0:
        m += 1
    return m


def p0_of_n(n: int) -> int:
    """Least prime that does not divide n."""
    _check_positive(n)
    return next(p for p in count(2) if n % p and is_prime(p))


class TotientReport(Value):
    """phi, nu and mu of a single integer, bundled."""

    __slots__ = ("n", "phi", "nu", "mu")

    def __init__(self, n: int, phi: int, nu: int, mu: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)


def totient_report(n: int) -> TotientReport:
    fac = factorize(n)
    return TotientReport(n=n, phi=_phi(n, fac), nu=len(fac), mu=_moebius(fac))


# An endpoint is an integer, a decimal or p/q: no exponent, which Fraction would expand digit by digit.
_ENDPOINT = r"[+-]?(?:\d+/\d+|\d+(?:\.\d*)?|\.\d+)"
_INTERVAL_RE = re.compile(rf"^\s*([\[(])\s*({_ENDPOINT})\s*,\s*({_ENDPOINT})\s*([\])])\s*$", re.ASCII)


class Interval(Value):
    """An interval with exact rational endpoints, each open or closed.

    Defaults describe the half-open interval [lo, hi) which is the common
    shape for the coprime-counting bounds.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: Fraction, hi: Fraction, lo_open: bool = False, hi_open: bool = True) -> None:
        if isinstance(lo, float) or isinstance(hi, float):
            raise ValueError(f"interval endpoints must be exact, not floats: lo={lo!r}, hi={hi!r}")
        lo, hi = _value.Fraction(lo), _value.Fraction(hi)
        if lo < 0:
            raise ValueError(f"interval endpoints must be nonnegative, got lo={lo}")
        if lo > hi:
            raise ValueError(f"empty orientation: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_open", lo_open)
        object.__setattr__(self, "hi_open", hi_open)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse bracket notation such as "[2,11/2)", "(1,8]" or "[0.5,3)"; endpoints are integers, decimals or p/q."""
        m = _INTERVAL_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse interval {text!r}")
        lo_b, lo_s, hi_s, hi_b = m.groups()
        try:
            lo, hi = _value.Fraction(lo_s), _value.Fraction(hi_s)
        except ZeroDivisionError:
            raise ValueError(f"cannot parse interval {text!r}: zero denominator") from None
        except ValueError:  # only Python's limit on digits per integer conversion fails a matched endpoint
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"cannot parse interval {text!r}: an endpoint exceeds the limit of {limit} digits") from None
        return cls(lo=lo, hi=hi, lo_open=(lo_b == "("), hi_open=(hi_b == ")"))

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def first_integer(self) -> int:
        """Smallest integer inside the interval (may exceed last_integer)."""
        i = ceil(self.lo)
        if self.lo_open and i == self.lo:
            i += 1
        return i

    def last_integer(self) -> int:
        j = floor(self.hi)
        if self.hi_open and j == self.hi:
            j -= 1
        return j

    def contains(self, x: int | Fraction) -> bool:
        if self.lo_open:
            if x <= self.lo:
                return False
        elif x < self.lo:
            return False
        if self.hi_open:
            return x < self.hi
        return x <= self.hi

    def __str__(self) -> str:
        def fmt(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        return ("(" if self.lo_open else "[") + f"{fmt(self.lo)},{fmt(self.hi)}" + (")" if self.hi_open else "]")


def phi_interval(iv: Interval, n: int) -> int:
    """Exact count of integers i >= 1 in the interval with gcd(i, n) == 1.

    Counted by Moebius inclusion-exclusion over the squarefree divisors of n.
    The count always differs from (phi(n)/n) * |interval| by at most
    2**(nu(n)+1); tests exercise that error bound.
    """
    _check_positive(n)
    if iv.lo < 0 or iv.hi > n:
        raise ValueError(f"interval {iv} not contained in [0, {n}]")
    return _phi_interval(max(iv.first_integer(), 1), iv.last_integer(), factorize(n))


def _phi_interval(a: int, b: int, fac: list[tuple[int, int]]) -> int:
    """Count of integers a <= i <= b with gcd(i, n) == 1, given fac = factorize(n) and 1 <= a."""
    if b < a:
        return 0
    # (moebius(d), d) for every squarefree divisor d of n
    signed = [(1, 1)]
    for p, _ in fac:
        signed += [(-mu, d * p) for mu, d in signed]
    return sum(mu * (b // d - (a - 1) // d) for mu, d in signed)
