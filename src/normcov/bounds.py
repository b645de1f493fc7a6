"""Closed-form bounds on the minimal number of basic components.

Lower bounds come from counting coprime residues in intervals, upper bounds
from the explicit constructions in coverings, and for degrees with at most two
prime divisors the value phi(n)/2 + delta is exact on one side of the
symmetric/alternating divide. Lower bounds are kept as exact rationals with
the usable integer ceiling alongside.
"""

from __future__ import annotations

from math import gcd

from . import _value
from ._value import Value
from .cycle_types import GroupId, GroupKind
from .numtheory import _phi, _phi_interval, factorize, primes_up_to

__all__ = [
    "BoundReport",
    "PhiHalfBound",
    "TABLE3_ALT",
    "TABLE3_SYM",
    "bounds_report",
    "exact_small_gamma",
    "general_upper",
    "phi_half_bound",
    "power_of_two_band",
    "sym_alt_gap_table",
    "totient_lower",
]

# Exact minimal basic set sizes for small degrees, reproduced by the exact
# set cover over the built-in catalogs (see tests). For A_12 the minimum is 3,
# not phi(12)/2 + 2 = 4: the classes of (S_5 x S_7) meet A_12,
# (S_3 wr S_4) meet A_12 and M_12 cover A_12, which the test suite verifies
# by exhaustive element enumeration.
TABLE3_SYM = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 3, 11: 5, 12: 4}
TABLE3_ALT = {4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 4, 12: 3}

_BOTH = (GroupKind.SYM, GroupKind.ALT)


def exact_small_gamma(g: GroupId) -> int | None:
    table = TABLE3_SYM if g.kind is GroupKind.SYM else TABLE3_ALT
    return table.get(g.degree)


def general_upper(g: GroupId) -> int:
    """Upper bound valid for every degree n >= 4.

    floor((n+4)/4) for even n (both groups), (n-1)/2 for odd symmetric,
    floor((n+3)/3) for odd alternating.
    """
    n = g.degree
    if n < 4:
        raise ValueError(f"general upper bound needs n >= 4, got {n}")
    if n % 2 == 0:
        return (n + 4) // 4
    if g.kind is GroupKind.SYM:
        return (n - 1) // 2
    return (n + 3) // 3


def totient_lower(g: GroupId) -> Fraction:
    """Lower bound for n >= 5, as an exact rational.

    Symmetric odd composite and alternating even (except degree 8) get
    phi(n)/2 + 1; symmetric prime and A_8 get phi(n)/2; alternating odd gets
    (phi(n)+2)/4, or phi(n)/4 when n = 2^e + 1; symmetric even degrees count
    coprime residues in an interval that depends on n mod 9.
    """
    n = g.degree
    if n < 5:
        raise ValueError(f"totient lower bound needs n >= 5, got {n}")
    return _value.Fraction(*_totient_lower(g, factorize(n)))


def _totient_lower(g: GroupId, fac: list[tuple[int, int]]) -> tuple[int, int]:
    """totient_lower(g) as (numerator, denominator), not reduced, given fac = factorize(g.degree)."""
    n = g.degree
    phi = _phi(n, fac)
    if g.kind is GroupKind.SYM:
        if n % 2 == 1:
            return (phi, 2) if fac == [(n, 1)] else (phi + 2, 2)
        # coprime i in I(n), over c(n), plus 1: I(n) = [1, (n-1)/3) with c = 2
        # if 3 does not divide n, [1, n/9) if 9 does not, else [n/18, n/6)
        if n % 3:
            return _phi_interval(1, (n - 2) // 3, fac) + 2, 2
        if n % 9:
            return _phi_interval(1, n // 9, fac) + 1, 1
        return _phi_interval(n // 18, n // 6 - 1, fac) + 1, 1
    if n % 2 == 0:
        return (phi, 2) if n == 8 else (phi + 2, 2)
    if (n - 1) & (n - 2) == 0:  # n = 2**e + 1
        return phi, 4
    return phi + 2, 4


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den >= 1."""
    d = gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


class PhiHalfBound(Value):
    """The bound phi(n)/2 + delta for n with at most two prime divisors.

    groups holds the kinds it applies to, in GroupKind order, so the repr is
    the same in every process.
    """

    __slots__ = ("n", "delta", "bound", "groups")

    def __init__(self, n: int, delta: int, bound: int, groups: tuple[GroupKind, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "groups", groups)

    def applies_to(self, kind: GroupKind) -> bool:
        return kind in self.groups

    def exact_for(self, kind: GroupKind) -> bool:
        """Equality holds for symmetric odd and alternating even degrees.

        Exception: A_12, where a basic set of size 3 beats the bound of 4
        (see TABLE3_ALT).
        """
        if kind not in self.groups:
            return False
        if kind is GroupKind.ALT and self.n == 12:
            return False
        return (kind is GroupKind.SYM) == (self.n % 2 == 1)


def phi_half_bound(n: int) -> PhiHalfBound:
    """phi(n)/2 + delta(n) for n = p, p^a, pq or p^a q^b.

    delta is 0 for a prime (p >= 5, symmetric group only), 1 for a proper
    prime power (p odd or p = 2 with exponent >= 4) and for pq, and 2 when
    the exponents sum to at least 3. Out-of-scope n raises ValueError.
    """
    return _phi_half_bound(n, factorize(n))


def _phi_half_bound(n: int, fac: list[tuple[int, int]]) -> PhiHalfBound:
    """phi_half_bound(n), given fac = factorize(n)."""
    half = _phi(n, fac) // 2
    if len(fac) == 1:
        p, a = fac[0]
        if a == 1:
            if p < 5:
                raise ValueError(f"prime degree must be >= 5, got {n}")
            return PhiHalfBound(n, 0, half, (GroupKind.SYM,))
        if p == 2:
            if a < 4:
                raise ValueError(f"powers of two need exponent >= 4, got 2**{a}")
            return PhiHalfBound(n, 1, half + 1, _BOTH)
        return PhiHalfBound(n, 1, half + 1, (GroupKind.SYM,))
    if len(fac) == 2:
        (_, a), (_, b) = fac
        delta = 1 if a + b == 2 else 2
        return PhiHalfBound(n, delta, half + delta, _BOTH)
    raise ValueError(f"{n} has {len(fac)} distinct prime divisors; at most two supported")


def power_of_two_band(alpha: int) -> tuple[Fraction, int]:
    """Lower/upper band for the symmetric group of degree 2**alpha, alpha >= 2."""
    if alpha < 2:
        raise ValueError(f"need alpha >= 2, got {alpha}")
    q = 2 ** (alpha - 2)
    return _value.Fraction(q + 2, 3), q + 1


class BoundReport(Value):
    """Best available bounds for one group, with the rule behind each value."""

    __slots__ = ("group", "lower", "lower_ceil", "upper", "exact", "sources")

    def __init__(
        self,
        group: GroupId,
        lower: Fraction,
        lower_ceil: int,
        upper: int,
        exact: int | None,
        sources: tuple[tuple[str, str], ...],
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "lower_ceil", lower_ceil)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "sources", sources)

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "lower": str(self.lower),
            "lower_ceil": self.lower_ceil,
            "upper": self.upper,
            "exact": self.exact,
            "sources": [{"value": v, "rule": r} for v, r in self.sources],
        }


def bounds_report(g: GroupId) -> BoundReport:
    """Aggregate every applicable bound and exact value for the group.

    Lower bounds are integer ratios (num, den) until the one Fraction of the
    report is made.
    """
    n = g.degree
    if n < 4 and not (g.kind is GroupKind.SYM and n == 3):
        raise ValueError(f"bounds need degree >= 4, got {g}")
    fac = factorize(n)
    sources: list[tuple[str, str]] = []

    if n >= 5:
        num, den = _totient_lower(g, fac)
        sources.append((_ratio_str(num, den), "totient lower bound"))
    else:
        num, den = 2, 1
        sources.append(("2", "minimum for a non-cyclic group"))

    uppers: list[int] = []
    if n >= 4:
        gu = general_upper(g)
        uppers.append(gu)
        sources.append((str(gu), "general upper bound"))

    exact: int | None = exact_small_gamma(g)
    if exact is not None:
        sources.append((str(exact), "small-degree exact value"))

    if g.kind is GroupKind.SYM and len(fac) == 1 and fac[0][0] == 2 and fac[0][1] >= 2:
        lo, hi = power_of_two_band(fac[0][1])
        if lo.numerator * den > num * lo.denominator:
            num, den = lo.numerator, lo.denominator
        uppers.append(hi)
        sources.append((f"[{lo}, {hi}]", "power-of-two band"))

    phb = None
    if len(fac) <= 2:
        try:
            phb = _phi_half_bound(n, fac)
        except ValueError:
            pass
    if phb is not None and phb.applies_to(g.kind):
        uppers.append(phb.bound)
        sources.append((str(phb.bound), f"phi(n)/2 + {phb.delta} upper bound"))
        if phb.exact_for(g.kind) and exact is None:
            exact = phb.bound
            sources.append((str(exact), "phi(n)/2 + delta equality"))

    if exact is not None:
        uppers.append(exact)

    return BoundReport(
        group=g,
        lower=_value.Fraction(num, den),
        lower_ceil=-(-num // den),
        upper=min(uppers),
        exact=exact,
        sources=tuple(sources),
    )


def sym_alt_gap_table(p_max: int) -> list[tuple[int, int]]:
    """For primes 5 <= p <= p_max: the provable gap (p-1)/2 - floor((p+3)/3).

    The gap between the symmetric and alternating minima at prime degree is at
    least this value, which grows like p/6.
    """
    if p_max > 10**4:
        raise ValueError(f"p_max capped at 10**4, got {p_max}")
    return [(p, (p - 1) // 2 - (p + 3) // 3) for p in primes_up_to(p_max) if p >= 5]
