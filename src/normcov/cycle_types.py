"""Partitions of n as conjugacy class labels for symmetric and alternating groups.

A cycle type names an S_n class; an alternating class needs an extra tag when
the type splits (all parts odd and pairwise distinct). This module also builds
the distinguished families of two- and three-part types used by the lower
bound arguments.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from math import gcd

from . import _value
from ._value import Ordered
from .numtheory import Interval, a_of_n

__all__ = [
    "MAX_PARTITION_DEGREE",
    "ClassId",
    "CycleType",
    "GroupId",
    "GroupKind",
    "Parity",
    "SplitTag",
    "class_universe",
    "is_split",
    "parity",
    "partitions",
    "t_prime_set",
    "t_set",
    "u_set",
]

# Keeps the partition count (and hence any class universe) below ~10**6.
MAX_PARTITION_DEGREE = 60


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@total_ordering
class _ByValue(Enum):
    """An enum whose members compare by value, so that ClassId and GroupId order totally."""

    def __lt__(self, other):
        return self.value < other.value if type(other) is type(self) else NotImplemented


class SplitTag(_ByValue):
    NOT_SPLIT = ""
    PLUS = "+"
    MINUS = "-"


class GroupKind(_ByValue):
    SYM = "S"
    ALT = "A"


# the words that name a kind, matched in any case
_KIND_WORDS = {"sym": GroupKind.SYM, "s": GroupKind.SYM, "alt": GroupKind.ALT, "a": GroupKind.ALT}


def _group_kind(word: str | GroupKind) -> GroupKind:
    """A GroupKind as it is, or the kind a word names: "sym" or "s", "alt" or "a"."""
    if isinstance(word, GroupKind):
        return word
    kind = _KIND_WORDS.get(str(word).lower())
    if kind is None:
        raise ValueError(f"unknown group kind {word!r}")
    return kind


class CycleType(Ordered):
    """A partition of n, parts stored as a descending tuple whatever order they come in; names an S_n class."""

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        parts = tuple(sorted(parts, reverse=True))
        if not parts:
            raise ValueError("a cycle type needs at least one part")
        if parts[-1] < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, parts) -> "CycleType":
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse bracket syntax such as "[4,4,3]"; part order is irrelevant."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"cannot parse cycle type {text!r}")
        try:
            parts = [int(tok) for tok in s[1:-1].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse cycle type {text!r}") from exc
        if not parts:
            raise ValueError(f"cannot parse cycle type {text!r}")
        return cls.of(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


_set_parts = CycleType.parts.__set__


def _cycle_type(parts: tuple[int, ...]) -> CycleType:
    """CycleType(parts) for a tuple already descending with parts >= 1, built without sorting or checking it."""
    t = object.__new__(CycleType)
    _set_parts(t, parts)
    return t


class ClassId(Ordered):
    """A conjugacy class label: cycle type plus a split tag for A_n classes."""

    __slots__ = ("ctype", "split_tag")

    def __init__(self, ctype: CycleType, split_tag: SplitTag = SplitTag.NOT_SPLIT) -> None:
        if split_tag is not SplitTag.NOT_SPLIT and not is_split(ctype):
            raise ValueError(f"type {ctype} does not split; tag {split_tag} invalid")
        object.__setattr__(self, "ctype", ctype)
        object.__setattr__(self, "split_tag", split_tag)

    def __str__(self) -> str:
        return f"{self.ctype}{self.split_tag.value}"


class GroupId(Ordered):
    """S_n or A_n, identified by kind and degree."""

    __slots__ = ("kind", "degree")

    def __init__(self, kind: GroupKind, degree: int) -> None:
        floor_deg = 3 if kind is GroupKind.SYM else 4
        if degree < floor_deg:
            raise ValueError(f"{kind.value}_n needs degree >= {floor_deg}, got {degree}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def sym(cls, n: int) -> "GroupId":
        return cls(GroupKind.SYM, n)

    @classmethod
    def alt(cls, n: int) -> "GroupId":
        return cls(GroupKind.ALT, n)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "GroupId":
        """Accepts "S12", "A12", or "sym"/"alt" plus an explicit degree."""
        s = text.strip()
        if s.lower() in _KIND_WORDS and degree is not None:
            return cls(_group_kind(s), degree)
        if len(s) >= 2 and s[0] in "SAsa" and s[1:].isdecimal():
            return cls(_group_kind(s[0]), int(s[1:]))
        raise ValueError(f"cannot parse group {text!r}")

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.degree}"

    def __str__(self) -> str:
        return self.name


def _check_degree(n: int) -> None:
    if not 1 <= n <= MAX_PARTITION_DEGREE:
        raise ValueError(f"degree {n} outside enumeration bound 1..{MAX_PARTITION_DEGREE}")


def _classes(n: int, alt: bool, prune: int = 0):
    """Yield (parts, split tag, sums) for each class of S_n, or of A_n if alt.

    The one partition enumerator: a depth-first walk, parts descending, in
    class_universe order. For A_n it keeps even types only, and a split type
    gives its PLUS class, then its MINUS class. sums is the subset-sum bitmask
    of parts: bit s is set iff some of the parts sum to s. A prefix whose sums
    meet prune is skipped with its whole subtree.
    """
    _check_degree(n)
    whole = (SplitTag.NOT_SPLIT,)
    halves = (SplitTag.PLUS, SplitTag.MINUS)

    def walk(prefix: tuple[int, ...], rest: int, top: int, mask: int):
        for part in range(min(rest, top), 0, -1):
            grown = mask | (mask << part)
            if grown & prune:
                continue
            parts = prefix + (part,)
            if part < rest:
                yield from walk(parts, rest - part, part, grown)
            elif not alt or _is_even(parts):
                for tag in halves if alt and _splits(parts) else whole:
                    yield parts, tag, grown

    return walk((), n, n, 1)


def partitions(n: int) -> list[CycleType]:
    """All partitions of n in reverse lexicographic order, [n] first."""
    return [_cycle_type(parts) for parts, _, _ in _classes(n, False)]


def _is_even(parts: tuple[int, ...]) -> bool:
    # a cycle of length p is p - 1 transpositions
    return (sum(parts) - len(parts)) % 2 == 0


def _splits(parts: tuple[int, ...]) -> bool:
    return all(p % 2 == 1 for p in parts) and len(set(parts)) == len(parts)


def parity(t: CycleType) -> Parity:
    """Even iff the number of even parts is even."""
    return Parity.EVEN if _is_even(t.parts) else Parity.ODD


def is_split(t: CycleType) -> bool:
    """True iff all parts are odd and pairwise distinct.

    Exactly then the S_n class of the type is a union of two A_n classes.
    """
    return _splits(t.parts)


def u_set(n: int) -> list[CycleType]:
    """Two-part types [k, n-k] with 2 <= k < n/2 and gcd(k, n) == 1.

    Always has exactly euler_phi(n)/2 - 1 members.
    """
    if n < 5:
        raise ValueError(f"u_set needs n >= 5, got {n}")
    return [_cycle_type((n - k, k)) for k in range(2, (n + 1) // 2) if gcd(k, n) == 1]


def t_set(n: int) -> list[CycleType]:
    """Three-part types [i, (a-1)i, n-ai] for a = a_of_n(n), i coprime to n.

    The index i ranges over 1 <= i < (n-1)/a.
    """
    if n < 5:
        raise ValueError(f"t_set needs n >= 5, got {n}")
    a = a_of_n(n)
    out = []
    i = 1
    while a * i < n - 1:
        if gcd(i, n) == 1:
            # i <= (a-1)i, so only the last part n-ai needs placing
            small, mid, rest = i, (a - 1) * i, n - a * i
            if rest >= mid:
                parts = (rest, mid, small)
            elif rest >= small:
                parts = (mid, rest, small)
            else:
                parts = (mid, small, rest)
            out.append(_cycle_type(parts))
        i += 1
    return out


def t_prime_set(n: int, interval: Interval) -> list[CycleType]:
    """Three-part types [m-i, m-2i, m+3i] for m = n/3 and integer i in the interval.

    Requires 6 | n, n >= 12 and the interval contained in [1, m/2).
    """
    if n % 6 != 0 or n < 12:
        raise ValueError(f"t_prime_set needs n >= 12 divisible by 6, got {n}")
    m = n // 3
    half_m = _value.Fraction(m, 2)
    hi_ok = interval.hi < half_m or (interval.hi == half_m and interval.hi_open)
    if interval.lo < 1 or not hi_ok:
        raise ValueError(f"interval {interval} not contained in [1, {half_m})")
    # 1 <= i < m/2, so the parts descend and m-2i >= 1
    first, last = interval.first_integer(), interval.last_integer()
    return [_cycle_type((m + 3 * i, m - i, m - 2 * i)) for i in range(first, last + 1) if gcd(i, n) == 1]


def class_universe(g: GroupId) -> list[ClassId]:
    """Every conjugacy class of the group, in deterministic order.

    For S_n: one class per partition. For A_n: the even partitions, with
    split types contributing a PLUS and a MINUS class.
    """
    return [ClassId(_cycle_type(parts), tag) for parts, tag, _ in _classes(g.degree, g.kind is GroupKind.ALT)]
