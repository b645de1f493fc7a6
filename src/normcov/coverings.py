"""Basic sets for normal coverings: verification, construction, exact minima.

A basic set is a list of pairwise non-conjugate proper subgroup classes whose
conjugates, together, meet every conjugacy class of the group. Verification is
exact over the class universe; the minimum size over a complete catalog is
found by one lexicographic search over rows of minimal class signatures.
"""

from __future__ import annotations

from math import prod

from ._value import Value
from .cycle_types import MAX_PARTITION_DEGREE, ClassId, GroupId, GroupKind, _check_degree, _cycle_type, _group_kind
from .numtheory import euler_phi, factorize, is_prime
from .subgroups import (
    Catalog,
    CatalogError,
    FullAlternating,
    Imprimitive,
    IntersectAlt,
    Intransitive,
    NamedGroup,
    SubgroupDescriptor,
    _json_field,
    _signatures,
    descriptor_from_json,
    descriptor_sort_key,
    descriptor_to_json,
)

__all__ = [
    "BasicSet",
    "CoverReport",
    "GammaResult",
    "all_minimum_covers",
    "construct_delta",
    "delta_families",
    "exact_gamma",
    "mandatory_components",
    "verify_basic_set",
]


class BasicSet(Value):
    """A proposed basic set: component subgroup classes for one group."""

    __slots__ = ("group", "components", "provenance", "expected_size")

    def __init__(
        self,
        group: GroupId,
        components: tuple[SubgroupDescriptor, ...],
        provenance: str = "",
        expected_size: int | None = None,
    ) -> None:
        if not components:
            raise ValueError("a basic set needs at least one component")
        if len(set(components)) != len(components):
            raise ValueError("components must be pairwise distinct")
        for d in components:
            if d.degree != group.degree:
                raise ValueError(f"component {d} does not act on {group.degree} points")
            if group.kind is GroupKind.ALT and isinstance(d, FullAlternating):
                raise ValueError("A_n is the whole group for alternating degrees")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "expected_size", expected_size)

    def to_json(self) -> dict:
        obj = {
            "group": self.group.name,
            "components": [descriptor_to_json(d) for d in self.components],
            "provenance": self.provenance,
        }
        if self.expected_size is not None:
            obj["expected_size"] = self.expected_size
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "BasicSet":
        if not isinstance(obj, dict):
            raise ValueError(f"a basic set must be a JSON object, not {type(obj).__name__}")
        if not isinstance(obj.get("group"), str):
            raise ValueError('a basic set needs a "group" string such as "S12"')
        if not isinstance(obj.get("components"), list):
            raise ValueError('a basic set needs a "components" list')
        group = GroupId.parse(obj["group"])
        comps = tuple(descriptor_from_json(c, group.degree) for c in obj["components"])
        return cls(
            group=group,
            components=comps,
            provenance=_json_field(obj, "provenance", str, ""),
            expected_size=_json_field(obj, "expected_size") if "expected_size" in obj else None,
        )


class CoverReport(Value):
    """Outcome of verifying one basic set against the full class universe."""

    __slots__ = ("group", "covered", "uncovered", "components")

    def __init__(
        self,
        group: GroupId,
        covered: bool,
        uncovered: tuple[ClassId, ...],
        components: tuple[SubgroupDescriptor, ...],
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "covered", covered)
        object.__setattr__(self, "uncovered", uncovered)
        object.__setattr__(self, "components", components)

    def _met(self, item) -> list[list]:
        """Each component's list of item(parts, tag), one for each class it meets, in class order.

        One unpruned walk a call, with item made once a class: the report keeps no matrix, so it stays small.
        """
        met: list[list] = [[] for _ in self.components]
        for parts, tag, sig in _signatures(self.group, self.components):
            if sig:
                x = item(parts, tag)
                for i, classes in enumerate(met):
                    if sig >> i & 1:
                        classes.append(x)
        return met

    @property
    def coverage_matrix(self) -> dict[SubgroupDescriptor, frozenset[ClassId]]:
        """The classes each component meets, from one walk on each read."""
        met = self._met(lambda parts, tag: ClassId(_cycle_type(parts), tag))
        return {d: frozenset(classes) for d, classes in zip(self.components, met)}

    def to_json(self) -> dict:
        # each class is named once, as str(ClassId) spells it, with no ClassId made
        met = self._met(lambda parts, tag: "[" + ",".join(map(str, parts)) + "]" + tag.value)
        for names in met:
            names.sort()
        return {
            "group": self.group.name,
            "covered": self.covered,
            "uncovered": [str(c) for c in self.uncovered],
            "coverage": {str(d): names for d, names in zip(self.components, met)},
        }


def verify_basic_set(b: BasicSet) -> CoverReport:
    """Exact coverage check of the basic set over every conjugacy class.

    One depth-first walk over the partitions of n, parts descending, carries
    the subset sums of each prefix as a bitmask. Once a prefix has parts
    summing to k or n - k, every completion lies in S_k x S_{n-k}, so an
    intransitive component covers the whole subtree and the walk skips it.
    The other components are tested only at the leaves that survive.
    Uncovered classes come out in class_universe order.
    """
    unmet = _signatures(b.group, b.components, prune=True)
    uncovered = tuple(ClassId(_cycle_type(parts), tag) for parts, tag, _ in unmet)
    return CoverReport(group=b.group, covered=not uncovered, uncovered=uncovered, components=b.components)


# --- named constructions ------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _power_degree(*powers: tuple[int, int]) -> int:
    """The degree prod p**e, each p >= 2, checked against the bound; past 4096 doublings it is refused uncomputed."""
    # a degree computed here has at most 8192 bits, so its refusal stays within Python's 4300 printable digits
    if sum(e * (p.bit_length() - 1) for p, e in powers) > 4096:
        written = " * ".join(f"{p}**{e}" for p, e in powers)
        raise ValueError(f"degree {written} outside enumeration bound 1..{MAX_PARTITION_DEGREE}")
    n = prod(p**e for p, e in powers)
    _check_degree(n)
    return n


def _prime_to(n: int, *primes: int) -> list[int]:
    """Every k < n/2 prime to each of primes."""
    return [k for k in range(1, (n + 1) // 2) if all(k % p for p in primes)]


def _family(g: GroupId, tops: list, ks, provenance: str, size: int) -> BasicSet:
    """Every numeric family: the tops, then S_k x S_{n-k} for each k in ks; each met with A_n for A_n."""
    comps = tops + [Intransitive(g.degree, k) for k in ks]
    if g.kind is GroupKind.ALT:
        comps = [IntersectAlt(d) for d in comps]
    return BasicSet(g, tuple(comps), provenance, size)


def _delta_upper_sym(n: int, big_blocks: bool = False) -> BasicSet:
    _require(n >= 4 and not is_prime(n), f"n must be composite and >= 4, got {n}")
    _check_degree(n)
    p = factorize(n)[0][0]
    wreath = Imprimitive(n, n // p, p) if big_blocks else Imprimitive(n, p, n // p)
    provenance = f"upper_sym(n={n}, p={p}{', big blocks' if big_blocks else ''})"
    return _family(GroupId.sym(n), [wreath], _prime_to(n, p), provenance, 1 + n * (p - 1) // (2 * p))


def _delta_upper_alt_even(n: int, big_blocks: bool = False) -> BasicSet:
    _require(n >= 4 and n % 2 == 0, f"n must be even and >= 4, got {n}")
    _check_degree(n)
    wreath = Imprimitive(n, n // 2, 2) if big_blocks else Imprimitive(n, 2, n // 2)
    provenance = f"upper_alt_even(n={n}{', big blocks' if big_blocks else ''})"
    return _family(GroupId.alt(n), [wreath], _prime_to(n, 2), provenance, (n + 4) // 4)


def _delta_upper_alt_odd(n: int) -> BasicSet:
    _require(n >= 5 and n % 2 == 1, f"n must be odd and >= 5, got {n}")
    _check_degree(n)
    q = factorize(n)[0][0]
    top = NamedGroup(n, f"AGL1({n})") if q == n else Imprimitive(n, q, n // q)
    return _family(GroupId.alt(n), [top], range(1, n // 3 + 1), f"upper_alt_odd(n={n})", (n + 3) // 3)


def _delta_sym_prime(p: int) -> BasicSet:
    _require(is_prime(p) and p >= 5, f"p must be a prime >= 5, got {p}")
    _check_degree(p)
    top = NamedGroup(p, f"AGL1({p})")
    return _family(GroupId.sym(p), [top], range(2, (p - 1) // 2 + 1), f"sym_prime(p={p})", (p - 1) // 2)


def _delta_prime_power(p: int, alpha: int, group: str | GroupKind = "sym") -> BasicSet:
    _require(is_prime(p), f"p must be prime, got {p}")
    _require(alpha >= 2, f"alpha must be >= 2, got {alpha}")
    n = _power_degree((p, alpha))
    g = GroupId(_group_kind(group), n)
    provenance = f"prime_power(p={p}, alpha={alpha}, {g.kind.name.lower()})"
    return _family(g, [Imprimitive(n, p, n // p)], _prime_to(n, p), provenance, euler_phi(n) // 2 + 1)


def _delta_two_primes(p: int, q: int, group: str | GroupKind = "sym", big_blocks: bool = False) -> BasicSet:
    _require(is_prime(p) and is_prime(q) and p < q, f"need primes p < q, got p={p}, q={q}")
    n = p * q
    _check_degree(n)
    wreath = Imprimitive(n, q, p) if big_blocks else Imprimitive(n, p, q)
    g = GroupId(_group_kind(group), n)
    provenance = f"two_primes(p={p}, q={q}, {g.kind.name.lower()})"
    return _family(g, [wreath], _prime_to(n, p, q), provenance, euler_phi(n) // 2 + 1)


def _delta_two_prime_powers(p: int, q: int, alpha: int, beta: int, group: str | GroupKind = "sym") -> BasicSet:
    _require(is_prime(p) and is_prime(q) and p < q, f"need primes p < q, got p={p}, q={q}")
    _require(alpha >= 1 and beta >= 1, "exponents must be positive")
    _require(alpha + beta >= 3, f"need alpha + beta >= 3, got {alpha + beta}")
    n = _power_degree((p, alpha), (q, beta))
    tops: list[SubgroupDescriptor] = [Imprimitive(n, p, n // p), Imprimitive(n, q, n // q)]
    g = GroupId(_group_kind(group), n)
    provenance = f"two_prime_powers(p={p}, q={q}, alpha={alpha}, beta={beta}, {g.kind.name.lower()})"
    return _family(g, tops, _prime_to(n, p, q), provenance, euler_phi(n) // 2 + 2)


def _delta_special_a9() -> BasicSet:
    comps = (
        IntersectAlt(Intransitive(9, 4)),
        NamedGroup(9, "PGammaL2(8)", 1),
        NamedGroup(9, "PGammaL2(8)", 2),
    )
    return BasicSet(GroupId.alt(9), comps, provenance="special_a9", expected_size=3)


def _delta_special_s10() -> BasicSet:
    comps = (Imprimitive(10, 2, 5), Intransitive(10, 3), Intransitive(10, 1))
    return BasicSet(GroupId.sym(10), comps, provenance="special_s10", expected_size=3)


def _delta_special_a11() -> BasicSet:
    comps = (
        IntersectAlt(Intransitive(11, 1)),
        IntersectAlt(Intransitive(11, 2)),
        IntersectAlt(Intransitive(11, 3)),
        NamedGroup(11, "M11", 1),
    )
    return BasicSet(GroupId.alt(11), comps, provenance="special_a11", expected_size=4)


_FAMILIES = {
    "upper_sym": _delta_upper_sym,
    "upper_alt_even": _delta_upper_alt_even,
    "upper_alt_odd": _delta_upper_alt_odd,
    "sym_prime": _delta_sym_prime,
    "prime_power": _delta_prime_power,
    "two_primes": _delta_two_primes,
    "two_prime_powers": _delta_two_prime_powers,
    "special_a9": _delta_special_a9,
    "special_s10": _delta_special_s10,
    "special_a11": _delta_special_a11,
}


def delta_families() -> list[str]:
    return sorted(_FAMILIES)


def construct_delta(family: str, **params) -> BasicSet:
    """Build one of the named basic-set constructions.

    Hypotheses are validated strictly; a violated condition, or a parameter
    the family does not take or needs, raises ValueError naming it.
    """
    builder = _FAMILIES.get(family)
    if builder is None:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(delta_families())}")
    # the builder's parameters, read off its code object; the last len(__defaults__) are optional
    code = builder.__code__
    names = code.co_varnames[: code.co_argcount]
    missing = [key for key in names[: len(names) - len(builder.__defaults__ or ())] if key not in params]
    if missing:
        raise ValueError(f"family {family}: missing a required argument: {missing[0]!r}")
    unexpected = [key for key in params if key not in names]
    if unexpected:
        raise ValueError(f"family {family}: got an unexpected keyword argument {unexpected[0]!r}")
    return builder(**params)


# --- exact minimum over a catalog ----------------------------------------


def _coverage_rows(g: GroupId, catalog: Catalog):
    """The catalog in descriptor order, each row the bitmask of minimal signatures it meets.

    A class's signature is the bitmask of the descriptors that meet it. A choice
    of descriptors meets every class iff it meets every minimal signature, one
    holding no other; bit i of a row stands for the i-th of those by size, then
    value. Raises CatalogError when a class is missed, so every search covers.
    """
    if catalog.group != g:
        raise ValueError(f"catalog is for {catalog.group}, not {g}")
    descs = sorted(catalog.descriptors, key=descriptor_sort_key)
    sigs, missing = set(), []
    for parts, tag, sig in _signatures(g, descs):
        if not sig:
            missing.append(str(ClassId(_cycle_type(parts), tag)))
        sigs.add(sig)
    if missing:
        raise CatalogError(f"catalog cannot cover classes {', '.join(missing)}; catalog data error")
    minimal: list[int] = []
    for sig in sorted(sigs, key=lambda s: (s.bit_count(), s)):
        if all(low & sig != low for low in minimal):
            minimal.append(sig)
    rows = [sum(1 << i for i, sig in enumerate(minimal) if sig >> j & 1) for j in range(len(descs))]
    return descs, rows, (1 << len(minimal)) - 1


def _covers(rows: list[int], full: int, size: int):
    """Every choice of at most size rows whose union is full, in lexicographic index order.

    A choice stops growing once it covers. A branch is cut once the rows it
    may still add cannot reach full: reach[j] is the union of rows j and later.
    """
    reach = [0] * (len(rows) + 1)
    for j in range(len(rows) - 1, -1, -1):
        reach[j] = rows[j] | reach[j + 1]

    def walk(start: int, covered: int, chosen: tuple[int, ...]):
        if covered == full:
            yield chosen
        elif len(chosen) < size and covered | reach[start] == full:
            for j in range(start, len(rows)):
                yield from walk(j + 1, covered | rows[j], chosen + (j,))

    return walk(0, 0, ())


def _first_cover(rows: list[int], full: int) -> tuple[int, ...]:
    """The lexicographically first cover of the smallest size."""
    return next(cover for size in range(1, len(rows) + 1) for cover in _covers(rows, full, size))


def mandatory_components(g: GroupId, c: Catalog) -> tuple[SubgroupDescriptor, ...]:
    """Descriptors that are the unique coverer of some class.

    Every basic set over the catalog must contain them. Such a class has a
    one-bit signature, always minimal, so its bit lies in that row alone.
    Requires a complete catalog; on an incomplete one the notion is meaningless.
    """
    if not c.complete:
        raise CatalogError("mandatory components need a complete catalog")
    descs, rows, _ = _coverage_rows(g, c)
    seen = shared = 0
    for row in rows:
        seen, shared = seen | row, shared | seen & row
    return tuple(d for d, row in zip(descs, rows) if row & ~shared)


class GammaResult(Value):
    """Result of the exact set cover: the minimum size and one witness."""

    __slots__ = ("gamma", "witness", "exact")

    def __init__(self, gamma: int, witness: BasicSet, exact: bool) -> None:
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "exact", exact)


def exact_gamma(g: GroupId, c: Catalog) -> GammaResult:
    """Minimum number of catalog classes whose coverage is the whole universe.

    With a complete catalog this is the exact minimal basic set size; with an
    incomplete catalog it is only an upper bound and the result says so. Ties
    among optimal witnesses are broken by the lexicographic descriptor order.
    """
    descs, rows, full = _coverage_rows(g, c)
    witness = _first_cover(rows, full)
    basic = BasicSet(
        group=g,
        components=tuple(descs[j] for j in witness),
        provenance="exact set cover minimum",
    )
    return GammaResult(gamma=len(witness), witness=basic, exact=c.complete)


def all_minimum_covers(g: GroupId, c: Catalog) -> list[tuple[SubgroupDescriptor, ...]]:
    """Every optimal covering subset, in lexicographic descriptor order."""
    descs, rows, full = _coverage_rows(g, c)
    gamma = len(_first_cover(rows, full))
    return [tuple(descs[j] for j in cover) for cover in _covers(rows, full, gamma)]
