"""Subgroup-class descriptors with exact cycle-type membership semantics.

A descriptor names a conjugacy class of subgroups symbolically. Membership of
a cycle type is decided by subset sums for the intransitive family, for
S_b wr S_c by four closed rules and else one flat search over part counts
(_wreath_cover), by parity for the alternating group, and by the exact type
spectrum for named groups. One function, _coverage_rule, gives every
component one predicate on (parts, split tag) for the classes of S_n or A_n
and refuses the pairings that mean nothing; contains_type, the membership
command and the partition walk all ask it. AGL1(p) on p points and PGL2(p)
on p+1 points, p prime, take their spectrum from a closed form
(_closed_form); every other named group is closed from its generator record
in generators.json.

A named descriptor reaches the walk through one cached resolver of raw
tuples, _named, keyed on the descriptor and the data directory. It gives the
spectrum, and the A_n classes of an all-even group. Both are read off the
two-point slice of a record's class 1, built once from its point stabiliser,
so no record is closed whole there, and class 2 is never resolved on its own.
named_group closes the whole group afresh on every call. _named is the one
cache: an lru_cache, which keeps its own state consistent under threads, so
a race at worst resolves a group twice. Wreath queries and record lookups
are not cached: each reads only its own parts, or generators.json afresh.

The built-in catalogs of S_3..S_12 and A_4..A_12 are computed, not read:
_maximal gives the maximal classes of S_n by the Liebeck-Praeger-Saxl rule,
and three small tables name the primitive groups and the meets with A_n that
are not maximal. One loader, _load_json, reads every JSON file the package
takes: basic sets, user catalogs and generators.json. A missing file or one
that is no JSON is a CatalogError naming it. Generator records are checked
field by field, through _json_field, when the file loads.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from functools import lru_cache
from math import gcd
from operator import mul

from ._value import Ordered, Value
from .cycle_types import ClassId, CycleType, GroupId, GroupKind, SplitTag, _classes, _cycle_type, _is_even
from .numtheory import divisors, is_prime
from .permgroup import ClosureCapExceeded, GeneratedGroup, Perm, closure, conjugate
from .permgroup import _raw_classes, _two_point_slice

__all__ = [
    "Catalog",
    "CatalogError",
    "FullAlternating",
    "Imprimitive",
    "IntersectAlt",
    "Intransitive",
    "NamedGroup",
    "SubgroupDescriptor",
    "class_coverage",
    "contains_type",
    "descriptor_from_json",
    "descriptor_sort_key",
    "descriptor_to_json",
    "load_catalog",
    "named_group",
    "named_group_names",
    "parse_descriptor",
]


class CatalogError(ValueError):
    """Missing or malformed subgroup data."""


class Intransitive(Ordered):
    """The class of S_k x S_{n-k}, the stabilizer of a k-subset."""

    __slots__ = ("degree", "k")

    def __init__(self, degree: int, k: int) -> None:
        if not 1 <= k <= degree // 2:
            raise ValueError(f"intransitive part k={k} must satisfy 1 <= k <= {degree // 2}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "k", k)

    def __str__(self) -> str:
        return f"intransitive:{self.k}"


class Imprimitive(Ordered):
    """The class of S_b wr S_c, the stabilizer of a partition into c blocks of size b."""

    __slots__ = ("degree", "b", "c")

    def __init__(self, degree: int, b: int, c: int) -> None:
        if b < 2 or c < 2 or b * c != degree:
            raise ValueError(f"imprimitive shape b={b}, c={c} invalid for degree {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __str__(self) -> str:
        return f"imprimitive:{self.b},{self.c}"


class FullAlternating(Ordered):
    """A_n as a subgroup of S_n."""

    __slots__ = ("degree",)

    def __init__(self, degree: int) -> None:
        object.__setattr__(self, "degree", degree)

    def __str__(self) -> str:
        return "alternating"


class NamedGroup(Ordered):
    """A named group: a closed form or a generator record; cls selects one of its conjugacy classes."""

    __slots__ = ("degree", "name", "cls")

    def __init__(self, degree: int, name: str, cls: int = 1) -> None:
        if cls not in (1, 2):
            raise ValueError(f"named class index must be 1 or 2, got {cls}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cls", cls)

    def __str__(self) -> str:
        return f"named:{self.name}" + (f":{self.cls}" if self.cls != 1 else "")


class IntersectAlt(Ordered):
    """The intersection of an S_n-level class with A_n."""

    __slots__ = ("inner",)

    def __init__(self, inner: Intransitive | Imprimitive | NamedGroup) -> None:
        if isinstance(inner, (FullAlternating, IntersectAlt)):
            raise ValueError("intersect_alt must wrap an S_n-level class other than A_n")
        object.__setattr__(self, "inner", inner)

    @property
    def degree(self) -> int:
        return self.inner.degree

    def __str__(self) -> str:
        return f"alt:{self.inner}"


SubgroupDescriptor = Intransitive | Imprimitive | FullAlternating | NamedGroup | IntersectAlt


def descriptor_sort_key(d: SubgroupDescriptor):
    """Deterministic ordering used for reproducible witnesses and reports."""
    if isinstance(d, IntersectAlt):
        return (4,) + descriptor_sort_key(d.inner)
    if isinstance(d, FullAlternating):
        return (0,)
    if isinstance(d, Intransitive):
        return (1, d.k)
    if isinstance(d, Imprimitive):
        return (2, d.b, d.c)
    return (3, d.name, d.cls)


def descriptor_to_json(d: SubgroupDescriptor) -> dict:
    if isinstance(d, Intransitive):
        return {"kind": "intransitive", "k": d.k}
    if isinstance(d, Imprimitive):
        return {"kind": "imprimitive", "b": d.b, "c": d.c}
    if isinstance(d, FullAlternating):
        return {"kind": "alternating"}
    if isinstance(d, NamedGroup):
        return {"kind": "named", "name": d.name, "class": d.cls}
    return {"kind": "intersect_alt", "inner": descriptor_to_json(d.inner)}


_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false", list: "a list"}


def _json_field(obj: dict, key: str, json_type: type = int, default=None):
    """obj[key], or default when it is absent; ValueError naming key unless of type json_type.

    Nothing is coerced: 2.9 would read as 2, and the string "false" as true.
    """
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not json_type:
        raise ValueError(f"field {key!r} must be {_JSON_TYPES[json_type]}, not {value!r}")
    return value


def descriptor_from_json(obj: dict, degree: int) -> SubgroupDescriptor:
    """The descriptor obj spells; CatalogError if malformed, at once for an intersect_alt that wraps A_n or itself."""
    inner = obj.get("inner") if type(obj) is dict and obj.get("kind") == "intersect_alt" else None
    if type(inner) is dict and inner.get("kind") in ("intersect_alt", "alternating"):
        raise CatalogError(f"intersect_alt must wrap an S_n-level class other than A_n, not {inner['kind']}")
    try:
        kind = obj["kind"]
        if kind == "intransitive":
            return Intransitive(degree, _json_field(obj, "k"))
        if kind == "imprimitive":
            return Imprimitive(degree, _json_field(obj, "b"), _json_field(obj, "c"))
        if kind == "alternating":
            return FullAlternating(degree)
        if kind == "named":
            return NamedGroup(degree, _json_field(obj, "name", str), _json_field(obj, "class", int, 1))
        if kind == "intersect_alt":
            return IntersectAlt(descriptor_from_json(obj["inner"], degree))
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed descriptor {obj!r}: {exc}") from exc
    raise CatalogError(f"unknown descriptor kind {kind!r}")


def _descriptor_ints(fields: str, count: int, text: str) -> list[int]:
    """count comma-separated integers from fields; ValueError quoting text otherwise."""
    try:
        values = [int(f) for f in fields.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise ValueError(f"cannot parse descriptor {text!r}")
    return values


def parse_descriptor(text: str, degree: int) -> SubgroupDescriptor:
    """Parse the CLI mini-syntax, e.g. "imprimitive:3,4" or "alt:intransitive:2"."""
    s = text.strip()
    if s.startswith("alt:"):
        return IntersectAlt(parse_descriptor(s[4:], degree))
    if s == "alternating":
        return FullAlternating(degree)
    if s.startswith("intransitive:"):
        return Intransitive(degree, *_descriptor_ints(s.split(":", 1)[1], 1, text))
    if s.startswith("imprimitive:"):
        return Imprimitive(degree, *_descriptor_ints(s.split(":", 1)[1], 2, text))
    if s.startswith("named:"):
        rest = s.split(":", 1)[1]
        if ":" in rest:
            name, cls_s = rest.rsplit(":", 1)
            return NamedGroup(degree, name, *_descriptor_ints(cls_s, 1, text))
        return NamedGroup(degree, rest)
    raise ValueError(f"cannot parse descriptor {text!r}")


# --- named group registry -------------------------------------------------

# What importlib.resources.files("normcov") / "data" gives for a package on disk,
# without importing importlib.resources, which loads inspect on Python 3.12+.
_PACKAGE_DATA = os.path.join(os.path.dirname(__file__), "data")


def data_dir() -> str:
    """Directory holding generators.json; NCK_DATA_DIR overrides."""
    return os.environ.get("NCK_DATA_DIR") or _PACKAGE_DATA


def _load_json(path: str | os.PathLike, what: str):
    """The JSON document in the file at path; CatalogError naming what if it is missing or no JSON."""
    import json  # loaded by file reads and JSON output only, so text commands start sooner
    path = os.fspath(path)
    if not os.path.exists(path):
        raise CatalogError(f"{what} not found: {path}")
    try:
        with open(path) as f:
            return json.loads(f.read())
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed {what} {path}: {exc}") from exc


# (key, JSON type, default) of each field of a generator record; a default of None means required
_RECORD_FIELDS = (
    ("name", str, None),
    ("degree", int, None),
    ("expected_order", int, None),
    ("classes", int, 1),
    ("generators", list, None),
)


def _generator_records(data: str) -> dict[str, dict]:
    """The records of generators.json by name, read afresh and each field checked; CatalogError naming a bad record."""
    path = os.path.join(data, "generators.json")
    doc = _load_json(path, "generator data file")
    if type(doc) is not list:
        raise CatalogError(f"malformed generator data file {path}: not a list of records")
    records = {}
    for i, rec in enumerate(doc, 1):
        try:
            rec = {key: _json_field(rec, key, json_type, default) for key, json_type, default in _RECORD_FIELDS}
        except KeyError as exc:
            raise CatalogError(f"generator record {i} in {path} has no field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"malformed generator record {i} in {path}: {exc}") from None
        records[rec["name"]] = rec
    return records


def named_group_names() -> list[str]:
    return sorted(_generator_records(data_dir()))


def _record(data: str, degree: int, name: str, cls: int) -> dict:
    """The generator record behind class cls of name; CatalogError if there is none."""
    rec = _generator_records(data).get(name)
    if rec is None:
        raise CatalogError(f"no generator record named {name!r}")
    if rec["degree"] != degree:
        raise CatalogError(f"{name} has degree {rec['degree']}, not {degree}")
    if cls not in (1, 2) or (cls == 2 and rec["classes"] < 2):
        raise CatalogError(f"{name} does not have a class {cls}")
    return rec


def named_group(degree: int, name: str, cls: int = 1) -> GeneratedGroup:
    """Materialize a named group; closure must reproduce the recorded order.

    cls=2 is the conjugate of the recorded generators by the transposition
    (1 2), giving the second conjugacy class where one exists. Intransitive
    generators are refused, and so are AGL1(p) and PGL2(p): they have no record.
    Nothing is cached: each call closes the whole group afresh.
    """
    return _from_record(data_dir(), degree, name, cls, _closed)


def _closed(degree: int, gens: list[Perm], order: int) -> GeneratedGroup:
    """The closure of gens, which must reach order exactly; ClosureCapExceeded or ValueError if not."""
    grp = closure(degree, gens, order)
    if grp.order != order:
        raise ValueError(f"closure produced order {grp.order}, expected {order}")
    return grp


def _from_record(data: str, degree: int, name: str, cls: int, build: Callable):
    """build(degree, gens, order) on the checked generators of class cls of name; CatalogError naming name.

    build is _closed or _two_point_slice: each raises ClosureCapExceeded past
    the recorded order and ValueError if it finds another order.
    """
    rec = _record(data, degree, name, cls)
    try:
        gens = [Perm.from_cycles(degree, cycles) for cycles in rec["generators"]]
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{name}: malformed generators: {exc}") from None
    orbit, todo = {0}, [0]
    for p in todo:
        for q in {g.images[p] for g in gens} - orbit:
            orbit.add(q)
            todo.append(q)
    if len(orbit) < degree:
        raise CatalogError(f"{name}: intransitive generators, point 1 has an orbit of {len(orbit)} < {degree}")
    if cls == 2:
        swap = Perm.from_cycles(degree, [[1, 2]])
        gens = [conjugate(g, swap) for g in gens]
    order = rec["expected_order"]
    try:
        return build(degree, gens, order)
    except ClosureCapExceeded:
        raise CatalogError(f"{name}: closure exceeds the expected order {order}") from None
    except ValueError as exc:
        raise CatalogError(f"{name}: {exc}") from None


def _closed_form(name: str, degree: int) -> frozenset[tuple[int, ...]] | None:
    """Raw spectrum of AGL1(p) or PGL2(p), p prime, spelt exactly so; else None.

    AGL_1(p) holds the translations, each one p-cycle, and x -> a(x - c) + c,
    which fixes c and cycles the rest in the order d | p-1 of a (d = 1 is the
    identity). In PGL_2(p) these fix infinity too; every other element lies in
    a non-split torus, cyclic and regular on the p+1 points, so it cycles all
    of them in one length d > 1, d | p+1.

    p has at most 4 digits: each type is a tuple of up to p+1 parts, so the
    spectrum stays under a megabyte. A longer name goes to the record lookup,
    which refuses it at once, without a primality test.
    """
    m = re.fullmatch(r"(AGL1|PGL2)\(([1-9][0-9]{0,3})\)", name)
    if m is None or not is_prime(p := int(m[2])):
        return None
    if (size := p if m[1] == "AGL1" else p + 1) != degree:
        raise CatalogError(f"{name} has degree {size}, not {degree}")
    if m[1] == "AGL1":
        return frozenset({(p,)} | {(d,) * ((p - 1) // d) + (1,) for d in divisors(p - 1)})
    split = {(d,) * ((p - 1) // d) + (1, 1) for d in divisors(p - 1)}
    return frozenset({(p, 1)} | split | {(d,) * ((p + 1) // d) for d in divisors(p + 1)[1:]})


@lru_cache(maxsize=64)
def _named(
    d: NamedGroup, data: str
) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[tuple[int, ...], SplitTag]] | None]:
    """d's raw spectrum, and its raw (parts, split tag) A_n classes if d is all even, else None.

    data is data_dir(). The one place that tells a closed form from a
    record: AGL1(p) and PGL2(p) have a single class and hold odd permutations.
    A record's class 1 is never closed whole: both answers come from its
    two-point slice (_two_point_slice), built once from the point stabiliser
    G_1, which is closed from Schreier generators and checked against the
    recorded order; for M12 that closes 7,920 elements and keeps 2,880.
    The group is all even iff its spectrum is, as the slice holds a conjugate
    of every element. Class 2, its conjugate by (1 2), has the types of
    class 1 and its A_n classes with each + and - swapped, so it is never sliced.
    """
    types = _closed_form(d.name, d.degree)
    if types is not None:
        if d.cls != 1:
            raise CatalogError(f"{d.name} does not have a class {d.cls}")
        return types, None
    if d.cls != 1:
        _record(data, d.degree, d.name, d.cls)
        types, classes = _named(NamedGroup(d.degree, d.name), data)
        if classes is not None:
            swap = {SplitTag.PLUS: SplitTag.MINUS, SplitTag.MINUS: SplitTag.PLUS}
            classes = frozenset((parts, swap.get(tag, tag)) for parts, tag in classes)
        return types, classes
    return _raw_classes(_from_record(data, d.degree, d.name, 1, _two_point_slice))


# --- membership semantics ---------------------------------------------------


# _subset_sum's mask has a bit per reachable sum: 2**26 bits is 8 MiB, where a 20-digit k asks for exabytes.
_MAX_SUBSET_SUM_BITS = 1 << 26


def _subset_sum(parts: tuple[int, ...], target: int) -> bool:
    """Do some of parts sum to target? Parts above target are skipped; a mask too wide is a ValueError."""
    mask = 1
    for p in parts:
        if p <= target:
            if mask.bit_length() + p > _MAX_SUBSET_SUM_BITS:
                raise ValueError(f"subset sums up to k={target} need more than {_MAX_SUBSET_SUM_BITS} bits")
            mask |= mask << p
    return bool((mask >> target) & 1)


def _wreath_cover(parts: tuple[int, ...], b: int) -> bool:
    """Does S_b wr S_c hold a permutation with these descending cycle lengths?

    A top cycle of length d over a block product of type mu gives the cycles
    d*mu; so parts all multiples of b, or all of c, are held. For b = 2 each
    top cycle gives (2d) or (d, d), so the type is held iff every odd part
    value occurs an even number of times. For c = 2 the identity on top
    gives two types of b side by side, and the swap all-even parts, held
    already; so some parts must sum to b, tested while the subset-sum mask
    fits. Every other query goes to _wreath_search.
    """
    n = sum(parts)
    if (g := gcd(*parts)) % b == 0 or g % (n // b) == 0:
        return True
    if b == 2:
        odd = [p for p in parts if p % 2]
        return odd[::2] == odd[1::2]
    if n == 2 * b and n < _MAX_SUBSET_SUM_BITS:
        return _subset_sum(parts, b)
    return _wreath_search(parts, b)


def _wreath_search(parts: tuple[int, ...], b: int) -> bool:
    """_wreath_cover by search over part value counts: the largest part v left
    opens an orbit of d blocks, d | v, v <= d*b <= points left, filled with
    parts divisible by d one at a time from value index j on. Counts left
    between orbits are searched once."""
    values = sorted(set(parts), reverse=True)
    stack, seen = [(tuple(map(parts.count, values)), 0, 0, 0)], set()
    while stack:
        counts, d, need, j = stack.pop()
        if need:
            while j < len(values) and not (counts[j] and values[j] <= need and values[j] % d == 0):
                j += 1
            if j < len(values):
                stack.append((counts, d, need, j + 1))
                stack.append((counts[:j] + (counts[j] - 1,) + counts[j + 1 :], d, need - values[j], j))
        elif counts not in seen:
            seen.add(counts)
            if not (first := next(filter(None, counts), 0)):
                return True
            i = counts.index(first)
            v, left = values[i], sum(map(mul, values, counts))
            for e in reversed(divisors(v)):
                if v <= e * b <= left:
                    stack.append((counts[:i] + (counts[i] - 1,) + counts[i + 1 :], e, e * b - v, i))
    return False


def contains_type(d: SubgroupDescriptor, t: CycleType) -> bool:
    """Does the S_n-level class of subgroups contain a permutation of type t?"""
    return _coverage_rule(d, t.n, False)(t.parts, SplitTag.NOT_SPLIT)


def _coverage_rule(d: SubgroupDescriptor, n: int, alt: bool) -> Callable[[tuple[int, ...], SplitTag], bool]:
    """rule(parts, tag): does the component d meet that class of S_n, or of A_n if alt? ValueError if d is none.

    The one place that decides what a descriptor means: contains_type, the
    membership command and the walk in _signatures all ask here, on raw
    descending cycle types. alt:X is X's rule behind an evenness test, and a
    split type it accepts meets both of its A_n classes, because the
    normalizer of the intersection contains odd permutations. A named group
    of even permutations in A_n tests (parts, tag) against its exact classes.
    Every other rule ignores the tag.
    """
    if d.degree != n:
        raise ValueError(f"degree mismatch: descriptor degree {d.degree}, group {'A' if alt else 'S'}{n}")
    if alt and isinstance(d, FullAlternating):
        raise ValueError("A_n is the whole group, not a component, for alternating degrees")
    if alt and not isinstance(d, (NamedGroup, IntersectAlt)):
        raise ValueError(f"descriptor {d} lives at the S_n level; wrap it in intersect_alt for alternating groups")
    if not alt and isinstance(d, IntersectAlt):
        raise ValueError(f"descriptor {d} is an intersection with A_n; it is no component of S{n}")
    inner = d.inner if isinstance(d, IntersectAlt) else d
    if isinstance(inner, Intransitive):
        rule = lambda parts, tag: _subset_sum(parts, inner.k)
    elif isinstance(inner, Imprimitive):
        rule = lambda parts, tag: _wreath_cover(parts, inner.b)
    elif isinstance(inner, FullAlternating):
        rule = lambda parts, tag: _is_even(parts)
    else:
        types, classes = _named(inner, data_dir())
        if alt and inner is d:
            if classes is None:
                raise ValueError("group contains odd permutations; intersect with A_n first")
            return lambda parts, tag: (parts, tag) in classes
        if alt and classes is not None:
            raise ValueError(f"{inner.name} already lies inside the alternating group; use the named descriptor directly")
        rule = lambda parts, tag: parts in types
    return rule if inner is d else lambda parts, tag: _is_even(parts) and rule(parts, tag)


def _signatures(g: GroupId, components, prune: bool = False):
    """Yield (parts, split tag, signature) for the classes of g, in class_universe order.

    Bit i of the signature is set iff components[i] meets the class. An
    intransitive component meets it iff bit k of the walk's subset sums is
    set. With prune, the walk skips every subtree that an intransitive
    component covers, and it yields only the classes that no component meets,
    each with signature 0. Bad pairings raise ValueError before the first class.
    """
    n, alt = g.degree, g.kind is GroupKind.ALT
    cut, sums_bits, rules = 0, [], []
    for i, d in enumerate(components):
        rule = _coverage_rule(d, n, alt)
        inner = d.inner if isinstance(d, IntersectAlt) else d
        if not isinstance(inner, Intransitive):
            rules.append((1 << i, rule))
        elif prune:
            cut |= (1 << inner.k) | (1 << (n - inner.k))
        else:
            sums_bits.append((1 << i, 1 << inner.k))
    for parts, tag, sums in _classes(n, alt, cut):
        sig = 0
        for bit, k in sums_bits:
            if sums & k:
                sig |= bit
        for bit, rule in rules:
            if rule(parts, tag):
                sig |= bit
                if prune:
                    break
        if not (prune and sig):
            yield parts, tag, sig


def class_coverage(d: SubgroupDescriptor, g: GroupId) -> frozenset[ClassId]:
    """Exact set of conjugacy classes of g met by the subgroup class d."""
    return frozenset(ClassId(_cycle_type(parts), tag) for parts, tag, sig in _signatures(g, (d,)) if sig)


# --- catalogs ---------------------------------------------------------------


class Catalog(Value):
    """Descriptors for the (maximal) subgroup classes of one group."""

    __slots__ = ("group", "descriptors", "complete")

    def __init__(self, group: GroupId, descriptors: tuple[SubgroupDescriptor, ...], complete: bool) -> None:
        if len(set(descriptors)) != len(descriptors):
            raise CatalogError("catalog descriptors must be pairwise distinct")
        for d in descriptors:
            if d.degree != group.degree:
                raise CatalogError(f"descriptor {d} does not match degree {group.degree}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "complete", complete)


def catalog_from_json(obj: dict) -> Catalog:
    try:
        group = GroupId.parse(_json_field(obj, "group", str))
        complete = _json_field(obj, "complete", bool)
        descriptors = tuple(descriptor_from_json(s, group.degree) for s in _json_field(obj, "subgroups", list))
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed catalog: {exc}") from exc
    return Catalog(group=group, descriptors=descriptors, complete=complete)


def catalog_to_json(cat: Catalog) -> dict:
    return {
        "group": cat.group.name,
        "complete": cat.complete,
        "subgroups": [descriptor_to_json(d) for d in cat.descriptors],
    }


# The Liebeck-Praeger-Saxl rule (J. Algebra 111, 1987) needs only these tables
# up to degree 12: the primitive maximal class of S_n, the all-even primitive
# group with two classes in A_n, and five meets with A_n that lie in a class
# of that group and so are not maximal: AGL_1(7) in PSL_2(7); PGL_2(7) and
# S_2 wr S_4 (meet 2^3:S_4) in AGL_3(2); AGL_1(11) in M_11; PGL_2(11) in M_12.
_PRIMITIVE = {5: "AGL1(5)", 6: "PGL2(5)", 7: "AGL1(7)", 8: "PGL2(7)",
              9: "AGL2(3)", 10: "PGammaL2(9)", 11: "AGL1(11)", 12: "PGL2(11)"}
_ALL_EVEN_PRIMITIVE = {7: "PSL2(7)", 8: "AGL3(2)", 9: "PGammaL2(8)", 11: "M11", 12: "M12"}
_NOT_MAXIMAL_IN_ALT = {NamedGroup(7, "AGL1(7)"), NamedGroup(8, "PGL2(7)"), Imprimitive(8, 2, 4),
                       NamedGroup(11, "AGL1(11)"), NamedGroup(12, "PGL2(11)")}


def _maximal(n: int) -> list[SubgroupDescriptor]:
    """The maximal classes of S_n other than A_n, in catalog order; the primitive one only up to degree 12.

    S_k x S_{n-k} for each k < n/2, then S_b wr S_c as (b, n/b) and (n/b, b)
    for each divisor 1 < b <= sqrt(n), then the primitive class, if any.
    """
    classes = [Intransitive(n, k) for k in range(1, (n + 1) // 2)]
    for b in divisors(n):
        if 1 < b * b <= n:
            classes += dict.fromkeys([Imprimitive(n, b, n // b), Imprimitive(n, n // b, b)])
    if n in _PRIMITIVE:
        classes.append(NamedGroup(n, _PRIMITIVE[n]))
    return classes


def load_catalog(g: GroupId | None = None, path: str | os.PathLike | None = None) -> Catalog:
    """The built-in catalog for g, or a user catalog read from path.

    Built-in catalogs exist for S_3..S_12 and A_4..A_12, are complete, and
    are computed, with no file read: S_n lists A_n, then _maximal(n). A_n
    lists the meet with A_n of each class of _maximal(n) that stays maximal
    there, then both classes of its all-even primitive group, if any. The
    one exception: A_4 also lists the non-maximal C_2 = (S_2 x S_2) meet
    A_4, which with A_3 gives the unique all-intransitive minimal covering.
    User-supplied catalogs carry their own completeness flag.
    """
    if path is None:
        if g is None:
            raise ValueError("need a group or a path")
        n = g.degree
        if n > max(_PRIMITIVE):  # the tables end at degree 12
            raise CatalogError(f"no built-in catalog for {g} (supply a catalog file)")
        if g.kind is GroupKind.SYM:
            return Catalog(g, (FullAlternating(n), *_maximal(n)), True)
        inner = [d for d in _maximal(n) if d not in _NOT_MAXIMAL_IN_ALT]
        if n == 4:
            inner.insert(1, Intransitive(4, 2))
        named = [NamedGroup(n, _ALL_EVEN_PRIMITIVE[n], c) for c in (1, 2)] if n in _ALL_EVEN_PRIMITIVE else []
        return Catalog(g, (*map(IntersectAlt, inner), *named), True)
    cat = catalog_from_json(_load_json(path, "catalog file"))
    if g is not None and cat.group != g:
        raise CatalogError(f"catalog file is for {cat.group}, not {g}")
    return cat
