"""Descriptor semantics against exhaustive enumeration, plus catalog loading."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from math import factorial

import pytest
from conftest import DATA, affine_gens, generator_records, projective_gens

from normcov.cycle_types import (
    MAX_PARTITION_DEGREE,
    ClassId,
    CycleType,
    GroupId,
    Parity,
    SplitTag,
    is_split,
    parity,
    partitions,
)
from normcov.cli import main
from normcov.numtheory import primes_up_to
from normcov.permgroup import (
    Perm,
    _two_point_slice,
    alt_class_coverage,
    closure,
    cycle_type_of,
    cycles_of,
    direct_product_gens,
    perm_parity,
    split_class_of,
    type_spectrum,
    wreath_gens,
)
from normcov.subgroups import (
    Catalog,
    CatalogError,
    FullAlternating,
    Imprimitive,
    IntersectAlt,
    Intransitive,
    NamedGroup,
    _FIELD_GROUPS,
    _coverage_rule,
    _named,
    _record,
    _subset_sum,
    _wreath_search,
    catalog_to_json,
    class_coverage,
    contains_type,
    descriptor_from_json,
    descriptor_to_json,
    load_catalog,
    named_group,
    named_group_names,
    parse_descriptor,
)


def ct(*parts):
    return CycleType.of(parts)


# --- descriptor shapes --------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Intransitive(12, 0)
    with pytest.raises(ValueError):
        Intransitive(12, 7)  # above n/2
    Intransitive(12, 6)  # k = n/2 is allowed
    with pytest.raises(ValueError):
        Imprimitive(12, 5, 2)
    with pytest.raises(ValueError):
        Imprimitive(12, 1, 12)
    with pytest.raises(ValueError):
        NamedGroup(12, "M12", 3)
    with pytest.raises(ValueError):
        IntersectAlt(FullAlternating(9))


def test_descriptor_parse_and_str_roundtrip():
    for text in (
        "intransitive:5",
        "imprimitive:3,4",
        "alternating",
        "named:M12",
        "named:M12:2",
        "alt:intransitive:2",
        "alt:named:AGL1(5)",
    ):
        d = parse_descriptor(text, 12 if "AGL" not in text else 5)
        assert str(d) == text
    with pytest.raises(ValueError):
        parse_descriptor("bogus:1", 5)


def test_descriptor_json_roundtrip():
    descs = [
        Intransitive(12, 5),
        Imprimitive(12, 3, 4),
        FullAlternating(12),
        NamedGroup(12, "M12", 2),
        IntersectAlt(Intransitive(12, 2)),
    ]
    for d in descs:
        assert descriptor_from_json(descriptor_to_json(d), 12) == d
    with pytest.raises(CatalogError):
        descriptor_from_json({"kind": "nope"}, 12)
    # a field that is no JSON integer is refused by name, not coerced
    for obj, field in [
        ({"kind": "intransitive", "k": 2.9}, "k"),
        ({"kind": "intransitive", "k": "2"}, "k"),
        ({"kind": "imprimitive", "b": True, "c": 6}, "b"),
        ({"kind": "imprimitive", "b": 3, "c": 4.0}, "c"),
        ({"kind": "named", "name": "M12", "class": True}, "class"),
        ({"kind": "intersect_alt", "inner": {"kind": "intransitive", "k": None}}, "k"),
    ]:
        with pytest.raises(CatalogError, match=f"field '{field}'"):
            descriptor_from_json(obj, 12)
    # an intersect_alt wrapping another is refused at the top, with a message that does not grow with the depth
    for depth in (2, 500):
        obj = {"kind": "intransitive", "k": 1}
        for _ in range(depth):
            obj = {"kind": "intersect_alt", "inner": obj}
        with pytest.raises(CatalogError, match="intersect_alt must wrap an S_n-level class") as err:
            descriptor_from_json(obj, 12)
        assert len(str(err.value)) < 100, len(str(err.value))
    with pytest.raises(CatalogError, match="other than A_n, not alternating"):
        descriptor_from_json({"kind": "intersect_alt", "inner": {"kind": "alternating"}}, 12)


# --- membership ---------------------------------------------------------------


def test_contains_type_imprimitive_examples():
    assert contains_type(Imprimitive(12, 3, 4), ct(1, 2, 9))
    assert not contains_type(Imprimitive(12, 3, 4), ct(1, 1, 1, 1, 8))
    assert contains_type(Imprimitive(12, 3, 4), ct(1, 1, 1, 9))
    assert contains_type(Imprimitive(9, 3, 3), ct(9))
    assert contains_type(Imprimitive(6, 3, 2), ct(4, 2))


def test_contains_type_named_examples():
    assert not contains_type(NamedGroup(12, "M12"), ct(3, 9))
    assert not contains_type(NamedGroup(12, "M12"), ct(2, 2, 2, 6))
    assert contains_type(NamedGroup(12, "M12"), ct(11, 1))


def test_negative_control_s12():
    # no member of the failing three-component set contains [1,3,8]
    bad = ct(1, 3, 8)
    assert not contains_type(FullAlternating(12), bad)
    assert not contains_type(Intransitive(12, 5), bad)
    assert not contains_type(Imprimitive(12, 3, 4), bad)


def test_contains_type_alternating_and_errors():
    assert contains_type(FullAlternating(11), ct(1, 1, 9))
    assert not contains_type(FullAlternating(7), ct(2, 5))
    with pytest.raises(ValueError):
        contains_type(IntersectAlt(Intransitive(8, 2)), ct(2, 2, 2, 2))
    with pytest.raises(ValueError):
        contains_type(Intransitive(8, 2), ct(2, 5))  # degree mismatch


def test_subset_sum_against_itertools():
    # regression guard on the bitmask subset-sum behind intransitive membership
    from itertools import combinations as combos

    for n in range(2, 15):
        for t in partitions(n):
            sums = {sum(c) for r in range(len(t.parts) + 1) for c in combos(t.parts, r)}
            for k in range(1, n // 2 + 1):
                assert contains_type(Intransitive(n, k), t) == (k in sums), (str(t), k)


def test_intransitive_membership_against_closure_small():
    for n in range(4, 9):
        for k in range(1, n // 2 + 1):
            spec = type_spectrum(closure(n, direct_product_gens(n, k)))
            d = Intransitive(n, k)
            for t in partitions(n):
                assert contains_type(d, t) == (t in spec), (n, k, str(t))


def test_imprimitive_membership_against_closure_small():
    for n in range(4, 9):
        for b in range(2, n):
            if n % b or n // b < 2:
                continue
            c = n // b
            spec = type_spectrum(closure(n, wreath_gens(n, b, c)))
            d = Imprimitive(n, b, c)
            for t in partitions(n):
                assert contains_type(d, t) == (t in spec), (n, b, c, str(t))


def _wreath_types(b: int, c: int) -> set[tuple[int, ...]]:
    """Cycle types of S_b wr S_c, built from the shapes of its elements.

    A top cycle of length d whose block product has type mu (a partition of
    b) gives the cycles d*mu; an element's type is the union of these over
    the top cycles, a partition of c.
    """
    orbits = {d: [tuple(d * m for m in mu.parts) for mu in partitions(b)] for d in range(1, c + 1)}
    memo: dict[tuple[int, int], set[tuple[int, ...]]] = {}

    def tops(left: int, most: int) -> set[tuple[int, ...]]:
        if left == 0:
            return {()}
        if (left, most) not in memo:
            memo[left, most] = {
                tuple(sorted(orbit + rest, reverse=True))
                for d in range(1, min(left, most) + 1)
                for orbit in orbits[d]
                for rest in tops(left - d, d)
            }
        return memo[left, most]

    return tops(c, c)


def test_imprimitive_membership_against_element_shapes():
    # every S_b wr S_c of degree at most 30, beyond the reach of closure
    pairs = 0
    for n in range(4, 31):
        types = partitions(n)
        for b in range(2, n // 2 + 1):
            if n % b:
                continue
            d, spec = Imprimitive(n, b, n // b), _wreath_types(b, n // b)
            for t in types:
                assert contains_type(d, t) == (t.parts in spec), (b, n // b, str(t))
                # each closed rule alone holds only types of the wreath product
                for m in (b, n // b):
                    assert t.parts in spec or any(p % m for p in t.parts), (b, n // b, m, str(t))
            pairs += len(types)
    assert pairs == 80240


def test_closed_wreath_rules_for_blocks_of_two_and_two_blocks(monkeypatch):
    # S_2 wr S_c holds a type iff each odd part value occurs an even number of
    # times; S_b wr S_2 iff some parts sum to b or all parts are even. Neither
    # reaches the search, which a spy counts
    searched = []

    def spy(parts, b):
        searched.append((parts, b))
        return _wreath_search(parts, b)

    monkeypatch.setattr("normcov.subgroups._wreath_search", spy)
    pairs = 0
    for n in range(4, 31, 2):
        types = partitions(n)
        for b in sorted({2, n // 2}):
            c = n // b
            d, spec = Imprimitive(n, b, c), _wreath_types(b, c)
            for t in types:
                held = t.parts in spec
                if b == 2:
                    assert all(t.parts.count(p) % 2 == 0 for p in t.parts if p % 2) == held, (n, str(t))
                if c == 2:
                    assert (_subset_sum(t.parts, b) or all(p % 2 == 0 for p in t.parts)) == held, (n, str(t))
                assert contains_type(d, t) == held, (b, c, str(t))
            assert searched == [], (b, c)
            pairs += len(types)
    assert pairs == 31735
    # the spy sees a query that no closed rule settles, so its silence above means something
    assert contains_type(Imprimitive(12, 3, 4), CycleType((5, 4, 2, 1))) is False
    assert searched == [((5, 4, 2, 1), 3)]


# --- coverage -------------------------------------------------------------------


def exhaustive_alt_cover(grp) -> frozenset[ClassId]:
    cover = set()
    for p in grp.elements():
        if perm_parity(p) is Parity.ODD:
            continue
        t = cycle_type_of(p)
        cover.add(split_class_of(p) if is_split(t) else ClassId(t))
    return frozenset(cover)


def _named_closure(n, name, cls=1):
    """A named group closed here: AGL1 and PGL2 from the generators in conftest, others from their record."""
    if name == f"AGL1({n})":
        return closure(n, affine_gens(n))
    if name == f"PGL2({n - 1})":
        return closure(n, projective_gens(n - 1))
    return named_group(n, name, cls)


def _materialize(inner):
    n = inner.degree
    if isinstance(inner, Intransitive):
        return closure(n, direct_product_gens(n, inner.k))
    if isinstance(inner, Imprimitive):
        return closure(n, wreath_gens(n, inner.b, inner.c))
    if isinstance(inner, FullAlternating):
        return closure(n, [Perm.from_cycles(n, [[1, 2, i]]) for i in range(3, n + 1)])
    return _named_closure(n, inner.name, inner.cls)


def _order(d):
    n = d.degree
    if isinstance(d, Intransitive):
        return factorial(d.k) * factorial(n - d.k)
    if isinstance(d, Imprimitive):
        return factorial(d.b) ** d.c * factorial(d.c)
    if isinstance(d, FullAlternating):
        return factorial(n) // 2
    return _named_closure(n, d.name, d.cls).order


def test_intersect_alt_coverage_matches_exhaustive():
    # every intersect_alt entry of the built-in alternating catalogs, n <= 10
    for n in range(4, 11):
        g = GroupId.alt(n)
        for d in load_catalog(g).descriptors:
            if not isinstance(d, IntersectAlt):
                continue
            want = exhaustive_alt_cover(_materialize(d.inner))
            assert class_coverage(d, g) == want, str(d)


def test_sym_coverage_matches_exhaustive():
    # every descriptor of the built-in S_n catalogs, n <= 9, small enough to enumerate
    checked = 0
    for n in range(3, 10):
        g = GroupId.sym(n)
        for d in load_catalog(g).descriptors:
            if _order(d) > 10**5:
                continue
            spec = type_spectrum(_materialize(d))
            assert class_coverage(d, g) == frozenset(ClassId(t) for t in spec), (str(g), str(d))
            checked += 1
    assert checked == 33


def test_alt_rule_is_the_sym_rule_behind_a_parity_test():
    # alt:X tests parity itself: no odd type, and X's S_n answer on every even one
    checked = 0
    for n in range(5, 10):
        for d in load_catalog(GroupId.sym(n)).descriptors:
            if isinstance(d, FullAlternating):
                continue
            alt_rule, sym_rule = _coverage_rule(IntersectAlt(d), n, True), _coverage_rule(d, n, False)
            for t in partitions(n):
                want = parity(t) is Parity.EVEN and sym_rule(t.parts, SplitTag.NOT_SPLIT)
                assert alt_rule(t.parts, SplitTag.NOT_SPLIT) == want, (n, str(d), str(t))
                checked += 1
    assert checked == 448


def test_alt_coverage_guards():
    g = GroupId.alt(9)
    with pytest.raises(ValueError):
        class_coverage(FullAlternating(9), g)
    with pytest.raises(ValueError):
        class_coverage(Intransitive(9, 2), g)
    with pytest.raises(ValueError):
        class_coverage(IntersectAlt(NamedGroup(9, "PGammaL2(8)")), g)  # already even


def test_alt_coverage_fixed_point_classes_a5():
    cov = class_coverage(IntersectAlt(Intransitive(5, 1)), GroupId.alt(5))
    want = {
        ClassId(ct(1, 1, 1, 1, 1)),
        ClassId(ct(2, 2, 1)),
        ClassId(ct(3, 1, 1)),
    }
    assert cov == frozenset(want)


def test_named_alt_coverage_is_exhaustive():
    g = GroupId.alt(9)
    d = NamedGroup(9, "PGammaL2(8)", 1)
    assert class_coverage(d, g) == alt_class_coverage(named_group(9, "PGammaL2(8)", 1))


# --- named groups ----------------------------------------------------------------


def test_all_generator_records_materialize():
    # each class of each built group reaches its order twice: by the whole closure, and by
    # the orbit-stabiliser order |1^G| * |G_1| of the two-point slice; and each is transitive
    records = generator_records()
    assert [r["name"] for r in records] == [*_FIELD_GROUPS] and len(_FIELD_GROUPS) == 7
    assert {r["name"] for r in records} == set(named_group_names())
    for rec in records:
        n, order = rec["degree"], rec["expected_order"]
        for cls in range(1, rec["classes"] + 1):
            grp = named_group(n, rec["name"], cls)
            assert grp.order == order, (rec["name"], cls)
            assert set(_two_point_slice(n, grp.generators, order)) <= set(grp.element_images()), (rec["name"], cls)
            assert {x[0] for x in grp.element_images()} == set(range(n)), (rec["name"], cls)


# sha256 of the sorted element images of each class of the seven built groups, taken from
# the generator records that generators.json held for them before they were built
_FIELD_GROUP_DIGESTS = {
    ("PGammaL2(8)", 1): "ba34a7a9650a3847b8e9be66d104a67a8dfc000f6b33bd59f1c051eec1b3fdb3",
    ("PGammaL2(8)", 2): "0c6fb6f52a9204e963f5bee589abd62fa354bae4138afb3b35bd9a111e181e95",
    ("PGammaL2(9)", 1): "d3c5aad602335f72e18e1e599b7f0628761051d898c25e5051d079940ce56f05",
    ("AGL2(3)", 1): "aa00604f3e29085200c919481722ff2abeaea18bb2e59999f24331ddb5c52788",
    ("AGL3(2)", 1): "e623bd8a0bc1b557a7aa7356f21f5e156225a57aad9b08c8ef321261e7f6a88f",
    ("AGL3(2)", 2): "23015546c87bd559bddf4387e97933757427a8865cea44b6f2fa356ec33ababc",
    ("PSL2(7)", 1): "906b5688cf1fdeb62decf538063c55ea435e9e9eb95e1b4aac40b4dd9421d3a3",
    ("PSL2(7)", 2): "416b50b2c7a37ec41c1e9b0400a433b1691e819bf04e7143280a07a453e9303d",
    ("M11", 1): "f9c0d43b2d4b268c4078cb300465df54d363bc3c591f1581111aa77c278e86e4",
    ("M11", 2): "864054c336c4a0be8e34284b6b257e08291c0a66c1fcb03c843b9b0accb21d7b",
    ("M12", 1): "80b3c1500366894135c976a6c0c779778334b5be27de7e17ed4f29fcf53ea8d5",
    ("M12", 2): "05539c531018cacd582153e6dacb55f0d6af671be23dbf6545e5532d1c7dfc74",
}


def test_field_groups_are_the_recorded_groups():
    # the same permutations, point for point, not just an isomorphic group
    classes = {(name, cls) for name, (_, k, _) in _FIELD_GROUPS.items() for cls in range(1, k + 1)}
    assert classes == set(_FIELD_GROUP_DIGESTS)
    for (name, cls), want in _FIELD_GROUP_DIGESTS.items():
        grp = named_group(_FIELD_GROUPS[name][0], name, cls)
        assert hashlib.sha256(b"".join(sorted(grp.element_images()))).hexdigest() == want, (name, cls)


def test_generators_file_is_the_built_groups():
    # bench/regen_expected.py reads M11 and M12 from this file, so it must hold the groups built here
    records = json.loads((DATA / "generators.json").read_text())
    assert [r["name"] for r in records] == ["M11", "M12"]
    for rec in records:
        name = rec["name"]
        size, classes, _ = _FIELD_GROUPS[name]
        order, images = _record(size, name, 1)
        cycles = [[[x + 1 for x in c] for c in cycles_of(Perm(g)) if len(c) > 1] for g in images]
        assert rec == {"name": name, "degree": size, "expected_order": order, "classes": classes, "generators": cycles}


def test_generator_records_rechecked_by_schreier_sims():
    # sympy's Schreier-Sims, not normcov's closure: each built group and its conjugate by (1 2)
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    for rec in generator_records():
        n = rec["degree"]
        gens = [Permutation(list(g.images)) for g in rec["generators"]]
        swap = Permutation([[0, 1]], size=n)
        for grp in (PermutationGroup(gens), PermutationGroup([swap * g * swap for g in gens])):
            assert grp.order() == rec["expected_order"], rec["name"]
            assert grp.is_primitive(), rec["name"]


def _check_closed_form(name, grp, order):
    """The served spectrum of name equals that of grp, closed here, whose order is checked."""
    assert grp.order == order, name
    d, types = NamedGroup(grp.degree, name), type_spectrum(grp)
    spectrum, alt_classes = _named(d)
    assert spectrum == frozenset(t.parts for t in types), name
    assert alt_classes is None and not grp.all_even(), name
    if grp.degree <= 24:
        for t in partitions(grp.degree):
            assert contains_type(d, t) == (t in types), (name, str(t))


def test_affine_group_at_every_prime_degree():
    # sym_prime and upper_alt_odd need AGL_1(p) at every prime degree they reach
    for p in primes_up_to(MAX_PARTITION_DEGREE):
        _check_closed_form(f"AGL1({p})", closure(p, affine_gens(p)), p * (p - 1))


def test_projective_group_at_every_prime_degree():
    for p in primes_up_to(23):
        _check_closed_form(f"PGL2({p})", closure(p + 1, projective_gens(p)), p**3 - p)


def test_named_group_errors():
    with pytest.raises(CatalogError):
        named_group(11, "Nope")
    with pytest.raises(CatalogError):
        named_group(10, "M11")  # wrong degree
    with pytest.raises(CatalogError):
        named_group(10, "PGammaL2(9)", 2)  # single-class record
    for name, degree in (("AGL1(5)", 5), ("PGL2(5)", 6)):
        with pytest.raises(CatalogError, match="no generator record"):
            named_group(degree, name)  # served by closed form, without generators
        with pytest.raises(CatalogError, match=re.escape(f"{name} has degree {degree}, not 12")):
            contains_type(NamedGroup(12, name), ct(12))
        with pytest.raises(CatalogError, match=re.escape(f"{name} does not have a class 2")):
            contains_type(NamedGroup(degree, name, 2), ct(degree))
    for name in ("AGL1(9)", "AGL1(07)", "agl1(7)", "AGL1(7) ", "PGL2(+7)"):
        with pytest.raises(CatalogError, match="no generator record"):
            contains_type(NamedGroup(7, name), ct(7))
    # only the seven names of _FIELD_GROUPS are built from a field: no other q or d is parsed
    for name, degree in (("PGammaL2(16)", 17), ("AGL2(5)", 25)):
        with pytest.raises(CatalogError, match=re.escape(f"no generator record named {name!r}")):
            named_group(degree, name)
        with pytest.raises(CatalogError, match=re.escape(f"no generator record named {name!r}")):
            contains_type(NamedGroup(degree, name), ct(degree))
    # p has at most 4 digits; a longer name is no closed form
    with pytest.raises(CatalogError, match=re.escape("AGL1(61) has degree 61, not 12")):
        contains_type(NamedGroup(12, "AGL1(61)"), ct(12))
    for name, degree in (("AGL1(10007)", 10007), ("PGL2(10007)", 10008)):
        with pytest.raises(CatalogError, match=re.escape(f"no generator record named {name!r}")):
            contains_type(NamedGroup(degree, name), ct(10007, *[1] * (degree - 10007)))
    assert contains_type(NamedGroup(9973, "AGL1(9973)"), ct(9973))
    assert contains_type(NamedGroup(9974, "PGL2(9973)"), ct(9973, 1))
    assert contains_type(NamedGroup(62, "PGL2(61)"), ct(61, 1))


def test_generator_record_closing_past_its_order_refused(monkeypatch):
    # S_8's and S_10's generators under the order 1440: the closure stops at the given order,
    # below the default cap that S_10 would pass and S_8 would not
    for n in (8, 10):
        gens = [[1, 0, *range(2, n)], [*range(1, n), 0]]
        monkeypatch.setitem(_FIELD_GROUPS, f"S{n}", (n, 1, lambda gens=gens: (1440, gens)))
    for n in (8, 10):
        with pytest.raises(CatalogError, match=f"S{n}: closure exceeds the expected order 1440"):
            named_group(n, f"S{n}")
        with pytest.raises(CatalogError, match="closure exceeds"):
            contains_type(NamedGroup(n, f"S{n}"), ct(n))


@pytest.mark.parametrize(
    "name, degree, order, word",
    [
        ("M12", 12, 190080, "M12: closure produced order 95040, expected 190080"),
        # L3(2) is an entry of PSL2(7)'s generators. 169 is no multiple of the orbit
        # length 7, so the stabiliser's cap 169 // 7 is its order 24
        ("L3(2)", 7, 169, "L3(2): closure produced order 168, expected 169"),
        ("L3(2)", 7, 167, "L3(2): closure exceeds the expected order 167"),
    ],
)
def test_generator_record_with_a_wrong_order_refused(capsys, monkeypatch, name, degree, order, word):
    # the descriptor reads the point stabiliser and named_group closes the whole group: both refuse alike
    size, classes, build = _FIELD_GROUPS["PSL2(7)" if name == "L3(2)" else name]
    monkeypatch.setitem(_FIELD_GROUPS, name, (size, classes, lambda: (order, build()[1])))
    _named.cache_clear()  # M12 may be resolved already, under its true order
    with pytest.raises(CatalogError, match=re.escape(word)):
        named_group(degree, name)
    for cls in (1, 2):
        with pytest.raises(CatalogError, match=re.escape(word)):
            contains_type(NamedGroup(degree, name, cls), ct(degree))
        code = main(["membership", str(degree), str(NamedGroup(degree, name, cls)), f"[{degree}]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and word in captured.err, captured.err


def test_field_groups_need_no_data_file(tmp_path):
    # the library opens no data file: a copy of the package without data/ answers alike
    shutil.copytree(DATA.parent, tmp_path / "normcov", ignore=shutil.ignore_patterns("data", "__pycache__"))
    code = """
from normcov.cycle_types import GroupId
from normcov.subgroups import _FIELD_GROUPS, NamedGroup, class_coverage, named_group
ds = [NamedGroup(n, name, cls) for name, (n, k, _) in _FIELD_GROUPS.items() for cls in range(1, k + 1)]
for d in ds + [NamedGroup(7, "AGL1(7)"), NamedGroup(12, "PGL2(11)")]:
    for g in (GroupId.sym(d.degree), GroupId.alt(d.degree)):
        try:
            print(d, g, sorted(map(str, class_coverage(d, g))))
        except ValueError as exc:
            print(d, g, exc)
print(named_group(12, "M12", 2).order)
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    outs = []
    for tree in (DATA.parent.parent, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**env, "PYTHONPATH": str(tree)}, cwd=tree
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].endswith("\n95040\n") and not (tmp_path / "normcov" / "data").exists()


def _spy_on_slice(monkeypatch):
    """An empty resolver cache, and the list of generators a descriptor resolves from now on."""
    _named.cache_clear()
    closed = []

    def spy(degree, gens, *args):
        closed.append((degree, [g.images for g in gens]))
        return _two_point_slice(degree, gens, *args)

    monkeypatch.setattr("normcov.subgroups._two_point_slice", spy)
    return closed


def test_second_class_answers_without_its_closure(monkeypatch):
    # only class-1 generators may be resolved; named_group closes the whole group, never through the slice
    want = alt_class_coverage(named_group(9, "PGammaL2(8)", 1)) ^ {
        ClassId(ct(9), tag) for tag in (SplitTag.PLUS, SplitTag.MINUS)
    }
    records = {r["name"]: r for r in generator_records()}
    closed = _spy_on_slice(monkeypatch)
    d = NamedGroup(9, "PGammaL2(8)", 2)
    assert class_coverage(d, GroupId.alt(9)) == want
    assert contains_type(d, ct(9)) and contains_type(NamedGroup(8, "AGL3(2)", 2), ct(7, 1))
    assert closed == [
        (n, [g.images for g in records[name]["generators"]]) for name, n in (("PGammaL2(8)", 9), ("AGL3(2)", 8))
    ]


def test_named_descriptor_closes_class_one_once(monkeypatch, capsys):
    # every question on M11, either class, bare or under alt:, reads one resolution of class 1
    record = next(r for r in generator_records() if r["name"] == "M11")
    closed = _spy_on_slice(monkeypatch)
    answers, codes = [], []
    for cls in (1, 2):
        for d in (NamedGroup(11, "M11", cls), IntersectAlt(NamedGroup(11, "M11", cls))):
            for ask in (
                lambda: contains_type(d, ct(11)),
                lambda: class_coverage(d, GroupId.sym(11)),
                lambda: class_coverage(d, GroupId.alt(11)),
            ):
                try:
                    answers.append(bool(ask()))
                except ValueError:
                    answers.append(None)  # alt:M11 is refused in S_11 and A_11 alike
            codes.append(main(["membership", "11", str(d), "[11]"]))
    assert answers == [True, True, True, None, None, None] * 2
    assert codes == [0, 2, 0, 2]
    assert "[11] in named:M11:2: yes" in capsys.readouterr().out
    assert closed == [(11, [g.images for g in record["generators"]])]


def _answers(name, n):
    """Coverage of both classes of name, bare and intersected with A_n, in S_n and A_n; errors by message."""
    out = []
    for cls in (1, 2):
        for d in (NamedGroup(n, name, cls), IntersectAlt(NamedGroup(n, name, cls))):
            for g in (GroupId.sym(n), GroupId.alt(n)):
                try:
                    out.append(class_coverage(d, g))
                except ValueError as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_named_resolvers_answer_the_same_from_threads():
    # the caches hold no lock: concurrent first calls may each close a group, never disagree
    groups = (("M11", 11), ("PGammaL2(8)", 9))
    want = [_answers(name, n) for name, n in groups]
    _named.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # half the threads start on each group, so both race on two first closures
            futures = [pool.submit(lambda i=i: [_answers(*groups[(i + j) % 2]) for j in (0, 1)]) for i in range(4)]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, answers in enumerate(got):
        assert answers == [want[(i + j) % 2] for j in (0, 1)], i


def test_named_second_class_is_conjugate():
    g1 = named_group(9, "PGammaL2(8)", 1)
    g2 = named_group(9, "PGammaL2(8)", 2)
    assert g1.order == g2.order == 1512
    assert type_spectrum(g1) == type_spectrum(g2)
    assert set(g1.element_images()) != set(g2.element_images())


# --- catalogs ---------------------------------------------------------------------


def test_builtin_catalogs_load():
    for n in range(3, 13):
        cat = load_catalog(GroupId.sym(n))
        assert cat.complete and cat.group == GroupId.sym(n)
    for n in range(4, 13):
        cat = load_catalog(GroupId.alt(n))
        assert cat.complete and cat.group == GroupId.alt(n)


def test_catalog_contents_a11():
    cat = load_catalog(GroupId.alt(11))
    want = {
        IntersectAlt(Intransitive(11, k)) for k in range(1, 6)
    } | {NamedGroup(11, "M11", 1), NamedGroup(11, "M11", 2)}
    assert set(cat.descriptors) == want


def test_catalog_contents_s7():
    cat = load_catalog(GroupId.sym(7))
    want = {
        FullAlternating(7),
        Intransitive(7, 1),
        Intransitive(7, 2),
        Intransitive(7, 3),
        NamedGroup(7, "AGL1(7)"),
    }
    assert set(cat.descriptors) == want


def test_catalog_contents_a8_two_affine_classes():
    cat = load_catalog(GroupId.alt(8))
    named = [d for d in cat.descriptors if isinstance(d, NamedGroup)]
    assert sorted((d.name, d.cls) for d in named) == [("AGL3(2)", 1), ("AGL3(2)", 2)]


def test_catalog_meets_left_out_of_alt_lie_in_the_all_even_group():
    # an S_n class whose meet with A_n is not listed may meet only classes some listed class meets;
    # each such meet lies inside both classes of the all-even primitive group at its degree
    all_even = {7: "PSL2(7)", 8: "AGL3(2)", 11: "M11", 12: "M12"}
    left_out = set()
    for n in range(5, 13):
        a = GroupId.alt(n)
        listed = load_catalog(a).descriptors
        met = set().union(*(class_coverage(d, a) for d in listed))
        for x in load_catalog(GroupId.sym(n)).descriptors:
            if isinstance(x, FullAlternating) or IntersectAlt(x) in listed:
                continue
            left_out.add(x)
            cov = class_coverage(IntersectAlt(x), a)
            assert cov <= met, x
            for cls in (1, 2):
                assert cov <= class_coverage(NamedGroup(n, all_even[n], cls), a), (x, cls)
    assert left_out == {
        NamedGroup(7, "AGL1(7)"),
        NamedGroup(8, "PGL2(7)"),
        Imprimitive(8, 2, 4),
        NamedGroup(11, "AGL1(11)"),
        NamedGroup(12, "PGL2(11)"),
    }


def test_catalog_redundancy_report():
    # the pairs (x, y) of one catalog where the classes x meets lie among those y meets
    def inside(g):
        cov = {d: class_coverage(d, g) for d in load_catalog(g).descriptors}
        return {(str(x), str(y)) for x in cov for y in cov if x != y and cov[x] <= cov[y]}

    def both(x, y):
        return {(x, y), (y, x)}

    for n in range(3, 13):
        assert inside(GroupId.sym(n)) == set(), n
    want = {
        4: both("alt:intransitive:2", "alt:imprimitive:2,2"),  # the C_2 listed on purpose
        5: both("alt:intransitive:1", "alt:intransitive:2"),
        6: {("alt:intransitive:2", "alt:imprimitive:3,2"), ("alt:imprimitive:2,3", "alt:imprimitive:3,2")},
        7: both("named:PSL2(7)", "named:PSL2(7):2"),
        8: both("named:AGL3(2)", "named:AGL3(2):2"),
        11: both("named:M11", "named:M11:2"),
        12: both("named:M12", "named:M12:2"),
    }
    for n in range(4, 13):
        assert inside(GroupId.alt(n)) == want.get(n, set()), n


def test_catalog_missing():
    with pytest.raises(CatalogError):
        load_catalog(GroupId.sym(13))


def test_catalog_file_roundtrip(tmp_path):
    cat = load_catalog(GroupId.alt(9))
    path = tmp_path / "a9.json"
    path.write_text(json.dumps(catalog_to_json(cat)))
    again = load_catalog(GroupId.alt(9), path=path)
    assert again == cat
    with pytest.raises(CatalogError):
        load_catalog(GroupId.sym(9), path=path)  # wrong group
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CatalogError):
        load_catalog(path=bad)
    # a catalog field must be a JSON integer: 2.0 is not read as 2
    obj = {"group": "S6", "complete": False, "subgroups": [{"kind": "imprimitive", "b": 2.0, "c": 3}]}
    bad.write_text(json.dumps(obj))
    with pytest.raises(CatalogError, match="field 'b'"):
        load_catalog(path=bad)


def test_catalog_duplicate_rejected():
    with pytest.raises(CatalogError):
        Catalog(GroupId.sym(5), (Intransitive(5, 1), Intransitive(5, 1)), True)


def test_builtin_catalog_files_equal_the_computed_catalogs():
    # the benchmark's oracle reads these files, so each must be its computed catalog, serialized
    groups = [GroupId.sym(n) for n in range(3, 13)] + [GroupId.alt(n) for n in range(4, 13)]
    folder = DATA / "catalogs"
    assert sorted(f.name for f in folder.iterdir()) == sorted(f"{g.name}.json" for g in groups)
    texts = [json.dumps(catalog_to_json(load_catalog(g)), indent=1) + "\n" for g in groups]
    for g, text in zip(groups, texts):
        assert (folder / f"{g.name}.json").read_text() == text, g
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "551d9203e0d9b6bbb21e7dc88554799c75553216fe8778e77168e99b016fb3ab"
