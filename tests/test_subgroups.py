"""Descriptor semantics against exhaustive enumeration, plus catalog loading."""

import hashlib
import json
import re
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from math import factorial
from pathlib import Path

import pytest
from conftest import affine_gens, projective_gens

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
    _PACKAGE_DATA,
    _coverage_rule,
    _named,
    _subset_sum,
    _wreath_search,
    catalog_to_json,
    class_coverage,
    contains_type,
    data_dir,
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
    records = json.loads(Path(data_dir(), "generators.json").read_text())
    assert {r["name"] for r in records} == set(named_group_names())
    for entry in records:
        grp = named_group(entry["degree"], entry["name"])
        assert grp.order == entry["expected_order"], entry["name"]


def test_generator_records_rechecked_by_schreier_sims():
    # sympy's Schreier-Sims, not normcov's closure: each record and its conjugate by (1 2)
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    records = json.loads(Path(data_dir(), "generators.json").read_text())
    assert len(records) == 7
    for rec in records:
        n = rec["degree"]
        gens = [Permutation([[p - 1 for p in cyc] for cyc in cycles], size=n) for cycles in rec["generators"]]
        swap = Permutation([[0, 1]], size=n)
        for grp in (PermutationGroup(gens), PermutationGroup([swap * g * swap for g in gens])):
            assert grp.order() == rec["expected_order"], rec["name"]
            assert grp.is_primitive(), rec["name"]


def _check_closed_form(name, grp, order):
    """The served spectrum of name equals that of grp, closed here, whose order is checked."""
    assert grp.order == order, name
    d, types = NamedGroup(grp.degree, name), type_spectrum(grp)
    spectrum, alt_classes = _named(d, data_dir())
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
    # p has at most 4 digits; a longer name is no closed form
    with pytest.raises(CatalogError, match=re.escape("AGL1(61) has degree 61, not 12")):
        contains_type(NamedGroup(12, "AGL1(61)"), ct(12))
    for name, degree in (("AGL1(10007)", 10007), ("PGL2(10007)", 10008)):
        with pytest.raises(CatalogError, match=re.escape(f"no generator record named {name!r}")):
            contains_type(NamedGroup(degree, name), ct(10007, *[1] * (degree - 10007)))
    assert contains_type(NamedGroup(9973, "AGL1(9973)"), ct(9973))
    assert contains_type(NamedGroup(9974, "PGL2(9973)"), ct(9973, 1))
    assert contains_type(NamedGroup(62, "PGL2(61)"), ct(61, 1))


def test_intransitive_generator_record_refused(tmp_path, monkeypatch):
    shutil.copytree(data_dir(), tmp_path / "data")
    gen_file = tmp_path / "data" / "generators.json"
    records = json.loads(gen_file.read_text())
    # <(1 2 3), (4 5 6)> has the recorded order 9, so only the orbit check refuses it
    bad = {"name": "C3xC3", "degree": 6, "expected_order": 9, "classes": 2, "generators": [[[1, 2, 3]], [[4, 5, 6]]]}
    gen_file.write_text(json.dumps(records + [bad]))
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    for cls in (1, 2):
        with pytest.raises(CatalogError, match="C3xC3: intransitive generators, point 1 has an orbit of 3 <"):
            named_group(6, "C3xC3", cls)
    with pytest.raises(CatalogError, match="intransitive"):
        contains_type(NamedGroup(6, "C3xC3", 2), ct(3, 3))
    assert named_group(7, "PSL2(7)").order == 168


def test_generator_record_closing_past_its_order_refused(tmp_path, monkeypatch):
    shutil.copytree(data_dir(), tmp_path / "data")
    gen_file = tmp_path / "data" / "generators.json"
    records = json.loads(gen_file.read_text())
    # S_8's and S_10's generators under the order 1440: the closure stops at the recorded order,
    # below the default cap that S_10 would pass and S_8 would not
    bad = [
        {"name": f"S{n}", "degree": n, "expected_order": 1440, "generators": [[[1, 2]], [list(range(1, n + 1))]]}
        for n in (8, 10)
    ]
    gen_file.write_text(json.dumps(records + bad))
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    for n in (8, 10):
        with pytest.raises(CatalogError, match=f"S{n}: closure exceeds the expected order 1440"):
            named_group(n, f"S{n}")
        with pytest.raises(CatalogError, match="closure exceeds"):
            contains_type(NamedGroup(n, f"S{n}"), ct(n))


@pytest.mark.parametrize(
    "name, degree, order, word",
    [
        ("M12", 12, 190080, "M12: closure produced order 95040, expected 190080"),
        # 169 is no multiple of the orbit length 7, so the stabiliser's cap 169 // 7 is its order 24
        ("PSL2(7)", 7, 169, "PSL2(7): closure produced order 168, expected 169"),
        ("PSL2(7)", 7, 167, "PSL2(7): closure exceeds the expected order 167"),
    ],
)
def test_generator_record_with_a_wrong_order_refused(capsys, tmp_path, monkeypatch, name, degree, order, word):
    # the descriptor reads the point stabiliser and named_group closes the whole group: both refuse alike
    shutil.copytree(data_dir(), tmp_path / "data")
    gen_file = tmp_path / "data" / "generators.json"
    records = json.loads(gen_file.read_text())
    next(rec for rec in records if rec["name"] == name)["expected_order"] = order
    gen_file.write_text(json.dumps(records))
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    with pytest.raises(CatalogError, match=re.escape(word)):
        named_group(degree, name)
    for cls in (1, 2):
        with pytest.raises(CatalogError, match=re.escape(word)):
            contains_type(NamedGroup(degree, name, cls), ct(degree))
        code = main(["membership", str(degree), str(NamedGroup(degree, name, cls)), f"[{degree}]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and word in captured.err, captured.err


@pytest.mark.parametrize(
    "name, edit, argv, word",
    [
        ("M11", lambda rec: rec.pop("generators"), ["11", "named:M11", "[11]"], "no field 'generators'"),
        ("M11", lambda rec: rec.update(classes="2"), ["11", "named:M11:2", "[11]"], "'classes' must be an integer"),
        ("M12", lambda rec: rec.update(expected_order="95040"), ["12", "named:M12", "[11,1]"], "'expected_order'"),
        ("M11", lambda rec: rec["generators"][0][0].__setitem__(0, "1"), ["11", "named:M11", "[11]"], "M11: malformed"),
        ("M11", lambda rec: rec.update(name=11), ["11", "named:M11", "[11]"], "'name' must be a string"),
        ("M11", lambda rec: rec.update(degree=[11]), ["11", "named:M11", "[11]"], "'degree' must be an integer"),
        ("M11", lambda rec: rec.update(generators={}), ["11", "named:M11", "[11]"], "'generators' must be a list"),
    ],
)
def test_malformed_generator_record_is_an_error(capsys, tmp_path, monkeypatch, name, edit, argv, word):
    # exit 1 means a basic set fails to cover, so bad data must exit 2, not end in a traceback
    shutil.copytree(data_dir(), tmp_path / "data")
    gen_file = tmp_path / "data" / "generators.json"
    records = json.loads(gen_file.read_text())
    edit(next(rec for rec in records if rec["name"] == name))
    gen_file.write_text(json.dumps(records))
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    for fmt in ("text", "json"):
        code = main(["membership", *argv, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and word in captured.err, captured.err
    with pytest.raises(CatalogError, match=re.escape(word)):
        contains_type(NamedGroup(int(argv[0]), name), ct(int(argv[0])))


def test_generator_data_that_is_no_list_of_records(tmp_path, monkeypatch):
    shutil.copytree(data_dir(), tmp_path / "data")
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    gen_file = tmp_path / "data" / "generators.json"
    for text, word in (("{}", "not a list of records"), ('["M11"]', "malformed generator record 1"), ("[", "malformed generator data file")):
        gen_file.write_text(text)
        with pytest.raises(CatalogError, match=word):
            named_group_names()


def _spy_on_slice(tmp_path, monkeypatch):
    """A fresh data directory, so fresh cache keys, and the list of generators a descriptor resolves from now on."""
    shutil.copytree(data_dir(), tmp_path / "data")
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
    closed = []

    def spy(degree, gens, *args):
        closed.append((degree, [g.images for g in gens]))
        return _two_point_slice(degree, gens, *args)

    monkeypatch.setattr("normcov.subgroups._two_point_slice", spy)
    return closed


def test_second_class_answers_without_its_closure(tmp_path, monkeypatch):
    # only class-1 generators may be resolved; named_group closes the whole group, never through the slice
    want = alt_class_coverage(named_group(9, "PGammaL2(8)", 1)) ^ {
        ClassId(ct(9), tag) for tag in (SplitTag.PLUS, SplitTag.MINUS)
    }
    records = {r["name"]: r for r in json.loads(Path(data_dir(), "generators.json").read_text())}
    closed = _spy_on_slice(tmp_path, monkeypatch)
    d = NamedGroup(9, "PGammaL2(8)", 2)
    assert class_coverage(d, GroupId.alt(9)) == want
    assert contains_type(d, ct(9)) and contains_type(NamedGroup(8, "AGL3(2)", 2), ct(7, 1))
    assert closed == [
        (n, [Perm.from_cycles(n, cycles).images for cycles in records[name]["generators"]])
        for name, n in (("PGammaL2(8)", 9), ("AGL3(2)", 8))
    ]


def test_named_descriptor_closes_class_one_once(tmp_path, monkeypatch, capsys):
    # every question on M11, either class, bare or under alt:, reads one resolution of class 1
    record = next(r for r in json.loads(Path(data_dir(), "generators.json").read_text()) if r["name"] == "M11")
    closed = _spy_on_slice(tmp_path, monkeypatch)
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
    assert closed == [(11, [Perm.from_cycles(11, cycles).images for cycles in record["generators"]])]


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


def test_named_resolvers_answer_the_same_from_threads(tmp_path, monkeypatch):
    # the caches hold no lock: concurrent first calls may each close a group, never disagree
    groups = (("M11", 11), ("PGammaL2(8)", 9))
    want = [_answers(name, n) for name, n in groups]
    shutil.copytree(data_dir(), tmp_path / "data")
    monkeypatch.setenv("NCK_DATA_DIR", str(tmp_path / "data"))
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
    folder = Path(_PACKAGE_DATA, "catalogs")
    assert sorted(f.name for f in folder.iterdir()) == sorted(f"{g.name}.json" for g in groups)
    texts = [json.dumps(catalog_to_json(load_catalog(g)), indent=1) + "\n" for g in groups]
    for g, text in zip(groups, texts):
        assert (folder / f"{g.name}.json").read_text() == text, g
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "551d9203e0d9b6bbb21e7dc88554799c75553216fe8778e77168e99b016fb3ab"
