"""Cycle types: partition enumeration, parity, splitting, and the type families."""

import re
from fractions import Fraction

import pytest

from normcov.cycle_types import (
    ClassId,
    CycleType,
    GroupId,
    GroupKind,
    Parity,
    SplitTag,
    class_universe,
    is_split,
    parity,
    partitions,
    t_prime_set,
    t_set,
    u_set,
)
from normcov.numtheory import Interval, euler_phi
from math import gcd


def ct(*parts) -> CycleType:
    return CycleType.of(parts)


# --- partitions -------------------------------------------------------------


def count_partitions(n: int) -> int:
    # independent counter: DP over largest part
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for m in range(n + 1):
        table[0][m] = 1
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            table[k][m] = table[k][m - 1] + (table[k - m][m] if k >= m else 0)
    return table[n][n]


def test_partition_counts():
    assert count_partitions(5) == 7
    assert count_partitions(12) == 77
    assert len(partitions(1)) == 1 and partitions(1)[0] == ct(1)
    assert len(partitions(5)) == 7
    assert len(partitions(12)) == 77
    for n in range(1, 26):
        assert len(partitions(n)) == count_partitions(n)


def test_partition_order_and_shape():
    for n in range(1, 26):
        ps = partitions(n)
        assert ps[0] == ct(n) and ps[-1] == ct(*[1] * n)
        raw = [p.parts for p in ps]
        assert raw == sorted(raw, reverse=True), "reverse lexicographic order"
        assert all(list(r) == sorted(r, reverse=True) for r in raw), "parts descending"
        assert len(set(ps)) == len(ps) == count_partitions(n)
        assert all(p.n == n for p in ps)


def test_partition_bound_errors():
    with pytest.raises(ValueError):
        partitions(0)
    with pytest.raises(ValueError):
        partitions(61)


# --- basic types --------------------------------------------------------------


def test_cycle_type_normalization():
    assert CycleType((2, 5)).parts == (5, 2)
    assert CycleType.parse("[1,2,9]") == ct(9, 2, 1)
    assert str(ct(3, 4, 4)) == "[4,4,3]"
    with pytest.raises(ValueError):
        CycleType(())
    with pytest.raises(ValueError):
        CycleType((0, 3))
    with pytest.raises(ValueError):
        CycleType.parse("1,2")
    # any sequence, in any order, is stored as one descending tuple, so equal types hash alike
    for given in ([3, 1], [1, 3], (1, 3), (3, 1)):
        t = CycleType(given)
        assert t == CycleType((3, 1)) and type(t.parts) is tuple and t.parts == (3, 1), given
        assert hash(t) == hash(CycleType((3, 1)))
    assert len({CycleType([3, 1]), CycleType((1, 3)), ct(3, 1)}) == 1
    with pytest.raises(ValueError, match=re.escape("parts must be >= 1, got (3, 0)")):
        CycleType([0, 3])
    with pytest.raises(ValueError, match="at least one part"):
        CycleType([])


def test_class_id_validation():
    ClassId(ct(9), SplitTag.PLUS)
    with pytest.raises(ValueError):
        ClassId(ct(2, 2), SplitTag.PLUS)
    assert str(ClassId(ct(9), SplitTag.MINUS)) == "[9]-"


def test_group_id():
    assert GroupId.parse("S12").degree == 12
    assert GroupId.parse("alt", 9) == GroupId.alt(9)
    assert GroupId.sym(3).name == "S3"
    with pytest.raises(ValueError):
        GroupId.alt(3)
    with pytest.raises(ValueError):
        GroupId.parse("X9")
    with pytest.raises(ValueError, match="cannot parse group 'S²'"):
        GroupId.parse("S²")


def test_class_and_group_ids_order_totally():
    # both classes order by their fields, so their enum fields must compare: by value
    assert SplitTag.NOT_SPLIT < SplitTag.PLUS < SplitTag.MINUS and GroupKind.ALT < GroupKind.SYM
    for g in (GroupId.alt(9), GroupId.sym(9)):
        universe = class_universe(g)
        ordered = sorted(universe)
        assert len(ordered) == len(universe) and set(ordered) == set(universe)
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
    a9 = sorted(class_universe(GroupId.alt(9)))
    assert a9.index(ClassId(ct(9), SplitTag.PLUS)) + 1 == a9.index(ClassId(ct(9), SplitTag.MINUS))
    mixed = [GroupId.sym(5), GroupId.alt(5), GroupId.sym(3), GroupId.alt(12)]
    assert sorted(mixed) == [GroupId.alt(5), GroupId.alt(12), GroupId.sym(3), GroupId.sym(5)]
    assert GroupId.alt(5) < GroupId.sym(5) and GroupId.sym(5) >= GroupId.alt(5)
    # the order leaves names, str() and .value as they were
    assert str(ClassId(ct(9), SplitTag.PLUS)) == "[9]+" and GroupKind.SYM.value == "S" and str(GroupId.alt(5)) == "A5"


def test_parity_examples():
    assert parity(ct(2, 5)) is Parity.ODD
    assert parity(ct(1, 1, 9)) is Parity.EVEN
    assert parity(ct(7)) is Parity.EVEN  # [n] with n odd
    assert parity(ct(6)) is Parity.ODD


def test_is_split_examples():
    assert is_split(ct(1, 3, 5))
    assert not is_split(ct(2, 2, 7))
    assert is_split(ct(9))
    assert not is_split(ct(1, 1, 3))


def test_split_implies_even():
    for n in range(1, 21):
        for t in partitions(n):
            if is_split(t):
                assert parity(t) is Parity.EVEN


# --- distinguished families -----------------------------------------------


def test_u_set_examples():
    # oracle: direct enumeration of coprime k below n/2
    def brute(n):
        return {ct(k, n - k) for k in range(2, n) if 2 * k < n and gcd(k, n) == 1}

    assert set(u_set(11)) == brute(11) == {ct(2, 9), ct(3, 8), ct(4, 7), ct(5, 6)}
    assert set(u_set(7)) == {ct(2, 5), ct(3, 4)}
    assert u_set(6) == []
    with pytest.raises(ValueError):
        u_set(4)


def test_u_set_size_law():
    for n in range(5, 41):
        assert len(u_set(n)) == euler_phi(n) // 2 - 1


def test_t_set_examples():
    assert t_set(11) == [ct(1, 1, 9), ct(2, 2, 7), ct(3, 3, 5), ct(4, 4, 3)]
    assert t_set(5) == [ct(1, 1, 3)]
    assert t_set(8) == [ct(1, 2, 5)]
    with pytest.raises(ValueError):
        t_set(4)


def test_t_set_parts_positive():
    for n in range(5, 61):
        for t in t_set(n):
            assert all(p >= 1 for p in t.parts)
            assert t.n == n


def test_t_prime_set_examples():
    assert t_prime_set(18, Interval.parse("[1,3)")) == [ct(5, 4, 9)]
    assert t_prime_set(36, Interval.parse("[2,6)")) == [ct(7, 2, 27)]
    assert t_prime_set(12, Interval.parse("[1,2)")) == [ct(3, 2, 7)]


def test_t_prime_set_errors():
    with pytest.raises(ValueError):
        t_prime_set(9, Interval.parse("[1,2)"))  # not divisible by 6
    with pytest.raises(ValueError):
        t_prime_set(18, Interval.parse("[1,4)"))  # outside [1, m/2)
    with pytest.raises(ValueError):
        t_prime_set(18, Interval.parse("[0,2)"))


def test_t_prime_middle_part_at_least_two():
    for n in range(12, 61, 6):
        m = n // 3
        iv = Interval(Fraction(1), Fraction(m, 2))
        for t in t_prime_set(n, iv):
            assert t.n == n
            assert sorted(t.parts)[0] >= 2


# --- class universes -----------------------------------------------------------


def test_class_universe_counts():
    assert len(class_universe(GroupId.alt(4))) == 4
    assert len(class_universe(GroupId.sym(5))) == 7
    a9 = class_universe(GroupId.alt(9))
    assert ClassId(ct(9), SplitTag.PLUS) in a9
    assert ClassId(ct(9), SplitTag.MINUS) in a9


def test_class_universe_structure():
    for n in range(4, 21):
        evens = [t for t in partitions(n) if parity(t) is Parity.EVEN]
        splits = [t for t in evens if is_split(t)]
        universe = class_universe(GroupId.alt(n))
        assert len(universe) == len(evens) + len(splits)
        assert len(set(universe)) == len(universe)
        assert len(class_universe(GroupId.sym(n))) == len(partitions(n))


# --- enumerators build their types unchecked -----------------------------------


def _as_if_checked(types):
    """Each type is what the public constructor makes of its parts: descending, parts >= 1."""
    for t in types:
        public = CycleType(t.parts)
        assert type(t) is CycleType and t.parts[-1] >= 1, t
        assert all(a >= b for a, b in zip(t.parts, t.parts[1:])), t
        assert t == public and hash(t) == hash(public) and repr(t) == repr(public), t


def test_type_families_are_built_as_the_public_constructor_builds():
    for n in range(5, 401):
        _as_if_checked(u_set(n))
        _as_if_checked(t_set(n))
    for n in range(12, 401, 6):
        _as_if_checked(t_prime_set(n, Interval(Fraction(1), Fraction(n // 3, 2))))


def test_partitions_and_classes_are_built_as_the_public_constructor_builds():
    # every partition up to degree 32: p(60) alone is near a million
    for n in range(1, 33):
        _as_if_checked(partitions(n))
        if n >= 4:
            _as_if_checked(c.ctype for c in class_universe(GroupId.sym(n)))
            _as_if_checked(c.ctype for c in class_universe(GroupId.alt(n)))
