"""Permutations, closure enumeration, spectra and split-class resolution."""

import json
import random
from math import factorial, lcm
from pathlib import Path

import pytest
from conftest import affine_gens, projective_gens

from normcov.cycle_types import (
    ClassId,
    CycleType,
    GroupId,
    Parity,
    SplitTag,
    class_universe,
    is_split,
    parity,
    partitions,
)
from normcov.numtheory import divisors, primes_up_to
from normcov.permgroup import (
    ClosureCapExceeded,
    Perm,
    alt_class_coverage,
    canonical_split_rep,
    closure,
    compose,
    conjugate,
    cycle_type_of,
    cycles_of,
    direct_product_gens,
    inverse,
    perm_parity,
    split_class_of,
    sym_gens,
    type_spectrum,
    wreath_gens,
)
from normcov.subgroups import IntersectAlt, NamedGroup, _coverage_rule, data_dir, named_group

SEED = 424242
print(f"test_permgroup random seed = {SEED}")


def ct(*parts):
    return CycleType.of(parts)


def alt_gens(n: int) -> list[Perm]:
    three = Perm.from_cycles(n, [[1, 2, 3]])
    if n % 2 == 1:
        big = Perm.from_cycles(n, [list(range(1, n + 1))])
    else:
        big = Perm.from_cycles(n, [list(range(2, n + 1))])
    return [three, big]


# --- basics -------------------------------------------------------------------


def test_perm_basics():
    a = Perm.from_cycles(5, [[1, 2, 3]])
    b = Perm.from_cycles(5, [[3, 4]])
    # (a*b)(x) = a(b(x)): point 3 (index 2) goes to 4 under b, stays under a
    assert (a * b)(2) == 3
    assert compose(a, b) == a * b
    assert a * inverse(a) == Perm.identity(5)
    assert inverse(a) == a.inverse()
    with pytest.raises(ValueError):
        compose(a, Perm.identity(4))
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_cycle_type_of_examples():
    assert cycle_type_of(Perm.identity(5)) == ct(1, 1, 1, 1, 1)
    x = Perm.from_cycles(7, [[1, 2, 3], [4, 5]])
    assert cycle_type_of(x) == ct(3, 2, 1, 1)
    assert perm_parity(Perm.from_cycles(4, [[1, 2]])) is Parity.ODD


def test_parity_matches_type_parity():
    grp = closure(5, sym_gens(5))
    assert grp.order == 120
    for p in grp.elements():
        assert perm_parity(p) is parity(cycle_type_of(p))


def test_conjugate_relabels_cycles():
    x = Perm.from_cycles(6, [[1, 2, 3]])
    g = Perm.from_cycles(6, [[1, 4], [2, 5], [3, 6]])
    assert conjugate(x, g) == Perm.from_cycles(6, [[4, 5, 6]])


def test_cycles_of_least_point_first():
    x = Perm.from_cycles(6, [[2, 4, 6], [3, 5]])
    assert cycles_of(x) == [[0], [1, 3, 5], [2, 4]]


# --- closure ------------------------------------------------------------------


def test_closure_s3():
    grp = closure(3, sym_gens(3))
    assert grp.order == 6


def test_closure_agl1_5():
    gens = [
        Perm.from_cycles(5, [[1, 2, 3, 4, 5]]),
        Perm.from_cycles(5, [[2, 3, 5, 4]]),
    ]
    assert closure(5, gens).order == 20  # p(p-1)


def test_closure_deterministic():
    gens = sym_gens(6)
    g1 = closure(6, gens)
    g2 = closure(6, gens)
    assert g1.element_images() == g2.element_images()
    assert g1.element_images()[0] == bytes(range(6))


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        closure(9, sym_gens(9), cap=1000)


def _bfs_elements(degree: int, gens) -> set[bytes]:
    """Every element of <gens>, by breadth-first products with the generators."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = tuple(g.images[x] for x in e)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return {bytes(e) for e in seen}


def _record_gens():
    """(name, degree, generators) for every class of every generator record.

    AGL1(p) and PGL2(p) have no record; their generators are built here, for
    AGL1 at every prime 5 <= p <= 59 and for PGL2 at p = 5, 7, 11.
    """
    for rec in json.loads(Path(data_dir(), "generators.json").read_text()):
        n = rec["degree"]
        gens = [Perm.from_cycles(n, c) for c in rec["generators"]]
        yield rec["name"], n, gens
        if rec.get("classes", 1) == 2:
            yield rec["name"] + ":2", n, [conjugate(g, Perm.from_cycles(n, [[1, 2]])) for g in gens]
    for p in primes_up_to(59)[2:]:
        yield f"AGL1({p})", p, affine_gens(p)
    for p in (5, 7, 11):
        yield f"PGL2({p})", p + 1, projective_gens(p)


def test_closure_matches_bfs():
    cases = list(_record_gens())
    for n in range(3, 9):
        cases += [(f"S{n}", n, sym_gens(n)), (f"A{n}", n, alt_gens(n))]
        cases += [(f"S{k}xS{n - k}", n, direct_product_gens(n, k)) for k in range(1, n)]
        cases += [(f"S{b}wrS{n // b}", n, wreath_gens(n, b, n // b)) for b in divisors(n) if 1 < b < n]
    for name, n, gens in cases:
        grp = closure(n, gens)
        images = grp.element_images()
        assert images[0] == bytes(range(n)), name
        assert len(set(images)) == len(images) and set(images) == _bfs_elements(n, gens), name
        assert closure(n, gens, cap=grp.order).element_images() == images, name
        if grp.order > 1:
            with pytest.raises(ClosureCapExceeded):
                closure(n, gens, cap=grp.order - 1)


def test_product_and_wreath_orders():
    assert closure(7, direct_product_gens(7, 3)).order == factorial(3) * factorial(4)
    assert closure(6, wreath_gens(6, 2, 3)).order == 2**3 * 6
    assert closure(6, wreath_gens(6, 3, 2)).order == 6**2 * 2
    assert closure(8, wreath_gens(8, 4, 2)).order == 24**2 * 2


# --- spectra --------------------------------------------------------------------


def test_sym_spectrum_is_all_partitions():
    for n in (5, 6, 7):
        grp = closure(n, sym_gens(n))
        assert type_spectrum(grp) == frozenset(partitions(n))


def test_agl1_7_spectrum():
    # x -> x+1 and x -> 3x on Z_7, point i+1 being residue i
    grp = closure(7, [Perm.from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]]), Perm.from_cycles(7, [[2, 4, 3, 7, 5, 6]])])
    want = {ct(1, 1, 1, 1, 1, 1, 1), ct(7), ct(1, 2, 2, 2), ct(1, 3, 3), ct(1, 6)}
    assert grp.order == 42 and type_spectrum(grp) == frozenset(want)
    assert {t for t in partitions(7) if _coverage_rule(NamedGroup(7, "AGL1(7)"), 7, False)(t.parts, SplitTag.NOT_SPLIT)} == want


def test_trivial_spectrum():
    grp = closure(4, [Perm.identity(4)])
    assert type_spectrum(grp) == frozenset({ct(1, 1, 1, 1)})


def test_m11_order_and_no_order_12_types():
    grp = named_group(11, "M11")
    assert grp.order == 7920
    assert all(lcm(*t.parts) != 12 for t in type_spectrum(grp))


# --- split class resolution -----------------------------------------------------


def test_split_class_of_canonical_labels():
    for parts in ([9], [5, 3, 1], [11, 1], [7, 5]):
        t = CycleType.of(parts)
        rep = canonical_split_rep(t)
        assert cycle_type_of(rep) == t
        assert split_class_of(rep).split_tag is SplitTag.PLUS
        swapped = conjugate(rep, Perm.from_cycles(t.n, [[1, 2]]))
        assert split_class_of(swapped).split_tag is SplitTag.MINUS


def test_split_class_conjugation_invariance():
    rng = random.Random(SEED)
    for parts in ([9], [5, 3, 1], [7, 1, 1]):
        t = CycleType.of(parts)
        if not all(p % 2 for p in t.parts) or len(set(t.parts)) != len(t.parts):
            continue
        rep = canonical_split_rep(t)
        n = t.n
        for _ in range(200):
            imgs = list(range(n))
            rng.shuffle(imgs)
            h = Perm(imgs)
            tag = split_class_of(conjugate(rep, h)).split_tag
            expect = SplitTag.PLUS if perm_parity(h) is Parity.EVEN else SplitTag.MINUS
            assert tag is expect


def test_split_class_rejects_non_split():
    with pytest.raises(ValueError):
        split_class_of(Perm.from_cycles(4, [[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        canonical_split_rep(ct(2, 2))


# --- alternating class coverage ------------------------------------------------


def test_alt_class_coverage_full_a4():
    grp = closure(4, [Perm.from_cycles(4, [[1, 2, 3]]), Perm.from_cycles(4, [[1, 2], [3, 4]])])
    assert grp.order == 12
    assert alt_class_coverage(grp) == frozenset(class_universe(GroupId.alt(4)))


def test_alt_class_coverage_cyclic_three():
    # (1 2 3) and its inverse lie in different A_4 classes: the conjugator
    # reversing a 3-cycle is a transposition, so the cyclic group meets both
    grp = closure(4, [Perm.from_cycles(4, [[1, 2, 3]])])
    cov = alt_class_coverage(grp)
    tags = {c.split_tag for c in cov if c.ctype == ct(3, 1)}
    assert len(cov) == 3 and tags == {SplitTag.PLUS, SplitTag.MINUS}


def test_alt_class_coverage_rejects_odd():
    with pytest.raises(ValueError):
        alt_class_coverage(closure(3, sym_gens(3)))


def test_pgammal28_copies_cover_opposite_nine_classes():
    cov1 = alt_class_coverage(named_group(9, "PGammaL2(8)", 1))
    cov2 = alt_class_coverage(named_group(9, "PGammaL2(8)", 2))
    nine = ct(9)
    got1 = {c.split_tag for c in cov1 if c.ctype == nine}
    got2 = {c.split_tag for c in cov2 if c.ctype == nine}
    assert len(got1) == 1 and len(got2) == 1
    assert got1 | got2 == {SplitTag.PLUS, SplitTag.MINUS}


def test_alt_universe_matches_exhaustive_enumeration():
    for n in range(5, 10):
        grp = closure(n, alt_gens(n))
        assert grp.order == factorial(n) // 2
        assert alt_class_coverage(grp) == frozenset(class_universe(GroupId.alt(n)))


# --- the point-stabiliser slice against every element ---------------------------


def _every_element(grp):
    """Cycle types of every element, and the A_n classes of its even elements."""
    types, classes = set(), set()
    for p in grp.elements():
        t = cycle_type_of(p)
        types.add(t)
        if parity(t) is Parity.EVEN:
            classes.add(split_class_of(p) if is_split(t) else ClassId(t))
    return frozenset(types), frozenset(classes)


def _even_part(gens):
    """Schreier generators of the even part of <gens>, from the transversal {1, t}, t odd."""
    odd = [g for g in gens if not g.is_even()]
    if not odd:
        return list(gens)
    t = odd[0]
    ti = t.inverse()
    return [x for g in gens for x in ((g, t * g * ti) if g.is_even() else (g * ti, t * g))]


def test_slice_matches_every_element_for_records():
    # class 2 is closed here only to check the rules, which derive it from class 1
    for name, n, gens in _record_gens():
        grp = closure(n, gens)
        types, classes = _every_element(grp)
        assert type_spectrum(grp) == types, name
        d = NamedGroup(n, name.split(":")[0], 2 if name.endswith(":2") else 1)
        if grp.all_even():
            assert alt_class_coverage(grp) == classes, name
            rule = _coverage_rule(d, n, True)
            assert {c for c in class_universe(GroupId.alt(n)) if rule(c.ctype.parts, c.split_tag)} == classes, name
        if n > 12:
            continue
        sym_rule = _coverage_rule(d, n, False)
        assert {t for t in partitions(n) if sym_rule(t.parts, SplitTag.NOT_SPLIT)} == types, name
        if not grp.all_even():
            alt_rule = _coverage_rule(IntersectAlt(d), n, True)
            even = {t for t in partitions(n) if parity(t) is Parity.EVEN}
            assert {t for t in even if alt_rule(t.parts, SplitTag.NOT_SPLIT)} == {t for t in types if t in even}, name


def _random_partial_perm(rng, n):
    """A random permutation of a random subset of the points, fixing the others."""
    moved = rng.sample(range(n), rng.randint(0, n))
    imgs = list(range(n))
    for p, q in zip(moved, rng.sample(moved, len(moved))):
        imgs[p] = q
    return Perm(imgs)


def test_slice_matches_every_element_when_stabiliser_has_many_orbits():
    # degree 1 has no point 2 to cut on, and in degree 2 it is the only other point;
    # two generators that each move a random subset give G_1 and G_{1,q} several orbits
    rng = random.Random(SEED)
    for n in range(1, 10):
        cases = [direct_product_gens(n, k) for k in range(1, n)]
        cases += [wreath_gens(n, b, n // b) for b in divisors(n) if 1 < b < n]
        for _ in range(4):
            imgs = list(range(n))
            rng.shuffle(imgs)
            cases.append([Perm(imgs)])
        for _ in range(6):
            cases.append([_random_partial_perm(rng, n), _random_partial_perm(rng, n)])
        if n >= 3:
            cases.append([Perm.from_cycles(n, [[2, 3]])])  # fixes point 1, the stabiliser is everything
        for gens in cases:
            for g in (gens, _even_part(gens)):
                grp = closure(n, g)
                types, classes = _every_element(grp)
                assert type_spectrum(grp) == types, (n, g)
                if grp.all_even():
                    assert alt_class_coverage(grp) == classes, (n, g)
