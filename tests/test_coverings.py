"""Basic-set verification, the named constructions, and the exact set cover."""

from functools import lru_cache
from itertools import combinations

import pytest
from conftest import generator_records
from hypothesis import given, settings
from hypothesis import strategies as st

from normcov.bounds import TABLE3_ALT, general_upper, totient_lower
from normcov.coverings import (
    BasicSet,
    _coverage_rows,
    all_minimum_covers,
    construct_delta,
    delta_families,
    exact_gamma,
    mandatory_components,
    verify_basic_set,
)
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
)
from normcov.numtheory import euler_phi, is_prime
from normcov.permgroup import alt_class_coverage
from normcov.subgroups import (
    Catalog,
    CatalogError,
    FullAlternating,
    Imprimitive,
    IntersectAlt,
    Intransitive,
    NamedGroup,
    class_coverage,
    contains_type,
    descriptor_sort_key,
    load_catalog,
    named_group,
)

from math import ceil


def ct(*parts):
    return CycleType.of(parts)


def ia(d):
    return IntersectAlt(d)


# --- basic set shape -----------------------------------------------------------


def test_basic_set_validation():
    with pytest.raises(ValueError):
        BasicSet(GroupId.sym(7), (Intransitive(7, 2), Intransitive(7, 2)))
    with pytest.raises(ValueError):
        BasicSet(GroupId.alt(7), (FullAlternating(7),))
    with pytest.raises(ValueError):
        BasicSet(GroupId.sym(7), (Intransitive(8, 2),))
    with pytest.raises(ValueError):
        BasicSet(GroupId.sym(7), ())


def test_basic_set_json_roundtrip():
    b = construct_delta("special_s10")
    again = BasicSet.from_json(b.to_json())
    assert again.group == b.group and again.components == b.components
    assert again.expected_size == b.expected_size == 3
    for bad in (1.5, True, "3", None):
        with pytest.raises(ValueError, match="field 'expected_size'"):
            BasicSet.from_json(dict(b.to_json(), expected_size=bad))


# --- verification ----------------------------------------------------------------


def test_verify_s7_prime_construction():
    b = BasicSet(
        GroupId.sym(7),
        (Intransitive(7, 2), Intransitive(7, 3), NamedGroup(7, "AGL1(7)")),
    )
    report = verify_basic_set(b)
    assert report.covered and report.uncovered == ()


def test_verify_a8_two_components():
    b = BasicSet(GroupId.alt(8), (NamedGroup(8, "AGL3(2)", 1), ia(Intransitive(8, 3))))
    assert verify_basic_set(b).covered


def test_verify_s12_three_component_failure():
    # [1,3,8] is the classical witness; [10,1,1], [8,2,2] and [8,1,1,1,1] are
    # missed as well (all odd, no sub-multiset summing to 5, and the part of
    # size 8 or 10 fits no block-orbit grouping of shape 3 x 4)
    b = BasicSet(
        GroupId.sym(12),
        (FullAlternating(12), Intransitive(12, 5), Imprimitive(12, 3, 4)),
    )
    report = verify_basic_set(b)
    assert not report.covered
    assert ClassId(ct(1, 3, 8)) in report.uncovered
    assert set(report.uncovered) == {
        ClassId(ct(8, 3, 1)),
        ClassId(ct(8, 2, 2)),
        ClassId(ct(8, 1, 1, 1, 1)),
        ClassId(ct(10, 1, 1)),
    }


# --- the pruned walk against the per-component sweep ----------------------------


def _classes_of(t, g):
    """The classes of g with cycle type t, in class_universe order."""
    if g.kind is GroupKind.SYM:
        return (ClassId(t),)
    if parity(t) is Parity.ODD:
        return ()
    return (ClassId(t, SplitTag.PLUS), ClassId(t, SplitTag.MINUS)) if is_split(t) else (ClassId(t),)


@lru_cache(maxsize=None)
def _met_by(d, g):
    """The classes of g that the component d meets, swept here apart from the walk."""
    if g.kind is GroupKind.ALT and isinstance(d, NamedGroup):
        return alt_class_coverage(named_group(d.degree, d.name, d.cls))
    if isinstance(d, IntersectAlt):
        even = (t for t in partitions(g.degree) if parity(t) is Parity.EVEN)
        return frozenset(c for t in even if contains_type(d.inner, t) for c in _classes_of(t, g))
    return frozenset(c for t in partitions(g.degree) if contains_type(d, t) for c in _classes_of(t, g))


def _sweep_uncovered(rep):
    """The uncovered classes by a per-component sweep over partitions(n), in class_universe order."""
    met = set().union(*(_met_by(d, rep.group) for d in rep.components))
    return tuple(c for t in partitions(rep.group.degree) for c in _classes_of(t, rep.group) if c not in met)


def family_sets(max_n):
    """Every construction family at every degree up to max_n, with each group kind and block size it takes."""
    sets = [construct_delta(f) for f in ("special_a9", "special_s10", "special_a11")]
    kinds = ("sym", "alt")
    for n in range(4, max_n + 1):
        if is_prime(n):
            if n >= 5:
                sets.append(construct_delta("sym_prime", p=n))
                sets.append(construct_delta("upper_alt_odd", n=n))
            continue
        for big in (False, True):
            sets.append(construct_delta("upper_sym", n=n, big_blocks=big))
            if n % 2 == 0:
                sets.append(construct_delta("upper_alt_even", n=n, big_blocks=big))
        if n % 2:
            sets.append(construct_delta("upper_alt_odd", n=n))
    primes = [p for p in range(2, max_n + 1) if is_prime(p)]
    for p in primes:
        for alpha in range(2, max_n.bit_length()):
            if p**alpha <= max_n:
                sets += [construct_delta("prime_power", p=p, alpha=alpha, group=k) for k in kinds]
        for q in primes:
            if p < q and p * q <= max_n:
                sets += [
                    construct_delta("two_primes", p=p, q=q, group=k, big_blocks=big)
                    for k in kinds
                    for big in (False, True)
                ]
            for alpha in range(1, max_n.bit_length()):
                for beta in range(1, max_n.bit_length()):
                    if p < q and alpha + beta >= 3 and p**alpha * q**beta <= max_n:
                        sets += [
                            construct_delta("two_prime_powers", p=p, q=q, alpha=alpha, beta=beta, group=k)
                            for k in kinds
                        ]
    return sets


def check_walk_agrees(max_n, max_removed_n):
    """Walk and sweep give the same uncovered tuple, order included.

    Checks every family set up to max_n, and its coverage matrix, and up to
    max_removed_n every set with one component taken out. Returns how many
    sets were compared.
    """
    compared = 0
    for b in family_sets(max_n):
        rep = verify_basic_set(b)
        assert rep.uncovered == _sweep_uncovered(rep) == (), b.provenance
        assert rep.coverage_matrix == {d: _met_by(d, b.group) for d in b.components}, b.provenance
        compared += 1
        if b.group.degree > max_removed_n:
            continue
        for i in range(len(b.components)):
            rest = b.components[:i] + b.components[i + 1 :]
            if rest:
                rep = verify_basic_set(BasicSet(b.group, rest))
                assert rep.uncovered == _sweep_uncovered(rep), (b.provenance, b.components[i])
                assert rep.covered == (not rep.uncovered)
                compared += 1
    return compared


def test_walk_agrees_with_sweep():
    assert check_walk_agrees(28, 20) > 300


def test_json_coverage_is_the_matrix_named():
    # to_json names the raw classes itself; each list must be the matrix's, spelt and sorted as str(ClassId)
    for b in family_sets(28):
        rep = verify_basic_set(b)
        want = {str(d): sorted(map(str, cov)) for d, cov in rep.coverage_matrix.items()}
        assert rep.to_json()["coverage"] == want, b.provenance


def _component_pool(g):
    n = g.degree
    sym_level = [Intransitive(n, k) for k in range(1, n // 2 + 1)]
    sym_level += [Imprimitive(n, b, n // b) for b in range(2, n // 2 + 1) if n % b == 0]
    named = [
        NamedGroup(n, r["name"], c)
        for r in generator_records()
        if r["degree"] == n
        for c in range(1, r["classes"] + 1)
    ]
    # the closed forms where they are proper: AGL1(3) and PGL2(3) are all of S_3 and S_4
    closed = [NamedGroup(n, f"AGL1({n})")] if n >= 5 and is_prime(n) else []
    closed += [NamedGroup(n, f"PGL2({n - 1})")] if n >= 6 and is_prime(n - 1) else []
    if g.kind is GroupKind.SYM:
        return sym_level + named + closed + [FullAlternating(n)]
    pool = [ia(d) for d in sym_level + closed]
    for d in named:
        pool.append(d if named_group(n, d.name, d.cls).all_even() else ia(d))
    return pool


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_walk_agrees_on_random_subsets(data):
    n = data.draw(st.integers(4, 24), label="n")
    kind = data.draw(st.sampled_from([GroupKind.SYM, GroupKind.ALT]), label="kind")
    g = GroupId(kind, n)
    pool = _component_pool(g)
    comps = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True), label="components")
    rep = verify_basic_set(BasicSet(g, tuple(comps)))
    assert rep.uncovered == _sweep_uncovered(rep)
    assert rep.covered == (not rep.uncovered)
    assert rep.coverage_matrix == {d: _met_by(d, g) for d in comps}


@pytest.mark.parametrize(
    "group, bad",
    [
        (GroupId.alt(8), Intransitive(8, 3)),
        (GroupId.alt(8), Imprimitive(8, 2, 4)),
        (GroupId.alt(7), NamedGroup(7, "AGL1(7)")),
        (GroupId.sym(7), ia(Intransitive(7, 2))),
        (GroupId.sym(8), ia(Imprimitive(8, 4, 2))),
        (GroupId.alt(9), ia(NamedGroup(9, "PGammaL2(8)"))),
        (GroupId.sym(7), NamedGroup(7, "AGL1(8)")),
    ],
)
def test_walk_rejects_what_the_sweep_rejects(group, bad):
    with pytest.raises(ValueError):
        class_coverage(bad, group)
    n = group.degree
    good = ia(Intransitive(n, 1)) if group.kind is GroupKind.ALT else Intransitive(n, 1)
    # raised by verify_basic_set itself, not later when the matrix is read
    with pytest.raises(ValueError):
        verify_basic_set(BasicSet(group, (good, bad)))


def test_verify_degree_60():
    for fam in ("upper_sym", "upper_alt_even"):
        rep = verify_basic_set(construct_delta(fam, n=60))
        assert rep.covered and rep.uncovered == (), fam
    for p in range(31, 60):
        if is_prime(p):
            for b in (construct_delta("sym_prime", p=p), construct_delta("upper_alt_odd", n=p)):
                rep = verify_basic_set(b)
                assert rep.covered and rep.uncovered == (), b.provenance


def test_every_family_verifies_up_to_degree_60():
    # every family at every valid parameter, big blocks and both group kinds included
    sets = family_sets(60)
    assert len(sets) == 300
    for b in sets:
        rep = verify_basic_set(b)
        assert rep.covered and rep.uncovered == (), b.provenance


# --- constructions -----------------------------------------------------------------


def test_sym_prime_construction():
    b = construct_delta("sym_prime", p=7)
    assert set(b.components) == {
        NamedGroup(7, "AGL1(7)"),
        Intransitive(7, 2),
        Intransitive(7, 3),
    }
    assert len(b.components) == b.expected_size == 3
    assert verify_basic_set(b).covered
    for bad in (4, 9, 3):
        with pytest.raises(ValueError):
            construct_delta("sym_prime", p=bad)


def test_prime_power_construction():
    b = construct_delta("prime_power", p=3, alpha=2)
    assert b.group == GroupId.sym(9)
    assert len(b.components) == b.expected_size == euler_phi(9) // 2 + 1 == 4
    assert Imprimitive(9, 3, 3) in b.components
    assert verify_basic_set(b).covered
    b_alt = construct_delta("prime_power", p=3, alpha=2, group="alt")
    assert b_alt.group == GroupId.alt(9)
    assert verify_basic_set(b_alt).covered
    with pytest.raises(ValueError):
        construct_delta("prime_power", p=3, alpha=1)
    with pytest.raises(ValueError):
        construct_delta("prime_power", p=4, alpha=2)


def test_two_primes_construction():
    b = construct_delta("two_primes", p=2, q=5, group="alt")
    assert b.group == GroupId.alt(10)
    assert len(b.components) == b.expected_size == (5 + 1) // 2 == 3
    assert verify_basic_set(b).covered
    with pytest.raises(ValueError):
        construct_delta("two_primes", p=5, q=2)
    with pytest.raises(ValueError):
        construct_delta("two_primes", p=2, q=4)


def test_family_group_is_a_kind_word_or_a_group_kind():
    # the words GroupId.parse reads, in any case, or a GroupKind; a group name is no kind
    want = construct_delta("two_primes", p=2, q=5, group="alt")
    for group in ("a", "ALT", "Alt", GroupKind.ALT):
        assert construct_delta("two_primes", p=2, q=5, group=group) == want
    assert construct_delta("prime_power", p=3, alpha=2, group="S").group == GroupId.sym(9)
    for group in ("x", "S12", "alternating", " alt", 5):
        with pytest.raises(ValueError, match="^unknown group kind "):
            construct_delta("two_primes", p=2, q=5, group=group)


def test_two_prime_powers_construction():
    for group in ("sym", "alt"):
        b = construct_delta("two_prime_powers", p=2, q=3, alpha=2, beta=1, group=group)
        assert len(b.components) == b.expected_size == euler_phi(12) // 2 + 2 == 4
        assert verify_basic_set(b).covered
    with pytest.raises(ValueError):
        construct_delta("two_prime_powers", p=2, q=3, alpha=1, beta=1)


def test_upper_family_constructions():
    b = construct_delta("upper_sym", n=12)
    assert len(b.components) == b.expected_size == 4
    assert verify_basic_set(b).covered

    b_big = construct_delta("upper_sym", n=12, big_blocks=True)
    assert Imprimitive(12, 6, 2) in b_big.components
    assert verify_basic_set(b_big).covered

    b9 = construct_delta("upper_sym", n=9)
    assert b9.expected_size == 1 + 9 * 2 // (2 * 3) == 4
    assert len(b9.components) == 4
    assert verify_basic_set(b9).covered

    with pytest.raises(ValueError):
        construct_delta("upper_sym", n=7)  # prime

    b_even = construct_delta("upper_alt_even", n=10)
    assert len(b_even.components) == b_even.expected_size == 3
    assert verify_basic_set(b_even).covered
    with pytest.raises(ValueError):
        construct_delta("upper_alt_even", n=9)

    b_odd = construct_delta("upper_alt_odd", n=9)
    assert len(b_odd.components) == b_odd.expected_size == 4
    assert ia(Imprimitive(9, 3, 3)) in b_odd.components
    assert verify_basic_set(b_odd).covered

    b_odd7 = construct_delta("upper_alt_odd", n=7)
    assert ia(NamedGroup(7, "AGL1(7)")) in b_odd7.components
    assert verify_basic_set(b_odd7).covered
    with pytest.raises(ValueError):
        construct_delta("upper_alt_odd", n=8)


def test_special_constructions():
    a9 = construct_delta("special_a9")
    assert set(a9.components) == {
        ia(Intransitive(9, 4)),
        NamedGroup(9, "PGammaL2(8)", 1),
        NamedGroup(9, "PGammaL2(8)", 2),
    }
    assert verify_basic_set(a9).covered

    s10 = construct_delta("special_s10")
    assert set(s10.components) == {
        Imprimitive(10, 2, 5),
        Intransitive(10, 3),
        Intransitive(10, 1),
    }
    assert verify_basic_set(s10).covered

    a11 = construct_delta("special_a11")
    assert set(a11.components) == {
        ia(Intransitive(11, 1)),
        ia(Intransitive(11, 2)),
        ia(Intransitive(11, 3)),
        NamedGroup(11, "M11", 1),
    }
    assert verify_basic_set(a11).covered


def test_unknown_family():
    with pytest.raises(ValueError):
        construct_delta("nope")


def _paper_families():
    """(family, params, group, components, provenance, expected size) for every degree <= 60.

    Written out from the paper's definitions, independently of the builders:
    a wreath product on top, then S_k x S_{n-k} for 1 <= k < n/2 with k prime
    to the primes the construction names, every component met with A_n for
    the alternating group.
    """
    primes = [p for p in range(2, 61) if is_prime(p)]
    kinds = (("sym", GroupKind.SYM), ("alt", GroupKind.ALT))

    def coprime(n, ps):
        return [Intransitive(n, k) for k in range(1, n) if 2 * k < n and all(k % p for p in ps)]

    def out(family, params, kind, n, comps, provenance, size):
        if kind is GroupKind.ALT:
            comps = [ia(d) for d in comps]
        return family, params, GroupId(kind, n), tuple(comps), provenance, size

    for n in range(4, 61):
        p = min(q for q in primes if n % q == 0)
        for big in (False, True) if p < n else ():
            wreath = Imprimitive(n, n // p, p) if big else Imprimitive(n, p, n // p)
            tag = ", big blocks" if big else ""
            size = n // 4 + 1 if n % 2 == 0 else 1 + n * (p - 1) // (2 * p)
            yield out("upper_sym", dict(n=n, big_blocks=big), GroupKind.SYM, n, [wreath] + coprime(n, [p]),
                      f"upper_sym(n={n}, p={p}{tag})", size)
            if n % 2 == 0:
                yield out("upper_alt_even", dict(n=n, big_blocks=big), GroupKind.ALT, n, [wreath] + coprime(n, [2]),
                          f"upper_alt_even(n={n}{tag})", n // 4 + 1)
        if n % 2 == 1:
            top = NamedGroup(n, f"AGL1({n})") if p == n else Imprimitive(n, p, n // p)
            comps = [top] + [Intransitive(n, k) for k in range(1, n // 3 + 1)]
            yield out("upper_alt_odd", dict(n=n), GroupKind.ALT, n, comps, f"upper_alt_odd(n={n})", (n + 3) // 3)
        if p == n and n >= 5:
            comps = [NamedGroup(n, f"AGL1({n})")] + [Intransitive(n, k) for k in range(2, n // 2 + 1)]
            yield out("sym_prime", dict(p=n), GroupKind.SYM, n, comps, f"sym_prime(p={n})", (n - 1) // 2)
    for name, kind in kinds:
        for p in primes:
            for a in range(2, 6):
                n = p**a
                if n <= 60:
                    comps = [Imprimitive(n, p, n // p)] + coprime(n, [p])
                    yield out("prime_power", dict(p=p, alpha=a, group=name), kind, n, comps,
                              f"prime_power(p={p}, alpha={a}, {name})", euler_phi(n) // 2 + 1)
        for p, q in combinations(primes, 2):
            n = p * q
            if n <= 60:
                for big in (False, True):
                    comps = [Imprimitive(n, q, p) if big else Imprimitive(n, p, q)] + coprime(n, [p, q])
                    yield out("two_primes", dict(p=p, q=q, group=name, big_blocks=big), kind, n, comps,
                              f"two_primes(p={p}, q={q}, {name})", euler_phi(n) // 2 + 1)
            for a in range(1, 6):
                for b in range(1, 6):
                    n = p**a * q**b
                    if a + b >= 3 and n <= 60:
                        comps = [Imprimitive(n, p, n // p), Imprimitive(n, q, n // q)] + coprime(n, [p, q])
                        yield out("two_prime_powers", dict(p=p, q=q, alpha=a, beta=b, group=name), kind, n, comps,
                                  f"two_prime_powers(p={p}, q={q}, alpha={a}, beta={b}, {name})",
                                  euler_phi(n) // 2 + 2)


def test_constructions_follow_the_paper_definitions():
    seen = set()
    for family, params, group, comps, provenance, size in _paper_families():
        b = construct_delta(family, **params)
        assert (b.group, b.components) == (group, comps), (family, params)
        assert (b.provenance, b.expected_size) == (provenance, size), (family, params)
        seen.add(family)
    assert seen == set(delta_families()) - {"special_a9", "special_s10", "special_a11"}


# --- mandatory components ---------------------------------------------------------


def test_mandatory_components_s7():
    g = GroupId.sym(7)
    assert mandatory_components(g, load_catalog(g)) == (
        Intransitive(7, 2),
        Intransitive(7, 3),
    )


def test_mandatory_components_a10():
    g = GroupId.alt(10)
    forced = mandatory_components(g, load_catalog(g))
    assert ia(Intransitive(10, 3)) in forced  # forced by [3,7]


def test_mandatory_components_s4_no_intransitive():
    g = GroupId.sym(4)
    forced = mandatory_components(g, load_catalog(g))
    assert not any(isinstance(d, Intransitive) for d in forced)


def test_mandatory_components_are_the_single_coverers():
    groups = [GroupId.sym(n) for n in range(3, 13)] + [GroupId.alt(n) for n in range(4, 13)]
    for g in groups:
        cat = load_catalog(g)
        covs = {d: class_coverage(d, g) for d in cat.descriptors}
        single = set()
        for c in class_universe(g):
            coverers = [d for d, cov in covs.items() if c in cov]
            if len(coverers) == 1:
                single.add(coverers[0])
        assert mandatory_components(g, cat) == tuple(sorted(single, key=descriptor_sort_key)), g


def test_mandatory_needs_complete_catalog():
    g = GroupId.sym(7)
    cat = Catalog(g, load_catalog(g).descriptors, complete=False)
    with pytest.raises(CatalogError):
        mandatory_components(g, cat)


# --- exact gamma ----------------------------------------------------------------


def test_exact_gamma_examples():
    g = GroupId.sym(7)
    res = exact_gamma(g, load_catalog(g))
    assert res.gamma == 3 and res.exact
    assert verify_basic_set(res.witness).covered

    g = GroupId.alt(8)
    assert exact_gamma(g, load_catalog(g)).gamma == 2

    g = GroupId.alt(11)
    assert exact_gamma(g, load_catalog(g)).gamma == 4


def test_witnesses_verify_for_all_small_degrees():
    groups = [GroupId.sym(n) for n in range(3, 13)] + [GroupId.alt(n) for n in range(4, 13)]
    for g in groups:
        res = exact_gamma(g, load_catalog(g))
        assert verify_basic_set(res.witness).covered, g


def test_no_smaller_cover_by_exhaustive_enumeration():
    # independent subset enumeration confirms minimality for degrees <= 9
    for g in [GroupId.sym(n) for n in range(3, 10)] + [GroupId.alt(n) for n in range(4, 10)]:
        cat = load_catalog(g)
        res = exact_gamma(g, cat)
        universe = set(class_universe(g))
        covs = {d: class_coverage(d, g) for d in cat.descriptors}
        for size in range(1, res.gamma):
            for combo in combinations(cat.descriptors, size):
                assert set().union(*(covs[d] for d in combo)) != universe, (g, combo)


def test_unique_minimum_for_prime_symmetric_groups():
    for p in (5, 7, 11):
        g = GroupId.sym(p)
        minima = all_minimum_covers(g, load_catalog(g))
        assert len(minima) == 1
        assert set(minima[0]) == set(construct_delta("sym_prime", p=p).components)


def _is_transitive(d) -> bool:
    if isinstance(d, IntersectAlt):
        return _is_transitive(d.inner)
    return isinstance(d, (Imprimitive, NamedGroup, FullAlternating))


def test_minimal_covers_contain_transitive_component():
    for n in range(6, 13):
        g = GroupId.alt(n)
        for cover in all_minimum_covers(g, load_catalog(g)):
            assert any(_is_transitive(d) for d in cover), (g, cover)


def test_a4_all_intransitive_minimum():
    g = GroupId.alt(4)
    witness = BasicSet(g, (ia(Intransitive(4, 1)), ia(Intransitive(4, 2))))
    assert verify_basic_set(witness).covered
    assert exact_gamma(g, load_catalog(g)).gamma == 2
    assert tuple(sorted(map(str, witness.components))) in {
        tuple(sorted(map(str, c))) for c in all_minimum_covers(g, load_catalog(g))
    }


def test_uncoverable_catalog_rejected():
    g = GroupId.sym(5)
    comps = (Intransitive(5, 1), Intransitive(5, 2))  # nothing covers [5]
    for complete in (False, True):
        cat = Catalog(g, comps, complete=complete)
        with pytest.raises(CatalogError):
            exact_gamma(g, cat)
        with pytest.raises(CatalogError):
            all_minimum_covers(g, cat)
    with pytest.raises(CatalogError):
        mandatory_components(g, Catalog(g, comps, complete=True))


def _scan_minimum_covers(g, descriptors):
    """Every minimum cover by a plain combinations scan over bitmask rows, descriptor order."""
    index = {c: i for i, c in enumerate(class_universe(g))}
    descs = sorted(descriptors, key=descriptor_sort_key)
    rows = [sum(1 << index[c] for c in class_coverage(d, g)) for d in descs]
    full = (1 << len(index)) - 1
    for size in range(1, len(descs) + 1):
        found = []
        for combo in combinations(range(len(descs)), size):
            mask = 0
            for j in combo:
                mask |= rows[j]
            if mask == full:
                found.append(tuple(descs[j] for j in combo))
        if found:
            return found
    raise AssertionError("catalog cannot cover")


def _check_search(g, cat):
    want = _scan_minimum_covers(g, cat.descriptors)
    res = exact_gamma(g, cat)
    assert res.gamma == len(want[0]), g
    # the witness is the lexicographically first minimum cover
    assert res.witness.components == want[0], g
    assert all_minimum_covers(g, cat) == want, g
    return want


def test_search_matches_scan_on_builtin_catalogs():
    groups = [GroupId.sym(n) for n in range(3, 13)] + [GroupId.alt(n) for n in range(4, 13)]
    for g in groups:
        cat = load_catalog(g)
        covers = _check_search(g, cat)
        forced = set(mandatory_components(g, cat))
        assert all(forced <= set(cover) for cover in covers), g


def test_search_matches_scan_on_larger_user_catalog():
    n = 24
    g = GroupId.sym(n)
    comps = [Intransitive(n, k) for k in range(1, n // 2 + 1)]
    comps += [Imprimitive(n, b, n // b) for b in range(2, n // 2 + 1) if n % b == 0]
    covers = _check_search(g, Catalog(g, tuple(comps), complete=False))
    assert len(covers[0]) == 6


def test_search_over_minimal_signatures_at_degree_30():
    # the rows hold only minimal signatures: 80 bits stand for 5604 classes
    n = 30
    g = GroupId.sym(n)
    comps = [FullAlternating(n)] + [Intransitive(n, k) for k in range(1, n // 2 + 1)]
    comps += [Imprimitive(n, b, n // b) for b in range(2, n // 2 + 1) if n % b == 0]
    cat = Catalog(g, tuple(comps), complete=False)
    _, _, full = _coverage_rows(g, cat)
    assert (full.bit_length(), len(class_universe(g))) == (80, 5604)
    res = exact_gamma(g, cat)
    assert res.gamma == 7 and not res.exact
    assert verify_basic_set(res.witness).covered


def test_incomplete_catalog_flagged():
    g = GroupId.sym(7)
    cat = Catalog(g, load_catalog(g).descriptors, complete=False)
    res = exact_gamma(g, cat)
    assert res.gamma == 3 and not res.exact


def test_sandwich_small_degrees():
    for n in range(5, 13):
        for g in (GroupId.sym(n), GroupId.alt(n)):
            gamma = exact_gamma(g, load_catalog(g)).gamma
            assert ceil(totient_lower(g)) <= gamma <= general_upper(g), g


# --- the corrected value at degree 12 ----------------------------------------------


def test_gamma_a12_is_three():
    """The minimum for A_12 is 3, not phi(12)/2 + 2 = 4.

    The three classes below cover every conjugacy class of A_12; coverage of
    each is verified elsewhere against exhaustive element enumeration, and the
    totient lower bound gives gamma >= 1 + phi(12)/2 = 3, so 3 is exact.
    """
    g = GroupId.alt(12)
    witness = BasicSet(
        g,
        (ia(Intransitive(12, 5)), ia(Imprimitive(12, 3, 4)), NamedGroup(12, "M12", 1)),
    )
    assert verify_basic_set(witness).covered
    assert totient_lower(g) == 3
    res = exact_gamma(g, load_catalog(g))
    assert res.gamma == 3
    assert TABLE3_ALT[12] == 3

    # no pair of catalog classes covers: the >= 3 half by plain enumeration
    cat = load_catalog(g)
    universe = set(class_universe(g))
    covs = {d: class_coverage(d, g) for d in cat.descriptors}
    for pair in combinations(cat.descriptors, 2):
        assert set().union(*(covs[d] for d in pair)) != universe, pair
