"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Four statements from the published record are contradicted by direct
computation. Each one keeps its own test in the final section: the published
value is held as a named constant, and the test asserts the verified value and
that it differs from the published one at the known counterexample:

  * the minimal basic set size for A_12 is 3, not 4 (a verified size-3 cover
    exists: alt:intransitive:5, alt:imprimitive:3,4, named:M12);
  * the non-prime least-non-divisor list below 100 must include 42;
  * the even-degree least-prime bound also fails at n = 60, not only n = 24;
  * the failing S_12 three-component set misses four classes, not just [1,3,8].

Every corrected value was also rechecked without normcov: by sympy
enumeration of M12 and S_3 wr S_4, and by plain arithmetic.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil, factorial, gcd
from pathlib import Path

import pytest

from normcov.bounds import (
    general_upper,
    phi_half_bound,
    sym_alt_gap_table,
    totient_lower,
)
from normcov.coverings import (
    BasicSet,
    all_minimum_covers,
    construct_delta,
    exact_gamma,
    verify_basic_set,
)
from normcov.cycle_types import ClassId, CycleType, GroupId, GroupKind, SplitTag, partitions
from normcov.numtheory import (
    Interval,
    a_of_n,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    nu,
    p0_of_n,
    phi_interval,
    squarefree_divisors,
)
from normcov.permgroup import (
    closure,
    direct_product_gens,
    type_spectrum,
    wreath_gens,
)
from normcov.subgroups import (
    FullAlternating,
    Imprimitive,
    Intransitive,
    NamedGroup,
    class_coverage,
    contains_type,
    data_dir,
    load_catalog,
    named_group,
)

SEED = 20260810
print(f"acceptance suite random seed = {SEED}")

EXPECTED_SYM = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 3, 11: 5, 12: 4}
EXPECTED_ALT = {4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 4, 12: 3}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def ct(*parts):
    return CycleType.of(parts)


# --- criterion 1: small-degree exact values -----------------------------------


def test_criterion_1_small_degree_gamma_values():
    t0 = time.monotonic()
    mismatches = []
    for expected, make in ((EXPECTED_SYM, GroupId.sym), (EXPECTED_ALT, GroupId.alt)):
        for n, want in expected.items():
            g = make(n)
            got = exact_gamma(g, load_catalog(g)).gamma
            if got != want:
                mismatches.append((g.name, want, got))
    elapsed = time.monotonic() - t0
    report(
        "criterion 1: exact values for degrees 3..12",
        not mismatches and elapsed < 60.0,
        f"mismatches {mismatches}; {elapsed:.1f}s",
    )


def test_criterion_1_a12_witness_is_exhaustively_verified():
    # the size-3 cover behind the corrected A_12 value, rechecked from raw
    # element enumeration without the analytic membership rules
    def exhaustive_cover(grp):
        from normcov.cycle_types import Parity, is_split
        from normcov.permgroup import cycle_type_of, perm_parity, split_class_of

        out = set()
        for p in grp.elements():
            if perm_parity(p) is Parity.ODD:
                continue
            t = cycle_type_of(p)
            out.add(split_class_of(p) if is_split(t) else ClassId(t))
        return out

    from normcov.cycle_types import class_universe

    hit = set()
    hit |= exhaustive_cover(closure(12, direct_product_gens(12, 5)))
    hit |= exhaustive_cover(closure(12, wreath_gens(12, 3, 4)))
    hit |= exhaustive_cover(named_group(12, "M12"))
    missed = set(class_universe(GroupId.alt(12))) - hit
    lower = totient_lower(GroupId.alt(12))
    report(
        "criterion 1 companion: A12 three-component cover verified elementwise",
        not missed and lower == 3,
        "cover = alt:intransitive:5, alt:imprimitive:3,4, named:M12; lower bound 3",
    )


def test_criterion_1_a12_group_data_schreier_sims():
    # the group orders behind the A_12 cover, rechecked by sympy's
    # Schreier-Sims instead of the breadth-first closure in normcov.permgroup
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup

    def from_perms(gens):
        return PermutationGroup([Permutation(list(p.images)) for p in gens])

    records = {r["name"]: r for r in json.loads(Path(data_dir(), "generators.json").read_text())}
    m12 = PermutationGroup(
        [
            Permutation([[p - 1 for p in cyc] for cyc in cycles], size=12)
            for cycles in records["M12"]["generators"]
        ]
    )
    orders = {
        "M12": m12.order(),
        "S5 x S7": from_perms(direct_product_gens(12, 5)).order(),
        "S3 wr S4": from_perms(wreath_gens(12, 3, 4)).order(),
    }
    primitive = m12.is_primitive()
    report(
        "criterion 1 companion: A12 cover group orders rechecked by Schreier-Sims",
        orders == {"M12": 95040, "S5 x S7": 604800, "S3 wr S4": 31104} and primitive,
        f"orders {orders}; M12 primitive: {primitive}",
    )


# --- criterion 2: prime degrees -------------------------------------------------


def test_criterion_2_prime_degree_minimum_and_uniqueness():
    t0 = time.monotonic()
    ok = True
    for p in (5, 7, 11, 13):
        b = construct_delta("sym_prime", p=p)
        rep = verify_basic_set(b)
        ok = ok and rep.covered and len(b.components) == (p - 1) // 2
    for p in (5, 7, 11):
        g = GroupId.sym(p)
        minima = all_minimum_covers(g, load_catalog(g))
        want = set(construct_delta("sym_prime", p=p).components)
        ok = ok and len(minima) == 1 and set(minima[0]) == want
    elapsed = time.monotonic() - t0
    report(
        "criterion 2: prime-degree constructions minimal and unique",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


# --- criterion 3: constructed families cover ------------------------------------


def test_criterion_3_construction_sweep():
    t0 = time.monotonic()
    checked = 0

    def check(b: BasicSet, size: int):
        nonlocal checked
        assert len(b.components) == b.expected_size == size, b.provenance
        assert verify_basic_set(b).covered, b.provenance
        checked += 1

    for n in range(4, 31):
        if is_prime(n):
            continue
        p = factorize(n)[0][0]
        size = (n + 4) // 4 if n % 2 == 0 else 1 + n * (p - 1) // (2 * p)
        check(construct_delta("upper_sym", n=n), size)
        check(construct_delta("upper_sym", n=n, big_blocks=True), size)
        if n % 2 == 0:
            check(construct_delta("upper_alt_even", n=n), size)
    for n in range(5, 30, 2):
        check(construct_delta("upper_alt_odd", n=n), (n + 3) // 3)
    for p, alpha in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        size = euler_phi(p**alpha) // 2 + 1
        check(construct_delta("prime_power", p=p, alpha=alpha, group="sym"), size)
        check(construct_delta("prime_power", p=p, alpha=alpha, group="alt"), size)
    for p, q in ((2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 5), (3, 7)):
        size = euler_phi(p * q) // 2 + 1
        check(construct_delta("two_primes", p=p, q=q, group="sym"), size)
        check(construct_delta("two_primes", p=p, q=q, group="alt"), size)
    for p, q, alpha, beta in ((2, 3, 2, 1), (2, 3, 1, 2), (2, 5, 2, 1), (2, 3, 3, 1), (2, 7, 2, 1)):
        size = euler_phi(p**alpha * q**beta) // 2 + 2
        check(construct_delta("two_prime_powers", p=p, q=q, alpha=alpha, beta=beta, group="sym"), size)
        check(construct_delta("two_prime_powers", p=p, q=q, alpha=alpha, beta=beta, group="alt"), size)

    elapsed = time.monotonic() - t0
    report(
        "criterion 3: every applicable construction up to degree 30 covers at stated size",
        checked >= 80 and elapsed < 60.0,
        f"{checked} constructions, {elapsed:.1f}s",
    )


# --- criterion 4: exact two-prime values -------------------------------------------


def test_criterion_4_two_prime_exact_values():
    values = {18: 5, 20: 6, 36: 8, 44: 12}
    ok = True
    for n, want in values.items():
        phb = phi_half_bound(n)
        ok = ok and phb.bound == want and phb.exact_for(GroupKind.ALT)
    phb75 = phi_half_bound(75)
    ok = ok and phb75.bound == 22 and phb75.exact_for(GroupKind.SYM)
    witnesses = {
        18: construct_delta("two_prime_powers", p=2, q=3, alpha=1, beta=2, group="alt"),
        20: construct_delta("two_prime_powers", p=2, q=5, alpha=2, beta=1, group="alt"),
    }
    for n, b in witnesses.items():
        ok = ok and verify_basic_set(b).covered and len(b.components) == euler_phi(n) // 2 + 2
    report(
        "criterion 4: exact values at 18, 20, 36, 44 (alternating) and 75 (symmetric)",
        ok,
        "A18=5 A20=6 A36=8 A44=12 S75=22; witnesses for 18 and 20 verified",
    )


# --- criterion 5: membership oracle equivalence -------------------------------------


def test_criterion_5_membership_matches_exhaustive_spectra():
    t0 = time.monotonic()
    cap = 10**6
    pairs = 0
    for n in range(2, 13):
        parts_list = partitions(n)
        for k in range(1, n // 2 + 1):
            if factorial(k) * factorial(n - k) > cap:
                continue
            spec = type_spectrum(closure(n, direct_product_gens(n, k)))
            d = Intransitive(n, k)
            for t in parts_list:
                assert contains_type(d, t) == (t in spec), (n, k, str(t))
            pairs += 1
        for b in range(2, n):
            if n % b or n // b < 2:
                continue
            c = n // b
            if factorial(b) ** c * factorial(c) > cap:
                continue
            spec = type_spectrum(closure(n, wreath_gens(n, b, c)))
            d = Imprimitive(n, b, c)
            for t in parts_list:
                assert contains_type(d, t) == (t in spec), (n, b, c, str(t))
            pairs += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 5: analytic membership equals exhaustive spectra",
        pairs >= 40 and elapsed < 120.0,
        f"{pairs} subgroup classes, degrees up to 12, {elapsed:.1f}s",
    )


# --- criterion 6: split-class fidelity in A_9 ----------------------------------------


def test_criterion_6_split_fidelity_a9():
    g = GroupId.alt(9)
    nine = ct(9)
    cov1 = class_coverage(NamedGroup(9, "PGammaL2(8)", 1), g)
    cov2 = class_coverage(NamedGroup(9, "PGammaL2(8)", 2), g)
    got1 = {c for c in cov1 if c.ctype == nine}
    got2 = {c for c in cov2 if c.ctype == nine}
    disjoint_singletons = (
        len(got1) == 1
        and len(got2) == 1
        and not (got1 & got2)
        and {c.split_tag for c in got1 | got2} == {SplitTag.PLUS, SplitTag.MINUS}
    )
    special = verify_basic_set(construct_delta("special_a9"))
    report(
        "criterion 6: the two degree-9 projective copies split the 9-cycle classes",
        disjoint_singletons and special.covered,
        "each copy meets exactly one class; special A9 set covers",
    )


# --- criterion 7: number theory suite -------------------------------------------------


def test_criterion_7_number_theory_suite():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    print(f"criterion 7 seed = {SEED}")

    for n in range(1, 2001):
        divs = divisors(n)
        assert sum(moebius(d) for d in divs) == (1 if n == 1 else 0)
        assert sum(Fraction(moebius(d), d) for d in divs) == Fraction(euler_phi(n), n)
        assert len(squarefree_divisors(n)) == 2 ** nu(n)

    for n in range(1, 2001):
        bound = 2 ** (nu(n) + 1)
        ratio = Fraction(euler_phi(n), n)
        for _ in range(200):
            lo2 = rng.randint(0, 2 * n)
            hi2 = rng.randint(lo2, 2 * n)
            iv = Interval(
                Fraction(lo2, 2),
                Fraction(hi2, 2),
                lo_open=rng.random() < 0.5,
                hi_open=rng.random() < 0.5,
            )
            assert abs(phi_interval(iv, n) - ratio * iv.length) <= bound, (n, str(iv))

    for n in range(1, 2001):
        a, p0 = a_of_n(n), p0_of_n(n)
        assert a <= p0 and (a == p0) == is_prime(a)
        fac_a = factorize(a)
        p, e = fac_a[0]
        assert len(fac_a) == 1 and gcd(n, a) == p ** (e - 1)
    nonprime = {n for n in range(1, 101) if not is_prime(a_of_n(n))}
    assert nonprime == {6, 18, 30, 42, 54, 66, 78, 90}
    assert all(a_of_n(n) == 4 for n in nonprime)

    for n in range(3, 10001, 2):
        p = factorize(n)[0][0]
        twin = (not is_prime(n)) and p * (p + 2) == n and is_prime(p + 2)
        exceptional = is_prime(n) or p * p == n or twin
        if exceptional:
            assert (p + 1) ** 2 > n, n
        else:
            assert (p + 1) ** 2 < n, n

    even_violations = []
    for n in range(16, 10001, 4):
        if (p0_of_n(n) + 1) ** 2 > n:
            even_violations.append(n)
    assert even_violations == [24, 60]

    elapsed = time.monotonic() - t0
    report(
        "criterion 7: exact number-theory identities and bounds",
        elapsed < 60.0,
        f"identities to 2000, prime bounds to 10000, {elapsed:.1f}s "
        "(least-non-divisor exceptions include 42; even-degree prime bound also fails at 60)",
    )


# --- criterion 8: sandwich and negative controls ----------------------------------------


def test_criterion_8_sandwich_and_negative_controls():
    ok = True
    for n in range(5, 13):
        for g in (GroupId.sym(n), GroupId.alt(n)):
            gamma = exact_gamma(g, load_catalog(g)).gamma
            ok = ok and ceil(totient_lower(g)) <= gamma <= general_upper(g)

    bad = BasicSet(
        GroupId.sym(12),
        (FullAlternating(12), Intransitive(12, 5), Imprimitive(12, 3, 4)),
    )
    rep = verify_basic_set(bad)
    ok = ok and not rep.covered and ClassId(ct(1, 3, 8)) in rep.uncovered

    m12 = type_spectrum(named_group(12, "M12"))
    for t in (ct(3, 9), ct(2, 2, 2, 6), ct(1, 1, 1, 9), ct(1, 1, 1, 1, 8)):
        ok = ok and t not in m12

    for p, gap in sym_alt_gap_table(10**4):
        ok = ok and gap >= Fraction(p - 9, 6)

    report(
        "criterion 8: bounds sandwich the minima; negative controls hold",
        ok,
        "S12 triple misses [1,3,8]; M12 spectrum exclusions confirmed; gap growth to 10^4",
    )


# --- published statements contradicted by computation -----------------------------------
# Each test below keeps a published statement as a named constant, asserts the
# verified value, and asserts that the two differ at the known counterexample,
# so it fails if the library ever returns the published value. The verified
# values were rechecked without normcov: M12 and S_3 wr S_4 by sympy element
# enumeration, S_5 x S_7 in closed form, a(n) and p0(n) by plain arithmetic.

PUBLISHED_GAMMA_A12 = 4
PUBLISHED_NONPRIME_NONDIVISOR = frozenset({6, 18, 30, 54, 66, 78, 90})
PUBLISHED_EVEN_BOUND_EXCEPTIONS = [24]
PUBLISHED_S12_UNCOVERED = frozenset({ClassId(ct(1, 3, 8))})


def test_published_claim_gamma_a12_equals_four():
    """Published table: minimal basic set size 4 for A_12.

    Contradicted: the classes alt:intransitive:5, alt:imprimitive:3,4 and
    named:M12 cover A_12 (verified by exhaustive element enumeration in
    test_criterion_1_a12_witness_is_exhaustively_verified), and the totient
    lower bound is 3, so the minimum is exactly 3. The published argument at
    degree 12 needs the type [1,1,1,1,8], which is odd and so never occurs in
    A_12.
    """
    g = GroupId.alt(12)
    res = exact_gamma(g, load_catalog(g))
    lower = totient_lower(g)
    ok = (
        res.gamma == 3
        and res.gamma != PUBLISHED_GAMMA_A12
        and res.exact
        and len(res.witness.components) == 3
        and verify_basic_set(res.witness).covered
        and lower == 3
    )
    report(
        "published claim corrected: gamma(A12) is 3, not 4",
        ok,
        f"published {PUBLISHED_GAMMA_A12}; computed {res.gamma} with witness "
        f"{[str(d) for d in res.witness.components]}, lower bound {lower}",
    )


def test_published_claim_nondivisor_exception_list():
    """Published list: a(n) is prime for n <= 100 except {6,18,30,54,66,78,90}.

    Contradicted: a(42) = 4 (42 is divisible by 2 and 3 but not 4), so 42
    belongs to the list as well.
    """
    nonprime = {n for n in range(1, 101) if not is_prime(a_of_n(n))}
    # a(n) = 4 exactly when 2 | n, 3 | n and 4 does not, i.e. n = 6 (mod 12);
    # the next prime powers, 8 and 9, need lcm(1..7) = 420 | n
    ok = (
        nonprime == {n for n in range(1, 101) if n % 12 == 6}
        and nonprime ^ PUBLISHED_NONPRIME_NONDIVISOR == {42}
        and a_of_n(42) == 4
    )
    report(
        "published claim corrected: the non-prime a(n) for n <= 100 include 42",
        ok,
        f"published {sorted(PUBLISHED_NONPRIME_NONDIVISOR)}; computed {sorted(nonprime)}",
    )


def test_published_claim_even_prime_bound_single_exception():
    """Published bound: p0(n) <= sqrt(n) - 1 for 4 | n, n >= 16, n != 24.

    Contradicted: p0(60) = 7 > sqrt(60) - 1, so n = 60 is a second exception.
    """
    violations = [n for n in range(16, 10001, 4) if (p0_of_n(n) + 1) ** 2 > n]
    # 2, 3 and 5 divide 60 and 7 does not, so p0(60) = 7 and (7 + 1)^2 > 60
    counterexample = all(60 % p == 0 for p in (2, 3, 5)) and 60 % 7 != 0 and (7 + 1) ** 2 > 60
    ok = (
        violations == [24, 60]
        and violations != PUBLISHED_EVEN_BOUND_EXCEPTIONS
        and counterexample
        and p0_of_n(60) == 7
    )
    report(
        "published claim corrected: p0(n) <= sqrt(n) - 1 for 4 | n fails at 24 and 60",
        ok,
        f"published exceptions {PUBLISHED_EVEN_BOUND_EXCEPTIONS}; computed {violations} up to 10^4",
    )


def test_published_claim_s12_unique_uncovered_class():
    """Published witness: the S_12 three-component set misses exactly [1,3,8].

    Contradicted: it also misses [8,2,2], [8,1,1,1,1] and [10,1,1] (checked by
    the exhaustive membership semantics and by hand: none of the three
    components contains an 8-cycle or 10-cycle together with those cofactors).
    """
    bad = BasicSet(
        GroupId.sym(12),
        (FullAlternating(12), Intransitive(12, 5), Imprimitive(12, 3, 4)),
    )
    rep = verify_basic_set(bad)
    got = set(rep.uncovered)
    want = {ClassId(ct(*t)) for t in ((10, 1, 1), (8, 3, 1), (8, 2, 2), (8, 1, 1, 1, 1))}
    wreath = type_spectrum(closure(12, wreath_gens(12, 3, 4)))

    def outside_each_component(t: CycleType) -> bool:
        odd = sum(x - 1 for x in t.parts) % 2 == 1  # not in A_12
        five = any(  # in S_5 x S_7 iff some parts sum to 5
            sum(sub) == 5 for r in range(len(t.parts) + 1) for sub in combinations(t.parts, r)
        )
        return odd and not five and t not in wreath

    ok = (
        len(rep.uncovered) == 4
        and got == want
        and got != PUBLISHED_S12_UNCOVERED
        and PUBLISHED_S12_UNCOVERED <= got
        and all(outside_each_component(c.ctype) for c in got)
    )
    report(
        "published claim corrected: the S12 triple misses four classes, not only [8,3,1]",
        ok,
        f"published {sorted(str(c) for c in PUBLISHED_S12_UNCOVERED)}; "
        f"computed {[str(c) for c in rep.uncovered]}",
    )
