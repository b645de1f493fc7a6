"""Closed-form bounds: frozen values, oracle cross-checks, consistency sweeps."""

import random
from fractions import Fraction
from math import ceil, gcd

import pytest

from normcov.bounds import (
    TABLE3_ALT,
    TABLE3_SYM,
    BoundReport,
    bounds_report,
    exact_small_gamma,
    general_upper,
    phi_half_bound,
    power_of_two_band,
    sym_alt_gap_table,
    totient_lower,
)
from normcov.cycle_types import GroupId, GroupKind
from normcov.numtheory import Interval, euler_phi, factorize, is_prime, phi_interval


def S(n):
    return GroupId.sym(n)


def A(n):
    return GroupId.alt(n)


# --- general upper -----------------------------------------------------------


def test_general_upper_examples():
    assert general_upper(S(11)) == 5
    assert general_upper(A(11)) == 4  # floor(14/3)
    assert general_upper(S(12)) == 4  # floor(16/4)
    assert general_upper(A(4)) == 2
    with pytest.raises(ValueError):
        general_upper(S(3))


# --- totient lower -----------------------------------------------------------


def brute_interval_count(lo: Fraction, hi: Fraction, n: int) -> int:
    # [lo, hi) by direct scan
    return sum(1 for i in range(1, n + 1) if lo <= i < hi and gcd(i, n) == 1)


def test_totient_lower_examples():
    assert totient_lower(S(9)) == 4  # odd composite: phi/2 + 1
    assert totient_lower(A(9)) == Fraction(3, 2)  # 9 = 2**3 + 1: phi/4
    assert totient_lower(S(10)) == Fraction(3, 2)
    assert brute_interval_count(Fraction(1), Fraction(3), 10) == 1
    assert totient_lower(S(7)) == 3  # prime: phi/2
    assert totient_lower(A(8)) == 2  # the degree-8 exception
    assert totient_lower(A(10)) == 3
    assert totient_lower(A(5)) == 1  # 5 = 2**2 + 1
    assert totient_lower(A(7)) == 2  # (phi + 2) / 4
    assert totient_lower(S(6)) == 1  # empty interval row
    with pytest.raises(ValueError):
        totient_lower(S(4))


def test_totient_lower_even_sym_rows_against_bruteforce():
    for n in range(6, 101, 2):
        if n % 3 != 0:
            lo, hi, c = Fraction(1), Fraction(n - 1, 3), 2
        elif n % 9 != 0:
            lo, hi, c = Fraction(1), Fraction(n, 9), 1
        else:
            lo, hi, c = Fraction(n, 18), Fraction(n, 6), 1
        want = Fraction(brute_interval_count(lo, hi, n), c) + 1
        assert totient_lower(S(n)) == want, n


# --- the phi/2 + delta bound ----------------------------------------------------


def test_phi_half_bound_values():
    cases = {
        75: 22,  # 3 * 5**2, delta 2
        20: 6,   # 2**2 * 5, delta 2
        25: 11,  # 5**2, delta 1
        18: 5,
        36: 8,
        44: 12,
        16: 5,   # 2**4, delta 1
        10: 3,   # 2 * 5, delta 1
        9: 4,
        7: 3,    # prime, delta 0
    }
    for n, want in cases.items():
        assert phi_half_bound(n).bound == want, n


def test_phi_half_bound_exactness_flags():
    assert phi_half_bound(75).exact_for(GroupKind.SYM)
    assert not phi_half_bound(75).exact_for(GroupKind.ALT)
    assert phi_half_bound(20).exact_for(GroupKind.ALT)
    assert phi_half_bound(16).exact_for(GroupKind.ALT)
    assert not phi_half_bound(16).exact_for(GroupKind.SYM)
    assert phi_half_bound(9).groups == (GroupKind.SYM,)
    assert phi_half_bound(7).groups == (GroupKind.SYM,)
    # degree 12 is the documented exception: the bound 4 is not attained
    assert phi_half_bound(12).bound == 4
    assert not phi_half_bound(12).exact_for(GroupKind.ALT)


def test_phi_half_bound_rejections():
    for n in (30, 8, 4, 3, 2):
        with pytest.raises(ValueError):
            phi_half_bound(n)


def test_phi_half_vs_general_upper_sym_odd():
    for n in range(5, 201, 2):
        try:
            phb = phi_half_bound(n)
        except ValueError:
            continue
        if GroupKind.SYM in phb.groups:
            assert phb.bound <= general_upper(S(n)), n


# --- aggregate reports -----------------------------------------------------------


def test_bounds_report_examples():
    rep = bounds_report(S(10))
    assert rep.lower == Fraction(3, 2) and rep.upper == 3 and rep.exact == 3

    rep = bounds_report(S(16))
    assert rep.lower_ceil == 2 and rep.upper == 5 and rep.exact is None

    rep = bounds_report(A(18))
    assert rep.exact == 5

    rep = bounds_report(S(11))
    assert rep.exact == 5 and rep.lower == 5 and rep.upper == 5

    rep = bounds_report(A(8))
    assert rep.exact == 2

    # beyond the small-degree table, prime degrees stay exact
    assert bounds_report(S(13)).exact == 6
    assert bounds_report(S(17)).exact == 8


def test_bounds_report_consistency_sweep():
    groups = [S(n) for n in range(4, 201)] + [A(n) for n in range(4, 201)]
    for g in groups:
        rep = bounds_report(g)
        assert rep.lower_ceil == ceil(rep.lower)
        assert rep.lower_ceil <= rep.upper, g
        if rep.exact is not None:
            assert rep.lower_ceil <= rep.exact <= rep.upper, g


def test_bounds_report_factors_once(monkeypatch):
    import normcov.bounds
    import normcov.numtheory

    calls = []
    factorize = normcov.numtheory.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(normcov.numtheory, "factorize", counted)
    monkeypatch.setattr(normcov.bounds, "factorize", counted)
    # odd prime, odd composite, 2^e + 1, powers of two, even S_n with n % 3 != 0,
    # with n % 9 == 3 or 6 and with n % 9 == 0, A_8, and a product of two large primes
    groups = [S(13), A(13), S(15), A(15), A(9), A(33), S(4), S(8), A(8), S(16), A(16), S(64)]
    groups += [S(10), S(12), S(18), S(3), A(4), S(100000000520000000627), A(100000000520000000627)]
    for g in groups:
        calls.clear()
        bounds_report(g)
        assert calls == [g.degree], g


def test_power_of_two_band():
    assert power_of_two_band(4) == (Fraction(6, 3), 5)
    lo, hi = power_of_two_band(5)
    assert ceil(lo) == 4 and hi == 9
    with pytest.raises(ValueError):
        power_of_two_band(1)


def test_small_gamma_table():
    assert exact_small_gamma(S(9)) == 4
    assert exact_small_gamma(A(12)) == 3
    assert exact_small_gamma(S(13)) is None
    assert TABLE3_SYM[11] == 5 and TABLE3_ALT[11] == 4


def test_report_exact_matches_set_cover():
    from normcov.coverings import exact_gamma
    from normcov.subgroups import load_catalog

    groups = [S(n) for n in range(4, 13)] + [A(n) for n in range(4, 13)]
    for g in groups:
        assert bounds_report(g).exact == exact_gamma(g, load_catalog(g)).gamma, g


# --- the report against the Fraction formulas it replaced ------------------------


def _sym_even_interval_ref(n):
    """Endpoints of I(n) = [lo, hi) and divisor c(n) for even symmetric degrees."""
    if n % 3 != 0:
        return Fraction(1), Fraction(n - 1, 3), 2
    if n % 9 != 0:
        return Fraction(1), Fraction(n, 9), 1
    return Fraction(n, 18), Fraction(n, 6), 1


def _totient_lower_ref(g):
    n = g.degree
    phi = euler_phi(n)
    if g.kind is GroupKind.SYM:
        if n % 2 == 1:
            if is_prime(n):
                return Fraction(phi, 2)
            return Fraction(phi, 2) + 1
        lo, hi, c = _sym_even_interval_ref(n)
        count = phi_interval(Interval(lo, hi), n) if hi > lo else 0
        return Fraction(count, c) + 1
    if n % 2 == 0:
        if n == 8:
            return Fraction(phi, 2)
        return Fraction(phi, 2) + 1
    if (n - 1) & (n - 2) == 0:
        return Fraction(phi, 4)
    return Fraction(phi + 2, 4)


def _bounds_report_ref(g):
    """bounds_report as it was written with a Fraction for every lower bound."""
    n = g.degree
    sources, lowers, uppers = [], [], []
    if n >= 5:
        tl = _totient_lower_ref(g)
        lowers.append(tl)
        sources.append((str(tl), "totient lower bound"))
    else:
        lowers.append(Fraction(2))
        sources.append(("2", "minimum for a non-cyclic group"))
    if n >= 4:
        uppers.append(general_upper(g))
        sources.append((str(uppers[-1]), "general upper bound"))
    exact = exact_small_gamma(g)
    if exact is not None:
        sources.append((str(exact), "small-degree exact value"))
    fac = factorize(n)
    if g.kind is GroupKind.SYM and len(fac) == 1 and fac[0][0] == 2 and fac[0][1] >= 2:
        lo, hi = power_of_two_band(fac[0][1])
        lowers.append(lo)
        uppers.append(hi)
        sources.append((f"[{lo}, {hi}]", "power-of-two band"))
    try:
        phb = phi_half_bound(n)
    except ValueError:
        phb = None
    if phb is not None and phb.applies_to(g.kind):
        uppers.append(phb.bound)
        sources.append((str(phb.bound), f"phi(n)/2 + {phb.delta} upper bound"))
        if phb.exact_for(g.kind) and exact is None:
            exact = phb.bound
            sources.append((str(exact), "phi(n)/2 + delta equality"))
    if exact is not None:
        uppers.append(exact)
    lower = max(lowers)
    return BoundReport(g, lower, ceil(lower), min(uppers), exact, tuple(sources))


def _assert_report_as_before(g):
    got, want = bounds_report(g), _bounds_report_ref(g)
    assert type(got.lower) is Fraction, g
    assert repr(got) == repr(want), g
    assert got.to_json() == want.to_json(), g
    if g.degree >= 5:
        tl = totient_lower(g)
        assert type(tl) is Fraction and tl == _totient_lower_ref(g), g


def test_bounds_report_matches_the_fraction_formulas_up_to_ten_thousand():
    for n in range(3, 10**4 + 1):
        _assert_report_as_before(S(n))
        if n >= 4:
            _assert_report_as_before(A(n))


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_bounds_report_matches_the_fraction_formulas_up_to_a_trillion():
    # primes, semiprimes p*q, 2*p, 2**e and 18*k, each at most 10**12
    rng = random.Random(20)
    degrees = [2**e for e in range(2, 40)] + [18 * rng.randint(1, 10**12 // 18) for _ in range(40)]
    for _ in range(30):
        p = _next_prime(rng.randint(5, 10**6))
        degrees += [_next_prime(rng.randint(10**4, 10**12 - 40)), p * _next_prime(rng.randint(3, 10**12 // p - 300))]
        degrees.append(2 * _next_prime(rng.randint(3, 5 * 10**11 - 40)))
    for n in degrees:
        _assert_report_as_before(S(n))
        _assert_report_as_before(A(n))


# --- the gap table -----------------------------------------------------------------


def test_gap_table_examples():
    table = dict(sym_alt_gap_table(103))
    assert table[5] == 0
    assert table[7] == 0
    assert table[103] == 51 - 35 == 16


def test_gap_table_growth():
    for p, gap in sym_alt_gap_table(10**4):
        assert gap >= Fraction(p - 9, 6)
    with pytest.raises(ValueError):
        sym_alt_gap_table(10**4 + 1)
