"""Number theory: brute-force oracles first, frozen values asserted alongside."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

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
    totient_report,
)

SEED = 987123
print(f"test_numtheory random seed = {SEED}")


# --- independent oracles ---------------------------------------------------


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def brute_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def brute_prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and brute_prime(p)]


def brute_moebius(n: int) -> int:
    if any(n % (p * p) == 0 for p in brute_prime_factors(n)):
        return 0
    return -1 if len(brute_prime_factors(n)) % 2 else 1


def brute_phi_interval(iv: Interval, n: int) -> int:
    return sum(1 for i in range(1, n + 1) if iv.contains(i) and gcd(i, n) == 1)


# --- totients, moebius, nu ---------------------------------------------------


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert brute_phi(45) == 24
    assert euler_phi(45) == 24
    assert brute_phi(12) == 4
    assert euler_phi(12) == 4


def test_euler_phi_matches_bruteforce():
    for n in range(1, 300):
        assert euler_phi(n) == brute_phi(n)


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(12) == 0  # 4 | 12
    assert brute_moebius(30) == -1
    assert moebius(30) == -1


def test_nu_examples():
    assert nu(1) == 0
    assert brute_prime_factors(12) == [2, 3]
    assert nu(12) == 2
    assert brute_prime_factors(840) == [2, 3, 5, 7]
    assert nu(840) == 4


def test_domain_errors():
    for fn in (euler_phi, moebius, nu, a_of_n, p0_of_n, factorize):
        with pytest.raises(ValueError):
            fn(0)


# --- primality -----------------------------------------------------------------


def sieve_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * hi
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(hi - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return [n for n in range(lo, hi) if flags[n]]


def test_is_prime_matches_a_sieve():
    assert [n for n in range(10**5) if is_prime(n)] == sieve_primes(0, 10**5)
    # from 10**6 on, a number with no factor up to 1000 goes to Miller-Rabin
    lo = 10**6 - 10**4
    assert [n for n in range(lo, lo + 2 * 10**4) if is_prime(n)] == sieve_primes(lo, lo + 2 * 10**4)


def test_is_prime_on_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7, and to every prime base up to 23
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(10**20 + 39)
    # the least strong pseudoprime to all 13 bases up to 41 is refused, not guessed
    psi13 = 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="too large for an exact primality test"):
        is_prime(psi13)
    with pytest.raises(ValueError, match="too large for an exact primality test"):
        factorize(psi13)  # the cofactor goes to Miller-Rabin without trial division
    assert not is_prime(3 * psi13)  # a factor up to 1000 still decides


def test_factorize_stops_at_a_prime_cofactor():
    assert factorize(2**5 * 3 * (10**20 + 39)) == [(2, 5), (3, 1), (10**20 + 39, 1)]
    assert factorize(1009 * 1013) == [(1009, 1), (1013, 1)]
    assert factorize(997 * 1009**2) == [(997, 1), (1009, 2)]


def test_factorize_matches_a_sieve_and_known_products():
    spf = list(range(2 * 10**5))  # smallest prime factor, by sieve
    for p in range(2, isqrt(len(spf)) + 1):
        if spf[p] == p:
            for m in range(p * p, len(spf), p):
                spf[m] = min(spf[m], p)
    for n in range(1, len(spf)):
        want, m = {}, n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        assert factorize(n) == sorted(want.items()), n
    # cofactors with two or three prime factors above 1000 go to Pollard's rho;
    # the primes they were built from are the reference
    rng = random.Random(SEED)
    for _ in range(150):
        ps = []
        while len(ps) < rng.choice((2, 3)):
            p = rng.randrange(10**3 + 1, 10**7)
            if is_prime(p):
                ps.append(p)
        n = 1
        for p in ps:
            n *= p
        want = [(p, ps.count(p)) for p in sorted(set(ps))]
        assert factorize(n) == want, ps
        assert factorize(12 * n) == [(2, 2), (3, 1)] + want, ps
    assert factorize(1009**3 * 1013) == [(1009, 3), (1013, 1)]


def test_factorize_beyond_the_rho_budget_is_an_error(monkeypatch):
    import normcov.numtheory as nt

    n = 10000000019 * 10000000033  # rho needs 65535 steps here
    assert factorize(n) == [(10000000019, 1), (10000000033, 1)]
    monkeypatch.setattr(nt, "_RHO_STEPS", 1000)
    with pytest.raises(ValueError, match="did not split within 1000 steps"):
        factorize(n)


def test_squarefree_divisor_count():
    for n in range(1, 500):
        sf = squarefree_divisors(n)
        assert len(sf) == 2 ** nu(n)
        assert all(brute_moebius(d) != 0 for d in sf)


def test_divisors_match_trial_division():
    # divisors is built from factorize; trial division is the reference
    for n in range(1, 20000):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        assert divisors(n) == sorted(set(small + [n // d for d in small])), n
    p = 100000000000000000039  # prime; trial division to the square root would not end
    assert divisors(2 * p) == [1, 2, p, 2 * p]


def test_moebius_divisor_identities():
    for n in range(1, 300):
        total = sum(moebius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)
        assert sum(Fraction(moebius(d), d) for d in divisors(n)) == Fraction(euler_phi(n), n)


def test_totient_report():
    rep = totient_report(12)
    assert (rep.n, rep.phi, rep.nu, rep.mu) == (12, 4, 2, 0)


# --- intervals ---------------------------------------------------------------


def test_interval_parse_and_str():
    iv = Interval.parse("[2,11/2)")
    assert iv.lo == 2 and iv.hi == Fraction(11, 2)
    assert not iv.lo_open and iv.hi_open
    assert str(iv) == "[2,11/2)"
    iv2 = Interval.parse("(1,8]")
    assert iv2.lo_open and not iv2.hi_open


def test_interval_integers():
    iv = Interval(Fraction(1), Fraction(3))  # [1, 3)
    assert iv.first_integer() == 1 and iv.last_integer() == 2
    iv = Interval(Fraction(1), Fraction(3), lo_open=True, hi_open=False)  # (1, 3]
    assert iv.first_integer() == 2 and iv.last_integer() == 3
    iv = Interval(Fraction(1, 2), Fraction(5, 2))
    assert iv.first_integer() == 1 and iv.last_integer() == 2
    assert iv.contains(2) and not iv.contains(3)


def test_interval_invalid():
    with pytest.raises(ValueError):
        Interval(Fraction(3), Fraction(1))
    with pytest.raises(ValueError):
        Interval(Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        Interval.parse("1,3")


def test_interval_endpoints_are_integers_decimals_or_fractions():
    assert Interval.parse("[0.5,3)") == Interval(Fraction(1, 2), Fraction(3))
    assert Interval.parse("( .25 , 7/2 ]") == Interval(Fraction(1, 4), Fraction(7, 2), True, False)
    # an exponent is refused, not expanded: Fraction("1e10000000") alone takes seconds
    for text in ("[1,1e9999)", "[1,2E3)", "[1e0,2)"):
        with pytest.raises(ValueError, match=r"^cannot parse interval '\[1"):
            Interval.parse(text)


def test_interval_refuses_float_endpoints():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for lo, hi in ((0.1, 1), (0, 3.7), (0.5, 2.5), (1.0, Fraction(3))):
        with pytest.raises(ValueError, match="not floats"):
            Interval(lo, hi)
    assert Interval(1, 3) == Interval(Fraction(1), Fraction(3))
    assert Interval(Fraction(1, 10), 1).lo == Fraction(1, 10)
    assert phi_interval(Interval(Fraction(1, 10), Fraction(37, 10)), 10) == 2


# --- phi over intervals ------------------------------------------------------


def test_phi_interval_examples():
    iv = Interval(Fraction(2), Fraction(11, 2))
    assert brute_phi_interval(iv, 11) == 4
    assert phi_interval(iv, 11) == 4
    assert phi_interval(iv, 11) == euler_phi(11) // 2 - 1

    iv = Interval(Fraction(1), Fraction(2))
    assert phi_interval(iv, 7) == 1  # only i = 1

    iv = Interval(Fraction(1), Fraction(18, 9))
    assert brute_phi_interval(iv, 18) == 1
    assert phi_interval(iv, 18) == 1


def test_phi_interval_rejects_outside():
    with pytest.raises(ValueError):
        phi_interval(Interval(Fraction(0), Fraction(12)), 11)


def test_phi_interval_paths_agree():
    for n in range(1, 61):
        for lo2 in range(0, 2 * n, 3):
            for hi2 in range(lo2, 2 * n + 1, 5):
                iv = Interval(Fraction(lo2, 2), Fraction(hi2, 2), lo_open=bool(hi2 % 2), hi_open=bool(lo2 % 3))
                assert phi_interval(iv, n) == brute_phi_interval(iv, n), (n, str(iv))


def test_phi_interval_error_bound_sampled():
    rng = random.Random(SEED)
    for n in range(1, 401):
        bound = 2 ** (nu(n) + 1)
        for _ in range(20):
            lo2 = rng.randint(0, 2 * n)
            hi2 = rng.randint(lo2, 2 * n)
            iv = Interval(Fraction(lo2, 2), Fraction(hi2, 2), lo_open=rng.random() < 0.5, hi_open=rng.random() < 0.5)
            got = phi_interval(iv, n)
            assert abs(got - Fraction(euler_phi(n), n) * iv.length) <= bound


# --- smallest non-divisors ---------------------------------------------------


def test_a_of_n_examples():
    assert a_of_n(6) == 4
    assert p0_of_n(6) == 5
    assert 3 * 5 * 7 * 8 == 840
    assert a_of_n(840) == 9
    assert a_of_n(1) == 2


def test_p0_examples():
    assert p0_of_n(1) == 2
    assert p0_of_n(30) == 7


def test_a_is_prime_power_with_gcd_property():
    for n in range(1, 2001):
        a = a_of_n(n)
        fac = factorize(a)
        assert len(fac) == 1, (n, a)
        p, alpha = fac[0]
        assert gcd(n, a) == p ** (alpha - 1)


def test_a_below_p0_with_equality_iff_prime():
    for n in range(1, 2001):
        a, p0 = a_of_n(n), p0_of_n(n)
        assert a <= p0
        assert (a == p0) == is_prime(a)


def test_a_prime_exceptions_up_to_100():
    # a(n) is non-prime exactly when n is divisible by 6 but not 4, where it
    # equals 4; below 100 that is n in {6, 18, 30, 42, 54, 66, 78, 90}
    exceptional = {n for n in range(1, 101) if not is_prime(a_of_n(n))}
    assert exceptional == {n for n in range(1, 101) if n % 12 == 6}
    assert exceptional == {6, 18, 30, 42, 54, 66, 78, 90}
    assert all(a_of_n(n) == 4 for n in exceptional)


def _twin_product(n: int) -> bool:
    for p in brute_prime_factors(n):
        if p * (p + 2) == n and brute_prime(p + 2):
            return True
    return False


def test_smallest_prime_divisor_bound_odd():
    # small prime divisor < sqrt(n) - 1, except for primes, prime squares and
    # twin-prime products where it exceeds sqrt(n) - 1
    for n in range(3, 2001, 2):
        p = brute_prime_factors(n)[0]
        exceptional = brute_prime(n) or (p * p == n) or _twin_product(n)
        if exceptional:
            assert (p + 1) ** 2 > n, n
        else:
            assert (p + 1) ** 2 < n, n


def test_p0_bound_for_multiples_of_four():
    # p0(n) <= sqrt(n) - 1 for 4 | n, n >= 16, except n = 24 and n = 60
    # (p0(60) = 7 > sqrt(60) - 1); sharp at n = 36
    hits_sharp = []
    violations = []
    for n in range(16, 2001, 4):
        p0 = p0_of_n(n)
        if (p0 + 1) ** 2 > n:
            violations.append(n)
        elif (p0 + 1) ** 2 == n:
            hits_sharp.append(n)
    assert violations == [24, 60]
    assert 36 in hits_sharp


def test_composite_coprime_exists_above_30():
    # for n > 30 there is a composite m with 1 < m < n and gcd(m, n) = 1
    for n in range(31, 1001):
        assert any(
            not brute_prime(m) and gcd(m, n) == 1 for m in range(4, n)
        ), n
