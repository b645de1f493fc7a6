"""Expected values and output checks for the benchmark, computed apart from normcov.

Nothing here imports normcov. Every expected value comes from first
principles (trial division, Miller-Rabin, Euler's pentagonal recurrence, the
cycle structure of wreath products) or from the paper's Table 3, so a check
never compares the program with a copy of its own output.

Each ``check_*`` function takes plain parsed output and returns a list of
problems, empty when the output is right. ``selftest`` feeds every check a
deliberately wrong output and fails unless the check rejects it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

# Table 3 of the paper, with gamma(A_12) = 3: the three classes
# alt:intransitive:5, alt:imprimitive:3,4 and named:M12 cover A_12.
TABLE3_SYM = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 3, 11: 5, 12: 4}
TABLE3_ALT = {4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 4, 12: 3}


# --- arithmetic ---------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; used only for n below 10**7."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(factors: dict[int, int]) -> int:
    out = 1
    for p, e in factors.items():
        out *= (p - 1) * p ** (e - 1)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def least_prime_divisor(n: int) -> int:
    return min(factorize(n))


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > n:
            return total
        sign = 1 if k % 2 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g1 - k))
        k += 1


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts descending (ascending-composition walk)."""
    out = []
    stack = [(n, n, ())]
    while stack:
        rest, cap, prefix = stack.pop()
        if rest == 0:
            out.append(prefix)
            continue
        for part in range(1, min(rest, cap) + 1):
            stack.append((rest - part, part, prefix + (part,)))
    return tuple(out)


def is_even_type(parts) -> bool:
    return sum(1 for p in parts if p % 2 == 0) % 2 == 0


def splits(parts) -> bool:
    return all(p % 2 for p in parts) and len(set(parts)) == len(parts)


@lru_cache(maxsize=None)
def alt_class_count(n: int) -> int:
    """Classes of A_n: even types, with types of distinct odd parts counted twice."""
    return sum(2 if splits(t) else 1 for t in partitions(n) if is_even_type(t))


def type_str(parts) -> str:
    return "[" + ",".join(str(p) for p in sorted(parts, reverse=True)) + "]"


def parse_type(text: str) -> tuple[int, ...]:
    body = text.strip().rstrip("+-")
    return tuple(sorted((int(x) for x in body[1:-1].split(",")), reverse=True))


# --- membership, written from the cycle structure of each subgroup ---------------


def in_intransitive(parts, k: int) -> bool:
    """S_k x S_{n-k} holds the type iff some sub-multiset of the cycles sums to k."""
    reach = {0}
    for p in parts:
        reach |= {r + p for r in reach if r + p <= k}
    return k in reach


def in_wreath(parts, b: int, c: int) -> bool:
    """S_b wr S_c holds the type iff the cycles group into block orbits.

    A cycle of the top permutation of length d, through which the block
    permutations multiply to some pi in S_b, yields the cycles d * (cycles of
    pi). So the type must split into groups, one per top cycle, each group
    made of multiples of its d whose quotients form a partition of b.
    """
    if sum(parts) != b * c:
        return False
    return _wreath_split(tuple(sorted(parts, reverse=True)), b)


@lru_cache(maxsize=None)
def _wreath_split(parts: tuple[int, ...], b: int) -> bool:
    if not parts:
        return True
    head, rest = parts[0], parts[1:]
    for d in range(1, head + 1):
        if head % d or head // d > b:
            continue
        for used, left in _pick(rest, d, b - head // d):
            if _wreath_split(left, b):
                return True
    return False


def _pick(parts: tuple[int, ...], d: int, need: int):
    """Sub-multisets of parts, all divisible by d, whose quotients sum to need.

    Yields (chosen, leftover) with leftover kept in descending order.
    """
    if need == 0:
        yield (), parts
        return
    seen = set()
    for i, p in enumerate(parts):
        if p in seen or p % d or p // d > need:
            continue
        seen.add(p)
        for chosen, left in _pick(parts[i + 1 :], d, need - p // d):
            yield (p,) + chosen, parts[:i] + left


def contains(desc: tuple, parts) -> bool:
    """Membership of a cycle type in an S_n-level class, from its cycle structure."""
    if desc[0] == "intransitive":
        return in_intransitive(parts, desc[1])
    if desc[0] == "imprimitive":
        return in_wreath(parts, desc[1], desc[2])
    raise ValueError(f"no independent rule for {desc!r}")


# --- closed forms for the construction families ----------------------------------


def expected_components(family: str, n: int) -> int:
    """Component count given by the paper's closed form for the family at degree n."""
    f = factorize(n)
    half_phi = phi(f) // 2
    if family in ("upper_sym", "upper_alt_even"):
        if n % 2 == 0:
            return (n + 4) // 4
        p = least_prime_divisor(n)
        return 1 + n * (p - 1) // (2 * p)
    if family == "upper_alt_odd":
        return (n + 3) // 3
    if family == "sym_prime":
        return half_phi
    if family in ("prime_power", "two_primes"):
        return half_phi + 1
    if family == "two_prime_powers":
        return half_phi + 2
    if family == "special_s10":
        return TABLE3_SYM[10]
    if family == "special_a9":
        return TABLE3_ALT[9]
    if family == "special_a11":
        return TABLE3_ALT[11]
    raise ValueError(f"unknown family {family!r}")


def upper_sym_components(n: int) -> list[dict]:
    """The upper_sym set for composite n as basic-set JSON components."""
    p = least_prime_divisor(n)
    comps = [{"kind": "imprimitive", "b": p, "c": n // p}]
    comps += [{"kind": "intransitive", "k": k} for k in range(1, (n + 1) // 2) if 2 * k < n and k % p]
    return comps


# --- checks ---------------------------------------------------------------------


def check_cover(rc: int, covered: bool, count: int, family: str, n: int) -> list[str]:
    probs = []
    if rc != 0:
        probs.append(f"{family} n={n}: exit {rc}, expected 0")
    if not covered:
        probs.append(f"{family} n={n}: reported not covered")
    want = expected_components(family, n)
    if count != want:
        probs.append(f"{family} n={n}: {count} components, closed form gives {want}")
    return probs


def check_coverage_union(lists: list[list[str]], n: int, uncovered: list[str]) -> list[str]:
    union = set()
    for cls in lists:
        union.update(cls)
    probs = []
    if len(union) != partition_count(n):
        probs.append(f"S_{n}: coverage lists hold {len(union)} classes, p({n}) = {partition_count(n)}")
    if any(sum(parse_type(c)) != n for c in union):
        probs.append(f"S_{n}: coverage lists hold a class that is no partition of {n}")
    if uncovered:
        probs.append(f"S_{n}: covered set lists uncovered classes {uncovered[:3]}")
    return probs


def check_removed(rc: int, uncovered: list[str], n: int, k: int, remaining: list[dict]) -> list[str]:
    """upper_sym(n) without intransitive:k must miss [n-k,k].

    gcd(k, n) = 1 is the whole argument: a subset of {k, n-k} sums to some
    j < n/2 only for j = k, and a block-orbit group holding k or n-k would need
    a common divisor d with quotients summing to the block size p, which
    forces p | k or d = 1 and n = p.
    """
    target = (n - k, k)
    probs = []
    if rc != 1:
        probs.append(f"S_{n} without intransitive:{k}: exit {rc}, expected 1")
    if type_str(target) not in uncovered:
        probs.append(f"S_{n} without intransitive:{k}: {type_str(target)} not listed as uncovered")
    if gcd(k, n) != 1 or is_prime(n):
        probs.append(f"S_{n} without intransitive:{k}: the gcd argument needs gcd(k, n) = 1 and n composite")
    for comp in remaining:
        desc = (comp["kind"],) + tuple(v for key, v in comp.items() if key != "kind")
        if contains(desc, target):
            probs.append(f"S_{n}: {desc} contains {type_str(target)}, so removing intransitive:{k} covers")
    return probs


def _norm_desc(obj: dict) -> tuple:
    if obj["kind"] == "intersect_alt":
        return ("intersect_alt", _norm_desc(obj["inner"]))
    if obj["kind"] == "named":
        return ("named", obj["name"], int(obj.get("class", 1)))
    return tuple([obj["kind"]] + [obj[key] for key in sorted(obj) if key != "kind"])


def check_gamma(kind: str, n: int, gamma: int, witness: list[dict], catalog: list[dict]) -> list[str]:
    table = TABLE3_SYM if kind == "S" else TABLE3_ALT
    probs = []
    if gamma != table[n]:
        probs.append(f"gamma({kind}_{n}) = {gamma}, Table 3 gives {table[n]}")
    comps = [_norm_desc(c) for c in witness]
    if len(comps) != gamma or len(set(comps)) != len(comps):
        probs.append(f"gamma({kind}_{n}): witness has {len(set(comps))} distinct components, not {gamma}")
    allowed = {_norm_desc(c) for c in catalog}
    stray = [c for c in comps if c not in allowed]
    if stray:
        probs.append(f"gamma({kind}_{n}): witness components {stray} are not in the catalog")
    return probs


def check_table3(sym: dict, alt: dict) -> list[str]:
    probs = []
    for label, got, want in (("S", sym, TABLE3_SYM), ("A", alt, TABLE3_ALT)):
        got = {int(n): v for n, v in got.items()}
        if got != want:
            bad = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
            probs.append(f"table3 {label}: differs from Table 3 at degrees {bad}")
    return probs


def check_membership(answer: bool, spectrum: set, parts, label: str) -> list[str]:
    want = tuple(sorted(parts, reverse=True)) in spectrum
    if answer != want:
        return [f"{type_str(parts)} in {label}: answered {answer}, enumeration gives {want}"]
    return []


def check_contains(answer: bool, desc: tuple, parts) -> list[str]:
    want = contains(desc, parts)
    if answer != want:
        return [f"{type_str(parts)} in {desc}: answered {answer}, the cycle-structure rule gives {want}"]
    return []


def check_bounds(kind: str, n: int, factors: dict[int, int], lower_ceil: int, upper: int, exact) -> list[str]:
    probs = []
    if lower_ceil > upper:
        probs.append(f"{kind}_{n}: lower {lower_ceil} above upper {upper}")
    if exact is not None and not lower_ceil <= exact <= upper:
        probs.append(f"{kind}_{n}: exact {exact} outside [{lower_ceil}, {upper}]")
    if len(factors) <= 2 and upper > phi(factors) // 2 + 2:
        probs.append(f"{kind}_{n}: upper {upper} above phi(n)/2 + 2 = {phi(factors) // 2 + 2}")
    if kind == "S" and n >= 5 and factors == {n: 1} and exact != (n - 1) // 2:
        probs.append(f"S_{n}: exact {exact}, prime degree gives {(n - 1) // 2}")
    return probs


def check_u_set(n: int, types: list[tuple[int, ...]]) -> list[str]:
    want = phi(factorize(n)) // 2 - 1
    probs = []
    if len(types) != want:
        probs.append(f"|u_set({n})| = {len(types)}, phi(n)/2 - 1 = {want}")
    for t in types:
        if len(t) != 2 or sum(t) != n or gcd(t[1], n) != 1 or t[1] < 2:
            probs.append(f"u_set({n}) holds {type_str(t)}")
            break
    return probs


def check_t_set(n: int, types: list[tuple[int, ...]]) -> list[str]:
    a = 2
    while n % a == 0:
        a += 1
    want = sorted(
        tuple(sorted((i, (a - 1) * i, n - a * i), reverse=True))
        for i in range(1, n)
        if a * i < n - 1 and gcd(i, n) == 1
    )
    if sorted(types) != want:
        return [f"t_set({n}) differs from [i, (a-1)i, n-ai] with a = {a}"]
    return []


# --- self-test ---------------------------------------------------------------------


def selftest() -> list[str]:
    """Each check must accept a right output and reject a deliberately wrong one."""
    fails = []

    def expect(name: str, right: list[str], wrong: list[str]) -> None:
        if right:
            fails.append(f"{name}: rejects the right output: {right}")
        if not wrong:
            fails.append(f"{name}: accepts a wrong output")

    cat = [{"kind": "intersect_alt", "inner": {"kind": "intransitive", "k": 5}},
           {"kind": "intersect_alt", "inner": {"kind": "imprimitive", "b": 3, "c": 4}},
           {"kind": "named", "name": "M12", "class": 1}]
    wit = [dict(c) for c in cat]
    expect("gamma off by one", check_gamma("A", 12, 3, wit, cat), check_gamma("A", 12, 4, wit, cat))

    n, k = 27, 4
    rest = [c for c in upper_sym_components(n) if c != {"kind": "intransitive", "k": k}]
    expect("uncovered list lacks [n-k,k]",
           check_removed(1, ["[23,4]", "[22,4,1]"], n, k, rest),
           check_removed(1, ["[22,4,1]"], n, k, rest))

    spectrum = {(11, 1), (8, 4)}
    expect("flipped membership", check_membership(True, spectrum, (1, 11), "M12"),
           check_membership(False, spectrum, (1, 11), "M12"))
    desc = ("imprimitive", 3, 4)
    expect("flipped contains_type", check_contains(True, desc, (9, 3)), check_contains(False, desc, (9, 3)))

    expect("bounds lower above upper", check_bounds("S", 11, {11: 1}, 5, 5, 5),
           check_bounds("S", 11, {11: 1}, 6, 5, 5))

    expect("component count off by one", check_cover(0, True, 7, "upper_sym", 24),
           check_cover(0, True, 8, "upper_sym", 24))

    expect("coverage union", check_coverage_union([["[3]", "[2,1]"], ["[1,1,1]"]], 3, []),
           check_coverage_union([["[3]", "[2,1]"]], 3, []))
    expect("u_set size", check_u_set(9, [(7, 2), (5, 4)]), check_u_set(9, [(7, 2)]))
    return fails


if __name__ == "__main__":
    broken = selftest()
    print("\n".join(broken) if broken else "every check rejects its deliberately wrong output")
    raise SystemExit(1 if broken else 0)
