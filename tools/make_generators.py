#!/usr/bin/env python3
"""Regenerate src/normcov/data/generators.json.

Each record carries explicit 1-indexed cycle notation plus the group order the
closure must reproduce before the group is considered usable. The whole group
is closed here, and its order must also equal the orbit-stabiliser order
|1^G| * |G_1| that normcov's descriptors read, with G_1 closed from Schreier
generators; so both order checks are run on every record. Only groups
without a closed-form spectrum have a record: AGL1(p) and PGL2(p) are served
from their closed forms in normcov.subgroups.
Run from the repository root:  python tools/make_generators.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normcov.permgroup import ClosureCapExceeded, Perm, _two_point_slice, closure, cycles_of  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "src" / "normcov" / "data" / "generators.json"


def perm_to_cycles(p: Perm) -> list[list[int]]:
    return [[x + 1 for x in c] for c in cycles_of(p) if len(c) > 1]


def perm_from_map(n: int, fn) -> Perm:
    return Perm([fn(i) for i in range(n)])


# --- small finite fields -------------------------------------------------

class GF:
    """GF(p^k) with a fixed irreducible polynomial; an element is the int whose base-p digits are its coefficients."""

    def __init__(self, p: int, k: int, poly: list[int]):
        # poly: coefficients of the reduction polynomial x^k = poly[0] + poly[1] x + ...
        self.p, self.k, self.size, self.poly = p, k, p**k, poly

    def digits(self, a: int) -> list[int]:
        return [a // self.p**i % self.p for i in range(self.k)]

    def undigits(self, ds: list[int]) -> int:
        """The element with coefficients ds, each reduced mod p here and nowhere else."""
        return sum(d % self.p * self.p**i for i, d in enumerate(ds))

    def add(self, a: int, b: int) -> int:
        return self.undigits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for d in range(2 * self.k - 2, self.k - 1, -1):  # x^d = x^(d-k) * x^k, highest degree first
            for j, coef in enumerate(self.poly):
                prod[d - self.k + j] += prod[d] * coef
        return self.undigits(prod[: self.k])

    def inv(self, a: int) -> int:
        return next(b for b in range(1, self.size) if self.mul(a, b) == 1)

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def generator(self) -> int:
        """The least element of multiplicative order size - 1."""
        return next(g for g in range(2, self.size) if all(self.pow(g, e) != 1 for e in range(1, self.size - 1)))


def pgammal2(field: GF) -> list[Perm]:
    """z -> z+1, z -> nu*z, z -> 1/z and the Frobenius on the projective line.

    Points 1..q are the field elements 0..q-1, point q+1 is infinity.
    """
    q = field.size
    INF = q
    nu = field.generator()

    def act(fn):
        return perm_from_map(q + 1, fn)

    t = act(lambda i: field.add(i, 1) if i != INF else INF)
    m = act(lambda i: field.mul(i, nu) if i != INF else INF)

    def inv(i):
        if i == INF:
            return 0
        if i == 0:
            return INF
        return field.inv(i)

    frob = act(lambda i: field.pow(i, field.p) if i != INF else INF)
    return [t, m, act(inv), frob]


def agl2_3() -> list[Perm]:
    """Affine group of F_3^2 on 9 points; point 1 + x + 3y is the vector (x, y)."""

    def enc(x, y):
        return x + 3 * y

    def act(fn):
        return perm_from_map(9, lambda i: enc(*fn(i % 3, i // 3)))

    t1 = act(lambda x, y: ((x + 1) % 3, y))
    t2 = act(lambda x, y: (x, (y + 1) % 3))
    a = act(lambda x, y: ((x + y) % 3, y))
    b = act(lambda x, y: (x, (x + y) % 3))
    c = act(lambda x, y: (2 * x % 3, y))
    return [t1, t2, a, b, c]


def gl3_2_gens():
    def m1(v):  # add bit1 into bit0
        return v ^ ((v >> 1) & 1)

    def m2(v):  # rotate bits (b0,b1,b2) -> (b2,b0,b1)
        return ((v & 3) << 1) | (v >> 2)

    return m1, m2


def agl3_2() -> list[Perm]:
    """Affine group of F_2^3 on 8 points; point 1 + v is the bit-vector v."""
    m1, m2 = gl3_2_gens()
    return [
        perm_from_map(8, lambda v: v ^ 1),
        perm_from_map(8, m1),
        perm_from_map(8, m2),
    ]


def psl2_7_on_7() -> list[Perm]:
    """GL_3(2) on the 7 nonzero vectors of F_2^3; point i is the vector i."""
    m1, m2 = gl3_2_gens()
    return [
        perm_from_map(7, lambda i: m1(i + 1) - 1),
        perm_from_map(7, lambda i: m2(i + 1) - 1),
    ]


def mathieu11() -> list[Perm]:
    return [
        Perm.from_cycles(11, [list(range(1, 12))]),
        Perm.from_cycles(11, [[3, 7, 11, 8], [4, 10, 5, 6]]),
    ]


def mathieu12() -> list[Perm]:
    return [
        Perm.from_cycles(12, [list(range(1, 12))]),
        Perm.from_cycles(12, [[3, 7, 11, 8], [4, 10, 5, 6]]),
        Perm.from_cycles(12, [[1, 12], [2, 11], [3, 6], [4, 8], [5, 9], [7, 10]]),
    ]


def main() -> None:
    f8 = GF(2, 3, [1, 1, 0])    # x^3 = 1 + x
    f9 = GF(3, 2, [2, 0])       # x^2 = -1

    records = []

    def add(name, degree, expected_order, gens, classes=1):
        grp = closure(degree, gens)
        if grp.order != expected_order:
            raise SystemExit(f"{name}: closure order {grp.order} != expected {expected_order}")
        try:
            _two_point_slice(degree, gens, grp.order)
        except (ClosureCapExceeded, ValueError) as exc:
            raise SystemExit(f"{name}: orbit-stabiliser order disagrees with the closure: {exc}") from None
        records.append(
            {
                "name": name,
                "degree": degree,
                "expected_order": expected_order,
                "classes": classes,
                "generators": [perm_to_cycles(g) for g in gens],
            }
        )
        print(f"{name:14s} degree {degree:3d} order {grp.order}")

    add("PGammaL2(8)", 9, 1512, pgammal2(f8), classes=2)
    add("PGammaL2(9)", 10, 1440, pgammal2(f9))
    add("AGL2(3)", 9, 432, agl2_3())
    add("AGL3(2)", 8, 1344, agl3_2(), classes=2)
    add("PSL2(7)", 7, 168, psl2_7_on_7(), classes=2)
    add("M11", 11, 7920, mathieu11(), classes=2)
    add("M12", 12, 95040, mathieu12(), classes=2)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {OUT} ({len(records)} records)")


if __name__ == "__main__":
    main()
