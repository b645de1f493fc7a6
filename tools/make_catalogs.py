#!/usr/bin/env python3
"""Regenerate the built-in subgroup catalogs under src/normcov/data/catalogs/.

One file per group, S_3..S_12 and A_4..A_12, listing its classes of maximal
subgroups by the Liebeck-Praeger-Saxl rule (J. Algebra 111, 1987). S_n: A_n,
S_k x S_{n-k} for each k < n/2, S_b wr S_c as (b, n/b) and (n/b, b) for each
divisor 1 < b <= sqrt(n), then its primitive class. A_n: the meet with A_n of
each of those but A_n, then both classes of its all-even primitive group. Five
meets lie in a class of that group and are left out (NOT_MAXIMAL_IN_ALT):
AGL_1(7) in PSL_2(7); PGL_2(7) and S_2 wr S_4 (meet 2^3:S_4) in AGL_3(2);
AGL_1(11) in M_11; PGL_2(11) in M_12. The one stated exception: A_4 also lists
the non-maximal C_2 = (S_2 x S_2) meet A_4, which with A_3 gives the unique
all-intransitive minimal covering.
Run from the repository root:  python tools/make_catalogs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from normcov.cycle_types import GroupId  # noqa: E402
from normcov.numtheory import divisors  # noqa: E402
from normcov.subgroups import (  # noqa: E402
    Catalog, FullAlternating, Imprimitive, IntersectAlt, Intransitive, NamedGroup, catalog_to_json,
)

PRIMITIVE = {5: "AGL1(5)", 6: "PGL2(5)", 7: "AGL1(7)", 8: "PGL2(7)",
             9: "AGL2(3)", 10: "PGammaL2(9)", 11: "AGL1(11)", 12: "PGL2(11)"}
ALL_EVEN_PRIMITIVE = {7: "PSL2(7)", 8: "AGL3(2)", 9: "PGammaL2(8)", 11: "M11", 12: "M12"}
NOT_MAXIMAL_IN_ALT = {NamedGroup(7, "AGL1(7)"): "PSL2(7)", NamedGroup(8, "PGL2(7)"): "AGL3(2)",
                      Imprimitive(8, 2, 4): "AGL3(2)", NamedGroup(11, "AGL1(11)"): "M11",
                      NamedGroup(12, "PGL2(11)"): "M12"}


def maximal(n: int) -> list:
    """The maximal classes of S_n other than A_n, in catalog order."""
    classes = [Intransitive(n, k) for k in range(1, (n + 1) // 2)]
    for b in divisors(n):
        if 1 < b * b <= n:
            classes += dict.fromkeys([Imprimitive(n, b, n // b), Imprimitive(n, n // b, b)])
    if n in PRIMITIVE:
        classes.append(NamedGroup(n, PRIMITIVE[n]))
    return classes


def catalogs():
    for n in range(3, 13):
        yield Catalog(GroupId.sym(n), (FullAlternating(n), *maximal(n)), True)
    for n in range(4, 13):
        inner = [d for d in maximal(n) if d not in NOT_MAXIMAL_IN_ALT]
        if n == 4:
            inner.insert(1, Intransitive(4, 2))
        descriptors = [IntersectAlt(d) for d in inner]
        if n in ALL_EVEN_PRIMITIVE:
            descriptors += [NamedGroup(n, ALL_EVEN_PRIMITIVE[n], c) for c in (1, 2)]
        yield Catalog(GroupId.alt(n), tuple(descriptors), True)


def main() -> None:
    out = ROOT / "src" / "normcov" / "data" / "catalogs"
    out.mkdir(parents=True, exist_ok=True)
    for cat in catalogs():
        path = out / f"{cat.group.name}.json"
        path.write_text(json.dumps(catalog_to_json(cat), indent=1) + "\n")
        print(f"wrote {path.name}: {len(cat.descriptors)} classes")


if __name__ == "__main__":
    main()
