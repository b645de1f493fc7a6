"""Generators, records and fixture paths shared by the tests.

AGL1(p) and PGL2(p) are served by a closed form and have no generators in
the library, so tests that close every named group also close these, built
here. The seven other named groups are built from field arithmetic
(_FIELD_GROUPS), and generator_records lists them. DATA is the source
tree's data directory: the benchmark's fixtures, which the library does not
read.
"""

from pathlib import Path

from normcov.permgroup import Perm
from normcov.subgroups import _FIELD_GROUPS, _record

DATA = Path(__file__).resolve().parent.parent / "src" / "normcov" / "data"


def affine_gens(p):
    """x -> x+1 and x -> g*x on Z_p, g a primitive root; point i+1 is residue i."""
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    return [Perm([(x + 1) % p for x in range(p)]), Perm([x * g % p for x in range(p)])]


def projective_gens(p):
    """The affine generators, fixing infinity (point p+1), and x -> 1/x."""
    inv = Perm([p if x == 0 else 0 if x == p else pow(x, p - 2, p) for x in range(p + 1)])
    return [Perm(a.images + (p,)) for a in affine_gens(p)] + [inv]


def generator_records():
    """Every named group with generators, as _record builds it: name, degree, order, classes and class-1 Perms."""
    records = []
    for name, (size, classes, _) in _FIELD_GROUPS.items():
        order, images = _record(size, name, 1)
        gens = [Perm(g) for g in images]
        records.append({"name": name, "degree": size, "expected_order": order, "classes": classes, "generators": gens})
    return records
