"""Generators shared by the tests for the groups served by a closed form.

AGL1(p) and PGL2(p) have no generator record, so tests that close every
record also close these, built here.
"""

from normcov.permgroup import Perm


def affine_gens(p):
    """x -> x+1 and x -> g*x on Z_p, g a primitive root; point i+1 is residue i."""
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    return [Perm([(x + 1) % p for x in range(p)]), Perm([x * g % p for x in range(p)])]


def projective_gens(p):
    """The affine generators, fixing infinity (point p+1), and x -> 1/x."""
    inv = Perm([p if x == 0 else 0 if x == p else pow(x, p - 2, p) for x in range(p + 1)])
    return [Perm(a.images + (p,)) for a in affine_gens(p)] + [inv]
