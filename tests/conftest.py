"""Generators and records shared by the tests.

AGL1(p) and PGL2(p) are served by a closed form and have no generator
record, so tests that close every record also close these, built here.
Five named groups get their record from field arithmetic (_FIELD_GROUPS)
and only M11 and M12 have one in generators.json; generator_records lists
all seven.
"""

from normcov.permgroup import Perm
from normcov.subgroups import _FIELD_GROUPS, _generator_records, _record, data_dir


def affine_gens(p):
    """x -> x+1 and x -> g*x on Z_p, g a primitive root; point i+1 is residue i."""
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    return [Perm([(x + 1) % p for x in range(p)]), Perm([x * g % p for x in range(p)])]


def projective_gens(p):
    """The affine generators, fixing infinity (point p+1), and x -> 1/x."""
    inv = Perm([p if x == 0 else 0 if x == p else pow(x, p - 2, p) for x in range(p + 1)])
    return [Perm(a.images + (p,)) for a in affine_gens(p)] + [inv]


def generator_records():
    """The record of every named group with generators: the field groups, as _record builds them, then generators.json's."""
    built = [_record(data_dir(), size, name, 1) for name, (size, _, _) in _FIELD_GROUPS.items()]
    return built + list(_generator_records(data_dir()).values())
