"""Value semantics of the public value classes: immutable, hashable, copyable, picklable.

Each case builds one instance afresh on every call, so two calls give equal
but distinct objects. The repr literals are the strings these classes printed
when they were dataclasses; the value classes keep them.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import normcov
from normcov._value import Value
from normcov.bounds import bounds_report, phi_half_bound
from normcov.coverings import BasicSet, exact_gamma, verify_basic_set
from normcov.cycle_types import ClassId, CycleType, GroupId, SplitTag, class_universe
from normcov.numtheory import Interval, totient_report
from normcov.subgroups import (
    Catalog,
    FullAlternating,
    Imprimitive,
    IntersectAlt,
    Intransitive,
    NamedGroup,
    load_catalog,
)

S4 = GroupId.sym(4)
S4_PAIR = (Intransitive(4, 1), Imprimitive(4, 2, 2))
SYM4 = "GroupId(kind=<GroupKind.SYM: 'S'>, degree=4)"

CASES = {
    "TotientReport": (lambda: totient_report(12), "TotientReport(n=12, phi=4, nu=2, mu=0)"),
    "Interval": (
        lambda: Interval(1, Fraction(11, 2)),
        "Interval(lo=Fraction(1, 1), hi=Fraction(11, 2), lo_open=False, hi_open=True)",
    ),
    "CycleType": (lambda: CycleType([1, 3, 1]), "CycleType(parts=(3, 1, 1))"),
    "ClassId": (
        lambda: ClassId(CycleType((5, 3, 1)), SplitTag.MINUS),
        "ClassId(ctype=CycleType(parts=(5, 3, 1)), split_tag=<SplitTag.MINUS: '-'>)",
    ),
    "GroupId": (lambda: GroupId.alt(9), "GroupId(kind=<GroupKind.ALT: 'A'>, degree=9)"),
    "Intransitive": (lambda: Intransitive(12, 3), "Intransitive(degree=12, k=3)"),
    "Imprimitive": (lambda: Imprimitive(12, 3, 4), "Imprimitive(degree=12, b=3, c=4)"),
    "FullAlternating": (lambda: FullAlternating(7), "FullAlternating(degree=7)"),
    "NamedGroup": (lambda: NamedGroup(12, "M12", 2), "NamedGroup(degree=12, name='M12', cls=2)"),
    "IntersectAlt": (
        lambda: IntersectAlt(Imprimitive(9, 3, 3)),
        "IntersectAlt(inner=Imprimitive(degree=9, b=3, c=3))",
    ),
    "Catalog": (
        lambda: Catalog(S4, S4_PAIR, False),
        f"Catalog(group={SYM4}, descriptors=(Intransitive(degree=4, k=1), Imprimitive(degree=4, b=2, c=2)),"
        " complete=False)",
    ),
    "BasicSet": (
        lambda: BasicSet(S4, S4_PAIR, "hand-made", 2),
        f"BasicSet(group={SYM4}, components=(Intransitive(degree=4, k=1), Imprimitive(degree=4, b=2, c=2)),"
        " provenance='hand-made', expected_size=2)",
    ),
    "CoverReport": (
        lambda: verify_basic_set(BasicSet(S4, (Intransitive(4, 1),))),
        f"CoverReport(group={SYM4}, covered=False,"
        " uncovered=(ClassId(ctype=CycleType(parts=(4,)), split_tag=<SplitTag.NOT_SPLIT: ''>),"
        " ClassId(ctype=CycleType(parts=(2, 2)), split_tag=<SplitTag.NOT_SPLIT: ''>)),"
        " components=(Intransitive(degree=4, k=1),))",
    ),
    "GammaResult": (
        lambda: exact_gamma(S4, load_catalog(S4)),
        f"GammaResult(gamma=2, witness=BasicSet(group={SYM4},"
        " components=(FullAlternating(degree=4), Imprimitive(degree=4, b=2, c=2)),"
        " provenance='exact set cover minimum', expected_size=None), exact=True)",
    ),
    "PhiHalfBound": (
        lambda: phi_half_bound(7),
        "PhiHalfBound(n=7, delta=0, bound=3, groups=(<GroupKind.SYM: 'S'>,))",
    ),
    "BoundReport": (
        lambda: bounds_report(GroupId.sym(7)),
        "BoundReport(group=GroupId(kind=<GroupKind.SYM: 'S'>, degree=7), lower=Fraction(3, 1), lower_ceil=3,"
        " upper=3, exact=3, sources=(('3', 'totient lower bound'), ('3', 'general upper bound'),"
        " ('3', 'small-degree exact value'), ('3', 'phi(n)/2 + 0 upper bound')))",
    ),
}


def test_every_public_value_class_has_a_case():
    exported = (getattr(normcov, name) for name in dir(normcov))
    assert {cls.__name__ for cls in exported if isinstance(cls, type) and issubclass(cls, Value)} == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment_and_deletion(name):
    obj = CASES[name][0]()
    field = type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trip(name):
    obj = CASES[name][0]()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
        assert hash(twin) == hash(obj)


def test_round_trip_keeps_normalised_fields():
    t = pickle.loads(pickle.dumps(CycleType([1, 2, 3])))
    assert t.parts == (3, 2, 1) and type(t.parts) is tuple
    iv = copy.deepcopy(Interval(2, 5, True, False))
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction and str(iv) == "(2,5]"


@pytest.mark.parametrize("name", CASES)
def test_value_semantics(name):
    make, text = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    assert a != tuple(getattr(a, f) for f in type(a).__slots__)


def test_values_of_different_classes_neither_equal_nor_order():
    assert Intransitive(12, 3) != (12, 3) and not Intransitive(12, 3) == (12, 3)
    assert Intransitive(12, 6) != FullAlternating(12)
    with pytest.raises(TypeError):
        Intransitive(12, 3) < Imprimitive(12, 3, 4)
    with pytest.raises(TypeError):
        Imprimitive(12, 3, 4) >= IntersectAlt(Imprimitive(12, 3, 4))
    with pytest.raises(TypeError):
        sorted([Intransitive(12, 3), Imprimitive(12, 3, 4)])


def test_sort_orders():
    s8 = [str(c) for c in sorted(class_universe(GroupId.sym(8)))]
    assert s8 == [
        "[1,1,1,1,1,1,1,1]", "[2,1,1,1,1,1,1]", "[2,2,1,1,1,1]", "[2,2,2,1,1]", "[2,2,2,2]",
        "[3,1,1,1,1,1]", "[3,2,1,1,1]", "[3,2,2,1]", "[3,3,1,1]", "[3,3,2]", "[4,1,1,1,1]",
        "[4,2,1,1]", "[4,2,2]", "[4,3,1]", "[4,4]", "[5,1,1,1]", "[5,2,1]", "[5,3]",
        "[6,1,1]", "[6,2]", "[7,1]", "[8]",
    ]  # fmt: skip
    # descriptors order within one kind; A_12's catalog lists its imprimitive ones unsorted
    cat = load_catalog(GroupId.alt(12))
    kinds = (Intransitive, Imprimitive, NamedGroup)
    groups = [sorted(d for d in cat.descriptors if type(getattr(d, "inner", d)) is kind) for kind in kinds]
    assert [str(d) for group in groups for d in group] == [
        "alt:intransitive:1", "alt:intransitive:2", "alt:intransitive:3", "alt:intransitive:4",
        "alt:intransitive:5", "alt:imprimitive:2,6", "alt:imprimitive:3,4", "alt:imprimitive:4,3",
        "alt:imprimitive:6,2", "named:M12", "named:M12:2",
    ]  # fmt: skip


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks out, so only the import itself can load them; the CLI parses its own
    # arguments, fractions (with decimal and numbers) loads on the first Fraction made, and
    # data paths are joined with os.path, so pathlib (with urllib.parse and ipaddress) stays out
    src = str(Path(normcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    unloaded = {"dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "numbers", "pathlib"}
    code = (
        f"import sys, normcov.cli; print(sorted({unloaded!r} & set(sys.modules)))\n"
        "from fractions import Fraction\n"
        "from normcov import GroupId, Interval, bounds_report\n"
        "print(type(bounds_report(GroupId.sym(16)).lower) is Fraction, type(Interval.parse('[1/2,3)').lo) is Fraction)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "True True", ""]


def test_import_leaves_json_unloaded():
    # json loads only where a file is read or JSON is written, so text commands skip it
    src = str(Path(normcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, normcov.cli; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
