"""The base of the package's immutable value classes.

A value class lists its fields in __slots__ and writes its own __init__, which
checks its arguments and sets each field once through object.__setattr__.
Value supplies the rest: equality and hashing within one class on the key
operator.attrgetter(*__slots__), the repr "Name(field=value, ...)", refusal of
assignment and deletion, and copy and pickle by calling the class on its
fields again. Ordered adds <, <=, > and >= on the key. Nothing is generated by
exec, so defining a class costs next to nothing at import.

_value.Fraction makes a fractions.Fraction and imports the module on its first
call: fractions pulls in decimal and numbers, which most commands never need.
"""

from __future__ import annotations

from operator import attrgetter, ge, gt, le, lt


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__slots__:
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


def _compare(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), self._key(other))

    return compare


class Ordered(Value):
    """A Value whose instances of one class order by their keys, as tuples do."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))


def Fraction(*args):
    # The first call imports fractions and rebinds this name to fractions.Fraction itself, so each
    # later _value.Fraction(...) costs one attribute lookup and no import.
    global Fraction
    from fractions import Fraction

    return Fraction(*args)
