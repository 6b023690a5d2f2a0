"""The immutable record type of the package.

A record class lists its fields as __slots__, each with a leading
underscore; its __init__ checks its arguments and writes each slot once.
Each field reads through a property of the name without the underscore,
which has no setter, and no other attribute can be added.  Records of one
class with equal fields are equal and hash alike, and a record shows and
pickles as a call of its class on its fields; an int field too long for
decimal shows in hex.
"""

from __future__ import annotations

from operator import attrgetter


def _repr_or_hex(v) -> str:
    """repr(v), but an int with more decimal digits than the interpreter
    converts (sys.get_int_max_str_digits()) in hex, which reads back as the
    same int."""
    try:
        return repr(v)
    except ValueError:
        return hex(v)


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for slot in cls.__slots__:
            setattr(cls, slot[1:], property(attrgetter(slot)))

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{s[1:]}={_repr_or_hex(v)}" for s, v in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
