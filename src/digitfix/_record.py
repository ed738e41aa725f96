"""Immutable value records on plain ``__slots__`` classes.

Every CLI command pays the package's import time, and the standard library's
generated record classes cost more than most searches there: their module
imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and each
decorated class execs its generated methods.  A record class here names its
fields in ``__slots__`` and writes its own ``__init__``, which validates and
stores each field with :data:`setfield`.
"""

from __future__ import annotations

setfield = object.__setattr__  # stores a field past Record.__setattr__


class Record:
    """Value semantics over the fields named in a subclass's ``__slots__``.

    Records of the same class are equal when their fields are, hash like the
    tuple of their fields, and refuse assignment and deletion with
    ``AttributeError``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return type(self), self._fields()

    def replace(self, **changes):
        """A copy with the named fields changed, validated by ``__init__`` again."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
