"""Immutable value records on plain ``__slots__`` classes.

Every CLI command pays the package's import time, and the standard library's
generated record classes cost more than most searches there: their module
imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and each
decorated class execs its generated methods.  A record class here names its
fields in ``__slots__``, the defaults of its trailing fields in ``_defaults``
(whose keys, in order, can then end ``__slots__``), and its validation in
``_check``; :class:`Record` holds the one constructor.
"""

setfield = object.__setattr__  # stores a field past Record.__setattr__


class Record:
    """Value semantics over the fields named in a subclass's ``__slots__``.

    The constructor binds arguments to the fields in ``__slots__`` order,
    takes the fields it is not given from ``_defaults``, and calls ``_check``.
    Records of the same class are equal when their fields are, hash like the
    tuple of their fields, and refuse assignment and deletion with
    ``AttributeError``.
    """

    __slots__ = ()
    _defaults: dict = {}  # field name -> default, for the trailing fields only

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):  # else every field is given in order
            record = type(self).__name__
            if len(args) > len(names):
                raise TypeError(f"{record}() takes {len(names)} fields, got {len(args)}")
            given = dict(zip(names, args))
            for name in kwargs:
                if name not in names or name in given:
                    problem = "an unknown" if name not in names else "a repeated"
                    raise TypeError(f"{record}() got {problem} field {name!r}")
            values = {**self._defaults, **given, **kwargs}
            missing = [name for name in names if name not in values]
            if missing:
                raise TypeError(f"{record}() is missing field(s) {', '.join(missing)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            setfield(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise on an invalid field value; a record without checks accepts any."""

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
        """A copy with the named fields changed, validated by ``_check`` again."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
