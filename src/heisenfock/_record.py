"""Immutable records with slots.

A ``Record`` subclass names its fields in ``__slots__`` and stores each one
in its own ``__init__`` through ``_set``.  The base gives it the contract of
a frozen dataclass without importing ``dataclasses`` (which pulls in
``inspect`` and ``ast`` at every start of the command line): ``==`` holds
only between instances of one class with equal field tuples, ``hash`` is
the hash of that tuple, the repr reads ``Name(field=value, ...)``, setting
or deleting a field raises ``AttributeError``, and ``copy`` and ``pickle``
rebuild a record through its constructor, so its checks run again.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
