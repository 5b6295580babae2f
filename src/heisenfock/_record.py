"""Immutable records with slots.

A ``Record`` subclass names its fields once, in ``__slots__``, and the base
writes its constructor: one parameter per field, in slot order, the trailing
ones defaulting to the class keyword ``defaults`` (``class Step(Record,
defaults=(0,))``).  The constructor is one straight-line ``def``, compiled
once per class as ``collections.namedtuple`` compiles its ``__new__``, that
stores each field through ``object.__setattr__`` and then, when the class
defines one, calls its ``_check`` method, which raises on invalid fields.

The base gives every record the contract of a frozen dataclass without
importing ``dataclasses`` (which pulls in ``inspect`` and ``ast`` at every
start of the command line): ``==`` holds only between instances of one class
with equal field tuples, ``hash`` is the hash of that tuple, the repr reads
``Name(field=value, ...)``, setting or deleting a field raises
``AttributeError``, and ``copy`` and ``pickle`` rebuild a record through its
constructor, so its checks run again.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, defaults: tuple = (), **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        lines = [f"_set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "_check"):
            lines.append("self._check()")
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):\n    "
             + "\n    ".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__module__ = cls.__module__
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

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
