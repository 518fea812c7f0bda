"""The base of the package's immutable value types.

A value type lists its fields in ``__slots__``, in the order its
constructor takes them.  This base records that list once per class, as
``_fields``; a subclass declaring ``__slots__ = ()`` keeps its parent's.
From the list it compiles each class's one builder, ``cls._trusted(*fields)``,
which sets the fields without a check.  A value type's constructor is a
``__new__`` that checks the fields, then returns ``cls._trusted(...)``; the
library calls ``_trusted`` itself for fields it has made canonical.  The
base supplies the rest of the contract: two values are equal when they are
of the same type and their tuples of fields are equal, a value hashes as
its tuple of fields, setting or deleting a field raises ``AttributeError``,
``repr`` prints ``Name(field=value, ...)``, and pickling and copying rebuild
a value through its checked constructor.  A class that writes its own
``__eq__`` or ``__hash__`` keeps it, as ``FiberTable`` does with its hash.
"""


class Value:
    """Immutable, slotted, compared and printed by field, rebuilt by its constructor."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__")
        cls._fields = fields = cls._fields + tuple(slots or ())
        # Compiled from the text a class would write by hand, so each method
        # runs as fast as a hand-written copy: a generic loop over the fields
        # is slower, and every set and dict of values pays for it.  A subclass
        # gets its own builder, which builds its own type.
        mine = "".join(f"self.{name}, " for name in fields)
        theirs = "".join(f"other.{name}, " for name in fields)
        sets = "".join(f"    object.__setattr__(self, {name!r}, {name})\n" for name in fields)
        methods = {}
        exec(
            f"def _trusted({', '.join(fields)}):\n"
            "    self = object.__new__(cls)\n"
            f"{sets}"
            "    return self\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            {"cls": cls},
            methods,
        )
        cls._trusted = staticmethod(methods.pop("_trusted"))
        if slots:  # a subclass adding no field keeps its parent's methods
            for name, method in methods.items():
                if name not in cls.__dict__:
                    setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
